"""Shared data containers, regression bases, and log-domain primitives.

Curves are real-valued functions sampled on one common strictly
increasing time grid. Regression models act through a design matrix
evaluated on that grid: a Vandermonde matrix for polynomial fits or a
B-spline basis for spline fits. Everything downstream accumulates
densities in the log domain; the helpers here are the only places where
raw Gaussian densities and log-sum-exp reductions are spelled out.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import BSpline

from .errors import DataError

LOG_2PI = float(np.log(2.0 * np.pi))

#: Near-singular linear solves fall back to a ridge above this condition number.
MAX_CONDITION = 1e12


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sampling instants shared by a set of curves."""

    points: np.ndarray

    def __post_init__(self):
        pts = _frozen_array(self.points)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("time grid needs at least 2 points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("time grid points must be finite")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("time grid must be strictly increasing")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return int(self.points.size)

    @property
    def span(self) -> float:
        return float(self.points[-1] - self.points[0])

    def fingerprint(self) -> str:
        """Short digest used to report grid mismatches."""
        import hashlib

        payload = ",".join(repr(float(t)) for t in self.points).encode()
        return hashlib.sha256(payload).hexdigest()[:12]


@dataclass(frozen=True)
class Curve:
    """One sampled curve on a shared grid."""

    values: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        vals = _frozen_array(self.values)
        if vals.ndim != 1 or vals.size != len(self.grid):
            raise ValueError("curve length must match its grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("curve values must be finite")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class LabeledCurveSet:
    """n curves on one grid with class labels in 1..n_classes.

    ``values`` is the (n, m) stack of curve samples; every class index
    must occur at least once.
    """

    values: np.ndarray
    labels: np.ndarray
    grid: TimeGrid
    n_classes: int

    def __post_init__(self):
        vals = _frozen_array(self.values)
        labels = _frozen_array(self.labels, dtype=int)
        if vals.ndim != 2 or vals.shape[1] != len(self.grid):
            raise ValueError("values must be (n, m) with m matching the grid")
        if labels.shape != (vals.shape[0],):
            raise ValueError("labels must be one per curve")
        if not np.all(np.isfinite(vals)):
            raise ValueError("curve values must be finite")
        if self.n_classes < 1:
            raise ValueError("n_classes must be >= 1")
        present = np.unique(labels)
        expected = np.arange(1, self.n_classes + 1)
        if present.size != expected.size or np.any(present != expected):
            raise ValueError(
                f"labels must cover every class 1..{self.n_classes}, got {present.tolist()}"
            )
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "labels", labels)

    @property
    def n_curves(self) -> int:
        return int(self.values.shape[0])

    def curve(self, i: int) -> Curve:
        return Curve(self.values[i], self.grid)

    def class_indices(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)

    def class_values(self, label: int) -> np.ndarray:
        """(n_g, m) slice of the curves carrying ``label``."""
        return self.values[self.labels == label]


@dataclass(frozen=True)
class Basis:
    """Descriptor of a regression basis; see :func:`design_matrix`."""

    kind: str
    degree: int = 0
    order: int = 4
    interior_knots: int = 0

    def __post_init__(self):
        if self.kind not in ("polynomial", "bspline"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.kind == "polynomial" and self.degree < 0:
            raise ValueError("polynomial degree must be >= 0")
        if self.kind == "bspline":
            if self.order < 1:
                raise ValueError("spline order must be >= 1")
            if self.interior_knots < 0:
                raise ValueError("interior knot count must be >= 0")

    @staticmethod
    def polynomial(degree: int) -> "Basis":
        return Basis(kind="polynomial", degree=degree)

    @staticmethod
    def bspline(order: int, interior_knots: int) -> "Basis":
        return Basis(kind="bspline", order=order, interior_knots=interior_knots)

    def to_dict(self) -> dict:
        if self.kind == "polynomial":
            return {"kind": "polynomial", "degree": self.degree}
        return {
            "kind": "bspline",
            "order": self.order,
            "interior_knots": self.interior_knots,
        }

    @staticmethod
    def from_dict(doc: dict) -> "Basis":
        kind = doc.get("kind")
        if kind == "polynomial":
            return Basis.polynomial(int(doc["degree"]))
        if kind == "bspline":
            return Basis.bspline(int(doc["order"]), int(doc["interior_knots"]))
        raise DataError(f"unknown basis kind in document: {kind!r}")


@dataclass(frozen=True)
class DesignMatrix:
    """Regression basis evaluated on a grid: an (m, d) matrix."""

    matrix: np.ndarray
    basis: Basis
    grid: TimeGrid = field(repr=False)

    def __post_init__(self):
        mat = _frozen_array(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != len(self.grid):
            raise ValueError("design matrix must be (m, d) with m matching the grid")
        object.__setattr__(self, "matrix", mat)

    @property
    def n_rows(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def n_cols(self) -> int:
        return int(self.matrix.shape[1])


def vandermonde(grid: TimeGrid, degree: int) -> DesignMatrix:
    """Polynomial design: row j is (1, t_j, t_j^2, ..., t_j^degree)."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    mat = np.vander(grid.points, N=degree + 1, increasing=True)
    return DesignMatrix(mat, Basis.polynomial(degree), grid)


def bspline_basis(grid: TimeGrid, order: int, interior_knots: int) -> DesignMatrix:
    """B-spline design with uniform interior knots on [t_1, t_m].

    ``order`` is the spline order (degree + 1; order 4 = cubic). Boundary
    knots are repeated ``order`` times, which makes the rows a partition
    of unity over the whole grid. The basis has ``interior_knots + order``
    columns and must not exceed the number of grid points.
    """
    basis = Basis.bspline(order, interior_knots)
    m = len(grid)
    n_basis = interior_knots + order
    if n_basis > m:
        raise ValueError(
            f"over-parameterized spline basis: {n_basis} functions for {m} points"
        )
    t0, t1 = float(grid.points[0]), float(grid.points[-1])
    interior = np.linspace(t0, t1, interior_knots + 2)[1:-1]
    knots = np.concatenate([np.full(order, t0), interior, np.full(order, t1)])
    mat = BSpline.design_matrix(grid.points, knots, order - 1).toarray()
    return DesignMatrix(mat, basis, grid)


def design_matrix(grid: TimeGrid, basis: Basis) -> DesignMatrix:
    """Evaluate a basis descriptor on a grid."""
    if basis.kind == "polynomial":
        return vandermonde(grid, basis.degree)
    return bspline_basis(grid, basis.order, basis.interior_knots)


def gaussian_logpdf(x, mean, variance):
    """Log density of N(mean, variance) at x; broadcasts over arrays."""
    variance = np.asarray(variance, dtype=float)
    if np.any(variance <= 0):
        raise ValueError("variance must be positive")
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    out = -0.5 * (LOG_2PI + np.log(variance) + (x - mean) ** 2 / variance)
    return float(out) if out.ndim == 0 else out


def logsumexp(values, axis=None):
    """log(sum(exp(values))) by max-shifting; -inf rows stay -inf."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("logsumexp of an empty collection")
    shift = np.max(values, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(values - shift), axis=axis))
    out = out + np.squeeze(shift, axis=axis) if axis is not None else out + shift.reshape(())
    return float(out) if np.ndim(out) == 0 else out


def variance_floor(values: np.ndarray) -> float:
    """Lower bound for fitted noise variances on this dataset.

    Prevents likelihood blow-up when a regime or component captures a
    single point.
    """
    spread = float(np.var(np.asarray(values, dtype=float)))
    return max(1e-10, 1e-8 * spread)


def ridge_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve gram @ x = rhs for a symmetric positive semi-definite gram.

    One eigendecomposition gives both the condition number and the
    solution. Above ``MAX_CONDITION``, a singular gram included, it solves
    (gram + lam I) x = rhs instead, with the ridge lam = 1e-10 * trace / dim
    (1e-10 for a zero trace). ``gram`` is one (d, d) matrix with a (d,)
    ``rhs``, or a stack (..., d, d) with a (..., d) ``rhs``; each member of
    a stack is tested and, if need be, shifted on its own. Raises
    ``numpy.linalg.LinAlgError`` when a solution is not finite, as for a
    non-finite system.
    """
    eigvals, eigvecs = np.linalg.eigh(np.asarray(gram, dtype=float))  # ascending
    rhs = np.asarray(rhs, dtype=float)
    if eigvals.ndim == 1:  # one system: scalar tests keep its cost at that of one solve
        if not (eigvals[0] > 0 and eigvals[-1] <= MAX_CONDITION * eigvals[0]):
            eigvals = eigvals + (1e-10 * abs(eigvals.sum()) / eigvals.size or 1e-10)
        x = eigvecs @ ((rhs @ eigvecs) / eigvals)
    else:
        lo, hi = eigvals[..., :1], eigvals[..., -1:]
        ill = ~((lo > 0) & (hi <= MAX_CONDITION * lo))
        if ill.any():
            ridge = 1e-10 * np.abs(eigvals.sum(axis=-1, keepdims=True)) / eigvals.shape[-1]
            ridge[ridge == 0] = 1e-10
            eigvals = eigvals + np.where(ill, ridge, 0.0)
        coef = (rhs[..., None, :] @ eigvecs) / eigvals[..., None, :]
        x = (eigvecs @ coef.swapaxes(-1, -2))[..., 0]
    if not np.isfinite(x).all():
        raise np.linalg.LinAlgError("ridge_solve: the solution is not finite")
    return x


# ---------------------------------------------------------------------------
# Curve set file format: grid.csv (one row of m times) + curves.csv (one row
# per curve: integer label, then m values). UTF-8, no header, round-trip
# exact float serialization.
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_curveset(data: LabeledCurveSet, grid_path: str, curves_path: str) -> None:
    grid_row = ",".join(_fmt(t) for t in data.grid.points)
    rows = []
    for i in range(data.n_curves):
        fields = [str(int(data.labels[i]))]
        fields.extend(_fmt(v) for v in data.values[i])
        rows.append(",".join(fields))
    atomic_write_text(grid_path, grid_row + "\n")
    atomic_write_text(curves_path, "\n".join(rows) + "\n")


def read_curveset(grid_path: str, curves_path: str) -> LabeledCurveSet:
    try:
        with open(grid_path, encoding="utf-8") as fh:
            grid_text = fh.read()
        with open(curves_path, encoding="utf-8") as fh:
            curve_lines = [line for line in fh.read().splitlines() if line.strip()]
    except OSError as exc:
        raise DataError(f"cannot read curve set: {exc}") from exc

    grid_lines = [line for line in grid_text.splitlines() if line.strip()]
    if len(grid_lines) != 1:
        raise DataError(f"{grid_path}: expected exactly one row of time points")
    try:
        grid = TimeGrid(np.array([float(v) for v in grid_lines[0].split(",")]))
    except ValueError as exc:
        raise DataError(f"{grid_path}: {exc}") from exc

    m = len(grid)
    labels = []
    values = []
    for lineno, line in enumerate(curve_lines, start=1):
        fields = line.split(",")
        if len(fields) != m + 1:
            raise DataError(
                f"{curves_path}:{lineno}: expected label + {m} values, got {len(fields)} fields"
            )
        try:
            labels.append(int(fields[0]))
            values.append([float(v) for v in fields[1:]])
        except ValueError as exc:
            raise DataError(f"{curves_path}:{lineno}: {exc}") from exc
    if not labels:
        raise DataError(f"{curves_path}: no curves")
    labels_arr = np.array(labels, dtype=int)
    if np.any(labels_arr < 1):
        raise DataError(f"{curves_path}: labels must be positive integers")
    try:
        return LabeledCurveSet(
            np.array(values), labels_arr, grid, n_classes=int(labels_arr.max())
        )
    except ValueError as exc:
        raise DataError(f"{curves_path}: {exc}") from exc
