"""Shared data containers, regression bases, log-domain primitives, and
the structure checker of the package's JSON documents.

Curves are real-valued functions sampled on one common strictly
increasing time grid. Regression models act through a design matrix
evaluated on that grid: a Vandermonde matrix for polynomial fits or a
B-spline basis for spline fits. Everything downstream accumulates
densities in the log domain, from the ``LOG_2PI`` constant and the
``logsumexp`` reduction here; the Gaussian log-densities themselves are
spelled out where they are evaluated, in the MixRHLP kernel, whose
one-regime case serves the regression baselines.
"""

from __future__ import annotations

import functools
import os
import reprlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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
    def n_cols(self) -> int:
        return int(self.matrix.shape[1])

    @functools.cached_property
    def pinv(self) -> np.ndarray:
        """(d, m) pseudo-inverse, computed once per design: times a curve, it
        gives the curve's least-squares coefficients, with no Gram formed."""
        return _frozen_array(np.linalg.pinv(self.matrix))


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

    The values come from de Boor's triangular recurrence (de Boor, *A
    Practical Guide to Splines*, 1978). For the knot span l with
    t_l <= x < t_{l+1} (the last span closed on the right), the j + 1
    B-splines of degree j that are non-zero at x, b_0..b_j, follow from
    the j of degree j - 1, one degree at a time:

        b_i = w_{i-1} (x - t_{l+i-j}) + w_i (t_{l+i+1} - x),
        w_i = b'_i / (t_{l+i+1} - t_{l+i+1-j}),   w_{-1} = w_j = 0.

    Each value is rounded exactly as in the de Boor loop behind scipy's
    ``BSpline.design_matrix``, so the matrix equals scipy's bit for bit.
    """
    basis = Basis.bspline(order, interior_knots)
    m = len(grid)
    n_basis = interior_knots + order
    if n_basis > m:
        raise ValueError(
            f"over-parameterized spline basis: {n_basis} functions for {m} points"
        )
    x = grid.points
    t0, t1 = float(x[0]), float(x[-1])
    interior = np.linspace(t0, t1, interior_knots + 2)[1:-1]
    knots = np.concatenate([np.full(order, t0), interior, np.full(order, t1)])
    degree = order - 1
    span = np.clip(np.searchsorted(knots, x, "right") - 1, degree, n_basis - 1)
    values = np.ones((m, 1))
    for j in range(1, order):
        # every denominator spans [t_l, t_{l+1}], which is never empty
        right = knots[span[:, None] + np.arange(1, j + 1)]
        left = knots[span[:, None] + np.arange(1 - j, 1)]
        w = values / (right - left)
        values = np.zeros((m, j + 1))
        values[:, :j] = w * (right - x[:, None])
        values[:, 1:] += w * (x[:, None] - left)
    mat = np.zeros((m, n_basis))
    np.put_along_axis(mat, span[:, None] - degree + np.arange(order), values, axis=1)
    # Schoenberg-Whitney: the columns are independent if and only if each
    # function j can be given its own grid point where it is non-zero, in
    # increasing order; the supports move right with j, so the earliest
    # free point is always the best choice
    row = -1
    for j in range(n_basis):
        free = np.flatnonzero(mat[row + 1 :, j])
        if free.size == 0:
            raise ValueError(
                f"singular spline basis: function {j + 1} of {n_basis} is zero on every "
                "grid point not taken by an earlier one"
            )
        row += 1 + int(free[0])
    return DesignMatrix(mat, basis, grid)


def design_matrix(grid: TimeGrid, basis: Basis) -> DesignMatrix:
    """Evaluate a basis descriptor on a grid."""
    if basis.kind == "polynomial":
        return vandermonde(grid, basis.degree)
    return bspline_basis(grid, basis.order, basis.interior_knots)


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
# JSON documents. The module that owns a document (a model file in
# ``discriminant``, a spec file in ``datagen``, a --config file in ``cli``)
# declares its structure once; ``check_structure`` checks it on reading.
# ---------------------------------------------------------------------------


class JsonType(NamedTuple):
    """A JSON scalar of a structure: the Python types its values may have,
    exactly (so ``true`` is no integer and ``1.0`` no count), and its name
    in error messages."""

    types: tuple[type, ...]
    name: str


INTEGER = JsonType((int,), "an integer")
NUMBER = JsonType((int, float), "a number")
NUMBER_OR_NULL = JsonType((int, float, type(None)), "a number")
STRING = JsonType((str,), "a string")
BOOLEAN = JsonType((bool,), "true or false")


class OptionalKey(NamedTuple):
    """The structure of an object key that may be absent."""

    structure: object


def check_structure(value, structure, where: str = "", error: type = DataError):
    """``value``, if it has ``structure``, as a copy that holds only the
    object keys the structure names; else ``error``, naming the first field
    that does not fit by its path from ``where``.

    A structure is a ``JsonType``; a list ``[s]``, for a list of items of
    structure s; or a dict, for an object that holds each of its keys with
    a value of that key's structure, or, for a structure wrapped in
    ``OptionalKey``, may lack the key.
    """
    if isinstance(structure, JsonType):
        if type(value) not in structure.types:
            raise error(f"{where} must be {structure.name}, got {reprlib.repr(value)}")
        return value
    kind, name = (list, "a list") if isinstance(structure, list) else (dict, "an object")
    if type(value) is not kind:
        raise error(f"{where} must be {name}, got {reprlib.repr(value)}")
    if kind is list:
        return [check_structure(v, structure[0], f"{where}[{i}]", error)
                for i, v in enumerate(value)]
    out = {}
    for key, inner in structure.items():
        if isinstance(inner, OptionalKey):
            if key not in value:
                continue
            inner = inner.structure
        elif key not in value:
            raise error(f"{where or 'document'} has no {key!r}")
        out[key] = check_structure(value[key], inner, f"{where}.{key}" if where else key, error)
    return out


# ---------------------------------------------------------------------------
# Curve set file format: grid.csv (one row of m times) + curves.csv (one row
# per curve: integer label, then m values). UTF-8, no header, round-trip
# exact float serialization. Blank lines are skipped; an error names its
# line by its number in the file, blank lines included.
# ---------------------------------------------------------------------------


def csv_text(rows) -> str:
    """CSV text of ``rows``, one line each: a float field (numpy float64
    scalars included) as its round-trip exact ``repr``, any other as ``str``
    gives it."""
    return "".join(
        ",".join([float.__repr__(v) if isinstance(v, float) else str(v) for v in row]) + "\n"
        for row in rows
    )


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
    atomic_write_text(grid_path, csv_text([data.grid.points.tolist()]))
    atomic_write_text(curves_path, csv_text(
        [label, *row] for label, row in zip(data.labels.tolist(), data.values.tolist())
    ))


def _numbered_lines(text: str):
    """(line number, line) of each line of ``text`` that is not blank."""
    return ((n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip())


def _floats(lines: list[str], columns) -> np.ndarray:
    """The ``columns`` of comma-separated ``lines`` as one (lines, columns)
    float array, by numpy's C parser: each value is the float that
    ``float()`` reads from its token, but the parser rejects ``_`` between
    digits and digits outside ASCII. ``comments=None``, or a ``#`` would cut
    its line short."""
    return np.loadtxt(lines, delimiter=",", comments=None, usecols=columns, ndmin=2)


def _parses(line: str, columns) -> bool:
    try:
        _floats([line], columns)
    except ValueError:
        return False
    return True


def _read_floats(path: str, text: str, lines: list[str], columns) -> np.ndarray:
    """``_floats`` of ``lines``, the non-blank lines of ``text``; a token
    that does not parse is a ``DataError`` naming its line. Only then are
    the lines parsed one by one, to find it."""
    try:
        return _floats(lines, columns)
    except ValueError as exc:
        for lineno, line in _numbered_lines(text):
            if not _parses(line, columns):
                token = line.split(",")[next(j for j in columns if not _parses(line, [j]))]
                raise DataError(
                    f"{path}:{lineno}: could not convert string to float: {token!r}"
                ) from exc
        raise DataError(f"{path}: {exc}") from exc


def read_curveset(grid_path: str, curves_path: str) -> LabeledCurveSet:
    try:
        with open(grid_path, encoding="utf-8") as fh:
            grid_text = fh.read()
        with open(curves_path, encoding="utf-8") as fh:
            curves_text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read curve set: {exc}") from exc

    grid_lines = [line for _, line in _numbered_lines(grid_text)]
    if len(grid_lines) != 1:
        raise DataError(f"{grid_path}: expected exactly one row of time points")
    points = _read_floats(
        grid_path, grid_text, grid_lines, range(grid_lines[0].count(",") + 1)
    )
    try:
        grid = TimeGrid(points[0])
    except ValueError as exc:
        raise DataError(f"{grid_path}: {exc}") from exc

    # each line's field count (``usecols`` would drop extra fields unseen)
    # and label are checked here; its values are parsed in one call after
    # the loop
    m = len(grid)
    labels = []
    lines = []
    for lineno, line in _numbered_lines(curves_text):
        if line.count(",") != m:
            raise DataError(
                f"{curves_path}:{lineno}: expected label + {m} values, "
                f"got {line.count(',') + 1} fields"
            )
        try:
            labels.append(int(line.partition(",")[0]))
        except ValueError as exc:
            raise DataError(f"{curves_path}:{lineno}: {exc}") from exc
        lines.append(line)
    if not labels:
        raise DataError(f"{curves_path}: no curves")
    if min(labels) < 1:
        raise DataError(f"{curves_path}: labels must be positive integers")
    # n curves cover at most classes 1..n, so a larger label, which may not
    # even fit a numpy integer, is no class index
    top = max(labels)
    if top > len(labels):
        lineno = next(n for n, line in _numbered_lines(curves_text)
                      if int(line.partition(",")[0]) == top)
        raise DataError(
            f"{curves_path}:{lineno}: label above the number of "
            f"curves ({len(labels)}); the labels must cover every class 1..max"
        )
    values = _read_floats(curves_path, curves_text, lines, range(1, m + 1))
    labels_arr = np.array(labels, dtype=int)
    try:
        return LabeledCurveSet(values, labels_arr, grid, n_classes=int(labels_arr.max()))
    except ValueError as exc:
        raise DataError(f"{curves_path}: {exc}") from exc
