"""Mixture of hidden-logistic-process regressions for one class of curves.

A class is modeled as K sub-groups (clusters) of curves; within cluster k
each curve switches over time among R_k polynomial regimes, with the
switching probabilities given by a logistic process. The density of one
curve under cluster k is

    prod_j sum_r pi_r(t_j) * N(x_j; coeffs_r . t_j, var_r)

and the class density mixes the clusters with proportions ``weights``.

Fitting maximizes the observed-data log-likelihood with an EM algorithm:
the E-step computes cluster responsibilities (per curve) and regime
responsibilities (per curve, per point, per cluster); the M-step updates
mixing proportions, solves weighted least squares per regime, refreshes
noise variances, and re-fits each cluster's logistic process by IRLS.
Every accepted iteration is guaranteed not to decrease the observed-data
log-likelihood.

One private kernel evaluates the per-point density for fitting and for
scoring alike. It takes a group of G clusters that share one regime count
R and works on a (G, R, n, m) array, regime before curve and point, so
regime r of cluster g is the contiguous slab ``[g, r]`` and every
reduction over regimes (the max, the sum, the normalisation) runs across
R slabs instead of along a short trailing axis. The E-step calls it once
per group (one group unless the regime counts are ragged); scoring calls
it one cluster at a time, which keeps the buffer of a large scoring set
to one cluster's size and gives the same per-curve log-likelihoods, bit
for bit. R=1 is a shape case of it: the density is one Gaussian product
in closed form, with no buffer, and the responsibilities are all 1. The
M-step fits each group as one stack too: one ``ridge_solve`` over the
Grams of every regime with mass, or at R=1, where every point of a
cluster carries the cluster's mass, the projection of each cluster's
weighted mean curve through the design's pseudo-inverse, with no solve.
It leaves the logistic processes of a group of more than one regime to
the driver, which fits them by IRLS together with those of the other
restarts (below).

Each EM restart carries its iterate as one packed state of plain arrays,
``_EmState``: the (K,) mixing weights and, for each regime group, the
(G, R, d) coefficients, (G, R) variances and (G, R, 2) logistic
coefficients. The E-step reads it and the M-step returns a new one, so an
iteration builds no ``RhlpParams``, ``LogisticWeights`` or
``MixRhlpParams`` and checks none: ``_fit_restarts`` packs each start, and
``_em_once`` builds (and so checks) the parameters of each finished
restart; the public ``e_step`` and ``m_step`` convert the same way. A NaN
in an M-step result makes the next E-step's log-likelihoods NaN, which
raises ``NumericalError``; an infinite one starves its cluster, or fails
the checks where ``_em_once`` builds its result. Ragged regime counts give
one entry per group, and the starved-cluster rescue writes its re-seeded
cluster into its group's rows.

The M-step reads the posteriors only through their sufficient statistics,
``_Stats``: the (K,) cluster totals and, per regime group, the (G, R, m)
point masses, sums of x and sums of x^2. The EM E-step computes them
right after the kernel, from a workspace of one (G, R, n, m) buffer per
regime group of more than one regime, which each fit allocates once (an
R=1 group's statistics are the cluster totals, gamma' x and gamma' x^2).
Every E-step of every restart overwrites it, and nothing reads it after the statistics are taken, so
the restarts share it and the rescue fallback re-runs the M-step from the
accepted iterate's statistics. No public function returns workspace
memory: ``e_step`` builds checked ``Posteriors`` from fresh arrays, and
``m_step`` turns its ``Posteriors`` into the statistics EM uses.

The regression mixtures of ``baselines`` are the R=1 case of the model
and run its random starts, E-step, M-step and EM driver. One ascent
loop, ``_ascend``, advances all restarts of a fit together, one
iteration at a time, on one thread, and stacks the logistic problems
that their M-steps hand back by regime count, so that one ``irls_fit``
call per count, and per round of M-steps, fits up to ``n_restarts`` x K
processes. Each stacked problem makes the decisions a fit of its own
would make. After ``_SCREEN_AT`` iterations only the leading restart
goes on, in SQUAREM cycles (``_squarem_cycles``), and the others wait as
``screened``; they go on by plain EM only if it stops without
converging. ``_ascend`` says what each restart ends at, bit for
bit. ``_fit_restarts`` keeps the best of them.
"""

from __future__ import annotations

import functools
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import (
    LOG_2PI,
    DesignMatrix,
    TimeGrid,
    logsumexp,
    ridge_solve,
    vandermonde,
    variance_floor,
)
from .errors import NumericalError
from .logistic import LogisticWeights, irls_fit, log_regime_probabilities
from .rng import child_rng, subseed

#: A cluster whose total responsibility falls below this fraction of n is
#: considered starved and gets re-seeded from the worst-fit curve.
_STARVED_FRACTION = 1e-10
_WEIGHT_FLOOR = 1e-12
#: Initial logistic slope gap between adjacent regimes, per unit of
#: (n_regimes / span); controls how sharp the initial segmentation is.
_INIT_SLOPE_SCALE = 10.0
#: Round-off allowance below which a drop in log-likelihood counts as none.
_LOGLIK_SLACK = 1e-9
#: EM iterations after which only the leading live restart of a fit goes on
#: (the short-runs strategy of Biernacki, Celeux & Govaert, 2003); the
#: others wait, and go on only if it stops without converging.
_SCREEN_AT = 20
#: SQUAREM for the restart that goes on alone (Varadhan & Roland, 2008):
#: the bound on the step length of the first extrapolation, which is also
#: its least value, and the factor by which each kept extrapolation raises
#: it and each rejected one at the bound lowers it.
_STEP_MAX = 1.0
_STEP_GROWTH = 4.0
#: Newton steps an M-step's IRLS fit of a logistic process may take.
_IRLS_MAX_ITER = 50

#: Why an EM run stopped: an iteration gained less than ``tol`` (for an
#: extrapolated run, a plain EM map); it ran ``max_iter`` iterations, kept
#: extrapolations included; an update lowered the likelihood, so it kept
#: the previous iterate; or it trailed the leader after ``_SCREEN_AT``
#: iterations, and the leader converged.
STOP_REASONS = ("tol", "max_iter", "likelihood_drop", "screened")


@dataclass(frozen=True)
class RhlpParams:
    """One cluster: logistic process + per-regime polynomials and variances."""

    logistic: LogisticWeights
    coeffs: np.ndarray  # (R, p+1)
    variances: np.ndarray  # (R,)

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float)
        variances = np.array(self.variances, dtype=float)
        R = self.logistic.n_regimes
        if coeffs.ndim != 2 or coeffs.shape[0] != R:
            raise ValueError("coeffs must be (R, p+1) matching the logistic process")
        if variances.shape != (R,):
            raise ValueError("variances must be one per regime")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("regression coefficients must be finite")
        if np.any(variances <= 0) or not np.all(np.isfinite(variances)):
            raise ValueError("variances must be positive and finite")
        coeffs.flags.writeable = False
        variances.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "variances", variances)

    @property
    def n_regimes(self) -> int:
        return int(self.coeffs.shape[0])

    @property
    def degree(self) -> int:
        return int(self.coeffs.shape[1] - 1)


def _mixing_proportions(weights, n_parts: int) -> np.ndarray:
    """Read-only copy of the mixing proportions (or class priors) of n_parts."""
    weights = np.array(weights, dtype=float)
    if weights.ndim != 1 or weights.size != n_parts or not n_parts:
        raise ValueError("one mixing proportion per part is required")
    # written so that a NaN fails every test
    if not (np.all(weights > 0) and abs(weights.sum() - 1.0) <= 1e-12):
        raise ValueError("mixing proportions must be positive and sum to 1")
    weights.flags.writeable = False
    return weights


@dataclass(frozen=True)
class MixRhlpParams:
    """Full parameter set of one class: mixing proportions + K clusters."""

    weights: np.ndarray  # (K,)
    clusters: tuple[RhlpParams, ...]

    def __post_init__(self):
        clusters = tuple(self.clusters)
        object.__setattr__(self, "weights", _mixing_proportions(self.weights, len(clusters)))
        object.__setattr__(self, "clusters", clusters)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def regimes(self) -> tuple[int, ...]:
        return tuple(c.n_regimes for c in self.clusters)

    @property
    def degree(self) -> int:
        return self.clusters[0].degree


@dataclass(frozen=True)
class Posteriors:
    """E-step responsibilities for a set of curves.

    ``cluster_resp`` is (n, K); ``regime_resp[k]`` is (n, m, R_k). Rows of
    ``cluster_resp`` and every (i, j) slice of ``regime_resp[k]`` sum to 1.
    ``e_step`` stores each table regime first, as an (R_k, n, m) array, and
    ``regime_resp[k]`` is its read-only transposed view; tables built
    by hand in the (n, m, R_k) shape work the same.
    """

    cluster_resp: np.ndarray
    regime_resp: tuple[np.ndarray, ...]

    def __post_init__(self):
        gamma = np.asarray(self.cluster_resp, dtype=float)
        taus = tuple(np.asarray(t, dtype=float) for t in self.regime_resp)
        if gamma.ndim != 2 or gamma.shape[1] != len(taus):
            raise ValueError("cluster_resp must be (n, K) with K regime tables")
        n = gamma.shape[0]
        # written so that a NaN fails every test
        if not (np.all(gamma >= -1e-12) and np.max(np.abs(gamma.sum(axis=1) - 1.0)) <= 1e-10):
            raise ValueError("cluster responsibilities must be normalized")
        for tau in taus:
            if tau.ndim != 3 or tau.shape[0] != n:
                raise ValueError("regime tables must be (n, m, R)")
            if not np.max(np.abs(tau.sum(axis=2) - 1.0)) <= 1e-10:
                raise ValueError("regime responsibilities must be normalized")
            tau.flags.writeable = False
        gamma.flags.writeable = False
        object.__setattr__(self, "cluster_resp", gamma)
        object.__setattr__(self, "regime_resp", taus)


@dataclass(frozen=True)
class RestartRecord:
    """How one EM restart of a fit ended: its final log-likelihood, the EM
    iterations it accepted, one of ``STOP_REASONS``, and how many SQUAREM
    extrapolations it kept and rejected (both 0 unless it went on alone
    after ``_SCREEN_AT`` iterations, as the leader or as the only
    restart)."""

    loglik: float
    iterations: int
    stop_reason: str
    extrapolations_accepted: int = 0
    extrapolations_rejected: int = 0


@dataclass(frozen=True)
class FitReport:
    """Trace and bookkeeping of one fit (the best restart), and the record
    of every restart, in restart order."""

    loglik_trace: tuple[float, ...]
    iterations: int
    bic: float
    restarts_tried: int
    best_restart: int
    restarts: tuple[RestartRecord, ...]

    @property
    def stop_reason(self) -> str:
        """Why the best restart stopped."""
        return self.restarts[self.best_restart].stop_reason

    @property
    def converged(self) -> bool:
        """Whether the best restart met ``tol``."""
        return self.stop_reason == "tol"


@dataclass(frozen=True)
class EmConfig:
    """EM settings: model size, stopping rule, restarts, master seed.

    ``n_restarts`` does not apply at ``n_clusters=1``: every random start
    of a one-cluster fit is the same, so it takes one."""

    n_clusters: int = 1
    n_regimes: int | tuple[int, ...] = 1
    degree: int = 0
    max_iter: int = 200
    tol: float = 1e-6
    n_restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.n_clusters < 1:
            raise ValueError("need at least one cluster")
        if any(r < 1 for r in self.regimes()):
            raise ValueError("need at least one regime per cluster")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.n_restarts < 1:
            raise ValueError("need at least one restart")

    def regimes(self) -> tuple[int, ...]:
        if isinstance(self.n_regimes, int):
            return (self.n_regimes,) * self.n_clusters
        regs = tuple(int(r) for r in self.n_regimes)
        if len(regs) != self.n_clusters:
            raise ValueError("n_regimes tuple must have one entry per cluster")
        return regs


# ---------------------------------------------------------------------------
# Density evaluation
# ---------------------------------------------------------------------------


def _check_design(design: DesignMatrix, params: MixRhlpParams | RhlpParams) -> None:
    d = design.n_cols
    clusters = params.clusters if isinstance(params, MixRhlpParams) else (params,)
    for c in clusters:
        if c.coeffs.shape[1] != d:
            raise ValueError(
                f"design has {d} columns but coefficients expect {c.coeffs.shape[1]}"
            )


#: Shifted log-densities below this bound have an ``exp`` of exactly 0.0,
#: which numpy computes on a slow path; the kernel writes the 0.0.
_EXP_UNDERFLOW = -745.2


def _regime_kernel(
    coeffs: np.ndarray,
    variances: np.ndarray,
    logistic: np.ndarray,
    values: np.ndarray,
    design: DesignMatrix,
    want_resp: bool,
    out=None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """(G, n) per-curve log-likelihoods under G clusters that share one
    regime count R, given as (G, R, d) coefficients, (G, R) variances and
    (G, R, 2) logistic coefficients; with ``want_resp``, also their
    (G, R, n, m) regime responsibilities.

    At R=1 the regime probability is 1, so a curve's density is one
    Gaussian product: its log in closed form, and no responsibilities
    (None). Else one (G, R, n, m) buffer takes log pi_r(t_j) +
    log N(x_ij; mean_jr, var_r) and is reduced across its R slabs; the
    responsibilities overwrite it.
    The buffer is ``out`` when given, else a fresh array.
    A point at which every regime density underflows to 0 (a curve that
    lies far outside the cluster) gets uniform responsibilities; its
    log-likelihood is -inf, so the cluster's responsibility for the curve
    is 0 and they carry no weight.
    """
    means = coeffs @ design.matrix.T  # (G, R, m)
    if means.shape[1] == 1:
        sq = np.square(values - means).sum(axis=2)  # (G, n)
        log_norm = -0.5 * values.shape[1] * (LOG_2PI + np.log(variances))
        return log_norm - sq / (2.0 * variances), None
    log_pi = log_regime_probabilities(logistic, design.grid)  # (G, m, R)
    var = variances[:, :, None, None]
    # C order: one slab per regime
    buf = np.empty(means.shape[:2] + values.shape) if out is None else out
    np.subtract(values, means[:, :, None, :], out=buf)
    np.square(buf, out=buf)
    buf /= 2.0 * var
    np.subtract(-0.5 * (LOG_2PI + np.log(var)), buf, out=buf)
    buf += log_pi.transpose(0, 2, 1)[:, :, None, :]

    shift = np.maximum.reduce(buf, axis=1)  # (G, n, m)
    # a finite sum needs every term finite; only a point whose regime
    # densities all underflow (shift -inf) takes the masked path
    underflow = not np.isfinite(shift.sum())
    if underflow:
        shift[~np.isfinite(shift)] = 0.0
    buf -= shift[:, None]
    # Lanes below the bound get their exp of 0.0 written, not computed. A
    # regime probability below the bound (a sharp logistic process) is what
    # puts lanes there, and it is cheap to test; any other lane below it
    # takes exp, with the same result.
    if log_pi.min() < _EXP_UNDERFLOW:
        low = buf < _EXP_UNDERFLOW  # False for NaN, which exp keeps
        np.exp(buf, out=buf, where=~low)
        np.copyto(buf, 0.0, where=low)
    else:
        np.exp(buf, out=buf)
    # explicit normalisation: exp(lp - lse) alone drifts from a unit sum by
    # eps * |lse| when log-densities are huge. Without underflow the
    # largest term is exp(0) = 1, so every total is at least 1.
    totals = np.add.reduce(buf, axis=1)
    # only a total of 0, which needs underflow, divides by zero
    with np.errstate(invalid="ignore", divide="ignore") if underflow else nullcontext():
        if want_resp:
            buf /= totals[:, None]
            if underflow:
                np.copyto(buf, 1.0 / buf.shape[1], where=(totals == 0.0)[:, None])
        point = np.log(totals, out=totals)
    point += shift
    return point.sum(axis=2), (buf if want_resp else None)


def rhlp_loglik_set(
    rhlp: RhlpParams, values: np.ndarray, design: DesignMatrix
) -> np.ndarray:
    """Per-curve log-likelihood under one cluster's density; values is (n, m)."""
    return _log_mix(MixRhlpParams(np.ones(1), (rhlp,)), values, design)[:, 0]


def _log_mix(params: MixRhlpParams, values: np.ndarray, design: DesignMatrix) -> np.ndarray:
    """(n, K) log weight plus log density of each curve under each cluster,
    scored one cluster at a time after one check of the design."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    _check_design(design, params)
    per_cluster = np.column_stack([
        _regime_kernel(c.coeffs[None], c.variances[None], c.logistic.coef[None], values, design,
                       False)[0][0]
        for c in params.clusters
    ])
    return np.log(params.weights)[None, :] + per_cluster


def mixrhlp_loglik_set(
    params: MixRhlpParams, values: np.ndarray, design: DesignMatrix
) -> np.ndarray:
    """Per-curve log-likelihood under the cluster mixture."""
    return logsumexp(_log_mix(params, values, design), axis=1)


# ---------------------------------------------------------------------------
# EM steps
# ---------------------------------------------------------------------------


class _EmState(NamedTuple):
    """One EM iterate of a restart of either family on plain arrays: the
    (K,) mixing weights and, for each regime group (the cluster indices
    ``groups[i]``, which share one regime count R), the (G, R, d)
    coefficients, (G, R) variances and (G, R, 2) logistic coefficients of
    its G clusters. A regression mixture is one group with R=1, whose
    logistic coefficients stay 0. Nothing checks it; ``_pack`` and
    ``_unpack`` convert at the boundaries that do."""

    weights: np.ndarray
    groups: tuple[tuple[int, ...], ...]
    coeffs: tuple[np.ndarray, ...]
    variances: tuple[np.ndarray, ...]
    logistic: tuple[np.ndarray, ...]


def _pack(params: MixRhlpParams) -> _EmState:
    """The iterate of ``params``: its cluster indices grouped by regime
    count, each group in index order (one group unless the counts are
    ragged), and the stacked arrays of each group."""
    by_count: dict[int, list[int]] = {}
    for k, cluster in enumerate(params.clusters):
        by_count.setdefault(cluster.n_regimes, []).append(k)
    groups = tuple(map(tuple, by_count.values()))

    def stacked(field):
        return tuple(np.stack([field(params.clusters[k]) for k in g]) for g in groups)

    return _EmState(
        params.weights,
        groups,
        stacked(lambda c: c.coeffs),
        stacked(lambda c: c.variances),
        stacked(lambda c: c.logistic.coef),
    )


def _unpack(state: _EmState) -> MixRhlpParams:
    """The checked parameters of an iterate."""
    clusters = [None] * len(state.weights)
    for group, *arrays in zip(state.groups, state.coeffs, state.variances, state.logistic):
        for k, coeffs, variances, logistic in zip(group, *arrays):
            clusters[k] = RhlpParams(LogisticWeights(logistic), coeffs, variances)
    return MixRhlpParams(state.weights, tuple(clusters))


def _flatten(state: _EmState) -> np.ndarray:
    """The coordinates in which SQUAREM extrapolates an iterate: the log
    weights and, per regime group, the coefficients, the log variances and
    the free rows of the logistic coefficients (all but the last, the
    gauge row, which stays 0)."""
    parts = [np.log(state.weights)]
    for coeffs, variances, logistic in zip(state.coeffs, state.variances, state.logistic):
        parts += [coeffs.ravel(), np.log(variances).ravel(), logistic[:, :-1].ravel()]
    return np.concatenate(parts)


def _restore(x: np.ndarray, like: _EmState, floor: float) -> _EmState | None:
    """The iterate at the finite coordinates x of ``_flatten``, shaped like
    ``like``, or None if a variance overflows. As in the M-step, the weights
    are normalised above ``_WEIGHT_FLOOR`` and the variances kept at or
    above ``floor``."""
    K = len(like.weights)
    weights = np.exp(x[:K] - x[:K].max())
    weights = np.maximum(weights / weights.sum(), _WEIGHT_FLOOR)
    at = K
    coeffs, variances, logistic = [], [], []
    for c, v, w in zip(like.coeffs, like.variances, like.logistic):
        coeffs.append(x[at : at + c.size].reshape(c.shape))
        at += c.size
        with np.errstate(over="ignore"):
            variances.append(np.maximum(np.exp(x[at : at + v.size]).reshape(v.shape), floor))
        at += v.size
        free = np.zeros_like(w)
        free[:, :-1] = x[at : at + w[:, :-1].size].reshape(w[:, :-1].shape)
        logistic.append(free)
        at += w[:, :-1].size
    if not all(np.isfinite(v).all() for v in variances):
        return None
    weights /= weights.sum()
    return _EmState(weights, like.groups, tuple(coeffs), tuple(variances), tuple(logistic))


class _Stats(NamedTuple):
    """The sufficient statistics of one E-step, all the M-step reads: the
    (K,) cluster totals and, for each regime group, one (3, G, R, m) array
    of the point masses, sums of x and sums of x^2 of its G clusters."""

    totals: np.ndarray
    sums: tuple[np.ndarray, ...]


def _responsibilities(
    state: _EmState, values: np.ndarray, design: DesignMatrix, out=None
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """(n, K) cluster responsibilities, (n,) per-curve log-likelihoods and
    each regime group's (G, R, n, m) regime responsibilities, written into
    that group's buffer in ``out`` when given, else into fresh arrays; None
    for a group with one regime."""
    per_cluster = np.empty((values.shape[0], len(state.weights)))
    resps = []
    for i, group in enumerate(state.groups):
        logliks, resp = _regime_kernel(
            state.coeffs[i],
            state.variances[i],
            state.logistic[i],
            values,
            design,
            True,
            None if out is None else out[i],
        )
        for g, k in enumerate(group):
            per_cluster[:, k] = logliks[g]
        resps.append(resp)
    gamma, per_curve = _cluster_posteriors(np.log(state.weights)[None, :] + per_cluster)
    return gamma, per_curve, resps


def _regime_stats(
    resp: np.ndarray, tau: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, m) weighted point masses, sums of x and sums of x^2 per regime:
    products of the (R, n, m) responsibilities with resp, resp * x and
    resp * x^2 over the curves."""
    rx = resp[:, None] * values
    point_w = resp @ tau
    xw = np.einsum("rij,ij->rj", tau, rx)
    x2w = np.einsum("rij,ij->rj", tau, rx * values)
    return point_w, xw, x2w


def _sufficient_stats(
    gamma: np.ndarray, groups: tuple, taus: list, values: np.ndarray
) -> _Stats:
    """The statistics of (n, K) cluster responsibilities ``gamma`` and the
    (R, n, m) regime responsibilities ``taus[i][g]`` of each cluster
    ``groups[i][g]``. A group with one regime reads no table (``taus[i]``
    may be None): its responsibilities are 1, so its point masses are the
    cluster totals and its sums gamma' x and gamma' x^2."""
    totals = gamma.sum(axis=0)
    sums = []
    for group, tau in zip(groups, taus):
        if tau is None or len(tau[0]) == 1:
            cols = list(group)
            resp = gamma[:, cols].T  # (G, n)
            mass = np.repeat(totals[cols, None], values.shape[1], axis=1)
            sums.append(np.stack([mass, resp @ values, resp @ values**2])[:, :, None])
            continue
        point_w, xw, x2w = group_sums = np.empty((3, len(group), len(tau[0]), values.shape[1]))
        for g, k in enumerate(group):
            point_w[g], xw[g], x2w[g] = _regime_stats(gamma[:, k], tau[g], values)
        sums.append(group_sums)
    return _Stats(totals, tuple(sums))


def _e_step_full(
    state: _EmState, values: np.ndarray, design: DesignMatrix, out=None
) -> tuple[_Stats, float, np.ndarray]:
    """The M-step's statistics, total log-likelihood, and per-curve
    log-likelihoods. ``out`` holds one (G, R, n, m) buffer per regime group
    of ``state`` (None for a group with one regime), which the regime
    responsibilities overwrite; the statistics are taken from it at once,
    while it is still in cache."""
    gamma, per_curve, resps = _responsibilities(state, values, design, out)
    return _sufficient_stats(gamma, state.groups, resps, values), float(per_curve.sum()), per_curve


def _cluster_posteriors(log_mix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, K) cluster responsibilities and (n,) per-curve log-likelihoods
    from the (n, K) table of log weight plus log density; both families.

    A row's log-likelihood is finite exactly when its maximum is: then the
    shifted exponentials lie in [0, 1], one of them 1.
    """
    shift = functools.reduce(np.maximum, log_mix.T)  # the row maxima, column by column
    if not np.isfinite(shift).all():
        raise NumericalError("curve log-likelihood is not finite; parameters are corrupted")
    shifted = np.exp(log_mix - shift[:, None])
    totals = shifted.sum(axis=1)
    return shifted / totals[:, None], np.log(totals) + shift


def e_step(
    params: MixRhlpParams, values: np.ndarray, design: DesignMatrix
) -> Posteriors:
    """Cluster and regime responsibilities for a set of curves, checked as
    ``Posteriors`` checks tables built by hand; a cluster with one regime
    gets a table of ones."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    _check_design(design, params)
    state = _pack(params)
    gamma, _, resps = _responsibilities(state, values, design)
    taus = [None] * params.n_clusters
    for group, resp in zip(state.groups, resps):
        for g, k in enumerate(group):
            # (n, m, R) view of (R, n, m)
            taus[k] = np.ones(values.shape + (1,)) if resp is None else resp[g].transpose(1, 2, 0)
    return Posteriors(gamma, tuple(taus))


def _posterior_stats(posteriors: Posteriors, groups: tuple, values: np.ndarray) -> _Stats:
    """The statistics of ``posteriors``, grouped as ``groups``."""
    taus = [[posteriors.regime_resp[k].transpose(2, 0, 1) for k in group] for group in groups]
    return _sufficient_stats(posteriors.cluster_resp, groups, taus, values)


def _fit_clusters(
    sums: np.ndarray,
    totals: np.ndarray,
    design: DesignMatrix,
    coeffs: np.ndarray,
    variances: np.ndarray,
    floor: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted regime updates for a stack of G clusters that share one
    regime count, given their (3, G, R, m) statistics ``sums``, (G,) cluster
    ``totals`` and previous (G, R, d) ``coeffs`` and (G, R) ``variances``:
    one regime solve over every regime with mass, or at R=1 the projection
    of each weighted mean curve, with no solve. The new coefficients and
    variances overwrite the given arrays."""
    T = design.matrix
    point_w, xw, x2w = sums
    regime_mass = point_w.sum(axis=2)
    # a regime without mass keeps its previous parameters; zero weight,
    # zero influence
    fit = regime_mass > 1e-12 * np.maximum(totals, 1.0)[:, None]
    if fit.any():
        w = point_w[fit]  # (A, m)
        if coeffs.shape[1] == 1:
            beta = (xw[fit] / w) @ design.pinv.T
        else:
            beta = ridge_solve(T.T @ (w[:, :, None] * T), xw[fit] @ T)
        mean = beta @ T.T
        sse = np.sum(x2w[fit] - 2.0 * mean * xw[fit] + mean**2 * w, axis=1)
        coeffs[fit] = beta
        variances[fit] = np.maximum(sse / regime_mass[fit], floor)
    return coeffs, variances


class _LogisticProblems(NamedTuple):
    """The logistic problems an M-step leaves for one regime group: the
    (G, R, m) point masses of the G clusters it fits, which sit at rows
    ``rows`` of the candidate's (G', R, 2) logistic array ``coef``. Those
    rows hold the starting coefficients and take the fits."""

    counts: np.ndarray
    coef: np.ndarray
    rows: list[int]
    grid: TimeGrid


def _solve_logistic(pending: list[_LogisticProblems]) -> None:
    """Fit the pending logistic problems in place, with one ``irls_fit``
    stack per regime count, each fit to at most ``_IRLS_MAX_ITER`` Newton
    steps. The problems come from the M-steps of one fit, so they share its
    grid. Each stacked problem makes the decisions a fit of its own would
    make, so its fit does not depend on the other problems in the stack,
    bit for bit."""
    stacks: dict[int, list[_LogisticProblems]] = {}
    for problem in pending:
        stacks.setdefault(problem.coef.shape[1], []).append(problem)
    for stack in stacks.values():
        fitted = irls_fit(
            np.concatenate([p.coef[p.rows] for p in stack]),
            stack[0].grid,
            # (G, m, R) view of regime-first memory
            np.concatenate([p.counts for p in stack]).transpose(0, 2, 1),
            max_iter=_IRLS_MAX_ITER,
        )
        start = 0
        for p in stack:
            p.coef[p.rows] = fitted[start : start + len(p.rows)]
            start += len(p.rows)


def _m_step_impl(
    stats: _Stats,
    values: np.ndarray,
    design: DesignMatrix,
    prev: _EmState,
    floor: float,
    prev_curve_loglik: np.ndarray | None,
    rescue: bool,
    pending: list[_LogisticProblems],
) -> tuple[_EmState, bool]:
    """The candidate that updates ``prev`` from its statistics, and whether
    a starved cluster was re-seeded. The closed-form updates are made here;
    the logistic problems go to ``pending``, and the candidate's logistic
    coefficients are final once ``_solve_logistic`` has fitted them."""
    n = values.shape[0]
    weights = stats.totals / n
    starved = stats.totals < _STARVED_FRACTION * n

    groups = []  # (coefficients, variances, logistic) of each group
    for group, sums, *arrays in zip(
        prev.groups, stats.sums, prev.coeffs, prev.variances, prev.logistic
    ):
        new = [a.copy() for a in arrays]  # a starved cluster keeps its row
        coeffs, variances, logistic = new
        rows = [g for g, k in enumerate(group) if not starved[k]]
        if rows:
            coeffs[rows], variances[rows] = _fit_clusters(
                sums[:, rows],
                stats.totals[[group[g] for g in rows]],
                design,
                coeffs[rows],
                variances[rows],
                floor,
            )
            if logistic.shape[1] > 1:  # one regime has no logistic process to fit
                pending.append(_LogisticProblems(sums[0, rows], logistic, rows, design.grid))
        groups.append(new)

    rescued = rescue and bool(starved.any())
    if rescued:
        if prev_curve_loglik is None:
            prev_curve_loglik = _responsibilities(prev, values, design)[1]
        where = {k: (i, g) for i, group in enumerate(prev.groups) for g, k in enumerate(group)}
        # worst fits first
        for k, curve in zip(np.flatnonzero(starved), np.argsort(prev_curve_loglik)):
            i, g = where[k]
            regimes = prev.variances[i].shape[1]
            cluster = _init_cluster(values[curve : curve + 1], design, regimes, floor)
            for a, v in zip(groups[i], (cluster.coeffs, cluster.variances, cluster.logistic.coef)):
                a[g] = v
            weights[k] = 1.0 / n

    weights = np.maximum(weights, _WEIGHT_FLOOR)
    weights = weights / weights.sum()
    return _EmState(weights, prev.groups, *map(tuple, zip(*groups))), rescued


def m_step(
    posteriors: Posteriors,
    values: np.ndarray,
    design: DesignMatrix,
    prev: MixRhlpParams,
    *,
    floor: float | None = None,
) -> MixRhlpParams:
    """One maximization step; starved clusters are re-seeded from the
    worst-fit curve."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if floor is None:
        floor = variance_floor(values)
    state = _pack(prev)
    stats = _posterior_stats(posteriors, state.groups, values)
    pending = []
    new, _ = _m_step_impl(stats, values, design, state, floor, None, True, pending)
    _solve_logistic(pending)
    return _unpack(new)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def _segment_logistic(grid: TimeGrid, segments: list[np.ndarray]) -> LogisticWeights:
    """Weights whose softmax approximates the given contiguous segmentation."""
    R = len(segments)
    t = grid.points
    slope_gap = _INIT_SLOPE_SCALE * R / grid.span
    raw = np.zeros((R, 2))
    raw[:, 1] = slope_gap * np.arange(R)
    for r in range(R - 2, -1, -1):
        bound = 0.5 * (t[segments[r][-1]] + t[segments[r + 1][0]])
        raw[r, 0] = raw[r + 1, 0] + slope_gap * bound
    return LogisticWeights.gauge_fixed(raw)


def _init_cluster(
    values: np.ndarray, design: DesignMatrix, n_regimes: int, floor: float
) -> RhlpParams:
    """Segment the time axis uniformly and fit one polynomial per segment;
    one regime is fitted as the M-step fits it, by projecting the mean curve."""
    T = design.matrix
    if n_regimes == 1:
        coeffs = design.pinv @ values.mean(axis=0)
        variance = max(float(np.mean((values - T @ coeffs) ** 2)), floor)
        return RhlpParams(LogisticWeights.zeros(1), coeffs[None], [variance])
    if n_regimes > T.shape[0]:
        raise ValueError(f"cannot split {T.shape[0]} grid points into {n_regimes} regimes")
    segments = np.array_split(np.arange(T.shape[0]), n_regimes)
    coeffs = np.empty((n_regimes, T.shape[1]))
    variances = np.empty(n_regimes)
    for r, seg in enumerate(segments):
        seg_design = np.tile(T[seg], (values.shape[0], 1))
        y = values[:, seg].reshape(-1)
        coeffs[r], *_ = np.linalg.lstsq(seg_design, y, rcond=None)
        variances[r] = max(float(np.mean((y - seg_design @ coeffs[r]) ** 2)), floor)
    logistic = _segment_logistic(design.grid, segments)
    return RhlpParams(logistic, coeffs, variances)


def initial_params(
    values: np.ndarray,
    design: DesignMatrix,
    n_clusters: int,
    regimes: tuple[int, ...],
    rng: np.random.Generator,
    floor: float,
) -> MixRhlpParams:
    """Random hard partition of curves, then per-segment fits per cluster."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n = values.shape[0]
    if n < n_clusters:
        raise ValueError(f"cannot split {n} curves into {n_clusters} clusters")
    parts, weights = _random_partition(n, n_clusters, rng)
    clusters = tuple(
        _init_cluster(values[part], design, r, floor) for part, r in zip(parts, regimes)
    )
    return MixRhlpParams(weights, clusters)


def _random_partition(
    n: int, n_parts: int, rng: np.random.Generator
) -> tuple[list[np.ndarray], np.ndarray]:
    """Random split of n curves into n_parts near-equal parts: the sorted
    curve indices of each part and each part's share of n."""
    chunks = np.array_split(rng.permutation(n), n_parts)
    return [np.sort(c) for c in chunks], np.array([c.size / n for c in chunks])


# ---------------------------------------------------------------------------
# EM driver
# ---------------------------------------------------------------------------


def _ascend(e_step, m_step, starts, config: EmConfig, floor: float) -> list[tuple]:
    """EM from each of the ``_EmState`` ``starts`` for either family, the
    restarts advancing together one iteration at a time: ``e_step(state)``
    gives (what the M-step reads, loglik, per-curve logliks), and
    ``m_step(that, state, rescue, per_curve, pending)`` gives (candidate,
    whether a starved cluster was re-seeded) and leaves its logistic
    problems in the list ``pending``. One ``_solve_logistic`` call fits the
    problems of every live restart's M-step. Returns each restart's (last
    accepted state, loglik trace, stop reason, accepted and rejected
    extrapolations).

    Each restart makes the decisions a run of its own would make, and
    leaves the lockstep when it stops. An E-step's statistics are arrays of
    their own, so the rescue fallback re-runs the M-step from those of the
    accepted iterate: a second round, for the restarts whose rescue lowered
    the likelihood.

    Once the live restarts have taken ``_SCREEN_AT`` iterations, and more
    are allowed, only the one with the highest log-likelihood goes on, ties
    to the smaller index; the others wait as ``screened``. That leader may
    be the only live restart; it goes on in SQUAREM cycles
    (``_squarem_cycles``, variances floored at ``floor``). If it stops
    without converging (``max_iter`` or the drop guard), the waiting
    restarts go on together by plain EM. A restart goes on from its exact
    state, so one that goes on by plain EM ends, bit for bit, where plain EM
    from its start ends, and the leader where a fit from its start alone
    ends; one still waiting at the end stays ``screened``, where plain EM
    stood after ``_SCREEN_AT`` iterations. A fit of at most ``_SCREEN_AT``
    iterations is plain EM, bit for bit.
    """
    # each restart's accepted (state, E-step result, loglik, per-curve logliks)
    runs = [(state, *e_step(state)) for state in starts]
    traces = [[run[2]] for run in runs]
    stops = ["max_iter"] * len(runs)
    counts = [(0, 0)] * len(runs)
    live = list(range(len(runs)))
    leader, waiting = None, []  # waiting: the screened restarts
    while live:
        still = []
        for r, new in zip(live, _em_maps(e_step, m_step, [runs[r] for r in live])):
            stop = _accept(new, runs[r][2], traces[r], config)
            if stop != "likelihood_drop":
                runs[r] = new
            if stop is None:
                still.append(r)
            else:
                stops[r] = stop
        if still and len(traces[still[0]]) == _SCREEN_AT + 1:
            leader = max(still, key=lambda r: runs[r][2])  # the first of equals
            waiting = [r for r in still if r != leader]
            for r in waiting:
                stops[r] = "screened"
            runs[leader], stops[leader], counts[leader] = _squarem_cycles(
                e_step, m_step, runs[leader], traces[leader], config, floor
            )
            still = []
        if not still and waiting and stops[leader] != "tol":
            # an unconverged leader's lead proves nothing: the screened
            # restarts go on together from where they stopped
            still, waiting = waiting, []
        live = still
    rows = zip(runs, traces, stops, counts)
    return [(run[0], trace, stop, *count) for run, trace, stop, count in rows]


def _accept(new, loglik: float, trace: list[float], config: EmConfig) -> str | None:
    """EM's rule for one plain map, from an accepted run at ``loglik`` to
    the run ``new``. A degraded M-step (a ridge-regularized solve) that
    lowered the likelihood gives ``"likelihood_drop"``: ``new`` is not
    kept, and the run stops unconverged. Else ``new`` is accepted, its
    loglik appended to ``trace``, and the stop reason is ``"tol"`` if it
    gained less than ``tol``, ``"max_iter"`` at the cap, or None."""
    if new[2] < loglik - _LOGLIK_SLACK:
        return "likelihood_drop"
    trace.append(new[2])
    if new[2] - loglik < config.tol:
        return "tol"
    if len(trace) > config.max_iter:
        return "max_iter"
    return None


def _em_maps(e_step, m_step, runs) -> list[tuple]:
    """One EM map from each of the accepted ``runs`` (state, E-step
    result, loglik, per-curve logliks): the candidate's run. A rescue that
    lowered the likelihood falls back to the plain update, which is
    monotone by construction."""
    cands = _m_steps(m_step, runs, True)
    evals = [e_step(cand) for cand, _ in cands]
    redo = [
        i for i, run in enumerate(runs) if cands[i][1] and evals[i][1] < run[2] - _LOGLIK_SLACK
    ]
    for i, cand in zip(redo, _m_steps(m_step, [runs[i] for i in redo], False)):
        cands[i], evals[i] = cand, e_step(cand[0])
    return [(cand, *ev) for (cand, _), ev in zip(cands, evals)]


def _m_steps(m_step, runs, rescue: bool) -> list[tuple[object, bool]]:
    """The M-steps of the accepted ``runs`` (state, E-step result, loglik,
    per-curve logliks), their logistic problems fitted together."""
    pending = []
    cands = [
        m_step(stats, state, rescue, per_curve, pending) for state, stats, _, per_curve in runs
    ]
    _solve_logistic(pending)
    return cands


def _squarem_step(r: np.ndarray, v: np.ndarray, step_max: float) -> float:
    """The S3 step length -|r| / |v|, clamped to [-step_max, -1]."""
    norm_r, norm_v = np.linalg.norm(r), np.linalg.norm(v)
    if norm_r <= norm_v:
        return -1.0
    if norm_r >= step_max * norm_v:
        return -step_max
    return -float(norm_r / norm_v)


def _squarem_cycles(e_step, m_step, run, trace: list[float], config: EmConfig, floor: float):
    """The restart that goes on alone, from its accepted ``run`` to its end,
    in the S3 cycles of SQUAREM (Varadhan & Roland, 2008), in the
    coordinates of ``_flatten``. Extends ``trace`` and returns (the last
    accepted run, stop reason, (accepted, rejected) extrapolations).

    A cycle takes two plain EM maps from theta0, each with the rescue
    fallback of ``_em_maps`` and the rule of ``_accept``, to theta1 and
    theta2. With r = theta1 - theta0, v = theta2 - 2 theta1 + theta0 and the
    step alpha of ``_squarem_step``, it extrapolates to theta' = theta0 -
    2 alpha r + alpha^2 v (theta2 itself when alpha = -1), and takes one
    stabilising EM map from theta'. That point is kept, as one more map of
    the trace, only if it beats theta2 by more than ``tol``; then the step's
    bound grows by ``_STEP_GROWTH``. A rejected point costs its E-steps and
    changes nothing, unless its step was at the bound: then the bound falls
    by ``_STEP_GROWTH``, to no less than ``_STEP_MAX``, as in the authors'
    SQUAREM package. A point is rejected when theta' has non-finite
    coordinates or none at all (``_restore``), an E-step raises
    ``NumericalError``, the M-step re-seeds a starved cluster, or it brings
    no gain. The run meets ``tol``, EM's own rule, at the first plain map
    that gains less than ``tol``; a kept point gains more, so every earlier
    increment of the trace is at least ``tol``. Every map, kept
    extrapolations included, counts towards ``max_iter``.
    """
    step_max = _STEP_MAX
    accepted = rejected = 0
    while True:
        plain = [run]
        for _ in range(2):
            (new,) = _em_maps(e_step, m_step, plain[-1:])
            stop = _accept(new, plain[-1][2], trace, config)
            if stop != "likelihood_drop":
                plain.append(new)
            if stop is not None:
                return plain[-1], stop, (accepted, rejected)
        run = plain[2]
        alpha, new = _stabilised(e_step, m_step, plain, step_max, floor)
        if new is not None and new[2] > run[2] + config.tol:
            run = new
            trace.append(new[2])
            step_max *= _STEP_GROWTH
            accepted += 1
            if len(trace) > config.max_iter:
                return run, "max_iter", (accepted, rejected)
        else:
            rejected += 1
            if alpha == -step_max:
                step_max = max(_STEP_MAX, step_max / _STEP_GROWTH)


def _stabilised(e_step, m_step, plain, step_max: float, floor: float):
    """The step length alpha of the S3 point of the ``plain`` runs theta0,
    theta1, theta2, and the run of the stabilising EM map from that point,
    or None if the point or the map fails."""
    x0, x1, x2 = (_flatten(p[0]) for p in plain)
    r = x1 - x0
    v = x2 - 2.0 * x1 + x0
    alpha = _squarem_step(r, v, step_max)
    try:
        if alpha == -1.0:
            point = plain[2]
        else:
            x = x0 - 2.0 * alpha * r + alpha**2 * v
            state = _restore(x, plain[2][0], floor) if np.isfinite(x).all() else None
            if state is None:
                return alpha, None
            # an extrapolated point may lie far out: its densities may
            # overflow, which the E-step's check turns into an error
            with np.errstate(all="ignore"):
                point = (state, *e_step(state))
        ((cand, rescued),) = _m_steps(m_step, [point], True)
        return alpha, None if rescued else (cand, *e_step(cand))
    except NumericalError:
        return alpha, None


def _fit_restarts(
    e_step, m_step, finish, init, values, design, config: EmConfig
) -> tuple[MixRhlpParams, FitReport]:
    """Best of the EM restarts of either family: the run from the
    parameters ``init`` if given, else one per stream
    ``child_rng(config.seed, r)``, from ``initial_params`` with the regime
    counts of ``config``. A one-cluster fit takes one start: every random
    start of it is the one partition of the curves into one part, so its
    other restarts would repeat the first bit for bit. ``_ascend`` runs the
    restarts in lockstep on ``e_step`` and ``m_step``, which are
    ``_e_step_full`` and ``_m_step_impl`` under the caller's names (the
    benchmark's tracer counts each family's calls apart), with the
    variances floored at ``variance_floor(values)``, and
    ``finish(state, trace, stop)`` gives the parameters of each finished
    restart. The highest final loglik wins, ties to the smaller index.

    The inputs of both families are checked here, once: ``ValueError`` for
    values that are not finite, or so large that a sum of squares over
    them could overflow; for fewer curves than clusters; for more design
    columns or regimes (those of ``config``, or of ``init``) than grid
    points, which no Gram or segmentation of curves on one grid can
    identify; or for an ``init`` whose coefficients do not fit the design.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n, m = values.shape
    if n < config.n_clusters:
        raise ValueError(
            f"infeasible clustering: {n} curves for {config.n_clusters} clusters"
        )
    regimes = config.regimes() if init is None else init.regimes
    for count, what in ((design.n_cols, "design columns"), (max(regimes), "regimes")):
        if count > m:
            raise ValueError(f"unidentifiable model: {count} {what} on {m} grid points")
    # a squared residual is at most (2 max|x|)^2; Python floats carry a NaN
    # or overflow to inf without a warning
    top = float(np.abs(values).max())
    if not np.isfinite(4.0 * n * m * top * top):
        raise ValueError("values must be finite, and small enough that their squares sum")
    floor = variance_floor(values)
    if init is not None:
        _check_design(design, init)
        starts = [_pack(init)]
    else:
        n_starts = 1 if config.n_clusters == 1 else config.n_restarts
        starts = [_pack(initial_params(values, design, config.n_clusters, regimes,
                                       child_rng(config.seed, r), floor)) for r in range(n_starts)]
    # the E-step's workspace, one (G, R, n, m) buffer per regime group of
    # more than one regime; the restarts share it, since their E-steps run
    # one at a time and each takes its statistics from the buffer at once
    buffers = [np.empty(v.shape + values.shape) if v.shape[1] > 1 else None
               for v in starts[0].variances]
    runs = _ascend(
        lambda state: e_step(state, values, design, buffers),
        lambda stats, state, rescue, per_curve, pending: m_step(
            stats, values, design, state, floor, per_curve, rescue, pending
        ),
        starts,
        config,
        floor,
    )
    runs = [(finish(state, trace, stop), trace, stop, *rest) for state, trace, stop, *rest in runs]
    best_idx = max(range(len(runs)), key=lambda idx: runs[idx][1][-1])
    params, trace, *_ = runs[best_idx]
    report = FitReport(
        loglik_trace=tuple(trace),
        iterations=len(trace) - 1,
        bic=bic(params, trace[-1], n),
        restarts_tried=len(runs),
        best_restart=best_idx,
        restarts=tuple(RestartRecord(t[-1], len(t) - 1, *rest) for _, t, *rest in runs),
    )
    return params, report


def _em_once(
    state: _EmState, trace: list[float], converged: bool
) -> tuple[MixRhlpParams, list[float], bool]:
    """The checked result of one finished MixRHLP restart: its parameters,
    loglik trace and whether it converged. ``em_fit`` makes exactly one call
    per restart, screened ones included, once the lockstep is over, and the
    benchmark's tracer counts restarts and EM iterations from these calls."""
    return _unpack(state), trace, converged


def em_fit(
    values: np.ndarray,
    grid: TimeGrid,
    config: EmConfig,
    *,
    init: MixRhlpParams | None = None,
) -> tuple[MixRhlpParams, FitReport]:
    """Fit the cluster mixture by multi-restart EM.

    Runs ``config.n_restarts`` independent EM runs, in lockstep, from
    random segment-based initializations (``initial_params``, the start
    rule of both families), or a single run when ``init`` is given, and
    returns the parameters of the restart with the highest final
    log-likelihood, ties broken toward the smaller restart index.
    After ``_SCREEN_AT`` iterations only the leading live restart goes on,
    accelerated by SQUAREM, and so does the only restart of a fit with one
    restart or from ``init``, as in ``baselines.fit_regression_mixture``.
    It stops at the first plain EM map that gains less than ``tol``. The
    others go on, by plain EM, only if it stops without converging;
    ``FitReport.restarts`` records how each one stopped and how many
    extrapolations the one that went on alone kept and rejected. A fit
    with ``max_iter`` of at most ``_SCREEN_AT`` is plain EM bit for bit.
    A one-cluster fit takes one start, whatever ``n_restarts`` says. Raises
    ``ValueError`` for inputs it cannot fit (see ``_fit_restarts``): values
    that are not finite or too large to square and sum, fewer curves than
    clusters, or more regimes, or coefficients (degree + 1), than grid
    points.
    """
    return _fit_restarts(
        _e_step_full,
        _m_step_impl,
        # one _em_once call per restart, screened ones included
        lambda state, trace, stop: _em_once(state, trace, stop == "tol")[0],
        init,
        values,
        vandermonde(grid, config.degree),
        config,
    )


# ---------------------------------------------------------------------------
# Summaries and selection
# ---------------------------------------------------------------------------


def mean_curves(
    params: MixRhlpParams, grid: TimeGrid, design: DesignMatrix
) -> np.ndarray:
    """(K, m) cluster mean curves: regime polynomials blended by the
    logistic probabilities."""
    _check_design(design, params)
    out = np.empty((params.n_clusters, len(grid)))
    for k, cluster in enumerate(params.clusters):
        pi = np.exp(log_regime_probabilities(cluster.logistic.coef[None], grid)[0])
        out[k] = np.sum(pi * (design.matrix @ cluster.coeffs.T), axis=1)
    return out


def n_free_parameters(params: MixRhlpParams) -> int:
    """Free parameters: K-1 proportions plus (p+4)R - 2 per cluster, where
    p + 1 is the number of coefficients per regime."""
    return (params.n_clusters - 1) + sum(
        (params.degree + 4) * r - 2 for r in params.regimes
    )


def bic(params: MixRhlpParams, loglik: float, n: int) -> float:
    """loglik - (free params / 2) * log(n)."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    return loglik - 0.5 * n_free_parameters(params) * float(np.log(n))


@dataclass(frozen=True)
class SelectionCell:
    """One (K, R) candidate in a model-selection sweep."""

    n_clusters: int
    n_regimes: int
    loglik: float
    n_params: int
    bic: float


def select_model(
    values: np.ndarray,
    grid: TimeGrid,
    cluster_range,
    regime_range,
    degree: int,
    config: EmConfig | None = None,
) -> tuple[MixRhlpParams, list[SelectionCell]]:
    """Fit every (K, R) combination and keep the best-BIC parameters.

    R is uniform across clusters during the sweep. Ties are broken toward
    fewer free parameters, then fewer clusters, then fewer regimes.
    """
    cluster_range = sorted(set(int(k) for k in cluster_range))
    regime_range = sorted(set(int(r) for r in regime_range))
    if not cluster_range or not regime_range:
        raise ValueError("cluster and regime ranges must be non-empty")
    base = config if config is not None else EmConfig()

    cells: list[SelectionCell] = []
    best: tuple | None = None
    best_params = None
    for K in cluster_range:
        for R in regime_range:
            cfg = replace(
                base,
                n_clusters=K,
                n_regimes=R,
                degree=degree,
                seed=subseed(base.seed, K, R),
            )
            params, report = em_fit(values, grid, cfg)
            cell = SelectionCell(
                n_clusters=K,
                n_regimes=R,
                loglik=report.loglik_trace[-1],
                n_params=n_free_parameters(params),
                bic=report.bic,
            )
            cells.append(cell)
            key = (-cell.bic, cell.n_params, K, R)
            if best is None or key < best:
                best = key
                best_params = params
    return best_params, cells
