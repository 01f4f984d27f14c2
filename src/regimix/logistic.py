"""Hidden logistic process: time-varying regime probabilities and their fit.

Each regime r carries an affine score w_r0 + w_r1 * t; the probability of
regime r at time t is the softmax of the scores. The weights of the last
regime are pinned to (0, 0) to remove the softmax shift degeneracy, so a
process with R regimes has 2(R-1) free parameters.

Fitting maximizes the soft-count weighted log-probability

    Q(w) = sum_{i,j,r} c[i,j,r] * log pi_r(t_j; w)

with Newton-Raphson steps (iteratively reweighted least squares). One
symmetric solve, ``core.ridge_solve``, gives each Newton direction, with a
ridge when the Hessian is near-singular. Fitting stops once the Newton
decrement shows that no step can gain more than the tolerance, before any
line search; otherwise step-halving makes every accepted iterate at least
as good as the previous one.

``irls_fit``, ``qw_value``, ``qw_gradient_hessian`` and
``log_regime_probabilities`` also take a tuple of G processes with the same R,
with one (m, R) count table each as a (G, m, R) array, and then work on
all G problems at once: EM fits the logistic processes of the clusters
of every live restart of a fit that share one R as one stack. The single
process is the G = 1 case of the same code. Internally the tables are
regime-first, (G, R, m), so that reductions over regimes run across slabs.

``irls_fit`` prepares its problem once: it checks the counts, makes them
regime-first and forms their positive mask and (G, m) totals over
regimes. It hands that prepared problem to ``qw_value`` and
``qw_gradient_hessian`` (called through their module names, once per
round of candidates and once per Newton step) in place of the raw counts,
so neither re-checks them. ``qw_value`` on a prepared problem also
returns the regime probabilities its softmax formed, and the accepted
candidate's probabilities go to the next gradient and Hessian instead of
a second softmax. Given a (G, R, 2) coefficient array, ``irls_fit``
returns the fitted array and builds no ``LogisticWeights``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import core
from .core import TimeGrid

_MAX_HALVINGS = 30


@dataclass(frozen=True)
class LogisticWeights:
    """(R, 2) matrix of per-regime (intercept, slope); last row is (0, 0)."""

    coef: np.ndarray

    def __post_init__(self):
        coef = np.array(self.coef, dtype=float)
        if coef.ndim != 2 or coef.shape[1] != 2 or coef.shape[0] < 1:
            raise ValueError("logistic weights must be an (R, 2) matrix with R >= 1")
        if not np.all(np.isfinite(coef)):
            raise ValueError("logistic weights must be finite")
        if np.any(coef[-1] != 0.0):
            raise ValueError("reference regime weights must be pinned to (0, 0)")
        coef.flags.writeable = False
        object.__setattr__(self, "coef", coef)

    @property
    def n_regimes(self) -> int:
        return int(self.coef.shape[0])

    @staticmethod
    def zeros(n_regimes: int) -> "LogisticWeights":
        return LogisticWeights(np.zeros((n_regimes, 2)))

    @staticmethod
    def gauge_fixed(raw: np.ndarray) -> "LogisticWeights":
        """Pin the last row to (0, 0); leaves the probabilities unchanged."""
        raw = np.asarray(raw, dtype=float)
        return LogisticWeights(raw - raw[-1])


def _coef_stack(weights) -> tuple[np.ndarray, bool]:
    """(G, R, 2) coefficients of one process, of a stack of G processes or
    of a (G, R, 2) coefficient array, and whether a single process was
    given."""
    if isinstance(weights, LogisticWeights):
        return weights.coef[None], True
    if isinstance(weights, np.ndarray):
        return weights, False
    coefs = [w.coef for w in weights]
    if not coefs or len({c.shape for c in coefs}) != 1:
        raise ValueError("a stack of logistic processes needs one regime count")
    return np.array(coefs), False


def _scores(coef: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """(G, R, m) affine scores w_r0 + w_r1 * t_j of a (G, R, 2) stack,
    regime axis before time so that reductions over regimes run across
    slabs."""
    return coef[..., :1] + coef[..., 1:] * grid.points


def _log_probs(coef: np.ndarray, grid: TimeGrid) -> np.ndarray:
    scores = _scores(coef, grid)
    scores -= scores.max(axis=1, keepdims=True)
    scores -= np.log(np.exp(scores).sum(axis=1, keepdims=True))
    return scores


def _probs(coef: np.ndarray, grid: TimeGrid) -> np.ndarray:
    scores = _scores(coef, grid)
    expd = np.exp(scores - scores.max(axis=1, keepdims=True))
    return expd / expd.sum(axis=1, keepdims=True)


def log_regime_probabilities(weights, grid: TimeGrid) -> np.ndarray:
    """(m, R) log-probabilities, max-shifted per row; (G, m, R) for a
    tuple of G processes with the same R."""
    coef, single = _coef_stack(weights)
    out = _log_probs(coef, grid).transpose(0, 2, 1)
    return out[0] if single else out


def regime_probabilities(weights: LogisticWeights, grid: TimeGrid) -> np.ndarray:
    """(m, R) probabilities of each regime at each grid point; rows sum to 1."""
    return _probs(weights.coef[None], grid)[0].T


def _aggregate_counts(soft_counts: np.ndarray, m: int, stack: int | None) -> np.ndarray:
    """(G, R, m) soft counts, regime axis first. A single process (``stack``
    None) takes an (n, m, R) table, summed over curves, or an (m, R) one; a
    stack of G processes takes one (m, R) table each, as a (G, m, R) array."""
    counts = np.asarray(soft_counts, dtype=float)
    if stack is None:
        if counts.ndim == 3:
            counts = counts.sum(axis=0)
        if counts.ndim != 2 or counts.shape[0] != m:
            raise ValueError("soft counts must be (n, m, R) or (m, R) matching the grid")
        counts = counts[None]
    elif counts.ndim != 3 or counts.shape[:2] != (stack, m):
        raise ValueError("stacked soft counts must be (G, m, R) matching the grid")
    if not np.all(counts >= 0):  # NaN fails this test too
        raise ValueError("soft counts must be non-negative and not NaN")
    return counts.transpose(0, 2, 1)


class _Counts(NamedTuple):
    """A stack's soft counts, checked once: the (G, R, m) regime-first
    counts, their positive mask, their (G, m) totals over regimes and, when
    known, the (G, R, m) regime probabilities at the current iterate."""

    counts: np.ndarray
    positive: np.ndarray
    totals: np.ndarray
    probs: np.ndarray | None = None

    @staticmethod
    def prepare(soft_counts, m: int, stack: int | None) -> "_Counts":
        counts = _aggregate_counts(soft_counts, m, stack)
        return _Counts(counts, counts > 0, counts.sum(axis=1))

    def take(self, rows: np.ndarray, probs: np.ndarray | None = None) -> "_Counts":
        """The problems at the sorted positions ``rows``, with their rows of
        the (G, R, m) probabilities ``probs`` when given."""
        if rows.size == len(self.counts):  # every problem, in order
            return _Counts(self.counts, self.positive, self.totals, probs)
        if probs is not None:
            probs = probs[rows]
        return _Counts(self.counts[rows], self.positive[rows], self.totals[rows], probs)


def _unwrap(values, single: bool):
    return tuple(v[0] for v in values) if single else values


def _objective(coef: np.ndarray, grid: TimeGrid, prepared: _Counts):
    """(G,) values of Q and the (G, R, m) regime probabilities, from one
    softmax: the log-probabilities of ``_log_probs`` and the
    probabilities of ``_probs``, bit for bit."""
    scores = _scores(coef, grid)
    scores -= scores.max(axis=1, keepdims=True)
    expd = np.exp(scores)
    sums = expd.sum(axis=1, keepdims=True)
    scores -= np.log(sums)
    # a zero count scores 0, whatever its log-probability (-inf included)
    terms = np.multiply(
        prepared.counts, scores, out=np.zeros_like(scores), where=prepared.positive
    )
    return terms.reshape(len(coef), -1).sum(axis=1), np.divide(expd, sums, out=expd)


def qw_value(weights, grid: TimeGrid, soft_counts: np.ndarray):
    """The weighted log-probability objective Q(w).

    One process gives a float. A tuple of G processes with the same R,
    with a (G, m, R) count array, gives the (G,) values of the G problems.
    ``irls_fit`` passes a (G, R, 2) array with its prepared counts and gets
    the values with the regime probabilities.
    """
    if isinstance(soft_counts, _Counts):
        return _objective(weights, grid, soft_counts)
    coef, single = _coef_stack(weights)
    prepared = _Counts.prepare(soft_counts, len(grid), None if single else len(coef))
    q = _objective(coef, grid, prepared)[0]
    return float(q[0]) if single else q


@functools.lru_cache(maxsize=32)
def _hessian_constants(points: bytes, n_free_regimes: int):
    """For the grid with these float64 points: phi = (1, t_j) as (m, 2),
    its (m, 4) outer products, and the (R-1, R-1, 1) identity; computed
    once per grid and regime count, and read-only."""
    t = np.frombuffer(points)
    phi = np.column_stack([np.ones(t.size), t])
    outer = (phi[:, :, None] * phi[:, None, :]).reshape(t.size, 4)
    eye = np.eye(n_free_regimes)[:, :, None]
    for a in (phi, outer, eye):
        a.flags.writeable = False
    return phi, outer, eye


def qw_gradient_hessian(
    weights, grid: TimeGrid, soft_counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of Q(w) in the 2(R-1) free parameters.

    The free parameters are the rows 1..R-1 of the weight matrix,
    flattened as (intercept, slope) pairs. The Hessian is the usual
    multinomial-logistic curvature, symmetric negative semi-definite.
    A tuple of G processes with a (G, m, R) count array gives (G, 2(R-1))
    gradients and (G, 2(R-1), 2(R-1)) Hessians. ``irls_fit`` passes its
    prepared counts, with the probabilities at ``weights`` when known.
    """
    coef, single = _coef_stack(weights)
    G, R = coef.shape[:2]
    m = len(grid)
    prepared = soft_counts
    if not isinstance(prepared, _Counts):
        prepared = _Counts.prepare(soft_counts, m, None if single else G)
    n_free = 2 * (R - 1)
    if n_free == 0:
        return _unwrap((np.zeros((G, 0)), np.zeros((G, 0, 0))), single)

    counts, totals = prepared.counts, prepared.totals  # (G, R, m), (G, m)
    probs = _probs(coef, grid) if prepared.probs is None else prepared.probs
    pi = probs[:, :-1]  # (G, R-1, m): the free regimes
    phi, outer, eye = _hessian_constants(grid.points.tobytes(), R - 1)

    weighted = totals[:, None] * pi
    grad = ((counts[:, :-1] - weighted) @ phi).reshape(G, n_free)

    # cov[g, r, s, j] = totals_gj * pi_grj * (delta_rs - pi_gsj); one
    # product with the (m, 4) outer products of phi gives every 2x2 block
    cov = weighted[:, :, None] * (eye - pi[:, None])
    blocks = (cov.reshape(G, -1, m) @ outer).reshape(G, R - 1, R - 1, 2, 2)
    hess = -blocks.transpose(0, 1, 3, 2, 4).reshape(G, n_free, n_free)
    return _unwrap((grad, hess), single)


def _newton_directions(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """(G, 2(R-1)) directions ``ridge_solve(-hess, grad)``; a problem whose
    system cannot be solved gets NaN, which stops it. ``core.ridge_solve`` is
    looked up per call, so a wrapper set on the module sees every solve."""
    try:
        return core.ridge_solve(-hess, grad)
    except np.linalg.LinAlgError:
        out = np.full_like(grad, np.nan)
        for g in range(len(grad)):
            try:
                out[g] = core.ridge_solve(-hess[g], grad[g])
            except np.linalg.LinAlgError:
                pass
        return out


def irls_fit(
    weights_init,
    grid: TimeGrid,
    soft_counts: np.ndarray,
    max_iter: int = 50,
    tol: float = 1e-8,
):
    """Maximize Q(w) from ``weights_init`` by damped Newton (IRLS) steps.

    Each iteration solves for the Newton direction d with
    ``core.ridge_solve(-hess, grad)`` and stops, before any line search,
    once the Newton decrement g.d / 2 (the gain the quadratic model
    predicts) is at most ``tol * (1 + |Q|)``; a direction that does not
    ascend, or a system that cannot be solved, stops it too. Otherwise
    step-halving finds a step that does not lower Q, so the returned
    weights score at least as well as the initial ones. At most
    ``max_iter`` Newton steps; the gauge row stays pinned.

    A tuple of G processes with the same R, with a (G, m, R) count array,
    fits G independent problems as one stack and returns a tuple of G
    fits. Each problem makes the decisions a fit of its own would make: it
    stops on its own decrement, halves its own step and leaves the stack
    when it stops. Each Newton step of the stack is one
    ``qw_gradient_hessian`` call and one ``ridge_solve``, and each round of
    candidates one ``qw_value`` call, over the problems still in it. So a
    concatenation of stacks gives each stack, bit for bit, its own result;
    EM concatenates the stacks of every live restart's M-step.

    The iteration runs on one (G, R, 2) coefficient array, and every
    candidate array has its gauge row at (0, 0) by construction; a
    non-finite candidate raises ``ValueError``, as ``LogisticWeights``
    does. ``LogisticWeights`` are built once, for the problems that moved;
    a problem that did not keeps its input object. A (G, R, 2) array
    ``weights_init`` gives the fitted (G, R, 2) array instead.
    """
    coef, single = _coef_stack(weights_init)
    as_array = isinstance(weights_init, np.ndarray)
    G, R = coef.shape[:2]
    prepared = _Counts.prepare(soft_counts, len(grid), None if single else G)
    if R == 1 or max_iter <= 0:
        return weights_init if single or as_array else tuple(weights_init)

    coef = coef.copy()  # the iterate of every problem; the gauge row stays 0
    moved = np.zeros(G, dtype=bool)
    q, probs = qw_value(coef, grid, prepared)  # probs: the softmax at coef
    live = np.arange(G)  # problems still iterating
    for _ in range(max_iter):
        grad, hess = qw_gradient_hessian(coef[live], grid, prepared.take(live, probs))
        direction = _newton_directions(grad, hess)
        gain = 0.5 * np.einsum("gf,gf->g", grad, direction)
        ascent = gain > tol * (1.0 + np.abs(q[live]))  # False for NaN
        if not ascent.all():
            live, direction = live[ascent], direction[ascent]
            if not live.size:
                break
        # the line search: every problem still in it has halved its step
        # as often, so one scalar step serves them all
        members, free = live, coef[live, :-1].reshape(live.size, -1)
        step = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            cand_free = free + step * direction
            if not np.isfinite(cand_free).all():
                raise ValueError("logistic weights must be finite")
            cands = np.zeros((members.size, R, 2))
            cands[:, :-1] = cand_free.reshape(members.size, R - 1, 2)
            q_cand, p_cand = qw_value(cands, grid, prepared.take(members))
            accept = q_cand >= q[members]
            won = members[accept]
            coef[won], q[won], probs[won] = cands[accept], q_cand[accept], p_cand[accept]
            moved[won] = True
            if won.size == members.size:
                break
            members, free, direction = members[~accept], free[~accept], direction[~accept]
            step *= 0.5
        else:  # an exhausted line search stops its problems
            live = live[~np.isin(live, members)]
            if not live.size:
                break
    if as_array:
        return coef
    starts = [weights_init] if single else weights_init
    fitted = tuple(
        LogisticWeights(c) if did else start for c, did, start in zip(coef, moved, starts)
    )
    return fitted[0] if single else fitted
