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
``log_regime_probabilities`` take G processes with one R as a (G, R, 2)
coefficient array and, where they take counts, one (m, R) count table
each as a (G, m, R) array; a single process is the case G = 1. They work
on all G problems at once: EM fits the logistic processes of the clusters
of every live restart of a fit that share one R as one stack. Internally
the tables are regime-first, (G, R, m), so that reductions over regimes
run across slabs. ``LogisticWeights`` is the checked (R, 2) parameter of
one process that models hold; ``weights.coef[None]`` is its G = 1 stack.

A public call checks its raw coefficients and counts once, in
``_Counts.prepare``, which also makes the counts regime-first and forms
their positive mask and (G, m) totals over regimes. ``irls_fit`` hands
that prepared problem to ``qw_value`` and ``qw_gradient_hessian`` (called
through their module names, once per round of candidates and once per
Newton step) in place of the raw counts, so neither re-checks them.
``qw_value`` on a prepared problem also returns the regime probabilities
its softmax formed, and the accepted candidate's probabilities go to the
next gradient and Hessian instead of a second softmax.
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


def _scores(coef: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """(G, R, m) affine scores w_r0 + w_r1 * t_j of a (G, R, 2) stack,
    regime axis before time so that reductions over regimes run across
    slabs."""
    return coef[..., :1] + coef[..., 1:] * grid.points


def _softmax(coef: np.ndarray, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """(G, R, m) log-probabilities and probabilities of a (G, R, 2) stack,
    from one max-shifted softmax of the scores."""
    scores = _scores(coef, grid)
    scores -= scores.max(axis=1, keepdims=True)
    expd = np.exp(scores)
    sums = expd.sum(axis=1, keepdims=True)
    scores -= np.log(sums)
    return scores, np.divide(expd, sums, out=expd)


def log_regime_probabilities(coef: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """(G, m, R) log-probabilities of the G processes of a (G, R, 2)
    coefficient array, max-shifted per row; the coefficients are not
    checked."""
    return _softmax(coef, grid)[0].transpose(0, 2, 1)


def regime_probabilities(weights: LogisticWeights, grid: TimeGrid) -> np.ndarray:
    """(m, R) probabilities of each regime at each grid point; rows sum to 1."""
    return _softmax(weights.coef[None], grid)[1][0].T


class _Counts(NamedTuple):
    """A stack's soft counts, checked once: the (G, R, m) regime-first
    counts, their positive mask, their (G, m) totals over regimes and, when
    known, the (G, R, m) regime probabilities at the current iterate."""

    counts: np.ndarray
    positive: np.ndarray
    totals: np.ndarray
    probs: np.ndarray | None = None

    @staticmethod
    def prepare(coef, grid: TimeGrid, soft_counts) -> "_Counts":
        """Check a public call's raw (G, R, 2) coefficients and (G, m, R)
        counts, and prepare the counts."""
        shape = coef.shape if isinstance(coef, np.ndarray) else ()
        if len(shape) != 3 or shape[1] < 1 or shape[2] != 2:
            raise ValueError("logistic coefficients must be a (G, R, 2) array with R >= 1")
        if not np.all(np.isfinite(coef)):
            raise ValueError("logistic weights must be finite")
        if np.any(coef[:, -1] != 0.0):
            raise ValueError("reference regime weights must be pinned to (0, 0)")
        counts = np.asarray(soft_counts, dtype=float)
        if counts.shape != (shape[0], len(grid), shape[1]):
            raise ValueError("soft counts must be (G, m, R) matching the coefficients and grid")
        if not np.all(counts >= 0):  # NaN fails this test too
            raise ValueError("soft counts must be non-negative and not NaN")
        counts = counts.transpose(0, 2, 1)
        return _Counts(counts, counts > 0, counts.sum(axis=1))

    def take(self, rows: np.ndarray, probs: np.ndarray | None = None) -> "_Counts":
        """The problems at the sorted positions ``rows``, with their rows of
        the (G, R, m) probabilities ``probs`` when given."""
        if rows.size == len(self.counts):  # every problem, in order
            return _Counts(self.counts, self.positive, self.totals, probs)
        if probs is not None:
            probs = probs[rows]
        return _Counts(self.counts[rows], self.positive[rows], self.totals[rows], probs)


def _objective(coef: np.ndarray, grid: TimeGrid, prepared: _Counts):
    """(G,) values of Q and the (G, R, m) regime probabilities, from one
    ``_softmax``."""
    log_probs, probs = _softmax(coef, grid)
    # a zero count scores 0, whatever its log-probability (-inf included)
    terms = np.multiply(
        prepared.counts, log_probs, out=np.zeros_like(log_probs), where=prepared.positive
    )
    return terms.reshape(len(coef), -1).sum(axis=1), probs


def qw_value(coef: np.ndarray, grid: TimeGrid, soft_counts):
    """The (G,) values of the weighted log-probability objective Q(w) of
    the G problems of a (G, R, 2) coefficient array and (G, m, R) counts.
    ``irls_fit`` passes its prepared counts and gets the values with the
    (G, R, m) regime probabilities.
    """
    if isinstance(soft_counts, _Counts):
        return _objective(coef, grid, soft_counts)
    return _objective(coef, grid, _Counts.prepare(coef, grid, soft_counts))[0]


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
    coef: np.ndarray, grid: TimeGrid, soft_counts
) -> tuple[np.ndarray, np.ndarray]:
    """(G, 2(R-1)) gradients and (G, 2(R-1), 2(R-1)) Hessians of Q(w) in
    the free parameters of the G problems of a (G, R, 2) coefficient array
    and (G, m, R) counts.

    The free parameters are the rows 1..R-1 of each weight matrix,
    flattened as (intercept, slope) pairs. The Hessian is the usual
    multinomial-logistic curvature, symmetric negative semi-definite.
    ``irls_fit`` passes its prepared counts, with the probabilities at
    ``coef`` when known.
    """
    prepared = soft_counts
    if not isinstance(prepared, _Counts):
        prepared = _Counts.prepare(coef, grid, soft_counts)
    G, R = coef.shape[:2]
    m = len(grid)
    n_free = 2 * (R - 1)
    if n_free == 0:
        return np.zeros((G, 0)), np.zeros((G, 0, 0))

    counts, totals = prepared.counts, prepared.totals  # (G, R, m), (G, m)
    probs = _softmax(coef, grid)[1] if prepared.probs is None else prepared.probs
    pi = probs[:, :-1]  # (G, R-1, m): the free regimes
    phi, outer, eye = _hessian_constants(grid.points.tobytes(), R - 1)

    weighted = totals[:, None] * pi
    grad = ((counts[:, :-1] - weighted) @ phi).reshape(G, n_free)

    # cov[g, r, s, j] = totals_gj * pi_grj * (delta_rs - pi_gsj); one
    # product with the (m, 4) outer products of phi gives every 2x2 block
    cov = weighted[:, :, None] * (eye - pi[:, None])
    blocks = (cov.reshape(G, -1, m) @ outer).reshape(G, R - 1, R - 1, 2, 2)
    hess = -blocks.transpose(0, 1, 3, 2, 4).reshape(G, n_free, n_free)
    return grad, hess


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
    coef_init: np.ndarray,
    grid: TimeGrid,
    soft_counts,
    max_iter: int = 50,
    tol: float = 1e-8,
) -> np.ndarray:
    """Maximize Q(w) from the (G, R, 2) coefficients ``coef_init`` by
    damped Newton (IRLS) steps, with (G, m, R) counts; returns the fitted
    coefficients as a new (G, R, 2) array and leaves ``coef_init`` as it is.

    Each iteration solves for the Newton direction d with
    ``core.ridge_solve(-hess, grad)`` and stops, before any line search,
    once the Newton decrement g.d / 2 (the gain the quadratic model
    predicts) is at most ``tol * (1 + |Q|)``; a direction that does not
    ascend, or a system that cannot be solved, stops it too. Otherwise
    step-halving finds a step that does not lower Q, so the returned
    weights score at least as well as the initial ones. At most
    ``max_iter`` Newton steps; the gauge row stays pinned.

    The G problems are independent and fitted as one stack. Each problem
    makes the decisions a fit of its own would make: it stops on its own
    decrement, halves its own step and leaves the stack when it stops.
    Each Newton step of the stack is one ``qw_gradient_hessian`` call and
    one ``ridge_solve``, and each round of candidates one ``qw_value``
    call, over the problems still in it. So a concatenation of stacks
    gives each stack, bit for bit, its own result; EM concatenates the
    stacks of every live restart's M-step.

    Every candidate array has its gauge row at (0, 0) by construction; a
    non-finite candidate raises ``ValueError``, as ``LogisticWeights``
    does.
    """
    prepared = _Counts.prepare(coef_init, grid, soft_counts)
    coef = coef_init.astype(float)  # a float copy, the iterate; its gauge row stays 0
    G, R = coef.shape[:2]
    if R == 1 or max_iter <= 0:
        return coef

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
            if won.size == members.size:
                break
            members, free, direction = members[~accept], free[~accept], direction[~accept]
            step *= 0.5
        else:  # an exhausted line search stops its problems
            live = live[~np.isin(live, members)]
            if not live.size:
                break
    return coef
