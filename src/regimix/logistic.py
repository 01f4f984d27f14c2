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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TimeGrid, logsumexp, ridge_solve

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


def _scores(weights: LogisticWeights, grid: TimeGrid) -> np.ndarray:
    """(m, R) affine scores w_r0 + w_r1 * t_j."""
    t = grid.points
    return weights.coef[:, 0][None, :] + t[:, None] * weights.coef[:, 1][None, :]


def log_regime_probabilities(weights: LogisticWeights, grid: TimeGrid) -> np.ndarray:
    """(m, R) log-probabilities, max-shifted per row."""
    scores = _scores(weights, grid)
    return scores - logsumexp(scores, axis=1)[:, None]


def regime_probabilities(weights: LogisticWeights, grid: TimeGrid) -> np.ndarray:
    """(m, R) probabilities of each regime at each grid point; rows sum to 1."""
    scores = _scores(weights, grid)
    expd = np.exp(scores - scores.max(axis=1, keepdims=True))
    return expd / expd.sum(axis=1, keepdims=True)


def _aggregate_counts(soft_counts: np.ndarray, m: int) -> np.ndarray:
    """Sum an (n, m, R) soft-count table over curves; pass (m, R) through."""
    counts = np.asarray(soft_counts, dtype=float)
    if counts.ndim == 3:
        counts = counts.sum(axis=0)
    if counts.ndim != 2 or counts.shape[0] != m:
        raise ValueError("soft counts must be (n, m, R) or (m, R) matching the grid")
    if np.any(counts < 0):
        raise ValueError("soft counts must be non-negative")
    return counts


def qw_value(weights: LogisticWeights, grid: TimeGrid, soft_counts: np.ndarray) -> float:
    """The weighted log-probability objective Q(w)."""
    counts = _aggregate_counts(soft_counts, len(grid))
    log_pi = log_regime_probabilities(weights, grid)
    with np.errstate(invalid="ignore"):
        terms = np.where(counts > 0, counts * log_pi, 0.0)
    return float(terms.sum())


def qw_gradient_hessian(
    weights: LogisticWeights, grid: TimeGrid, soft_counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of Q(w) in the 2(R-1) free parameters.

    The free parameters are the rows 1..R-1 of the weight matrix,
    flattened as (intercept, slope) pairs. The Hessian is the usual
    multinomial-logistic curvature, symmetric negative semi-definite.
    """
    counts = _aggregate_counts(soft_counts, len(grid))
    R = weights.n_regimes
    n_free = 2 * (R - 1)
    if n_free == 0:
        return np.zeros(0), np.zeros((0, 0))

    pi = regime_probabilities(weights, grid)
    totals = counts.sum(axis=1)  # (m,)
    phi = np.column_stack([np.ones(len(grid)), grid.points])  # (m, 2)

    resid = counts[:, :-1] - totals[:, None] * pi[:, :-1]  # (m, R-1)
    grad = np.einsum("jr,jc->rc", resid, phi).reshape(n_free)

    # cov[j, r, s] = totals_j * pi_jr * (delta_rs - pi_js) over the free
    # regimes; one product with the (m, 4) outer products of phi gives
    # every 2x2 block
    cov = (totals[:, None] * pi[:, :-1])[:, :, None] * (np.eye(R - 1) - pi[:, None, :-1])
    outer = (phi[:, :, None] * phi[:, None, :]).reshape(-1, 4)
    blocks = (cov.reshape(len(grid), -1).T @ outer).reshape(R - 1, R - 1, 2, 2)
    hess = -blocks.transpose(0, 2, 1, 3).reshape(n_free, n_free)
    return grad, hess


def _with_free(weights: LogisticWeights, free: np.ndarray) -> LogisticWeights:
    coef = np.zeros((weights.n_regimes, 2))
    coef[:-1] = free.reshape(-1, 2)
    return LogisticWeights(coef)


def irls_fit(
    weights_init: LogisticWeights,
    grid: TimeGrid,
    soft_counts: np.ndarray,
    max_iter: int = 50,
    tol: float = 1e-8,
) -> LogisticWeights:
    """Maximize Q(w) from ``weights_init`` by damped Newton (IRLS) steps.

    Each iteration solves for the Newton direction d with
    ``core.ridge_solve(-hess, grad)`` and stops, before any line search,
    once the Newton decrement g.d / 2 (the gain the quadratic model
    predicts) is at most ``tol * (1 + |Q|)``; a direction that does not
    ascend, or a system that cannot be solved, stops it too. Otherwise
    step-halving finds a step that does not lower Q, so the returned
    weights score at least as well as the initial ones. At most
    ``max_iter`` Newton steps; the gauge row stays pinned.
    """
    counts = _aggregate_counts(soft_counts, len(grid))
    weights = weights_init
    if weights.n_regimes == 1 or max_iter <= 0:
        return weights

    q = qw_value(weights, grid, counts)
    free = weights.coef[:-1].reshape(-1)
    for _ in range(max_iter):
        grad, hess = qw_gradient_hessian(weights, grid, counts)
        try:
            direction = ridge_solve(-hess, grad)
        except np.linalg.LinAlgError:
            break
        if 0.5 * (grad @ direction) <= tol * (1.0 + abs(q)):
            break
        step = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            cand_free = free + step * direction
            cand = _with_free(weights, cand_free)
            q_cand = qw_value(cand, grid, counts)
            if q_cand >= q:
                break
            step *= 0.5
        else:
            break
        weights, free, q = cand, cand_free, q_cand
    return weights
