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
all G problems at once: the EM's M-step fits the logistic processes of
every cluster of a class as one stack. The single process is the G = 1
case of the same code. Internally the tables are regime-first, (G, R, m),
so that reductions over regimes run across slabs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TimeGrid, ridge_solve

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
    """(G, R, 2) coefficients of one process or of a stack of G processes,
    and whether a single process was given."""
    if isinstance(weights, LogisticWeights):
        return weights.coef[None], True
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
    if (counts < 0).any():
        raise ValueError("soft counts must be non-negative")
    return counts.transpose(0, 2, 1)


def _unwrap(values, single: bool):
    return tuple(v[0] for v in values) if single else values


def qw_value(weights, grid: TimeGrid, soft_counts: np.ndarray):
    """The weighted log-probability objective Q(w).

    One process gives a float. A tuple of G processes with the same R,
    with a (G, m, R) count array, gives the (G,) values of the G problems.
    """
    coef, single = _coef_stack(weights)
    counts = _aggregate_counts(soft_counts, len(grid), None if single else len(coef))
    log_pi = _log_probs(coef, grid)
    with np.errstate(invalid="ignore"):
        terms = np.where(counts > 0, counts * log_pi, 0.0)
    q = terms.reshape(len(coef), -1).sum(axis=1)
    return float(q[0]) if single else q


def qw_gradient_hessian(
    weights, grid: TimeGrid, soft_counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of Q(w) in the 2(R-1) free parameters.

    The free parameters are the rows 1..R-1 of the weight matrix,
    flattened as (intercept, slope) pairs. The Hessian is the usual
    multinomial-logistic curvature, symmetric negative semi-definite.
    A tuple of G processes with a (G, m, R) count array gives (G, 2(R-1))
    gradients and (G, 2(R-1), 2(R-1)) Hessians.
    """
    coef, single = _coef_stack(weights)
    G, R = coef.shape[:2]
    m = len(grid)
    counts = _aggregate_counts(soft_counts, m, None if single else G)
    n_free = 2 * (R - 1)
    if n_free == 0:
        return _unwrap((np.zeros((G, 0)), np.zeros((G, 0, 0))), single)

    pi = _probs(coef, grid)[:, :-1]  # (G, R-1, m): the free regimes
    totals = counts.sum(axis=1)  # (G, m)
    phi = np.column_stack([np.ones(m), grid.points])  # (m, 2)

    weighted = totals[:, None] * pi
    grad = ((counts[:, :-1] - weighted) @ phi).reshape(G, n_free)

    # cov[g, r, s, j] = totals_gj * pi_grj * (delta_rs - pi_gsj); one
    # product with the (m, 4) outer products of phi gives every 2x2 block
    cov = weighted[:, :, None] * (np.eye(R - 1)[:, :, None] - pi[:, None])
    outer = (phi[:, :, None] * phi[:, None, :]).reshape(m, 4)
    blocks = (cov.reshape(G, -1, m) @ outer).reshape(G, R - 1, R - 1, 2, 2)
    hess = -blocks.transpose(0, 1, 3, 2, 4).reshape(G, n_free, n_free)
    return _unwrap((grad, hess), single)


def _with_free(n_regimes: int, free: np.ndarray) -> LogisticWeights:
    coef = np.zeros((n_regimes, 2))
    coef[:-1] = free.reshape(-1, 2)
    return LogisticWeights(coef)


def _newton_directions(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """(G, 2(R-1)) directions ``ridge_solve(-hess, grad)``; a problem whose
    system cannot be solved gets NaN, which stops it."""
    try:
        return ridge_solve(-hess, grad)
    except np.linalg.LinAlgError:
        out = np.full_like(grad, np.nan)
        for g in range(len(grad)):
            try:
                out[g] = ridge_solve(-hess[g], grad[g])
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
    candidates one ``qw_value`` call, over the problems still in it.
    """
    coef, single = _coef_stack(weights_init)
    G, R = coef.shape[:2]
    # (G, m, R), as qw_value takes a stack, over regime-first memory
    counts = _aggregate_counts(soft_counts, len(grid), None if single else G).transpose(0, 2, 1)
    fitted = [weights_init] if single else list(weights_init)
    if R == 1 or max_iter <= 0:
        return weights_init if single else tuple(fitted)

    q = qw_value(tuple(fitted), grid, counts)
    free = coef[:, :-1].reshape(G, -1).copy()
    live = np.arange(G)  # problems still iterating
    for _ in range(max_iter):
        if not live.size:
            break
        grad, hess = qw_gradient_hessian(
            tuple(fitted[g] for g in live), grid, counts[live]
        )
        direction = _newton_directions(grad, hess)
        gain = 0.5 * np.einsum("gf,gf->g", grad, direction)
        ascent = gain > tol * (1.0 + np.abs(q[live]))  # False for NaN
        live, direction = live[ascent], direction[ascent]
        step = np.ones(live.size)
        searching = np.arange(live.size)  # positions in ``live`` still halving
        for _ in range(_MAX_HALVINGS + 1):
            if not searching.size:
                break
            members = live[searching]
            cand_free = free[members] + step[searching, None] * direction[searching]
            cands = tuple(_with_free(R, f) for f in cand_free)
            q_cand = qw_value(cands, grid, counts[members])
            accept = q_cand >= q[members]
            for pos in np.flatnonzero(accept):
                g = members[pos]
                fitted[g], free[g], q[g] = cands[pos], cand_free[pos], q_cand[pos]
            searching = searching[~accept]
            step[searching] *= 0.5
        if searching.size:  # an exhausted line search stops its problem
            kept = np.ones(live.size, dtype=bool)
            kept[searching] = False
            live = live[kept]
    return fitted[0] if single else tuple(fitted)
