"""Reference computations for the benchmark's output checks.

Everything here is written from the model's definition (Chamroukhi et
al., arXiv:1312.7018) with numpy and scipy, and shares no code with the
package under test: the checks compare the package's outputs against
these functions, so a fault in the package cannot hide in both.

Parameters are passed as plain arrays. A MixRHLP class density is
``(alphas, clusters)`` where each cluster is a triple ``(logistic
weights (R, 2), regression coefficients (R, p+1), variances (R,))`` and
the regime probabilities are the softmax of the affine scores
``w_r0 + w_r1 * t``.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np
from scipy.special import logsumexp, softmax
from scipy.stats import norm


def regime_log_probs(weights, t) -> np.ndarray:
    """(m, R) log softmax of the scores w_r0 + w_r1 * t_j."""
    weights = np.asarray(weights, dtype=float)
    scores = weights[:, 0][None, :] + np.asarray(t, dtype=float)[:, None] * weights[:, 1][None, :]
    return scores - logsumexp(scores, axis=1, keepdims=True)


def cluster_curve_logliks(values, t, cluster) -> np.ndarray:
    """(n,) log density of each curve under one hidden-process regression."""
    weights, betas, variances = (np.asarray(a, dtype=float) for a in cluster)
    t = np.asarray(t, dtype=float)
    powers = t[:, None] ** np.arange(betas.shape[1])[None, :]  # (m, p+1)
    means = powers @ betas.T  # (m, R)
    point = regime_log_probs(weights, t)[None, :, :] + norm.logpdf(
        np.asarray(values, dtype=float)[:, :, None],
        loc=means[None, :, :],
        scale=np.sqrt(variances)[None, None, :],
    )
    return logsumexp(point, axis=2).sum(axis=1)


def mixrhlp_cluster_logliks(values, t, alphas, clusters) -> np.ndarray:
    """(n, K) log of alpha_k times the curve density under cluster k."""
    columns = [cluster_curve_logliks(values, t, c) for c in clusters]
    return np.log(np.asarray(alphas, dtype=float))[None, :] + np.column_stack(columns)


def mixrhlp_curve_logliks(values, t, alphas, clusters) -> np.ndarray:
    """(n,) observed-data log-likelihood of each curve under the mixture."""
    return logsumexp(mixrhlp_cluster_logliks(values, t, alphas, clusters), axis=1)


def map_rule(class_logliks, priors) -> tuple[np.ndarray, np.ndarray]:
    """1-based MAP labels and posterior class probabilities."""
    log_post = np.log(np.asarray(priors, dtype=float))[None, :] + np.asarray(class_logliks)
    return np.argmax(log_post, axis=1) + 1, softmax(log_post, axis=1)


def n_free_parameters(n_clusters: int, regimes, degree: int) -> int:
    """nu = (K - 1) + sum_k ((p + 4) R_k - 2): proportions, then per cluster
    R_k (p+1) coefficients, R_k variances and 2 (R_k - 1) logistic weights."""
    return (n_clusters - 1) + sum((degree + 4) * r - 2 for r in regimes)


def flda_pr_cv(values, labels, folds) -> tuple[float, list[float]]:
    """k-fold CV error of the constant-mean (p = 0) functional LDA.

    Per training fold and class: one mean and one variance over every
    point of every curve, the class share as prior, then the Gaussian MAP
    rule on the held-out curves.
    """
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    rates = []
    for fold in folds:
        train = np.setdiff1d(np.arange(labels.size), fold)
        scores = []
        for g in classes:
            x = values[train][labels[train] == g]
            mean = x.mean()
            sd = np.sqrt(np.mean((x - mean) ** 2))
            prior = x.shape[0] / train.size
            scores.append(np.log(prior) + norm.logpdf(values[fold], mean, sd).sum(axis=1))
        predicted = classes[np.argmax(np.column_stack(scores), axis=1)]
        rates.append(float(np.mean(predicted != labels[fold])))
    return float(np.mean(rates)), rates


def is_stratified_partition(folds, labels, k: int) -> bool:
    """k folds that split 0..n-1 exactly once each, with every class dealt
    so that its per-fold counts differ by at most one."""
    labels = np.asarray(labels)
    if len(folds) != k:
        return False
    joined = np.sort(np.concatenate([np.asarray(f, dtype=int) for f in folds]))
    if not np.array_equal(joined, np.arange(labels.size)):
        return False
    for g in np.unique(labels):
        counts = [int(np.sum(labels[np.asarray(f, dtype=int)] == g)) for f in folds]
        if max(counts) - min(counts) > 1:
            return False
    return True


def best_agreement(assigned, truth) -> float:
    """Share of curves whose 0-based cluster index matches the truth under
    the best one-to-one relabelling of the clusters onto the true groups."""
    assigned = np.asarray(assigned, dtype=int)
    truth = np.asarray(truth)
    names = np.unique(truth)
    return max(
        float(np.mean(np.array(perm)[assigned] == truth))
        for perm in permutations(names)
    )
