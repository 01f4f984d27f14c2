"""Output checks of the three workloads.

Each function takes what an operation returned (and what it needs to
judge it) and gives back a list of problems; an empty list means the
output passed. The expected values come from ``reference``, which shares
no code with the package, or from properties the method must have.
"""

from __future__ import annotations

import os

import numpy as np

import reference

#: EM must never lose likelihood by more than rounding.
MONOTONE_TOL = 1e-8
#: Relative agreement of a returned log-likelihood with its recomputation.
LOGLIK_RTOL = 1e-9
#: Absolute agreement of written posteriors with the reference MAP rule.
POSTERIOR_ATOL = 1e-9
#: Hard clusters of the merged waveform class against the sub-class origin.
MIN_AGREEMENT = 0.90
#: Error rate of always answering the majority class of the waveform sets.
MAJORITY_ERROR = 1.0 / 3.0


def fold_mean(error_rate: float, per_fold) -> list[str]:
    """The reported error is the mean of the per-fold rates."""
    if abs(error_rate - float(np.mean(per_fold))) > 1e-12:
        return [f"error rate {error_rate!r} is not the mean of the folds {list(per_fold)}"]
    return []


def folds_partition(folds, labels, k: int) -> list[str]:
    if not reference.is_stratified_partition(folds, labels, k):
        return [f"the {len(folds)} folds are not a stratified partition of {len(labels)} curves"]
    return []


def flda_pr_matches(error_rate: float, per_fold, values, labels, folds) -> list[str]:
    """flda-pr CV error equals the reference constant-mean LDA on the same folds."""
    expected, expected_folds = reference.flda_pr_cv(values, labels, folds)
    if list(per_fold) != expected_folds or error_rate != expected:
        return [
            f"flda-pr CV error {error_rate!r} {list(per_fold)} differs from the "
            f"reference {expected!r} {expected_folds}"
        ]
    return []


def paper_ordering(results: dict, flagship: str, min_gap: float = 0.05) -> list[str]:
    """The flagship beats every baseline on error and inertia, and the
    constant-mean LDA by at least ``min_gap`` in error.

    ``results`` maps a variant to its (error rate, intra-class inertia).
    """
    err, inertia = results[flagship]
    problems = []
    for variant, (other_err, other_inertia) in results.items():
        if variant == flagship:
            continue
        if not (err < other_err and inertia < other_inertia):
            problems.append(
                f"{flagship} (error {err}, inertia {inertia:.1f}) does not beat "
                f"{variant} (error {other_err}, inertia {other_inertia:.1f})"
            )
    if "flda-pr" in results and results["flda-pr"][0] - err < min_gap:
        problems.append(f"{flagship} beats flda-pr by less than {min_gap * 100:.0f} pp")
    return problems


def monotone(trace, what: str = "log-likelihood trace") -> list[str]:
    drops = np.diff(np.asarray(trace, dtype=float))
    if drops.size and drops.min() < -MONOTONE_TOL:
        return [f"{what} drops by {-drops.min():.3g} at step {int(np.argmin(drops)) + 1}"]
    return []


def loglik_matches(loglik: float, values, t, alphas, clusters) -> list[str]:
    expected = float(reference.mixrhlp_curve_logliks(values, t, alphas, clusters).sum())
    if not abs(loglik - expected) <= LOGLIK_RTOL * abs(expected):
        return [f"final log-likelihood {loglik!r} differs from the recomputed {expected!r}"]
    return []


def bic_matches(bic: float, loglik: float, n: int, n_clusters: int, regimes, degree: int) -> list[str]:
    nu = reference.n_free_parameters(n_clusters, regimes, degree)
    expected = loglik - 0.5 * nu * np.log(n)
    if not abs(bic - expected) <= 1e-12 * abs(expected):
        return [f"BIC {bic!r} differs from loglik - nu/2 log n = {expected!r} (nu = {nu})"]
    return []


def clusters_recover(cluster_logliks, origin) -> list[str]:
    """Hard clusters (argmax of the reference posteriors) against the truth."""
    share = reference.best_agreement(np.argmax(cluster_logliks, axis=1), origin)
    if share < MIN_AGREEMENT:
        return [f"hard clusters agree with the sub-class origin on {share:.3f} < {MIN_AGREEMENT}"]
    return []


def below_majority(error_rate: float, what: str) -> list[str]:
    if not error_rate < MAJORITY_ERROR:
        return [f"{what} error {error_rate:.4f} is not below the majority-class rate"]
    return []


def command_ok(code: int, paths) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}"]
    problems.extend(f"{p} was not written" for p in paths if not os.path.isfile(p))
    return problems


def predictions_match(labels, posteriors, ref_labels, ref_posteriors) -> list[str]:
    problems = []
    if labels.shape != ref_labels.shape or np.any(labels != ref_labels):
        wrong = int(np.sum(labels != ref_labels)) if labels.shape == ref_labels.shape else -1
        problems.append(f"{wrong} predicted labels differ from the reference MAP rule")
    if posteriors.shape != ref_posteriors.shape:
        problems.append(f"posterior table is {posteriors.shape}, expected {ref_posteriors.shape}")
        return problems
    gap = float(np.max(np.abs(posteriors - ref_posteriors)))
    if not gap <= POSTERIOR_ATOL:
        problems.append(f"posteriors differ from the reference by {gap:.3g}")
    row_gap = float(np.max(np.abs(posteriors.sum(axis=1) - 1.0)))
    if not row_gap <= POSTERIOR_ATOL:
        problems.append(f"posterior rows miss a unit sum by {row_gap:.3g}")
    return problems


def report_traces_monotone(report: dict) -> list[str]:
    problems = []
    for g, entry in enumerate(report.get("per_class", []), start=1):
        if entry is None:
            continue
        problems.extend(monotone(entry["loglik_trace"], f"class {g} trace"))
    return problems
