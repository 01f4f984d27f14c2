"""Independent reference implementations used to check the fast paths.

Everything here is deliberately written as plain loops over the defining
formulas (in extended precision where sums of products could lose
digits), with no code shared with the package internals.
"""

import mpmath as mp
import numpy as np

mp.mp.dps = 60


def mp_softmax_row(scores):
    exps = [mp.e**s for s in scores]
    total = mp.fsum(exps)
    return [e / total for e in exps]


def mp_regime_probs(coef, t_points):
    """(m, R) logistic-process probabilities by direct evaluation."""
    out = []
    for t in t_points:
        scores = [mp.mpf(c0) + mp.mpf(c1) * mp.mpf(t) for c0, c1 in coef]
        out.append(mp_softmax_row(scores))
    return out


def mp_gauss(x, mean, var):
    x, mean, var = mp.mpf(x), mp.mpf(mean), mp.mpf(var)
    return mp.e ** (-((x - mean) ** 2) / (2 * var)) / mp.sqrt(2 * mp.pi * var)


def mp_rhlp_density(logistic_coef, betas, variances, values_row, design, t_points):
    m = len(values_row)
    R = len(variances)
    pi = mp_regime_probs(logistic_coef, t_points)
    density = mp.mpf(1)
    for j in range(m):
        point = mp.mpf(0)
        for r in range(R):
            mean = mp.fsum(
                mp.mpf(betas[r][c]) * mp.mpf(design[j][c]) for c in range(len(betas[r]))
            )
            point += pi[j][r] * mp_gauss(values_row[j], mean, variances[r])
        density *= point
    return density


def mp_mixrhlp_density(params, values_row, design, t_points):
    total = mp.mpf(0)
    for k, cluster in enumerate(params.clusters):
        total += mp.mpf(float(params.weights[k])) * mp_rhlp_density(
            cluster.logistic.coef.tolist(),
            cluster.coeffs.tolist(),
            cluster.variances.tolist(),
            values_row,
            design,
            t_points,
        )
    return total


def mp_posteriors(params, values, design, t_points):
    """Brute-force cluster and regime responsibilities, linear domain."""
    n = len(values)
    K = params.n_clusters
    gamma = np.zeros((n, K))
    taus = [
        np.zeros((n, len(t_points), c.n_regimes)) for c in params.clusters
    ]
    for i in range(n):
        cluster_dens = []
        for k, cluster in enumerate(params.clusters):
            dens = mp_rhlp_density(
                cluster.logistic.coef.tolist(),
                cluster.coeffs.tolist(),
                cluster.variances.tolist(),
                values[i],
                design,
                t_points,
            )
            cluster_dens.append(mp.mpf(float(params.weights[k])) * dens)
        total = mp.fsum(cluster_dens)
        for k in range(K):
            gamma[i, k] = float(cluster_dens[k] / total)
        for k, cluster in enumerate(params.clusters):
            pi = mp_regime_probs(cluster.logistic.coef.tolist(), t_points)
            R = cluster.n_regimes
            for j in range(len(t_points)):
                terms = []
                for r in range(R):
                    mean = mp.fsum(
                        mp.mpf(cluster.coeffs[r][c]) * mp.mpf(design[j][c])
                        for c in range(cluster.coeffs.shape[1])
                    )
                    terms.append(
                        pi[j][r]
                        * mp_gauss(values[i][j], mean, float(cluster.variances[r]))
                    )
                pt_total = mp.fsum(terms)
                for r in range(R):
                    taus[k][i, j, r] = float(terms[r] / pt_total)
    return gamma, taus


def explicit_wls_beta(point_weights, values, design):
    """Per-regime weighted least squares assembled by explicit loops.

    ``point_weights`` is (n, m): the combined responsibility of each point
    for one (cluster, regime) pair.
    """
    n, m = values.shape
    d = design.shape[1]
    gram = np.zeros((d, d))
    rhs = np.zeros(d)
    for i in range(n):
        for j in range(m):
            w = point_weights[i, j]
            gram += w * np.outer(design[j], design[j])
            rhs += w * values[i, j] * design[j]
    return np.linalg.solve(gram, rhs)


def explicit_wls_variance(point_weights, values, design, beta):
    n, m = values.shape
    num = 0.0
    den = 0.0
    for i in range(n):
        for j in range(m):
            w = point_weights[i, j]
            resid = values[i, j] - float(design[j] @ beta)
            num += w * resid**2
            den += w
    return num / den


def mp_projection_means(curve_weights, values, design, dps=50):
    """(m,) fitted means of the least-squares fit of a design to curves
    that each carry one weight at every point, at ``dps`` digits: the
    normal equations of the weighted mean curve, solved in extended
    precision from the same float inputs."""
    with mp.workdps(dps):
        n, m = values.shape
        total = mp.fsum(mp.mpf(w) for w in curve_weights)
        mean = [
            mp.fsum(mp.mpf(curve_weights[i]) * mp.mpf(values[i, j]) for i in range(n)) / total
            for j in range(m)
        ]
        T = mp.matrix([[mp.mpf(v) for v in row] for row in design])
        beta = mp.lu_solve(T.T * T, T.T * mp.matrix(mean))
        fitted = T * beta
        return np.array([float(fitted[j]) for j in range(m)])
