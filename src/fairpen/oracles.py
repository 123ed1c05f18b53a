"""Closed-form reference generators and brute-force checkers.

These ship with the library (not only in tests) so the ``ratio-toy`` CLI
command can reproduce the density-ratio toy experiment, and so every
checker stays independent of the code path it validates.
"""

from __future__ import annotations

import numpy as np

from .data import ColumnSchema, TabularDataset
from .errors import DegenerateMetricError
from .nn import sigmoid


def table5_toy(n: int, seed: int = 0) -> TabularDataset:
    """i.i.d. samples of (A, Y) with A ~ Bern(0.5) and P(Y=1|A=a) = sigma(a).

    The single feature column is constant; only (A, Y) matter here.
    """
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=n).astype(np.float64)
    y = (rng.random(n) < sigmoid(a)).astype(np.float64)
    schema = [
        ColumnSchema("x0", "feature", "continuous"),
        ColumnSchema("a", "sensitive", "binary"),
        ColumnSchema("y", "outcome", "binary"),
    ]
    features = np.zeros((n, 1))
    return TabularDataset(features, a.reshape(-1, 1), a.reshape(-1, 1), y, schema, ["x0"])


def table5_true_ratios() -> dict[tuple[int, int], float]:
    """Analytic p(y|a)/p(y) for the toy law, keyed by (a, y)."""
    p_y1_given = {0: float(sigmoid(np.array([0.0]))[0]), 1: float(sigmoid(np.array([1.0]))[0])}
    p_y1 = 0.5 * (p_y1_given[0] + p_y1_given[1])
    out = {}
    for a in (0, 1):
        out[(a, 1)] = p_y1_given[a] / p_y1
        out[(a, 0)] = (1.0 - p_y1_given[a]) / (1.0 - p_y1)
    return out


def synth_bias(n: int, rho: float, noise: float = 1.0, seed: int = 0) -> TabularDataset:
    """Synthetic (X, A, Y) with tunable dependence of the informative feature
    on the sensitive attribute: A ~ U[0,1]; x1 = rho*(2A - 1) + noise*eps;
    Y ~ Bern(sigma(3*x1 + x2)).

    rho = 0 makes x1 (and hence the Bayes score) independent of A; large
    rho makes the optimal unpenalized scorer strongly A-dependent.
    """
    rng = np.random.default_rng(seed)
    a = rng.random(n)
    x1 = rho * (2.0 * a - 1.0) + noise * rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    y = (rng.random(n) < sigmoid(3.0 * x1 + x2)).astype(np.float64)
    schema = [
        ColumnSchema("x1", "feature", "continuous"),
        ColumnSchema("x2", "feature", "continuous"),
        ColumnSchema("a", "sensitive", "continuous"),
        ColumnSchema("y", "outcome", "binary"),
    ]
    features = np.column_stack([x1, x2])
    return TabularDataset(
        features, a.reshape(-1, 1), a.reshape(-1, 1), y, schema, ["x1", "x2"]
    )


def synth_bias_fair_floor(rho: float, noise: float = 1.0) -> float:
    """Population AUC of scoring by x2 alone under ``synth_bias``'s law: the
    utility of a scorer that is fair by construction, since x2 is
    independent of (x1, A). P(Y=1 | x2) = E[sigma(3*x1 + x2)] rises with
    x2, so x2 itself is the best scorer that reads only x2.

    Quadrature: Gauss-Legendre over A; the trapezoid rule over the noise
    on [-9, 9] in steps fine enough for sigma's poles (error below 1e-9);
    the trapezoid rule on a uniform x2 grid over [-12, 12]. With f1 and f0
    the densities of x2 and Y = 1 or 0, the AUC is
    P(x2 of a positive > x2 of a negative) = int f1 F0 / (P(Y=1) P(Y=0)),
    F0 the running integral of f0. Converged to about 1e-7.
    """
    u, w_u = np.polynomial.legendre.leggauss(64)  # u = 2A - 1, uniform on [-1, 1]
    e, h_e = np.linspace(-9.0, 9.0, int(np.ceil(60 * max(noise, 1.0))) + 1, retstep=True)
    w_e = h_e * np.exp(-0.5 * e**2) / np.sqrt(2.0 * np.pi)  # the end weights are below 1e-18
    x2, h = np.linspace(-12.0, 12.0, 4801, retstep=True)
    p_y1 = np.zeros_like(x2)  # P(Y=1 | x2)
    for u_i, w_i in zip(u, w_u / 2.0):
        x1 = rho * u_i + noise * e
        p_y1 += w_i * (sigmoid(3.0 * x1[None, :] + x2[:, None]) @ w_e)
    phi = np.exp(-0.5 * x2**2) / np.sqrt(2.0 * np.pi)
    f1, f0 = phi * p_y1, phi * (1.0 - p_y1)

    def trapezoid(f):
        return h * (f.sum() - 0.5 * (f[0] + f[-1]))

    F0 = np.concatenate([[0.0], np.cumsum(0.5 * h * (f0[1:] + f0[:-1]))])
    return float(trapezoid(f1 * F0) / (trapezoid(f1) * trapezoid(f0)))


def brute_force_ks(scores: np.ndarray, group_mask: np.ndarray) -> float:
    """Max over all real thresholds of |CDF_group - CDF_all|, enumerated at
    observed values and midpoints. Independent of the metrics module."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    mask = np.asarray(group_mask, dtype=bool).ravel()
    if not mask.any():
        raise DegenerateMetricError("empty group")
    grid = np.unique(s)
    thresholds = np.concatenate([grid, (grid[:-1] + grid[1:]) / 2.0, [grid[0] - 1.0, grid[-1] + 1.0]])
    best = 0.0
    group = s[mask]
    for t in thresholds:
        gap = abs(np.mean(group <= t) - np.mean(s <= t))
        best = max(best, gap)
    return float(best)


def optimal_gsp_discriminator_oracle(joint_pmf: np.ndarray) -> np.ndarray:
    """Exact optimal discriminator on a finite (s, a) joint:
    D*(s,a) = p(s,a) / (p(s,a) + p(s)p(a))."""
    pmf = np.asarray(joint_pmf, dtype=np.float64)
    if pmf.ndim != 2 or (pmf < 0).any() or abs(pmf.sum() - 1.0) > 1e-12:
        raise ValueError("joint pmf must be a nonnegative 2-D table summing to 1")
    p_s = pmf.sum(axis=1, keepdims=True)
    p_a = pmf.sum(axis=0, keepdims=True)
    return pmf / (pmf + p_s * p_a)


def exact_geo_discriminator_oracle(joint_pmf: np.ndarray, beta_table: np.ndarray) -> np.ndarray:
    """Exact optimal outcome-conditioned discriminator on a finite
    (s, a, y) joint with resampled attributes:

        D*(s,a,y) = p(s|a,y) / (p(s|a,y) + beta(a,y) p(s|y) p(a)p(y)/p(a,y))
    """
    p = np.asarray(joint_pmf, dtype=np.float64)
    beta = np.asarray(beta_table, dtype=np.float64)
    if p.ndim != 3 or (p < 0).any() or abs(p.sum() - 1.0) > 1e-12:
        raise ValueError("joint pmf must be a nonnegative 3-D table summing to 1")
    if beta.shape != p.shape[1:] or (beta <= 0).any():
        raise ValueError("beta table must be positive with shape (|A|, |Y|)")
    p_ay = p.sum(axis=0)  # (A, Y)
    p_a = p.sum(axis=(0, 2))
    p_y = p.sum(axis=(0, 1))
    p_s_given_ay = p / p_ay[None, :, :]
    p_s_given_y = p.sum(axis=1) / p_y[None, :]  # (S, Y)
    ratio = p_a[:, None] * p_y[None, :] / p_ay  # p(a)p(y)/p(a,y)
    denom = p_s_given_ay + beta[None, :, :] * p_s_given_y[:, None, :] * ratio[None, :, :]
    return p_s_given_ay / denom


def optimal_contrast_value(joint_pmf: np.ndarray, beta_table: np.ndarray | None = None) -> float:
    """The contrast objective's value at its optimal discriminator, the
    value the scorer descends when D is optimal.

    Without ``beta_table``, on a finite (s, a) joint (GSP): the value of
    sum p(s,a) log D + sum p(s)p(a) log(1 - D) at
    ``optimal_gsp_discriminator_oracle``, which is
    -log 4 + 2 JS(p(s,a) || p(s)p(a)). With it, on a finite (s, a, y) joint
    (GEO): the value of sum p(s,a,y) log D + sum beta(a,y) p(s,y)p(a) log(1 - D)
    at ``exact_geo_discriminator_oracle``. Both are
    sum p log(p / (p + q)) + q log(q / (p + q)) over the cells, q the
    resampled term's weighted law and 0 log 0 = 0.

    The GEO value weights each resampled cell by beta at its own attribute
    a', as the oracle table does; the trainer weights a resampled row by
    beta(a, y) of its real row. The two objectives share their optimum only
    where beta does not vary with a (A independent of Y, as in acceptance
    criterion 3), so elsewhere this is not the optimum of what the trainer
    ascends.
    """
    p = np.asarray(joint_pmf, dtype=np.float64)
    if beta_table is None:
        optimal_gsp_discriminator_oracle(p)  # checks the table
        q = p.sum(axis=1, keepdims=True) * p.sum(axis=0, keepdims=True)
    else:
        exact_geo_discriminator_oracle(p, beta_table)  # checks both tables
        p_a = p.sum(axis=(0, 2))[:, None]
        q = np.asarray(beta_table, dtype=np.float64)[None] * p.sum(axis=1, keepdims=True) * p_a  # beta(a,y) p(s,y) p(a)
    m = p + q
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p / m), 0.0) + np.where(q > 0, q * np.log(q / m), 0.0)
    return float(terms.sum())
