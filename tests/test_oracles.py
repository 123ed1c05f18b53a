import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import destandardized_features, trained_gsp_discriminator
from fairpen.nn import clamp_prob
from fairpen.oracles import (
    brute_force_ks,
    exact_geo_discriminator_oracle,
    optimal_contrast_value,
    optimal_gsp_discriminator_oracle,
    synth_bias,
    synth_bias_fair_floor,
    table5_toy,
    table5_true_ratios,
)


def test_table5_true_ratios_match_published_values():
    true = table5_true_ratios()
    assert true[(1, 1)] == pytest.approx(1.1877, abs=5e-5)
    assert true[(0, 1)] == pytest.approx(0.8123, abs=5e-5)
    assert true[(1, 0)] == pytest.approx(0.6995, abs=5e-5)
    assert true[(0, 0)] == pytest.approx(1.3005, abs=5e-5)


def test_table5_toy_marginals():
    ds = table5_toy(20000, seed=0)
    a = ds.A[:, 0]
    y = ds.Y
    assert abs(a.mean() - 0.5) < 0.02
    # P(Y=1|A=0) = sigma(0) = .5, P(Y=1|A=1) = sigma(1) ~ .731
    assert abs(y[a == 0].mean() - 0.5) < 0.02
    assert abs(y[a == 1].mean() - 0.7311) < 0.02


def test_table5_toy_deterministic():
    d1 = table5_toy(100, seed=5)
    d2 = table5_toy(100, seed=5)
    assert np.array_equal(d1.A, d2.A) and np.array_equal(d1.Y, d2.Y)


def test_synth_bias_shapes_and_rho_effect():
    ds = synth_bias(n=5000, rho=2.0, seed=0)
    assert ds.n == 5000 and ds.p == 2
    a = ds.sensitive_raw("a")
    x1 = destandardized_features(ds)[:, 0]
    strong = np.corrcoef(a, x1)[0, 1]
    weak = np.corrcoef(
        synth_bias(n=5000, rho=0.0, seed=0).sensitive_raw("a"),
        destandardized_features(synth_bias(n=5000, rho=0.0, seed=0))[:, 0],
    )[0, 1]
    assert strong > 0.5 and abs(weak) < 0.05


def test_brute_force_ks_hand_example():
    s = np.array([0.1, 0.2, 0.8, 0.9])
    assert brute_force_ks(s, np.array([True, True, False, False])) == pytest.approx(0.5)
    assert brute_force_ks(s, np.ones(4, dtype=bool)) == 0.0


def test_exact_geo_oracle_validation():
    good = np.full((2, 2, 2), 0.125)
    with pytest.raises(ValueError):
        exact_geo_discriminator_oracle(good * 2.0, np.ones((2, 2)))
    with pytest.raises(ValueError):
        exact_geo_discriminator_oracle(good, np.ones((3, 2)))
    with pytest.raises(ValueError):
        exact_geo_discriminator_oracle(good, np.zeros((2, 2)))


def test_exact_geo_oracle_reduces_to_conditional_prop1_form():
    # independent (A, Y) and beta = 1: D* = p(s|a,y) / (p(s|a,y) + p(s|y))
    rng = np.random.default_rng(0)
    p_s_given_ay = rng.random((2, 2, 2)) + 0.1
    p_s_given_ay /= p_s_given_ay.sum(axis=0, keepdims=True)
    p_a = np.array([0.4, 0.6])
    p_y = np.array([0.3, 0.7])
    joint = p_s_given_ay * (p_a[:, None] * p_y[None, :])[None, :, :]
    table = exact_geo_discriminator_oracle(joint, np.ones((2, 2)))
    p_s_given_y = (p_s_given_ay * p_a[None, :, None]).sum(axis=1)
    expected = p_s_given_ay / (p_s_given_ay + p_s_given_y[:, None, :])
    assert np.allclose(table, expected, atol=1e-12)


def test_synth_bias_fair_floor_matches_monte_carlo():
    # x2's AUC on 3.2 M rows of synth_bias (16 seeds of 200 000) by rank
    # counting, with its DeLong standard error from the placements: the
    # share of negatives below each positive and of positives above each negative
    tracemalloc.start()
    try:
        pos, neg = [], []
        for seed in range(16):
            ds = synth_bias(200_000, rho=1.0, seed=seed)
            x2 = destandardized_features(ds)[:, 1]
            pos.append(x2[ds.Y == 1.0])
            neg.append(x2[ds.Y == 0.0])
        del ds, x2
        pos, neg = np.concatenate(pos), np.concatenate(neg)
        pos.sort()
        neg.sort()
        below = np.searchsorted(neg, pos) / len(neg)
        above = 1.0 - np.searchsorted(pos, neg, side="right") / len(pos)
        auc = below.mean()
        se = np.sqrt(below.var() / len(pos) + above.var() / len(neg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert 3 * se < 1e-3  # the sample resolves the tolerance
    assert abs(auc - synth_bias_fair_floor(1.0)) < 1e-3, (auc, se)


def _objective(pmf, q, d):
    """contrast_value's sum p log D + q log(1 - D), over the cells of the
    exact law instead of the rows of a batch."""
    return float((pmf * np.log(d)).sum() + (q * np.log(1.0 - d)).sum())


def test_optimal_contrast_value_is_the_objective_at_each_oracle():
    rng = np.random.default_rng(0)
    pmf = rng.random((3, 2)) + 0.05
    pmf /= pmf.sum()
    p_s, p_a = pmf.sum(axis=1, keepdims=True), pmf.sum(axis=0, keepdims=True)
    mix = (pmf + p_s * p_a) / 2.0
    js = 0.5 * (pmf * np.log(pmf / mix)).sum() + 0.5 * (p_s * p_a * np.log(p_s * p_a / mix)).sum()
    value = optimal_contrast_value(pmf)
    assert value == pytest.approx(-np.log(4.0) + 2.0 * js, abs=1e-14)
    assert value == pytest.approx(_objective(pmf, p_s * p_a, optimal_gsp_discriminator_oracle(pmf)), abs=1e-14)
    assert optimal_contrast_value(p_s * p_a) == pytest.approx(-np.log(4.0), abs=1e-14)  # independence: chance

    # GEO: the weighted objective at exact_geo_discriminator_oracle, summed cell by cell
    joint = rng.random((2, 3, 2)) + 0.05
    joint /= joint.sum()
    beta = rng.random((3, 2)) + 0.5
    table = exact_geo_discriminator_oracle(joint, beta)
    p_a, p_sy = joint.sum(axis=(0, 2)), joint.sum(axis=1)
    direct = 0.0
    for i, j, k in itertools.product(range(2), range(3), range(2)):
        q = beta[j, k] * p_sy[i, k] * p_a[j]
        direct += joint[i, j, k] * np.log(table[i, j, k]) + q * np.log(1.0 - table[i, j, k])
    assert optimal_contrast_value(joint, beta) == pytest.approx(direct, abs=1e-14)
    with pytest.raises(ValueError):
        optimal_contrast_value(joint, np.ones((2, 2)))


def test_trained_gsp_discriminator_reaches_the_optimal_contrast_value():
    # criterion 2's law and training, for 3 000 iterations; D's value on the
    # exact law is at most the optimum, and within 2e-3 of it
    pmf = np.array([[0.4, 0.1], [0.1, 0.4]])
    D = trained_gsp_discriminator(pmf, 3_000)
    cells = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])  # (s, a), pmf's row order
    d = clamp_prob(D.forward(cells)).reshape(2, 2)
    q = pmf.sum(axis=1, keepdims=True) * pmf.sum(axis=0, keepdims=True)
    gap = optimal_contrast_value(pmf) - _objective(pmf, q, d)
    assert 0.0 <= gap < 2e-3, gap
