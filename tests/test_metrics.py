import itertools

import numpy as np
import pytest

from fairpen.errors import DegenerateMetricError, DimensionError, UndefinedMetricError
from fairpen.metrics import (
    QuantileGrid,
    TopkSummary,
    auc,
    choose_threshold,
    eo,
    frontier_flags,
    ks_geo,
    ks_gsp,
    mae,
    pareto_frontier,
    quantile_grid,
    sp,
    topk_fair_summary,
)
from fairpen.oracles import brute_force_ks


# ---------------------------------------------------------------- brute force

def _auc_pairwise(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            total += 1.0 if sp > sn else (0.5 if sp == sn else 0.0)
    return total / (len(pos) * len(neg))


def _best_j(scores, labels):
    n1 = (labels == 1).sum()
    n0 = (labels == 0).sum()
    best = -np.inf
    for tau in np.concatenate([[-np.inf], np.sort(scores), [np.inf]]):
        yhat = scores > tau
        best = max(best, yhat[labels == 1].sum() / n1 - yhat[labels == 0].sum() / n0)
    return best


# ------------------------------------------------------------------------ auc

def test_auc_perfect_and_reversed():
    s = np.array([0.1, 0.2, 0.8, 0.9])
    y = np.array([0, 0, 1, 1])
    assert auc(s, y) == 1.0
    assert auc(-s, y) == 0.0


def test_auc_ties_count_half():
    assert auc(np.array([0.5, 0.5]), np.array([0, 1])) == 0.5


def test_auc_single_class_undefined():
    with pytest.raises(UndefinedMetricError):
        auc(np.array([0.1, 0.9]), np.array([1, 1]))


def test_auc_matches_pairwise_counting():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 200))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            continue
        s = np.round(rng.random(n), 2)  # force ties
        assert abs(auc(s, y) - _auc_pairwise(s, y)) < 1e-12


def test_auc_length_mismatch():
    with pytest.raises(DimensionError):
        auc(np.array([0.1]), np.array([1, 0]))


# ------------------------------------------------------------------ threshold

def test_choose_threshold_separable():
    s = np.array([0.1, 0.2, 0.8, 0.9])
    y = np.array([0, 0, 1, 1])
    tau = choose_threshold(s, y)
    assert tau == pytest.approx(0.5)
    assert ((s > tau).astype(int) == y).all()


def test_choose_threshold_attains_brute_force_j():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            continue
        s = np.round(rng.random(n), 1)
        tau = choose_threshold(s, y)
        yhat = s > tau
        j = yhat[y == 1].sum() / (y == 1).sum() - yhat[y == 0].sum() / (y == 0).sum()
        assert j == pytest.approx(_best_j(s, y), abs=1e-12)


def test_choose_threshold_tie_breaks_small():
    # both accept-all and accept-none give J=0 when scores are useless;
    # the smallest candidate (-inf) must win
    s = np.array([0.5, 0.5])
    y = np.array([1, 0])
    assert choose_threshold(s, y) == -np.inf


def test_choose_threshold_single_class():
    with pytest.raises(UndefinedMetricError):
        choose_threshold(np.array([0.2, 0.4]), np.array([0, 0]))


# -------------------------------------------------------------------- sp / eo

def test_sp_discrete_example():
    # [DERIVED] rates 1.0 vs 0.5 -> |1/0.5 - 1| = 1
    assert sp(np.array([1, 0, 1, 1]), np.array([0, 0, 1, 1])) == pytest.approx(1.0)


def test_sp_discrete_equal_rates_zero():
    assert sp(np.array([1, 0, 1, 0]), np.array([0, 0, 1, 1])) == 0.0


def test_sp_discrete_degenerate():
    with pytest.raises(DegenerateMetricError):
        sp(np.array([1, 1]), np.array([1, 1]))  # empty A=0 group
    with pytest.raises(DegenerateMetricError):
        sp(np.array([0, 1]), np.array([0, 1]))  # zero denominator rate


def test_eo_discrete_hand_example():
    yhat = np.array([1, 0, 1, 1, 0, 1, 1, 0])
    a = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    # [DERIVED] y=0: r1=1, r0=.5 -> 1; y=1: r1=.5, r0=.5 -> 0
    assert eo(yhat, a, y) == pytest.approx(1.0)


def test_sp_continuous_matches_direct_recomputation():
    rng = np.random.default_rng(2)
    yhat = rng.integers(0, 2, 40).astype(float)
    a = rng.random(40)
    grid = quantile_grid(a)
    expected = np.mean(
        [abs(yhat[a <= q].mean() / yhat.mean() - 1.0) for q in grid.values]
    )
    assert sp(yhat, a, "continuous", grid) == pytest.approx(expected, abs=1e-12)


def test_eo_continuous_matches_direct_recomputation():
    rng = np.random.default_rng(3)
    yhat = rng.integers(0, 2, 60).astype(float)
    a = rng.random(60)
    y = rng.integers(0, 2, 60).astype(float)
    grid = quantile_grid(a)
    expected = 0.0
    for yv in (0.0, 1.0):
        ref = yhat[y == yv].mean()
        for q in grid.values:
            expected += abs(yhat[(a <= q) & (y == yv)].mean() / ref - 1.0)
    expected /= len(grid.values)
    assert eo(yhat, a, y, "continuous", grid) == pytest.approx(expected, abs=1e-12)


def test_rate_gaps_undefined_where_the_binary_ratio_does_not_apply():
    yhat = np.array([1, 0, 1, 1, 0, 1, 1, 0], dtype=float)
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=float)
    binary = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=float)
    for a in (binary * 2, binary + 1, binary / 2, np.array([0, 1, 2, 3, 0, 1, 2, 3], dtype=float)):
        with pytest.raises(UndefinedMetricError, match="every value is 0 or 1"):
            sp(yhat, a)
        with pytest.raises(UndefinedMetricError, match="every value is 0 or 1"):
            eo(yhat, a, y)
    with pytest.raises(UndefinedMetricError, match="discrete outcome"):
        eo(yhat, binary, y, y_grid=quantile_grid(y))
    # the binary ratio reads the observed levels: all rows at A = 0 is a degenerate group, not a blank
    with pytest.raises(DegenerateMetricError, match="empty group"):
        sp(yhat, np.zeros(8))


# ------------------------------------------------------------------- quantile

def test_quantile_grid_nearest_rank():
    assert quantile_grid(np.arange(1, 11)).values == tuple(range(1, 10))
    assert quantile_grid(np.array([50, 10, 30, 20, 40])).values == (
        10, 10, 20, 20, 30, 30, 40, 40, 50,
    )


def test_quantile_grid_must_be_nondecreasing():
    with pytest.raises(ValueError):
        QuantileGrid((1.0, 0.5))


# ------------------------------------------------------------------------- ks

def test_ks_gsp_four_point_example():
    s = np.array([0.1, 0.2, 0.8, 0.9])
    a = np.array([0, 0, 1, 1])
    assert ks_gsp(s, a, "discrete") == pytest.approx(1.0)


def test_ks_gsp_identical_groups_zero():
    s = np.array([0.1, 0.5, 0.1, 0.5])
    a = np.array([0, 0, 1, 1])
    assert ks_gsp(s, a, "discrete") == 0.0


def test_ks_monotone_transform_invariance():
    rng = np.random.default_rng(4)
    s = rng.random(30)
    a = rng.integers(0, 2, 30)
    y = rng.integers(0, 2, 30)
    assert ks_gsp(np.exp(3 * s), a, "discrete") == pytest.approx(
        ks_gsp(s, a, "discrete"), abs=1e-12
    )
    assert ks_geo(np.exp(3 * s), a, y, "discrete") == pytest.approx(
        ks_geo(s, a, y, "discrete"), abs=1e-12
    )


def test_ks_gsp_discrete_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 50))
        s = np.round(rng.random(n), 1)
        a = rng.integers(0, 3, n)
        expected = sum(brute_force_ks(s, a == v) for v in np.unique(a))
        assert ks_gsp(s, a, "discrete") == pytest.approx(expected, abs=1e-12)


def test_ks_gsp_continuous_matches_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(10, 50))
        s = np.round(rng.random(n), 1)
        a = rng.random(n)
        grid = quantile_grid(a)
        expected = np.mean([brute_force_ks(s, a <= q) for q in grid.values])
        assert ks_gsp(s, a, "continuous", grid) == pytest.approx(expected, abs=1e-12)


def test_ks_geo_discrete_matches_brute_force():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        n = int(rng.integers(8, 50))
        s = np.round(rng.random(n), 1)
        a = rng.integers(0, 2, n)
        y = rng.integers(0, 2, n)
        cells = [(av, yv) for av in (0, 1) for yv in (0, 1)]
        if any(((a == av) & (y == yv)).sum() == 0 for av, yv in cells):
            continue
        expected = 0.0
        for yv in (0, 1):
            mask = y == yv
            for av in (0, 1):
                expected += brute_force_ks(s[mask], a[mask] == av)
        assert ks_geo(s, a, y, "discrete") == pytest.approx(expected, abs=1e-12)
        checked += 1


def test_ks_geo_scores_depend_on_y_only():
    y = np.array([0, 0, 1, 1, 0, 1])
    a = np.array([0, 1, 0, 1, 1, 0])
    s = 0.2 + 0.6 * y.astype(float)
    assert ks_geo(s, a, y, "discrete") == 0.0


def test_ks_empty_group_errors():
    with pytest.raises(DegenerateMetricError):
        # cell (A=1, Y=1) is empty
        ks_geo(np.array([0.1, 0.2, 0.3]), np.array([0, 1, 0]), np.array([0, 0, 1]), "discrete")
    with pytest.raises(DegenerateMetricError):
        brute_force_ks(np.array([0.1]), np.array([False]))


def test_ks_row_permutation_invariance():
    rng = np.random.default_rng(8)
    s = rng.random(20)
    a = rng.integers(0, 2, 20)
    perm = rng.permutation(20)
    assert ks_gsp(s[perm], a[perm], "discrete") == pytest.approx(
        ks_gsp(s, a, "discrete"), abs=1e-12
    )


# ------------------------------------------------------------------------ mae

def test_mae_basic():
    assert mae(np.array([1.0, 2.0]), np.array([0.0, 4.0])) == pytest.approx(1.5)
    assert mae(np.zeros(3), np.zeros(3)) == 0.0


# --------------------------------------------------------------------- pareto

def test_pareto_dominance_example():
    pts = [(0.5, 0.5), (0.4, 0.4), (0.6, 0.4)]
    assert pareto_frontier(pts) == [(0.6, 0.4)]


def test_pareto_single_point():
    assert pareto_frontier([(0.7, 0.2)]) == [(0.7, 0.2)]


def test_pareto_idempotent():
    rng = np.random.default_rng(9)
    pts = [tuple(p) for p in rng.random((60, 2))]
    front = pareto_frontier(pts)
    assert pareto_frontier(front) == front


def test_pareto_matches_brute_force():
    rng = np.random.default_rng(10)
    for _ in range(100):
        pts = [tuple(p) for p in np.round(rng.random((100, 2)), 2)]
        unique = sorted(set(pts))
        expected = [
            p
            for p in unique
            if not any(
                q[0] >= p[0] and q[1] <= p[1] and q != p for q in unique
            )
        ]
        assert pareto_frontier(pts) == expected


def test_frontier_flags_duplicates_share():
    pts = [(0.5, 0.5), (0.6, 0.4), (0.5, 0.5)]
    assert frontier_flags(pts) == [False, True, False]


# ----------------------------------------------------------------------- topk

def test_topk_basic_and_sort_oracle():
    frontier = [(0.9, 0.1), (0.85, 0.3), (0.8, 0.2), (0.7, 0.05), (0.95, 0.4), (0.6, 0.01), (0.99, 0.25)]
    out = topk_fair_summary(frontier, utility_threshold=0.7, k=5)
    qualifying = sorted(f for u, f in frontier if u >= 0.7)[:5]
    assert out.count == 5
    assert out.mean == pytest.approx(np.mean(qualifying))
    assert out.std == pytest.approx(np.std(qualifying))


def test_topk_identical_values():
    out = topk_fair_summary([(0.9, 0.2)] * 5, 0.5, k=5)
    assert out == TopkSummary(pytest.approx(0.2), pytest.approx(0.0), 5)


def test_topk_empty_qualifying():
    out = topk_fair_summary([(0.3, 0.1)], utility_threshold=0.9)
    assert out.count == 0 and np.isnan(out.mean)
