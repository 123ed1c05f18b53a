import numpy as np
import pytest

from conftest import binary_toy_dataset, gradients, parameters, zero_gradients
from gradcheck import relative_error
from fairpen.data import ColumnSchema, TabularDataset, split_train_val
from fairpen.errors import DimensionError, StateError
from fairpen.oracles import optimal_gsp_discriminator_oracle, table5_toy, table5_true_ratios
from fairpen.penalties import (
    DensityRatioEstimator,
    contrast,
    empirical_pmf_ratio,
    pretrain_density_ratio,
)
from fairpen.nn import mlp
from fairpen.training import TrainConfig, train


def _half_net(in_dim):
    """A net whose output is exactly 0.5 everywhere (zero weights, sigmoid)."""
    net = mlp(in_dim, [4], rng=np.random.default_rng(0), batch_norm=False)
    for p in parameters(net):
        p[...] = 0.0
    return net


def test_gsp_penalty_value_at_half():
    # [DERIVED] log(.5) + log(.5) = -2 log 2
    D = _half_net(2)
    s = np.array([0.3, 0.7, 0.5])
    a = np.array([[0.0], [1.0], [1.0]])
    value, grad_in = contrast(D, np.column_stack([s, a]), np.column_stack([s, a[::-1]]))
    assert value == pytest.approx(-2.0 * np.log(2.0), abs=1e-12)
    assert grad_in[:, :1].shape == (3, 1)


def test_gsp_penalty_length_mismatch():
    D = _half_net(2)
    with pytest.raises(DimensionError):
        contrast(D, np.array([[0.5, 0.0]]), np.array([[0.5, 1.0], [0.5, 0.0]]))


def _worst_fd_error(net, penalty, s):
    """Worst relative error of contrast's parameter and score gradients
    against central differences; ``penalty(s)`` calls contrast on ``net``."""
    _, grad_in = penalty(s)
    analytic = [g.copy() for g in gradients(net)]
    zero_gradients(net)

    def value(s_):
        v, _ = penalty(s_)
        zero_gradients(net)
        return v

    eps = 1e-6
    worst = 0.0
    for param, grad in zip(parameters(net), analytic):
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + eps
            plus = value(s)
            param[idx] = orig - eps
            minus = value(s)
            param[idx] = orig
            worst = max(worst, relative_error(grad[idx], (plus - minus) / (2 * eps)))
    for i in range(len(s)):
        sp, sm = s.copy(), s.copy()
        sp[i] += eps
        sm[i] -= eps
        worst = max(worst, relative_error(grad_in[i, 0], (value(sp) - value(sm)) / (2 * eps)))
    return worst


@pytest.mark.parametrize("batch_norm", [False, True])
def test_gsp_penalty_gradients_match_finite_differences(batch_norm):
    rng = np.random.default_rng(11)
    net = mlp(2, [6, 6], rng=rng, batch_norm=batch_norm)
    n = 12
    s = rng.random(n)
    a = rng.integers(0, 2, n).astype(float).reshape(-1, 1)
    a_prime = a[rng.permutation(n)]

    def penalty(s_):
        return contrast(net, np.column_stack([s_, a]), np.column_stack([s_, a_prime]))

    assert _worst_fd_error(net, penalty, s) < 1e-4


def test_geo_penalty_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    net = mlp(3, [6, 6], rng=rng, batch_norm=True)
    table = DensityRatioEstimator(
        table={(0.0, 0.0): 1.3, (0.0, 1.0): 0.8, (1.0, 0.0): 0.7, (1.0, 1.0): 1.2},
        frozen=True,
    )
    n = 10
    s = rng.random(n)
    a = rng.integers(0, 2, n).astype(float).reshape(-1, 1)
    y = rng.integers(0, 2, n).astype(float)
    a_prime = a[rng.permutation(n)]
    for beta in (table, DensityRatioEstimator(constant=0.7, frozen=True)):
        w = beta.values(a, y)

        def penalty(s_):
            real = np.column_stack([s_, a, y])
            return contrast(net, real, np.column_stack([s_, a_prime, y]), w)

        assert _worst_fd_error(net, penalty, s) < 1e-4


def test_geo_penalty_constant_beta_matches_weighted_value():
    rng = np.random.default_rng(13)
    net = mlp(3, [6], rng=rng, batch_norm=False)
    n = 8
    s = rng.random(n)
    a = rng.integers(0, 2, n).astype(float).reshape(-1, 1)
    y = rng.integers(0, 2, n).astype(float)
    a_prime = a[rng.permutation(n)]
    one = DensityRatioEstimator(constant=1.0, frozen=True)
    table = DensityRatioEstimator(
        table={(av, yv): 1.0 for av in (0.0, 1.0) for yv in (0.0, 1.0)}, frozen=True
    )
    real, fake = np.column_stack([s, a, y]), np.column_stack([s, a_prime, y])
    v1, _ = contrast(net, real, fake, one.values(a, y))
    zero_gradients(net)
    v2, _ = contrast(net, real, fake, table.values(a, y))
    zero_gradients(net)
    assert v1 == pytest.approx(v2, abs=1e-15)


def test_geo_penalty_requires_frozen_beta():
    train_set, val_set = split_train_val(binary_toy_dataset(60, seed=0), seed=0)
    rng = np.random.default_rng(0)
    h = mlp(train_set.p, [4], rng=rng)
    D = mlp(1 + train_set.l + 1, [4], rng=rng)
    beta = DensityRatioEstimator(constant=1.0)
    with pytest.raises(StateError):
        train(train_set, val_set, h, D, TrainConfig(lam=0.5, T=1, n_b=10), beta=beta)


def test_density_ratio_estimator_source_validation():
    with pytest.raises(ValueError):
        DensityRatioEstimator()
    with pytest.raises(ValueError):
        DensityRatioEstimator(constant=1.0, table={})


def test_density_ratio_table_unseen_cell_neutral():
    beta = DensityRatioEstimator(table={(1.0, 1.0): 2.0}, frozen=True)
    vals = beta.values(np.array([[1.0], [0.0]]), np.array([1.0, 0.0]))
    assert vals == pytest.approx([2.0, 1.0])


def test_density_ratio_net_odds_transform():
    net = _half_net(2)  # D(a,y) = 0.5 -> odds 1
    beta = DensityRatioEstimator(net=net, frozen=True)
    vals = beta.values(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    assert vals == pytest.approx([1.0, 1.0])


def test_empirical_pmf_ratio_hand_counts():
    # [DERIVED] joint counts: (a=0,y=0) x2, (a=0,y=1) x1, (a=1,y=1) x1
    a = np.array([[0.0], [0.0], [0.0], [1.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    schema = [
        ColumnSchema("x", "feature", "continuous"),
        ColumnSchema("a", "sensitive", "binary"),
        ColumnSchema("y", "outcome", "binary"),
    ]
    ds = TabularDataset(np.zeros((4, 1)), a, a.copy(), y, schema, ["x"])
    beta = empirical_pmf_ratio(ds)
    # p(0,0)=.5, p(a=0)=.75, p(y=0)=.5 -> 4/3
    assert beta.values(np.array([[0.0]]), np.array([0.0]))[0] == pytest.approx(4.0 / 3.0)
    # p(1,1)=.25, p(a=1)=.25, p(y=1)=.5 -> 2
    assert beta.values(np.array([[1.0]]), np.array([1.0]))[0] == pytest.approx(2.0)


def test_empirical_pmf_ratio_rejects_continuous():
    ds = binary_toy_dataset(20, seed=0)
    cont_schema = [
        ColumnSchema("x", "feature", "continuous"),
        ColumnSchema("a", "sensitive", "continuous"),
        ColumnSchema("y", "outcome", "binary"),
    ]
    cont = TabularDataset(
        np.zeros((4, 1)),
        np.arange(4.0).reshape(-1, 1),
        np.arange(4.0).reshape(-1, 1),
        np.array([0.0, 1.0, 0.0, 1.0]),
        cont_schema,
        ["x"],
    )
    with pytest.raises(ValueError):
        empirical_pmf_ratio(cont)
    assert empirical_pmf_ratio(ds).frozen


def test_pretrain_density_ratio_returns_frozen_and_deterministic():
    ds = table5_toy(500, seed=0)
    e1 = pretrain_density_ratio(ds, L=50, seed=3)
    e2 = pretrain_density_ratio(ds, L=50, seed=3)
    assert e1.frozen
    a = np.array([[0.0], [1.0]])
    y = np.array([1.0, 1.0])
    assert np.array_equal(e1.values(a, y), e2.values(a, y))


def test_pretrain_density_ratio_moves_toward_truth():
    ds = table5_toy(4000, seed=1)
    est = pretrain_density_ratio(ds, L=2000, seed=1)
    true = table5_true_ratios()
    errs = [
        abs(float(est.values(np.array([[a]]), np.array([float(yv)]))[0]) - r)
        for (a, yv), r in true.items()
    ]
    assert np.mean(errs) < 0.1


def test_optimal_gsp_discriminator_oracle_table():
    pmf = np.array([[0.4, 0.1], [0.1, 0.4]])
    table = optimal_gsp_discriminator_oracle(pmf)
    # [DERIVED] p(s)=p(a)=.5: .4/(.4+.25), .1/(.1+.25)
    assert table[0, 0] == pytest.approx(0.4 / 0.65)
    assert table[0, 1] == pytest.approx(0.1 / 0.35)
    assert table[1, 0] == pytest.approx(0.1 / 0.35)
    assert table[1, 1] == pytest.approx(0.4 / 0.65)


def test_optimal_gsp_discriminator_oracle_validation():
    with pytest.raises(ValueError):
        optimal_gsp_discriminator_oracle(np.array([[0.5, 0.6]]))
