import numpy as np
import pytest

from conftest import (
    binary_toy_dataset, gradients, huge_weights, parameters, set_checkpoint_layer_value, trained_state,
    zero_gradients,
)
from gradcheck import relative_error
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_kernels import contrast_reference, pmf_ratio_table
from fairpen.data import ColumnSchema, TabularDataset, minibatch_construct, rng_streams
from fairpen.errors import DimensionError, DivergenceError
from fairpen.oracles import optimal_gsp_discriminator_oracle, table5_toy, table5_true_ratios
from fairpen.penalties import contrast, contrast_value, empirical_pmf_ratio, pretrain_density_ratio
from fairpen.nn import Mlp, clamp_prob, mlp


def _half_net(in_dim):
    """A net whose output is exactly 0.5 everywhere (zero weights, sigmoid)."""
    net = mlp(in_dim, [4], rng=np.random.default_rng(0), batch_norm=False)
    for p in parameters(net):
        p[...] = 0.0
    return net


def _stacked(*columns_of_halves):
    """The contrast block of real columns and resampled columns: each
    argument is one (real, fake) pair of columns, or one column for both."""
    pairs = [c if isinstance(c, tuple) else (c, c) for c in columns_of_halves]
    return np.vstack([np.column_stack([pair[half] for pair in pairs]) for half in (0, 1)])


def test_gsp_penalty_value_at_half():
    # [DERIVED] log(.5) + log(.5) = -2 log 2
    D = _half_net(2)
    s = np.array([0.3, 0.7, 0.5])
    a = np.array([[0.0], [1.0], [1.0]])
    block = _stacked(s, (a, a[::-1]))
    p, grad_in = contrast(D, block, params=False)
    assert (p == 0.5).all() and p.shape == (6, 1)
    assert contrast_value(p) == pytest.approx(-2.0 * np.log(2.0), abs=1e-12)
    assert grad_in[:, :1].shape == (3, 1)
    p_params, none = contrast(D, block)
    assert none is None and p_params.tobytes() == p.tobytes()  # a parameter pass returns no input gradient


def test_gsp_penalty_length_mismatch():
    # a block of real rows and fewer resampled rows has an odd row count
    D = _half_net(2)
    with pytest.raises(DimensionError, match="not 3 rows"):
        contrast(D, np.array([[0.5, 0.0], [0.5, 1.0], [0.5, 0.0]]))


@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 40), weighted=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_contrast_value_equals_original_formula(n, weighted, seed):
    """The value from D's outputs has the bits of the original formula,
    mean[log p_real + w log(1 - p_fake)], for a scalar or a per-row w."""
    rng = np.random.default_rng(seed)
    p = clamp_prob(rng.random((2 * n, 1)))
    w = rng.random(n) * 3.0 if weighted else float(rng.random())
    w_col = np.asarray(w, dtype=np.float64).reshape(-1, 1)
    expected = float(np.mean(np.log(p[:n]) + w_col * np.log(1.0 - p[n:])))
    assert contrast_value(p, w) == expected


@pytest.mark.parametrize("params", [True, False])
@pytest.mark.parametrize("weighted", [False, True])
def test_contrast_equals_original_form(params, weighted):
    """The one-block contrast, with its flat running update, has the bits of
    the original form (separate blocks, np.vstack, the per-layer running
    update) in its outputs' value, its gradients and every trained array,
    over a few ascent steps."""
    rng = np.random.default_rng(14)
    net, ref = (mlp(3, [8, 8], rng=np.random.default_rng(15)) for _ in range(2))
    for _ in range(4):
        s, a, y = rng.random((12, 1)), rng.integers(0, 2, (12, 1)).astype(float), rng.random(12)
        a_prime, w = a[rng.permutation(12)], (rng.random(12) + 0.5 if weighted else 1.0)
        real, fake = np.column_stack([s, a, y]), np.column_stack([s, a_prime, y])
        p, grad = contrast(net, _stacked(s, (a, a_prime), y), w, params)
        value, grad_ref = contrast_reference(ref, real, fake, w, params)
        assert contrast_value(p, w) == value
        assert (grad is None) == params and (params or grad.tobytes() == grad_ref.tobytes())
        net.sgd_step(0.1, maximize=True)
        ref.sgd_step(0.1, maximize=True)
        assert [a.tobytes() for a in trained_state(net)] == [a.tobytes() for a in trained_state(ref)]


def _worst_fd_error(net, penalty, s):
    """Worst relative error of contrast's parameter and score gradients
    against central differences; ``penalty(s, params)`` calls contrast on
    ``net`` and returns (value, gradient). The parameter gradients come from a parameter pass, the score
    gradient from a pass without parameters."""
    penalty(s, True)
    analytic = [g.copy() for g in gradients(net)]
    zero_gradients(net)
    _, grad_in = penalty(s, False)

    def value(s_):
        v, _ = penalty(s_, False)
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


def test_checkpoint_momenta_train_like_the_per_layer_formula(tmp_path):
    """A checkpoint whose batch-norm layers each have their own momentum
    (0.9, and the integers 0 and 1) trains bit for bit like the original
    per-layer running update."""
    path = tmp_path / "d.ckpt"
    mlp(2, [8, 8, 8], rng=np.random.default_rng(16)).save(path)
    for index, momentum in ((1, 0.9), (4, 0), (7, 1)):
        set_checkpoint_layer_value(path, index, "momentum", momentum)
    net, ref = Mlp.load(path), Mlp.load(path)
    assert [layer.momentum for layer in net.layers if hasattr(layer, "momentum")] == [0.9, 0, 1]
    rng = np.random.default_rng(17)
    for _ in range(4):
        s, a = rng.random((10, 1)), rng.integers(0, 2, (10, 1)).astype(float)
        a_prime = a[rng.permutation(10)]
        contrast(net, _stacked(s, (a, a_prime)))
        contrast_reference(ref, np.column_stack([s, a]), np.column_stack([s, a_prime]))
        net.sgd_step(0.1, maximize=True)
        ref.sgd_step(0.1, maximize=True)
    assert [a.tobytes() for a in trained_state(net)] == [a.tobytes() for a in trained_state(ref)]
    assert (net.layers[1].running_mean != 0.0).any() and (net.layers[4].running_mean == net.layers[4].batch_mean).all()


@pytest.mark.parametrize("batch_norm", [False, True])
def test_gsp_penalty_gradients_match_finite_differences(batch_norm):
    rng = np.random.default_rng(11)
    net = mlp(2, [6, 6], rng=rng, batch_norm=batch_norm)
    n = 12
    s = rng.random(n)
    a = rng.integers(0, 2, n).astype(float).reshape(-1, 1)
    a_prime = a[rng.permutation(n)]

    def penalty(s_, params):
        p, grad = contrast(net, _stacked(s_, (a, a_prime)), params=params)
        return contrast_value(p), grad

    assert _worst_fd_error(net, penalty, s) < 1e-4


def test_geo_penalty_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    net = mlp(3, [6, 6], rng=rng, batch_norm=True)
    table = {(0.0, 0.0): 1.3, (0.0, 1.0): 0.8, (1.0, 0.0): 0.7, (1.0, 1.0): 1.2}
    n = 10
    s = rng.random(n)
    a = rng.integers(0, 2, n).astype(float).reshape(-1, 1)
    y = rng.integers(0, 2, n).astype(float)
    a_prime = a[rng.permutation(n)]
    for w in (np.array([table[(av, yv)] for av, yv in zip(a[:, 0], y)]), np.full(n, 0.7)):

        def penalty(s_, params):
            p, grad = contrast(net, _stacked(s_, (a, a_prime), y), w, params)
            return contrast_value(p, w), grad

        assert _worst_fd_error(net, penalty, s) < 1e-4


def test_geo_penalty_constant_beta_matches_weighted_value():
    rng = np.random.default_rng(13)
    net = mlp(3, [6], rng=rng, batch_norm=False)
    n = 8
    s = rng.random(n)
    a = rng.integers(0, 2, n).astype(float).reshape(-1, 1)
    y = rng.integers(0, 2, n).astype(float)
    a_prime = a[rng.permutation(n)]
    # every (a, y) cell once: A and Y are independent, so every ratio is 1
    table = empirical_pmf_ratio(_discrete_dataset([0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]))
    block = _stacked(s, (a, a_prime), y)
    p, _ = contrast(net, block, np.full(len(y), 1.0))  # the constant ratio 1
    zero_gradients(net)
    w = table(a, y)
    p2, _ = contrast(net, block, w)
    zero_gradients(net)
    assert contrast_value(p, np.full(len(y), 1.0)) == pytest.approx(contrast_value(p2, w), abs=1e-15)


def _discrete_dataset(a, y):
    """A dataset with one binary attribute ``a`` and a binary outcome ``y``."""
    a = np.array(a, dtype=np.float64).reshape(-1, 1)
    schema = [
        ColumnSchema("x", "feature", "continuous"),
        ColumnSchema("a", "sensitive", "binary"),
        ColumnSchema("y", "outcome", "binary"),
    ]
    return TabularDataset(np.zeros((len(a), 1)), a, a.copy(), np.array(y, dtype=np.float64), schema, ["x"])


def test_density_ratio_table_unseen_cell_neutral():
    # the cell (a=1, y=0) never occurs: p(1,1)=.5, p(a=1)=.5, p(y=1)=.75 -> 4/3
    beta = empirical_pmf_ratio(_discrete_dataset([0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0]))
    vals = beta(np.array([[1.0], [1.0]]), np.array([1.0, 0.0]))
    assert vals == pytest.approx([4.0 / 3.0, 1.0])


def test_empirical_pmf_ratio_hand_counts():
    # [DERIVED] joint counts: (a=0,y=0) x2, (a=0,y=1) x1, (a=1,y=1) x1
    beta = empirical_pmf_ratio(_discrete_dataset([0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]))
    # p(0,0)=.5, p(a=0)=.75, p(y=0)=.5 -> 4/3
    assert beta(np.array([[0.0]]), np.array([0.0]))[0] == pytest.approx(4.0 / 3.0)
    # p(1,1)=.25, p(a=1)=.25, p(y=1)=.5 -> 2
    assert beta(np.array([[1.0]]), np.array([1.0]))[0] == pytest.approx(2.0)


@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_empirical_pmf_ratio_equals_dict_reference(n, seed):
    # A joins a binary and a 3-category one-hot attribute; every one of the
    # 12 (a, y) cells is queried, so small n leaves some of them unseen
    rng = np.random.default_rng(seed)
    sex, region = rng.integers(0, 2, n), rng.integers(0, 3, n)
    A = np.column_stack([sex, np.eye(3)[region]])
    y = rng.integers(0, 2, n).astype(np.float64)
    schema = [
        ColumnSchema("x", "feature", "continuous"),
        ColumnSchema("sex", "sensitive", "binary"),
        ColumnSchema("region", "sensitive", "categorical", ("n", "s", "e")),
        ColumnSchema("y", "outcome", "binary"),
    ]
    A_raw = np.column_stack([sex, region]).astype(np.float64)
    ds = TabularDataset(np.zeros((n, 1)), A, A_raw, y, schema, ["x"])
    cells = [(b, *np.eye(3)[k], yv) for b in (0.0, 1.0) for k in range(3) for yv in (0.0, 1.0)]
    query = np.array(cells)
    got = empirical_pmf_ratio(ds)(query[:, :-1], query[:, -1])
    table = pmf_ratio_table(A, y)
    expected = [table.get(cell, 1.0) for cell in cells]
    # the reference sums 1/n once per row: its rounding error grows with n
    np.testing.assert_allclose(got, expected, rtol=4 * n * np.finfo(np.float64).eps, atol=0.0)


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
    empirical_pmf_ratio(ds)  # the binary attribute and outcome are accepted


def test_pretrain_density_ratio_is_deterministic():
    ds = table5_toy(500, seed=0)
    e1 = pretrain_density_ratio(ds, L=50, seed=3)
    e2 = pretrain_density_ratio(ds, L=50, seed=3)
    a = np.array([[0.0], [1.0]])
    y = np.array([1.0, 1.0])
    assert np.array_equal(e1(a, y), e2(a, y))


def _recording_mlp(monkeypatch, change=lambda net: None):
    """Record each net that ``pretrain_density_ratio`` builds, after
    ``change`` has been applied to it; returns the list of nets."""
    built = []

    def recording(*args, **kwargs):
        built.append(mlp(*args, **kwargs))
        change(built[-1])
        return built[-1]

    monkeypatch.setattr("fairpen.penalties.mlp", recording)
    return built


def test_pretrain_density_ratio_bit_identical_to_hand_loop(monkeypatch):
    ds = table5_toy(500, seed=0)
    L, n_b, learning_rate, seed = 40, 50, 0.05, 3
    built = _recording_mlp(monkeypatch)
    beta = pretrain_density_ratio(ds, L=L, n_b=n_b, learning_rate=learning_rate, seed=seed)

    streams = rng_streams(seed)
    net = mlp(ds.l + 1, [64, 64], rng=streams["init"], batch_norm=False)
    for _ in range(L):
        mb = minibatch_construct(ds, n_b, "within_batch", streams["batch"], streams["sampler"])
        contrast_reference(net, np.column_stack([mb.a, mb.y]), np.column_stack([mb.a_prime, mb.y]))
        net.sgd_step(learning_rate, maximize=True)

    (trained,) = built
    for p_trained, p_hand in zip(trained_state(trained), trained_state(net), strict=True):
        assert np.array_equal(p_trained, p_hand)
    a, y = ds.A, ds.Y
    d = clamp_prob(net.forward(np.column_stack([a, y]))[:, 0])
    assert np.array_equal(beta(a, y), d / (1.0 - d))


def test_pretrain_divergence_names_its_iteration(monkeypatch):
    _recording_mlp(monkeypatch, huge_weights)
    expected = r"^density-ratio pre-training, iteration 1, layer \d+: non-finite parameter after SGD step$"
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match=expected):
        pretrain_density_ratio(table5_toy(200, seed=0), L=5, n_b=50)


def test_pretrain_density_ratio_moves_toward_truth():
    ds = table5_toy(4000, seed=1)
    est = pretrain_density_ratio(ds, L=2000, seed=1)
    true = table5_true_ratios()
    errs = [
        abs(float(est(np.array([[a]]), np.array([float(yv)]))[0]) - r)
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
