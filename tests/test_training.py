import numpy as np
import pytest

from conftest import (
    binary_toy_dataset, conditional_independent_toy, huge_weights, parameters, regression_toy_dataset,
    trained_state,
)
from gradcheck import bce_loss, mae_loss
from reference_kernels import contrast_reference
from fairpen.data import ColumnSchema, TabularDataset, minibatch_construct, split_train_val
from fairpen.errors import ConfigError, DivergenceError
from fairpen.nn import Mlp, mlp
from fairpen.penalties import empirical_pmf_ratio, pretrain_density_ratio
from fairpen.training import (
    Snapshot,
    TrainConfig,
    evaluate_snapshot,
    rng_streams,
    snapshot_csv_rows,
    train,
)


def _setup(seed=0, n=300, lam=0.5, T=30, criterion="gsp", toy=binary_toy_dataset, **kw):
    ds = toy(n, seed=seed)
    train_set, val = split_train_val(ds, seed=seed)
    streams = rng_streams(seed)
    h = mlp(train_set.p, [8, 8], rng=streams["init"], batch_norm=True)
    config = TrainConfig(lam=lam, T=T, n_b=50, eval_interval=10, seed=seed, **kw)
    d_in = 1 + train_set.l if criterion == "gsp" else 1 + train_set.l + 1
    D = mlp(d_in, [8, 8], rng=streams["init"], batch_norm=True)
    return train_set, val, h, D, config


# --------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lam=1.5, T=10)
    with pytest.raises(ConfigError):
        TrainConfig(lam=0.5, T=0)
    with pytest.raises(ConfigError):
        TrainConfig(lam=0.5, T=10, learning_rate=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(lam=0.5, T=10, sampler="bootstrap")
    with pytest.raises(ConfigError):
        TrainConfig(lam=0.5, T=10, scaling="affine")
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        TrainConfig(lam=0.5, T=10, seed=-1)


def test_config_weights_conventions():
    assert TrainConfig(lam=0.3, T=1).weights() == (0.7, 0.3)
    assert TrainConfig(lam=0.3, T=1, scaling="plain").weights() == (1.0, 0.3)


# ------------------------------------------------------------- lambda extremes

@pytest.mark.parametrize(
    "toy, loss_fn",
    [(binary_toy_dataset, bce_loss), (regression_toy_dataset, mae_loss)],
    ids=["binary", "continuous"],
)
def test_lambda_zero_bit_identical_to_erm(toy, loss_fn):
    # the outcome column alone picks the utility: BCE for binary, MAE for continuous
    train_set, val, h, D, config = _setup(lam=0.0, T=25, toy=toy)
    train(train_set, val, h, D, config)

    # independent penalty-free loop consuming the same rng discipline
    streams = rng_streams(config.seed)
    h2 = mlp(train_set.p, [8, 8], rng=streams["init"], batch_norm=True)
    mlp(1 + train_set.l, [8, 8], rng=streams["init"], batch_norm=True)  # same init draws
    batch_rng, sampler_rng = streams["batch"], streams["sampler"]
    for _ in range(config.T):
        mb = minibatch_construct(train_set, config.n_b, config.sampler, batch_rng, sampler_rng)
        out = h2.forward(mb.x, train=True)
        _, grad = loss_fn(out[:, 0], mb.y)
        h2.backward(grad.reshape(-1, 1))
        h2.sgd_step(config.learning_rate)

    for p_trained, p_erm in zip(parameters(h), parameters(h2)):
        assert np.array_equal(p_trained, p_erm)


@pytest.mark.parametrize("criterion", ["gsp", "geo"])
def test_penalized_train_bit_identical_to_hand_loop(criterion):
    # lam = 0.5 and two D steps per iteration; geo weights the resampled term
    # by the empirical ratio, gsp by 1
    train_set, val, h, D, config = _setup(lam=0.5, T=25, criterion=criterion, T_prime=2)
    beta = empirical_pmf_ratio(train_set) if criterion == "geo" else None
    train(train_set, val, h, D, config, beta=beta)

    streams = rng_streams(config.seed)
    h2 = mlp(train_set.p, [8, 8], rng=streams["init"], batch_norm=True)
    D2 = mlp(1 + train_set.l + (criterion == "geo"), [8, 8], rng=streams["init"], batch_norm=True)
    batch_rng, sampler_rng = streams["batch"], streams["sampler"]
    lam_m, lam_f = config.weights()
    for _ in range(config.T):
        mb = minibatch_construct(train_set, config.n_b, config.sampler, batch_rng, sampler_rng)
        s = h2.forward(mb.x, train=True)
        _, grad = bce_loss(s[:, 0], mb.y)
        if beta is None:
            real, fake, w = np.column_stack([s, mb.a]), np.column_stack([s, mb.a_prime]), 1.0
        else:
            real, fake = np.column_stack([s, mb.a, mb.y]), np.column_stack([s, mb.a_prime, mb.y])
            w = beta(mb.a, mb.y)
        for _ in range(config.T_prime):
            contrast_reference(D2, real, fake, w)
            D2.sgd_step(config.learning_rate, maximize=True)
        _, pen_grad = contrast_reference(D2, real, fake, w, params=False)
        h2.backward(lam_m * grad.reshape(-1, 1) + lam_f * pen_grad[:, :1])
        h2.sgd_step(config.learning_rate)

    for net, hand in ((h, h2), (D, D2)):
        for trained, expected in zip(trained_state(net), trained_state(hand), strict=True):
            assert np.array_equal(trained, expected)


def test_lambda_one_ignores_utility():
    # at lam=1 the labels never touch h's update
    train_set, val, h, D, config = _setup(lam=1.0, T=15)
    train(train_set, val, h, D, config)

    flipped = train_set.take(np.arange(train_set.n))
    flipped.Y.setflags(write=True)
    flipped.Y[...] = 1.0 - train_set.Y
    flipped.Y.setflags(write=False)
    train2, val2, h2, D2, config2 = _setup(lam=1.0, T=15)
    train(flipped, val, h2, D2, config2)
    for pa, pb in zip(parameters(h), parameters(h2)):
        assert np.array_equal(pa, pb)


def test_geo_lambda_zero_matches_gsp_lambda_zero():
    train_set, val, h, D, config = _setup(lam=0.0, T=20, criterion="gsp")
    train(train_set, val, h, D, config)
    train2, val2, h2, _, config2 = _setup(lam=0.0, T=20, criterion="geo")
    D2 = mlp(1 + train2.l + 1, [8, 8], rng=np.random.default_rng(99), batch_norm=True)
    train(train2, val2, h2, D2, config2, beta=lambda a, y: np.full(len(y), 1.0))
    for pa, pb in zip(parameters(h), parameters(h2)):
        assert np.array_equal(pa, pb)


@pytest.mark.parametrize("criterion", ["gsp", "geo"])
@pytest.mark.parametrize("scaling", ["convex", "plain"])
def test_lambda_zero_trains_no_adversary(criterion, scaling):
    # at lam = 0 the penalty has zero weight: D keeps every stored value,
    # batch-norm running statistics included, and beta is never called
    train_set, val, h, D, config = _setup(lam=0.0, T=20, criterion=criterion, scaling=scaling)
    before = [layer.to_spec() for layer in D.layers]

    def beta(a, y):
        raise AssertionError("beta called at lambda = 0")

    train(train_set, val, h, D, config, beta=beta if criterion == "geo" else None)
    assert [layer.to_spec() for layer in D.layers] == before


# ------------------------------------------------------------------ mechanics

def test_alternation_order_and_t_prime(monkeypatch):
    train_set, val, h, D, config = _setup(T=6, T_prime=3)
    log = []
    sgd_step = Mlp.sgd_step

    def recording_step(net, *args, **kwargs):
        log.append("h" if net is h else "D" if net is D else "other")
        return sgd_step(net, *args, **kwargs)

    monkeypatch.setattr(Mlp, "sgd_step", recording_step)
    train(train_set, val, h, D, config)
    assert log == 6 * (3 * ["D"] + ["h"])


def test_snapshot_cadence_and_order():
    train_set, val, h, D, config = _setup(T=25)  # eval_interval=10
    snapshots = train(train_set, val, h, D, config)
    iters = [s.iteration for s in snapshots if s.split == "train"]
    assert iters == [10, 20, 25]
    assert [s.iteration for s in snapshots] == sorted(s.iteration for s in snapshots)
    assert {s.split for s in snapshots} == {"train", "validation"}


def test_seed_determinism():
    rows = []
    for _ in range(2):
        train_set, val, h, D, config = _setup(seed=7, T=20)
        rows.append(list(snapshot_csv_rows(train(train_set, val, h, D, config), ["a"])))
    assert rows[0] == rows[1]


def test_geo_runs_with_pretrained_beta():
    train_set, val, h, D, config = _setup(T=10, criterion="geo", L=30)
    beta = pretrain_density_ratio(train_set, L=config.L, n_b=config.n_b, seed=config.seed + 1)
    assert len(train(train_set, val, h, D, config, beta=beta)) == 2  # one iteration recorded, two splits


# ----------------------------------------------------------------- evaluation

def test_evaluate_constant_scorer_is_fair():
    ds = binary_toy_dataset(100, seed=2)
    h = mlp(ds.p, [4], rng=np.random.default_rng(0), batch_norm=False)
    for p in parameters(h):
        p[...] = 0.0  # sigmoid(0) = 0.5 everywhere
    report = evaluate_snapshot(h, ds)
    attr = report.attributes["a"]
    assert attr.sp == 0.0 or np.isnan(attr.sp)
    assert attr.ks_gsp == 0.0
    assert attr.ks_geo == 0.0


@pytest.mark.parametrize("outcome", ["binary", "continuous"])
def test_evaluate_leaves_inapplicable_rate_gaps_blank_and_degenerate_ones_nan(outcome):
    """The rate gaps of a three-level attribute, and EO of a binary one
    under a continuous outcome, are blank cells; an attribute whose rows
    hold only its first two categories takes the binary ratio; a binary
    attribute with no row at A = 1 is a degenerate group, NaN."""
    rng = np.random.default_rng(4)
    n = 120
    x = rng.standard_normal((n, 1))
    a_raw = np.column_stack([rng.integers(0, 3, n), rng.integers(0, 2, n), np.zeros(n)]).astype(np.float64)
    y = (rng.random(n) < 0.5).astype(np.float64) if outcome == "binary" else rng.random(n)
    regions = ("north", "south", "east")
    schema = [
        ColumnSchema("x", "feature", "continuous"),
        ColumnSchema("region", "sensitive", "categorical", regions),
        ColumnSchema("pair", "sensitive", "categorical", regions),
        ColumnSchema("none", "sensitive", "binary"),
        ColumnSchema("y", "outcome", outcome),
    ]
    ds = TabularDataset(x, a_raw, a_raw, y, schema, ["x"])
    h = mlp(1, [4], rng=rng, batch_norm=False)
    report = evaluate_snapshot(h, ds)
    region, pair, none = (report.attributes[name] for name in ("region", "pair", "none"))
    assert region.sp is None and region.eo is None
    assert none.eo is None if outcome == "continuous" else np.isnan(none.eo)
    assert np.isnan(none.sp)
    scores = h.forward(ds.X)[:, 0]
    values = scores if outcome == "continuous" else (scores > report.threshold).astype(np.float64)
    a = a_raw[:, 1]
    assert pair.sp == pytest.approx(abs(values[a == 1].mean() / values[a == 0].mean() - 1.0), abs=1e-12)
    if outcome == "binary":
        assert pair.eo == pytest.approx(sum(
            abs(values[(a == 1) & (y == c)].mean() / values[(a == 0) & (y == c)].mean() - 1.0) for c in (0, 1)
        ), abs=1e-12)
    else:
        assert pair.eo is None
    for attr in (region, pair, none):
        assert np.isfinite(attr.ks_gsp) and np.isfinite(attr.ks_geo)


def test_evaluate_snapshot_deterministic():
    ds = binary_toy_dataset(100, seed=3)
    h = mlp(ds.p, [4], rng=np.random.default_rng(1), batch_norm=False)
    r1 = evaluate_snapshot(h, ds)
    r2 = evaluate_snapshot(h, ds)
    assert r1.utility_value == r2.utility_value
    assert r1.attributes["a"].ks_gsp == r2.attributes["a"].ks_gsp


def test_evaluate_single_class_yields_nan_utility():
    ds = conditional_independent_toy(50, seed=0)
    ds.Y.setflags(write=True)
    ds.Y[...] = 1.0
    ds.Y.setflags(write=False)
    h = mlp(ds.p, [4], rng=np.random.default_rng(0), batch_norm=False)
    report = evaluate_snapshot(h, ds)
    assert np.isnan(report.utility_value)


def test_snapshot_csv_rows_blank_for_missing():
    from fairpen.metrics import AttributeReport, FairnessReport

    report = FairnessReport("auc", 0.9, 0.5)
    report.attributes["a"] = AttributeReport("a", sp=0.1, ks_gsp=None, eo=None, ks_geo=0.2)
    rows = list(snapshot_csv_rows([Snapshot(5, "train", report)], ["a"]))
    assert rows[0] == [
        "iteration", "split", "utility_name", "utility_value",
        "a_sp", "a_ks_gsp", "a_eo", "a_ks_geo",
    ]
    assert rows[1] == ["5", "train", "auc", repr(0.9), repr(0.1), "", "", repr(0.2)]


def test_divergence_names_iteration_and_lambda():
    train_set, val, h, D, config = _setup(lam=0.5, learning_rate=1e300)
    expected = r"^lambda=0\.5, iteration 1, [hD] layer \d+: non-finite parameter after SGD step$"
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match=expected):
        train(train_set, val, h, D, config)


@pytest.mark.parametrize(
    "lam, name",
    [(0.5, "D"), (0.0, "h")],
    ids=["D_at_lambda_half", "h_at_lambda_zero"],
)
def test_divergence_names_the_net_that_diverged(lam, name):
    # only that net's weights are huge; its first SGD step leaves a non-finite parameter
    train_set, val, h, D, config = _setup(lam=lam)
    huge_weights(D if name == "D" else h)
    expected = rf"^lambda={lam:g}, iteration 1, {name} layer \d+: non-finite parameter after SGD step$"
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match=expected):
        train(train_set, val, h, D, config)


def test_evaluate_refuses_non_finite_scores():
    """Finite weights whose inference pass overflows: the snapshot names how
    many rows scored non-finite, and no numpy warning escapes."""
    ds = binary_toy_dataset(100, seed=2)
    h = mlp(ds.p, [4, 4], rng=np.random.default_rng(0), batch_norm=False)
    h.layers[0].weights[...] = h.layers[2].weights[...] = 1e300
    with pytest.raises(DivergenceError, match=r"^[1-9]\d* of 100 rows scored non-finite$"):
        evaluate_snapshot(h, ds)


def test_non_finite_snapshot_names_iteration_lambda_and_split(monkeypatch):
    def diverging(h, dataset):
        raise DivergenceError(f"1 of {dataset.n} rows scored non-finite")

    train_set, val, h, D, config = _setup(lam=0.5, T=10)
    monkeypatch.setattr("fairpen.training.evaluate_snapshot", diverging)
    expected = rf"^lambda=0.5, iteration 10, h on the train split: 1 of {train_set.n} rows scored non-finite$"
    with pytest.raises(DivergenceError, match=expected):
        train(train_set, val, h, D, config)
