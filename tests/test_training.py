import numpy as np
import pytest

from conftest import binary_toy_dataset, conditional_independent_toy, parameters, regression_toy_dataset
from fairpen.data import minibatch_construct, split_train_val
from fairpen.errors import ConfigError, DivergenceError
from fairpen.nn import Mlp, bce_loss, mae_loss, mlp
from fairpen.penalties import pretrain_density_ratio
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
    expected = r"lambda=0.5, iteration 1, [hD] layer \d+: non-finite"
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match=expected):
        train(train_set, val, h, D, config)
