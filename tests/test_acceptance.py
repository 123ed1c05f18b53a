"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL summary line (visible with ``pytest -s``
or in captured output on failure) and asserts the stated tolerance.
"""

import csv
import json

import numpy as np
import pytest

from conftest import (
    binary_toy_dataset, conditional_independent_toy, destandardized_features, map_in_workers, parameters,
    trained_gsp_discriminator,
)
from gradcheck import bce_loss, check_network_gradients, random_config
from fairpen.cli import main
from fairpen.data import ColumnSchema, TabularDataset, minibatch_construct, split_train_val
from fairpen.metrics import (
    auc,
    eo,
    ks_geo,
    ks_gsp,
    pareto_frontier,
    quantile_grid,
    sp,
)
from fairpen.nn import mlp
from fairpen.oracles import (
    brute_force_ks,
    exact_geo_discriminator_oracle,
    optimal_gsp_discriminator_oracle,
    synth_bias,
    table5_toy,
    table5_true_ratios,
)
from fairpen.penalties import contrast, empirical_pmf_ratio, pretrain_density_ratio
from fairpen.training import TrainConfig, rng_streams, train


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _criterion_01_errors(seed):
    """The absolute error of each cell's estimated ratio for one seed."""
    dataset = table5_toy(10_000, seed=seed)
    beta = pretrain_density_ratio(dataset, L=10_000, n_b=100, seed=seed)
    return [abs(float(beta(np.array([[float(a)]]), np.array([float(y)]))[0]) - ratio)
            for (a, y), ratio in table5_true_ratios().items()]


def test_criterion_01_density_ratio_toy_reproduction():
    errors = [err for seed_errors in map_in_workers(_criterion_01_errors, range(5)) for err in seed_errors]
    mean_err = float(np.mean(errors))
    _report("1 density-ratio toy", mean_err < 0.02, f"mean abs error {mean_err:.4f} over 5 seeds")


def test_criterion_02_gsp_discriminator_matches_oracle():
    pmf = np.array([[0.4, 0.1], [0.1, 0.4]])
    target = optimal_gsp_discriminator_oracle(pmf)
    D = trained_gsp_discriminator(pmf, 10_000)
    worst = max(
        abs(float(D.forward(np.array([[float(sv), float(av)]]))[0, 0]) - target[sv, av])
        for sv in (0, 1)
        for av in (0, 1)
    )
    _report("2 GSP oracle", worst < 0.05, f"max cell error {worst:.4f}")


def test_criterion_03_geo_discriminator_matches_oracle():
    # A independent of Y so the weighted resampled term has the same
    # optimum as the closed-form table at every cell
    rng = np.random.default_rng(0)
    n = 10_000
    a = rng.integers(0, 2, n).astype(np.float64)
    y = rng.integers(0, 2, n).astype(np.float64)
    s = (rng.random(n) < 0.2 + 0.3 * a + 0.4 * y).astype(np.float64)
    pmf = np.zeros((2, 2, 2))
    for sv, av, yv in zip(s, a, y):
        pmf[int(sv), int(av), int(yv)] += 1.0 / n
    schema = [
        ColumnSchema("x0", "feature", "continuous"),
        ColumnSchema("a", "sensitive", "binary"),
        ColumnSchema("y", "outcome", "binary"),
    ]
    dataset = TabularDataset(
        np.zeros((n, 1)), a.reshape(-1, 1), a.reshape(-1, 1), y, schema, ["x0"]
    )
    beta = empirical_pmf_ratio(dataset)
    beta_table = np.array(
        [
            [float(beta(np.array([[av]]), np.array([yv]))[0]) for yv in (0.0, 1.0)]
            for av in (0.0, 1.0)
        ]
    )
    target = exact_geo_discriminator_oracle(pmf, beta_table)
    D = mlp(1 + 1 + 1, [64, 64], rng=np.random.default_rng(1), batch_norm=True)
    loop_rng = np.random.default_rng(2)
    weights = beta(a.reshape(-1, 1), y)  # a table lookup: a batch's rows get the weights of a per-batch call
    for _ in range(10_000):
        idx = loop_rng.choice(n, 100, replace=False)
        a_b = a[idx].reshape(-1, 1)
        a_prime = a_b[loop_rng.permutation(100)]
        real = np.column_stack([s[idx], a_b, y[idx]])
        fake = np.column_stack([s[idx], a_prime, y[idx]])
        contrast(D, np.vstack([real, fake]), weights[idx])
        D.sgd_step(0.005, maximize=True)
    worst = max(
        abs(float(D.forward(np.array([[float(sv), float(av), float(yv)]]))[0, 0]) - target[sv, av, yv])
        for sv in (0, 1)
        for av in (0, 1)
        for yv in (0, 1)
    )
    _report("3 GEO oracle", worst < 0.05, f"max cell error {worst:.4f}")


def test_criterion_04_gradient_suite():
    worst = 0.0
    for seed in range(20):
        net, loss_fn, x, y = random_config(np.random.default_rng(1000 + seed))
        worst = max(worst, check_network_gradients(net, loss_fn, x, y))
    _report("4 gradient suite", worst < 1e-4, f"max relative error {worst:.2e} over 20 configs")


def test_criterion_05_lambda_zero_erm_equivalence():
    dataset = binary_toy_dataset(400, seed=0)
    train_set, val_set = split_train_val(dataset, seed=0)
    config = TrainConfig(lam=0.0, T=50, n_b=64, eval_interval=25, seed=0)

    streams = rng_streams(config.seed)
    h = mlp(train_set.p, [16, 16], rng=streams["init"], batch_norm=True)
    D = mlp(1 + train_set.l, [16, 16], rng=streams["init"], batch_norm=True)
    train(train_set, val_set, h, D, config)

    streams = rng_streams(config.seed)
    h_erm = mlp(train_set.p, [16, 16], rng=streams["init"], batch_norm=True)
    mlp(1 + train_set.l, [16, 16], rng=streams["init"], batch_norm=True)
    batch_rng, sampler_rng = streams["batch"], streams["sampler"]
    for _ in range(config.T):
        mb = minibatch_construct(train_set, config.n_b, config.sampler, batch_rng, sampler_rng)
        out = h_erm.forward(mb.x, train=True)
        _, grad = bce_loss(out[:, 0], mb.y)
        h_erm.backward(grad.reshape(-1, 1))
        h_erm.sgd_step(config.learning_rate)

    identical = all(
        np.array_equal(pa, pb) for pa, pb in zip(parameters(h), parameters(h_erm))
    )
    _report("5 lambda=0 equivalence", identical, "h trajectory bit-identical to plain ERM")


def _criterion_06_run(seed_lam):
    """(validation AUC, a's KS gap) of one training run at (seed, lambda)."""
    seed, lam = seed_lam
    dataset = synth_bias(n=10_000, rho=1.0, seed=seed)
    train_set, val_set = split_train_val(dataset, 0.75, seed=seed)
    streams = rng_streams(seed)
    h = mlp(train_set.p, [64, 64, 64], rng=streams["init"], batch_norm=True)
    D = mlp(1 + train_set.l, [64, 64], rng=streams["init"], batch_norm=True)
    config = TrainConfig(lam=lam, T=2000, seed=seed, eval_interval=2000)
    snapshots = train(train_set, val_set, h, D, config)
    report = [s for s in snapshots if s.split == "validation"][-1].report
    return report.utility_value, report.attributes["a"].ks_gsp


def test_criterion_06_fairness_utility_tradeoff():
    runs = iter(map_in_workers(_criterion_06_run, [(seed, lam) for seed in range(5) for lam in (0.1, 0.9)]))
    ks_wins = auc_wins = 0
    details = []
    for seed in range(5):
        auc_lo, ks_lo = next(runs)
        auc_hi, ks_hi = next(runs)
        ks_wins += ks_hi < ks_lo
        auc_wins += auc_hi <= auc_lo
        details.append(f"seed {seed}: ks {ks_lo:.3f}->{ks_hi:.3f} auc {auc_lo:.3f}->{auc_hi:.3f}")
    ok = ks_wins >= 3 and auc_wins >= 3
    _report(
        "6 fairness-utility trade-off",
        ok,
        f"ks wins {ks_wins}/5, auc wins {auc_wins}/5; " + "; ".join(details),
    )


def test_criterion_07_metric_brute_force_equivalence():
    rng = np.random.default_rng(0)
    worst = 0.0
    checked = 0
    while checked < 1000:
        n = int(rng.integers(8, 51))
        s = np.round(rng.random(n), 1)
        a_disc = rng.integers(0, 2, n)
        a_cont = rng.random(n)
        y = rng.integers(0, 2, n)
        yhat = rng.integers(0, 2, n).astype(np.float64)
        if any(
            ((a_disc == av) & (y == yv)).sum() == 0 for av in (0, 1) for yv in (0, 1)
        ):
            continue
        checked += 1

        # auc vs exhaustive pairwise counting
        pos, neg = s[y == 1], s[y == 0]
        pairwise = sum(
            1.0 if sp > sn else (0.5 if sp == sn else 0.0) for sp in pos for sn in neg
        ) / (len(pos) * len(neg))
        worst = max(worst, abs(auc(s, y) - pairwise))

        # discrete KS metrics vs threshold enumeration
        expected_gsp = sum(brute_force_ks(s, a_disc == v) for v in (0, 1))
        worst = max(worst, abs(ks_gsp(s, a_disc, "discrete") - expected_gsp))
        expected_geo = sum(
            brute_force_ks(s[y == yv], a_disc[y == yv] == av)
            for yv in (0, 1)
            for av in (0, 1)
        )
        worst = max(worst, abs(ks_geo(s, a_disc, y, "discrete") - expected_geo))

        # continuous KS via the quantile grid
        grid = quantile_grid(a_cont)
        expected_cont = np.mean([brute_force_ks(s, a_cont <= q) for q in grid.values])
        worst = max(worst, abs(ks_gsp(s, a_cont, "continuous", grid) - expected_cont))

        # sp / eo, discrete and continuous, vs direct recomputation
        if yhat[a_disc == 0].mean() > 0:
            direct = abs(yhat[a_disc == 1].mean() / yhat[a_disc == 0].mean() - 1.0)
            worst = max(worst, abs(sp(yhat, a_disc) - direct))
        if all(yhat[(a_disc == 0) & (y == yv)].mean() > 0 for yv in (0, 1)):
            direct = sum(
                abs(
                    yhat[(a_disc == 1) & (y == yv)].mean()
                    / yhat[(a_disc == 0) & (y == yv)].mean()
                    - 1.0
                )
                for yv in (0, 1)
            )
            worst = max(worst, abs(eo(yhat, a_disc, y) - direct))
        if yhat.mean() > 0:
            direct = np.mean(
                [abs(yhat[a_cont <= q].mean() / yhat.mean() - 1.0) for q in grid.values]
            )
            worst = max(worst, abs(sp(yhat, a_cont, "continuous", grid) - direct))
        cells_ok = all(
            ((a_cont <= q) & (y == yv)).any() for yv in (0, 1) for q in grid.values
        )
        if cells_ok and all(yhat[y == yv].mean() > 0 for yv in (0, 1)):
            direct = (
                sum(
                    abs(
                        yhat[(a_cont <= q) & (y == yv)].mean() / yhat[y == yv].mean() - 1.0
                    )
                    for yv in (0, 1)
                    for q in grid.values
                )
                / len(grid.values)
            )
            worst = max(worst, abs(eo(yhat, a_cont, y, "continuous", grid) - direct))
    _report("7 metric oracles", worst < 1e-12, f"max deviation {worst:.2e} over 1000 instances")


def test_criterion_08_pareto_correctness():
    assert pareto_frontier([(0.5, 0.5), (0.4, 0.4), (0.6, 0.4)]) == [(0.6, 0.4)]
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(100):
        pts = [tuple(p) for p in np.round(rng.random((100, 2)), 2)]
        unique = sorted(set(pts))
        expected = [
            p
            for p in unique
            if not any(q[0] >= p[0] and q[1] <= p[1] and q != p for q in unique)
        ]
        ok = ok and pareto_frontier(pts) == expected
    _report("8 pareto correctness", ok, "matches O(n^2) dominance on 100 random clouds")


def test_criterion_09_beta_robustness_ablation():
    def run(beta):
        dataset = conditional_independent_toy(10_000, seed=0)
        train_set, val_set = split_train_val(dataset, 0.75, seed=0)
        streams = rng_streams(0)
        h = mlp(train_set.p, [64, 64, 64], rng=streams["init"], batch_norm=True)
        D = mlp(1 + train_set.l + 1, [64, 64], rng=streams["init"], batch_norm=True)
        config = TrainConfig(lam=0.5, T=300, seed=0, eval_interval=300)
        snapshots = train(train_set, val_set, h, D, config, beta=beta)
        report = [s for s in snapshots if s.split == "validation"][-1].report
        return report.attributes["a"].ks_geo

    dataset = conditional_independent_toy(10_000, seed=0)
    train_set, _ = split_train_val(dataset, 0.75, seed=0)
    weighted = run(empirical_pmf_ratio(train_set))
    unweighted = run(lambda a, y: np.full(len(y), 1.0))
    gap = abs(weighted - unweighted)
    ok = gap < 0.05 and weighted < 0.05 and unweighted < 0.05
    _report(
        "9 beta-robustness ablation",
        ok,
        f"ks-geo weighted {weighted:.4f}, constant-1 {unweighted:.4f}, gap {gap:.4f}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    dataset = binary_toy_dataset(300, seed=0)
    raw = destandardized_features(dataset)
    data_path = tmp_path / "data.csv"
    with open(data_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["x1", "x2", "a", "y"])
        for i in range(dataset.n):
            writer.writerow(
                [repr(float(raw[i, 0])), repr(float(raw[i, 1])), int(dataset.A[i, 0]), int(dataset.Y[i])]
            )
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(
        json.dumps(
            [
                {"name": "x1", "role": "feature", "kind": "continuous"},
                {"name": "x2", "role": "feature", "kind": "continuous"},
                {"name": "a", "role": "sensitive", "kind": "binary"},
                {"name": "y", "role": "outcome", "kind": "binary"},
            ]
        )
    )
    cfg = tmp_path / "train.ini"
    cfg.write_text("[train]\nt = 60\neval_interval = 30\nn_b = 50\nl = 40\n")

    def train_once(force):
        args = [
            "train", "--config", str(cfg), "--data", str(data_path),
            "--schema", str(schema_path), "--out", str(tmp_path / "runs"),
            "--run-id", "det", "--seed", "0", "--lambda", "0.5",
            "--criterion", "geo",
        ]
        if force:
            args.append("--force")
        assert main(args) == 0
        lam_dir = tmp_path / "runs" / "det" / "lambda=0.5"
        return {
            name: (lam_dir / name).read_bytes()
            for name in ("snapshots.csv", "h_final.ckpt", "beta_table.csv")
        }

    first = train_once(force=False)
    second = train_once(force=True)
    toy_args = ["ratio-toy", "--n", "500", "--iters", "100", "--batch", "50", "--seed", "2"]
    assert main(toy_args + ["--out", str(tmp_path / "t1.csv")]) == 0
    assert main(toy_args + ["--out", str(tmp_path / "t2.csv")]) == 0
    toy_same = (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()
    ok = first == second and toy_same
    _report("10 CLI determinism", ok, "rerun outputs byte-identical (train + ratio-toy)")
