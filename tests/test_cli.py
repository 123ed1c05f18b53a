import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairpen
from conftest import (
    binary_toy_dataset, destandardized_features, regression_toy_dataset, rewrite_checkpoint_layer,
    set_checkpoint_layer_value,
)
from fairpen import cli, penalties, training
from fairpen.cli import default_networks, load_schema, main
from fairpen.nn import ActivationLayer, BatchNormLayer, DenseLayer, mlp


def _write_dataset(tmp_path, n=200, seed=0):
    ds = binary_toy_dataset(n, seed=seed)
    raw = destandardized_features(ds)
    csv_path = tmp_path / "data.csv"
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["x1", "x2", "a", "y"])
        for i in range(n):
            writer.writerow(
                [repr(float(raw[i, 0])), repr(float(raw[i, 1])), int(ds.A[i, 0]), int(ds.Y[i])]
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
    cfg_path = tmp_path / "train.ini"
    cfg_path.write_text("[train]\nt = 40\neval_interval = 20\nn_b = 50\nl = 30\n")
    return csv_path, schema_path


def _train_args(tmp_path, csv_path, schema_path, *extra):
    return [
        "train",
        "--config", str(tmp_path / "train.ini"),
        "--data", str(csv_path),
        "--schema", str(schema_path),
        "--out", str(tmp_path / "runs"),
        "--run-id", "r1",
        "--seed", "0",
        "--lambda", "0.5",
        *extra,
    ]


def test_load_schema(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(
        json.dumps(
            [
                {"name": "job", "role": "feature", "kind": "categorical",
                 "categories": ["x", "y", "z"]},
                {"name": "a", "role": "sensitive", "kind": "binary"},
                {"name": "y", "role": "outcome", "kind": "binary"},
            ]
        )
    )
    schema = load_schema(path)
    assert schema[0].categories == ("x", "y", "z")
    assert schema[1].role == "sensitive"


def test_train_creates_run_layout(tmp_path, capsys):
    csv_path, schema_path = _write_dataset(tmp_path)
    rc = main(_train_args(tmp_path, csv_path, schema_path))
    assert rc == 0
    lam_dir = tmp_path / "runs" / "r1" / "lambda=0.5"
    assert (lam_dir / "snapshots.csv").exists()
    assert (lam_dir / "h_final.ckpt").exists()
    assert (lam_dir / "d_final.ckpt").exists()
    with open(lam_dir / "snapshots.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0][:4] == ["iteration", "split", "utility_name", "utility_value"]
    assert "a_ks_gsp" in rows[0]


def test_train_refuses_existing_run_dir(tmp_path, capsys):
    csv_path, schema_path = _write_dataset(tmp_path)
    assert main(_train_args(tmp_path, csv_path, schema_path)) == 0
    assert main(_train_args(tmp_path, csv_path, schema_path)) == 1
    assert "use --force" in capsys.readouterr().err
    assert main(_train_args(tmp_path, csv_path, schema_path, "--force")) == 0


def test_train_geo_writes_beta_table(tmp_path):
    csv_path, schema_path = _write_dataset(tmp_path)
    rc = main(_train_args(tmp_path, csv_path, schema_path, "--criterion", "geo"))
    assert rc == 0
    beta_path = tmp_path / "runs" / "r1" / "lambda=0.5" / "beta_table.csv"
    with open(beta_path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["a0", "y", "ratio"]
    assert len(rows) == 5  # header + 4 cells
    assert all(float(r[2]) > 0 for r in rows[1:])
    # every cell is a plain float literal, not a numpy scalar repr such as np.float64(0.0)
    assert all(repr(float(v)) == v for r in rows[1:] for v in r)


def test_train_writes_no_discriminator_at_lambda_zero(tmp_path):
    # at lambda = 0 no adversary is trained, so there is no d_final.ckpt to write
    csv_path, schema_path = _write_dataset(tmp_path)
    args = _train_args(tmp_path, csv_path, schema_path, "--criterion", "geo")
    i = args.index("--lambda")
    args[i:i + 2] = ["--lambda", "0", "--lambda", "0.5"]
    assert main(args) == 0
    run = tmp_path / "runs" / "r1"
    assert sorted(p.name for p in (run / "lambda=0").iterdir()) == ["beta_table.csv", "h_final.ckpt", "snapshots.csv"]
    assert sorted(p.name for p in (run / "lambda=0.5").iterdir()) == [
        "beta_table.csv", "d_final.ckpt", "h_final.ckpt", "snapshots.csv"]


def test_train_geo_pretrains_once_per_grid(tmp_path, monkeypatch):
    csv_path, schema_path = _write_dataset(tmp_path)
    calls = []
    pretrain = penalties.pretrain_density_ratio

    def counting_pretrain(*args, **kwargs):
        calls.append(kwargs.get("seed"))
        return pretrain(*args, **kwargs)

    monkeypatch.setattr(penalties, "pretrain_density_ratio", counting_pretrain)
    args = _train_args(tmp_path, csv_path, schema_path, "--criterion", "geo", "--lambda", "0.9")
    assert main(args) == 0
    assert calls == [1]  # seed + 1, as for a single lambda
    run = tmp_path / "runs" / "r1"
    tables = [(run / d / "beta_table.csv").read_bytes() for d in ("lambda=0.5", "lambda=0.9")]
    assert tables[0] == tables[1]


def test_train_releases_the_loaded_dataset_before_training(tmp_path, monkeypatch):
    csv_path, schema_path = _write_dataset(tmp_path)
    loaded, seen = [], []
    load, fit = cli.load_csv, training.train

    def recording_load(*args):
        dataset = load(*args)
        loaded.append(weakref.ref(dataset))
        return dataset

    def checking_train(*args, **kwargs):
        seen.append(loaded[0]() is None)
        return fit(*args, **kwargs)

    monkeypatch.setattr(cli, "load_csv", recording_load)
    monkeypatch.setattr(training, "train", checking_train)
    assert main(_train_args(tmp_path, csv_path, schema_path, "--lambda", "0")) == 0
    assert seen == [True, True]


def test_beta_table_and_ratio_toy_call_beta_once(tmp_path, monkeypatch):
    """Each table holds the values of one batched β call over all its
    cells, bit for bit."""
    calls, betas = [], []  # the row count of each β call; each pre-trained β
    pretrain = penalties.pretrain_density_ratio

    def recording_pretrain(*args, **kwargs):
        betas.append(pretrain(*args, **kwargs))

        def beta(a, y):
            calls.append(len(y))
            return betas[-1](a, y)
        return beta

    monkeypatch.setattr(penalties, "pretrain_density_ratio", recording_pretrain)
    csv_path, schema_path = _write_dataset(tmp_path)
    assert main(_train_args(tmp_path, csv_path, schema_path, "--criterion", "geo")) == 0
    with open(tmp_path / "runs" / "r1" / "lambda=0.5" / "beta_table.csv") as f:
        cells = np.array([[float(v) for v in row] for row in list(csv.reader(f))[1:]])
    assert calls[0] == len(cells) == 4  # the table's call comes before training calls β
    assert [repr(v) for v in betas[0](cells[:, :1], cells[:, 1]).tolist()] == [repr(v) for v in cells[:, 2].tolist()]

    calls.clear()
    out = tmp_path / "toy.csv"
    assert main(["ratio-toy", "--n", "500", "--iters", "50", "--batch", "50", "--seed", "2", "--out", str(out)]) == 0
    with open(out) as f:
        estimates = [row[2] for row in list(csv.reader(f))[1:]]
    assert calls == [4]
    batched = betas[1](np.array([[1], [0], [1], [0]]), np.array([1, 1, 0, 0])).tolist()
    assert estimates == [repr(v) for v in batched]


def test_default_networks_discriminator_width():
    rng = np.random.default_rng(14)
    rows = np.array([[0.2, 0.0, 1.0], [0.8, 1.0, 0.0]])
    # the outcome kind picks the width and the scorer's output
    for toy, width, out_act in ((binary_toy_dataset, 64, "sigmoid"), (regression_toy_dataset, 16, "identity")):
        dataset = toy(20)
        for criterion, d_in in (("gsp", 1 + 1), ("geo", 2 + 1)):
            h, D = default_networks(dataset, criterion, rng)
            assert h.in_dim == 2 and D.in_dim == d_in
            assert h.layers[0].weights.shape == (2, width) and h.layers[-1].fn == out_act
            assert D.layers[0].weights.shape == (d_in, width)
            p = D.forward(rows[:, :d_in])[:, 0]
            assert p.shape == (2,) and ((0 < p) & (p < 1)).all()


def test_train_rerun_byte_identical(tmp_path):
    csv_path, schema_path = _write_dataset(tmp_path)
    assert main(_train_args(tmp_path, csv_path, schema_path)) == 0
    first = (tmp_path / "runs" / "r1" / "lambda=0.5" / "snapshots.csv").read_bytes()
    assert main(_train_args(tmp_path, csv_path, schema_path, "--force")) == 0
    second = (tmp_path / "runs" / "r1" / "lambda=0.5" / "snapshots.csv").read_bytes()
    assert first == second


def test_regression_session_scores_mae(tmp_path):
    """A continuous outcome trains and scores as a regression through the
    CLI alone: both criteria over lambda in {0, 0.9}, then evaluate."""
    rng = np.random.default_rng(5)
    n = 1500
    a = rng.random(n)
    x1 = a + rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    y = x1 + 0.5 * x2 + 0.3 * rng.standard_normal(n)
    csv_path = tmp_path / "reg.csv"
    csv_path.write_text("x1,x2,a,y\n" + "".join(f"{r[0]!r},{r[1]!r},{r[2]!r},{r[3]!r}\n"
                                                 for r in np.column_stack([x1, x2, a, y]).tolist()))
    schema_path = tmp_path / "reg.json"
    schema_path.write_text(json.dumps(
        [{"name": "x1", "role": "feature", "kind": "continuous"},
         {"name": "x2", "role": "feature", "kind": "continuous"},
         {"name": "a", "role": "sensitive", "kind": "continuous"},
         {"name": "y", "role": "outcome", "kind": "continuous"}]))
    (tmp_path / "train.ini").write_text("[train]\nt = 200\neval_interval = 100\nl = 200\n")
    outputs = []
    for criterion in ("gsp", "geo"):
        args = _train_args(tmp_path, csv_path, schema_path, "--criterion", criterion, "--lambda", "0")
        args[args.index("--run-id") + 1] = criterion
        args[args.index("--lambda") + 1] = "0.9"
        assert main(args) == 0
        run = tmp_path / "runs" / criterion
        outputs += [run / "lambda=0" / "snapshots.csv", run / "lambda=0.9" / "snapshots.csv"]
        outputs.append(tmp_path / f"eval_{criterion}.csv")
        assert main(["evaluate", "--checkpoint", str(run / "lambda=0.9" / "h_final.ckpt"), "--data", str(csv_path),
                     "--schema", str(schema_path), "--out", str(outputs[-1])]) == 0
    for path in outputs:
        with open(path) as f:
            records = list(csv.DictReader(f))
        assert records and all(r["utility_name"] == "mae" for r in records)
        for r in records:
            cells = [r[k] for k in ("utility_value", "a_sp", "a_ks_gsp", "a_eo", "a_ks_geo")]
            assert all(np.isfinite(float(c)) for c in cells), (path, r)


def test_evaluate_roundtrip_and_width_mismatch(tmp_path, capsys):
    csv_path, schema_path = _write_dataset(tmp_path)
    assert main(_train_args(tmp_path, csv_path, schema_path)) == 0
    ckpt = tmp_path / "runs" / "r1" / "lambda=0.5" / "h_final.ckpt"
    out = tmp_path / "eval.csv"
    rc = main(
        ["evaluate", "--checkpoint", str(ckpt), "--data", str(csv_path),
         "--schema", str(schema_path), "--out", str(out)]
    )
    assert rc == 0
    with open(out) as f:
        rows = list(csv.reader(f))
    assert len(rows) == 2 and rows[1][1] == "evaluate"

    wrong = mlp(5, [4], rng=np.random.default_rng(0))
    wrong_path = tmp_path / "wrong.ckpt"
    wrong.save(wrong_path)
    rc = main(
        ["evaluate", "--checkpoint", str(wrong_path), "--data", str(csv_path),
         "--schema", str(schema_path), "--out", str(out)]
    )
    assert rc == 1
    assert "features" in capsys.readouterr().err


def test_evaluate_corrupt_checkpoint(tmp_path, capsys):
    csv_path, schema_path = _write_dataset(tmp_path)
    bad = tmp_path / "bad.ckpt"
    out = tmp_path / "eval.csv"
    for body, expected in (
        ("WRONG-MAGIC\n{}\n", "magic"),
        ('FAIRPEN-CKPT-v1\n{"layers": [{"kind": "conv"}]}\n', "layer 0"),
        ('FAIRPEN-CKPT-v1\n{"layers": [{"kind": "dense"}]}\n', "layer 0"),
        ('FAIRPEN-CKPT-v1\n{"layers": []}\n', "no dense layer"),
        ("\udcff\udcfeFAIRPEN-CKPT-v1\n{}\n", "not UTF-8"),  # starts with the bytes ff fe
    ):
        bad.write_text(body, errors="surrogateescape")
        rc = main(
            ["evaluate", "--checkpoint", str(bad), "--data", str(csv_path),
             "--schema", str(schema_path), "--out", str(out)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert expected in err and "Traceback" not in err


def test_evaluate_batch_norm_width_mismatch(tmp_path, capsys):
    csv_path, schema_path = _write_dataset(tmp_path)
    bad = tmp_path / "bad.ckpt"
    mlp(2, [4], rng=np.random.default_rng(0), batch_norm=True).save(bad)
    # layer 1 is the batch norm after the 2 -> 4 dense layer; make all its arrays width 3
    width3 = {k: np.ones(3) for k in ("gamma", "beta_shift", "running_mean", "running_var")}
    rewrite_checkpoint_layer(bad, 1, **width3)
    rc = main(
        ["evaluate", "--checkpoint", str(bad), "--data", str(csv_path),
         "--schema", str(schema_path), "--out", str(tmp_path / "eval.csv")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "layer 1" in err and str(bad) in err and "Traceback" not in err


def test_evaluate_checkpoint_layout_fuzz(tmp_path):
    """Layer-level faults in a saved ``mlp()`` checkpoint: one layer spec
    dropped, repeated, swapped with another, or given another kind.
    ``fairpen evaluate`` returns 0, or returns 1 with an error that names
    the checkpoint and a layer; it never raises."""
    csv_path, schema_path = _write_dataset(tmp_path, n=40)
    ckpt = tmp_path / "h.ckpt"
    mlp(2, [4, 3], rng=np.random.default_rng(0)).save(ckpt)  # distinct widths: a moved dense layer misfits
    magic, body = ckpt.read_text().split("\n", 1)
    saved = json.loads(body)["layers"]
    argv = ["evaluate", "--checkpoint", str(ckpt), "--data", str(csv_path), "--schema", str(schema_path),
            "--out", str(tmp_path / "e.csv")]

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(st.data())
    def check(data):
        layers = list(saved)
        i = data.draw(st.integers(0, len(layers) - 1), label="layer")
        fault = data.draw(st.sampled_from(["drop", "repeat", "swap", "kind"]), label="fault")
        if fault == "drop":
            del layers[i]
        elif fault == "repeat":
            layers.insert(i, layers[i])
        elif fault == "swap":
            j = data.draw(st.integers(0, len(layers) - 1), label="other layer")
            layers[i], layers[j] = layers[j], layers[i]
        else:
            kind = data.draw(st.sampled_from(["dense", "batch_norm", "activation", "conv"]), label="kind")
            layers[i] = {**layers[i], "kind": kind}
        ckpt.write_text(magic + "\n" + json.dumps({"layers": layers}) + "\n")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv)
        assert rc in (0, 1)
        if rc == 1:
            assert re.match(rf"error: {re.escape(str(ckpt))}: layer \d+: ", stderr.getvalue()), stderr.getvalue()

    check()


def test_train_divergence_exits_cleanly(tmp_path, capsys):
    csv_path, schema_path = _write_dataset(tmp_path)
    (tmp_path / "train.ini").write_text(
        "[train]\nt = 40\neval_interval = 20\nn_b = 50\nl = 30\nlearning_rate = 1e300\n"
    )
    # the geo run diverges first in its density-ratio pre-training
    step = r"layer \d+: non-finite parameter after SGD step"
    for criterion, stage in (
        ("gsp", r"lambda=0\.5, iteration 1, [hD] "),
        ("geo", r"density-ratio pre-training, iteration \d+, "),
    ):
        with np.errstate(all="ignore"):
            rc = main(_train_args(tmp_path, csv_path, schema_path, "--criterion", criterion))
        assert rc == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {stage}{step}\n", err), err
        assert not (tmp_path / "runs" / "r1" / "lambda=0.5").exists()


def _snapshot_csv(path, rows):
    header = ["iteration", "split", "utility_name", "utility_value", "a_ks_gsp"]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def test_pareto_flags_dominance_example(tmp_path, capsys):
    snap = tmp_path / "s1.csv"
    _snapshot_csv(
        snap,
        [
            ["100", "validation", "auc", "0.5", "0.5"],
            ["200", "validation", "auc", "0.4", "0.4"],
            ["300", "validation", "auc", "0.6", "0.4"],
        ],
    )
    out = tmp_path / "pareto.csv"
    rc = main(["pareto", str(snap), "--fairness-column", "a_ks_gsp", "--out", str(out)])
    assert rc == 0
    with open(out) as f:
        recs = list(csv.DictReader(f))
    flags = {r["iteration"]: r["on_frontier"] for r in recs}
    assert flags == {"100": "0", "200": "0", "300": "1"}


def test_pareto_skips_nan_utility(tmp_path, capsys):
    # a single-class snapshot has no AUC; it must not reach the frontier
    snap = tmp_path / "s1.csv"
    _snapshot_csv(
        snap,
        [
            ["100", "validation", "auc", "nan", "0.0"],
            ["200", "validation", "auc", "0.9", "0.1"],
            ["300", "validation", "auc", "0.8", "0.5"],
        ],
    )
    out = tmp_path / "pareto.csv"
    rc = main(["pareto", str(snap), "--fairness-column", "a_ks_gsp", "--out", str(out)])
    assert rc == 0
    with open(out) as f:
        flags = {r["iteration"]: r["on_frontier"] for r in csv.DictReader(f)}
    assert flags == {"200": "1", "300": "0"}


def test_pareto_skips_nan_in_any_spelling(tmp_path, capsys):
    # float() reads NaN, -nan and NAN too; none of them may reach the frontier
    snap = tmp_path / "s1.csv"
    _snapshot_csv(
        snap,
        [
            ["1", "validation", "auc", "0.9", "0.2"],
            ["2", "validation", "auc", "NaN", "0.05"],
            ["3", "validation", "auc", "0.8", "NaN"],
            ["4", "validation", "auc", "0.95", "-nan"],
            ["5", "validation", "auc", "0.99", ""],
        ],
    )
    out = tmp_path / "pareto.csv"
    args = ["pareto", str(snap), "--fairness-column", "a_ks_gsp", "--out", str(out), "--utility-threshold", "0.5"]
    assert main(args) == 0
    assert capsys.readouterr().out.endswith("top-5 fairness: mean=0.2 std=0.0 count=1\n")
    with open(out) as f:
        assert [(r["iteration"], r["on_frontier"]) for r in csv.DictReader(f)] == [("1", "1")]
    # an empty utility cell is still an error
    _snapshot_csv(snap, [["1", "validation", "auc", "", "0.2"]])
    assert main(args) == 1
    assert "row 2, column 'utility_value': '' is not a number" in capsys.readouterr().err


@pytest.mark.parametrize("short_at", [0, 1])
def test_pareto_row_without_utility_name_cannot_be_pooled(tmp_path, capsys, short_at):
    # utility_name is the last header column, so a short row has none; wherever
    # that row sits, its cell count is refused, and blank lines still count as rows
    rows = ["2,0.5,0.2,mae", "3,0.4,0.05,mae"]
    rows.insert(short_at, "1,0.9,0.1")
    rows.insert(0, "")
    snap = tmp_path / "s1.csv"
    snap.write_text("\n".join(["iteration,utility_value,a_ks_gsp,utility_name", *rows]) + "\n")
    args = ["pareto", str(snap), "--fairness-column", "a_ks_gsp", "--out", str(tmp_path / "p.csv"),
            "--utility-threshold", "-0.45", "--k", "5"]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {snap}: row {short_at + 3}: 3 cells, but the header has 4\n"
    assert not (tmp_path / "p.csv").exists()


def test_pareto_schema_mismatch(tmp_path, capsys):
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    _snapshot_csv(s1, [["1", "validation", "auc", "0.5", "0.1"]])
    with open(s2, "w", newline="") as f:
        csv.writer(f).writerows(
            [["iteration", "split", "utility_name", "utility_value", "b_ks_gsp"],
             ["1", "validation", "auc", "0.5", "0.1"]]
        )
    rc = main(
        ["pareto", str(s1), str(s2), "--fairness-column", "a_ks_gsp",
         "--out", str(tmp_path / "p.csv")]
    )
    assert rc == 1
    assert "mismatch" in capsys.readouterr().err


def test_pareto_topk_summary_printed(tmp_path, capsys):
    snap = tmp_path / "s1.csv"
    _snapshot_csv(
        snap,
        [
            ["1", "validation", "auc", "0.9", "0.3"],
            ["2", "validation", "auc", "0.8", "0.1"],
        ],
    )
    rc = main(
        ["pareto", str(snap), "--fairness-column", "a_ks_gsp",
         "--out", str(tmp_path / "p.csv"), "--utility-threshold", "0.75", "--k", "2"]
    )
    assert rc == 0
    assert "top-2 fairness" in capsys.readouterr().out


# cells built from the characters that decide csv's quoting, and some that do not
_writer_cells = st.lists(st.sampled_from([",", '"', "\r", "\n", " ", "\t", "é", "中", "x", "0.5", ""]),
                         max_size=4).map("".join)


@settings(deadline=None, max_examples=500)
@given(st.lists(_writer_cells, min_size=1, max_size=6))
def test_csv_line_equals_csv_writer(cells):
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    assert cli._csv_line(cells) == buf.getvalue()


@pytest.mark.parametrize("command", ["pareto", "ratio-toy"])
def test_output_that_cannot_be_written_is_named(tmp_path, capsys, command):
    out = tmp_path / "missing" / "o.csv"
    if command == "pareto":
        snap = tmp_path / "s1.csv"
        _snapshot_csv(snap, [["100", "validation", "auc", "0.5", "0.5"]])
        argv = ["pareto", str(snap), "--fairness-column", "a_ks_gsp", "--out", str(out)]
    else:
        argv = ["ratio-toy", "--n", "20", "--iters", "1", "--batch", "10", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {out}: cannot write (No such file or directory)\n"


def test_ratio_toy_output_format(tmp_path):
    out = tmp_path / "toy.csv"
    rc = main(
        ["ratio-toy", "--n", "1000", "--iters", "100", "--batch", "50",
         "--seed", "0", "--out", str(out)]
    )
    assert rc == 0
    with open(out) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["cell", "true_ratio", "estimated_ratio", "abs_error"]
    assert [r[0] for r in rows[1:]] == [
        "p(1|1)/p(1)", "p(1|0)/p(1)", "p(0|1)/p(0)", "p(0|0)/p(0)"
    ]


def test_ratio_toy_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    args = ["ratio-toy", "--n", "500", "--iters", "50", "--batch", "50", "--seed", "1"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# A count flag below 1, by case: the command, the flag and its value.
_FLAG_BELOW_ONE = {
    "ratio_toy_batch_neg5": ("ratio-toy", "--batch", "-5"),
    "ratio_toy_batch_0": ("ratio-toy", "--batch", "0"),
    "ratio_toy_iters_neg3": ("ratio-toy", "--iters", "-3"),
    "ratio_toy_n_0": ("ratio-toy", "--n", "0"),
    "pareto_k_0": ("pareto", "--k", "0"),
    "pareto_k_neg1": ("pareto", "--k", "-1"),
}


def _bad_input(tmp_path, case):
    """CLI arguments for one user error, and the text its message must name."""
    csv_path, schema_path = _write_dataset(tmp_path, n=40)
    config = tmp_path / "train.ini"
    train = _train_args(tmp_path, csv_path, schema_path)
    if case == "config_value":
        config.write_text("[train]\nt = abc\n")
        return train, [str(config), "t", "'abc'"]
    if case == "lambda_value":
        return train + ["--lambda", "abc"], ["--lambda", "'abc'"]
    if case == "lambda_empty_grid":
        config.write_text("[train]\nt = 5\nlambda =\n")
        return train[: train.index("--lambda")], [str(config), "[train] lambda", "no values"]
    if case == "lambda_same_directory":
        return train + ["--lambda", "0.1234567", "--lambda", "0.1234568"], ["0.1234567", "0.1234568", "lambda=0.123457"]
    if case == "lambda_repeated":
        return train + ["--lambda", "0.5"], ["--lambda", "0.5 and 0.5", "lambda=0.5"]
    if case == "config_key_typo":
        config.write_text("[train]\nt = 5\nlearnig_rate = 5\n")
        return train, [str(config), "learnig_rate"]
    if case == "model_section":
        config.write_text("[model]\nwidth = 32\n")
        return train, [str(config), "width", "[model]"]
    if case == "missing_data":
        missing = tmp_path / "absent.csv"
        return _train_args(tmp_path, missing, schema_path), [str(missing)]
    if case == "missing_schema":
        missing = tmp_path / "absent.json"
        return _train_args(tmp_path, csv_path, missing), [str(missing)]
    if case == "schema_without_role":
        schema_path.write_text(json.dumps([{"name": "x1", "kind": "continuous"}]))
        return train, [str(schema_path), "entry 0", "'role'"]
    if case in ("learning_rate_nan", "learning_rate_inf"):
        config.write_text(f"[train]\nt = 5\nlearning_rate = {case[-3:]}\n")
        return train, ["learning_rate", case[-3:]]
    if case == "out_is_a_file":
        train[train.index("--out") + 1] = str(csv_path)  # runs would go to data.csv/r1
        return train, [str(csv_path)]
    if case == "short_row":
        short = tmp_path / "short.csv"
        short.write_text("x1,x2,a,y\n0.1,0.3,0,1\n0.2,0.4,1\n")
        evaluate = ["evaluate", "--checkpoint", str(tmp_path / "h.ckpt"), "--data", str(short),
                    "--schema", str(schema_path), "--out", str(tmp_path / "e.csv")]
        return evaluate, [str(short), "row 3", "'y'", "missing cell"]
    if case == "checkpoint_bn_epsilon_str":
        ckpt = tmp_path / "h.ckpt"
        mlp(2, [4], rng=np.random.default_rng(0), batch_norm=True).save(ckpt)
        set_checkpoint_layer_value(ckpt, 1, "epsilon", "1e-5")
        evaluate = ["evaluate", "--checkpoint", str(ckpt), "--data", str(csv_path),
                    "--schema", str(schema_path), "--out", str(tmp_path / "e.csv")]
        return evaluate, [str(ckpt), "layer 1", "epsilon '1e-5' is not a finite real number"]
    if case == "checkpoint_bn_epsilon_overflow":
        ckpt = tmp_path / "h.ckpt"
        mlp(2, [4], rng=np.random.default_rng(0), batch_norm=True).save(ckpt)
        set_checkpoint_layer_value(ckpt, 1, "epsilon", sys.float_info.max)
        rewrite_checkpoint_layer(ckpt, 1, running_var=[1.0, 1e300, 1.0, 1.0])
        evaluate = ["evaluate", "--checkpoint", str(ckpt), "--data", str(csv_path),
                    "--schema", str(schema_path), "--out", str(tmp_path / "e.csv")]
        return evaluate, [str(ckpt), "layer 1", "running_var + epsilon overflows"]
    if case == "checkpoint_bn_fold_overflow":
        ckpt = tmp_path / "h.ckpt"
        mlp(2, [4], rng=np.random.default_rng(0), batch_norm=True).save(ckpt)
        set_checkpoint_layer_value(ckpt, 1, "epsilon", 5e-324)
        rewrite_checkpoint_layer(ckpt, 1, gamma=[1e160] * 4, running_var=[0.0] * 4)
        evaluate = ["evaluate", "--checkpoint", str(ckpt), "--data", str(csv_path),
                    "--schema", str(schema_path), "--out", str(tmp_path / "e.csv")]
        return evaluate, [str(ckpt), "layer 1", "scale gamma / sqrt(running_var + epsilon)", "is not finite"]
    if case == "checkpoint_bn_alone":  # a batch-norm layer with no dense layer right before it
        ckpt = tmp_path / "h.ckpt"
        rng = np.random.default_rng(0)
        layers = [DenseLayer(2, 4, rng), ActivationLayer("relu"), BatchNormLayer(4), DenseLayer(4, 1, rng),
                  ActivationLayer("sigmoid")]
        ckpt.write_text("FAIRPEN-CKPT-v1\n" + json.dumps({"layers": [layer.to_spec() for layer in layers]}) + "\n")
        evaluate = ["evaluate", "--checkpoint", str(ckpt), "--data", str(csv_path),
                    "--schema", str(schema_path), "--out", str(tmp_path / "e.csv")]
        return evaluate, [str(ckpt), "layer 2", "batch_norm after activation"]
    if case in ("checkpoint_huge_int", "checkpoint_deep_nesting"):
        ckpt = tmp_path / "h.ckpt"
        body = "[" + "9" * 5001 + "]" if case == "checkpoint_huge_int" else "[" * 100_000
        ckpt.write_text("FAIRPEN-CKPT-v1\n" + body + "\n")
        evaluate = ["evaluate", "--checkpoint", str(ckpt), "--data", str(csv_path),
                    "--schema", str(schema_path), "--out", str(tmp_path / "e.csv")]
        return evaluate, [str(ckpt), "corrupted checkpoint body"]
    if case == "checkpoint_scores_overflow":  # finite arrays whose inference pass overflows
        ckpt = tmp_path / "h.ckpt"
        net = mlp(2, [4, 4], rng=np.random.default_rng(0), batch_norm=False)
        net.layers[0].weights[...] = net.layers[2].weights[...] = 1e300
        net.save(ckpt)
        evaluate = ["evaluate", "--checkpoint", str(ckpt), "--data", str(csv_path),
                    "--schema", str(schema_path), "--out", str(tmp_path / "e.csv")]
        return evaluate, [str(ckpt), "of 40 rows scored non-finite"]
    if case in ("checkpoint_two_outputs", "checkpoint_no_outputs"):
        ckpt = tmp_path / "h.ckpt"
        out_dim = 2 if case == "checkpoint_two_outputs" else 0
        mlp(2, [4], out_dim=out_dim, rng=np.random.default_rng(0)).save(ckpt)
        evaluate = ["evaluate", "--checkpoint", str(ckpt), "--data", str(csv_path),
                    "--schema", str(schema_path), "--out", str(tmp_path / "e.csv")]
        return evaluate, [str(ckpt), f"{out_dim} output columns, not 1"]
    if case == "seed_negative_flag":
        return train + ["--seed", "-1"], ["--seed", "must be >= 0, got -1"]
    if case == "seed_negative_config":
        config.write_text("[train]\nt = 5\nseed = -3\n")
        del train[train.index("--seed"):train.index("--seed") + 2]  # the flag would win
        return train, [str(config), "[train] seed", "must be >= 0, got -3"]
    if case == "batch_exceeds_split_config":  # 40 rows split into 32 training rows
        return train, [str(config), "[train] n_b", "batch size 50", "32 rows"]
    if case == "batch_exceeds_split_default":
        config.write_text("[train]\nt = 5\n")
        return train, ["[train] n_b (default)", "batch size 100", "32 rows"]
    if case == "batch_exceeds_split_disjoint":
        config.write_text("[train]\nt = 5\nn_b = 20\n")
        return train + ["--criterion", "geo", "--sampler", "disjoint"], [
            str(config), "[train] n_b", "disjoint sampler needs 2 * n_b = 40 rows", "has 32"]
    if case == "ratio_toy_batch_exceeds_n":
        args = ["ratio-toy", "--n", "50", "--iters", "5", "--batch", "100", "--out", str(tmp_path / "toy.csv")]
        return args, ["--batch 100 exceeds --n 50"]
    if case == "ratio_toy_seed_negative":
        args = ["ratio-toy", "--n", "100", "--iters", "5", "--batch", "10", "--seed", "-1",
                "--out", str(tmp_path / "toy.csv")]
        return args, ["--seed", "must be >= 0, got -1"]
    if case == "data_not_utf8":
        csv_path.write_bytes(b"x1,x2,a,y\n0.1,0.3,0,1\n0.2,0.4,\xe9,1\n")  # Latin-1, not UTF-8
        return train, [str(csv_path), "not UTF-8"]
    if case == "data_oversized_field":
        csv_path.write_text('x1,x2,a,y\n0.1,0.3,0,1\n"' + "9" * 200_000 + '",0.4,1,1\n')
        return train, [str(csv_path), "row 3", "field larger than field limit"]
    if case == "data_mean_overflows":
        csv_path.write_text("x1,x2,a,y\n1e308,0.1,0,1\n1.5e308,0.2,1,0\n")
        return train, [str(csv_path), "column 'x1' overflows when scaled"]
    if case == "data_std_overflows":
        csv_path.write_text("x1,x2,a,y\n1e200,0.1,0,1\n-1e200,0.2,1,0\n3,0.3,0,1\n")
        return train, [str(csv_path), "column 'x1' overflows when scaled"]
    if case == "schema_not_utf8":
        schema_path.write_bytes(b'[{"name": "x\xe9", "role": "feature", "kind": "continuous"}]')
        return train, [str(schema_path), "not UTF-8"]
    if case.startswith("schema_categories_"):
        cats = {"schema_categories_int": 5, "schema_categories_str": "uv",
                "schema_categories_repeated": ["u", "u"], "schema_categories_padded": ["u", " v"]}[case]
        schema_path.write_text(json.dumps([{"name": "a", "role": "sensitive", "kind": "categorical",
                                            "categories": cats}]))
        return train, [str(schema_path), "entry 0", "'categories'", repr(tuple(cats) if isinstance(cats, list) else cats)]
    if case == "schema_outcome_three_categories":
        entries = json.loads(schema_path.read_text())
        entries[-1] = {"name": "y", "role": "outcome", "kind": "categorical", "categories": ["lo", "mid", "hi"]}
        schema_path.write_text(json.dumps(entries))
        return train, [str(schema_path), "entry 3", "'y'", "exactly two categories, got 3"]
    snapshots = tmp_path / "s1.csv"
    pareto = ["pareto", str(snapshots), "--fairness-column", "a_ks_gsp", "--out", str(tmp_path / "p.csv")]
    if case in _FLAG_BELOW_ONE:
        command, flag, value = _FLAG_BELOW_ONE[case]
        if command == "ratio-toy":
            args = ["ratio-toy", "--n", "100", "--iters", "5", "--batch", "10", "--out", str(tmp_path / "toy.csv")]
        else:
            _snapshot_csv(snapshots, [["1", "validation", "auc", "0.9", "0.1"]])
            args = pareto + ["--utility-threshold", "0.5"]
        return args + [flag, value], [flag, value]
    if case == "pareto_mixed_utility":
        mae_snapshots = tmp_path / "s2.csv"
        _snapshot_csv(snapshots, [["1", "validation", "auc", "0.9", "0.3"]])
        _snapshot_csv(mae_snapshots, [["1", "validation", "mae", "0.2", "0.1"]])
        return pareto[:2] + [str(mae_snapshots)] + pareto[2:], [str(mae_snapshots), "row 2", "utility_name", "'mae'", "'auc'"]
    if case == "missing_pareto_input":
        return pareto, [str(snapshots)]
    if case == "pareto_not_utf8":
        snapshots.write_bytes(b"iteration,split,utility_name,utility_value,a_ks_gsp\n1,valid\xe9,auc,0.9,0.1\n")
        return pareto, [str(snapshots), "not UTF-8"]
    if case == "pareto_oversized_field":
        _snapshot_csv(snapshots, [["1", "validation", "auc", "0.9", "0.1"], ["2", "x" * 200_000, "auc", "0.8", "0.2"]])
        return pareto, [str(snapshots), "row 3", "field larger than field limit"]
    if case in ("pareto_bad_utility", "pareto_bad_fairness"):
        column, cells = ("utility_value", ["abc", "0.1"]) if case == "pareto_bad_utility" else ("a_ks_gsp", ["0.9", "abc"])
        _snapshot_csv(snapshots, [["1", "validation", "auc", "0.9", "0.1"], ["2", "validation", "auc", *cells]])
        return pareto, [str(snapshots), "row 3", column, "'abc'"]
    if case in ("pareto_inf_utility", "pareto_inf_fairness"):
        column, cells = ("utility_value", ["-inf", "0.1"]) if case == "pareto_inf_utility" else ("a_ks_gsp", ["0.9", "1e999"])
        _snapshot_csv(snapshots, [["1", "validation", "auc", "0.9", "0.1"], ["2", "validation", "auc", *cells]])
        return pareto, [str(snapshots), "row 3", column, "non-finite cell", repr(cells[column == "a_ks_gsp"])]
    if case == "pareto_repeated_header":
        snapshots.write_text("iteration,split,utility_name,utility_value,a_ks_gsp,split\n1,validation,auc,0.9,0.1,x\n")
        return pareto, [str(snapshots), "row 1", "'split'", "repeated in the header"]
    if case == "pareto_long_row":
        _snapshot_csv(snapshots, [["1", "validation", "auc", "0.9", "0.1"], ["2", "validation", "auc", "0.8", "0.2", "9"]])
        return pareto, [str(snapshots), "row 3", "6 cells, but the header has 5"]
    if case == "pareto_empty_first_file":
        snapshots.write_text("")
        good = tmp_path / "s2.csv"
        _snapshot_csv(good, [["1", "validation", "auc", "0.9", "0.1"]])
        return pareto[:2] + [str(good)] + pareto[2:], [str(snapshots), "row 1", "'a_ks_gsp'", "missing from the header"]
    if case == "pareto_misspelt_column":
        _snapshot_csv(snapshots, [["1", "validation", "auc", "0.9", "0.1"]])
        misspelt = pareto[:3] + ["a_ks_gs"] + pareto[4:]
        return misspelt, [str(snapshots), "row 1", "'a_ks_gs'", "missing from the header"]
    if case == "pareto_no_utility_column":
        snapshots.write_text("iteration,split,utility_name,a_ks_gsp\n1,validation,auc,0.1\n")
        return pareto, [str(snapshots), "utility_value"]
    _snapshot_csv(snapshots, [["1", "validation", "auc", "0.9", "0.1"]])
    unwritable = tmp_path / "absent_dir" / "p.csv"  # case == "unwritable_output"
    return pareto[:-1] + [str(unwritable)], [str(unwritable)]


@pytest.mark.parametrize(
    "case",
    ["config_value", "lambda_value", "config_key_typo", "model_section", "missing_data",
     "missing_schema", "schema_without_role", "missing_pareto_input", "unwritable_output",
     "learning_rate_nan", "learning_rate_inf", "out_is_a_file", "pareto_bad_utility",
     "pareto_bad_fairness", "pareto_no_utility_column", "short_row", "pareto_mixed_utility",
     "pareto_inf_utility", "pareto_inf_fairness", "data_not_utf8", "data_oversized_field",
     "data_mean_overflows", "data_std_overflows",
     "schema_not_utf8", "pareto_not_utf8", "pareto_oversized_field", "schema_categories_int",
     "schema_categories_str", "schema_categories_repeated", "schema_categories_padded",
     "schema_outcome_three_categories", "pareto_repeated_header", "pareto_long_row", "lambda_empty_grid",
     "lambda_same_directory", "lambda_repeated", "pareto_empty_first_file", "pareto_misspelt_column",
     "checkpoint_bn_epsilon_str", "checkpoint_bn_epsilon_overflow", "checkpoint_bn_fold_overflow", "checkpoint_bn_alone",
     "checkpoint_huge_int", "checkpoint_deep_nesting",
     "checkpoint_two_outputs", "checkpoint_no_outputs", "checkpoint_scores_overflow", "seed_negative_flag", "seed_negative_config",
     "ratio_toy_seed_negative", "batch_exceeds_split_config", "batch_exceeds_split_default",
     "batch_exceeds_split_disjoint", "ratio_toy_batch_exceeds_n",
     *_FLAG_BELOW_ONE],
)
def test_cli_user_error_exits_cleanly(tmp_path, capsys, case):
    args, named = _bad_input(tmp_path, case)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert all(text in err for text in named), err
    assert not (tmp_path / "runs").exists()


def test_train_missing_inputs_error(capsys):
    assert main(["train"]) == 1
    assert "requires" in capsys.readouterr().err


_THREADS_CHILD = """
import ctypes, glob, os
import fairpen.cli
import numpy
root = os.path.dirname(numpy.__file__)
libs = glob.glob(os.path.join(root, "..", "numpy.libs", "*openblas*"))
libs += glob.glob(os.path.join(root, ".dylibs", "*openblas*"))
names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")
fns = [getattr(ctypes.CDLL(lib), name, None) for lib in libs for name in names]
fns = [fn for fn in fns if fn is not None]
for fn in fns:
    fn.argtypes, fn.restype = [], ctypes.c_int
print(fns[0]() if fns else "missing")
"""


def test_fairpen_threads_caps_openblas():
    if (os.cpu_count() or 1) < 2:
        pytest.skip("one core: a cap of 1 cannot be told from the default")
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    env["FAIRPEN_THREADS"] = "1"
    src = str(Path(fairpen.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", _THREADS_CHILD], env=env, capture_output=True, text=True, check=True
    ).stdout.strip()
    if out == "missing":
        pytest.skip("numpy's bundled OpenBLAS does not export a thread-count getter")
    assert out == "1"


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Every file that a geo ``fairpen train`` and ``fairpen evaluate`` write
    has the same bytes under FAIRPEN_THREADS=1 and FAIRPEN_THREADS=2."""
    csv_path, schema_path = _write_dataset(tmp_path, n=3000)
    (tmp_path / "train.ini").write_text("[train]\nt = 200\nl = 200\n")
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "FAIRPEN_THREADS")
    }
    src = str(Path(fairpen.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads={threads}"
        train = _train_args(tmp_path, csv_path, schema_path, "--criterion", "geo")
        train[train.index("--out") + 1] = str(out / "runs")
        evaluate = ["evaluate", "--checkpoint", str(out / "runs" / "r1" / "lambda=0.5" / "h_final.ckpt"),
                    "--data", str(csv_path), "--schema", str(schema_path), "--out", str(out / "eval.csv")]
        for args in (train, evaluate):
            subprocess.run([sys.executable, "-m", "fairpen.cli", *args], env={**env, "FAIRPEN_THREADS": threads},
                           capture_output=True, check=True)
        digests.append({path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in out.rglob("*") if path.is_file()})
    assert sorted(digests[0]) == [
        "eval.csv", *(f"runs/r1/lambda=0.5/{name}" for name in
                      ("beta_table.csv", "d_final.ckpt", "h_final.ckpt", "snapshots.csv"))]
    assert digests[0] == digests[1]
