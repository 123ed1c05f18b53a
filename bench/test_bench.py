"""Tests of the benchmark itself: run with ``python3 -m pytest bench``.

A tiny session of the real CLI gives the known-good outputs; each checker
must accept them and reject a corrupted copy.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402

TINY = dataclasses.replace(
    inputs.WORKLOADS["eval-pareto"],
    lambdas=(0.0, 0.5),
    T=20,
    train_rows=400,
    eval_rows=300,
    pool_runs=3,
    pool_snapshots=6,
)


def _cli(*argv: str) -> str:
    from fairpen.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    work = tmp_path_factory.mktemp("tiny")
    files = inputs.write_inputs(TINY, 3, work)
    _cli("train", "--config", str(files["config"]), "--data", str(files["train_csv"]),
         "--schema", str(files["schema"]), "--out", str(work / "runs"), "--run-id", "r")
    lam_dir = work / "runs" / "r" / "lambda=0.5"
    _cli("evaluate", "--checkpoint", str(lam_dir / "h_final.ckpt"), "--data", str(files["eval_csv"]),
         "--schema", str(files["schema"]), "--out", str(work / "eval.csv"))
    pool = [str(p) for p in files["pool"]] + [str(lam_dir / "snapshots.csv")]
    stdout = _cli("pareto", *pool, "--fairness-column", TINY.fairness_column, "--out", str(work / "pareto.csv"),
                  "--utility-threshold", "0.7", "--k", "3")
    schema = json.loads(files["schema"].read_text(encoding="utf-8"))
    return {"work": work, "files": files, "lam_dir": lam_dir, "pool": pool, "stdout": stdout, "schema": schema}


def _rewrite(src: Path, dst: Path, edit) -> Path:
    with open(src, encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    edit(rows)
    with open(dst, "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return dst


def _check_evaluate(s, out_csv):
    return checks.check_evaluate(s["lam_dir"] / "h_final.ckpt", s["files"]["eval_csv"], s["schema"], out_csv)


def test_evaluate_check_accepts_cli_output(session):
    assert _check_evaluate(session, session["work"] / "eval.csv") == []


def test_evaluate_check_rejects_perturbed_auc(session):
    def perturb(rows):
        rows[0]["utility_value"] = repr(float(rows[0]["utility_value"]) + 1e-6)

    bad = _rewrite(session["work"] / "eval.csv", session["work"] / "eval_bad.csv", perturb)
    problems = _check_evaluate(session, bad)
    assert len(problems) == 1 and "utility_value" in problems[0]


def test_evaluate_check_rejects_a_threshold_moved_off_the_youden_optimum(session):
    """SP and EO depend on the threshold, which the CLI does not print."""

    def perturb(rows):
        rows[0]["sex_sp"] = repr(float(rows[0]["sex_sp"]) * 1.01)

    bad = _rewrite(session["work"] / "eval.csv", session["work"] / "eval_sp.csv", perturb)
    assert any("sex_sp" in p for p in _check_evaluate(session, bad))


def _check_pareto(s, out_csv, stdout):
    return checks.check_pareto(s["pool"], TINY.fairness_column, out_csv, stdout, 0.7, 3)


def test_pareto_check_accepts_cli_output(session):
    assert _check_pareto(session, session["work"] / "pareto.csv", session["stdout"]) == []


def test_pareto_check_rejects_flipped_frontier_flag(session):
    def flip(rows):
        rows[4]["on_frontier"] = str(1 - int(rows[4]["on_frontier"]))

    bad = _rewrite(session["work"] / "pareto.csv", session["work"] / "pareto_bad.csv", flip)
    problems = _check_pareto(session, bad, session["stdout"])
    assert len(problems) == 1 and "row 6" in problems[0]


def test_pareto_check_rejects_wrong_topk_summary(session):
    stdout = session["stdout"].replace("count=", "count=9")
    assert _check_pareto(session, session["work"] / "pareto.csv", stdout)


def test_frontier_flags_on_ties_and_duplicates():
    points = [(0.9, 0.2), (0.9, 0.2), (0.9, 0.3), (0.8, 0.2), (0.8, 0.1), (0.7, 0.1), (0.95, 0.5)]
    flags = checks.frontier_flags(points)
    assert flags == {
        (0.95, 0.5): True,
        (0.9, 0.2): True,
        (0.9, 0.3): False,  # same utility, worse fairness
        (0.8, 0.1): True,
        (0.8, 0.2): False,  # dominated by (0.9, 0.2)
        (0.7, 0.1): False,  # dominated by (0.8, 0.1)
    }


def test_train_check_accepts_cli_output(session):
    tiny = dataclasses.replace(TINY, lambdas=(0.5,))  # too short to test the lambda=0 oracles
    problems = checks.check_train(
        session["work"] / "runs" / "r", tiny, 3, session["files"]["train_csv"], session["schema"],
        session["files"]["train_logit"],
    )
    assert problems == []


def _beta_case():
    rng = np.random.default_rng(0)
    a = (rng.random(2000) < 0.4).astype(float)
    y = (rng.random(2000) < 0.3 + 0.4 * a).astype(float)
    rows = []
    for av, yv in sorted({(av, yv) for av, yv in zip(a, y)}):
        emp = np.mean((a == av) & (y == yv)) / (np.mean(a == av) * np.mean(y == yv))
        rows.append([f"np.float64({float(av)!r})", f"np.float64({float(yv)!r})", repr(float(emp))])
    return a, y, rows


def _write_beta(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerows([["a0", "y", "ratio"], *rows])
    return path


def test_beta_check_accepts_empirical_table(tmp_path):
    a, y, rows = _beta_case()
    assert checks.check_beta_table(_write_beta(tmp_path / "beta.csv", rows), a, y) == []


def test_beta_check_rejects_permuted_row(tmp_path):
    a, y, rows = _beta_case()
    ratios = [r[2] for r in rows]
    permuted = [r[:2] + [ratios[(i + 1) % len(rows)]] for i, r in enumerate(rows)]
    assert checks.check_beta_table(_write_beta(tmp_path / "beta.csv", permuted), a, y)


def test_reference_metrics_match_brute_force():
    rng = np.random.default_rng(1)
    s = rng.integers(0, 20, 300) / 20.0  # many ties
    y = (rng.random(300) < s).astype(float)
    pos, neg = s[y == 1], s[y == 0]
    brute_auc = np.mean([(p > q) + 0.5 * (p == q) for p in pos for q in neg])
    assert abs(checks.auc(s, y) - brute_auc) < 1e-12
    taus = np.concatenate(([-np.inf], (np.unique(s)[:-1] + np.unique(s)[1:]) / 2, [np.inf]))
    js = [np.mean(pos > t) - np.mean(neg > t) for t in taus]
    tau, j = checks.youden(s, y)
    assert tau == taus[int(np.argmax(js))] and abs(j - max(js)) < 1e-12
    grid = np.unique(s)
    brute_ks = max(abs(np.mean(pos <= t) - np.mean(s <= t)) for t in grid)
    assert abs(checks.ks(pos, s) - brute_ks) < 1e-12


def test_inputs_are_byte_identical_for_a_seed(tmp_path):
    def written(dirname, seed):
        work = tmp_path / dirname
        inputs.write_inputs(TINY, seed, work)
        return {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()}

    first = written("a", 7)
    assert first == written("b", 7)
    assert first != written("c", 8)


def test_generated_files_are_ignored_by_git():
    ignored = (ROOT / ".gitignore").read_text(encoding="utf-8").split()
    assert "/bench/_work/" in ignored
