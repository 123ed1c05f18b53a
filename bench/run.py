"""Benchmark of one fairpen session through the CLI: ``fairpen train`` over a
lambda grid, ``fairpen evaluate`` of the largest-lambda scorer on held-out
rows, and ``fairpen pareto`` over a pool of snapshot logs.

    python3 bench/run.py --workload gsp-grid --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. It writes the workload's inputs from the
seed under bench/_work/, times a few fresh-process set-ups, then runs whole
rounds of the three commands in one fresh child process until the next round
would end past --seconds, checks every output with its own code, and prints
as its last line one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
THREADS = "1"  # BLAS threads: one thread is both faster and steadier here than two
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 11
MIN_ROUNDS = 2
RUN_ID = "bench"
# Median time of child.speed_probe on the 2-core machine the README figures
# come from; rates and set-up are reported as if every probe had taken this.
PROBE_REF_S = 0.058

END_TO_END = {
    "setup_s": "s",
    "train_iters_per_s": "1/s",
    "evaluate_rows_per_s": "1/s",
    "pareto_points_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class Totals:
    """Per-name span totals of one traced round; remembers the names read,
    so a metric whose every span is absent can be reported as absent."""

    def __init__(self, totals: dict):
        self.totals = totals
        self.read: set[str] = set()

    def _get(self, name: str, field: int) -> float:
        self.read.add(name)
        return self.totals.get(name, [0, 0.0, 0.0, 0])[field]

    def calls(self, *names):
        return sum(self._get(n, 0) for n in names)

    def secs(self, *names):
        return sum(self._get(n, 1) for n in names)

    def self_secs(self, *names):
        return sum(self._get(n, 2) for n in names)

    def qty(self, *names):
        return sum(self._get(n, 3) for n in names)


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


PENALTIES = ("penalties.gsp_penalty", "penalties.geo_penalty")
TRAINERS = ("training.train_gsp", "training.train_geo")
CLI_SPANS = ("cli.main", "cli.train", "cli.evaluate", "cli.pareto")

# name -> (unit, better, value from one traced round's totals)
PER_LAYER = {
    "cli.train_s": ("s", "lower", lambda t: t.secs("cli.train")),
    "cli.evaluate_s": ("s", "lower", lambda t: t.secs("cli.evaluate")),
    "cli.pareto_s": ("s", "lower", lambda t: t.secs("cli.pareto")),
    "cli.self_s": ("s", "lower", lambda t: t.self_secs(*CLI_SPANS)),
    "data.load_csv_s": ("s", "lower", lambda t: t.secs("data.load_csv")),
    "data.load_csv_rows": ("count", "higher", lambda t: t.qty("data.load_csv")),
    "data.split_s": ("s", "lower", lambda t: t.secs("data.split")),
    "data.minibatch_calls": ("count", "lower", lambda t: t.calls("data.minibatch")),
    "data.minibatch_us": ("us", "lower", lambda t: 1e6 * _per(t.secs("data.minibatch"), t.calls("data.minibatch"))),
    "nn.dense_fwd_s": ("s", "lower", lambda t: t.self_secs("nn.dense.forward")),
    "nn.dense_bwd_s": ("s", "lower", lambda t: t.self_secs("nn.dense.backward")),
    "nn.bn_fwd_s": ("s", "lower", lambda t: t.self_secs("nn.bn.forward")),
    "nn.bn_bwd_s": ("s", "lower", lambda t: t.self_secs("nn.bn.backward")),
    "nn.act_fwd_s": ("s", "lower", lambda t: t.self_secs("nn.act.forward")),
    "nn.act_bwd_s": ("s", "lower", lambda t: t.self_secs("nn.act.backward")),
    "nn.sgd_step_s": ("s", "lower", lambda t: t.secs("nn.Mlp.sgd_step")),
    "nn.backward_calls_per_step": (
        "ratio", "lower", lambda t: _per(t.calls("nn.Mlp.backward"), t.calls("nn.Mlp.sgd_step"))
    ),
    "nn.infer_rows_per_s": (
        "1/s", "higher", lambda t: _per(t.qty("nn.Mlp.forward[infer]"), t.secs("nn.Mlp.forward[infer]"))
    ),
    "nn.ckpt_load_s": ("s", "lower", lambda t: t.secs("nn.Mlp.load")),
    "nn.ckpt_save_s": ("s", "lower", lambda t: t.secs("nn.Mlp.save")),
    "nn.ckpt_bytes": ("B", "lower", lambda t: t.qty("nn.Mlp.save")),
    "penalties.penalty_calls": ("count", "lower", lambda t: t.calls(*PENALTIES)),
    "penalties.penalty_self_us": (
        "us", "lower", lambda t: 1e6 * _per(t.self_secs(*PENALTIES), t.calls(*PENALTIES))
    ),
    "penalties.pretrain_calls": ("count", "lower", lambda t: t.calls("penalties.pretrain")),
    "penalties.pretrain_s": ("s", "lower", lambda t: t.secs("penalties.pretrain")),
    "penalties.beta_values_s": ("s", "lower", lambda t: t.secs("penalties.beta_values")),
    "training.iterations": ("count", "higher", lambda t: t.qty(*TRAINERS)),
    "training.loop_self_s": ("s", "lower", lambda t: t.self_secs(*TRAINERS)),
    "training.snapshot_calls": ("count", "lower", lambda t: t.calls("training.snapshot")),
    "training.snapshot_s": ("s", "lower", lambda t: t.secs("training.snapshot")),
    "training.snapshot_rows_per_s": (
        "1/s", "higher", lambda t: _per(t.qty("training.snapshot"), t.secs("training.snapshot"))
    ),
    "metrics.auc_s": ("s", "lower", lambda t: t.secs("metrics.auc")),
    "metrics.threshold_s": ("s", "lower", lambda t: t.secs("metrics.threshold")),
    "metrics.ks_s": ("s", "lower", lambda t: t.secs("metrics.ks_gsp", "metrics.ks_geo")),
    "metrics.gap_s": (
        "s",
        "lower",
        lambda t: t.secs("metrics.sp_discrete", "metrics.sp_continuous", "metrics.eo_discrete", "metrics.eo_continuous"),
    ),
    "metrics.pareto_s": ("s", "lower", lambda t: t.secs("metrics.pareto_frontier", "metrics.frontier_flags")),
    "metrics.pareto_points": ("count", "higher", lambda t: t.qty("metrics.frontier_flags")),
}
# Counts that must repeat exactly from round to round.
EXACT = (
    "data.load_csv_rows",
    "data.minibatch_calls",
    "nn.backward_calls_per_step",
    "nn.ckpt_bytes",
    "penalties.penalty_calls",
    "penalties.pretrain_calls",
    "training.iterations",
    "training.snapshot_calls",
    "metrics.pareto_points",
)
# Measured outside the spans.
EXTRA_LAYER = {
    "metrics.nan_values": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: THREADS for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], env: dict, timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *args],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        fail(f"child {args[0]} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout


def session_plan(workload, files: dict, work: Path, seconds: int, trace: bool) -> dict:
    rounds_dir = work / "rounds"
    rdir = str(rounds_dir / "round{round}")
    lam_dirs = [f"{rdir}/runs/{RUN_ID}/lambda={lam:g}" for lam in workload.lambdas]
    pool = [str(p) for p in files["pool"]] + [f"{d}/snapshots.csv" for d in lam_dirs]
    largest = f"{rdir}/runs/{RUN_ID}/lambda={max(workload.lambdas):g}"
    return {
        "seconds": seconds,
        "min_rounds": MIN_ROUNDS,
        "trace": trace,
        "rounds_dir": str(rounds_dir),
        "result": str(work / "session.json"),
        "pool": pool,
        "steps": [  # [name, repeats per round, argv]
            ["train", 1, [
                "train", "--config", str(files["config"]), "--data", str(files["train_csv"]),
                "--schema", str(files["schema"]), "--criterion", workload.criterion,
                "--out", f"{rdir}/runs", "--run-id", RUN_ID,
            ]],
            ["evaluate", workload.eval_repeats, [
                "evaluate", "--checkpoint", f"{largest}/h_final.ckpt", "--data", str(files["eval_csv"]),
                "--schema", str(files["schema"]), "--out", f"{rdir}/eval.csv",
            ]],
            ["pareto", workload.pareto_repeats, [
                "pareto", *pool, "--fairness-column", workload.fairness_column, "--out", f"{rdir}/pareto.csv",
                "--utility-threshold", repr(workload.utility_threshold), "--k", str(workload.k),
            ]],
        ],
    }


def output_files(round_dir: Path) -> dict[str, bytes]:
    """Every file a round wrote except captured stdout, keyed by relative path."""
    return {
        str(p.relative_to(round_dir)): p.read_bytes()
        for p in sorted(round_dir.rglob("*"))
        if p.is_file() and p.suffix != ".stdout"
    }


def verify(workload, seed: int, files: dict, plan: dict, rounds: list[dict], checks) -> list[str]:
    """Independent checks of the first round; later rounds must write the
    same bytes and print the same top-k line."""
    schema = json.loads(files["schema"].read_text(encoding="utf-8"))
    first = Path(plan["rounds_dir"]) / "round1"
    done = {step for step, repeats, _ in plan["steps"] if rounds[0]["steps"].get(step, {}).get("ok") == repeats}
    problems = []
    if "train" in done:
        problems += checks.check_train(
            first / "runs" / RUN_ID, workload, seed, files["train_csv"], schema, files["train_logit"]
        )
    if "evaluate" in done:
        ckpt = first / "runs" / RUN_ID / f"lambda={max(workload.lambdas):g}" / "h_final.ckpt"
        problems += checks.check_evaluate(ckpt, files["eval_csv"], schema, first / "eval.csv")
    if "pareto" in done:
        pool = [p.replace("{round}", "1") for p in plan["pool"]]
        stdout = (first / "pareto.stdout").read_text(encoding="utf-8")
        problems += checks.check_pareto(
            pool, workload.fairness_column, first / "pareto.csv", stdout, workload.utility_threshold, workload.k
        )
    reference = output_files(first)
    for record in rounds[1:]:
        if not complete(record, plan):
            continue
        round_dir = Path(plan["rounds_dir"]) / f"round{record['round']}"
        if output_files(round_dir) != reference:
            problems.append(f"round {record['round']} wrote different bytes from round 1")
    return problems


def complete(record: dict, plan: dict) -> bool:
    return all(record["steps"].get(step, {}).get("ok") == repeats for step, repeats, _ in plan["steps"])


def nan_cells(round_dir: Path) -> int:
    count = 0
    for path in [*round_dir.rglob("snapshots.csv"), round_dir / "eval.csv"]:
        if path.exists():
            count += sum(cell == "nan" for line in path.read_text(encoding="utf-8").splitlines() for cell in line.split(","))
    return count


def end_to_end(workload, files: dict, rounds: list[dict], probes: list[float], setup: list[tuple], peak_rss_kb: int):
    """Rates at the reference speed: each call's time is scaled by
    PROBE_REF_S over the mean of the speed probes timed just before and
    just after it; a rate is the work of one call over the mean scaled time.
    Returns (metrics, the same rates unscaled)."""
    pool_rows = sum(len(p.read_text(encoding="utf-8").splitlines()) - 1 for p in files["pool"])
    work = {
        "train": len(workload.lambdas) * workload.T,
        "evaluate": workload.eval_rows,
        "pareto": pool_rows + 2 * len(workload.lambdas),  # plus one train and one validation row per lambda
    }
    calls = [(step, t) for r in rounds for step in r["steps"] for t in r["steps"][step]["s"]]
    scaled = [(step, t * PROBE_REF_S * 2.0 / (probes[i] + probes[i + 1])) for i, (step, t) in enumerate(calls)]
    names = {"train": "train_iters_per_s", "evaluate": "evaluate_rows_per_s", "pareto": "pareto_points_per_s"}

    def rates(times):
        return {names[st]: work[st] / statistics.mean(t for s, t in times if s == st) for st in names}

    metrics = {
        "setup_s": statistics.median(t * PROBE_REF_S / p for t, p in setup),
        **rates(scaled),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    return metrics, {"setup_s": statistics.median(t for t, _ in setup), **rates(calls)}


def per_layer(rounds: list[dict], absent_spans: set[str], first_round_dir: Path) -> tuple[dict, list[str], list[str]]:
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    values: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    absent = []
    for record in traced:
        totals = Totals(record["totals"])
        for name, (_, _, fn) in PER_LAYER.items():
            values[name].append(fn(totals))
    problems = [
        f"per-layer count {name} differs between traced rounds: {values[name]}"
        for name in EXACT
        if len(set(values[name])) > 1
    ]
    probe = Totals({})
    for name, (_, _, fn) in PER_LAYER.items():
        probe.read.clear()
        fn(probe)
        if probe.read <= absent_spans:
            absent.append(name)
    out = {name: (v[0] if name in EXACT else statistics.median(v)) for name, v in values.items()}
    out["metrics.nan_values"] = nan_cells(first_round_dir)
    out["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - untraced[0]["wall_s"]
    return out, absent, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "fairpen" / "cli.py").is_file():
        fail(f"no fairpen sources under {ROOT / 'src'}; run from the root of a checkout")
    for var in THREAD_VARS:  # before numpy loads in this process too
        os.environ[var] = THREADS
    import checks
    import inputs

    if args.workload not in inputs.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(inputs.WORKLOADS)}")
    workload = inputs.WORKLOADS[args.workload]
    work = BENCH / "_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    files = inputs.write_inputs(workload, args.seed, work)
    env = child_env()

    setup = []  # (set-up time, speed probe) of each fresh process
    for _ in range(SETUP_REPEATS):
        out = run_child(["setup", str(files["schema"]), str(files["train_csv"]), str(args.seed)], env, 60)
        record = json.loads(out.strip().splitlines()[-1])
        setup.append((record["setup_s"], record["probe_s"]))

    plan = session_plan(workload, files, work, args.seconds, bool(args.trace))
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1), encoding="utf-8")
    run_child(["session", str(plan_path)], env, args.seconds + 90)
    session = json.loads(Path(plan["result"]).read_text(encoding="utf-8"))
    rounds = session["rounds"]

    attempted = sum(repeats for _, repeats, _ in plan["steps"]) * len(rounds)
    failed = attempted - sum(s["ok"] for r in rounds for s in r["steps"].values())
    for r in rounds:
        for step, s in r["steps"].items():
            if s["error"]:
                print(f"round {r['round']} {step} failed:\n{s['error']}", file=sys.stderr)
    problems = verify(workload, args.seed, files, plan, rounds, checks)

    if args.trace:
        values, absent, count_problems = per_layer(rounds, set(session["absent"]), Path(plan["rounds_dir"]) / "round1")
        problems += count_problems
        units = {name: spec[0] for name, spec in {**PER_LAYER, **EXTRA_LAYER}.items()}
    else:
        if not all(complete(r, plan) for r in rounds):
            fail("a round did not complete; nothing to measure")
        values, unscaled = end_to_end(workload, files, rounds, session["probe_s"], setup, session["peak_rss_kb"])
        absent = []
        units = END_TO_END
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": session["env"],
        "setup": setup,
        "rounds": [{"round": r["round"], "traced": r["traced"], **{k: v["s"] for k, v in r["steps"].items()}} for r in rounds],
        "absent": absent,
        "problems": problems,
        "unscaled": unscaled if not args.trace else None,
        "probe_s": session["probe_s"],
    }
    (work / "result.json").write_text(json.dumps(info, indent=1), encoding="utf-8")
    print("info " + json.dumps(info))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
