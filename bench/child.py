"""Fresh-process side of the benchmark.

    python3 child.py setup SCHEMA CSV SEED
        Time ``import fairpen.cli`` plus load_schema, load_csv and
        split_train_val on one file, then the speed probe; print
        {"setup_s": ..., "probe_s": ...}.
    python3 child.py session PLAN.json
        Run rounds of CLI calls (train, evaluate, pareto) through
        ``fairpen.cli.main`` as PLAN says, timing the speed probe before
        the first call and after every call, and write the timings to the
        plan's result file. With tracing, the first round runs untraced and
        the later rounds run traced.

The parent sets the thread variables and PYTHONPATH before this process
starts, so numpy sees them when it loads.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def setup(schema_path: str, csv_path: str, seed: str) -> None:
    start = time.perf_counter()
    import fairpen.cli as cli

    dataset = cli.load_csv(csv_path, cli.load_schema(schema_path))
    cli.split_train_val(dataset, fraction=0.8, seed=int(seed))
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "probe_s": speed_probe()}))


def blas_info() -> dict:
    """OpenBLAS version and the thread count it actually uses."""
    import ctypes

    import numpy as np

    info = {"numpy": np.__version__, "blas": None, "blas_threads": None}
    try:
        info["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def machine_info() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "machine": platform.machine(),
        "cpu": model,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "threads_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def speed_probe(repeats: int = 3) -> float:
    """Median time of a fixed piece of work that does not touch the
    program: Python-level loops, small dense/batch-norm style numpy calls
    and a sort, the kinds of work the program does. It tracks how fast this
    core runs right now."""
    import numpy as np

    rng = np.random.default_rng(0)
    x, w, v = rng.standard_normal((200, 64)), rng.standard_normal((64, 64)) * 0.1, rng.random(80_000)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(160):
            h = x @ w
            x_hat = (h - h.mean(axis=0)) / np.sqrt(h.var(axis=0) + 1e-5)
            x.T @ np.maximum(x_hat, 0.0)
        np.searchsorted(np.sort(v), v[:8000])
        sum(1 for a in range(80_000) for b in (a, -a) if a > b)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_round(cli, plan: dict, number: int, round_dir: Path, probes: list) -> dict:
    """One round: each step is one ``fairpen`` command run ``repeats``
    times in a row, each run timed on its own and followed by one speed
    probe (appended to ``probes``)."""
    round_dir.mkdir(parents=True, exist_ok=True)
    steps = {}
    for step, repeats, argv in plan["steps"]:
        argv = [a.replace("{round}", str(number)) for a in argv]
        record = steps[step] = {"s": [], "ok": 0, "error": None}
        for _ in range(repeats):
            out = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    rc = cli.main(argv)
            except Exception:  # a crash is a failed operation, not a failed run
                rc, record["error"] = None, traceback.format_exc()
            record["s"].append(time.perf_counter() - start)
            probes.append(speed_probe(1))
            (round_dir / f"{step}.stdout").write_text(out.getvalue(), encoding="utf-8")
            if rc != 0:
                record["error"] = record["error"] or f"exit code {rc}"
                break
            record["ok"] += 1
        if record["ok"] < repeats:
            break  # later steps read this step's outputs
    return {"round": number, "steps": steps, "wall_s": sum(sum(s["s"]) for s in steps.values())}


def session(plan_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    if hasattr(os, "sched_setaffinity"):  # stay on one core: no migrations mid-step
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import fairpen.cli as cli

    from tracer import Tracer

    rounds_dir = Path(plan["rounds_dir"])
    seconds, min_rounds = plan["seconds"], plan["min_rounds"]
    tracer = Tracer() if plan["trace"] else None
    rounds = []
    probes = [speed_probe()]
    start = time.perf_counter()
    while True:
        number = len(rounds) + 1
        traced = tracer is not None and number > 1
        if traced and number == 2:
            tracer.install()
        if traced:
            tracer.reset()
        record = run_round(cli, plan, number, rounds_dir / f"round{number}", probes)
        record["traced"] = traced
        if traced:
            record["totals"] = tracer.totals
            if number == 2:
                tracer.write_spans(rounds_dir / "spans.csv")
        rounds.append(record)
        # Stop before a round that would end past the run length, once the
        # minimum is met: min_rounds untraced, or one traced round.
        measured = [r["wall_s"] for r in rounds if r["traced"] == traced]
        elapsed = time.perf_counter() - start
        enough = traced or (tracer is None and len(measured) >= min_rounds)
        if enough and elapsed + statistics.median(measured) > seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    result = {
        "rounds": rounds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probe_s": probes,
        "absent": tracer.absent if tracer is not None else [],
        "env": {**machine_info(), **blas_info()},
    }
    Path(plan["result"]).write_text(json.dumps(result, indent=1), encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(*sys.argv[2:5])
    elif sys.argv[1] == "session":
        session(sys.argv[2])
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
