"""Workload definitions and deterministic input generation.

Every file the program reads (CSV tables, schema, INI config, snapshot pool)
is written here from the workload seed before any clock starts. The same
seed gives byte-identical files. The true logit of every row is written to
``*_logit.npy`` so the checks can compare the trained scorer with the Bayes
scorer on the same rows; the program never reads those files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Sensitive attributes of mixed formats. ``region`` has more than two
# categories, so it is one-hot encoded and scored per group only.
SENSITIVE = {
    "sex": {"kind": "binary"},
    "age": {"kind": "continuous"},
    "region": {"kind": "categorical", "categories": ["north", "south", "east", "west"]},
}
REGION_P = (0.4, 0.3, 0.2, 0.1)
REGION_SHIFT = (-0.6, 0.0, 0.5, 1.0)
JOBS = ("clerk", "tech", "manager")
JOB_P = (0.5, 0.3, 0.2)
JOB_EFFECT = (0.0, 0.4, 0.9)
FEATURES = ("x1", "x2", "x3", "x4")
# y ~ Bernoulli(sigmoid(logit)), logit = COEF . (x1..x4) + job effect + INTERCEPT.
# y depends on the features only, so the Bayes scorer given the features is
# sigmoid(logit); the sensitive attributes act through x1..x3.
COEF = (1.2, 0.8, 0.6, -0.5)
INTERCEPT = -0.5


@dataclass(frozen=True)
class Workload:
    name: str
    criterion: str  # gsp | geo
    sampler: str  # within_batch | disjoint
    lambdas: tuple[float, ...]
    T: int
    L: int
    train_rows: int
    eval_rows: int
    sensitive: tuple[str, ...]
    pool_runs: int  # synthetic runs in the snapshot pool
    pool_snapshots: int  # snapshot iterations per pooled run, two splits each
    fairness_column: str
    utility_threshold: float
    eval_repeats: int  # evaluate and pareto are short: repeat them within a round
    pareto_repeats: int
    learning_rate: float = 0.005
    n_b: int = 100
    k: int = 5


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gsp-grid",
            criterion="gsp",
            sampler="within_batch",
            lambdas=(0.0, 0.9),
            T=300,
            L=1000,
            train_rows=5_000,
            eval_rows=6_000,
            sensitive=("sex", "age"),
            pool_runs=20,
            pool_snapshots=50,
            fairness_column="sex_ks_gsp",
            utility_threshold=0.78,
            eval_repeats=2,
            pareto_repeats=4,
            learning_rate=0.02,
        ),
        Workload(
            name="geo-disjoint",
            criterion="geo",
            sampler="disjoint",
            lambdas=(0.0, 0.9),
            T=200,
            L=400,
            train_rows=8_000,
            eval_rows=6_000,
            sensitive=("sex",),
            pool_runs=20,
            pool_snapshots=50,
            fairness_column="sex_ks_geo",
            utility_threshold=0.78,
            eval_repeats=2,
            pareto_repeats=4,
            learning_rate=0.04,
        ),
        Workload(
            name="eval-pareto",
            criterion="gsp",
            sampler="within_batch",
            lambdas=(0.5,),
            T=300,
            L=1000,
            train_rows=2_000,
            eval_rows=12_000,
            sensitive=("age", "region", "sex"),
            pool_runs=40,
            pool_snapshots=50,
            fairness_column="age_ks_gsp",
            utility_threshold=0.78,
            eval_repeats=1,
            pareto_repeats=1,
        ),
    )
}


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def draw_rows(rng: np.random.Generator, n: int, sensitive: tuple[str, ...]) -> dict:
    """Raw columns of n rows from the workload law, plus the true logit."""
    sex = (rng.random(n) < 0.5).astype(np.int64)
    age = rng.integers(18, 81, size=n)  # whole years, so the quantile grid sees ties
    region = rng.choice(len(REGION_P), size=n, p=REGION_P)
    job = rng.choice(len(JOBS), size=n, p=JOB_P)
    noise = rng.standard_normal((n, 4))
    x1 = noise[:, 0] + (1.5 * sex if "sex" in sensitive else 0.0)
    x2 = noise[:, 1] + (1.0 * (age - 49.0) / 18.0 if "age" in sensitive else 0.0)
    x3 = noise[:, 2] + (np.asarray(REGION_SHIFT)[region] if "region" in sensitive else 0.0)
    x4 = noise[:, 3]
    x = np.column_stack([x1, x2, x3, x4])
    logit = x @ np.asarray(COEF) + np.asarray(JOB_EFFECT)[job] + INTERCEPT
    y = (rng.random(n) < _sigmoid(logit)).astype(np.int64)
    return {
        "x": x,
        "job": job,
        "sensitive": {"sex": sex, "age": age, "region": region},
        "y": y,
        "logit": logit,
    }


def schema_entries(workload: Workload) -> list[dict]:
    entries = [{"name": f, "role": "feature", "kind": "continuous"} for f in FEATURES]
    entries.append({"name": "job", "role": "feature", "kind": "categorical", "categories": list(JOBS)})
    for name in workload.sensitive:
        entries.append({"name": name, "role": "sensitive", **SENSITIVE[name]})
    entries.append({"name": "y", "role": "outcome", "kind": "binary"})
    return entries


def write_table(path: Path, rows: dict, workload: Workload) -> None:
    header = list(FEATURES) + ["job"] + list(workload.sensitive) + ["y"]
    x, job, sens, y = rows["x"], rows["job"], rows["sensitive"], rows["y"]
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for i in range(len(y)):
            cells = [repr(float(v)) for v in x[i]] + [JOBS[job[i]]]
            for name in workload.sensitive:
                v = int(sens[name][i])
                cells.append(SENSITIVE["region"]["categories"][v] if name == "region" else str(v))
            cells.append(str(int(y[i])))
            writer.writerow(cells)


def snapshot_header(sensitive: tuple[str, ...]) -> list[str]:
    header = ["iteration", "split", "utility_name", "utility_value"]
    for name in sensitive:
        header += [f"{name}_sp", f"{name}_ks_gsp", f"{name}_eo", f"{name}_ks_geo"]
    return header


def write_pool(pool_dir: Path, rng: np.random.Generator, workload: Workload) -> list[Path]:
    """Synthetic snapshot logs of many runs, in the format ``fairpen train``
    writes. Values are rounded to three decimals and the two splits of an
    iteration share some cells, so the pool holds tied and duplicate points.
    Utility is never NaN: every pooled row comes from a two-class split."""
    pool_dir.mkdir(parents=True, exist_ok=True)
    header = snapshot_header(workload.sensitive)
    paths = []
    for r in range(workload.pool_runs):
        lam = r / max(workload.pool_runs - 1, 1)
        path = pool_dir / f"pool{r:03d}.csv"
        with open(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(header)
            for j in range(1, workload.pool_snapshots + 1):
                progress = 1.0 - np.exp(-j / 8.0)
                base_u = 0.62 + (0.22 - 0.08 * lam) * progress
                base_f = (0.55 - 0.4 * lam) * (0.4 + 0.6 * progress)
                for split in ("train", "validation"):
                    u = round(float(base_u + 0.015 * rng.standard_normal()), 3)
                    row = [str(100 * j), split, "auc", repr(u)]
                    for name in workload.sensitive:
                        vals = np.abs(base_f + 0.04 * rng.standard_normal(4)).round(3)
                        cells = [repr(float(v)) for v in vals]
                        if SENSITIVE[name]["kind"] == "categorical":
                            cells[0] = cells[2] = ""  # SP/EO are not defined for > 2 groups
                        row += cells
                    writer.writerow(row)
        paths.append(path)
    return paths


def write_inputs(workload: Workload, seed: int, work: Path) -> dict:
    """Write every input of one run under ``work``; return the file map."""
    data_ss, eval_ss, pool_ss = np.random.SeedSequence([seed, 20231110]).spawn(3)
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    train_rows = draw_rows(np.random.default_rng(data_ss), workload.train_rows, workload.sensitive)
    eval_rows = draw_rows(np.random.default_rng(eval_ss), workload.eval_rows, workload.sensitive)
    files = {
        "train_csv": inputs / "train.csv",
        "eval_csv": inputs / "eval.csv",
        "schema": inputs / "schema.json",
        "config": inputs / "train.ini",
        "train_logit": inputs / "train_logit.npy",
        "eval_logit": inputs / "eval_logit.npy",
    }
    write_table(files["train_csv"], train_rows, workload)
    write_table(files["eval_csv"], eval_rows, workload)
    files["schema"].write_text(json.dumps(schema_entries(workload), indent=1) + "\n", encoding="utf-8")
    files["config"].write_text(
        "[train]\n"
        f"t = {workload.T}\n"
        f"l = {workload.L}\n"
        f"n_b = {workload.n_b}\n"
        f"eval_interval = {workload.T}\n"
        f"learning_rate = {workload.learning_rate!r}\n"
        f"sampler = {workload.sampler}\n"
        f"seed = {seed}\n"
        f"lambda = {' '.join(repr(v) for v in workload.lambdas)}\n",
        encoding="utf-8",
    )
    np.save(files["train_logit"], train_rows["logit"])
    np.save(files["eval_logit"], eval_rows["logit"])
    files["pool"] = write_pool(inputs / "pool", np.random.default_rng(pool_ss), workload)
    return files


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Write one workload's inputs from its seed.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write inputs/ into")
    args = parser.parse_args()
    written = write_inputs(WORKLOADS[args.workload], args.seed, Path(args.out))
    print(f"wrote {written['train_csv'].parent}")
