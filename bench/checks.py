"""Independent checks of the program's outputs.

Nothing here imports the program. Each check recomputes what an output
should hold from the inputs with its own numpy code and returns a list of
problems (empty when the output is right):

- ``check_evaluate``: scores from the checkpoint file by a plain forward
  pass, then AUC by a rank sum, the Youden threshold by a sorted sweep and
  every SP, EO and KS cell of the evaluation CSV.
- ``check_pareto``: frontier flags by a sort and a running minimum, and the
  top-k summary line.
- ``check_train``: the snapshot layout and ranges, the lambda=0 scorer
  against the Bayes scorer of the data law, the fairness gain of the largest
  lambda and, for the outcome-conditioned criterion, the density-ratio table.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

TOL = 1e-9  # recomputed metric cells vs the program's CSV cells
BAYES_AUC_MARGIN = 0.03  # |validation AUC at lambda=0 - Bayes AUC on the same rows|
BETA_TOL = 0.3  # |beta_table ratio - empirical p(a,y)/(p(a)p(y)) of the training split|
CKPT_MAGIC = "FAIRPEN-CKPT-v1"
SPLIT_FRACTION = 0.8


# ---------------------------------------------------------------- encoding


def read_table(path, schema: list[dict]):
    """Design matrix, sensitive columns and outcome of a CSV, encoded as the
    documented conventions say: features one-hot (more than two categories)
    and z-scored by the file's own statistics; sensitive values label-encoded
    and unscaled."""
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = [h.strip() for h in next(reader)]
        rows = [r for r in reader if r]
    pos = {name: i for i, name in enumerate(header)}

    def column(entry):
        cells = [r[pos[entry["name"]]].strip() for r in rows]
        if entry["kind"] == "categorical":
            return np.array([entry["categories"].index(c) for c in cells], dtype=np.float64)
        return np.array([float(c) for c in cells], dtype=np.float64)

    blocks = []
    sensitive = {}
    y = None
    for entry in schema:
        v = column(entry)
        if entry["role"] == "feature":
            if entry["kind"] == "categorical" and len(entry["categories"]) > 2:
                blocks += [(v == k).astype(np.float64) for k in range(len(entry["categories"]))]
            else:
                blocks.append(v)
        elif entry["role"] == "sensitive":
            sensitive[entry["name"]] = (entry["kind"], v)
        else:
            y = v
    raw = np.column_stack(blocks)
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)
    return (raw - mean) / np.where(std > 0, std, 1.0), sensitive, y


def read_checkpoint(path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        if f.readline().rstrip("\n") != CKPT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint")
        spec = json.load(f)

    def arr(d):
        return np.array([float.fromhex(h) for h in d["hex"]], dtype=np.float64).reshape(d["shape"])

    layers = []
    for s in spec["layers"]:
        layer = {"kind": s["kind"]}
        for key, value in s.items():
            layer[key] = arr(value) if isinstance(value, dict) else value
        layers.append(layer)
    return layers


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def forward(layers: list[dict], x: np.ndarray) -> np.ndarray:
    """Inference pass: dense, batch-norm on running statistics, activations."""
    for layer in layers:
        if layer["kind"] == "dense":
            x = x @ layer["weights"] + layer["bias"]
        elif layer["kind"] == "batch_norm":
            x_hat = (x - layer["running_mean"]) / np.sqrt(layer["running_var"] + layer["epsilon"])
            x = layer["gamma"] * x_hat + layer["beta_shift"]
        elif layer["fn"] == "relu":
            x = np.maximum(x, 0.0)
        elif layer["fn"] == "sigmoid":
            x = _sigmoid(x)
    return x[:, 0]


# ----------------------------------------------------------------- metrics


def auc(scores: np.ndarray, y: np.ndarray) -> float:
    """Rank-sum AUC; tied scores share their average rank."""
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], len(s)]  # exclusive
    avg = (starts + ends + 1) / 2.0  # mean of 1-based ranks starts+1 .. ends
    ranks = np.empty(len(s))
    ranks[order] = np.repeat(avg, ends - starts)
    pos = y == 1
    n1, n0 = int(pos.sum()), int((~pos).sum())
    return float((ranks[pos].sum() - n1 * (n1 + 1) / 2.0) / (n1 * n0))


def youden(scores: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(tau, J) for yhat = 1(score > tau): the smallest tau among the
    midpoints of consecutive distinct scores and +/-inf that maximizes
    J = TPR - FPR, found by one sorted cumulative sweep."""
    distinct, inverse = np.unique(scores, return_inverse=True)
    pos_at = np.bincount(inverse, weights=(y == 1), minlength=len(distinct)).astype(np.int64)
    neg_at = np.bincount(inverse, weights=(y != 1), minlength=len(distinct)).astype(np.int64)
    n1, n0 = int(pos_at.sum()), int(neg_at.sum())
    # candidate k keeps scores >= distinct[k]; candidate len(distinct) keeps none
    tp = np.r_[np.cumsum(pos_at[::-1])[::-1], 0]
    fp = np.r_[np.cumsum(neg_at[::-1])[::-1], 0]
    j = tp / n1 - fp / n0
    k = int(np.argmax(j))
    taus = np.concatenate(([-np.inf], (distinct[:-1] + distinct[1:]) / 2.0, [np.inf]))
    return float(taus[k]), float(j[k])


def ks(sample: np.ndarray, ref: np.ndarray) -> float:
    """Largest gap between two empirical CDFs, by a sweep over the merged
    sorted values evaluated at the end of each block of equal values."""
    if len(sample) == 0 or len(ref) == 0:
        return math.nan
    values = np.concatenate([sample, ref])
    steps = np.concatenate([np.full(len(sample), 1.0 / len(sample)), np.full(len(ref), -1.0 / len(ref))])
    order = np.argsort(values, kind="stable")
    v = values[order]
    cdf_gap = np.cumsum(steps[order])
    block_end = np.r_[v[1:] != v[:-1], True]
    return float(np.abs(cdf_gap[block_end]).max())


def quantile_grid(values: np.ndarray) -> list[float]:
    """Nearest-rank 10%..90% quantiles: sorted value at 1-based ceil(r n / 100)."""
    v = np.sort(values)
    return [float(v[max(math.ceil(r * len(v) / 100) - 1, 0)]) for r in range(10, 100, 10)]


def _ratio_gap(num: float, den: float) -> float:
    if math.isnan(num) or math.isnan(den) or den == 0.0:
        return math.nan
    return abs(num / den - 1.0)


def _rate(yhat: np.ndarray, mask: np.ndarray) -> float:
    return float(yhat[mask].mean()) if mask.any() else math.nan


def expected_cells(scores: np.ndarray, y: np.ndarray, sensitive: dict) -> dict:
    """Every cell of one evaluation row, keyed by its CSV column; None marks
    a metric that does not apply (written as an empty cell)."""
    tau, _ = youden(scores, y)
    yhat = (scores > tau).astype(np.float64)
    classes = np.unique(y)
    cells = {"utility_value": auc(scores, y)}
    for name, (kind, a) in sensitive.items():
        sp = eo = None
        if kind == "continuous":
            grid = quantile_grid(a)
            overall = float(yhat.mean())
            sp = float(np.mean([_ratio_gap(_rate(yhat, a <= q), overall) for q in grid]))
            eo = sum(
                _ratio_gap(_rate(yhat, (a <= q) & (y == c)), _rate(yhat, y == c))
                for c in classes
                for q in grid
            ) / len(grid)
            ks_gsp = float(np.mean([ks(scores[a <= q], scores) for q in grid]))
            ks_geo = sum(
                np.mean([ks(scores[(y == c) & (a <= q)], scores[y == c]) for q in grid])
                for c in classes
            )
        else:
            groups = np.unique(a)
            ks_gsp = sum(ks(scores[a == g], scores) for g in groups)
            ks_geo = sum(ks(scores[(y == c) & (a == g)], scores[y == c]) for c in classes for g in groups)
            if set(groups) <= {0.0, 1.0}:
                sp = _ratio_gap(_rate(yhat, a == 1), _rate(yhat, a == 0))
                eo = sum(
                    _ratio_gap(_rate(yhat, (a == 1) & (y == c)), _rate(yhat, (a == 0) & (y == c)))
                    for c in classes
                )
        cells.update({f"{name}_sp": sp, f"{name}_ks_gsp": ks_gsp, f"{name}_eo": eo, f"{name}_ks_geo": float(ks_geo)})
    return cells


def _same(expected, cell: str) -> bool:
    if expected is None:
        return cell == ""
    if cell == "":
        return False
    got = float(cell)
    if math.isnan(expected) or math.isnan(got):
        return math.isnan(expected) and math.isnan(got)
    return abs(got - expected) <= TOL


# ------------------------------------------------------------------ checks


def check_evaluate(checkpoint, eval_csv, schema: list[dict], out_csv) -> list[str]:
    x, sensitive, y = read_table(eval_csv, schema)
    scores = forward(read_checkpoint(checkpoint), x)
    with open(out_csv, encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != 1 or rows[0]["split"] != "evaluate" or rows[0]["utility_name"] != "auc":
        return [f"{out_csv}: expected one 'evaluate' row with AUC utility"]
    problems = []
    tau, j_best = youden(scores, y)
    yhat = scores > tau
    j_at_tau = yhat[y == 1].sum() / (y == 1).sum() - yhat[y != 1].sum() / (y != 1).sum()
    if j_at_tau != j_best:
        problems.append(f"Youden J at tau={tau!r} is {j_at_tau!r}, sweep maximum {j_best!r}")
    for column, expected in expected_cells(scores, y, sensitive).items():
        if not _same(expected, rows[0][column]):
            problems.append(f"{out_csv}: {column} is {rows[0][column]!r}, recomputed {expected!r}")
    return problems


def frontier_flags(points: list[tuple[float, float]]) -> dict:
    """Frontier membership of each distinct (utility up, fairness down)
    point: sort by utility descending, then keep a point when it is the
    lowest fairness of its utility and strictly below every fairness seen at
    a higher utility."""
    flags = {}
    best = math.inf
    ordered = sorted(set(points), key=lambda p: (-p[0], p[1]))
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j][0] == ordered[i][0]:
            j += 1
        group_min = ordered[i][1]
        for p in ordered[i:j]:
            flags[p] = p[1] == group_min and group_min < best
        best = min(best, group_min)
        i = j
    return flags


def check_pareto(pool_paths, column: str, out_csv, stdout: str, threshold: float, k: int) -> list[str]:
    expected = []
    for path in pool_paths:
        with open(path, encoding="utf-8", newline="") as f:
            for rec in csv.DictReader(f):
                if rec[column] in ("", "nan"):
                    continue
                u = float(rec["utility_value"])
                signed = -u if rec["utility_name"] == "mae" else u
                expected.append((Path(path).stem, rec["iteration"], u, (signed, float(rec[column]))))
    flags = frontier_flags([e[3] for e in expected])
    with open(out_csv, encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != len(expected):
        return [f"{out_csv}: {len(rows)} rows, expected {len(expected)}"]
    problems = []
    for i, (row, (run_id, it, u, point)) in enumerate(zip(rows, expected)):
        got = (row["run_id"], row["iteration"], float(row["utility"]), float(row["fairness_value"]), row["on_frontier"])
        want = (run_id, it, u, point[1], str(int(flags[point])))
        if got != want:
            problems.append(f"{out_csv} row {i + 2}: {got} != {want}")
            if len(problems) > 5:
                break
    frontier = [p for p, on in flags.items() if on]
    top = sorted(f for u, f in frontier if u >= threshold)[:k]
    mean, std = (float(np.mean(top)), float(np.std(top))) if top else (math.nan, math.nan)
    match = re.search(r"top-\d+ fairness: mean=(\S+) std=(\S+) count=(\d+)", stdout)
    if not match:
        problems.append("pareto printed no top-k summary")
    else:
        got_mean, got_std, got_count = float(match[1]), float(match[2]), int(match[3])
        if got_count != len(top) or not (
            (got_mean == mean or (math.isnan(got_mean) and math.isnan(mean)))
            and (got_std == std or (math.isnan(got_std) and math.isnan(std)))
        ):
            problems.append(f"top-k summary {match[0]!r}, recomputed mean={mean!r} std={std!r} count={len(top)}")
    return problems


def snapshot_iterations(T: int, interval: int) -> list[int]:
    its = list(range(interval, T + 1, interval))
    return its if its and its[-1] == T else its + [T]


def train_split(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of the seeded 80/20 split the trainer documents."""
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(np.floor(SPLIT_FRACTION * n))
    return order[:n_train], order[n_train:]


def _cell_value(text: str) -> float:
    # beta_table.csv cells may be written as the repr of a numpy scalar
    m = re.fullmatch(r"np\.float64\((.*)\)", text)
    return float(m[1] if m else text)


def check_beta_table(path, a: np.ndarray, y: np.ndarray) -> list[str]:
    """Each (a, y) ratio against the empirical p(a,y)/(p(a)p(y))."""
    if not Path(path).exists():
        return [f"{path}: missing"]
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))[1:]
    cells = sorted({(av, yv) for av, yv in zip(a, y)})
    if sorted((_cell_value(r[0]), _cell_value(r[1])) for r in rows) != cells:
        return [f"{path}: cells {[r[:2] for r in rows]} != observed {cells}"]
    problems = []
    for r in rows:
        av, yv, ratio = _cell_value(r[0]), _cell_value(r[1]), float(r[2])
        emp = np.mean((a == av) & (y == yv)) / (np.mean(a == av) * np.mean(y == yv))
        if not abs(ratio - emp) <= BETA_TOL or (ratio - 1.0) * (emp - 1.0) <= 0:
            problems.append(f"{path}: beta{(av, yv)} = {ratio!r}, empirical {emp!r}")
    return problems


def _read_snapshots(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def check_train(run_dir, workload, seed: int, train_csv, schema: list[dict], train_logit) -> list[str]:
    run_dir = Path(run_dir)
    _, sensitive, y = read_table(train_csv, schema)
    train_idx, val_idx = train_split(len(y), seed)
    its = snapshot_iterations(workload.T, workload.T)
    primary = "ks_gsp" if workload.criterion == "gsp" else "ks_geo"
    problems = []
    final_val = {}
    for lam in workload.lambdas:
        lam_dir = run_dir / f"lambda={lam:g}"
        rows = _read_snapshots(lam_dir / "snapshots.csv")
        layout = [(r["iteration"], r["split"]) for r in rows]
        want = [(str(t), s) for t in its for s in ("train", "validation")]
        if layout != want:
            problems.append(f"{lam_dir}/snapshots.csv: rows {layout} != {want}")
            continue
        for r in rows:
            if not 0.0 <= float(r["utility_value"]) <= 1.0:
                problems.append(f"{lam_dir}: AUC {r['utility_value']} outside [0, 1]")
            for name, (kind, a) in sensitive.items():
                groups = 1 if kind == "continuous" else len(np.unique(a))
                for col, bound in (("ks_gsp", groups), ("ks_geo", groups * len(np.unique(y)))):
                    v = float(r[f"{name}_{col}"])
                    if not 0.0 <= v <= bound:
                        problems.append(f"{lam_dir}: {name}_{col}={v} outside [0, {bound}]")
        final_val[lam] = rows[-1]
        if workload.criterion == "geo":
            a_train = sensitive[workload.sensitive[0]][1][train_idx]
            problems += check_beta_table(lam_dir / "beta_table.csv", a_train, y[train_idx])
    if problems or 0.0 not in workload.lambdas:
        return problems
    bayes = auc(np.load(train_logit)[val_idx], y[val_idx])
    got = float(final_val[0.0]["utility_value"])
    if abs(got - bayes) > BAYES_AUC_MARGIN:
        problems.append(f"validation AUC at lambda=0 is {got:.4f}, Bayes AUC {bayes:.4f}")
    gaps = {lam: sum(float(r[f"{n}_{primary}"]) for n in workload.sensitive) for lam, r in final_val.items()}
    top = max(workload.lambdas)
    if not gaps[top] < gaps[0.0]:
        problems.append(f"validation {primary} sum at lambda={top:g} is {gaps[top]:.4f}, at 0 {gaps[0.0]:.4f}")
    return problems
