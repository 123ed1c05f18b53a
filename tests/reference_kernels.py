"""The original quadratic and per-row implementations of the metric kernels
and the disjoint sampler, kept as oracles for the sort-and-sweep versions
in ``fairpen.metrics`` and ``fairpen.data``; the original out-of-place
layer kernels and per-array SGD loop, kept as oracles for the in-place,
flat-buffer versions in ``fairpen.nn``; the original cell-by-cell CSV
parse, kept as the oracle for the blocked numpy reader in
``fairpen.data``; the original KS distance, which merges and sorts the
cell with its reference for every cell; the original ``fairpen pareto``,
which reads rows with ``csv.DictReader`` and sorts the points twice; and
the original whole-array inference pass, kept as the oracle for the
row-blocked one in ``fairpen.nn``; and the original dict-built plug-in
density-ratio table, kept as the oracle for the ``np.unique`` lookup in
``fairpen.penalties``."""

import csv
import itertools
from pathlib import Path

import numpy as np

from fairpen import metrics
from fairpen.data import _parse_cell, open_input
from fairpen.errors import ConfigError, DegenerateMetricError, DivergenceError


def parse_table_cellwise(path, schema):
    """The numeric table of a CSV file, one ``_parse_cell`` per cell, rows
    in file order and cells in schema order; a short row raises IndexError."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = [h.strip() for h in next(reader)]
        positions = {c.name: header.index(c.name) for c in schema}
        rows = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            rows.append([_parse_cell(path, row[positions[c.name]], c, row_no) for c in schema])
    return np.array(rows, dtype=np.float64)


def ks_distance_concat(sample, reference):
    """Max empirical-CDF gap over the sorted distinct values of both samples."""
    if len(sample) == 0 or len(reference) == 0:
        raise DegenerateMetricError("empty group in KS distance")
    ts = np.unique(np.concatenate([sample, reference]))
    if np.isnan(ts[-1]):  # NaN sorts last
        raise DegenerateMetricError("NaN score in KS distance")
    fs = np.searchsorted(np.sort(sample), ts, side="right") / len(sample)
    fr = np.searchsorted(np.sort(reference), ts, side="right") / len(reference)
    return float(np.abs(fs - fr).max())


def choose_threshold_loop(scores, labels):
    """Rescan every row for every candidate tau: O(n^2)."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    n1 = int((y == 1).sum())
    n0 = len(y) - n1
    distinct = np.unique(s)
    candidates = np.concatenate(([-np.inf], (distinct[:-1] + distinct[1:]) / 2.0, [np.inf]))
    best_tau, best_j = None, -np.inf
    for tau in candidates:
        yhat = s > tau
        j = (yhat[y == 1].sum() / n1) - (yhat[y == 0].sum() / n0)
        if j > best_j:
            best_tau, best_j = float(tau), j
    return best_tau


def average_ranks_loop(x):
    """Walk the sorted values run by run in Python."""
    order = np.argsort(x, kind="mergesort")
    sx = x[order]
    ranks = np.empty(len(x))
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j + 2) / 2.0  # 1-based average rank
        i = j + 1
    return ranks


def _dominates(q, p):
    """Utility maximized, fairness minimized, at least one strict."""
    return q[0] >= p[0] and q[1] <= p[1] and (q[0] > p[0] or q[1] < p[1])


def pareto_frontier_pairwise(points):
    unique = sorted(set((float(u), float(f)) for u, f in points))
    return [p for p in unique if not any(_dominates(q, p) for q in unique if q != p)]


def frontier_flags_pairwise(points):
    pts = [(float(u), float(f)) for u, f in points]
    unique = set(pts)
    return [not any(_dominates(q, p) for q in unique if q != p) for p in pts]


def pareto_dictreader(paths, column, out, utility_threshold=None, k=5):
    """``fairpen pareto`` with one ``csv.DictReader`` dict per row, pooled
    (utility, fairness) tuples, ``frontier_flags`` for the file and
    ``pareto_frontier`` (a second sort) for the top-k. Writes ``out`` and
    returns the top-k line (None without a threshold); raises ConfigError.
    A row whose utility or fairness parses to NaN in any spelling is skipped;
    an infinite one is an error, as are a header that repeats a name and a
    record whose cell count differs from the header's. The first data row
    names the utility to pool."""
    header_cols, first_utility = None, None
    points, meta = [], []
    for path in paths:
        with open_input(path) as f:
            reader = csv.DictReader(f)
            cols = tuple(reader.fieldnames or ())
            if header_cols is None:
                header_cols = cols
                if column not in cols:
                    raise ConfigError(f"fairness column {column!r} not in inputs")
                for name in ("iteration", "utility_name", "utility_value"):
                    if name not in cols:
                        raise ConfigError(f"{path}: row 1, column {name!r}: missing from the header")
                seen = set()
                for name in cols:
                    if name in seen:
                        raise ConfigError(f"{path}: row 1, column {name!r}: repeated in the header")
                    seen.add(name)
            elif cols != header_cols:
                extra = sorted(set(cols).symmetric_difference(header_cols))
                raise ConfigError(f"{path}: snapshot schema mismatch on columns {extra}")
            run_id = Path(path).stem
            for rec in reader:
                # DictReader keeps a long row's extra cells under None and
                # fills a short row's missing cells with None
                cells = len(cols) + len(rec.get(None, ())) - list(rec.values()).count(None)
                if cells != len(cols):
                    raise ConfigError(f"{path}: row {reader.line_num}: {cells} cells, but the header has {len(cols)}")
                fval, uval = rec[column], rec["utility_value"]
                if first_utility is None:
                    first_utility = rec["utility_name"]
                elif rec["utility_name"] != first_utility:
                    raise ConfigError(
                        f"{path}: row {reader.line_num}, column 'utility_name': "
                        f"{rec['utility_name']!r} cannot be pooled with {first_utility!r}"
                    )
                if fval in ("", "nan") or uval == "nan":
                    continue
                name = "utility_value"
                try:
                    utility = float(uval)
                    name = column
                    fairness = float(fval)
                except ValueError:
                    raise ConfigError(
                        f"{path}: row {reader.line_num}, column {name!r}: {rec[name]!r} is not a number"
                    ) from None
                if np.isnan(utility) or np.isnan(fairness):
                    continue
                for name, value in (("utility_value", utility), (column, fairness)):
                    if np.isinf(value):
                        raise ConfigError(
                            f"{path}: row {reader.line_num}, column {name!r}: non-finite cell {rec[name]!r}"
                        )
                points.append((-utility if first_utility == "mae" else utility, fairness))
                meta.append((run_id, rec["iteration"], utility, fairness))
    flags = metrics.frontier_flags(points)
    header = ["run_id", "iteration", "utility", "fairness_metric_name", "fairness_value", "on_frontier"]
    with open(out, "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerows(itertools.chain([header], (
            [run_id, it, repr(utility), column, repr(fval), int(flag)]
            for (run_id, it, utility, fval), flag in zip(meta, flags)
        )))
    if utility_threshold is None:
        return None
    threshold = -utility_threshold if first_utility == "mae" else utility_threshold
    summary = metrics.topk_fair_summary(metrics.pareto_frontier(points), threshold, k=k)
    return f"top-{k} fairness: mean={summary.mean!r} std={summary.std!r} count={summary.count}"


def disjoint_draw_setdiff(n, n_b, rng, sampler_rng):
    """Batch rows and resampled rows as the sampler drew them by building
    the full complement of the batch: O(n) per batch."""
    idx = rng.choice(n, size=n_b, replace=False)
    rest = np.setdiff1d(np.arange(n), idx)
    return idx, sampler_rng.choice(rest, size=n_b, replace=False)


def dense_forward(x, weights, bias):
    return x @ weights + bias


def batch_norm_forward_train(x, gamma, beta_shift, running_mean, running_var, momentum, epsilon):
    """(output, (x_hat, inv_std), new running mean, new running variance)."""
    mean = x.mean(axis=0)
    var = x.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + epsilon)
    x_hat = (x - mean) * inv_std
    running_mean = momentum * running_mean + (1 - momentum) * mean
    running_var = momentum * running_var + (1 - momentum) * var
    return gamma * x_hat + beta_shift, (x_hat, inv_std), running_mean, running_var


def batch_norm_forward_infer(x, gamma, beta_shift, running_mean, running_var, epsilon):
    x_hat = (x - running_mean) / np.sqrt(running_var + epsilon)
    return gamma * x_hat + beta_shift


def batch_norm_backward(grad_out, x_hat, inv_std, gamma):
    """(input gradient, gamma gradient, beta_shift gradient)."""
    n = grad_out.shape[0]
    grad_gamma = (grad_out * x_hat).sum(axis=0)
    grad_beta_shift = grad_out.sum(axis=0)
    g = grad_out * gamma
    grad_in = inv_std / n * (n * g - g.sum(axis=0) - x_hat * (g * x_hat).sum(axis=0))
    return grad_in, grad_gamma, grad_beta_shift


def sgd_step_loop(layers, learning_rate, maximize=False):
    """Update and check one parameter array at a time, then clear the gradients."""
    sign = 1.0 if maximize else -1.0
    for i, layer in enumerate(layers):
        for name in layer.PARAMS:
            param = getattr(layer, name)
            param += sign * learning_rate * getattr(layer, "grad_" + name)
            if not np.isfinite(param).all():
                raise DivergenceError(f"layer {i}: non-finite parameter after SGD step")
    for layer in layers:
        for name in layer.PARAMS:
            getattr(layer, "grad_" + name)[...] = 0.0


def pmf_ratio_table(A, Y):
    """{(a..., y): p(a,y) / (p(a)p(y))}, each probability a sum of 1/n per row."""
    n = len(Y)
    joint, marg_a, marg_y = {}, {}, {}
    for row, yv in zip(A, Y):
        ka, ky = tuple(row), float(yv)
        joint[ka + (ky,)] = joint.get(ka + (ky,), 0.0) + 1.0 / n
        marg_a[ka] = marg_a.get(ka, 0.0) + 1.0 / n
        marg_y[ky] = marg_y.get(ky, 0.0) + 1.0 / n
    return {key: p / (marg_a[key[:-1]] * marg_y[key[-1]]) for key, p in joint.items()}


def inference_forward_whole(net, x):
    """An inference pass over the whole array at once, layer after layer."""
    for layer in net.layers:
        x = layer.forward(x, train=False)
    return x
