"""The original quadratic and per-row implementations of the metric kernels
and the disjoint sampler, kept as oracles for the sort-and-sweep versions
in ``fairpen.metrics`` and ``fairpen.data``; the original out-of-place
layer kernels and per-array SGD loop, kept as oracles for the in-place,
flat-buffer versions in ``fairpen.nn``; the original cell-by-cell CSV
parse, kept as the oracle for the blocked numpy reader in
``fairpen.data``; the original KS distance, which merges and sorts the
cell with its reference for every cell, and the original gap-generic
condition sweep that sums it over the cells; the original ``fairpen pareto``,
which reads rows with ``csv.DictReader`` and sorts the points twice; the
textbook whole-array inference pass and the folded whole-array pass, kept as
oracles for the row-blocked folded one in ``fairpen.nn``; the masked
two-branch sigmoid, kept as the oracle for the branch-free one; the
train-mode batch-norm kernels that cache the centred block, in plain
out-of-place form, kept as oracles for the in-place ones; the narrow dense
and batch-norm pair, which works on the centred input and its covariance,
in out-of-place form; the out-of-place relu; the textbook dense and batch-norm layer methods, which apply and train
a bias that feeds batch-norm; the original dict-built plug-in
density-ratio table, kept as the oracle for the ``np.unique`` lookup in
``fairpen.penalties``; and the original contrast, with separate real and
fake blocks and a per-layer running update, kept as the oracle for the
one-block ``contrast`` and the flat running update of ``fairpen.nn``."""

import csv
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from fairpen import metrics
from fairpen.data import _parse_cell, open_input
from fairpen.errors import ConfigError, DegenerateMetricError, DivergenceError
from fairpen.nn import PROB_EPS, BatchNormLayer, DenseLayer


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


def sweep_with_gap(gap, values, a_conds, y=None, y_grid=None):
    """Sum the cell gaps over the (outcome condition x attribute condition)
    cells in that order, then divide by both divisors.

    ``gap(reference)`` prepares one reference and returns the function that
    scores a cell against it. Without ``y`` one outcome condition holds
    every row; with it, one per observed level of ``y``, or one Y <= q per
    value q of ``y_grid``. The reference is the outcome condition's rows,
    or ``values`` itself for the all-rows condition.
    """
    a_masks, a_div = a_conds
    if y is None:
        y_masks, y_div = [(" any", None)], 1
    elif y_grid is None:
        y_masks, y_div = [(f"={v:g}", y == v) for v in np.unique(y)], 1
    else:
        y_masks, y_div = [(f"<={q:g}", y <= q) for q in y_grid.values], len(y_grid.values)
    total = 0.0
    for y_name, y_mask in y_masks:
        cell_gap = gap(values if y_mask is None else _group(values, y_mask, f"reference, Y{y_name}"))
        for a_name, a_mask in a_masks:
            cell = a_mask if y_mask is None else a_mask & y_mask
            total += cell_gap(_group(values, cell, f"A{a_name}, Y{y_name}"))
    return float(total / a_div / y_div)


def _group(values, where, what):
    chosen = values[where]
    if len(chosen) == 0:
        raise DegenerateMetricError(f"empty group ({what})")
    return chosen


def _midpoint(a, b):
    """(a + b) / 2 of two Python floats, or a / 2 + min(b, largest float) / 2
    where that is not finite."""
    mid = (a + b) / 2.0
    return mid if math.isfinite(mid) else a / 2.0 + min(b, sys.float_info.max) / 2.0


def choose_threshold_loop(scores, labels):
    """Rescan every row for every candidate tau: O(n^2)."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    n1 = int((y == 1).sum())
    n0 = len(y) - n1
    distinct = np.unique(s).tolist()
    candidates = [-np.inf, *map(_midpoint, distinct[:-1], distinct[1:]), np.inf]
    best_tau, best_j = None, -np.inf
    for tau in candidates:
        yhat = s > tau
        j = (yhat[y == 1].sum() / n1) - (yhat[y != 1].sum() / n0)
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
                for name in (column, "iteration", "utility_name", "utility_value"):
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


def batch_norm_infer_affine(gamma, beta_shift, running_mean, running_var, epsilon, bias):
    """(s, shift): inference batch-norm of x + bias as x * s + shift."""
    s = gamma / np.sqrt(running_var + epsilon)
    return s, (bias - running_mean) * s + beta_shift


def sigmoid_masked(x):
    """The logistic function with one masked branch per sign."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def batch_norm_backward(grad_out, x_hat, inv_std, gamma):
    """(input gradient, gamma gradient, beta_shift gradient)."""
    n = grad_out.shape[0]
    grad_gamma = (grad_out * x_hat).sum(axis=0)
    grad_beta_shift = grad_out.sum(axis=0)
    g = grad_out * gamma
    grad_in = inv_std / n * (n * g - g.sum(axis=0) - x_hat * (g * x_hat).sum(axis=0))
    return grad_in, grad_gamma, grad_beta_shift


def batch_norm_forward_train_centred(x, gamma, beta_shift, running_mean, running_var, momentum, epsilon,
                                     input_bias=None):
    """The train-mode forward in the order ``BatchNormLayer`` runs it: the
    variance is one einsum pass over the centred block, which is cached with
    inv_std and scaled by gamma * inv_std for the output. ``input_bias``, the
    bias of a dense layer before it that train mode leaves out, is added to
    the batch mean for the running mean only. Returns (output, (centred,
    inv_std), new running mean, new running variance)."""
    n = len(x)
    mean = x.sum(axis=0) / n
    centred = x - mean
    var = np.einsum("ij,ij->j", centred, centred) / n
    inv_std = 1.0 / np.sqrt(var + epsilon)
    tracked = mean if input_bias is None else mean + input_bias
    running_mean = momentum * running_mean + (1 - momentum) * tracked
    running_var = momentum * running_var + (1 - momentum) * var
    return centred * (gamma * inv_std) + beta_shift, (centred, inv_std), running_mean, running_var


def batch_norm_backward_centred(grad_out, centred, inv_std, gamma):
    """The backward from the centred cache: sum(g * centred) scaled by
    inv_std is the gamma gradient, and the input gradient reuses it and the
    beta_shift gradient. Returns what ``batch_norm_backward`` does."""
    n = grad_out.shape[0]
    grad_gamma = np.einsum("ij,ij->j", grad_out, centred) * inv_std
    grad_beta_shift = grad_out.sum(axis=0)
    grad_in = (grad_out - centred * (grad_gamma * inv_std / n) - grad_beta_shift / n) * (gamma * inv_std)
    return grad_in, grad_gamma, grad_beta_shift


def dense_batch_norm_forward_narrow(x, weights, gamma, beta_shift, running_mean, running_var, momentum, epsilon,
                                    bias):
    """The train-mode forward of a narrow dense layer and the batch-norm
    layer after it, out of place, in the order the pair runs it: centre x,
    take the column variance of x W as a quadratic form in the covariance of
    x (clamped at 0), and apply W scaled by gamma * inv_std to the centred
    block. The running mean tracks mean(x) W + bias. Returns (output,
    (centred, covariance @ W, inv_std), new running mean, new running
    variance)."""
    n = len(x)
    mean = x.sum(axis=0) / n
    centred = x - mean
    cw = (centred.T @ centred) @ weights
    var = np.maximum(np.einsum("ij,ij->j", weights, cw) / n, 0.0)
    inv_std = 1.0 / np.sqrt(var + epsilon)
    running_mean = momentum * running_mean + (1 - momentum) * (mean @ weights + bias)
    running_var = momentum * running_var + (1 - momentum) * var
    return centred @ (weights * (gamma * inv_std)) + beta_shift, (centred, cw, inv_std), running_mean, running_var


def dense_batch_norm_backward_narrow(grad_out, centred, cw, inv_std, weights, gamma):
    """The narrow pair's backward from the forward's cache, out of place:
    (input gradient, weights gradient, gamma gradient, beta_shift gradient)."""
    n = len(grad_out)
    g_sum = grad_out.sum(axis=0)
    g_proj = centred.T @ grad_out
    grad_gamma = np.einsum("ij,ij->j", weights, g_proj) * inv_std
    scale = gamma * inv_std
    c = grad_gamma * inv_std / n
    scaled = weights * scale
    grad_in = grad_out @ scaled.T - (g_sum * scale / n) @ weights.T - centred @ ((scaled * c) @ weights.T)
    return grad_in, (g_proj - cw * c) * scale, grad_gamma, g_sum


def relu_forward(x):
    return np.maximum(x, 0.0)


def relu_backward(grad_out, x):
    """The relu gradient masked by the layer's input x."""
    return grad_out * (x > 0)


def dense_layer_forward_textbook(layer, x, train):
    """``DenseLayer.forward`` that always adds the bias, to be set on the class."""
    layer._cache = x if train else None
    return dense_forward(x, layer.weights, layer.bias)


def dense_layer_backward_textbook(layer, grad_out, params=True):
    """``DenseLayer.backward`` that always trains the bias, to be set on the class."""
    if params:
        layer.grad_weights += layer._cache.T @ grad_out
        layer.grad_bias += grad_out.sum(axis=0)
    return grad_out @ layer.weights.T


def batch_norm_layer_forward_textbook(layer, x, train, fold=None):
    """``BatchNormLayer.forward`` with the textbook kernels, to be set on the
    class: the dense layer it runs by its own forward, then batch-norm,
    unfolded at inference. In train mode it writes the batch mean and
    variance for ``Mlp.forward``'s running update."""
    x = layer.dense.forward(x, train)
    if not train:
        layer._cache = None
        return batch_norm_forward_infer(x, layer.gamma, layer.beta_shift, layer.running_mean,
                                        layer.running_var, layer.epsilon)
    out, layer._cache, _, _ = batch_norm_forward_train(
        x, layer.gamma, layer.beta_shift, layer.running_mean, layer.running_var, layer.momentum, layer.epsilon)
    layer.batch_mean[...], layer.batch_var[...] = x.mean(axis=0), x.var(axis=0)
    return out


def batch_norm_layer_backward_textbook(layer, grad_out, params=True):
    """``BatchNormLayer.backward`` with the textbook kernel, to be set on the
    class; the dense layer it runs takes the gradient on."""
    grad_in, grad_gamma, grad_beta_shift = batch_norm_backward(grad_out, *layer._cache, layer.gamma)
    if params:
        layer.grad_gamma += grad_gamma
        layer.grad_beta_shift += grad_beta_shift
    return layer.dense.backward(grad_in, params)


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


def contrast_reference(net, real, fake, w=1.0, params=True):
    """The original ``contrast``: separate real and fake blocks stacked by
    ``np.vstack``, the objective's value computed on every call, and each
    batch-norm layer's running statistics moved by its own formula,
    momentum * running + (1 - momentum) * batch, over what the flat update
    wrote. Returns (value, None) with ``params``, else (value, input
    gradient summed over both halves)."""
    real = np.asarray(real, dtype=np.float64)
    fake = np.asarray(fake, dtype=np.float64)
    n = len(real)
    w = np.asarray(w, dtype=np.float64).reshape(-1, 1)
    norms = [layer for layer in net.layers if isinstance(layer, BatchNormLayer)]
    before = [(layer.running_mean.copy(), layer.running_var.copy()) for layer in norms]
    p = np.clip(net.forward(np.vstack([real, fake]), train=True), PROB_EPS, 1.0 - PROB_EPS)
    for layer, (mean, var) in zip(norms, before):
        layer.running_mean[...] = layer.momentum * mean + (1 - layer.momentum) * layer.batch_mean
        layer.running_var[...] = layer.momentum * var + (1 - layer.momentum) * layer.batch_var
    p_real, p_fake = p[:n], p[n:]
    upstream = np.vstack([1.0 / (n * p_real), -w / (n * (1.0 - p_fake))])
    grad_in = net.backward(upstream, params)
    value = float(np.mean(np.log(p_real) + w * np.log(1.0 - p_fake)))
    return value, None if params else grad_in[:n] + grad_in[n:]


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


def _bn_args(bn):
    return bn.gamma, bn.beta_shift, bn.running_mean, bn.running_var, bn.epsilon


def inference_forward_whole(net, x):
    """The textbook inference pass over the whole array at once, layer after
    layer: batch-norm as ``batch_norm_forward_infer``, every other layer by
    its own inference forward."""
    for layer in net.layers:
        if isinstance(layer, BatchNormLayer):
            x = batch_norm_forward_infer(x, *_bn_args(layer))
        else:
            x = layer.forward(x, train=False)
    return x


def inference_forward_folded(net, x):
    """The folded inference pass over the whole array at once, out of place:
    a dense layer followed by a batch-norm layer is one affine map with
    weights * s and bias (bias - running_mean) * s + beta_shift."""
    layers = net.layers
    for layer, after in zip(layers, [*layers[1:], None]):
        if isinstance(layer, DenseLayer) and isinstance(after, BatchNormLayer):
            s, shift = batch_norm_infer_affine(*_bn_args(after), bias=layer.bias)
            x = x @ (layer.weights * s) + shift
        elif not isinstance(layer, BatchNormLayer):  # a batch-norm layer is folded into the dense one above
            x = layer.forward(x, train=False)
    return x
