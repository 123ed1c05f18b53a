"""The sort-and-sweep metric kernels, the disjoint sampler, the in-place,
flat-buffer network kernels, the row-blocked inference pass, the
blocked numpy CSV reader, the KS gaps that rank the scores once
per call and the one-pass ``fairpen pareto`` against the original
implementations in ``reference_kernels``: results must be equal bit for
bit, not approximately. The train-mode dense and batch-norm kernels (no
bias before batch-norm, the centred cache) and the in-place relu equal their
own references bit for bit; against the textbook dense and batch-norm pair
they are held to a rounding tolerance, per call and over a training run. The
inference pass, which folds batch-norm into the dense layer before it,
equals the folded whole-array reference bit for bit and is held to
``FOLD_TOL`` against the textbook pass."""

import contextlib
import csv
import io
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import binary_toy_dataset, gradients, parameters
from fairpen import metrics
from fairpen import data
from fairpen.data import ColumnSchema, TabularDataset, load_csv, minibatch_construct, rng_streams, split_train_val
from fairpen.cli import main
from fairpen.errors import ConfigError, DegenerateMetricError, IngestionError
from fairpen.nn import INFER_BLOCK, ActivationLayer, BatchNormLayer, DenseLayer, Mlp, mlp, sigmoid
from fairpen.training import TrainConfig, snapshot_csv_rows, train
from reference_kernels import (
    average_ranks_loop,
    batch_norm_backward,
    batch_norm_backward_centred,
    batch_norm_forward_infer,
    batch_norm_forward_train,
    batch_norm_forward_train_centred,
    batch_norm_layer_backward_textbook,
    batch_norm_layer_forward_textbook,
    choose_threshold_loop,
    dense_batch_norm_backward_narrow,
    dense_batch_norm_forward_narrow,
    dense_forward,
    dense_layer_backward_textbook,
    dense_layer_forward_textbook,
    disjoint_draw_setdiff,
    frontier_flags_pairwise,
    inference_forward_folded,
    inference_forward_whole,
    ks_distance_concat,
    pareto_frontier_pairwise,
    pareto_dictreader,
    parse_table_cellwise,
    relu_backward,
    relu_forward,
    sgd_step_loop,
    sigmoid_masked,
    sweep_with_gap,
)


def _score_sets(seed):
    """Scores with many ties, adjacent doubles, +/-inf and overflowing midpoints."""
    rng = np.random.default_rng(seed)
    for _ in range(40):
        n = int(rng.integers(2, 300))
        yield np.round(rng.random(n), int(rng.integers(0, 3)))
    for _ in range(40):
        base = rng.random(int(rng.integers(1, 20)))
        nxt = np.nextafter(base, np.inf)
        ladder = np.concatenate([base, nxt, np.nextafter(nxt, np.inf), np.nextafter(base, -np.inf)])
        yield rng.choice(ladder, size=int(rng.integers(2, 200)))
    extremes = np.array([-np.inf, np.inf, -1.7e308, 1.7e308, -0.0, 0.0, 0.5, np.nextafter(0.5, 1)])
    for _ in range(40):
        yield rng.choice(extremes, size=int(rng.integers(2, 60)))


def _labels(rng, n):
    """0/1 labels with both present; in one set of four some 0s become 2, a
    third label that the rank metrics count as a negative."""
    y = rng.integers(0, 2, n)
    if rng.random() < 0.25:
        y[(y == 0) & (rng.random(n) < 0.5)] = 2
    y[0], y[-1] = 0, 1  # both classes present
    return y


def test_choose_threshold_equals_loop():
    rng = np.random.default_rng(100)
    for s in _score_sets(0):
        y = _labels(rng, len(s))
        assert metrics.choose_threshold(s, y) == choose_threshold_loop(s, y)


def test_auc_equals_loop_ranks():
    rng = np.random.default_rng(101)
    for s in _score_sets(2):
        y = _labels(rng, len(s))
        pos = y == 1
        n1, n0 = int(pos.sum()), int((~pos).sum())
        expected = float((average_ranks_loop(s)[pos].sum() - n1 * (n1 + 1) / 2.0) / (n1 * n0))
        assert metrics.auc(s, y) == expected


def _point_sets(seed):
    rng = np.random.default_rng(seed)
    yield []
    yield [(0.5, 0.5)]
    for _ in range(60):
        n = int(rng.integers(1, 120))
        yield [tuple(p) for p in np.round(rng.random((n, 2)), int(rng.integers(0, 3)))]
    extremes = [-np.inf, np.inf, -0.0, 0.0, 0.25, 0.5]
    for _ in range(60):
        n = int(rng.integers(1, 40))
        yield [(float(rng.choice(extremes)), float(rng.choice(extremes))) for _ in range(n)]


def test_frontier_flags_equal_pairwise():
    for pts in _point_sets(3):
        assert metrics.frontier_flags(pts) == frontier_flags_pairwise(pts)


def test_pareto_frontier_equals_pairwise():
    for pts in _point_sets(4):
        assert metrics.pareto_frontier(pts) == pareto_frontier_pairwise(pts)


def test_frontier_flags_nan_points_equal_pairwise():
    # a NaN coordinate never dominates and is never dominated
    pts = [(np.nan, 0.0), (0.9, 0.1), (0.8, 0.5), (0.95, np.nan), (0.9, 0.1)]
    assert metrics.frontier_flags(pts) == frontier_flags_pairwise(pts) == [True, True, False, True, True]


def test_frontier_flags_of_array_equal_of_tuples():
    for pts in [*_point_sets(5), [(np.nan, 0.0), (0.9, np.nan), (0.9, 0.1), (-0.0, 0.0), (0.0, -0.0)]]:
        assert metrics.frontier_flags(np.array(pts, dtype=np.float64).reshape(-1, 2)) == metrics.frontier_flags(pts)


def _index_dataset(n):
    """One continuous sensitive column holding the row index, so a' shows the rows drawn."""
    rows = np.arange(n, dtype=np.float64).reshape(-1, 1)
    schema = [
        ColumnSchema("x", "feature", "continuous"),
        ColumnSchema("a", "sensitive", "continuous"),
        ColumnSchema("y", "outcome", "binary"),
    ]
    return TabularDataset(rows, rows, rows, np.zeros(n), schema, ["x"])


@pytest.mark.parametrize("n, n_b, batches", [(200, 100, 50), (6400, 100, 200), (200_000, 100, 5)])
def test_disjoint_sampler_equals_setdiff(n, n_b, batches):
    ds = _index_dataset(n)
    rng, srng = np.random.default_rng(n), np.random.default_rng(n + 1)
    ref_rng, ref_srng = np.random.default_rng(n), np.random.default_rng(n + 1)
    for _ in range(batches):
        mb = minibatch_construct(ds, n_b, "disjoint", rng, srng)
        idx, idx2 = disjoint_draw_setdiff(n, n_b, ref_rng, ref_srng)
        assert np.array_equal(mb.a[:, 0], idx)
        assert np.array_equal(mb.a_prime[:, 0], idx2)


# ------------------------------------------------------------------ properties

_finite_or_inf = st.floats(allow_nan=False, allow_infinity=True, width=64)
_tied = st.sampled_from([0.0, 0.25, 0.5, 1.0])


@st.composite
def _scored_rows(draw):
    scores = draw(st.lists(st.one_of(_finite_or_inf, _tied), min_size=2, max_size=60))
    n = len(scores)
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    labels[0], labels[-1] = 0, 1
    perm = draw(st.permutations(range(n)))
    return np.array(scores), np.array(labels), np.array(perm, dtype=np.intp)


@settings(deadline=None)
@given(_scored_rows())
def test_auc_row_permutation_invariant(rows):
    s, y, perm = rows
    assert metrics.auc(s[perm], y[perm]) == metrics.auc(s, y)


_EPS = np.finfo(np.float64).eps
_FMAX = sys.float_info.max
# two scores whose sum overflows, and -inf with +inf, whose sum is NaN
_EXTREME_PAIRS = [[0.75 * _FMAX, _FMAX], [-np.inf, np.inf]]


@settings(deadline=None)
@given(_scored_rows())
@example((np.array(_EXTREME_PAIRS[0]), np.array([0, 1]), np.array([1, 0])))
@example((np.array(_EXTREME_PAIRS[1]), np.array([0, 1]), np.array([1, 0])))
def test_choose_threshold_row_permutation_invariant(rows):
    s, y, perm = rows
    assert metrics.choose_threshold(s[perm], y[perm]) == metrics.choose_threshold(s, y)


@pytest.mark.parametrize("pair", [*_EXTREME_PAIRS, [-_FMAX, _FMAX], [0.0, np.inf], [_FMAX, np.inf],
                                  [-np.inf, -_FMAX], [-np.inf, 0.0]])
def test_choose_threshold_splits_two_scores_at_the_float_extremes(pair):
    """A negative below a positive: the chosen tau splits them (J = 1), as
    the loop reference's does."""
    s, y = np.array(pair), np.array([0, 1])
    tau = metrics.choose_threshold(s, y)
    assert tau == choose_threshold_loop(s, y)
    assert list(s > tau) == [False, True]


@settings(deadline=None)
@given(st.data())
def test_frontier_flags_row_permutation_invariant(data):
    coord = st.one_of(_finite_or_inf, _tied)
    pts = data.draw(st.lists(st.tuples(coord, coord), max_size=60))
    perm = data.draw(st.permutations(range(len(pts))))
    flags = metrics.frontier_flags(pts)
    assert metrics.frontier_flags([pts[i] for i in perm]) == [flags[i] for i in perm]


@settings(deadline=None)
@given(st.data())
def test_ks_gap_of_every_group_in_unit_interval(data):
    scores = np.array(data.draw(st.lists(st.one_of(_finite_or_inf, _tied), min_size=1, max_size=60)))
    groups = np.array(data.draw(st.lists(st.integers(0, 3), min_size=len(scores), max_size=len(scores))))
    for v in np.unique(groups):
        # one grid value: the cell A <= 0 is group v, its reference every row
        outside = (groups != v).astype(float)
        assert 0.0 <= metrics.ks_gsp(scores, outside, "continuous", metrics.QuantileGrid((0.0,))) <= 1.0


def _dense_bn_net(seed, in_dim, width, scale, bias_scale=1.0):
    """Dense -> batch-norm with every parameter and running statistic random."""
    rng = np.random.default_rng(seed)
    net = Mlp([DenseLayer(in_dim, width, rng), BatchNormLayer(width)])
    dense, bn = net.layers
    dense.weights *= scale
    dense.bias[...] = bias_scale * rng.standard_normal(width)
    for arr in (bn.gamma, bn.beta_shift, bn.running_mean):
        arr[...] = rng.standard_normal(width)
    bn.running_var[...] = rng.random(width) + 0.5
    return net


def _bytes(arrays):
    return [a.tobytes() for a in arrays]


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, 257),
    width=st.integers(1, 80),
    in_dim=st.integers(1, 40),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    learning_rate=st.floats(1e-4, 1.0),
    maximize=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=7, width=8, in_dim=4, scale=1.0, learning_rate=0.1, maximize=False, seed=0)  # narrow at 2 k = m
@example(n=7, width=7, in_dim=4, scale=1.0, learning_rate=0.1, maximize=False, seed=0)  # wide at 2 k = m + 1
def test_train_step_kernels_equal_reference(n, width, in_dim, scale, learning_rate, maximize, seed):
    """A batch-norm layer that runs the dense layer before it computes x W
    alone and leaves the dense bias gradient at 0; it caches the dense
    input and the centred block and adds the bias to the batch mean for its
    running mean. A narrow pair (2 k <= m) works on the centred input and
    its covariance instead. Every array equals the out-of-place reference
    for its path bit for bit, through the SGD step; the parameter pass
    returns no input gradient, and a pass without parameters returns the
    reference's."""
    net = _dense_bn_net(seed, in_dim, width, scale)
    ref = _dense_bn_net(seed, in_dim, width, scale)
    dense, bn = net.layers
    assert bn.dense is dense and bn.narrow == (2 * in_dim <= width) and bn.input_grad_unread
    bias = dense.bias.copy()
    rng = np.random.default_rng(seed + 1)
    x = scale * rng.standard_normal((n, in_dim))
    grad_out = rng.standard_normal((n, width))
    bn_args = (bn.gamma, bn.beta_shift, bn.running_mean, bn.running_var, bn.momentum, bn.epsilon)

    if bn.narrow:
        out_ref, (centred, cw, inv_std), mean_ref, var_ref = dense_batch_norm_forward_narrow(
            x, dense.weights, *bn_args, dense.bias)
        g_x_ref, g_w_ref, g_gamma_ref, g_beta_ref = dense_batch_norm_backward_narrow(
            grad_out, centred, cw, inv_std, dense.weights, bn.gamma)
        caches_ref = [x, centred, cw, inv_std]
    else:
        z_ref = x @ dense.weights
        out_ref, (centred, inv_std), mean_ref, var_ref = batch_norm_forward_train_centred(z_ref, *bn_args, dense.bias)
        g_z_ref, g_gamma_ref, g_beta_ref = batch_norm_backward_centred(grad_out, centred, inv_std, bn.gamma)
        g_x_ref, g_w_ref = g_z_ref @ dense.weights.T, x.T @ g_z_ref
        caches_ref = [x, centred, inv_std]

    out = net.forward(x, train=True)
    assert dense._cache is None  # the dense layer does not run on its own
    caches = [c for c in bn._cache if c is not None]
    assert _bytes(caches) == _bytes(caches_ref)
    assert _bytes([out, bn.running_mean, bn.running_var]) == _bytes([out_ref, mean_ref, var_ref])
    assert net.backward(grad_out) is None
    # accumulated into a zero buffer: 0.0 + g, which turns -0.0 into 0.0
    assert _bytes(gradients(net)) == _bytes([0.0 + g for g in (g_w_ref, np.zeros(width), g_gamma_ref, g_beta_ref)])
    grads = [g.copy() for g in gradients(net)]
    assert net.backward(grad_out, params=False).tobytes() == g_x_ref.tobytes()
    assert _bytes(gradients(net)) == _bytes(grads)

    for g_ref, g in zip(gradients(ref), gradients(net)):
        g_ref[...] = g
    sgd_step_loop(ref.layers, learning_rate, maximize)
    net.sgd_step(learning_rate, maximize)
    assert _bytes(parameters(net)) == _bytes(parameters(ref))
    assert dense.bias.tobytes() == bias.tobytes()
    assert all((g == 0.0).all() for g in gradients(net))


_RELU_EDGES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]


@settings(deadline=None, max_examples=60)
@given(values=st.lists(st.floats(width=64), min_size=1, max_size=40), seed=st.integers(0, 2**32 - 1))
@example(values=_RELU_EDGES, seed=0)
def test_relu_in_place_equals_reference(values, seed):
    """The relu that writes into its input and masks its gradient in place,
    caching its output, has the bits of the out-of-place relu that caches its
    input, NaN, infinities and signed zeros included."""
    rng = np.random.default_rng(seed)
    x = np.array(values).reshape(-1, 1) * np.ones(3)
    grad_out = np.array([np.nan, np.inf, -1.5])[rng.integers(0, 3, x.shape)]
    layer = ActivationLayer("relu")
    x_in, g_in = x.copy(), grad_out.copy()
    with np.errstate(invalid="ignore"):  # inf * 0
        out = layer.forward(x_in, train=True)
        grad = layer.backward(g_in)
        expected = relu_backward(grad_out, x)
    assert out is x_in and grad is g_in
    assert out.tobytes() == relu_forward(x).tobytes()
    assert grad.tobytes() == expected.tobytes()


def _within(actual, expected, bound):
    """Elementwise |actual - expected| <= bound, the worst excess in the message."""
    excess = np.abs(actual - expected) - bound
    assert (excess <= 0.0).all(), f"worst excess {excess.max()!r} over a bound of {bound.ravel()[excess.argmax()]!r}"


def _pair_within_rounding_of_textbook(net, x, grad_out):
    """Check a train-mode dense and batch-norm pair against the textbook
    pair (x W + b, then batch-norm) on one batch, forward and backward.

    With t = 4 (n + 4) eps, the centred block of the pair lies within
    t (A + mean A) of the textbook one, for A = |x| @ |W| + |b|, the
    magnitudes summed into it; every other value lies within t of the
    textbook one, relative to the magnitudes of its terms, plus that error
    carried through. A narrow pair never forms the centred block: it sums
    the centred input against W, so t counts the k input columns too, t =
    4 (n + k + 4) eps, and every sum runs over the terms of
    P = |x - mean x| @ |W| in place of |centred|. Its variance is a quadratic
    form in the covariance of x, whose terms sum to mean(P^2), not to the
    variance: it adds t mean(P^2), which a batch with (nearly) collinear
    centred columns shows. The weights gradient drops the term that the
    centred input's zero column sums remove, so it is bounded relative to
    |x| + mean |x|; at n <= 2 the input gradient cancels to about 0, so a
    bound relative to the result would fail there."""
    dense, bn = net.layers
    weights, bias, gamma, beta_shift = dense.weights, dense.bias, bn.gamma, bn.beta_shift
    momentum, mean0, var0 = bn.momentum, bn.running_mean.copy(), bn.running_var.copy()
    (n, k), width, narrow = x.shape, dense.out_dim, bn.narrow
    t = 4 * (n + (k if narrow else 0) + 4) * _EPS

    z_t = dense_forward(x, weights, bias)
    out_t, (x_hat, inv_std), mean_t, var_t = batch_norm_forward_train(z_t, gamma, beta_shift, mean0, var0,
                                                                      momentum, bn.epsilon)
    g_z_t, g_gamma_t, g_beta_t = batch_norm_backward(grad_out, x_hat, inv_std, gamma)
    out = net.forward(x, train=True)
    assert net.backward(grad_out) is None
    g_x = net.backward(grad_out, params=False)
    g_weights, g_bias, g_gamma, g_beta = gradients(net)

    summed = np.abs(x) @ np.abs(weights) + np.abs(bias)
    d_centred = t * (summed + summed.mean(axis=0))
    ax = np.abs(x_hat)
    # the magnitudes the pair's sums run over, relative to the scale of x_hat,
    # and the quadratic form's own rounding
    if narrow:
        px = (np.abs(x - x.mean(axis=0)) @ np.abs(weights)) * inv_std
        quad = t * (px * px).mean(axis=0) / (inv_std * inv_std)
    else:
        px, quad = ax, 0.0
    d_inv_std = t * (inv_std * (ax * d_centred / t).mean(axis=0) + 1.0) + inv_std * inv_std * quad / 2
    d_x_hat = inv_std * d_centred + ax * d_inv_std
    _within(out, out_t, np.abs(gamma) * d_x_hat + t * (np.abs(gamma) * ax + np.abs(beta_shift)))
    _within(bn.running_mean, mean_t, t * (momentum * np.abs(mean0) + 2 * (1 - momentum) * summed.mean(axis=0)))
    var = z_t.var(axis=0)
    d_var = t * var + 2 * (ax * d_centred).mean(axis=0) / inv_std + quad
    _within(bn.running_var, var_t, t * momentum * var0 + (1 - momentum) * d_var)

    ag = np.abs(grad_out)
    assert g_beta.tobytes() == g_beta_t.tobytes()
    d_gamma = (ag * d_x_hat).sum(axis=0) + t * (ag * px).sum(axis=0)
    _within(g_gamma, g_gamma_t, d_gamma)
    terms = ag + ag.sum(axis=0) / n + px * (ag * px).sum(axis=0) / n
    d_g_z = np.abs(gamma) * inv_std * ((d_inv_std + t) * terms + (d_x_hat * np.abs(g_gamma_t) + px * d_gamma) / n)
    if narrow:  # the gradient w.r.t. x W is never formed: bound by its terms
        ag_z, ax_in = np.abs(gamma) * inv_std * terms, np.abs(x) + np.abs(x).mean(axis=0)
    else:  # the gradient w.r.t. x W, from the reference's centred kernels on x W
        _, (centred, inv_std_z), _, _ = batch_norm_forward_train_centred(
            x @ weights, gamma, beta_shift, mean0, var0, momentum, bn.epsilon)
        g_z = batch_norm_backward_centred(grad_out, centred, inv_std_z, gamma)[0]
        assert (g_z @ weights.T).tobytes() == g_x.tobytes()
        _within(g_z, g_z_t, d_g_z)
        ag_z, ax_in = np.abs(g_z_t), np.abs(x)
    _within(g_weights, x.T @ g_z_t, ax_in.T @ (d_g_z + t * ag_z))
    assert (g_bias == 0.0).all()  # the textbook bias gradient sums a column that is 0 but for rounding
    _within(g_bias, g_z_t.sum(axis=0), (d_g_z + t * ag_z).sum(axis=0))
    t_in = 4 * (width + (k if narrow else 0) + 4) * _EPS
    _within(g_x, g_z_t @ weights.T, (d_g_z + t_in * ag_z) @ np.abs(weights).T)


@settings(deadline=None, max_examples=80)
@given(
    n=st.integers(1, 257),
    width=st.integers(1, 80),
    in_dim=st.integers(1, 6),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    offset=st.sampled_from([0.0, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_batch_norm_within_rounding_of_textbook(n, width, in_dim, scale, offset, seed):
    """The train-mode dense and batch-norm pair (no bias, the centred cache)
    differs from the textbook pair by rounding only, within the bound of
    ``_pair_within_rounding_of_textbook``. The bias and the inputs sit up to
    1e3 times their spread off 0. Most of these shapes are narrow, so the
    pair is set to the kernel of the wider ones."""
    net = _dense_bn_net(seed, in_dim, width, scale, bias_scale=scale * offset)
    net.layers[1].narrow = False
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((n, in_dim)) + offset * rng.standard_normal(in_dim)
    _pair_within_rounding_of_textbook(net, x, rng.standard_normal((n, width)))


@settings(deadline=None, max_examples=80)
@given(
    n=st.integers(1, 257),
    width=st.integers(1, 80),
    in_dim=st.integers(1, 8),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    offset=st.sampled_from([0.0, 1.0, 1e3]),
    one_hot=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, width=16, in_dim=3, scale=1.0, offset=1.0, one_hot=False, seed=0)
@example(n=200, width=64, in_dim=7, scale=1.0, offset=1e3, one_hot=True, seed=0)
def test_narrow_pair_within_rounding_of_textbook(n, width, in_dim, scale, offset, one_hot, seed):
    """The narrow dense and batch-norm pair, which works on the centred
    input and its covariance, differs from the textbook pair by rounding
    only, within the bound of ``_pair_within_rounding_of_textbook``, on any
    shape. The bias and the inputs sit up to 1e3 times their spread off 0.
    A one-hot input block has exactly collinear centred columns, and one
    constant weights column then gives a column of zero variance."""
    net = _dense_bn_net(seed, in_dim, width, scale, bias_scale=scale * offset)
    dense, bn = net.layers
    bn.narrow = True
    rng = np.random.default_rng(seed + 1)
    if one_hot:
        x = np.eye(in_dim)[rng.integers(0, in_dim, n)]
        dense.weights[:, 0] = dense.weights[0, 0]
    else:
        x = rng.standard_normal((n, in_dim))
    x += offset * rng.standard_normal(in_dim)
    _pair_within_rounding_of_textbook(net, x, rng.standard_normal((n, width)))


def test_narrow_running_var_stays_non_negative(tmp_path):
    """Where a column of x W is constant (a one-hot input block against a
    constant weights column), the narrow pair's quadratic form can round
    below 0. The batch variance is clamped at 0, so the running variance,
    which a checkpoint may not hold below 0, stays >= 0 and the net saves
    and loads."""
    negative = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        net = Mlp([DenseLayer(4, 16, rng), BatchNormLayer(16, momentum=0.0)])  # running_var = batch variance
        dense, bn = net.layers
        dense.weights[:, 0] = dense.weights[0, 0]
        bn.running_var[...] = 0.0
        x = np.eye(4)[rng.integers(0, 4, 100)] + 3.0 * rng.standard_normal(4)
        net.forward(x, train=True)
        negative += np.einsum("ij,ij->j", dense.weights, bn._cache[2])[0] < 0.0
        assert (bn.running_var >= 0.0).all()
        net.save(tmp_path / "net.ckpt")
        Mlp.load(tmp_path / "net.ckpt")
    assert negative  # the unclamped form did go below 0


# Drift the train-mode dense and batch-norm kernels may add to a whole
# training run: every stored array of h and D, and every snapshot cell,
# absolutely.
TRAIN_DRIFT = 1e-12


def test_fused_batch_norm_training_drift_is_within_tolerance(monkeypatch):
    """A criterion-5-sized GSP run at lambda = 0.5, with the textbook dense
    and batch-norm methods and with the ones that leave out the bias before
    batch-norm and cache the centred block, ends within TRAIN_DRIFT
    everywhere."""
    def run():
        train_set, val_set = split_train_val(binary_toy_dataset(400, seed=0), seed=0)
        streams = rng_streams(0)
        h = mlp(train_set.p, [16, 16], rng=streams["init"], batch_norm=True)
        D = mlp(1 + train_set.l, [16, 16], rng=streams["init"], batch_norm=True)
        config = TrainConfig(lam=0.5, T=50, n_b=64, eval_interval=25, seed=0)
        rows = list(snapshot_csv_rows(train(train_set, val_set, h, D, config), ["a"]))
        arrays = [getattr(layer, name) for net in (h, D) for layer in net.layers
                  for name in layer.PARAMS + layer.BUFFERS]
        return rows, arrays

    rows_fused, arrays_fused = run()
    with monkeypatch.context() as patch:
        patch.setattr(DenseLayer, "forward", dense_layer_forward_textbook)
        patch.setattr(DenseLayer, "backward", dense_layer_backward_textbook)
        patch.setattr(BatchNormLayer, "forward", batch_norm_layer_forward_textbook)
        patch.setattr(BatchNormLayer, "backward", batch_norm_layer_backward_textbook)
        rows_textbook, arrays_textbook = run()
    assert any(a.tobytes() != b.tobytes() for a, b in zip(arrays_fused, arrays_textbook))
    for fused, textbook in zip(arrays_fused, arrays_textbook):
        assert np.abs(fused - textbook).max() <= TRAIN_DRIFT
    assert len(rows_fused) == len(rows_textbook) == 5
    assert rows_fused[0] == rows_textbook[0]
    for fused, textbook in zip(rows_fused[1:], rows_textbook[1:]):
        assert fused[:3] == textbook[:3]
        assert np.allclose(np.array(fused[3:], float), np.array(textbook[3:], float), rtol=0.0, atol=TRAIN_DRIFT)


# A folded inference layer with k input columns stays within FOLD_TOL (k + 4)
# eps of the textbook dense and batch-norm pair, relative to the magnitudes
# of the terms it sums: the bound the fairpen.nn docstring states.
FOLD_TOL = 4
# the smallest and the largest epsilon that a checkpoint may hold
_EPSILON_BOUNDS = [np.finfo(np.float64).smallest_subnormal, sys.float_info.max]
# row counts of a few rows and across the first two INFER_BLOCK boundaries
_infer_rows = st.one_of(st.integers(1, 40), st.integers(INFER_BLOCK - 2, INFER_BLOCK + 2),
                        st.integers(2 * INFER_BLOCK - 2, 2 * INFER_BLOCK + 3))


def _fold_bound(x, bn, weights, bias):
    """FOLD_TOL (k + 4) eps times |s| (|x| @ |weights| + |bias| + |running_mean|)
    + |beta_shift|: how far a folded layer's output may lie from the textbook
    one on the same input x of k columns. Without ``bn``, s = 1."""
    s, mean, beta_shift = 1.0, 0.0, 0.0
    if bn is not None:
        s = bn.gamma / np.sqrt(bn.running_var + bn.epsilon)
        mean, beta_shift = bn.running_mean, bn.beta_shift
    magnitude = np.abs(s) * (np.abs(x) @ np.abs(weights) + np.abs(bias) + np.abs(mean)) + np.abs(beta_shift)
    return FOLD_TOL * (len(weights) + 4) * _EPS * magnitude


def _randomize_batch_norm(bn, rng, scale, epsilon, large_var):
    """gamma 0, negative and positive; running_var 0, moderate and large."""
    width = len(bn.gamma)
    bn.gamma[...] = rng.choice([0.0, -1.0, 1.0], width) * rng.lognormal(0.0, 2.0, width)
    bn.beta_shift[...] = rng.standard_normal(width)
    bn.running_mean[...] = scale * rng.standard_normal(width)
    bn.running_var[...] = rng.choice([0.0, scale * scale, large_var], width) * rng.random(width)
    bn.epsilon = epsilon


@settings(deadline=None, max_examples=80)
@given(
    n=_infer_rows,
    in_dim=st.integers(1, 20),
    width=st.integers(1, 80),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    epsilon=st.sampled_from([*_EPSILON_BOUNDS, 1e-5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_folded_layer_within_tolerance_of_textbook(n, in_dim, width, scale, epsilon, seed):
    """A dense layer and the batch-norm layer after it, folded into one map,
    stay within the stated bound of the textbook pair."""
    rng = np.random.default_rng(seed)
    net = Mlp([DenseLayer(in_dim, width, rng), BatchNormLayer(width)])
    dense, bn = net.layers
    dense.weights *= scale
    dense.bias[...] = scale * rng.standard_normal(width)
    _randomize_batch_norm(bn, rng, scale, epsilon, large_var=1e280)  # 1e280 + epsilon stays finite
    x = scale * rng.standard_normal((n, in_dim))
    got = net.forward(x)
    expected = batch_norm_forward_infer(dense_forward(x, dense.weights, dense.bias), bn.gamma, bn.beta_shift,
                                        bn.running_mean, bn.running_var, bn.epsilon)
    assert np.isfinite(expected).all()
    _within(got, expected, _fold_bound(x, bn, dense.weights, dense.bias))


def _textbook_pass_bound(net, x):
    """Per output, how far the folded pass over x may lie from the textbook
    pass: each dense step, with the batch-norm layer after it if any,
    carries the incoming bound through |weights| |s| and adds its own
    ``_fold_bound`` on inputs as large as |x| + bound; relu carries the
    bound as it is, sigmoid a quarter of it (its slope is at most 1/4) plus
    8 eps for its own rounding on both sides."""
    bound = np.zeros_like(x)
    for layer, after in zip(net.layers, [*net.layers[1:], None]):
        if isinstance(layer, DenseLayer):
            bn = after if isinstance(after, BatchNormLayer) else None
            s = 1.0 if bn is None else np.abs(bn.gamma) / np.sqrt(bn.running_var + bn.epsilon)
            bound = (bound @ np.abs(layer.weights)) * s + _fold_bound(np.abs(x) + bound, bn, layer.weights,
                                                                      layer.bias)
            x = dense_forward(x, layer.weights, layer.bias)
        elif isinstance(layer, BatchNormLayer):  # its bound is the dense layer's above
            x = batch_norm_forward_infer(x, layer.gamma, layer.beta_shift, layer.running_mean,
                                         layer.running_var, layer.epsilon)
        elif layer.fn == "sigmoid":
            x, bound = sigmoid_masked(x), bound / 4 + 8 * _EPS
        else:
            x = layer.forward(x, train=False)
    return bound


@settings(deadline=None, max_examples=40)
@given(
    n=_infer_rows,
    in_dim=st.integers(1, 16),
    width=st.integers(1, 64),
    layout=st.sampled_from(["scorer", "discriminator"]),
    epsilon=st.sampled_from([_EPSILON_BOUNDS[1], 1e-5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_folded_pass_within_tolerance_of_textbook_pass(n, in_dim, width, layout, epsilon, seed):
    """Whole networks, folded and row-blocked, stay within the bound that
    each folded layer's rounding carries forward through the textbook pass.
    (The smallest epsilon over a zero running variance scales a column by
    about 1e161; two such layers in a row overflow, so only the per-layer
    test takes it.)"""
    rng = np.random.default_rng(seed)
    if layout == "scorer":
        net = mlp(in_dim, [width] * 3, rng=rng)
    else:
        net = mlp(in_dim, [width] * 2, out_dim=2, rng=rng, output_activation="identity")
    for layer in net.layers:
        if isinstance(layer, BatchNormLayer):
            _randomize_batch_norm(layer, rng, 1.0, epsilon, large_var=1e6)
        elif isinstance(layer, DenseLayer):
            layer.bias[...] = rng.standard_normal(layer.out_dim)
    x = 3.0 * rng.standard_normal((n, in_dim))
    got = net.forward(x)
    expected = inference_forward_whole(net, x)
    assert np.isfinite(expected).all()
    _within(got, expected, _textbook_pass_bound(net, x))


@settings(deadline=None, max_examples=40)
@given(
    m=st.integers(1, 299),
    in_dim=st.integers(1, 16),
    width=st.integers(1, 64),
    layout=st.sampled_from(["scorer", "density ratio"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_in_a_short_batch_within_tolerance_of_textbook_pass(m, in_dim, width, layout, seed):
    """A batch of fewer than INFER_BLOCK rows runs as one block, and BLAS
    may unroll its rows unlike a longer array's, so a row's bits can depend
    on the batch it is scored in (measured: up to 8 ulps on the scorer and 3
    on the density ratio's output). Rows scored in a batch of m rows at any
    offset stay within the carried-through bound of the textbook pass, as
    the whole array's rows do, so the two differ by at most twice that
    bound."""
    rng = np.random.default_rng(seed)
    if layout == "scorer":
        net = mlp(in_dim, [width] * 3, rng=rng)
    else:  # the density-ratio net: no batch-norm
        net = mlp(in_dim, [width] * 2, rng=rng, batch_norm=False)
    for layer in net.layers:
        if isinstance(layer, BatchNormLayer):
            _randomize_batch_norm(layer, rng, 1.0, 1e-5, large_var=1e6)
        elif isinstance(layer, DenseLayer):
            layer.bias[...] = rng.standard_normal(layer.out_dim)
    x = 3.0 * rng.standard_normal((600, in_dim))
    offset = int(rng.integers(0, len(x) - m + 1))
    rows = slice(offset, offset + m)
    bound = _textbook_pass_bound(net, x)[rows]
    expected = inference_forward_whole(net, x)[rows]
    short = net.forward(x[rows])
    _within(short, expected, bound)
    _within(short, net.forward(x)[rows], 2 * bound)


# Header order differs from schema order, and one header column is unused, so
# the row-major scan's cell order is the schema's, not the file's. A
# category holding a comma and a quote is written quoted; one holding a
# newline is written as a quoted field over two lines.
_CSV_HEADER = ["x", "unused", "job", "a", "y"]
_CSV_SCHEMA = [
    ColumnSchema("y", "outcome", "binary"),
    ColumnSchema("x", "feature", "continuous"),
    ColumnSchema("job", "feature", "categorical", ("u", "v w", "z", 'q,"r', "n\nl")),
    ColumnSchema("a", "sensitive", "binary"),
]
# one character longer than every category: a string field as wide as the
# longest category would truncate it into a match
_LONG_JOB = max(_CSV_SCHEMA[2].categories, key=len) + "x"
_valid_cells = {
    "x": st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
        st.sampled_from([" 2.5 ", "1_0", "\u20031\u2003", "-0.0", "1e3", "1E-320"]),
    ),
    "unused": st.sampled_from(["", "?", "1", "a,b", 'say "hi"', "two\nlines"]),
    "job": st.sampled_from(["u", "v w", " z ", "z", 'q,"r', "n\nl"]),
    "a": st.sampled_from(["0", "1", " 1 ", "1.0", "-0.0", "0e0"]),
    "y": st.sampled_from(["0", "1", "1.00"]),
}
_bad_cells = {
    "x": st.sampled_from(["", " ", "abc", "0x1", "nan", "inf", "-Infinity", "1e500", "-1e500", "1\0", "1\n2"]),
    "unused": st.sampled_from(["x\0", "x" * (csv.field_size_limit() + 1)]),
    "job": st.sampled_from(["", "U", "q", "u w", "u\0", _LONG_JOB, "n\r\nl", " p "]),
    "a": st.sampled_from(["2", "0.5", "nan", "", "x"]),
    "y": st.sampled_from(["0.5", "inf", ""]),
}
# lines that are not data rows: blank, whitespace-only and comment-like
_odd_rows = st.sampled_from([[], [" "], ["\t"], ["#"], ["# note", "1"], [""]])


# valid cells that numpy's reader refuses, so that csv reads the whole file
_SLOW_CELLS = {"1_0", "two\nlines", " z ", "n\nl"}


@st.composite
def _csv_rows(draw):
    """Rows of cells: in half the files every cell is valid (and in half of
    those, numpy's reader takes every cell); in the other half a cell may be
    bad, a row may be cut short and an odd line may stand between rows."""
    faulty = draw(st.booleans())
    plain = not faulty and draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        row = [
            draw(_bad_cells[name] if faulty and draw(st.integers(0, 7)) == 0 else
                 _valid_cells[name].filter(lambda c: not plain or c not in _SLOW_CELLS))
            for name in _CSV_HEADER
        ]
        if faulty and draw(st.integers(0, 7)) == 0:
            row = row[: draw(st.integers(1, len(row) - 1))]
        if draw(st.integers(0, 9)) == 0:
            rows.append(draw(st.just([]) if not faulty else _odd_rows))
        rows.append(row)
    return rows


def _cellwise_outcome(path):
    """The table of ``parse_table_cellwise``, or the message that
    ``_read_table`` must raise (whole, or a part of it, for errors that
    ``_read_table`` names by file and row)."""
    try:
        table = parse_table_cellwise(path, _CSV_SCHEMA)
    except IngestionError as exc:
        return str(exc), True
    except IndexError:
        return "missing cell", False
    except csv.Error as exc:
        return str(exc), False
    return (table, True) if len(table) else ("no data rows", False)


def _assert_reads_as_cellwise(path):
    """``_read_table`` returns the bits of ``parse_table_cellwise`` or raises its message."""
    expected, whole = _cellwise_outcome(path)
    try:
        table, got = data._read_table(path, _CSV_SCHEMA), None
    except IngestionError as exc:
        got = str(exc)
    if isinstance(expected, np.ndarray):
        assert got is None and table.shape == expected.shape and table.tobytes() == expected.tobytes()
    elif whole:
        assert got == expected
    else:
        assert got is not None and expected in got


@settings(deadline=None, max_examples=300)
@given(_csv_rows(), st.sampled_from(["\r\n", "\n"]), st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
def test_read_table_equals_cellwise_parse(rows, lineterminator, quoting):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        with open(path, "w", encoding="utf-8", newline="") as f:
            csv.writer(f, lineterminator=lineterminator, quoting=quoting).writerows([_CSV_HEADER, *rows])
        _assert_reads_as_cellwise(path)


def _block_csv(path, rows, blank_before=()):
    """Write _CSV_HEADER and rows, with a blank line before each listed row."""
    lines = [",".join(_CSV_HEADER)]
    for i, row in enumerate(rows):
        lines += [""] * (i in blank_before) + [",".join(row)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _valid_row(i):
    return [repr(0.25 * i - 7.5), "?", ("u", "v w", " z ")[i % 3], str(i % 2), str(i // 2 % 2)]


def test_blocked_parse_equals_cellwise_parse(tmp_path):
    n = 2 * data.PARSE_BLOCK + 37
    path = tmp_path / "d.csv"
    _block_csv(path, [_valid_row(i) for i in range(n)], blank_before={0, 5, data.PARSE_BLOCK - 3, n - 1})
    expected = parse_table_cellwise(path, _CSV_SCHEMA)
    table = data._read_table(path, _CSV_SCHEMA)
    assert table.shape == (n, len(_CSV_SCHEMA)) and table.tobytes() == expected.tobytes()


@pytest.mark.parametrize("fault", ["bad cell", "short row"])
def test_blocked_parse_names_the_cellwise_row_and_column(tmp_path, fault):
    # blank lines in the first block shift the file rows of the second block
    rows = [_valid_row(i) for i in range(data.PARSE_BLOCK + 40)]
    at = data.PARSE_BLOCK + 5
    if fault == "bad cell":
        rows[at][_CSV_HEADER.index("a")] = "2"
    else:
        rows[at] = rows[at][:3]  # x, unused, job: the first missing schema column is y
    rows[at + 10][_CSV_HEADER.index("x")] = "abc"  # a later fault must not be named
    path = tmp_path / "d.csv"
    blanks = {3, 4, 900}
    _block_csv(path, rows, blank_before=blanks)
    row_no = 2 + at + len(blanks)
    with pytest.raises(IngestionError) as got:
        load_csv(path, _CSV_SCHEMA)
    if fault == "bad cell":
        with pytest.raises(IngestionError) as expected:
            parse_table_cellwise(path, _CSV_SCHEMA)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith(f"{path}: row {row_no}, column 'a': binary cell")
    else:
        with pytest.raises(IndexError):
            parse_table_cellwise(path, _CSV_SCHEMA)
        assert str(got.value) == f"{path}: row {row_no}, column 'y': missing cell (the row has 3 cells)"


def _plain_row(i):
    """A row that numpy's reader takes: quoted and unquoted cells, none padded."""
    return [repr(0.25 * i - 7.5), ("?", "a,b", 'say "hi"')[i % 3], ("u", "v w", 'q,"r', "z")[i % 4],
            str(i % 2), str(i // 2 % 2)]


_REFUSALS = {  # a cell of the last row of the first block: (column, cell); column 5 adds a cell
    "padded cell": (2, " z "),
    "padded category": (2, " p "),
    "underscore number": (0, "1_0"),
    "nul byte": (1, "\0"),
    "oversized unused field": (1, "x" * (csv.field_size_limit() + 1)),
    "long category": (2, _LONG_JOB),
    "quoted newline across blocks": (2, "n\nl"),
    # an ignored trailing cell whose second line reads as a row of its own
    "quoted row across blocks": (5, "\n" + ",".join(_plain_row(0)) + ',x"'),
    "whitespace-only line": None,
}


@pytest.mark.parametrize("refusal", [None, *_REFUSALS])
def test_numpy_reader_takes_plain_blocks_and_refuses_the_rest(tmp_path, refusal):
    rows = [_plain_row(i) for i in range(2 * data.PARSE_BLOCK + 37)]
    at = data.PARSE_BLOCK - 2  # after the blank line below, the first block's last line
    if refusal == "whitespace-only line":
        rows.insert(at, [" "])
    elif refusal is not None:
        column, cell = _REFUSALS[refusal]
        rows[at][column:column + 1] = [cell]
    path = tmp_path / "d.csv"
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerows([_CSV_HEADER, *rows[:9], [], *rows[9:]])  # CRLF line ends, one blank line
    fast = data._read_table_numpy(path, _CSV_SCHEMA)
    if refusal is None:
        assert fast is not None and fast.tobytes() == parse_table_cellwise(path, _CSV_SCHEMA).tobytes()
    else:
        assert fast is None
    _assert_reads_as_cellwise(path)


# "n" is a prefix of "nort", which is a prefix of "north", which is a prefix of "northwest"
_REGION = ColumnSchema("region", "sensitive", "categorical", ("n", "north", "s", "south"))


@pytest.mark.parametrize("cell, expected", [
    ("nort", "unknown category 'nort'"),
    ("northwest", "unknown category 'northwest'"),
    (" north", None),
    ("north ", None),
    ("", "missing value"),
], ids=["prefix", "extension", "padded before", "padded after", "empty"])
def test_category_cells_that_match_no_category_fall_back_to_the_cellwise_parse(tmp_path, cell, expected):
    """A cell that equals no category unstripped sends the file to the csv
    path, which strips it and reads it or names it as it always has."""
    schema = [ColumnSchema("x", "feature", "continuous"), _REGION, ColumnSchema("y", "outcome", "binary")]
    rows = [[repr(0.5 * i), _REGION.categories[i % 4], str(i % 2)] for i in range(40)]
    rows[17][1] = cell
    path = tmp_path / "d.csv"
    path.write_text("x,region,y\n" + "".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
    assert data._read_table_numpy(path, schema) is None
    if expected is None:
        table = data._read_table(path, schema)
        assert table.tobytes() == parse_table_cellwise(path, schema).tobytes()
        assert table[17, 1] == 1.0
    else:
        with pytest.raises(IngestionError) as got:
            data._read_table(path, schema)
        assert str(got.value) == f"{path}: row 19, column 'region': {expected}"


# plain categories (no comma, quote, padding or line end), some prefixes of
# others and some not ASCII
_PLAIN_CATEGORIES = ["n", "north", "no", "s", "south", "é", "éé", "ß1", "x y", "中"]


@st.composite
def _mixed_schema_rows(draw):
    kinds = draw(st.lists(st.sampled_from(["continuous", "binary", "categorical"]), min_size=1, max_size=6))
    schema = []
    for j, kind in enumerate(kinds):
        cats = None
        if kind == "categorical":
            cats = tuple(draw(st.lists(st.sampled_from(_PLAIN_CATEGORIES), min_size=1, max_size=5, unique=True)))
        schema.append(ColumnSchema(f"c{j}", "feature", kind, cats))
    schema += [ColumnSchema("a", "sensitive", "binary"), ColumnSchema("y", "outcome", "binary")]
    cell = {"continuous": st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
            "binary": st.sampled_from(["0", "1", "1.0", "-0.0"])}
    rows = [[draw(st.sampled_from(c.categories) if c.kind == "categorical" else cell[c.kind]) for c in schema]
            for _ in range(draw(st.integers(1, 20)))]
    return schema, rows


@settings(deadline=None, max_examples=100)
@given(_mixed_schema_rows(), st.integers(1, 8))
def test_category_codes_by_comparison_equal_the_cellwise_parse(schema_rows, block):
    """The numpy reader's category codes, one comparison per category over
    blocks of any size, have the bits of the cell-by-cell parse's
    ``categories.index`` codes on schemas of every column kind."""
    schema, rows = schema_rows
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "PARSE_BLOCK", block)
        path = Path(tmp) / "d.csv"
        path.write_text(",".join(c.name for c in schema) + "\n" + "".join(",".join(r) + "\n" for r in rows),
                        encoding="utf-8")
        fast = data._read_table_numpy(path, schema)
        assert fast is not None and fast.tobytes() == parse_table_cellwise(path, schema).tobytes()


@pytest.mark.parametrize(
    "n", [1, INFER_BLOCK - 1, INFER_BLOCK, INFER_BLOCK + 1, 2 * INFER_BLOCK - 1, 2 * INFER_BLOCK,
          2 * INFER_BLOCK + 1, 2 * INFER_BLOCK + 3, 3 * INFER_BLOCK - 1, 4 * INFER_BLOCK + 5],
)
def test_blocked_inference_equals_whole_array_pass(n):
    rng = np.random.default_rng(n)
    scorer = mlp(13, [64] * 3, rng=rng)  # the CLI's scorer: a sigmoid on one output
    discriminator = mlp(3, [16] * 2, out_dim=2, rng=rng, output_activation="identity")
    ratio_net = mlp(3, [64] * 2, rng=rng, batch_norm=False)  # the density-ratio net's layout
    for net in (scorer, discriminator, ratio_net):
        for param in parameters(net):  # nonzero biases and shifts, gamma off 1
            param += 0.5 * rng.standard_normal(param.shape)
        for _ in range(3):  # move the batch-norm running statistics off their start
            net.forward(rng.standard_normal((50, net.in_dim)) * 2.0 + 0.5, train=True)
        x = rng.standard_normal((n, net.in_dim)) * 3.0
        got = net.forward(x, train=False)
        expected = inference_forward_folded(net, x)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    # with no batch-norm layer nothing is folded: the textbook pass's bits
    assert got.tobytes() == inference_forward_whole(ratio_net, x).tobytes()


# 2**-1074, the smallest normal, ln of the largest and smallest doubles, and
# the arguments where exp(-|x|) turns subnormal and reaches 0
_SIGMOID_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                  -2.2250738585072014e-308, 709.78, -709.78, 708.4, -708.4, 745.2, -745.2, 745.13, -745.13,
                  1.7976931348623157e308, -1.7976931348623157e308]


@settings(deadline=None, max_examples=200)
@given(values=st.lists(st.floats(width=64), max_size=50), seed=st.integers(0, 2**32 - 1))
@example(values=_SIGMOID_EDGES, seed=0)
def test_sigmoid_equals_masked_reference(values, seed):
    """The branch-free sigmoid has the bits of the masked two-branch one on
    every non-NaN input, random bit patterns included; NaN stays NaN."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=4096, dtype=np.uint64, endpoint=False)
    x = np.concatenate([np.array(values, dtype=np.float64), bits.view(np.float64)])
    got, expected = sigmoid(x), sigmoid_masked(x)
    nan = np.isnan(x)
    assert np.isnan(got[nan]).all()
    assert got[~nan].tobytes() == expected[~nan].tobytes()


def _ks_outcome(fn, *args):
    """The bits of fn(*args), or the type of the error it raised."""
    try:
        return float(fn(*args)).hex()
    except DegenerateMetricError as exc:
        return type(exc)


def _ks_concat_gap(reference):
    return partial(ks_distance_concat, reference=reference)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_ks_gaps_equal_concat_reference(data):
    n = data.draw(st.integers(1, 60))
    score = st.one_of(_finite_or_inf, _tied, st.just(np.nan)) if data.draw(st.booleans()) else _tied
    s = np.array(data.draw(st.lists(score, min_size=n, max_size=n)))
    a_disc = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float)
    a_cont = np.array(data.draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))) / 10
    y_disc = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
    y_cont = np.array(data.draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))) / 10
    a_grid, y_grid = metrics.quantile_grid(a_cont), metrics.quantile_grid(y_cont)
    for a, kind, grid in ((a_disc, "discrete", None), (a_cont, "continuous", a_grid)):
        conds = metrics._conditions(a, kind, grid)
        expected = _ks_outcome(sweep_with_gap, _ks_concat_gap, s, conds)
        assert _ks_outcome(metrics.ks_gsp, s, a, kind, grid) == expected
        for y, yg in ((y_disc, None), (y_cont, y_grid)):
            expected = _ks_outcome(sweep_with_gap, _ks_concat_gap, s, conds, y, yg)
            assert _ks_outcome(metrics.ks_geo, s, a, y, kind, grid, yg) == expected


def test_ks_gaps_equal_concat_reference_at_large_n_with_ties():
    """20 000 scores on 3-decimal ties (-0.0 and 0.0 among them), with and
    without one NaN score in a row of Y = 1 that no Y <= q condition holds."""
    n = 20_000
    rng = np.random.default_rng(12)
    s = np.round(rng.standard_normal(n), 3)
    a_disc = rng.integers(0, 4, n).astype(float)
    a_cont = np.round(rng.random(n), 2)
    y_disc = (rng.random(n) < 0.4).astype(float)
    y_cont = rng.random(n)
    nan_row = int(np.flatnonzero(y_disc == 1)[0])
    y_cont[nan_row] = 2.0
    a_grid, y_grid = metrics.quantile_grid(a_cont), metrics.quantile_grid(y_cont)
    assert len(np.unique(s)) < n // 3 and np.signbit(s[s == 0]).any() and not np.signbit(s[s == 0]).all()
    with_nan = s.copy()
    with_nan[nan_row] = np.nan
    outcomes = []
    for scores in (s, with_nan):
        for a, kind, grid in ((a_disc, "discrete", None), (a_cont, "continuous", a_grid)):
            conds = metrics._conditions(a, kind, grid)
            expected = _ks_outcome(sweep_with_gap, _ks_concat_gap, scores, conds)
            assert _ks_outcome(metrics.ks_gsp, scores, a, kind, grid) == expected
            outcomes.append(expected)
            for y, yg in ((y_disc, None), (y_cont, y_grid)):
                expected = _ks_outcome(sweep_with_gap, _ks_concat_gap, scores, conds, y, yg)
                assert _ks_outcome(metrics.ks_geo, scores, a, y, kind, grid, yg) == expected
                outcomes.append(expected)
    # without the NaN every gap has a value; with it only the Y <= q forms do
    assert [isinstance(o, str) for o in outcomes] == [True] * 6 + [False, False, True] * 2


# the last fairness column's name holds a comma and a quote, so that the
# fairness_metric_name cell of pareto.csv is quoted when it is pooled
_QUOTED_COLUMN = 'c,"gap"'
_POOL_HEADER = ["iteration", "split", "utility_name", "utility_value", "a_ks_gsp", "b_sp", _QUOTED_COLUMN]
_NUMBERS = ["0.5", "0.50", "0.75", "0.9", "1", "0.0", "-0.0", "1e-3", "inf", "-Infinity", "1e999"]
_NANS = ["nan", "NaN", "-nan", "NAN"]
_pool_cells = {
    "iteration": st.sampled_from(["1", "2", "10", "1,5", '"q"', "7\n8"]),
    "split": st.sampled_from(["validation", "train", "a,b"]),
    "utility_value": st.sampled_from(_NUMBERS + _NANS),
    "a_ks_gsp": st.sampled_from(_NUMBERS + _NANS + [""]),
    "b_sp": st.sampled_from(["", "0.3", "x"]),
    _QUOTED_COLUMN: st.sampled_from(_NUMBERS[:6] + [""]),
}
_bad_pool_cells = st.sampled_from(["", "abc", "x,y", "0.5 0.5"])


@st.composite
def _snapshot_pool(draw):
    """Snapshot files as text, all with one header. Blank lines may sit
    between rows. In half the pools the header may repeat a name, a cell may
    be bad, a row may be short or long, a utility_name may differ, or a
    file's header may differ or be blank."""
    faulty = draw(st.booleans())
    header = list(_POOL_HEADER)
    if faulty and draw(st.integers(0, 4)) == 0:
        header.insert(draw(st.integers(0, len(header))), draw(st.sampled_from(header)))
    utility = draw(st.sampled_from(["auc", "mae"]))
    files = []
    for _ in range(draw(st.integers(1, 3))):
        cols = header[:-1] if faulty and draw(st.integers(0, 9)) == 0 else header
        lines = ["\r\n" if faulty and draw(st.integers(0, 19)) == 0 else _csv_line(cols)]
        for _ in range(draw(st.integers(0, 10))):
            row = []
            for name in cols:
                if name == "utility_name":
                    odd = faulty and draw(st.integers(0, 9)) == 0
                    row.append(draw(st.sampled_from(["auc", "mae", ""])) if odd else utility)
                elif faulty and draw(st.integers(0, 9)) == 0:
                    row.append(draw(_bad_pool_cells))
                else:
                    row.append(draw(_pool_cells[name]))
            shape = draw(st.integers(0, 9)) if faulty else None
            if shape == 0:
                row = row[: draw(st.integers(1, len(row) - 1))]
            elif shape == 1:
                row += ["9", "extra"]
            lines += ["\n"] * draw(st.integers(0, 2)) + [_csv_line(row)]
        files.append("".join(lines))
    return files


def _csv_line(cells):
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()


@settings(deadline=None, max_examples=300)
@given(
    _snapshot_pool(),
    st.sampled_from(["a_ks_gsp"] * 4 + [_QUOTED_COLUMN] * 2 + ["utility_value", "zzz"]),
    st.sampled_from([None, 0.0, 0.5, 0.8, -0.5]),
    st.integers(1, 6),
)
# The first row is too short to hold its utility_name cell, so it is refused.
@example(["iteration,utility_value,a_ks_gsp,utility_name\n1,0.9,0.1\n2,0.5,0.2,mae\n3,0.4,0.05,mae\n"],
         "a_ks_gsp", -0.45, 5)
@example(['iteration,utility_name,utility_value,"c,""gap"""\n"1,5",auc,0.9,0.1\n2,auc,0.5,0.2\n'],
         _QUOTED_COLUMN, 0.5, 2)
def test_pareto_equals_dictreader_reference(files, column, threshold, k):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for stem, text in zip(["p0", "run 1", "a,b"], files):
            paths.append(str(Path(tmp) / f"{stem}.csv"))
            Path(paths[-1]).write_text(text, encoding="utf-8", newline="")
        ref_out, out = Path(tmp) / "ref.csv", Path(tmp) / "out.csv"
        try:
            line = pareto_dictreader(paths, column, ref_out, threshold, k)
            expected = (0, f"wrote {out}\n" + (f"{line}\n" if line else ""), "")
        except ConfigError as exc:
            expected = (1, "", f"error: {exc}\n")
        assert _run_pareto(paths, column, out, threshold, k) == expected
        if expected[0] == 0:
            assert out.read_bytes() == ref_out.read_bytes()


def _run_pareto(paths, column, out, threshold, k):
    """``fairpen pareto``'s exit code, stdout and stderr."""
    argv = ["pareto", *paths, "--fairness-column", column, "--out", str(out)]
    if threshold is not None:
        argv += [f"--utility-threshold={threshold!r}", "--k", str(k)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(argv)
    return rc, stdout.getvalue(), stderr.getvalue()


# lone bytes that cannot start or continue a character here, and an encoded surrogate
_BAD_UTF8 = st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"])


def _mutate(data, raw: bytes, kind: str) -> bytes:
    """``raw`` with one byte-level fault of the given kind at a drawn offset."""
    at = data.draw(st.integers(0, len(raw)), label="offset")
    if kind == "truncate":
        return raw[:at]
    if kind == "flip":
        if at == len(raw):
            return raw
        bit = data.draw(st.integers(0, 7), label="bit")
        return raw[:at] + bytes([raw[at] ^ 1 << bit]) + raw[at + 1:]
    if kind == "bare CR":
        ends = [i for i, b in enumerate(raw) if b == ord("\n")]
        if not ends:
            return raw
        at = data.draw(st.sampled_from(ends), label="line end")
        return raw[:at] + b"\r" + raw[at + 1:]
    if kind == "bad UTF-8":
        insert = data.draw(_BAD_UTF8, label="bytes")
    else:
        insert = b"\0" if kind == "NUL" else b"x" * (csv.field_size_limit() + 1)
    return raw[:at] + insert + raw[at:]


_FINITE = ["0.5", "0.50", "0.75", "0.9", "1", "0.0", "-0.0", "1e-3"]
_valid_pool_cells = {**_pool_cells, "utility_value": st.sampled_from(_FINITE + _NANS),
                     "a_ks_gsp": st.sampled_from(_FINITE + _NANS + [""])}


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_pareto_fuzzed_bytes_exit_cleanly_or_equal_dictreader(data):
    """Byte-level faults in the last file of a pool of valid snapshot logs:
    ``fairpen pareto`` returns 0 with the reference's output, or returns 1
    with an error that names that file; it never raises."""
    end = data.draw(st.sampled_from(["\r\n", "\n"]), label="line end")
    files = []
    for _ in range(data.draw(st.integers(1, 2), label="files")):
        rows = [[data.draw(_valid_pool_cells[name]) if name != "utility_name" else "auc" for name in _POOL_HEADER]
                for _ in range(data.draw(st.integers(0, 6), label="rows"))]
        files.append("".join(_csv_line(row)[:-2] + end for row in [_POOL_HEADER, *rows]).encode())
    for kind in data.draw(st.lists(st.sampled_from(
            ["truncate", "flip", "NUL", "bad UTF-8", "bare CR", "oversized field"]), min_size=1, max_size=2)):
        files[-1] = _mutate(data, files[-1], kind)
    column = data.draw(st.sampled_from(["a_ks_gsp", _QUOTED_COLUMN]), label="column")
    threshold = data.draw(st.sampled_from([None, 0.5]), label="threshold")
    with tempfile.TemporaryDirectory() as tmp:
        paths = [str(Path(tmp) / f"p{i}.csv") for i in range(len(files))]
        for path, raw in zip(paths, files):
            Path(path).write_bytes(raw)
        ref_out, out = Path(tmp) / "ref.csv", Path(tmp) / "out.csv"
        rc, stdout, stderr = _run_pareto(paths, column, out, threshold, 3)
        if rc == 0:
            line = pareto_dictreader(paths, column, ref_out, threshold, 3)
            assert stdout == f"wrote {out}\n" + (f"{line}\n" if line else "") and stderr == ""
            assert out.read_bytes() == ref_out.read_bytes()
        else:
            assert rc == 1 and stderr.startswith(f"error: {paths[-1]}: ")
