"""The sort-and-sweep metric kernels, the disjoint sampler, the in-place,
flat-buffer network kernels, the row-blocked inference pass, the
blocked numpy CSV reader, the KS gaps that rank the scores once
per call and the one-pass ``fairpen pareto`` against the original
implementations in ``reference_kernels``: results must be equal bit for
bit, not approximately."""

import contextlib
import csv
import io
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import gradients, parameters
from fairpen import metrics
from fairpen import data
from fairpen.data import ColumnSchema, TabularDataset, load_csv, minibatch_construct
from fairpen.cli import main
from fairpen.errors import ConfigError, DegenerateMetricError, IngestionError
from fairpen.nn import INFER_BLOCK, BatchNormLayer, DenseLayer, Mlp, mlp
from reference_kernels import (
    average_ranks_loop,
    batch_norm_backward,
    batch_norm_forward_infer,
    batch_norm_forward_train,
    choose_threshold_loop,
    dense_forward,
    disjoint_draw_setdiff,
    frontier_flags_pairwise,
    inference_forward_whole,
    ks_distance_concat,
    pareto_frontier_pairwise,
    pareto_dictreader,
    parse_table_cellwise,
    sgd_step_loop,
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
    y = rng.integers(0, 2, n)
    y[0], y[-1] = 0, 1  # both classes present
    return y


def test_choose_threshold_equals_loop():
    rng = np.random.default_rng(100)
    for s in _score_sets(0):
        y = _labels(rng, len(s))
        assert metrics.choose_threshold(s, y) == choose_threshold_loop(s, y)


def test_average_ranks_equal_loop():
    for s in _score_sets(1):
        assert np.array_equal(metrics._average_ranks(s), average_ranks_loop(s))


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


@settings(deadline=None)
@given(_scored_rows())
def test_choose_threshold_row_permutation_invariant(rows):
    s, y, perm = rows
    assert metrics.choose_threshold(s[perm], y[perm]) == metrics.choose_threshold(s, y)


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


def _dense_bn_net(seed, in_dim, width, scale):
    """Dense -> batch-norm with every parameter and running statistic random."""
    rng = np.random.default_rng(seed)
    net = Mlp([DenseLayer(in_dim, width, rng), BatchNormLayer(width)])
    dense, bn = net.layers
    dense.weights *= scale
    for arr in (dense.bias, bn.gamma, bn.beta_shift, bn.running_mean):
        arr[...] = rng.standard_normal(width)
    bn.running_var = rng.random(width) + 0.5
    return net


def _bytes(arrays):
    return [a.tobytes() for a in arrays]


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, 257),
    width=st.integers(1, 80),
    in_dim=st.integers(1, 6),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    learning_rate=st.floats(1e-4, 1.0),
    maximize=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_train_step_kernels_equal_reference(n, width, in_dim, scale, learning_rate, maximize, seed):
    net = _dense_bn_net(seed, in_dim, width, scale)
    ref = _dense_bn_net(seed, in_dim, width, scale)
    dense, bn = net.layers
    rng = np.random.default_rng(seed + 1)
    x = scale * rng.standard_normal((n, in_dim))
    grad_out = rng.standard_normal((n, width))

    z_ref = dense_forward(x, dense.weights, dense.bias)
    out_ref, (x_hat, inv_std), mean_ref, var_ref = batch_norm_forward_train(
        z_ref, bn.gamma, bn.beta_shift, bn.running_mean, bn.running_var, bn.momentum, bn.epsilon
    )
    g_z_ref, g_gamma_ref, g_beta_ref = batch_norm_backward(grad_out, x_hat, inv_std, bn.gamma)
    g_x_ref = g_z_ref @ dense.weights.T

    z = dense.forward(x, train=True)
    out = bn.forward(z, train=True)
    g_z = bn.backward(grad_out)
    g_x = dense.backward(g_z)
    assert _bytes([z, out, bn.running_mean, bn.running_var]) == _bytes([z_ref, out_ref, mean_ref, var_ref])
    assert _bytes([g_z, g_x]) == _bytes([g_z_ref, g_x_ref])
    grads_ref = [x.T @ g_z_ref, g_z_ref.sum(axis=0), g_gamma_ref, g_beta_ref]
    assert _bytes(gradients(net)) == _bytes(grads_ref)

    for g_ref, g in zip(gradients(ref), gradients(net)):
        g_ref[...] = g
    sgd_step_loop(ref.layers, learning_rate, maximize)
    net.sgd_step(learning_rate, maximize)
    assert _bytes(parameters(net)) == _bytes(parameters(ref))
    assert all((g == 0.0).all() for g in gradients(net))


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, 300),
    width=st.integers(1, 80),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_inference_batch_norm_equals_reference(n, width, scale, seed):
    rng = np.random.default_rng(seed)
    bn = BatchNormLayer(width)
    for arr in (bn.gamma, bn.beta_shift, bn.running_mean):
        arr[...] = scale * rng.standard_normal(width)
    bn.running_var = scale * rng.random(width)
    x = scale * rng.standard_normal((n, width))
    expected = batch_norm_forward_infer(x, bn.gamma, bn.beta_shift, bn.running_mean, bn.running_var, bn.epsilon)
    x_before = x.copy()
    assert bn.forward(x, train=False).tobytes() == expected.tobytes()
    assert x.tobytes() == x_before.tobytes()


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


@pytest.mark.parametrize(
    "n", [1, INFER_BLOCK - 1, INFER_BLOCK, INFER_BLOCK + 1, 2 * INFER_BLOCK - 1, 2 * INFER_BLOCK,
          2 * INFER_BLOCK + 1, 2 * INFER_BLOCK + 3, 3 * INFER_BLOCK - 1, 4 * INFER_BLOCK + 5],
)
def test_blocked_inference_equals_whole_array_pass(n):
    rng = np.random.default_rng(n)
    scorer = mlp(13, [64] * 3, rng=rng)  # the CLI's scorer: a sigmoid on one output
    discriminator = mlp(3, [16] * 2, out_dim=2, rng=rng, output_activation="identity")
    for net in (scorer, discriminator):
        for _ in range(3):  # move the batch-norm running statistics off their start
            net.forward(rng.standard_normal((50, net.in_dim)) * 2.0 + 0.5, train=True)
        x = rng.standard_normal((n, net.in_dim)) * 3.0
        got = net.forward(x, train=False)
        expected = inference_forward_whole(net, x)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


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
        expected = _ks_outcome(metrics._sweep, _ks_concat_gap, s, conds)
        assert _ks_outcome(metrics.ks_gsp, s, a, kind, grid) == expected
        for y, yg in ((y_disc, None), (y_cont, y_grid)):
            expected = _ks_outcome(metrics._sweep, _ks_concat_gap, s, conds, y, yg)
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
            expected = _ks_outcome(metrics._sweep, _ks_concat_gap, scores, conds)
            assert _ks_outcome(metrics.ks_gsp, scores, a, kind, grid) == expected
            outcomes.append(expected)
            for y, yg in ((y_disc, None), (y_cont, y_grid)):
                expected = _ks_outcome(metrics._sweep, _ks_concat_gap, scores, conds, y, yg)
                assert _ks_outcome(metrics.ks_geo, scores, a, y, kind, grid, yg) == expected
                outcomes.append(expected)
    # without the NaN every gap has a value; with it only the Y <= q forms do
    assert [isinstance(o, str) for o in outcomes] == [True] * 6 + [False, False, True] * 2


_POOL_HEADER = ["iteration", "split", "utility_name", "utility_value", "a_ks_gsp", "b_sp"]
_NUMBERS = ["0.5", "0.50", "0.75", "0.9", "1", "0.0", "-0.0", "1e-3", "inf", "-Infinity", "1e999"]
_NANS = ["nan", "NaN", "-nan", "NAN"]
_pool_cells = {
    "iteration": st.sampled_from(["1", "2", "10", "1,5", '"q"', "7\n8"]),
    "split": st.sampled_from(["validation", "train", "a,b"]),
    "utility_value": st.sampled_from(_NUMBERS + _NANS),
    "a_ks_gsp": st.sampled_from(_NUMBERS + _NANS + [""]),
    "b_sp": st.sampled_from(["", "0.3", "x"]),
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
    st.sampled_from(["a_ks_gsp"] * 6 + ["utility_value", "zzz"]),
    st.sampled_from([None, 0.0, 0.5, 0.8, -0.5]),
    st.integers(1, 6),
)
# The first row is too short to hold its utility_name cell, so it is refused.
@example(["iteration,utility_value,a_ks_gsp,utility_name\n1,0.9,0.1\n2,0.5,0.2,mae\n3,0.4,0.05,mae\n"],
         "a_ks_gsp", -0.45, 5)
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
        argv = ["pareto", *paths, "--fairness-column", column, "--out", str(out)]
        if threshold is not None:
            argv += [f"--utility-threshold={threshold!r}", "--k", str(k)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(argv)
        assert (rc, stdout.getvalue(), stderr.getvalue()) == expected
        if rc == 0:
            assert out.read_bytes() == ref_out.read_bytes()
