import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import binary_toy_dataset, destandardized_features
from fairpen.data import (
    ColumnSchema,
    TabularDataset,
    load_csv,
    minibatch_construct,
    split_train_val,
    validate_schema,
)
from fairpen.errors import DimensionError, IngestionError


def _schema():
    return [
        ColumnSchema("x1", "feature", "continuous"),
        ColumnSchema("a", "sensitive", "binary"),
        ColumnSchema("y", "outcome", "binary"),
    ]


def test_schema_role_and_kind_validation():
    with pytest.raises(IngestionError):
        ColumnSchema("x", "covariate", "continuous")
    with pytest.raises(IngestionError):
        ColumnSchema("x", "feature", "real")
    with pytest.raises(IngestionError):
        ColumnSchema("x", "feature", "categorical")  # no categories


@pytest.mark.parametrize(
    "categories", [(" p ", "q"), ("u", "u"), ("", "q"), (), ["u", "v"], "uv", ("u", 5)]
)
def test_schema_categories_must_be_distinct_unpadded_strings(categories):
    # a padded, empty or repeated category could never match a cell, which is stripped
    with pytest.raises(IngestionError, match=r"column 'a': 'categories' must be a non-empty tuple"):
        ColumnSchema("a", "sensitive", "categorical", categories)
    with pytest.raises(IngestionError, match="'categories'"):
        ColumnSchema("a", "sensitive", "binary", categories)


@pytest.mark.parametrize("categories", [("lo",), ("lo", "mid", "hi")])
def test_categorical_outcome_needs_two_categories(categories):
    with pytest.raises(IngestionError, match=f"column 'y': .* exactly two categories, got {len(categories)}"):
        ColumnSchema("y", "outcome", "categorical", categories)
    assert ColumnSchema("y", "outcome", "categorical", ("lo", "hi")).categories == ("lo", "hi")
    assert ColumnSchema("g", "sensitive", "categorical", categories).categories == categories


def test_validate_schema_requires_one_outcome_and_a_sensitive():
    with pytest.raises(IngestionError):
        validate_schema([ColumnSchema("a", "sensitive", "binary")])
    with pytest.raises(IngestionError):
        validate_schema(
            [ColumnSchema("y", "outcome", "binary"), ColumnSchema("y2", "outcome", "binary")]
        )
    with pytest.raises(IngestionError):
        validate_schema([ColumnSchema("y", "outcome", "binary")])


def test_load_csv_happy_path(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,a,y\n1.0,0,1\n3.0,1,0\n")
    ds = load_csv(path, _schema())
    assert ds.n == 2 and ds.p == 1 and ds.l == 1
    # z-scored features: mean 2, std 1
    assert np.allclose(ds.X[:, 0], [-1.0, 1.0])
    assert np.allclose(destandardized_features(ds)[:, 0], [1.0, 3.0])
    assert np.array_equal(ds.A[:, 0], [0.0, 1.0])
    assert np.array_equal(ds.Y, [1.0, 0.0])


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,y\n1.0,1\n")
    with pytest.raises(IngestionError, match="missing columns"):
        load_csv(path, _schema())


def test_load_csv_bad_cells(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,a,y\nfoo,0,1\n")
    with pytest.raises(IngestionError, match=r"d\.csv: row 2, column 'x1': unparseable cell 'foo'"):
        load_csv(path, _schema())
    path.write_text("x1,a,y\n1.0,2,1\n")
    with pytest.raises(IngestionError, match=r"d\.csv: row 2, column 'a': binary"):
        load_csv(path, _schema())
    path.write_text("x1,a,y\n1.0,,1\n")
    with pytest.raises(IngestionError, match=r"d\.csv: row 2, column 'a': missing value"):
        load_csv(path, _schema())


def test_load_csv_short_and_long_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,a,y\n1.0,0,1,extra\n3.0,1,0,,\n")
    assert np.array_equal(load_csv(path, _schema()).Y, [1.0, 0.0])
    path.write_text("x1,a,y\n1.0,0,1\n\n3.0\n")
    with pytest.raises(IngestionError, match=r"d\.csv: row 4, column 'a': missing cell \(the row has 1 cells\)"):
        load_csv(path, _schema())
    path.write_text("x1,a,y\n1.0,0\nfoo,1,0\n")  # the first bad cell in file order wins
    with pytest.raises(IngestionError, match="row 2, column 'y': missing cell"):
        load_csv(path, _schema())


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
@pytest.mark.parametrize("column", ["x1", "a"])
def test_load_csv_rejects_non_finite_cells(tmp_path, cell, column):
    path = tmp_path / "d.csv"
    row = {"x1": "1.0", "a": "0", "y": "1"}
    row[column] = cell
    path.write_text("x1,a,y\n3.0,1,0\n" + ",".join(row.values()) + "\n")
    with pytest.raises(IngestionError, match=rf"d\.csv: row 3, column '{column}': non-finite"):
        load_csv(path, _schema())


def test_load_csv_rejects_scaling_overflow(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,a,y\n1e308,0,1\n1.5e308,1,0\n")  # the mean overflows
    with pytest.raises(IngestionError, match=r"d\.csv: column 'x1' overflows when scaled"):
        load_csv(path, _schema())
    path.write_text("x1,a,y\n1e200,0,1\n-1e200,1,0\n3,0,1\n")  # the standard deviation overflows
    with pytest.raises(IngestionError, match=r"d\.csv: column 'x1' overflows when scaled"):
        load_csv(path, _schema())


# floats() also draws nan and +/-inf; the large literals make the scaling overflow
_continuous_cells = st.one_of(
    st.floats(width=64).map(repr), st.sampled_from(["1e308", "-1e308", "1.5e308"])
)
_binary_cells = st.sampled_from(["0", "1", "1.0", "nan"])


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(_continuous_cells, _continuous_cells, _binary_cells, _continuous_cells),
        min_size=1,
        max_size=8,
    )
)
def test_load_csv_never_returns_non_finite(rows):
    schema = [
        ColumnSchema("x1", "feature", "continuous"),
        ColumnSchema("s", "sensitive", "continuous"),
        ColumnSchema("a", "sensitive", "binary"),
        ColumnSchema("y", "outcome", "continuous"),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_text("x1,s,a,y\n" + "".join(",".join(r) + "\n" for r in rows))
        try:
            ds = load_csv(path, schema)
        except IngestionError:
            return
    for arr in (ds.X, ds.A, ds.A_raw, ds.Y):
        assert np.isfinite(arr).all()


# Mixed columns: two continuous features, a 3-category feature, a
# continuous, a 4-category and a binary attribute, a binary outcome.
_MIXED_SCHEMA = [
    ColumnSchema("x1", "feature", "continuous"),
    ColumnSchema("job", "feature", "categorical", ("p", "q", "r")),
    ColumnSchema("x2", "feature", "continuous"),
    ColumnSchema("age", "sensitive", "continuous"),
    ColumnSchema("region", "sensitive", "categorical", ("n", "s", "e", "w")),
    ColumnSchema("sex", "sensitive", "binary"),
    ColumnSchema("y", "outcome", "binary"),
]


def _textbook_encode(columns: dict, schema: list[ColumnSchema]):
    """The encoded blocks built column by column with np.column_stack, then
    X = (raw - mean) / std: (raw, X, A, A_raw, Y), or None where a feature's
    mean or std, or an attribute's or the outcome's min-max, is not finite."""
    def block(role, minmax):
        out = []
        for col in (c for c in schema if c.role == role):
            v = columns[col.name]
            if col.kind == "categorical" and len(col.categories) > 2:
                out += [(v == k).astype(np.float64) for k in range(len(col.categories))]
            elif col.kind == "continuous" and minmax:
                lo, hi = v.min(), v.max()
                out.append((v - lo) / (hi - lo if hi > lo else 1.0))
            else:
                out.append(v.copy())
        return np.column_stack(out)

    with np.errstate(all="ignore"):
        raw, A, Y = block("feature", False), block("sensitive", True), block("outcome", True)[:, 0]
        mean, std = raw.mean(axis=0), raw.std(axis=0)
        X = (raw - mean) / np.where(std > 0, std, 1.0)
    if not (np.isfinite(mean).all() and np.isfinite(std).all() and np.isfinite(A).all() and np.isfinite(Y).all()):
        return None
    A_raw = np.column_stack([columns[c.name] for c in schema if c.role == "sensitive"])
    return raw, X, A, A_raw, Y


# finite cells whose z-score or min-max may overflow, beside ordinary ones
_wide_cells = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([1e200, -1e200, 1e308, 1.5e308, 0.0]))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_load_csv_equals_textbook_encode(data):
    n = data.draw(st.integers(1, 30))
    columns = {}
    for col in _MIXED_SCHEMA:
        if col.kind == "continuous":
            values = data.draw(st.lists(_wide_cells, min_size=n, max_size=n))
        else:
            values = data.draw(st.lists(st.integers(0, len(col.categories or (0, 1)) - 1), min_size=n, max_size=n))
        columns[col.name] = np.array(values, dtype=np.float64)
    cells = [[repr(float(columns[c.name][i])) if c.kind != "categorical" else c.categories[int(columns[c.name][i])]
              for c in _MIXED_SCHEMA] for i in range(n)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_text(",".join(c.name for c in _MIXED_SCHEMA) + "\n" + "".join(",".join(r) + "\n" for r in cells))
        expected = _textbook_encode(columns, _MIXED_SCHEMA)
        if expected is None:
            with pytest.raises(IngestionError, match="overflows when scaled"):
                load_csv(path, _MIXED_SCHEMA)
            return
        ds = load_csv(path, _MIXED_SCHEMA)
    for got, want in zip((ds._raw_features, ds.X, ds.A, ds.A_raw, ds.Y), expected):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# 40 continuous features, a continuous attribute and a continuous outcome:
# the widest table for the fewest encoded columns, one per schema column
_WIDE_SCHEMA = [ColumnSchema(f"x{i}", "feature", "continuous") for i in range(40)] + [
    ColumnSchema("age", "sensitive", "continuous"), ColumnSchema("y", "outcome", "continuous")]


def _load_csv_peak(path, schema):
    """``load_csv``'s dataset, its traced memory peak and the bytes of its
    table and of its returned arrays."""
    tracemalloc.start()
    try:
        ds = load_csv(path, schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in (ds.X, ds._raw_features, ds.A, ds.A_raw, ds.Y))
    return ds, peak, ds.n * len(schema) * 8, returned


def test_load_csv_peak_memory_is_the_table_and_the_result(tmp_path):
    """Reading holds the table twice, but the returned arrays take at least
    one column per schema column, so the peak stays within the table plus
    the returned arrays for the mixed schema and for a wide, all-continuous
    one, which encodes into the fewest columns per table column."""
    n_wide = 30_000
    path = tmp_path / "wide.csv"
    values = np.round(np.random.default_rng(1).standard_normal((n_wide, len(_WIDE_SCHEMA))), 6)
    path.write_text(",".join(c.name for c in _WIDE_SCHEMA) + "\n" + "".join(",".join(map(repr, row)) + "\n"
                                                                     for row in values.tolist()))
    _, peak, table_bytes, returned = _load_csv_peak(path, _WIDE_SCHEMA)
    assert returned == n_wide * (40 + 40 + 1 + 1 + 1) * 8
    assert peak <= table_bytes + returned + 2**20, (peak / n_wide, (table_bytes + returned) / n_wide)
    n = 60_000
    rng = np.random.default_rng(0)
    columns = {
        "x1": rng.standard_normal(n), "job": rng.integers(0, 3, n), "x2": rng.standard_normal(n),
        "age": rng.integers(18, 81, n), "region": rng.integers(0, 4, n), "sex": rng.integers(0, 2, n),
        "y": rng.integers(0, 2, n),
    }
    cells = [[f"{v:.6f}" for v in columns[c.name]] if c.kind == "continuous" and c.role == "feature"
             else [c.categories[k] for k in columns[c.name]] if c.kind == "categorical"
             else list(map(str, columns[c.name])) for c in _MIXED_SCHEMA]
    path = tmp_path / "d.csv"
    path.write_text(",".join(c.name for c in _MIXED_SCHEMA) + "\n" + "\n".join(map(",".join, zip(*cells))) + "\n")
    del cells
    ds, peak, table_bytes, returned = _load_csv_peak(path, _MIXED_SCHEMA)
    assert returned == n * (5 + 5 + 6 + 3 + 1) * 8
    assert peak <= table_bytes + returned + 2**20, (peak / n, (table_bytes + returned) / n)


def test_load_csv_empty_inputs(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("")
    with pytest.raises(IngestionError, match="empty file"):
        load_csv(path, _schema())
    path.write_text("x1,a,y\n")
    with pytest.raises(IngestionError, match="no data rows"):
        load_csv(path, _schema())


def test_load_csv_categorical_one_hot_and_unknown_category(tmp_path):
    schema = [
        ColumnSchema("job", "feature", "categorical", ("nurse", "clerk", "pilot")),
        ColumnSchema("a", "sensitive", "binary"),
        ColumnSchema("y", "outcome", "binary"),
    ]
    path = tmp_path / "d.csv"
    path.write_text("job,a,y\nnurse,0,1\npilot,1,0\nclerk,0,0\n")
    ds = load_csv(path, schema)
    assert ds.p == 3
    raw = destandardized_features(ds)
    assert np.array_equal(raw, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    path.write_text("job,a,y\nwizard,0,1\n")
    with pytest.raises(IngestionError, match=r"d\.csv: row 2, column 'job': unknown category 'wizard'"):
        load_csv(path, schema)


def test_load_csv_continuous_sensitive_minmax(tmp_path):
    schema = [
        ColumnSchema("x1", "feature", "continuous"),
        ColumnSchema("age", "sensitive", "continuous"),
        ColumnSchema("y", "outcome", "binary"),
    ]
    path = tmp_path / "d.csv"
    path.write_text("x1,age,y\n0,20,1\n0,30,0\n0,40,1\n")
    ds = load_csv(path, schema)
    assert np.allclose(ds.A[:, 0], [0.0, 0.5, 1.0])
    assert np.array_equal(ds.sensitive_raw("age"), [20.0, 30.0, 40.0])


def test_load_csv_continuous_outcome_minmax(tmp_path):
    schema = [
        ColumnSchema("x1", "feature", "continuous"),
        ColumnSchema("a", "sensitive", "binary"),
        ColumnSchema("wage", "outcome", "continuous"),
    ]
    path = tmp_path / "d.csv"
    path.write_text("x1,a,wage\n0,0,10\n0,1,20\n0,0,30\n")
    ds = load_csv(path, schema)
    assert np.allclose(ds.Y, [0.0, 0.5, 1.0])


def test_dataset_arrays_immutable(toy_dataset):
    with pytest.raises(ValueError):
        toy_dataset.X[0, 0] = 9.0
    with pytest.raises(ValueError):
        toy_dataset.Y[0] = 9.0


def test_split_sizes_and_disjointness(toy_dataset):
    train, val = split_train_val(toy_dataset, fraction=0.8, seed=3)
    assert train.n == 160 and val.n == 40
    all_rows = np.concatenate(
        [destandardized_features(train)[:, 0], destandardized_features(val)[:, 0]]
    )
    assert sorted(all_rows) == pytest.approx(sorted(destandardized_features(toy_dataset)[:, 0]))


def test_split_scaling_refit_on_train(toy_dataset):
    train, val = split_train_val(toy_dataset, fraction=0.75, seed=1)
    assert np.allclose(train.X.mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose(train.X.std(axis=0), 1.0, atol=1e-10)
    assert np.array_equal(train.scaling.mean, val.scaling.mean)


def test_split_determinism(toy_dataset):
    t1, v1 = split_train_val(toy_dataset, seed=5)
    t2, v2 = split_train_val(toy_dataset, seed=5)
    assert np.array_equal(t1.X, t2.X) and np.array_equal(v1.Y, v2.Y)
    t3, _ = split_train_val(toy_dataset, seed=6)
    assert not np.array_equal(t1.Y, t3.Y)


def test_split_needs_two_rows():
    ds = binary_toy_dataset(200, seed=0).take(np.array([0]))
    with pytest.raises(DimensionError):
        split_train_val(ds)


@pytest.mark.parametrize("fraction", [0.1, 1.0, 1.5, -0.5, float("nan")])
def test_split_fraction_must_leave_both_parts_non_empty(fraction):
    """On 5 rows: 0.1 leaves no training row, 1.0 and 1.5 no validation row,
    and -0.5 is no fraction at all."""
    ds = binary_toy_dataset(200, seed=0).take(np.arange(5))
    with pytest.raises(DimensionError, match=rf"fraction={fraction!r} of n=5 rows"):
        split_train_val(ds, fraction=fraction)


def test_split_scaling_is_the_training_rows_own(toy_dataset):
    """The training part's z-scores use exactly the mean and std of its raw rows."""
    train, val = split_train_val(toy_dataset, fraction=0.75, seed=1)
    raw, std = train._raw_features, train._raw_features.std(axis=0)
    assert train.scaling.mean.tobytes() == raw.mean(axis=0).tobytes()
    assert train.scaling.std.tobytes() == np.where(std > 0, std, 1.0).tobytes()
    assert val.scaling is train.scaling


def test_minibatch_within_batch_is_permutation(toy_dataset):
    rng = np.random.default_rng(0)
    mb = minibatch_construct(toy_dataset, 32, "within_batch", rng, np.random.default_rng(1))
    assert mb.x.shape == (32, 2) and mb.a.shape == (32, 1)
    assert sorted(mb.a_prime[:, 0]) == sorted(mb.a[:, 0])


def test_minibatch_disjoint_draw(toy_dataset):
    rng = np.random.default_rng(0)
    mb = minibatch_construct(toy_dataset, 50, "disjoint", rng, np.random.default_rng(1))
    assert mb.a_prime.shape == (50, 1)
    with pytest.raises(DimensionError):
        minibatch_construct(toy_dataset, 150, "disjoint", rng, rng)


def test_minibatch_size_and_sampler_validation(toy_dataset):
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionError):
        minibatch_construct(toy_dataset, 500, "within_batch", rng, rng)
    for n_b in (0, -5):
        with pytest.raises(DimensionError, match="batch size must be >= 1"):
            minibatch_construct(toy_dataset, n_b, "within_batch", rng, rng)
    with pytest.raises(ValueError):
        minibatch_construct(toy_dataset, 10, "bootstrap", rng, rng)


@pytest.mark.parametrize("sampler", ["within_batch", "disjoint"])
def test_a_prime_follows_marginal_of_A(sampler):
    # pooled a' frequencies over many batches track the dataset marginal
    ds = binary_toy_dataset(2000, seed=4, a_rate=0.3)
    rng = np.random.default_rng(10)
    srng = np.random.default_rng(11)
    draws = np.concatenate(
        [minibatch_construct(ds, 100, sampler, rng, srng).a_prime[:, 0] for _ in range(200)]
    )
    marginal = ds.A[:, 0].mean()
    # binomial std at 20000 draws is well under 0.01
    assert abs(draws.mean() - marginal) < 0.02


def _mixed_attribute_dataset(n: int, seed: int) -> TabularDataset:
    """A block of three attributes: binary, 3-category one-hot and continuous."""
    rng = np.random.default_rng(seed)
    binary = rng.integers(0, 2, n).astype(np.float64)
    region = rng.integers(0, 3, n)
    age = rng.random(n)
    schema = [
        ColumnSchema("x", "feature", "continuous"),
        ColumnSchema("sex", "sensitive", "binary"),
        ColumnSchema("region", "sensitive", "categorical", ("n", "s", "e")),
        ColumnSchema("age", "sensitive", "continuous"),
        ColumnSchema("y", "outcome", "binary"),
    ]
    A = np.column_stack([binary, np.eye(3)[region], age])
    A_raw = np.column_stack([binary, region, age]).astype(np.float64)
    y = rng.integers(0, 2, n).astype(np.float64)
    return TabularDataset(rng.standard_normal((n, 1)), A, A_raw, y, schema, ["x"])


@pytest.mark.parametrize("sampler", ["within_batch", "disjoint"])
@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 80), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_a_prime_rows_are_rows_of_A(sampler, n, seed, data):
    # a' resamples whole rows of A, so a one-hot block stays one-hot and
    # the attributes keep their joint law
    n_b = data.draw(st.integers(1, n // 2 if sampler == "disjoint" else n), label="n_b")
    ds = _mixed_attribute_dataset(n, seed)
    mb = minibatch_construct(ds, n_b, sampler, np.random.default_rng(seed), np.random.default_rng(seed + 1))
    rows = set(map(tuple, ds.A.tolist()))
    assert mb.a_prime.shape == (n_b, 5)
    assert all(row in rows for row in map(tuple, mb.a_prime.tolist()))


def test_take_preserves_schema(toy_dataset):
    sub = toy_dataset.take(np.arange(10))
    assert sub.n == 10
    assert [c.name for c in sub.schema] == [c.name for c in toy_dataset.schema]
    assert sub.outcome_column.name == "y"
