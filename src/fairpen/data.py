"""Tabular ingestion, encoding, splitting, and minibatch construction.

Encoding conventions: non-sensitive continuous features are z-scored by
training-split statistics; categorical features are one-hot; continuous
sensitive columns are min-max scaled into [0, 1]; a two-category sensitive
column is encoded {0, 1} in declared category order.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, IngestionError

PARSE_BLOCK = 1024  # CSV lines, or parsed rows, read at a time


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    role: str  # feature | sensitive | outcome
    kind: str  # continuous | binary | categorical
    categories: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.role not in ("feature", "sensitive", "outcome"):
            raise IngestionError(f"column {self.name!r}: unknown role {self.role!r}")
        if self.kind not in ("continuous", "binary", "categorical"):
            raise IngestionError(f"column {self.name!r}: unknown kind {self.kind!r}")
        cats = self.categories
        if cats is not None and not (
            isinstance(cats, tuple) and cats
            and all(isinstance(c, str) and c and c == c.strip() for c in cats)
            and len(set(cats)) == len(cats)
        ):
            raise IngestionError(f"column {self.name!r}: 'categories' must be a non-empty tuple "
                                 f"of distinct, non-empty, unpadded strings, got {cats!r}")
        if self.kind == "categorical" and not cats:
            raise IngestionError(f"column {self.name!r}: categorical without categories")
        if self.role == "outcome" and self.kind == "categorical" and len(cats) != 2:
            raise IngestionError(f"column {self.name!r}: a categorical outcome needs exactly "
                                 f"two categories, got {len(cats)}")


def validate_schema(schema: list[ColumnSchema]) -> None:
    outcomes = [c for c in schema if c.role == "outcome"]
    if len(outcomes) != 1:
        raise IngestionError(f"schema must declare exactly one outcome column, got {len(outcomes)}")
    if not any(c.role == "sensitive" for c in schema):
        raise IngestionError("schema must declare at least one sensitive column")


@dataclass(frozen=True)
class FeatureScaling:
    """Per-encoded-feature-column z-score statistics."""

    mean: np.ndarray
    std: np.ndarray


class TabularDataset:
    """Immutable columns: encoded features X, sensitive block A, outcome Y.

    Raw (pre-scaling) values are retained so splits can re-standardize
    features with their own training statistics and so metrics can group
    on original sensitive values.
    """

    def __init__(
        self,
        raw_features: np.ndarray,
        A: np.ndarray,
        A_raw: np.ndarray,
        Y: np.ndarray,
        schema: list[ColumnSchema],
        feature_names: list[str],
        scaling: FeatureScaling | None = None,
    ):
        validate_schema(schema)
        self._raw_features = raw_features
        if scaling is None:
            mean = raw_features.mean(axis=0) if len(raw_features) else np.zeros(raw_features.shape[1])
            std = raw_features.std(axis=0) if len(raw_features) else np.ones(raw_features.shape[1])
            scaling = FeatureScaling(mean, np.where(std > 0, std, 1.0))
        self.scaling = scaling
        self.X = (raw_features - scaling.mean) / scaling.std
        self.A = A
        self.A_raw = A_raw
        self.Y = Y
        self.schema = list(schema)
        self.feature_names = list(feature_names)
        for arr in (self._raw_features, self.X, self.A, self.A_raw, self.Y):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def l(self) -> int:
        return self.A.shape[1]

    @property
    def sensitive_columns(self) -> list[ColumnSchema]:
        return [c for c in self.schema if c.role == "sensitive"]

    @property
    def outcome_column(self) -> ColumnSchema:
        return next(c for c in self.schema if c.role == "outcome")

    def sensitive_raw(self, name: str) -> np.ndarray:
        """Original (unscaled, label-encoded) values of one sensitive column."""
        idx = [c.name for c in self.sensitive_columns].index(name)
        return self.A_raw[:, idx]

    def take(self, indices: np.ndarray, scaling: FeatureScaling | None = None) -> "TabularDataset":
        return TabularDataset(
            self._raw_features[indices].copy(),
            self.A[indices].copy(),
            self.A_raw[indices].copy(),
            self.Y[indices].copy(),
            self.schema,
            self.feature_names,
            scaling=scaling,
        )


@dataclass(frozen=True)
class Minibatch:
    x: np.ndarray
    a: np.ndarray
    y: np.ndarray
    a_prime: np.ndarray


def _parse_cell(path, raw: str, col: ColumnSchema, row_no: int) -> float | None:
    text = raw.strip()
    if text == "":
        raise IngestionError(f"{path}: row {row_no}, column {col.name!r}: missing value")
    if col.kind == "categorical":
        if text not in col.categories:
            raise IngestionError(
                f"{path}: row {row_no}, column {col.name!r}: unknown category {text!r}"
            )
        return float(col.categories.index(text))
    try:
        value = float(text)
    except ValueError:
        raise IngestionError(
            f"{path}: row {row_no}, column {col.name!r}: unparseable cell {text!r}"
        ) from None
    if not math.isfinite(value):
        raise IngestionError(
            f"{path}: row {row_no}, column {col.name!r}: non-finite cell {text!r}"
        )
    if col.kind == "binary" and value not in (0.0, 1.0):
        raise IngestionError(
            f"{path}: row {row_no}, column {col.name!r}: binary cell must be 0 or 1, got {text!r}"
        )
    return value


def _encode_block(values: np.ndarray, cols: list[ColumnSchema], one_hot: bool, minmax_continuous: bool):
    """Expand label-encoded columns into the numeric design block."""
    out_cols: list[np.ndarray] = []
    names: list[str] = []
    for j, col in enumerate(cols):
        v = values[:, j]
        if col.kind == "categorical" and len(col.categories) > 2 and one_hot:
            for k, cat in enumerate(col.categories):
                out_cols.append((v == k).astype(np.float64))
                names.append(f"{col.name}={cat}")
        elif col.kind == "continuous" and minmax_continuous:
            lo, hi = v.min(), v.max()
            span = hi - lo if hi > lo else 1.0
            out_cols.append((v - lo) / span)
            names.append(col.name)
        else:
            out_cols.append(v.astype(np.float64))
            names.append(col.name)
    block = np.column_stack(out_cols) if out_cols else np.zeros((len(values), 0))
    return block, names


def open_input(path):
    """Open a UTF-8 text input for reading, or raise IngestionError naming it."""
    try:
        return open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise IngestionError(f"{path}: cannot open ({exc.strerror or exc})") from None


@contextlib.contextmanager
def csv_reader(path):
    """A ``csv.reader`` over a UTF-8 file. A file that cannot be opened, a
    byte that is not UTF-8 and a record that csv cannot read (such as a
    field over ``csv.field_size_limit()``) raise IngestionError naming the
    file, and the row for a bad record."""
    with open_input(path) as f:
        reader = csv.reader(f)
        try:
            yield reader
        except csv.Error as exc:
            raise IngestionError(f"{path}: row {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise IngestionError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _parse_row(path, row: list[str], schema: list[ColumnSchema], positions: list[int],
               row_no: int) -> list[float]:
    """Parse one row cell by cell, in schema order, so that the first bad or
    missing cell raises its IngestionError."""
    cells = []
    for col, position in zip(schema, positions):
        if position >= len(row):
            raise IngestionError(
                f"{path}: row {row_no}, column {col.name!r}: missing cell (the row has {len(row)} cells)"
            )
        cells.append(_parse_cell(path, row[position], col, row_no))
    return cells


def _header_positions(path, header: list[str], schema: list[ColumnSchema]) -> list[int]:
    header = [h.strip() for h in header]
    missing = [c.name for c in schema if c.name not in header]
    if missing:
        raise IngestionError(f"{path}: missing columns {missing}")
    return [header.index(c.name) for c in schema]


def _read_table_exact(path, schema: list[ColumnSchema]) -> np.ndarray:
    """``_read_table`` by ``csv.reader`` and ``_parse_row``, each record
    parsed as soon as it is read, so the first record that csv cannot read
    or that holds a bad or missing cell raises its IngestionError. Parsed
    rows are packed into an array every ``PARSE_BLOCK`` rows."""
    with csv_reader(path) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file") from None
        positions = _header_positions(path, header, schema)
        blocks, rows = [], []
        for row_no, row in enumerate(reader, start=2):  # the header is row 1
            if row:
                rows.append(_parse_row(path, row, schema, positions, row_no))
                if len(rows) == PARSE_BLOCK:
                    blocks.append(np.array(rows, dtype=np.float64))
                    rows = []
    if rows:
        blocks.append(np.array(rows, dtype=np.float64))
    if not blocks:
        raise IngestionError(f"{path}: no data rows")
    return np.concatenate(blocks)


def _read_table_numpy(path, schema: list[ColumnSchema]) -> np.ndarray | None:
    """``_read_table`` by numpy's C text reader, or None where the csv path
    could read the file differently or would raise.

    The body is read ``PARSE_BLOCK`` lines at a time, one ``np.loadtxt``
    per block. Both readers parse a number with ``PyOS_string_to_double``,
    so the bits agree. A block is refused if it holds a NUL byte or a line
    over ``csv.field_size_limit()`` (csv rejects or keeps what loadtxt
    reads or strips), if the reader fails, or if a cell fails a check.
    Each block is read with a line of zeros after it, and is refused
    unless it yields one row per non-empty line plus that line: a quoted
    field that runs past a line end would swallow the next line, and a
    whitespace-only line would be read as a row. Categories are looked up
    unstripped, so a padded cell is refused rather than stripped; a string
    field is one character wider than the longest category, so a longer
    cell cannot be truncated into a match.
    """
    fields, codes = [], {}
    for j, col in enumerate(schema):
        if col.kind == "categorical":
            fields.append((f"c{j}", f"U{max(map(len, col.categories)) + 1}"))
            codes[j] = {c: float(i) for i, c in enumerate(col.categories)}
        else:
            fields.append((f"c{j}", np.float64))
    dtype = np.dtype(fields)
    limit = csv.field_size_limit()
    blocks = []
    with open_input(path) as f:
        try:
            positions = _header_positions(path, next(csv.reader(f)), schema)
            zeros = ",".join("0" * (max(positions) + 1)) + "\n"
            while lines := list(itertools.islice(f, PARSE_BLOCK)):
                n = len(lines) - lines.count("\n") - lines.count("\r\n") - lines.count("\r")
                if not n:
                    continue
                if max(map(len, lines)) > limit or "\0" in "".join(lines):
                    return None
                rows = np.loadtxt(lines + [zeros], delimiter=",", usecols=positions, dtype=dtype,
                                  comments=None, quotechar='"', ndmin=1)
                if len(rows) != n + 1:
                    return None
                rows = rows[:n]
                columns = []
                for j, col in enumerate(schema):
                    if col.kind == "categorical":
                        values = np.fromiter(map(codes[j].__getitem__, rows[f"c{j}"].tolist()), np.float64, n)
                    else:
                        values = rows[f"c{j}"]
                        if not np.isfinite(values).all():
                            return None
                        if col.kind == "binary" and not ((values == 0.0) | (values == 1.0)).all():
                            return None
                    columns.append(values)
                blocks.append(np.column_stack(columns))
        except (StopIteration, csv.Error, IngestionError, KeyError, ValueError):
            return None
    return np.concatenate(blocks) if blocks else None


def _read_table(path, schema: list[ColumnSchema]) -> np.ndarray:
    """The numeric table of a CSV file with a header row: one row per data
    row, one label-encoded column per schema column, in schema order.

    The header is one csv record. The body is read by numpy's C text reader
    (``_read_table_numpy``). If that refuses any block, the whole file is
    read again cell by cell by ``csv.reader`` (``_read_table_exact``), which
    returns the same table or names the first bad or missing cell: rows in
    file order, cells in schema order. Empty lines are skipped but keep
    their row number; extra trailing cells are ignored. Either way, memory
    beyond the table grows with ``PARSE_BLOCK``, not with the file.
    """
    table = _read_table_numpy(path, schema)
    return _read_table_exact(path, schema) if table is None else table


def load_csv(path, schema: list[ColumnSchema]) -> TabularDataset:
    """Read, validate and encode a CSV file with a header row (see
    ``_read_table`` for how cells are read and which errors name them)."""
    validate_schema(schema)
    table = _read_table(path, schema)

    feat_cols = [c for c in schema if c.role == "feature"]
    sens_cols = [c for c in schema if c.role == "sensitive"]
    out_col = next(c for c in schema if c.role == "outcome")
    col_idx = {c.name: i for i, c in enumerate(schema)}

    feat_vals = table[:, [col_idx[c.name] for c in feat_cols]]
    sens_vals = table[:, [col_idx[c.name] for c in sens_cols]]
    y = table[:, col_idx[out_col.name]].copy()
    if out_col.kind == "continuous":
        lo, hi = y.min(), y.max()
        span = hi - lo if hi > lo else 1.0
        y = (y - lo) / span

    features, feature_names = _encode_block(feat_vals, feat_cols, one_hot=True, minmax_continuous=False)
    A, a_names = _encode_block(sens_vals, sens_cols, one_hot=True, minmax_continuous=True)
    dataset = TabularDataset(features, A, sens_vals.copy(), y, schema, feature_names)
    # finite cells can still overflow in the z-score or min-max scaling
    for names, block in ((feature_names, dataset.X), (a_names, A), ([out_col.name], y[:, None])):
        bad = ~np.isfinite(block).all(axis=0)
        if bad.any():
            raise IngestionError(f"{path}: column {names[bad.argmax()]!r} overflows when scaled")
    return dataset


def split_train_val(dataset: TabularDataset, fraction: float = 0.8, seed: int = 0):
    """Seeded shuffle split; feature scaling refit on the training part."""
    if dataset.n < 2:
        raise DimensionError("need at least 2 rows to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(dataset.n)
    n_train = int(np.floor(fraction * dataset.n))
    train_idx, val_idx = order[:n_train], order[n_train:]
    raw_train = dataset._raw_features[train_idx]
    mean = raw_train.mean(axis=0)
    std = raw_train.std(axis=0)
    scaling = FeatureScaling(mean, np.where(std > 0, std, 1.0))
    return dataset.take(train_idx, scaling), dataset.take(val_idx, scaling)


def rng_streams(seed: int) -> dict[str, np.random.Generator]:
    """Independent init/batch/sampler streams derived from one master seed."""
    init_ss, batch_ss, sampler_ss = np.random.SeedSequence(seed).spawn(3)
    return {
        "init": np.random.default_rng(init_ss),
        "batch": np.random.default_rng(batch_ss),
        "sampler": np.random.default_rng(sampler_ss),
    }


def minibatch_construct(
    dataset: TabularDataset,
    n_b: int,
    sampler: str,
    rng: np.random.Generator,
    sampler_rng: np.random.Generator,
) -> Minibatch:
    """Draw (x, a, y) without replacement and pair it with resampled a'.

    ``within_batch``: a' is a uniform permutation of the batch's own a rows.
    ``disjoint``: a' comes from a second draw disjoint from the batch.
    Batch indices come from ``rng``; the a' draw uses ``sampler_rng``.
    """
    if sampler not in ("within_batch", "disjoint"):
        raise ValueError(f"unknown sampler {sampler!r}")
    if n_b < 1:
        raise DimensionError(f"batch size must be >= 1, got {n_b}")
    if n_b > dataset.n:
        raise DimensionError(f"batch size {n_b} exceeds dataset size {dataset.n}")
    if sampler == "disjoint" and dataset.n < 2 * n_b:
        raise DimensionError(
            f"disjoint sampler needs n >= 2*n_b, got n={dataset.n}, n_b={n_b}"
        )
    idx = rng.choice(dataset.n, size=n_b, replace=False)
    if sampler == "within_batch":
        a_prime = dataset.A[idx][sampler_rng.permutation(n_b)]
    else:
        # Draw positions k in the complement of idx and map each to the k-th
        # row not in idx with one search over the sorted batch, without
        # building the complement: the same draws as
        # sampler_rng.choice(np.setdiff1d(np.arange(n), idx), n_b, replace=False).
        k = sampler_rng.choice(dataset.n - n_b, size=n_b, replace=False)
        idx2 = k + np.searchsorted(np.sort(idx) - np.arange(n_b), k, side="right")
        a_prime = dataset.A[idx2]
    return Minibatch(dataset.X[idx], dataset.A[idx], dataset.Y[idx], a_prime)
