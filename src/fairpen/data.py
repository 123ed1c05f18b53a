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

PARSE_BLOCK = 1024  # CSV records read and parsed at a time


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
        if self.kind == "categorical" and not self.categories:
            raise IngestionError(f"column {self.name!r}: categorical without categories")


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


def _parse_cell(raw: str, col: ColumnSchema, row_no: int) -> float | None:
    text = raw.strip()
    if text == "":
        raise IngestionError(f"row {row_no}, column {col.name!r}: missing value")
    if col.kind == "categorical":
        if text not in col.categories:
            raise IngestionError(
                f"row {row_no}, column {col.name!r}: unknown category {text!r}"
            )
        return float(col.categories.index(text))
    try:
        value = float(text)
    except ValueError:
        raise IngestionError(
            f"row {row_no}, column {col.name!r}: unparseable cell {text!r}"
        ) from None
    if not math.isfinite(value):
        raise IngestionError(
            f"row {row_no}, column {col.name!r}: non-finite cell {text!r}"
        )
    if col.kind == "binary" and value not in (0.0, 1.0):
        raise IngestionError(
            f"row {row_no}, column {col.name!r}: binary cell must be 0 or 1, got {text!r}"
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


def _parse_columns(rows: list[list[str]], schema: list[ColumnSchema], positions: list[int]) -> np.ndarray:
    """Parse the table one column at a time: ``float`` over a numeric column,
    a ``{category: index}`` lookup over a categorical one, then one
    finiteness and one {0, 1} check per column. Raises IndexError, KeyError
    or ValueError on the first column with a short row or a bad cell."""
    n = len(rows)
    columns = []
    for col, position in zip(schema, positions):
        cells = [row[position] for row in rows]
        if col.kind == "categorical":
            # reversed, so a repeated category keeps its first index, as
            # tuple.index does; an empty cell is a missing value, not a category
            codes = {c: float(i) for i, c in reversed(list(enumerate(col.categories))) if c}
            values = np.fromiter(map(codes.__getitem__, map(str.strip, cells)), np.float64, n)
        else:
            values = np.fromiter(map(float, cells), np.float64, n)
            if not np.isfinite(values).all():
                raise ValueError("non-finite cell")
            if col.kind == "binary" and not ((values == 0.0) | (values == 1.0)).all():
                raise ValueError("non-binary cell")
        columns.append(values)
    return np.column_stack(columns)


def _parse_rows(path, rows: list[list[str]], schema: list[ColumnSchema], positions: list[int],
                first_row: int) -> np.ndarray:
    """Parse rows, numbered from ``first_row``, one by one and cell by cell,
    in schema order, so that the first bad or missing cell raises its
    IngestionError."""
    parsed = []
    for row_no, row in enumerate(rows, start=first_row):
        if not row:
            continue
        cells = []
        for col, position in zip(schema, positions):
            if position >= len(row):
                raise IngestionError(
                    f"{path}: row {row_no}, column {col.name!r}: missing cell (the row has {len(row)} cells)"
                )
            cells.append(_parse_cell(row[position], col, row_no))
        parsed.append(cells)
    return np.array(parsed, dtype=np.float64)


def _read_table(path, schema: list[ColumnSchema]) -> np.ndarray:
    """The numeric table of a CSV file with a header row: one row per data
    row, one label-encoded column per schema column, in schema order.

    The file is read in blocks of ``PARSE_BLOCK`` records, and each block's
    cells are parsed one column at a time (``_parse_columns``). If any
    column of a block fails, that block is parsed again row by row and cell
    by cell (``_parse_rows``), so the error names the first bad or missing
    cell: rows in file order, cells in schema order, as a cell-by-cell
    reader would. Empty lines are skipped but keep their row number; extra
    trailing cells are ignored.
    """
    with csv_reader(path) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        missing = [c.name for c in schema if c.name not in header]
        if missing:
            raise IngestionError(f"{path}: missing columns {missing}")
        positions = [header.index(c.name) for c in schema]
        blocks = []
        first_row = 2  # the header is row 1
        while rows := list(itertools.islice(reader, PARSE_BLOCK)):
            data_rows = [row for row in rows if row]
            if data_rows:
                try:
                    blocks.append(_parse_columns(data_rows, schema, positions))
                except (IndexError, KeyError, ValueError):
                    blocks.append(_parse_rows(path, rows, schema, positions, first_row))
            first_row += len(rows)
    if not blocks:
        raise IngestionError(f"{path}: no data rows")
    return np.concatenate(blocks)


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
