"""Utility and fairness measurement.

Every fairness gap follows one grouping and one reduction rule, in one
sweep. A discrete column conditions on each observed level (A = v); a
continuous column on each value q of its nine-point nearest-rank quantile
grid (A <= q). Each (outcome condition, attribute condition) cell is
compared with a reference, the rows of its outcome condition, by
|rate(cell)/rate(reference) - 1| (SP, EO) or by the KS distance between
their score distributions. Cell gaps are summed in (outcome, attribute)
order and divided by the grid size of each continuous column: summed over
levels, averaged over grid values. The unconditional forms (SP, GSP) are
the conditional ones (EO, GEO) with one outcome condition holding every
row. The rate gap and the KS gap say only how to prepare a reference, once
per outcome condition, and how to score a cell against it.

Which gaps apply is decided here. The KS gaps apply to every format. The
rate gap of a discrete A is the binary ratio: one cell, A = 1, against the
reference narrowed to A = 0. It applies only if every value of A is 0 or 1
and, for EO, only to a discrete outcome; otherwise ``sp`` and ``eo`` raise
UndefinedMetricError.

The KS gaps rank the n scores once per call, O(n log n); every condition
is then a row mask in that order, and the CDF of a cell or of its
reference at each distinct score is the mask's running count at the last
row of that score's run of ties, divided by the mask's size: O(n) per cell.

The rank, threshold, KS and Pareto kernels sort once and then sweep or
binary-search: O(n log n) in their rows or points.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMetricError, DimensionError, UndefinedMetricError


@dataclass(frozen=True)
class QuantileGrid:
    """Nearest-rank 10%..90% quantiles of a continuous column."""

    values: tuple[float, ...]

    def __post_init__(self):
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("quantile grid must be nondecreasing")


def quantile_grid(values: np.ndarray) -> QuantileGrid:
    """q_r = sorted value at 1-based index ceil(r*n/100), r = 10..90."""
    v = np.sort(np.asarray(values, dtype=np.float64).ravel())
    n = len(v)
    idx = [int(np.ceil(r * n / 100.0)) - 1 for r in range(10, 100, 10)]
    return QuantileGrid(tuple(float(v[max(i, 0)]) for i in idx))


@dataclass
class AttributeReport:
    """Fairness values for one sensitive attribute (None where inapplicable)."""

    name: str
    sp: float | None = None
    ks_gsp: float | None = None
    eo: float | None = None
    ks_geo: float | None = None


@dataclass
class FairnessReport:
    utility_name: str
    utility_value: float
    threshold: float | None
    attributes: dict[str, AttributeReport] = field(default_factory=dict)


def _columns(*arrays) -> list[np.ndarray]:
    """Each input as a flat float64 array; all must have one length."""
    columns = [np.asarray(x, dtype=np.float64).ravel() for x in arrays]
    lengths = {len(c) for c in columns}
    if len(lengths) != 1:
        raise DimensionError(f"length mismatch: {sorted(lengths)}")
    return columns


def _classes(scores: np.ndarray, labels: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scores, the sorted scores of label 1 and the sorted scores of
    every other label, the negatives; ``name`` heads the UndefinedMetricError
    raised for a single class or a NaN score."""
    s, y = _columns(scores, labels)
    pos = y == 1
    if not 0 < np.count_nonzero(pos) < len(y):
        raise UndefinedMetricError(f"{name} undefined with a single class")
    if np.isnan(s).any():
        raise UndefinedMetricError(f"{name} undefined with NaN scores")
    positives, negatives = s[pos], s[~pos]
    positives.sort()
    negatives.sort()
    return s, positives, negatives


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based AUC; ties between a positive and a negative count 1/2.

    The Mann-Whitney count over the n1 * n0 pairs: each positive counts
    every negative below it and half of every negative equal to it. Both
    counts are whole numbers, so the count is exact. O(n log n): each class
    is sorted once, and two binary searches of the sorted negatives count
    the negatives below, and not above, the sorted positives.
    """
    _, positives, negatives = _classes(scores, labels, "AUC")
    below = np.searchsorted(negatives, positives, side="left").sum()
    not_above = np.searchsorted(negatives, positives, side="right").sum()
    return float((below + not_above) / 2.0 / (len(positives) * len(negatives)))


def choose_threshold(scores: np.ndarray, labels: np.ndarray) -> float:
    """tau maximizing Youden's J = TPR - FPR for yhat = 1(score > tau).

    Label 1 is positive and every other label negative, as in ``auc``.
    Candidates are midpoints of consecutive distinct sorted scores plus
    +/-inf sentinels; ties break toward the smallest tau. Where (a + b) / 2
    is not finite (a sum past the largest float, or an infinite score), the
    midpoint is a / 2 + min(b, largest float) / 2: finite for a finite a,
    and -inf, which still splits -inf from b, for a = -inf. O(n log n): the
    positive and the negative scores are sorted once, and a binary search
    per candidate counts the scores above it in each class (a ROC sweep).
    Counting against each candidate itself, not against its rank among the
    distinct scores, keeps the count exact when a midpoint rounds onto one
    of its two neighbours.
    """
    s, positives, negatives = _classes(scores, labels, "threshold")
    distinct = np.unique(s)
    candidates = np.empty(len(distinct) + 1)
    candidates[0], candidates[-1] = -np.inf, np.inf
    mid, lo, hi = candidates[1:-1], distinct[:-1], distinct[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        mid[:] = (lo + hi) / 2.0
    wide = ~np.isfinite(mid)
    if wide.any():
        mid[wide] = lo[wide] / 2.0 + np.minimum(hi[wide], sys.float_info.max) / 2.0
    del distinct, lo, hi, wide
    # the scores above each candidate in each class, then J = TPR - FPR
    j = np.searchsorted(positives, candidates, side="right")
    np.subtract(len(positives), j, out=j)
    j = np.divide(j, len(positives))
    fp = np.searchsorted(negatives, candidates, side="right")
    np.subtract(len(negatives), fp, out=fp)
    j -= np.divide(fp, len(negatives))
    # argmax returns the first maximum, i.e. the smallest tau
    return float(candidates[np.argmax(j)])


def _conditions(column: np.ndarray, kind: str, grid: QuantileGrid | None = None):
    """Row masks that condition on one column, and the divisor of their gap sum.

    Discrete: one ``column == v`` mask per observed level, gaps summed.
    Continuous: one ``column <= q`` mask per nearest-rank grid value (the
    column's own grid when ``grid`` is None), gaps averaged.
    """
    if kind == "discrete":
        return [(f"={v:g}", column == v) for v in np.unique(column)], 1
    if kind != "continuous":
        raise ValueError(f"unknown kind {kind!r}")
    grid = grid if grid is not None else quantile_grid(column)
    return [(f"<={q:g}", column <= q) for q in grid.values], len(grid.values)


def _outcome_conditions(y=None, y_grid=None):
    """The outcome conditions of ``y``; without ``y``, one that holds every
    row (mask None)."""
    return ([(" any", None)], 1) if y is None else _conditions(
        y, "discrete" if y_grid is None else "continuous", y_grid)


def _sweep(prepare, score, data, a_conds, y_conds, ref_where=None) -> float:
    """Sum score(data, reference, cell, size) over the (outcome condition x
    attribute condition) cells in that order, then divide by both divisors.

    Every mask is a row mask over ``data``, what the gap reads; ``a_conds``
    and ``y_conds`` are the (masks, divisor) of ``_conditions`` and
    ``_outcome_conditions``, built before the call. A cell's
    reference is its outcome condition's rows, narrowed to ``ref_where`` if
    given (A = 0 for the binary rate ratio); ``prepare(data, mask)`` prepares
    it once per outcome condition. ``size`` is the cell's row count. An
    empty reference, other than the all-rows one, or an empty cell raises
    DegenerateMetricError before its gap is taken.
    """
    (a_masks, a_div), (y_masks, y_div) = a_conds, y_conds
    total = 0.0
    for y_name, y_mask in y_masks:
        ref = y_mask if ref_where is None else ref_where if y_mask is None else ref_where & y_mask
        if ref is not None and not np.count_nonzero(ref):
            raise DegenerateMetricError(f"empty group (reference, Y{y_name})")
        reference = prepare(data, ref)
        for a_name, a_mask in a_masks:
            cell = a_mask if y_mask is None else a_mask & y_mask
            size = np.count_nonzero(cell)
            if not size:
                raise DegenerateMetricError(f"empty group (A{a_name}, Y{y_name})")
            total += score(data, reference, cell, size)
    return float(total / a_div / y_div)


def _rate_reference(values: np.ndarray, mask) -> float:
    return (values if mask is None else values[mask]).mean()


def _rate_gap(values: np.ndarray, ref_rate: float, cell: np.ndarray, size: int) -> float:
    if ref_rate == 0.0:
        raise DegenerateMetricError("zero positive rate in the reference group")
    return abs(values[cell].sum() / size / ref_rate - 1.0)  # the bits of .mean()


def _rate_sweep(values, a, kind, grid, y=None, y_grid=None) -> float:
    """The rate gap for a continuous A; for a discrete A the binary ratio,
    which applies only if every value of A is 0 or 1 (and, with ``y``, to
    a discrete outcome): UndefinedMetricError otherwise."""
    if kind != "discrete":
        return _sweep(_rate_reference, _rate_gap, values, _conditions(a, kind, grid), _outcome_conditions(y, y_grid))
    if not ((a == 0) | (a == 1)).all():
        raise UndefinedMetricError("the rate ratio needs an attribute whose every value is 0 or 1")
    if y_grid is not None:
        raise UndefinedMetricError("the rate ratio needs a discrete outcome")
    return _sweep(_rate_reference, _rate_gap, values, ([("=1", a == 1)], 1), _outcome_conditions(y), a == 0)


def sp(
    values: np.ndarray,
    a: np.ndarray,
    kind: str = "discrete",
    grid: QuantileGrid | None = None,
) -> float:
    """Rate gaps between the rows given A and a reference.

    Binary A, a discrete A whose every value is 0 or 1:
    |rate(A=1)/rate(A=0) - 1|. Continuous A: the mean over the quantile
    grid of |rate(A<=q)/rate(all) - 1|. Any other discrete A raises
    UndefinedMetricError.
    """
    values, a = _columns(values, a)
    return _rate_sweep(values, a, kind, grid)


def eo(
    values: np.ndarray,
    a: np.ndarray,
    y: np.ndarray,
    kind: str = "discrete",
    grid: QuantileGrid | None = None,
    y_grid: QuantileGrid | None = None,
) -> float:
    """The rate gaps of ``sp`` within each outcome condition, against the
    reference within that condition. A discrete A under a continuous
    outcome (a ``y_grid``) raises UndefinedMetricError too."""
    values, a, y = _columns(values, a, y)
    return _rate_sweep(values, a, kind, grid, y, y_grid)


def _ks_reference(ranked, mask) -> tuple[np.ndarray, bool]:
    """The reference's CDF at each distinct score, and whether it holds a
    NaN score."""
    ends, finite, n = ranked
    mask = np.ones(n, dtype=bool) if mask is None else mask
    return np.cumsum(mask)[ends] / np.count_nonzero(mask), mask[finite:].any()


def _ks_gap(ranked, reference, cell: np.ndarray, size: int) -> float:
    ref_cdf, ref_has_nan = reference
    if ref_has_nan:
        raise DegenerateMetricError("NaN score in KS distance")
    return float(np.abs(np.cumsum(cell)[ranked[0]] / size - ref_cdf).max())


def _ks_sweep(s, a, kind, grid, y=None, y_grid=None) -> float:
    """The KS gap, over one ranking of the scores.

    Ranking every column by score turns each condition into a row mask in
    score order, so a mask's CDF at a score is its running count at the
    last row of that score's run of ties. Evaluating at every distinct
    score, not only at the reference's own, leaves the maximum as it is: a
    cell is a subset of its reference, so where the reference has no mass
    both CDFs stay flat. Order within a run of ties does not matter, so the
    sort need not be stable. A NaN score in a reference raises
    DegenerateMetricError.
    """
    order = np.argsort(s)
    finite = len(s) - np.count_nonzero(np.isnan(s))  # NaN ranks last
    ranked = s[order][:finite]
    run_end = np.ones(finite, dtype=bool)
    run_end[:-1] = ranked[1:] != ranked[:-1]
    ends = np.flatnonzero(run_end)
    # the sweep reads only the run ends and the masks: drop the sorted
    # copies as soon as each is read
    del ranked, run_end
    a_conds = _conditions(a[order], kind, grid)
    y_conds = _outcome_conditions(None if y is None else y[order], y_grid)
    del order
    return _sweep(_ks_reference, _ks_gap, (ends, finite, len(s)), a_conds, y_conds)


def ks_gsp(
    scores: np.ndarray,
    a: np.ndarray,
    kind: str = "discrete",
    grid: QuantileGrid | None = None,
) -> float:
    """KS gaps between conditional and marginal score CDFs.

    Discrete A: sum over groups. Continuous A: average over the quantile
    grid with A<=a conditioning.
    """
    s, a = _columns(scores, a)
    return _ks_sweep(s, a, kind, grid)


def ks_geo(
    scores: np.ndarray,
    a: np.ndarray,
    y: np.ndarray,
    kind: str = "discrete",
    grid: QuantileGrid | None = None,
    y_grid: QuantileGrid | None = None,
) -> float:
    """KS gaps between score CDFs given (A, Y) and given Y alone."""
    s, a, y = _columns(scores, a, y)
    return _ks_sweep(s, a, kind, grid, y, y_grid)


def mae(predictions: np.ndarray, targets: np.ndarray) -> float:
    s, y = _columns(predictions, targets)
    return float(np.mean(np.abs(s - y)))


def _frontier_mask(points) -> np.ndarray:
    """Non-domination flag per (utility, fairness) point; O(n log n).

    Utility is maximized and fairness minimized; q dominates p when it is
    no worse in both and better in one (maxima of a point set, Kung,
    Luccio & Preparata 1975). After sorting by utility descending, then
    fairness ascending, a point is on the frontier iff it has the lowest
    fairness of its utility level and that fairness is strictly below the
    running minimum over all higher utility levels. Equal points share a
    flag. A point with a NaN coordinate never dominates and is never
    dominated, as under the pairwise definition.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    u, f = pts[:, 0], pts[:, 1]
    on = np.isnan(u) | np.isnan(f)
    rows = np.flatnonzero(~on)
    if len(rows) == 0:
        return on
    order = rows[np.lexsort((f[rows], -u[rows]))]
    us, fs = u[order], f[order]
    starts = np.concatenate(([True], us[1:] != us[:-1]))
    level = np.cumsum(starts) - 1
    best = fs[starts]  # lowest fairness of each level, by descending utility
    beats_higher = np.concatenate(([True], best[1:] < np.minimum.accumulate(best)[:-1]))
    on[order] = (fs == best[level]) & beats_higher[level]
    return on


def pareto_frontier(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Non-dominated (utility, fairness) pairs, deduplicated, utility-ascending.

    O(n log n).
    """
    unique = sorted(set((float(u), float(f)) for u, f in points))
    return [p for p, on in zip(unique, _frontier_mask(unique)) if on]


def frontier_flags(points) -> list[bool]:
    """Per-input-point frontier membership (duplicates share a flag) of a
    sequence of (utility, fairness) pairs or an (n, 2) array; O(n log n)."""
    return _frontier_mask(points).tolist()


@dataclass(frozen=True)
class TopkSummary:
    mean: float
    std: float
    count: int


def topk_fair_summary(
    frontier: list[tuple[float, float]],
    utility_threshold: float,
    k: int = 5,
) -> TopkSummary:
    """Mean/population-std of the k smallest fairness values with
    utility >= threshold; empty qualifying set yields count 0 (no error)."""
    qualifying = sorted(f for u, f in frontier if u >= utility_threshold)
    top = qualifying[:k]
    if not top:
        return TopkSummary(float("nan"), float("nan"), 0)
    arr = np.array(top)
    return TopkSummary(float(arr.mean()), float(arr.std()), len(top))
