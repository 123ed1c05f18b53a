"""Utility and fairness measurement.

Discrete-group metrics are emitted as sums over groups (the group count is
reported alongside so consumers can average). Continuous-attribute variants
average over a nine-point nearest-rank quantile grid of the attribute.

The rank, threshold, KS and Pareto kernels sort once and then sweep or
binary-search: O(n log n) in their rows or points.
"""

from __future__ import annotations

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
    group_count: int = 0


@dataclass
class FairnessReport:
    utility_name: str
    utility_value: float
    threshold: float | None
    attributes: dict[str, AttributeReport] = field(default_factory=dict)


def _check_lengths(*arrays):
    lengths = {len(np.asarray(a).ravel()) for a in arrays}
    if len(lengths) != 1:
        raise DimensionError(f"length mismatch: {sorted(lengths)}")


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based AUC; ties between a positive and a negative count 1/2.

    O(n log n): one sort inside ``_average_ranks``.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    _check_lengths(s, y)
    pos = y == 1
    n1 = int(pos.sum())
    n0 = len(y) - n1
    if n1 == 0 or n0 == 0:
        raise UndefinedMetricError("AUC undefined with a single class")
    ranks = _average_ranks(s)
    return float((ranks[pos].sum() - n1 * (n1 + 1) / 2.0) / (n1 * n0))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing their average rank; O(n log n).

    A run of ``count`` equal values starting at 0-based sorted position
    ``start`` holds ranks start+1 .. start+count, whose mean is
    (2*start + count + 1) / 2.
    """
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    starts = np.cumsum(counts) - counts
    return ((2 * starts + counts + 1) / 2.0)[inverse]


def choose_threshold(scores: np.ndarray, labels: np.ndarray) -> float:
    """tau maximizing Youden's J = TPR - FPR for yhat = 1(score > tau).

    Candidates are midpoints of consecutive distinct sorted scores plus
    +/-inf sentinels; ties break toward the smallest tau. O(n log n): the
    positive and the negative scores are sorted once, and a binary search
    per candidate counts the scores above it in each class (a ROC sweep).
    Counting against each candidate itself, not against its rank among the
    distinct scores, keeps the count exact when a midpoint rounds onto one
    of its two neighbours.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    _check_lengths(s, y)
    n1 = int((y == 1).sum())
    n0 = len(y) - n1
    if n1 == 0 or n0 == 0:
        raise UndefinedMetricError("threshold undefined with a single class")
    distinct = np.unique(s)
    candidates = np.concatenate(([-np.inf], (distinct[:-1] + distinct[1:]) / 2.0, [np.inf]))
    tp = n1 - np.searchsorted(np.sort(s[y == 1]), candidates, side="right")
    fp = n0 - np.searchsorted(np.sort(s[y == 0]), candidates, side="right")
    # argmax returns the first maximum, i.e. the smallest tau
    return float(candidates[np.argmax(tp / n1 - fp / n0)])


def _rate(values: np.ndarray, where: np.ndarray, what: str) -> float:
    if not where.any():
        raise DegenerateMetricError(f"empty group: {what}")
    return float(values[where].mean())


def sp_discrete(yhat: np.ndarray, a: np.ndarray) -> float:
    """|rate(A=1)/rate(A=0) - 1| for binary A."""
    yhat = np.asarray(yhat, dtype=np.float64).ravel()
    a = np.asarray(a).ravel()
    _check_lengths(yhat, a)
    r1 = _rate(yhat, a == 1, "A=1")
    r0 = _rate(yhat, a == 0, "A=0")
    if r0 == 0.0:
        raise DegenerateMetricError("zero positive rate in denominator group A=0")
    return abs(r1 / r0 - 1.0)


def sp_continuous(yhat: np.ndarray, a: np.ndarray, grid: QuantileGrid) -> float:
    """Mean over the quantile grid of |rate(A<=a*)/rate(overall) - 1|."""
    yhat = np.asarray(yhat, dtype=np.float64).ravel()
    a = np.asarray(a, dtype=np.float64).ravel()
    _check_lengths(yhat, a)
    overall = float(yhat.mean())
    if overall == 0.0:
        raise DegenerateMetricError("zero overall positive rate")
    terms = [abs(_rate(yhat, a <= q, f"A<={q}") / overall - 1.0) for q in grid.values]
    return float(np.mean(terms))


def eo_discrete(yhat: np.ndarray, a: np.ndarray, y: np.ndarray) -> float:
    """Sum over y of |rate(A=1, Y=y)/rate(A=0, Y=y) - 1| for binary A, Y."""
    yhat = np.asarray(yhat, dtype=np.float64).ravel()
    a = np.asarray(a).ravel()
    y = np.asarray(y).ravel()
    _check_lengths(yhat, a, y)
    total = 0.0
    for yv in np.unique(y):
        r1 = _rate(yhat, (a == 1) & (y == yv), f"(A=1, Y={yv})")
        r0 = _rate(yhat, (a == 0) & (y == yv), f"(A=0, Y={yv})")
        if r0 == 0.0:
            raise DegenerateMetricError(f"zero positive rate in cell (A=0, Y={yv})")
        total += abs(r1 / r0 - 1.0)
    return total


def eo_continuous(
    yhat: np.ndarray,
    a: np.ndarray,
    y: np.ndarray,
    a_grid: QuantileGrid,
    y_grid: QuantileGrid | None = None,
) -> float:
    """Continuous-A equalized-odds gap, averaged over the A grid.

    With discrete Y the outer sum runs over the observed y values; with a
    y_grid the conditioning becomes Y<=y and the outer sum is averaged too.
    """
    yhat = np.asarray(yhat, dtype=np.float64).ravel()
    a = np.asarray(a, dtype=np.float64).ravel()
    y = np.asarray(y).ravel()
    _check_lengths(yhat, a, y)
    y_conds = (
        [(y == yv, f"Y={yv}") for yv in np.unique(y)]
        if y_grid is None
        else [(y <= q, f"Y<={q}") for q in y_grid.values]
    )
    total = 0.0
    for y_mask, y_name in y_conds:
        ref = _rate(yhat, y_mask, y_name)
        if ref == 0.0:
            raise DegenerateMetricError(f"zero reference rate in {y_name}")
        for q in a_grid.values:
            total += abs(_rate(yhat, (a <= q) & y_mask, f"(A<={q}, {y_name})") / ref - 1.0)
    total /= len(a_grid.values)
    if y_grid is not None:
        total /= len(y_grid.values)
    return total


def _ks_distance(sample: np.ndarray, reference: np.ndarray) -> float:
    """Max empirical-CDF gap; checking the observed values is sufficient.

    O((m + n) log(m + n)) for samples of sizes m and n.
    """
    if len(sample) == 0 or len(reference) == 0:
        raise DegenerateMetricError("empty group in KS distance")
    ts = np.unique(np.concatenate([sample, reference]))
    fs = np.searchsorted(np.sort(sample), ts, side="right") / len(sample)
    fr = np.searchsorted(np.sort(reference), ts, side="right") / len(reference)
    return float(np.abs(fs - fr).max())


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
    s = np.asarray(scores, dtype=np.float64).ravel()
    a = np.asarray(a, dtype=np.float64).ravel()
    _check_lengths(s, a)
    if kind == "discrete":
        return float(sum(_ks_distance(s[a == v], s) for v in np.unique(a)))
    if kind != "continuous":
        raise ValueError(f"unknown kind {kind!r}")
    grid = grid if grid is not None else quantile_grid(a)
    gaps = [_ks_distance(s[a <= q], s) for q in grid.values]
    return float(np.mean(gaps))


def ks_geo(
    scores: np.ndarray,
    a: np.ndarray,
    y: np.ndarray,
    a_kind: str = "discrete",
    a_grid: QuantileGrid | None = None,
    y_grid: QuantileGrid | None = None,
) -> float:
    """KS gaps between score CDFs given (A, Y) and given Y alone."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    a = np.asarray(a, dtype=np.float64).ravel()
    y = np.asarray(y).ravel()
    _check_lengths(s, a, y)
    y_conds = (
        [y == yv for yv in np.unique(y)]
        if y_grid is None
        else [y <= q for q in y_grid.values]
    )
    total = 0.0
    for y_mask in y_conds:
        if not y_mask.any():
            raise DegenerateMetricError("empty outcome group")
        ref = s[y_mask]
        if a_kind == "discrete":
            for v in np.unique(a):
                cell = y_mask & (a == v)
                if not cell.any():
                    raise DegenerateMetricError(f"empty cell (A={v})")
                total += _ks_distance(s[cell], ref)
        elif a_kind == "continuous":
            grid = a_grid if a_grid is not None else quantile_grid(a)
            total += sum(_ks_distance(s[y_mask & (a <= q)], ref) for q in grid.values) / len(
                grid.values
            )
        else:
            raise ValueError(f"unknown kind {a_kind!r}")
    if y_grid is not None:
        total /= len(y_grid.values)
    return float(total)


def mae(predictions: np.ndarray, targets: np.ndarray) -> float:
    s = np.asarray(predictions, dtype=np.float64).ravel()
    y = np.asarray(targets, dtype=np.float64).ravel()
    _check_lengths(s, y)
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
    pts = np.array(points, dtype=np.float64).reshape(-1, 2)
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


def frontier_flags(points: list[tuple[float, float]]) -> list[bool]:
    """Per-input-point frontier membership (duplicates share a flag); O(n log n)."""
    return _frontier_mask([(float(u), float(f)) for u, f in points]).tolist()


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
