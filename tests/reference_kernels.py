"""The original quadratic and per-row implementations of the metric kernels
and the disjoint sampler, kept as oracles for the sort-and-sweep versions
in ``fairpen.metrics`` and ``fairpen.data``."""

import numpy as np


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


def disjoint_draw_setdiff(n, n_b, rng, sampler_rng):
    """Batch rows and resampled rows as the sampler drew them by building
    the full complement of the batch: O(n) per batch."""
    idx = rng.choice(n, size=n_b, replace=False)
    rest = np.setdiff1d(np.arange(n), idx)
    return idx, sampler_rng.choice(rest, size=n_b, replace=False)
