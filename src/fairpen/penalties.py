"""The contrast penalty and the density-ratio weights.

One objective serves all three uses: a network learns to tell real rows
from rows whose attribute was resampled from its marginal. The independence
penalty contrasts (score, attribute) pairs; the separation penalty
contrasts (score, attribute, outcome) and reweights the resampled term by
an odds-based density-ratio estimate, which is itself pre-trained by
contrasting (attribute, outcome) pairs. The trainer's D step and each
iteration of the ratio pre-training take the same ``ascend`` step, on the
one block of real rows and then resampled rows that ``contrast_blocks``
builds from a minibatch; the scorer step reads the input gradient of the
same block. ``contrast`` returns D's outputs, not the objective's value,
which ``contrast_value`` computes from them for a caller that reads it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .data import Minibatch, TabularDataset, minibatch_construct, rng_streams
from .errors import DimensionError, DivergenceError
from .nn import Mlp, clamp_prob, mlp

# beta(a, y): a block of attribute rows and their outcomes -> one weight per row
DensityRatio = Callable[[np.ndarray, np.ndarray], np.ndarray]


def contrast(net: Mlp, block: np.ndarray, w=1.0, params: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """One pass of D over a contrast block: D's clamped outputs, and the
    gradient of the real-vs-resampled objective ``contrast_value``.

    ``block`` holds n real rows of D's input columns and then the n
    row-aligned resampled rows, as ``contrast_blocks`` builds it; ``w`` is a
    scalar or one weight per row and receives no gradient. With ``params``
    (the D step and the density-ratio pre-training) the gradient w.r.t. D's
    parameters is accumulated into D's flat gradient buffer for the next
    ``sgd_step``, and the call returns (p, None): p holds D's clamped
    outputs, the real rows first. ``params=False`` (the scorer step, which
    needs only the input gradient) leaves the buffer untouched and returns
    (p, gradient w.r.t. the block's columns, summed over both halves).
    """
    n, odd = divmod(len(block), 2)
    if odd:
        raise DimensionError(f"a contrast block holds real rows and as many resampled rows, not {len(block)} rows")
    w = np.asarray(w, dtype=np.float64).reshape(-1, 1)

    # One combined forward so batch-norm statistics are shared between the
    # real and resampled halves (separate passes let D discriminate on
    # batch statistics alone and collapse the penalty).
    p = clamp_prob(net.forward(block, train=True))
    upstream = np.empty_like(p)
    np.divide(1.0, n * p[:n], out=upstream[:n])
    np.divide(-w, n * (1.0 - p[n:]), out=upstream[n:])
    grad_in = net.backward(upstream, params)
    return p, None if params else grad_in[:n] + grad_in[n:]


def contrast_value(p: np.ndarray, w=1.0) -> float:
    """mean[log D(real) + w log(1 - D(fake))], the objective whose gradient
    ``contrast`` takes, from the outputs ``p`` it returns."""
    n = len(p) // 2
    w = np.asarray(w, dtype=np.float64).reshape(-1, 1)
    return float(np.mean(np.log(p[:n]) + w * np.log(1.0 - p[n:])))


def contrast_blocks(mb: Minibatch, s=None, with_y: bool = False, beta: DensityRatio | None = None) -> tuple:
    """The contrast block, the real rows [s, a, y] then the resampled rows
    [s, a', y], and the resampled term's weight beta(a, y), or 1.0 without
    ``beta``; the score column ``s`` and the outcome ``y`` are each present
    only if given."""
    (n, l), head = mb.a.shape, int(s is not None)
    k = head + l + with_y
    block = np.empty((2 * n, k))
    halves = block.reshape(2, n, k)  # a view: [real, fake]
    if s is not None:
        halves[:, :, :1] = s
    halves[0, :, head:head + l] = mb.a
    halves[1, :, head:head + l] = mb.a_prime
    if with_y:
        halves[:, :, -1] = mb.y
    return block, 1.0 if beta is None else beta(mb.a, mb.y)


def step(net: Mlp, learning_rate: float, where: str, maximize: bool = False) -> None:
    """``net.sgd_step``, with ``where`` put before the text of any
    ``DivergenceError`` it raises."""
    try:
        net.sgd_step(learning_rate, maximize=maximize)
    except DivergenceError as exc:
        raise DivergenceError(f"{where}{exc}") from exc


def ascend(net: Mlp, blocks: tuple, learning_rate: float, where: str) -> None:
    """One ascent step of ``net`` on the contrast of ``blocks``, the
    (block, w) of ``contrast_blocks``."""
    contrast(net, *blocks)
    step(net, learning_rate, where, maximize=True)


def pretrain_density_ratio(
    dataset: TabularDataset,
    L: int,
    n_b: int = 100,
    learning_rate: float = 0.005,
    seed: int = 0,
    sampler: str = "within_batch",
) -> DensityRatio:
    """Train a ratio classifier D(a, y) by ascent on
    mean[log D(a,y) + log(1 - D(a',y))] for L iterations; returns
    beta(a, y) = D / (1 - D), its odds."""
    streams = rng_streams(seed)
    # no batch-norm in the ratio classifier
    net = mlp(dataset.l + 1, [64, 64], rng=streams["init"], batch_norm=False)
    for t in range(1, L + 1):
        mb = minibatch_construct(dataset, n_b, sampler, streams["batch"], streams["sampler"])
        ascend(net, contrast_blocks(mb, with_y=True), learning_rate, f"density-ratio pre-training, iteration {t}, ")

    def beta(a: np.ndarray, y: np.ndarray) -> np.ndarray:
        d = clamp_prob(net.forward(np.column_stack([a, y]))[:, 0])
        return d / (1.0 - d)

    return beta


def empirical_pmf_ratio(dataset: TabularDataset) -> DensityRatio:
    """Plug-in beta(a, y) = p(a,y) / (p(a)p(y)) from empirical counts
    (discrete A, Y); an (a, y) cell absent from the data gets weight 1."""
    for col in dataset.sensitive_columns:
        if col.kind == "continuous":
            raise ValueError(f"sensitive column {col.name!r} is continuous")
    if dataset.outcome_column.kind == "continuous":
        raise ValueError("outcome column is continuous")
    cells, c_ay = np.unique(np.column_stack([dataset.A, dataset.Y]), axis=0, return_counts=True)
    # each marginal count sums the joint counts of the cells that share its value
    _, a_of = np.unique(cells[:, :-1], axis=0, return_inverse=True)
    _, y_of = np.unique(cells[:, -1], return_inverse=True)
    a_of, y_of = a_of.ravel(), y_of.ravel()  # the inverse's shape varies across numpy versions
    c_a, c_y = np.bincount(a_of, weights=c_ay), np.bincount(y_of, weights=c_ay)
    ratios = c_ay * dataset.n / (c_a[a_of] * c_y[y_of])

    def beta(a: np.ndarray, y: np.ndarray) -> np.ndarray:
        # One sort over the known cells and the queried rows labels each
        # queried row with the cell it equals, if any.
        _, label = np.unique(np.vstack([cells, np.column_stack([a, y])]), axis=0, return_inverse=True)
        label = label.ravel()
        weights = np.ones(label.max() + 1)
        weights[label[: len(cells)]] = ratios
        return weights[label[len(cells):]]

    return beta
