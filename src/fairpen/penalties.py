"""The contrast penalty and the density-ratio weights.

One objective serves all three uses: a network learns to tell real rows
from rows whose attribute was resampled from its marginal. The independence
penalty contrasts (score, attribute) pairs; the separation penalty
contrasts (score, attribute, outcome) and reweights the resampled term by
an odds-based density-ratio estimate, which is itself pre-trained by
contrasting (attribute, outcome) pairs. The trainer's D step and each
iteration of the ratio pre-training take the same ``ascend`` step, on
blocks that ``contrast_blocks`` builds from a minibatch.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .data import Minibatch, TabularDataset, minibatch_construct, rng_streams
from .errors import DimensionError, DivergenceError
from .nn import Mlp, clamp_prob, mlp

# beta(a, y): a block of attribute rows and their outcomes -> one weight per row
DensityRatio = Callable[[np.ndarray, np.ndarray], np.ndarray]


def contrast(
    net: Mlp,
    real: np.ndarray,
    fake: np.ndarray,
    w=1.0,
    params: bool = True,
) -> tuple[float, np.ndarray | None]:
    """mean[log D(real) + w log(1 - D(fake))], the real-vs-resampled objective.

    ``real`` and ``fake`` are row-aligned blocks of D's input columns; ``w``
    is a scalar or one weight per row and receives no gradient. With
    ``params`` (the D step and the density-ratio pre-training) the gradient
    w.r.t. D's parameters is accumulated into D's flat gradient buffer for
    the next ``sgd_step``, and the call returns (value, None).
    ``params=False`` (the scorer step, which needs only the input gradient)
    leaves the buffer untouched and returns (value, gradient w.r.t. the
    columns the two blocks share, summed over both halves).
    """
    real = np.asarray(real, dtype=np.float64)
    fake = np.asarray(fake, dtype=np.float64)
    if real.shape != fake.shape:
        raise DimensionError(f"real and fake blocks differ: {real.shape} vs {fake.shape}")
    n = len(real)
    w = np.asarray(w, dtype=np.float64).reshape(-1, 1)

    # One combined forward so batch-norm statistics are shared between the
    # real and resampled halves (separate passes let D discriminate on
    # batch statistics alone and collapse the penalty).
    p = clamp_prob(net.forward(np.vstack([real, fake]), train=True))
    p_real, p_fake = p[:n], p[n:]
    upstream = np.vstack([1.0 / (n * p_real), -w / (n * (1.0 - p_fake))])
    grad_in = net.backward(upstream, params)

    value = float(np.mean(np.log(p_real) + w * np.log(1.0 - p_fake)))
    return value, None if params else grad_in[:n] + grad_in[n:]


def contrast_blocks(mb: Minibatch, s=None, with_y: bool = False, beta: DensityRatio | None = None) -> tuple:
    """The real block [s, a, y], the resampled block [s, a', y] and the
    resampled term's weight beta(a, y), or 1.0 without ``beta``; the score
    column ``s`` and the outcome ``y`` are each present only if given."""
    head = () if s is None else (s,)
    tail = (mb.y,) if with_y else ()
    real = np.column_stack([*head, mb.a, *tail])
    fake = np.column_stack([*head, mb.a_prime, *tail])
    return real, fake, 1.0 if beta is None else beta(mb.a, mb.y)


def step(net: Mlp, learning_rate: float, where: str, maximize: bool = False) -> None:
    """``net.sgd_step``, with ``where`` put before the text of any
    ``DivergenceError`` it raises."""
    try:
        net.sgd_step(learning_rate, maximize=maximize)
    except DivergenceError as exc:
        raise DivergenceError(f"{where}{exc}") from exc


def ascend(net: Mlp, blocks: tuple, learning_rate: float, where: str) -> None:
    """One ascent step of ``net`` on the contrast of ``blocks``, the
    (real, fake, w) of ``contrast_blocks``."""
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
