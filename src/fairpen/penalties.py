"""The contrast penalty and the density-ratio weight estimator.

One objective serves all three uses: a network learns to tell real rows
from rows whose attribute was resampled from its marginal. The independence
penalty contrasts (score, attribute) pairs; the separation penalty
contrasts (score, attribute, outcome) and reweights the resampled term by
an odds-based density-ratio estimate, which is itself pre-trained by
contrasting (attribute, outcome) pairs.
"""

from __future__ import annotations

import numpy as np

from .data import TabularDataset, minibatch_construct
from .errors import DimensionError, StateError
from .nn import Mlp, clamp_prob, mlp


class DensityRatioEstimator:
    """beta(a, y) = p(a,y) / (p(a)p(y)), via a classifier's odds, an
    empirical pmf table, or a constant (the no-weight ablation)."""

    def __init__(self, net: Mlp | None = None, table: dict | None = None,
                 constant: float | None = None, frozen: bool = False):
        sources = sum(x is not None for x in (net, table, constant))
        if sources != 1:
            raise ValueError("exactly one of net/table/constant required")
        self.net = net
        self.table = table
        self.constant = constant
        self.frozen = frozen

    def values(self, a: np.ndarray, y: np.ndarray) -> np.ndarray:
        if not self.frozen:
            raise StateError("density-ratio estimator must be frozen before use")
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).ravel()
        if self.constant is not None:
            return np.full(len(y), self.constant)
        if self.table is not None:
            # unseen (a, y) cells get the neutral weight 1
            return np.array(
                [self.table.get(tuple(row) + (yv,), 1.0) for row, yv in zip(a, y)]
            )
        d = clamp_prob(self.net.forward(np.column_stack([a, y]))[:, 0])
        return d / (1.0 - d)


def contrast(
    net: Mlp,
    real: np.ndarray,
    fake: np.ndarray,
    w=1.0,
    train: bool = True,
    params: bool = True,
) -> tuple[float, np.ndarray]:
    """mean[log D(real) + w log(1 - D(fake))], the real-vs-resampled objective.

    ``real`` and ``fake`` are row-aligned blocks of D's input columns; ``w``
    is a scalar or one weight per row and receives no gradient. Returns
    (value, gradient w.r.t. the columns the two blocks share, summed over
    both halves). With ``params`` (the D step) the gradient w.r.t. D's
    parameters is accumulated into D's flat gradient buffer for the next
    ``sgd_step``; ``params=False`` (the scorer step, which needs only the
    input gradient) skips that work and leaves the buffer untouched.
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
    p = clamp_prob(net.forward(np.vstack([real, fake]), train=train))
    p_real, p_fake = p[:n], p[n:]
    upstream = np.vstack([1.0 / (n * p_real), -w / (n * (1.0 - p_fake))])
    grad_in = net.backward(upstream, params)

    value = float(np.mean(np.log(p_real) + w * np.log(1.0 - p_fake)))
    return value, grad_in[:n] + grad_in[n:]


def pretrain_density_ratio(
    dataset: TabularDataset,
    L: int,
    n_b: int = 100,
    learning_rate: float = 0.005,
    seed: int = 0,
    sampler: str = "within_batch",
    hidden: tuple[int, ...] = (64, 64),
    net: Mlp | None = None,
) -> DensityRatioEstimator:
    """Train the ratio classifier by ascent on
    mean[log D(a,y) + log(1 - D(a',y))] for L iterations; returns it frozen."""
    init_ss, batch_ss, sampler_ss = np.random.SeedSequence(seed).spawn(3)
    if net is None:
        # no batch-norm in the ratio classifier
        net = mlp(dataset.l + 1, list(hidden), rng=np.random.default_rng(init_ss), batch_norm=False)
    batch_rng = np.random.default_rng(batch_ss)
    sampler_rng = np.random.default_rng(sampler_ss)
    for _ in range(L):
        mb = minibatch_construct(dataset, n_b, sampler, batch_rng, sampler_rng)
        contrast(net, np.column_stack([mb.a, mb.y]), np.column_stack([mb.a_prime, mb.y]))
        net.sgd_step(learning_rate, maximize=True)
    return DensityRatioEstimator(net=net, frozen=True)


def empirical_pmf_ratio(dataset: TabularDataset) -> DensityRatioEstimator:
    """Plug-in ratio p(a,y)/(p(a)p(y)) from empirical counts (discrete A, Y)."""
    for col in dataset.sensitive_columns:
        if col.kind == "continuous":
            raise ValueError(f"sensitive column {col.name!r} is continuous")
    if dataset.outcome_column.kind == "continuous":
        raise ValueError("outcome column is continuous")
    n = dataset.n
    joint: dict[tuple, float] = {}
    marg_a: dict[tuple, float] = {}
    marg_y: dict[float, float] = {}
    for row, yv in zip(dataset.A, dataset.Y):
        ka, ky = tuple(row), float(yv)
        joint[ka + (ky,)] = joint.get(ka + (ky,), 0.0) + 1.0 / n
        marg_a[ka] = marg_a.get(ka, 0.0) + 1.0 / n
        marg_y[ky] = marg_y.get(ky, 0.0) + 1.0 / n
    table = {
        key: p / (marg_a[key[:-1]] * marg_y[key[-1]]) for key, p in joint.items()
    }
    return DensityRatioEstimator(table=table, frozen=True)

