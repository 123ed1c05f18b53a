"""The alternating min-max trainer for the independence and separation
penalties, with periodic metric snapshots for Pareto analysis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics
from .data import TabularDataset, minibatch_construct, rng_streams
from .errors import ConfigError, DegenerateMetricError, DivergenceError, UndefinedMetricError
from .nn import Mlp, bce_grad, mae_grad
from .penalties import DensityRatio, ascend, contrast, contrast_blocks, step


@dataclass
class TrainConfig:
    lam: float
    T: int
    learning_rate: float = 0.005
    T_prime: int = 1
    L: int = 1000
    n_b: int = 100
    eval_interval: int = 100
    seed: int = 0
    sampler: str = "within_batch"
    scaling: str = "convex"  # convex: (1-lam)*utility + lam*penalty; plain: utility + lam*penalty

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lam must be in [0, 1], got {self.lam}")
        for name in ("T", "T_prime", "L", "n_b", "eval_interval"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.learning_rate < float("inf"):  # also false for nan
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.sampler not in ("within_batch", "disjoint"):
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        if self.scaling not in ("convex", "plain"):
            raise ConfigError(f"unknown scaling {self.scaling!r}")

    def weights(self) -> tuple[float, float]:
        if self.scaling == "convex":
            return 1.0 - self.lam, self.lam
        return 1.0, self.lam


@dataclass
class Snapshot:
    iteration: int
    split: str
    report: metrics.FairnessReport


def evaluate_snapshot(h: Mlp, dataset: TabularDataset) -> metrics.FairnessReport:
    """Utility plus every fairness metric, h in inference mode: MAE and the
    Y <= q grid for a continuous outcome, AUC otherwise.

    A gap that ``metrics`` reports as not applying to the attribute or
    outcome format is None (a blank cell). Degenerate groups or rates yield
    NaN for the affected metric instead of an error, so evaluation never
    aborts a run for them. A score that is not finite (h's inference pass
    overflows) raises ``DivergenceError``.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite score is reported below
        scores = h.forward(dataset.X, train=False)[:, 0]
    bad = np.count_nonzero(~np.isfinite(scores))
    if bad:
        raise DivergenceError(f"{bad} of {len(scores)} rows scored non-finite")
    y = dataset.Y
    y_grid = metrics.quantile_grid(y) if dataset.outcome_column.kind == "continuous" else None

    if y_grid is None:
        try:
            utility = metrics.auc(scores, y)
            threshold = metrics.choose_threshold(scores, y)
        except UndefinedMetricError:
            utility, threshold = float("nan"), None
        yhat = scores > (threshold if threshold is not None else 0.5)
        values = yhat.astype(np.float64)
        report = metrics.FairnessReport("auc", utility, threshold)
    else:
        report = metrics.FairnessReport("mae", metrics.mae(scores, y), None)
        values = scores

    for col in dataset.sensitive_columns:
        a = dataset.sensitive_raw(col.name)
        kind = "continuous" if col.kind == "continuous" else "discrete"
        grid = metrics.quantile_grid(a) if kind == "continuous" else None
        report.attributes[col.name] = metrics.AttributeReport(
            col.name,
            _safe(metrics.sp, values, a, kind, grid),
            _safe(metrics.ks_gsp, scores, a, kind, grid),
            _safe(metrics.eo, values, a, y, kind, grid, y_grid),
            _safe(metrics.ks_geo, scores, a, y, kind, grid, y_grid),
        )
    return report


def _safe(fn, *args) -> float | None:
    """fn(*args); None (a blank cell) for a gap that does not apply, NaN
    for one that is degenerate on these rows."""
    try:
        return fn(*args)
    except UndefinedMetricError:
        return None
    except DegenerateMetricError:
        return float("nan")


def train(
    train_set: TabularDataset,
    val_set: TabularDataset,
    h: Mlp,
    D: Mlp,
    config: TrainConfig,
    beta: DensityRatio | None = None,
) -> list[Snapshot]:
    """Alternating ascent on the discriminator and descent on the scorer
    under (1-lam)*utility + lam*penalty (convex scaling), training ``h`` and
    ``D`` in place; returns the snapshots in iteration order.

    The utility is MAE for a continuous outcome and BCE otherwise.

    At lam = 0 the penalty has zero weight and each step is plain ERM: D is
    neither trained nor changed and ``beta`` is never called.

    Without ``beta`` D contrasts (s, a) with (s, a') (independence); with a
    density ratio ``beta(a, y) -> weights`` it contrasts (s, a, y) with
    (s, a', y) and weights the resampled term by beta(a, y) (separation).
    """
    streams = rng_streams(config.seed)
    batch_rng, sampler_rng = streams["batch"], streams["sampler"]
    loss_grad = mae_grad if train_set.outcome_column.kind == "continuous" else bce_grad
    lam_m, lam_f = config.weights()
    eval_at = {*range(config.eval_interval, config.T + 1, config.eval_interval), config.T}
    snapshots: list[Snapshot] = []

    for t in range(1, config.T + 1):
        where = f"lambda={config.lam:g}, iteration {t}, "
        mb = minibatch_construct(train_set, config.n_b, config.sampler, batch_rng, sampler_rng)
        s = h.forward(mb.x, train=True)
        grad_s = lam_m * loss_grad(s[:, 0], mb.y).reshape(-1, 1)
        if lam_f > 0.0:  # the adversary exists only where the penalty has weight
            blocks = contrast_blocks(mb, s, beta is not None, beta)
            for _ in range(config.T_prime):
                ascend(D, blocks, config.learning_rate, where + "D ")
            _, pen_grad = contrast(D, *blocks, params=False)
            grad_s += lam_f * pen_grad[:, :1]
        h.backward(grad_s)
        step(h, config.learning_rate, where + "h ")

        if t in eval_at:
            for split, data in (("train", train_set), ("validation", val_set)):
                try:
                    snapshots.append(Snapshot(t, split, evaluate_snapshot(h, data)))
                except DivergenceError as exc:
                    raise DivergenceError(f"{where}h on the {split} split: {exc}") from exc

    return snapshots


def snapshot_csv_rows(snapshots: list[Snapshot], attr_names: list[str]):
    header = ["iteration", "split", "utility_name", "utility_value"]
    for name in attr_names:
        header += [f"{name}_sp", f"{name}_ks_gsp", f"{name}_eo", f"{name}_ks_geo"]
    yield header
    for snap in snapshots:
        row = [
            str(snap.iteration),
            snap.split,
            snap.report.utility_name,
            repr(snap.report.utility_value),
        ]
        for name in attr_names:
            attr = snap.report.attributes.get(name)
            for value in (attr.sp, attr.ks_gsp, attr.eo, attr.ks_geo):
                row.append("" if value is None else repr(value))
        yield row

