"""The alternating min-max trainer for the independence and separation
penalties, with periodic metric snapshots for Pareto analysis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics
from .data import TabularDataset, minibatch_construct, rng_streams
from .errors import ConfigError, DegenerateMetricError, DivergenceError, UndefinedMetricError
from .nn import Mlp, bce_loss, mae_loss
from .penalties import DensityRatio, contrast


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
    """Utility plus every applicable fairness metric, h in inference mode:
    MAE and the Y <= q grid for a continuous outcome, AUC otherwise.

    Degenerate groups or rates yield NaN for the affected metric instead of
    an error, so evaluation never aborts a run.
    """
    scores = h.forward(dataset.X, train=False)[:, 0]
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
        attr = metrics.AttributeReport(name=col.name)
        attr.ks_gsp = _safe(metrics.ks_gsp, scores, a, kind, grid)
        attr.ks_geo = _safe(metrics.ks_geo, scores, a, y, kind, grid, y_grid)
        if grid is not None:
            attr.sp = _safe(metrics.sp_continuous, values, a, grid)
            attr.eo = _safe(metrics.eo_continuous, values, a, y, grid, y_grid)
        elif set(np.unique(a)) <= {0.0, 1.0}:  # the rate ratios need binary A
            attr.sp = _safe(metrics.sp_discrete, values, a)
            if y_grid is None:
                attr.eo = _safe(metrics.eo_discrete, values, a, y)
        report.attributes[col.name] = attr
    return report


def _safe(fn, *args) -> float:
    try:
        return fn(*args)
    except DegenerateMetricError:
        return float("nan")


def _snapshot_iterations(T: int, interval: int) -> list[int]:
    its = list(range(interval, T + 1, interval))
    if not its or its[-1] != T:
        its.append(T)
    return its


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

    Without ``beta`` D contrasts (s, a) with (s, a') (independence); with a
    density ratio ``beta(a, y) -> weights`` it contrasts (s, a, y) with
    (s, a', y) and weights the resampled term by beta(a, y) (separation).
    """
    streams = rng_streams(config.seed)
    batch_rng, sampler_rng = streams["batch"], streams["sampler"]
    loss_fn = mae_loss if train_set.outcome_column.kind == "continuous" else bce_loss
    lam_m, lam_f = config.weights()
    eval_at = set(_snapshot_iterations(config.T, config.eval_interval))
    snapshots: list[Snapshot] = []

    def sgd_step(net: Mlp, name: str, maximize: bool = False) -> None:
        try:
            net.sgd_step(config.learning_rate, maximize=maximize)
        except DivergenceError as exc:
            raise DivergenceError(f"lambda={config.lam:g}, iteration {t}, {name} {exc}") from exc

    for t in range(1, config.T + 1):
        mb = minibatch_construct(train_set, config.n_b, config.sampler, batch_rng, sampler_rng)
        s = h.forward(mb.x, train=True)
        if beta is None:
            real, fake, w = np.column_stack([s, mb.a]), np.column_stack([s, mb.a_prime]), 1.0
        else:
            real = np.column_stack([s, mb.a, mb.y])
            fake = np.column_stack([s, mb.a_prime, mb.y])
            w = beta(mb.a, mb.y)

        for _ in range(config.T_prime):
            contrast(D, real, fake, w)
            sgd_step(D, "D", maximize=True)

        _, grad_p = loss_fn(s[:, 0], mb.y)
        grad_s = lam_m * grad_p.reshape(-1, 1)
        if lam_f > 0.0:
            _, pen_grad = contrast(D, real, fake, w, params=False)
            grad_s = grad_s + lam_f * pen_grad[:, :1]
        h.backward(grad_s)
        sgd_step(h, "h")

        if t in eval_at:
            for split, data in (("train", train_set), ("validation", val_set)):
                snapshots.append(Snapshot(t, split, evaluate_snapshot(h, data)))

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

