"""Fairness-penalized supervised learning with a resampled-attribute
adversarial penalty, plus the matching evaluation suite."""

import os

# Cap numpy's internal threading before numpy is first imported: the
# thread pools read these variables once, at load time.
if os.environ.get("FAIRPEN_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["FAIRPEN_THREADS"])

from .data import ColumnSchema, TabularDataset, load_csv, minibatch_construct, split_train_val
from .metrics import FairnessReport, pareto_frontier, topk_fair_summary
from .nn import Mlp, mlp
from .penalties import contrast, contrast_value, empirical_pmf_ratio, pretrain_density_ratio
from .training import TrainConfig, evaluate_snapshot, train

__all__ = [
    "ColumnSchema",
    "FairnessReport",
    "Mlp",
    "TabularDataset",
    "TrainConfig",
    "contrast",
    "contrast_value",
    "empirical_pmf_ratio",
    "evaluate_snapshot",
    "load_csv",
    "minibatch_construct",
    "mlp",
    "pareto_frontier",
    "pretrain_density_ratio",
    "split_train_val",
    "topk_fair_summary",
    "train",
]
