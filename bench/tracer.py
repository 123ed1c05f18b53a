"""Span tracer that times the program's layers from outside.

The program is not changed. Each traced function is replaced, at every
attribute of a ``fairpen`` module bound to it (``training.py`` imports some
by name), by a wrapper that records a span: name, start, end and parent.
Methods are replaced on their class. A span's self time is its duration
minus the time its child spans cover. A target the program no longer has
is reported absent instead of failing the run.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

_clock = time.perf_counter


def _rows(args, kwargs, result):
    return len(args[1])


def _is_infer(args, kwargs):
    train = kwargs.get("train", args[2] if len(args) > 2 else False)
    return not train


def _forward_name(tracer, args, kwargs):
    return "nn.Mlp.forward[infer]" if _is_infer(args, kwargs) else "nn.Mlp.forward[train]"


def _snapshot_name(tracer, args, kwargs):
    return "training.snapshot" if tracer.inside("training.") else "evaluate.snapshot"


# span names a naming function can return, for reporting absent targets
_forward_name.names = ("nn.Mlp.forward[infer]", "nn.Mlp.forward[train]")
_snapshot_name.names = ("training.snapshot", "evaluate.snapshot")


def _train_iterations(args, kwargs, result):
    config = kwargs.get("config")
    if config is None:
        config = next(a for a in args if hasattr(a, "T") and hasattr(a, "lam"))
    return config.T


def _saved_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


# (module, qualified name, span name or naming function, measure(args, kwargs, result))
TARGETS = [
    ("fairpen.cli", "main", "cli.main", None),
    ("fairpen.cli", "cmd_train", "cli.train", None),
    ("fairpen.cli", "cmd_evaluate", "cli.evaluate", None),
    ("fairpen.cli", "cmd_pareto", "cli.pareto", None),
    ("fairpen.data", "load_csv", "data.load_csv", lambda a, k, r: r.n),
    ("fairpen.data", "split_train_val", "data.split", None),
    ("fairpen.data", "minibatch_construct", "data.minibatch", None),
    ("fairpen.nn", "Mlp.forward", _forward_name, _rows),
    ("fairpen.nn", "Mlp.backward", "nn.Mlp.backward", None),
    ("fairpen.nn", "Mlp.sgd_step", "nn.Mlp.sgd_step", None),
    ("fairpen.nn", "Mlp.save", "nn.Mlp.save", _saved_bytes),
    ("fairpen.nn", "Mlp.load", "nn.Mlp.load", None),
    ("fairpen.nn", "DenseLayer.forward", "nn.dense.forward", None),
    ("fairpen.nn", "DenseLayer.backward", "nn.dense.backward", None),
    ("fairpen.nn", "BatchNormLayer.forward", "nn.bn.forward", None),
    ("fairpen.nn", "BatchNormLayer.backward", "nn.bn.backward", None),
    ("fairpen.nn", "ActivationLayer.forward", "nn.act.forward", None),
    ("fairpen.nn", "ActivationLayer.backward", "nn.act.backward", None),
    ("fairpen.penalties", "gsp_penalty", "penalties.gsp_penalty", None),
    ("fairpen.penalties", "geo_penalty", "penalties.geo_penalty", None),
    ("fairpen.penalties", "pretrain_density_ratio", "penalties.pretrain", None),
    ("fairpen.penalties", "DensityRatioEstimator.values", "penalties.beta_values", None),
    ("fairpen.training", "train_gsp", "training.train_gsp", _train_iterations),
    ("fairpen.training", "train_geo", "training.train_geo", _train_iterations),
    ("fairpen.training", "evaluate_snapshot", _snapshot_name, lambda a, k, r: a[1].n),
    ("fairpen.metrics", "auc", "metrics.auc", None),
    ("fairpen.metrics", "choose_threshold", "metrics.threshold", None),
    ("fairpen.metrics", "ks_gsp", "metrics.ks_gsp", None),
    ("fairpen.metrics", "ks_geo", "metrics.ks_geo", None),
    ("fairpen.metrics", "sp_discrete", "metrics.sp_discrete", None),
    ("fairpen.metrics", "sp_continuous", "metrics.sp_continuous", None),
    ("fairpen.metrics", "eo_discrete", "metrics.eo_discrete", None),
    ("fairpen.metrics", "eo_continuous", "metrics.eo_continuous", None),
    ("fairpen.metrics", "pareto_frontier", "metrics.pareto_frontier", None),
    ("fairpen.metrics", "frontier_flags", "metrics.frontier_flags", lambda a, k, r: len(a[0])),
]


class Tracer:
    """Spans of one round, kept in flat arrays, plus per-name totals:
    ``totals[name] = [calls, seconds, self seconds, measured quantity]``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.absent: list[str] = []  # span names whose target is missing
        self.reset()

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._child_time = array("d")
        self._open: list[int] = []
        self.totals: dict[str, list[float]] = {}

    def inside(self, prefix: str) -> bool:
        return any(self.names[self.span_name[i]].startswith(prefix) for i in self._open)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name, measure):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(tracer, args, kwargs)
            idx = len(tracer.span_start)
            tracer.span_name.append(tracer._name_id(span_name))
            tracer.span_parent.append(tracer._open[-1] if tracer._open else -1)
            tracer.span_end.append(0.0)
            tracer._child_time.append(0.0)
            tracer._open.append(idx)
            start = _clock()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                tracer._open.pop()
                tracer.span_end[idx] = end
                duration = end - start
                parent = tracer.span_parent[idx]
                if parent >= 0:
                    tracer._child_time[parent] += duration
                total = tracer.totals.setdefault(span_name, [0, 0.0, 0.0, 0])
                total[0] += 1
                total[1] += duration
                total[2] += duration - tracer._child_time[idx]
            if measure is not None:
                total[3] += measure(args, kwargs, result)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the others as absent."""
        modules = [m for n, m in list(sys.modules.items()) if n == "fairpen" or n.startswith("fairpen.")]
        for module_name, qualname, name, measure in targets:
            owner = sys.modules.get(module_name)
            parts = qualname.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            attr = parts[-1]
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.absent += [name] if isinstance(name, str) else list(name.names)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(raw.__func__, name, measure))
                self._patch(owner, attr, raw, wrapped)
            elif len(parts) > 1:
                self._patch(owner, attr, raw, self.wrap(raw, name, measure))
            else:
                wrapped = self.wrap(raw, name, measure)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, key, raw, wrapped)

    def _patch(self, owner, attr, original, replacement) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("index,name,parent,start,end\n")
            t0 = self.span_start[0] if self.span_start else 0.0
            for i in range(len(self.span_start)):
                f.write(
                    f"{i},{self.names[self.span_name[i]]},{self.span_parent[i]},"
                    f"{self.span_start[i] - t0:.9f},{self.span_end[i] - t0:.9f}\n"
                )
