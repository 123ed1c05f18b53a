import json
import multiprocessing
import os
import warnings

import numpy as np
import pytest
from hypothesis import settings

from fairpen.data import ColumnSchema, TabularDataset
from fairpen.nn import mlp, sigmoid
from fairpen.penalties import contrast

# CI (GitHub Actions sets CI) draws the same examples on every run, so a
# red run can be rerun as it was; a local run keeps exploring new ones.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def map_in_workers(fn, items: list) -> list:
    """``[fn(item) for item in items]`` in a ``spawn`` pool of at most one
    worker per core, each with one BLAS thread. ``fn`` must be a module-level
    function. The workers read the BLAS thread variables when they import
    numpy, so they are set only while the pool starts. A RuntimeWarning in
    a worker raises, as pyproject.toml makes it do in the test process."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        pool = multiprocessing.get_context("spawn").Pool(
            min(cores, len(items)), initializer=warnings.simplefilter, initargs=("error", RuntimeWarning))
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
    with pool:
        return pool.map_async(fn, items, chunksize=1).get(timeout=900)  # a hung worker fails the test


def binary_toy_dataset(n: int, seed: int = 0, a_rate: float = 0.5) -> TabularDataset:
    """Binary (A, Y) with two informative continuous features."""
    rng = np.random.default_rng(seed)
    a = (rng.random(n) < a_rate).astype(np.float64)
    x1 = a + rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    y = (rng.random(n) < sigmoid(x1 + 0.5 * x2)).astype(np.float64)
    schema = [
        ColumnSchema("x1", "feature", "continuous"),
        ColumnSchema("x2", "feature", "continuous"),
        ColumnSchema("a", "sensitive", "binary"),
        ColumnSchema("y", "outcome", "binary"),
    ]
    features = np.column_stack([x1, x2])
    return TabularDataset(features, a.reshape(-1, 1), a.reshape(-1, 1), y, schema, ["x1", "x2"])


def regression_toy_dataset(n: int, seed: int = 0) -> TabularDataset:
    """Binary A and a continuous outcome, min-max scaled into [0, 1] as
    ``load_csv`` scales it, with two informative continuous features."""
    rng = np.random.default_rng(seed)
    a = (rng.random(n) < 0.5).astype(np.float64)
    x1 = a + rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    y = x1 + 0.5 * x2 + 0.3 * rng.standard_normal(n)
    y = (y - y.min()) / (y.max() - y.min())
    schema = [
        ColumnSchema("x1", "feature", "continuous"),
        ColumnSchema("x2", "feature", "continuous"),
        ColumnSchema("a", "sensitive", "binary"),
        ColumnSchema("y", "outcome", "continuous"),
    ]
    features = np.column_stack([x1, x2])
    return TabularDataset(features, a.reshape(-1, 1), a.reshape(-1, 1), y, schema, ["x1", "x2"])


def conditional_independent_toy(n: int, seed: int = 0) -> TabularDataset:
    """Binary feature depending on Y only; A independent of (X, Y).

    By construction any score h(X) is independent of A given Y.
    """
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n).astype(np.float64)
    a = rng.integers(0, 2, size=n).astype(np.float64)
    x = (rng.random(n) < 0.2 + 0.6 * y).astype(np.float64)
    schema = [
        ColumnSchema("x", "feature", "binary"),
        ColumnSchema("a", "sensitive", "binary"),
        ColumnSchema("y", "outcome", "binary"),
    ]
    return TabularDataset(x.reshape(-1, 1), a.reshape(-1, 1), a.reshape(-1, 1), y, schema, ["x"])


def trained_gsp_discriminator(pmf: np.ndarray, iterations: int, seed: int = 0):
    """Criterion 2's GSP discriminator: n = 10 000 (s, a) rows drawn from the
    2 x 2 ``pmf``, and ``iterations`` ascent steps of ``contrast`` on batches
    of 100 real rows and 100 rows with A permuted within the batch."""
    rng = np.random.default_rng(seed)
    n = 10_000
    flat = rng.choice(4, size=n, p=pmf.ravel())
    s = (flat // 2).astype(np.float64)
    a = (flat % 2).astype(np.float64).reshape(-1, 1)
    D = mlp(1 + 1, [64, 64], rng=np.random.default_rng(seed + 1), batch_norm=True)
    loop_rng = np.random.default_rng(seed + 2)
    for _ in range(iterations):
        idx = loop_rng.choice(n, 100, replace=False)
        a_prime = a[idx][loop_rng.permutation(100)]
        contrast(D, np.vstack([np.column_stack([s[idx], a[idx]]), np.column_stack([s[idx], a_prime])]))
        D.sgd_step(0.005, maximize=True)
    return D


def destandardized_features(dataset: TabularDataset) -> np.ndarray:
    """The dataset's features on their original scale."""
    return dataset.X * dataset.scaling.std + dataset.scaling.mean


def parameters(net) -> list[np.ndarray]:
    """Every parameter array of ``net``, layer by layer, as views into its buffer."""
    return [getattr(layer, name) for layer in net.layers for name in layer.PARAMS]


def trained_state(net) -> list[np.ndarray]:
    """Every parameter of ``net`` and every batch-norm running statistic."""
    stats = [getattr(layer, name) for layer in net.layers for name in ("running_mean", "running_var")
             if hasattr(layer, name)]
    return parameters(net) + stats


def huge_weights(net) -> None:
    """Set every dense weight of ``net`` to the largest float: its first
    training pass overflows, and its first SGD step leaves a non-finite parameter."""
    for layer in net.layers:
        if hasattr(layer, "weights"):
            layer.weights[...] = np.finfo(np.float64).max


def gradients(net) -> list[np.ndarray]:
    """Every parameter gradient of ``net``, layer by layer, as views into its buffer."""
    return [getattr(layer, "grad_" + name) for layer in net.layers for name in layer.PARAMS]


def zero_gradients(net) -> None:
    for g in gradients(net):
        g.fill(0.0)


def rewrite_checkpoint_layer(path, index, **arrays):
    """Replace named 1-D arrays of one layer in a saved checkpoint file."""
    magic, body = path.read_text().split("\n", 1)
    spec = json.loads(body)
    for name, values in arrays.items():
        spec["layers"][index][name] = {"shape": [len(values)], "hex": [float(v).hex() for v in values]}
    path.write_text(magic + "\n" + json.dumps(spec) + "\n")


def set_checkpoint_layer_value(path, index, name, value):
    """Replace one stored value of one layer in a saved checkpoint file."""
    magic, body = path.read_text().split("\n", 1)
    spec = json.loads(body)
    spec["layers"][index][name] = value
    path.write_text(magic + "\n" + json.dumps(spec) + "\n")


@pytest.fixture
def toy_dataset():
    return binary_toy_dataset(200, seed=0)
