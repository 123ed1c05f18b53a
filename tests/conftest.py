import json

import numpy as np
import pytest

from fairpen.data import ColumnSchema, TabularDataset
from fairpen.nn import sigmoid


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


def destandardized_features(dataset: TabularDataset) -> np.ndarray:
    """The dataset's features on their original scale."""
    return dataset.X * dataset.scaling.std + dataset.scaling.mean


def parameters(net) -> list[np.ndarray]:
    """Every parameter array of ``net``, layer by layer, as views into its buffer."""
    return [getattr(layer, name) for layer in net.layers for name in layer.PARAMS]


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


@pytest.fixture
def toy_dataset():
    return binary_toy_dataset(200, seed=0)
