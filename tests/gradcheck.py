"""Central-finite-difference gradient checking helpers shared by the unit
and acceptance suites, and the losses they check: the library trains with
``bce_grad`` and ``mae_grad`` alone."""

import numpy as np

from conftest import gradients, parameters, zero_gradients
from fairpen.nn import ActivationLayer, BatchNormLayer, DenseLayer, Mlp, _flat_pair, bce_grad, clamp_prob, mae_grad


def bce_loss(probabilities: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient w.r.t. the probabilities."""
    p, y = _flat_pair(probabilities, labels)
    pc = clamp_prob(p)
    return float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))), bce_grad(p, y)


def mae_loss(predictions: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute error and its subgradient (0 at exact ties)."""
    s, y = _flat_pair(predictions, targets)
    return float(np.mean(np.abs(y - s))), mae_grad(s, y)


def relative_error(analytic: float, numeric: float, floor: float = 1e-5) -> float:
    """Relative gap with a floor above the central-difference noise level
    (~1e-10 absolute at eps=1e-6), so near-zero gradients compare cleanly."""
    denom = max(abs(analytic), abs(numeric), floor)
    return abs(analytic - numeric) / denom


def check_network_gradients(net, loss_fn, x, y, eps: float = 1e-6) -> float:
    """Max relative error between backprop and central differences over
    every parameter of ``net`` (train-mode forward throughout)."""
    out = net.forward(x, train=True)
    _, grad_out = loss_fn(out[:, 0], y)
    zero_gradients(net)
    net.forward(x, train=True)
    net.backward(grad_out.reshape(-1, 1))
    analytic = [g.copy() for g in gradients(net)]
    zero_gradients(net)

    def loss_at():
        value, _ = loss_fn(net.forward(x, train=True)[:, 0], y)
        return value

    worst = 0.0
    for param, grad in zip(parameters(net), analytic):
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            original = param[idx]
            param[idx] = original + eps
            plus = loss_at()
            param[idx] = original - eps
            minus = loss_at()
            param[idx] = original
            numeric = (plus - minus) / (2.0 * eps)
            worst = max(worst, relative_error(grad[idx], numeric))
    return worst


def random_config(rng: np.random.Generator):
    """One random (network, loss, batch) gradient-check configuration: the
    layout ``mlp()`` builds, but with relu or sigmoid hidden blocks."""
    in_dim = int(rng.integers(2, 6))
    depth = int(rng.integers(1, 4))
    hidden = [int(rng.integers(3, 9)) for _ in range(depth)]
    batch_norm = bool(rng.integers(0, 2))
    hidden_act = ["relu", "sigmoid"][int(rng.integers(0, 2))]
    regression = bool(rng.integers(0, 2))
    out_act = "identity" if regression else "sigmoid"
    loss_fn = mae_loss if regression else bce_loss
    layers, prev = [], in_dim
    for width in hidden:
        layers.append(DenseLayer(prev, width, rng))
        if batch_norm:
            layers.append(BatchNormLayer(width))
        layers.append(ActivationLayer(hidden_act))
        prev = width
    net = Mlp(layers + [DenseLayer(prev, 1, rng), ActivationLayer(out_act)])
    n = int(rng.integers(4, 12))
    # keep inputs away from relu kinks and mae ties for clean central diffs
    x = rng.standard_normal((n, in_dim)) + 0.1
    if regression:
        y = rng.standard_normal(n)
    else:
        y = rng.integers(0, 2, size=n).astype(np.float64)
    return net, loss_fn, x, y
