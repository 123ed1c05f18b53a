"""Minimal feed-forward network engine with manual backprop and SGD.

The layer set is closed: dense, batch-norm, and elementwise activations
(relu / sigmoid / identity). Each layer class declares what it stores: its
trainable arrays in ``PARAMS``, its untrained arrays in ``BUFFERS`` and its
plain values in ``SETTINGS``. That declaration, under the class's ``KIND``,
is its checkpoint spec. ``Mlp`` owns one flat parameter buffer and one flat
gradient buffer and re-homes every ``PARAMS`` array, and its ``grad_<name>``
twin, as a view into them, so ``sgd_step`` is one scaled add, one finiteness
check and one clear over the whole network. ``backward`` either
accumulates the parameter gradients into those views and returns None (no
caller reads the input gradient of a parameter pass, so the first dense
layer does not form it), or, with ``params=False``, returns the input
gradient and leaves the gradient buffer untouched.
In train mode a batch-norm layer subtracts the batch mean, which removes
the bias of a dense layer right before it. So that dense layer computes
x W alone, adds nothing to its bias gradient, and leaves its bias as
stored; the batch-norm layer adds that bias to the batch mean for its
running mean only, so the running mean still tracks the biased input and
the inference fold below keeps its meaning. Train-mode batch-norm takes the
variance in one pass over the centred block, caches that block and inv_std
(not x_hat), writes centred * (gamma * inv_std) + beta_shift, and its
backward reuses the gamma and beta_shift gradient sums. A relu writes
max(x, 0) into x, and masks its gradient in place, wherever that array is
a temporary of the stack: never into an array the caller passed to
``Mlp.forward`` or ``Mlp.backward``. Relu, sigmoid, identity and a dense
layer with no batch-norm after it give bit for bit the textbook forms. A
dense layer and the batch-norm layer after it differ from the textbook
pair (x W + b, then batch-norm) by rounding only: for a batch of n rows,
the centred block lies within 4 * (n + 4) * eps of the textbook one times
|x| @ |W| + |b| plus its column mean, and every other value within
4 * (n + 4) * eps times the magnitudes of the terms summed into it, plus
that error carried through.

A narrow pair, whose dense layer maps k columns to m >= 2 k (at the CLI's
width 64 only the first hidden block of h and of D), never forms x W in
train mode. Its statistics follow from the k x k covariance of the centred
input x_c = x - mean(x): the variance of x W is the quadratic form
colsum(W * (x_c^T x_c W)) / n, clamped at 0, and the output is
x_c (W * gamma * inv_std) + beta_shift. Its backward forms x_c^T g once and
gives the weights gradient (x_c^T g - x_c^T x_c W * c) * gamma * inv_std
with c = sum(g * x_hat) * inv_std / n, and the input gradient, where one is
read, from products with W. Above k = m / 2 the wider products cost more
than the passes they save, so those pairs keep the kernels above. Below
m = 32 the narrow input-gradient pass is slower than the wide one while
its parameter pass stays faster; measured with one BLAS thread, a train
step of width-16 networks (a continuous outcome) runs as fast on either
path, one of width 32 about 1.05x and one of width 64 about 1.09x faster
on the narrow path. The
narrow pair obeys the same bound with 4 * (n + k + 4) * eps, with the sums
over the terms of |x_c| @ |W| in place of the centred block, and with the
variance off by up to that factor times mean((|x_c| @ |W|)^2), the
magnitude the quadratic form sums; its input gradient and weights gradient
are bounded by the magnitudes of the terms the gradient w.r.t. x W would
sum. Over a whole training run every stored array and snapshot cell stays
within 1e-12 of the textbook run.

At inference batch-norm is a fixed per-column affine map x * s + shift,
s = gamma / sqrt(running_var + epsilon), and an inference pass folds each
batch-norm layer into the dense layer right before it: weights * s and
(bias - running_mean) * s + beta_shift. A batch-norm layer with no dense
layer before it applies its affine map on its own; dense layers with no
batch-norm after them run as in training. The folded pass differs from the
textbook one (dense, then (x - running_mean) / sqrt(running_var + epsilon)
* gamma + beta_shift) by rounding only: each output of a folded layer with
k input columns lies within 4 * (k + 4) * eps of the textbook value,
relative to |s| * (|x| @ |weights| + |bias| + |running_mean|) +
|beta_shift| (k = 1 and weights = 1 for a batch-norm layer on its own).
On a trained scorer that moves scores by under 1e-15. An
inference pass keeps no layer cache and runs a long input in row blocks of
``INFER_BLOCK`` rows, so its transient memory does not grow with the number
of rows; a row's bits do not depend on the block it falls in. A row
scored in a call of fewer than ``INFER_BLOCK`` rows can differ from the same
row in a longer call by a few ulps, within the bound above. ``Mlp.load``
refuses a checkpoint whose folded scale, weights or shift is not finite.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .errors import CheckpointError, DimensionError, DivergenceError, StateError

PROB_EPS = 1e-7
CKPT_MAGIC = "FAIRPEN-CKPT-v1"
INFER_BLOCK = 1024  # rows per block of an inference pass


def sigmoid(x: np.ndarray) -> np.ndarray:
    # numerically stable in both tails: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def clamp_prob(p: np.ndarray) -> np.ndarray:
    """Bound probabilities away from 0/1 before any logarithm."""
    return np.clip(p, PROB_EPS, 1.0 - PROB_EPS)


def _arr_to_spec(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "hex": list(map(float.hex, a.ravel().tolist()))}


def _arr_from_spec(d: dict) -> np.ndarray:
    # no count: len() of a malformed non-list "hex" would change the error text
    vals = np.fromiter(map(float.fromhex, d["hex"]), np.float64)
    if not np.isfinite(vals).all():
        raise ValueError("non-finite value")
    return vals.reshape(d["shape"])


class _Layer:
    KIND = ""
    PARAMS: tuple[str, ...] = ()  # trainable arrays; Mlp adds a grad_<name> view for each
    BUFFERS: tuple[str, ...] = ()  # arrays a checkpoint stores but SGD does not train
    SETTINGS: tuple[str, ...] = ()  # plain values a checkpoint stores

    def check(self) -> None:
        """Raise ValueError if the stored values do not fit together."""

    def to_spec(self) -> dict:
        spec = {"kind": self.KIND}
        for name in self.PARAMS + self.BUFFERS:
            spec[name] = _arr_to_spec(getattr(self, name))
        for name in self.SETTINGS:
            spec[name] = getattr(self, name)
        return spec

    @classmethod
    def from_spec(cls, spec: dict) -> "_Layer":
        layer = cls.__new__(cls)
        for name in cls.SETTINGS:
            setattr(layer, name, spec[name])
        for name in cls.PARAMS + cls.BUFFERS:
            setattr(layer, name, _arr_from_spec(spec[name]))
        layer._cache = None
        layer.check()
        return layer


class DenseLayer(_Layer):
    """Affine layer y = x W + b with cached input for backprop. When ``Mlp``
    puts a batch-norm layer right after it, train mode computes x W alone:
    the batch mean removes b, so b is neither applied nor trained there. A
    narrow such layer does not form x W in train mode at all: it hands
    batch-norm x W in factored form, and its backward takes batch-norm's
    gradient in factored form."""

    KIND = "dense"
    PARAMS = ("weights", "bias")
    # set by Mlp: a batch-norm layer follows; it is at least twice as wide as
    # the input (narrow); no layer before this one has parameters, so a
    # parameter pass reads no input gradient from it
    feeds_batch_norm = narrow = input_grad_unread = False

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        self.weights = rng.uniform(-limit, limit, size=(in_dim, out_dim))
        self.bias = np.zeros(out_dim)
        self._cache: np.ndarray | tuple | None = None

    def check(self) -> None:
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[1],):
            raise ValueError(f"dense weights {self.weights.shape} and bias {self.bias.shape} do not fit")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]

    def forward(self, x: np.ndarray, train: bool):
        if train and self.narrow:
            # x W as (centred, W, mean W, var): its rows are centred W + mean W,
            # and var, its column variance, is a quadratic form in the k x k
            # covariance of x
            n = len(x)
            mean = x.sum(axis=0) / n
            centred = x - mean
            cw = (centred.T @ centred) @ self.weights
            self._cache = (centred, cw)
            return centred, self.weights, mean @ self.weights, np.einsum("ij,ij->j", self.weights, cw) / n
        self._cache = x if train else None
        out = x @ self.weights
        if not (train and self.feeds_batch_norm):
            out += self.bias
        return out

    def fold(self, bn: "BatchNormLayer") -> "DenseLayer":
        """This layer followed by ``bn`` at inference, as one dense layer."""
        scale, shift = bn.affine(self.bias)
        folded = DenseLayer.__new__(DenseLayer)
        folded.weights, folded.bias, folded._cache = self.weights * scale, shift, None
        return folded

    def backward(self, grad_out, params: bool = True) -> np.ndarray | None:
        """Accumulate the parameter gradients with ``params``; return the
        input gradient, or None in a parameter pass that reads none."""
        if self.narrow:
            return self._backward_narrow(*grad_out, params)
        if params:
            self.grad_weights += self._cache.T @ grad_out
            if not self.feeds_batch_norm:  # else every column of grad_out sums to 0
                self.grad_bias += grad_out.sum(axis=0)
            if self.input_grad_unread:
                return None
        return grad_out @ self.weights.T

    def _backward_narrow(self, g, g_proj, g_sum, scale, c, params):
        # batch-norm's gradient w.r.t. x W is (g - g_sum / n) * scale -
        # centred W * (scale * c). Its columns sum to 0, as do centred's, so
        # x^T of it is (centred^T g - cw * c) * scale; g_proj = centred^T g.
        centred, cw = self._cache
        if params:
            self.grad_weights += (g_proj - cw * c) * scale
            if self.input_grad_unread:
                return None
        scaled = self.weights * scale
        grad_in = g @ scaled.T
        grad_in -= (g_sum * scale / len(g)) @ self.weights.T
        grad_in -= centred @ ((scaled * c) @ self.weights.T)
        return grad_in


class BatchNormLayer(_Layer):
    """Batch normalization: batch statistics in train mode, exponential
    running statistics (momentum 0.99) in inference mode."""

    KIND = "batch_norm"
    PARAMS = ("gamma", "beta_shift")
    BUFFERS = ("running_mean", "running_var")
    SETTINGS = ("momentum", "epsilon")
    input_bias = None  # set by Mlp: the bias a dense layer before it leaves out in train mode

    def __init__(self, width: int, momentum: float = 0.99, epsilon: float = 1e-5):
        self.gamma = np.ones(width)
        self.beta_shift = np.zeros(width)
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)
        self.momentum = momentum
        self.epsilon = epsilon
        self._cache: tuple | None = None

    def check(self) -> None:
        arrays = [getattr(self, name) for name in self.PARAMS + self.BUFFERS]
        if any(a.shape != (len(self.gamma),) for a in arrays):
            raise ValueError(f"batch-norm arrays of shapes {[a.shape for a in arrays]} differ")
        for name in self.SETTINGS:
            value = getattr(self, name)
            real = isinstance(value, (int, float)) and not isinstance(value, bool)
            # abs(), not math.isfinite, which raises on an int too large for a float
            if not (real and abs(value) <= sys.float_info.max):
                raise ValueError(f"batch-norm {name} {value!r} is not a finite real number")
        if not self.epsilon > 0.0:
            raise ValueError(f"batch-norm epsilon {self.epsilon!r} is not positive")
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError(f"batch-norm momentum {self.momentum!r} is outside [0, 1]")
        if (self.running_var < 0.0).any():
            raise ValueError("batch-norm running_var has a negative entry")
        with np.errstate(over="ignore"):
            if not np.isfinite(self.running_var + self.epsilon).all():
                raise ValueError("batch-norm running_var + epsilon overflows")

    def forward(self, x, train: bool) -> np.ndarray:
        """``x`` is the batch, or, after a narrow dense layer in train mode,
        that layer's output in factored form (centred, W, mean, var)."""
        if train:
            if isinstance(x, tuple):
                centred, weights, mean, var = x
                np.maximum(var, 0.0, out=var)  # rounding can take the quadratic form below 0
            else:
                # centre once; the centred block gives the variance (one
                # einsum pass) and the output, and the backward reads it
                n = len(x)
                mean = x.sum(axis=0) / n
                centred = x - mean
                var = np.einsum("ij,ij->j", centred, centred) / n
                weights = None
            inv_std = 1.0 / np.sqrt(var + self.epsilon)
            self._cache = (centred, weights, inv_std)
            if self.input_bias is not None:  # the running mean tracks the biased input
                mean += self.input_bias
            self.running_mean *= self.momentum
            self.running_mean += (1 - self.momentum) * mean
            self.running_var *= self.momentum
            self.running_var += (1 - self.momentum) * var
            scale = self.gamma * inv_std
            out = centred * scale if weights is None else centred @ (weights * scale)
            out += self.beta_shift
            return out
        self._cache = None
        scale, shift = self.affine()
        out = x * scale
        out += shift
        return out

    def affine(self, bias=0.0) -> tuple[np.ndarray, np.ndarray]:
        """(s, shift) such that the inference output for input x + bias is
        x * s + shift, up to rounding."""
        scale = self.gamma / np.sqrt(self.running_var + self.epsilon)
        return scale, (bias - self.running_mean) * scale + self.beta_shift

    def backward(self, grad_out: np.ndarray, params: bool = True):
        # gamma * inv_std * (g - sum(g) / n - x_hat * sum(g * x_hat) / n), in
        # place, with x_hat = centred * inv_std; the two column sums are the
        # beta_shift and gamma gradients. After a narrow dense layer, x_hat
        # is centred W * inv_std, and that layer finishes the gradient from
        # (g, centred^T g, sum(g), gamma * inv_std, c).
        centred, weights, inv_std = self._cache
        n = grad_out.shape[0]
        g_sum = grad_out.sum(axis=0)
        if weights is None:
            gx_sum = np.einsum("ij,ij->j", grad_out, centred)
        else:
            g_proj = centred.T @ grad_out
            gx_sum = np.einsum("ij,ij->j", weights, g_proj)
        gx_sum *= inv_std
        if params:
            self.grad_gamma += gx_sum
            self.grad_beta_shift += g_sum
        c = gx_sum * inv_std / n
        if weights is not None:
            return grad_out, g_proj, g_sum, self.gamma * inv_std, c
        grad_in = centred * c
        np.subtract(grad_out, grad_in, out=grad_in)
        grad_in -= g_sum / n
        grad_in *= self.gamma * inv_std
        return grad_in


class ActivationLayer(_Layer):
    """Elementwise relu / sigmoid / identity."""

    KIND = "activation"
    SETTINGS = ("fn",)
    FUNCTIONS = ("relu", "sigmoid", "identity")
    # set by Mlp where the relu's input (forward) or incoming gradient
    # (backward) is always a temporary of the stack, never the caller's array
    forward_in_place = backward_in_place = False

    def __init__(self, fn: str):
        self.fn = fn
        self._cache: np.ndarray | None = None
        self.check()

    def check(self) -> None:
        if self.fn not in self.FUNCTIONS:
            raise ValueError(f"unknown activation {self.fn!r}")

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if self.fn == "relu":
            # out > 0 exactly where x > 0 (NaN stays NaN), so out is the mask's cache
            out = np.maximum(x, 0.0, out=x if self.forward_in_place else None)
            self._cache = out if train else None
        elif self.fn == "sigmoid":
            out = sigmoid(x)
            self._cache = out if train else None
        else:
            out = x
            self._cache = None
        return out

    def backward(self, grad_out: np.ndarray, params: bool = True) -> np.ndarray:
        if self.fn == "relu":
            return np.multiply(grad_out, self._cache > 0, out=grad_out if self.backward_in_place else None)
        if self.fn == "sigmoid":
            s = self._cache
            return grad_out * s * (1.0 - s)
        return grad_out


_LAYER_KINDS = {cls.KIND: cls for cls in (DenseLayer, BatchNormLayer, ActivationLayer)}


class Mlp:
    """Ordered layer stack with a shared train/inference mode switch; owns
    every layer's parameters and gradients as views into two flat buffers."""

    def __init__(self, layers: list):
        self.layers = layers
        self._train_cache_ready = False
        arrays = [(i, layer, name) for i, layer in enumerate(layers) for name in layer.PARAMS]
        self._params = np.empty(sum(getattr(layer, name).size for _, layer, name in arrays))
        self._grads = np.zeros_like(self._params)
        self._spans = []  # (layer index, start, stop) of each array in the flat buffers
        start = 0
        for i, layer, name in arrays:
            value = getattr(layer, name)
            stop = start + value.size
            self._params[start:stop] = value.ravel()
            setattr(layer, name, self._params[start:stop].reshape(value.shape))
            setattr(layer, "grad_" + name, self._grads[start:stop].reshape(value.shape))
            self._spans.append((i, start, stop))
            start = stop
        for prev, layer in zip([None, *layers], layers):
            if isinstance(layer, BatchNormLayer) and isinstance(prev, DenseLayer):
                prev.feeds_batch_norm, layer.input_bias = True, prev.bias
                prev.narrow = 2 * prev.in_dim <= prev.out_dim
        first = next((layer for layer in layers if layer.PARAMS), None)
        if isinstance(first, DenseLayer):
            first.input_grad_unread = True
        # every layer but identity returns a new array, so a relu's input is a
        # temporary after any such layer and its gradient before one
        makes_new = [not (isinstance(layer, ActivationLayer) and layer.fn == "identity") for layer in layers]
        for i, layer in enumerate(layers):
            if isinstance(layer, ActivationLayer):
                layer.forward_in_place, layer.backward_in_place = any(makes_new[:i]), any(makes_new[i + 1:])
        width = None  # output width of the last dense or batch-norm layer so far
        for i, layer in enumerate(layers):
            if isinstance(layer, DenseLayer):
                needs, width_out = layer.in_dim, layer.out_dim
            elif isinstance(layer, BatchNormLayer):
                needs = width_out = len(layer.gamma)
            else:
                continue
            if width is not None and needs != width:
                raise DimensionError(
                    f"layer {i}: widths incompatible: {width} -> {needs}"
                )
            width = width_out

    @property
    def in_dim(self) -> int:
        return next(l for l in self.layers if isinstance(l, DenseLayer)).in_dim

    @property
    def out_dim(self) -> int:
        return [l for l in self.layers if isinstance(l, DenseLayer)][-1].out_dim

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(
                f"expected input of width {self.in_dim}, got shape {x.shape}"
            )
        if train:
            out = self._forward_layers(self.layers, x, True)
        else:
            layers = [layer for _, layer in self._inference_layers()]
            for layer in self.layers:  # a folded dense layer would keep its training input
                layer._cache = None
            # Blocks of INFER_BLOCK rows, the remainder folded into the last
            # block. Blocks start at multiples of INFER_BLOCK, so BLAS unrolls
            # a block's rows as it unrolls the whole array's, and no block has
            # one row (numpy would take its vector product, whose bits can
            # differ). Every row thus gets the bits of the whole-array folded
            # pass, whichever block it falls in.
            out = np.empty((len(x), self.out_dim))
            start = 0
            for stop in [*range(INFER_BLOCK, len(x) - INFER_BLOCK + 1, INFER_BLOCK), len(x)]:
                out[start:stop] = self._forward_layers(layers, x[start:stop], False)
                start = stop
        self._train_cache_ready = train
        return out

    def _inference_layers(self) -> list:
        """(index, layer) of the layers an inference pass runs: each
        batch-norm layer right after a dense layer is folded into that
        layer, under the batch-norm layer's index."""
        layers = []
        for i, (prev, layer) in enumerate(zip([None, *self.layers], self.layers)):
            if isinstance(layer, BatchNormLayer) and isinstance(prev, DenseLayer):
                layers[-1] = i, prev.fold(layer)
            else:
                layers.append((i, layer))
        return layers

    @staticmethod
    def _forward_layers(layers: list, x: np.ndarray, train: bool) -> np.ndarray:
        for layer in layers:
            x = layer.forward(x, train)
        return x

    def backward(self, grad_out: np.ndarray, params: bool = True) -> np.ndarray | None:
        """With ``params``, accumulate the parameter gradients and return
        None; without, return the gradient w.r.t. the input and leave the
        gradient buffer as is."""
        if not self._train_cache_ready:
            raise StateError("backward called without a prior train-mode forward")
        grad = np.asarray(grad_out, dtype=np.float64)
        for layer in reversed(self.layers):
            grad = layer.backward(grad, params)
            if grad is None:  # the first layer with parameters, in a parameter pass
                break
        return None if params else grad

    def sgd_step(self, learning_rate: float, maximize: bool = False) -> None:
        """param += ±learning_rate * grad over the whole network, then clear
        the gradients; a non-finite result names its first layer."""
        self._grads *= (1.0 if maximize else -1.0) * learning_rate
        self._params += self._grads
        self._grads.fill(0.0)
        if not np.isfinite(self._params).all():
            i = next(i for i, start, stop in self._spans if not np.isfinite(self._params[start:stop]).all())
            raise DivergenceError(f"layer {i}: non-finite parameter after SGD step")

    def save(self, path) -> None:
        spec = {"layers": [layer.to_spec() for layer in self.layers]}
        # json.dumps, not json.dump: only the one-shot path uses the C encoder.
        with open(path, "w", encoding="utf-8") as f:
            f.write(CKPT_MAGIC + "\n" + json.dumps(spec, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "Mlp":
        try:
            with open(path, "r", encoding="utf-8") as f:
                magic = f.readline().rstrip("\n")
                if magic != CKPT_MAGIC:
                    raise CheckpointError(f"{path}: bad magic header {magic!r}")
                spec = json.load(f)
        except OSError as exc:
            raise CheckpointError(f"{path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except (ValueError, RecursionError) as exc:
            # ValueError: malformed JSON, or an integer past Python's digit
            # limit; RecursionError: arrays or objects nested too deep
            raise CheckpointError(f"{path}: corrupted checkpoint body") from exc
        if not isinstance(spec, dict) or not isinstance(spec.get("layers"), list):
            raise CheckpointError(f"{path}: checkpoint body has no layer list")
        layers = []
        for i, layer_spec in enumerate(spec["layers"]):
            try:
                layers.append(_LAYER_KINDS[layer_spec["kind"]].from_spec(layer_spec))
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(f"{path}: layer {i}: malformed spec ({exc!r})") from exc
        if not any(isinstance(layer, DenseLayer) for layer in layers):
            raise CheckpointError(f"{path}: checkpoint has no dense layer")
        try:
            net = cls(layers)
        except DimensionError as exc:
            raise CheckpointError(f"{path}: {exc}") from exc
        # every array an inference pass runs on must be finite; the stored
        # ones are, so only a batch-norm map, folded or alone, can fail
        with np.errstate(over="ignore", invalid="ignore"):
            for i, layer in net._inference_layers():
                if isinstance(layer, BatchNormLayer):
                    arrays = layer.affine()
                else:
                    arrays = [getattr(layer, name) for name in layer.PARAMS]
                if not all(np.isfinite(a).all() for a in arrays):
                    raise CheckpointError(f"{path}: layer {i}: batch-norm scale gamma / sqrt(running_var + epsilon), "
                                          "or its fold into the dense layer before it, is not finite")
        return net


def mlp(
    in_dim: int,
    hidden: list[int],
    out_dim: int = 1,
    rng: np.random.Generator | None = None,
    batch_norm: bool = True,
    hidden_activation: str = "relu",
    output_activation: str = "sigmoid",
) -> Mlp:
    """Build a [Dense-(BN)-act]*k - [Dense-out_act] stack."""
    rng = rng if rng is not None else np.random.default_rng()
    layers: list = []
    prev = in_dim
    for width in hidden:
        layers.append(DenseLayer(prev, width, rng))
        if batch_norm:
            layers.append(BatchNormLayer(width))
        layers.append(ActivationLayer(hidden_activation))
        prev = width
    layers.append(DenseLayer(prev, out_dim, rng))
    layers.append(ActivationLayer(output_activation))
    return Mlp(layers)


def bce_loss(probabilities: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient w.r.t. the probabilities."""
    p = np.asarray(probabilities, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    if p.shape != y.shape:
        raise DimensionError(f"length mismatch: {p.shape} vs {y.shape}")
    pc = clamp_prob(p)
    loss = float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)))
    grad = (-y / pc + (1.0 - y) / (1.0 - pc)) / p.size
    return loss, grad


def mae_loss(predictions: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute error and its subgradient (0 at exact ties)."""
    s = np.asarray(predictions, dtype=np.float64).ravel()
    y = np.asarray(targets, dtype=np.float64).ravel()
    if s.shape != y.shape:
        raise DimensionError(f"length mismatch: {s.shape} vs {y.shape}")
    loss = float(np.mean(np.abs(y - s)))
    grad = np.sign(s - y) / s.size
    return loss, grad
