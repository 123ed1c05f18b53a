"""Minimal feed-forward network engine with manual backprop and SGD.

The layer set is closed: dense, batch-norm, and elementwise activations
(relu / sigmoid / identity). Each layer class declares what it stores: its
trainable arrays in ``PARAMS``, its untrained arrays in ``BUFFERS`` and its
plain values in ``SETTINGS``. That declaration, under the class's ``KIND``,
is its checkpoint spec. ``Mlp`` owns three flat buffers. It re-homes every
``PARAMS`` array, and its ``grad_<name>`` twin, as a view into the parameter
and gradient buffers, so ``sgd_step`` is one scaled add, one finiteness check
and one clear over the whole network. It re-homes every batch-norm
``running_mean`` and ``running_var`` as a view into the running-statistics
buffer, with a ``batch_mean`` / ``batch_var`` twin that a train-mode pass
writes, so the running update of a whole pass is one scale and one add,
each element with its own layer's momentum. ``backward`` either
accumulates the parameter gradients into those views and returns None (no
caller reads the input gradient of a parameter pass, so the first stage
does not form it), or, with ``params=False``, returns the
input gradient and leaves the gradient buffer untouched.

``Mlp`` accepts one layout, the one ``mlp()`` builds and every checkpoint
``fairpen train`` writes, and refuses any other with a ``DimensionError``
that names the first layer breaking it:

- the first layer is a dense layer;
- a batch-norm layer comes right after a dense layer of its width;
- an activation comes right after a dense or a batch-norm layer;
- each dense layer reads the width that the stage before it writes.

``Mlp`` runs the layer list as stages: each batch-norm layer takes the
place of the dense layer before it and runs it, in train mode and at
inference, so the pair's kernels live on the batch-norm layer. Every other
layer, a dense layer with no batch-norm after it among them, runs on its
own; a dense layer is x W + b in both modes. So every activation's input
is a new array from the stage before it, and a relu writes max(x, 0) into
it. One rule covers the gradients: ``backward`` copies the caller's
gradient once, so every stage owns the gradient it is handed and may
overwrite it; a relu masks it in place.
Relu, sigmoid, identity and a dense layer with no batch-norm after it give
bit for bit the textbook forms.

In train mode a batch-norm stage subtracts the batch mean, which removes
the bias of the dense layer it runs. So the stage computes x W alone, adds
nothing to the bias gradient, and leaves the bias as stored; it adds that
bias to the batch mean for its running mean only, so the running mean
still tracks the biased input and the inference fold below keeps its
meaning. It takes the variance in one pass over the centred block, caches
that block and inv_std (not x_hat), writes centred * (gamma * inv_std) +
beta_shift, and its backward reuses the gamma and beta_shift gradient sums.
A dense layer and the batch-norm layer after it differ from the textbook
pair (x W + b, then batch-norm) by rounding only: for a batch of n rows,
the centred block lies within 4 * (n + 4) * eps of the textbook one times
|x| @ |W| + |b| plus its column mean, and every other value within
4 * (n + 4) * eps times the magnitudes of the terms summed into it, plus
that error carried through.

A narrow pair, whose dense layer maps k columns to m >= 2 k (at the CLI's
width 64 only the first hidden block of h and of D), never forms x W in
train mode; its batch-norm layer picks that kernel by this rule. Its
statistics follow from the k x k covariance of the centred input
x_c = x - mean(x): the variance of x W is the quadratic form
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
s = gamma / sqrt(running_var + epsilon), and a batch-norm stage folds the
dense layer it runs into that map: weights * s and
(bias - running_mean) * s + beta_shift, folded once per ``Mlp.forward``
call. The folded pass differs from the textbook one (dense, then
(x - running_mean) / sqrt(running_var + epsilon) * gamma + beta_shift) by
rounding only: each output of a folded layer with k input columns lies
within 4 * (k + 4) * eps of the textbook value, relative to
|s| * (|x| @ |weights| + |bias| + |running_mean|) + |beta_shift|.
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
    """Bound probabilities away from 0/1 before any logarithm; NaN stays NaN."""
    # np.clip's bits, without its Python wrapper
    return np.minimum(np.maximum(p, PROB_EPS), 1.0 - PROB_EPS)


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
    AFTER: tuple[str, ...] = ()  # the kinds it must come right after in an Mlp; empty: any, or none
    # set by Mlp on the first stage: a parameter pass reads no input gradient
    # from it
    input_grad_unread = False

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
    """Affine layer y = x W + b with cached input for backprop."""

    KIND = "dense"
    PARAMS = ("weights", "bias")

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        self.weights = rng.uniform(-limit, limit, size=(in_dim, out_dim))
        self.bias = np.zeros(out_dim)
        self._cache: np.ndarray | None = None

    def check(self) -> None:
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[1],):
            raise ValueError(f"dense weights {self.weights.shape} and bias {self.bias.shape} do not fit")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        self._cache = x if train else None
        out = x @ self.weights
        out += self.bias
        return out

    def backward(self, grad_out: np.ndarray, params: bool = True) -> np.ndarray | None:
        """Accumulate the parameter gradients with ``params``; return the
        input gradient, or None in a parameter pass that reads none."""
        if params:
            self.grad_weights += self._cache.T @ grad_out
            self.grad_bias += np.add.reduce(grad_out, 0)
            if self.input_grad_unread:
                return None
        return grad_out @ self.weights.T


class BatchNormLayer(_Layer):
    """Batch normalization: batch statistics in train mode, exponential
    running statistics (momentum 0.99) in inference mode. ``Mlp`` puts it
    right after a dense layer, and it runs that layer too: its input is the
    dense layer's input. A train-mode pass writes the batch mean and
    variance into ``batch_mean`` and ``batch_var``, views that ``Mlp`` sets,
    and ``Mlp.forward`` moves the running statistics towards them."""

    KIND = "batch_norm"
    AFTER = ("dense",)
    PARAMS = ("gamma", "beta_shift")
    BUFFERS = ("running_mean", "running_var")
    SETTINGS = ("momentum", "epsilon")
    # set by Mlp: the dense layer right before this one, which it runs, and
    # whether that layer is at least twice as wide as its input (narrow)
    dense: DenseLayer
    narrow = False
    batch_mean: np.ndarray
    batch_var: np.ndarray

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

    def fold(self) -> tuple[np.ndarray, np.ndarray]:
        """(weights, shift) of the inference map x @ weights + shift, with
        the dense layer this layer runs folded in."""
        scale = self.gamma / np.sqrt(self.running_var + self.epsilon)
        return self.dense.weights * scale, (self.dense.bias - self.running_mean) * scale + self.beta_shift

    def forward(self, x: np.ndarray, train: bool, fold: tuple | None = None) -> np.ndarray:
        """``fold``, at inference: this layer's ``fold()``, which ``Mlp``
        takes once for a pass over many row blocks."""
        dense = self.dense
        if not train:
            self._cache = None
            out = x @ fold[0]
            out += fold[1]
            return out
        n, var = len(x), self.batch_var
        if self.narrow:
            # x W is centred W + mean W, centred = x - mean(x); its column
            # variance is a quadratic form in the k x k covariance of x, which
            # rounding can take below 0
            mean = np.add.reduce(x, 0) / n
            centred = x - mean
            cw = (centred.T @ centred) @ dense.weights
            mean = mean @ dense.weights
            np.divide(np.einsum("ij,ij->j", dense.weights, cw), n, out=var)
            np.maximum(var, 0.0, out=var)
        else:
            # centre once; the centred block gives the variance (one einsum
            # pass) and the output, and the backward reads it
            z = x @ dense.weights
            mean = np.add.reduce(z, 0) / n
            centred = z - mean
            np.divide(np.einsum("ij,ij->j", centred, centred), n, out=var)
            cw = None
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        self._cache = (x, centred, cw, inv_std)
        np.add(mean, dense.bias, out=self.batch_mean)  # the running mean tracks the biased input
        scale = self.gamma * inv_std
        out = centred @ (dense.weights * scale) if self.narrow else centred * scale
        out += self.beta_shift
        return out

    def backward(self, grad_out: np.ndarray, params: bool = True) -> np.ndarray | None:
        # gamma * inv_std * (g - sum(g) / n - x_hat * sum(g * x_hat) / n), in
        # place, with x_hat = centred * inv_std; the two column sums are the
        # beta_shift and gamma gradients. A narrow pair's x_hat is
        # centred W * inv_std, so it reads sum(g * x_hat) off centred^T g.
        x, centred, cw, inv_std = self._cache
        dense, n = self.dense, len(grad_out)
        g_sum = np.add.reduce(grad_out, 0)
        if cw is None:
            gx_sum = np.einsum("ij,ij->j", grad_out, centred)
        else:
            g_proj = centred.T @ grad_out
            gx_sum = np.einsum("ij,ij->j", dense.weights, g_proj)
        gx_sum *= inv_std
        if params:
            self.grad_gamma += gx_sum
            self.grad_beta_shift += g_sum
        c = gx_sum * inv_std / n
        scale = self.gamma * inv_std
        if cw is not None:
            # the gradient w.r.t. x W is (g - g_sum / n) * scale -
            # centred W * (scale * c). Its columns sum to 0, as do centred's,
            # so x^T of it is (centred^T g - cw * c) * scale.
            if params:
                dense.grad_weights += (g_proj - cw * c) * scale
                if self.input_grad_unread:
                    return None
            scaled = dense.weights * scale
            grad_in = grad_out @ scaled.T
            grad_in -= (g_sum * scale / n) @ dense.weights.T
            grad_in -= centred @ ((scaled * c) @ dense.weights.T)
            return grad_in
        grad_in = centred * c
        np.subtract(grad_out, grad_in, out=grad_in)
        grad_in -= g_sum / n
        grad_in *= scale
        if params:
            dense.grad_weights += x.T @ grad_in
            if self.input_grad_unread:
                return None
        return grad_in @ dense.weights.T


class ActivationLayer(_Layer):
    """Elementwise relu / sigmoid / identity."""

    KIND = "activation"
    AFTER = ("dense", "batch_norm")
    SETTINGS = ("fn",)
    FUNCTIONS = ("relu", "sigmoid", "identity")

    def __init__(self, fn: str):
        self.fn = fn
        self._cache: np.ndarray | None = None
        self.check()

    def check(self) -> None:
        if self.fn not in self.FUNCTIONS:
            raise ValueError(f"unknown activation {self.fn!r}")

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if self.fn == "relu":
            # in place: in an Mlp, x is a new array from the stage before.
            # out > 0 exactly where x > 0 (NaN stays NaN), so out is the mask's cache
            out = np.maximum(x, 0.0, out=x)
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
            return np.multiply(grad_out, self._cache > 0, out=grad_out)
        if self.fn == "sigmoid":
            s = self._cache
            return grad_out * s * (1.0 - s)
        return grad_out


_LAYER_KINDS = {cls.KIND: cls for cls in (DenseLayer, BatchNormLayer, ActivationLayer)}


def _flat_views(arrays: list) -> tuple[np.ndarray, np.ndarray, list]:
    """Copy each (layer, name, twin) array into one flat buffer and re-home
    it there as a view; set the layer's ``twin`` to the same view into a
    second buffer of zeros. Returns (buffer, twin buffer, [(start, stop)])."""
    flat = np.empty(sum(getattr(layer, name).size for layer, name, _ in arrays))
    twins = np.zeros_like(flat)
    spans, start = [], 0
    for layer, name, twin in arrays:
        value = getattr(layer, name)
        stop = start + value.size
        flat[start:stop] = value.ravel()
        setattr(layer, name, flat[start:stop].reshape(value.shape))
        setattr(layer, twin, twins[start:stop].reshape(value.shape))
        spans.append((start, stop))
        start = stop
    return flat, twins, spans


class Mlp:
    """Ordered layer stack with a shared train/inference mode switch; owns
    every layer's parameters and gradients, and every batch-norm layer's
    running and batch statistics, as views into flat buffers."""

    def __init__(self, layers: list):
        if not layers:
            raise DimensionError("the layer list has no dense layer")
        self.layers = layers
        self._train_cache_ready = False
        arrays = [(layer, name, "grad_" + name) for layer in layers for name in layer.PARAMS]
        self._params, self._grads, spans = _flat_views(arrays)
        owners = [i for i, layer in enumerate(layers) for _ in layer.PARAMS]
        self._spans = [(i, *span) for i, span in zip(owners, spans)]  # (layer index, start, stop)
        # running_mean / running_var and their batch_mean / batch_var twins;
        # each element's momentum is its layer's when the stack is built
        norms = [layer for layer in layers if isinstance(layer, BatchNormLayer)]
        arrays = [(layer, name, name.replace("running", "batch")) for layer in norms for name in layer.BUFFERS]
        self._running, self._batch, spans = _flat_views(arrays)
        self._keep = np.empty_like(self._running)
        for (layer, _, _), (start, stop) in zip(arrays, spans):
            self._keep[start:stop] = layer.momentum
        self._blend = 1 - self._keep
        # check the layout and build the stages, the layers a pass runs: a
        # batch-norm layer runs the dense layer before it
        self._stages, width = [], None  # width: what the stage before writes
        for i, layer in enumerate(layers):
            prev = layers[i - 1] if i else None
            if layer.AFTER and (prev is None or prev.KIND not in layer.AFTER):
                raise DimensionError(f"layer {i}: {layer.KIND} after {prev.KIND if i else 'nothing'}; "
                                     f"it must come right after {' or '.join(layer.AFTER)}")
            if isinstance(layer, ActivationLayer):
                self._stages.append(layer)
                continue
            needs = layer.in_dim if isinstance(layer, DenseLayer) else len(layer.gamma)
            if i and needs != width:
                raise DimensionError(f"layer {i}: widths incompatible: {width} -> {needs}")
            if isinstance(layer, DenseLayer):
                self._stages.append(layer)
                width = layer.out_dim
            else:
                layer.dense, layer.narrow = prev, 2 * prev.in_dim <= width
                self._stages[-1] = layer
        self._stages[0].input_grad_unread = True
        self.in_dim, self.out_dim = layers[0].in_dim, width

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """The stack's output on ``x``. A train-mode pass caches what
        ``backward`` reads and then moves every running statistic towards
        its batch value, momentum * running + (1 - momentum) * batch, with
        its own layer's momentum."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(
                f"expected input of width {self.in_dim}, got shape {x.shape}"
            )
        if train:
            out = x
            for stage in self._stages:
                out = stage.forward(out, True)
            if len(self._running):
                self._running *= self._keep
                self._running += self._blend * self._batch
        else:
            # a batch-norm stage folds its map, and the dense layer it runs,
            # once per call, not once per block
            stages = [(stage, stage.fold() if isinstance(stage, BatchNormLayer) else None) for stage in self._stages]
            # Blocks of INFER_BLOCK rows, the remainder folded into the last
            # block. Blocks start at multiples of INFER_BLOCK, so BLAS unrolls
            # a block's rows as it unrolls the whole array's, and no block has
            # one row (numpy would take its vector product, whose bits can
            # differ). Every row thus gets the bits of the whole-array folded
            # pass, whichever block it falls in.
            out = np.empty((len(x), self.out_dim))
            start = 0
            for stop in [*range(INFER_BLOCK, len(x) - INFER_BLOCK + 1, INFER_BLOCK), len(x)]:
                block = x[start:stop]
                for stage, fold in stages:
                    block = stage.forward(block, False) if fold is None else stage.forward(block, False, fold)
                out[start:stop] = block
                start = stop
        self._train_cache_ready = train
        return out

    def backward(self, grad_out: np.ndarray, params: bool = True) -> np.ndarray | None:
        """With ``params``, accumulate the parameter gradients and return
        None; without, return the gradient w.r.t. the input and leave the
        gradient buffer as is."""
        if not self._train_cache_ready:
            raise StateError("backward called without a prior train-mode forward")
        grad = np.array(grad_out, dtype=np.float64)  # a copy: every stage may write into its gradient
        for stage in reversed(self._stages):
            grad = stage.backward(grad, params)
            if grad is None:  # the first stage, in a parameter pass
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

    def __reduce__(self):
        """deepcopy and pickle rebuild the net from its layer specs, the
        checkpoint path, so every array of the copy is a view into the
        copy's own flat buffers; copied one by one, the views would detach
        from the buffers that ``sgd_step`` updates. As from a checkpoint,
        the copy starts with cleared gradients and no train-mode cache, and
        a net with a non-finite stored value cannot be copied."""
        return _from_specs, ([layer.to_spec() for layer in self.layers],)

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
        try:
            net = cls(layers)
        except DimensionError as exc:
            raise CheckpointError(f"{path}: {exc}") from exc
        # every array an inference pass runs on must be finite; the stored
        # ones are, so only a batch-norm layer's fold can fail
        with np.errstate(over="ignore", invalid="ignore"):
            for i, layer in enumerate(net.layers):
                if isinstance(layer, BatchNormLayer) and not all(np.isfinite(a).all() for a in layer.fold()):
                    raise CheckpointError(f"{path}: layer {i}: batch-norm scale gamma / sqrt(running_var + epsilon), "
                                          "or its fold into the dense layer before it, is not finite")
        return net


def _from_specs(specs: list) -> Mlp:
    return Mlp([_LAYER_KINDS[spec["kind"]].from_spec(spec) for spec in specs])


def mlp(
    in_dim: int,
    hidden: list[int],
    out_dim: int = 1,
    rng: np.random.Generator | None = None,
    batch_norm: bool = True,
    output_activation: str = "sigmoid",
) -> Mlp:
    """Build a [Dense-(BN)-relu]*k - [Dense-out_act] stack."""
    rng = rng if rng is not None else np.random.default_rng()
    layers: list = []
    prev = in_dim
    for width in hidden:
        layers.append(DenseLayer(prev, width, rng))
        if batch_norm:
            layers.append(BatchNormLayer(width))
        layers.append(ActivationLayer("relu"))
        prev = width
    layers.append(DenseLayer(prev, out_dim, rng))
    layers.append(ActivationLayer(output_activation))
    return Mlp(layers)


def _flat_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise DimensionError(f"length mismatch: {a.shape} vs {b.shape}")
    return a, b


def bce_grad(probabilities: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The gradient of the mean binary cross-entropy w.r.t. the probabilities."""
    p, y = _flat_pair(probabilities, labels)
    pc = clamp_prob(p)
    return (-y / pc + (1.0 - y) / (1.0 - pc)) / p.size


def mae_grad(predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The subgradient of the mean absolute error (0 at exact ties)."""
    s, y = _flat_pair(predictions, targets)
    return np.sign(s - y) / s.size

