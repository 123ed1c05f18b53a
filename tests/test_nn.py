import copy
import json
import pickle
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import gradients, parameters, rewrite_checkpoint_layer, set_checkpoint_layer_value, trained_state
from gradcheck import bce_loss, check_network_gradients, mae_loss, random_config
from fairpen.errors import CheckpointError, DimensionError, DivergenceError, FairpenError, StateError
from fairpen.nn import (
    INFER_BLOCK,
    ActivationLayer,
    BatchNormLayer,
    DenseLayer,
    Mlp,
    clamp_prob,
    mlp,
    sigmoid,
)


def test_sigmoid_stable_in_both_tails():
    x = np.array([-1000.0, -30.0, 0.0, 30.0, 1000.0])
    out = sigmoid(x)
    assert np.isfinite(out).all()
    assert out[0] == 0.0 or out[0] < 1e-300
    assert out[2] == 0.5
    assert out[4] == 1.0 or out[4] > 1.0 - 1e-12


def test_clamp_prob_bounds():
    p = clamp_prob(np.array([0.0, 0.5, 1.0]))
    assert p[0] > 0.0 and p[2] < 1.0
    assert p[1] == 0.5


def test_dense_shapes_and_glorot_range():
    rng = np.random.default_rng(0)
    layer = DenseLayer(4, 3, rng)
    limit = np.sqrt(6.0 / 7.0)
    assert layer.weights.shape == (4, 3)
    assert (np.abs(layer.weights) <= limit).all()
    assert (layer.bias == 0.0).all()
    out = layer.forward(np.ones((5, 4)), train=False)
    assert out.shape == (5, 3)


def test_batch_norm_train_normalizes_batch():
    net = Mlp([DenseLayer(2, 2, np.random.default_rng(0)), BatchNormLayer(2)])
    net.layers[0].weights[...] = np.eye(2)  # x @ I == x: the pair normalizes x itself
    x = np.array([[1.0, 10.0], [3.0, 30.0], [5.0, 50.0]])
    out = net.forward(x, train=True)
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose(out.var(axis=0), 1.0, atol=1e-3)


def test_batch_norm_inference_is_rowwise():
    # inference output for a row must not depend on its batch companions
    rng = np.random.default_rng(1)
    net = mlp(3, [8, 8], rng=rng, batch_norm=True)
    warm = rng.standard_normal((64, 3))
    for _ in range(5):
        net.forward(warm, train=True)
    x = rng.standard_normal((10, 3))
    full = net.forward(x, train=False)
    single = np.vstack([net.forward(x[i : i + 1], train=False) for i in range(10)])
    # matmul summation order may differ between batch and single-row calls
    assert np.allclose(full, single, atol=1e-12)


def test_backward_without_train_forward_raises():
    net = mlp(2, [4], rng=np.random.default_rng(0))
    net.forward(np.zeros((3, 2)), train=False)
    with pytest.raises(StateError):
        net.backward(np.ones((3, 1)))


def test_inference_pass_keeps_no_layer_cache():
    rng = np.random.default_rng(0)
    net = mlp(3, [8, 8], rng=rng, batch_norm=True)
    x = rng.standard_normal((20, 3))
    net.forward(x, train=True)
    net.forward(x, train=False)
    for layer in net.layers:
        assert layer._cache is None
    with pytest.raises(StateError):
        net.backward(np.ones((20, 1)))


def test_inference_memory_is_bounded_by_the_block():
    # A whole-array pass over 50 000 rows holds (50 000, 64) arrays of
    # 25.6 MB each; the blocked pass holds a few blocks and the output.
    rng = np.random.default_rng(0)
    net = mlp(10, [64] * 3, rng=rng, batch_norm=True)
    x = rng.standard_normal((50_000, 10))
    tracemalloc.start()
    try:
        out = net.forward(x, train=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block_bytes = 2 * INFER_BLOCK * 64 * 8  # the largest block, one layer's output
    assert out.shape == (50_000, 1)
    assert peak < out.nbytes + 6 * block_bytes, peak


def _first_break(layers):
    """The index of the first layer that breaks ``Mlp``'s layout rule, or
    None: the first layer is dense, a batch-norm layer comes right after a
    dense layer of its width, an activation right after a dense or a
    batch-norm layer, and each dense layer reads the width written before it."""
    width = None
    for i, (prev, layer) in enumerate(zip([None, *layers], layers)):
        if isinstance(layer, DenseLayer):
            if prev is not None and layer.in_dim != width:
                return i
            width = layer.out_dim
        elif isinstance(layer, BatchNormLayer):
            if not isinstance(prev, DenseLayer) or len(layer.gamma) != width:
                return i
        elif not isinstance(prev, (DenseLayer, BatchNormLayer)):
            return i
    return None


# a layer as (kind, widths...): two widths make the 2 -> 4 pairs narrow and the rest wide
_WIDTHS = st.sampled_from([2, 4])
_ACTIVATIONS = st.sampled_from([("relu",), ("sigmoid",), ("identity",)])
_LAYER_SPECS = st.one_of(st.tuples(st.just("dense"), _WIDTHS, _WIDTHS), st.tuples(st.just("batch_norm"), _WIDTHS),
                         _ACTIVATIONS)


@st.composite
def _stacks(draw):
    """Layer specs: either each layer drawn on its own, or blocks that keep
    the layout rule (dense with chained widths, then batch-norm or not, then
    an activation or not) with one drawn layer put in or not."""
    if draw(st.booleans()):
        return draw(st.lists(_LAYER_SPECS, min_size=1, max_size=8))
    specs, width = [], draw(_WIDTHS)
    for _ in range(draw(st.integers(1, 3))):
        specs.append(("dense", width, width := draw(_WIDTHS)))
        specs += [("batch_norm", width)] * draw(st.booleans()) + [draw(_ACTIVATIONS)] * draw(st.booleans())
    if draw(st.booleans()):
        specs.insert(draw(st.integers(0, len(specs))), draw(_LAYER_SPECS))
    return specs


_SCORER = [("dense", 2, 4), ("batch_norm", 4), ("relu",), ("dense", 4, 4), ("batch_norm", 4), ("relu",),
           ("dense", 4, 2), ("batch_norm", 2), ("relu",), ("dense", 2, 1), ("sigmoid",)]


def _build(specs, rng):
    make = {"dense": lambda a, b: DenseLayer(a, b, rng), "batch_norm": BatchNormLayer}
    return [make[kind](*widths) if kind in make else ActivationLayer(kind) for kind, *widths in specs]


@settings(deadline=None, max_examples=150)
@given(specs=_stacks(), n=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
@example(specs=_SCORER, n=8, seed=0)  # mlp()'s layout, a narrow first block
@example(specs=[("dense", 4, 2), ("relu",), ("dense", 2, 2), ("relu",), ("dense", 2, 1), ("sigmoid",)], n=8, seed=0)
@example(specs=[("dense", 2, 2), ("identity",), ("dense", 2, 4), ("batch_norm", 4)], n=8, seed=0)
@example(specs=[("batch_norm", 2)], n=8, seed=0)  # a batch-norm layer on its own
@example(specs=[("dense", 2, 4), ("relu",), ("batch_norm", 4), ("dense", 4, 1)], n=8, seed=0)
@example(specs=[("dense", 2, 4), ("identity",), ("relu",)], n=8, seed=0)
@example(specs=[("relu",), ("dense", 2, 4)], n=8, seed=0)
@example(specs=[("dense", 2, 4), ("batch_norm", 2)], n=8, seed=0)
@example(specs=[("dense", 2, 4), ("batch_norm", 4), ("dense", 2, 1)], n=8, seed=0)
def test_forward_and_backward_never_write_into_the_callers_arrays(specs, n, seed):
    """Any stack of dense, batch-norm and activation layers: ``Mlp`` refuses
    it with a DimensionError naming the first layer that breaks the layout
    rule, or builds a net whose train and inference passes, a relu working
    in place among them, never write into the caller's x or grad_out."""
    rng = np.random.default_rng(seed)
    layers = _build(specs, rng)
    broken = _first_break(layers)
    if broken is not None:
        with pytest.raises(DimensionError, match=rf"^layer {broken}: "):
            Mlp(layers)
        return
    net = Mlp(layers)
    for param in parameters(net):
        param += rng.standard_normal(param.shape)
    x, grad_out = rng.standard_normal((n, net.in_dim)), rng.standard_normal((n, net.out_dim))
    x_before, grad_before = x.copy(), grad_out.copy()  # about half of each below 0
    net.forward(x, train=True)
    net.backward(grad_out)
    net.backward(grad_out, params=False)
    net.forward(x, train=False)
    assert x.tobytes() == x_before.tobytes()
    assert grad_out.tobytes() == grad_before.tobytes()


@pytest.mark.parametrize("specs, index", [
    ([("batch_norm", 2), ("dense", 2, 1)], 0),
    ([("dense", 2, 4), ("relu",), ("batch_norm", 4), ("dense", 4, 1)], 2),
    ([("dense", 2, 4), ("relu",), ("relu",), ("dense", 4, 1)], 2),
    ([("dense", 2, 4), ("batch_norm", 4), ("batch_norm", 4)], 2),
], ids=["batch-norm first", "batch-norm after relu", "relu after relu", "batch-norm after batch-norm"])
def test_checkpoint_layout_the_rule_refuses_names_file_and_layer(tmp_path, specs, index):
    path = tmp_path / "net.ckpt"
    layers = _build(specs, np.random.default_rng(0))
    path.write_text("FAIRPEN-CKPT-v1\n" + json.dumps({"layers": [layer.to_spec() for layer in layers]}) + "\n")
    with pytest.raises(CheckpointError) as err:
        Mlp.load(path)
    assert str(err.value).startswith(f"{path}: layer {index}: ")


def test_forward_width_mismatch_raises():
    net = mlp(2, [4], rng=np.random.default_rng(0))
    with pytest.raises(DimensionError):
        net.forward(np.zeros((3, 5)))


def test_incompatible_dense_stack_raises():
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionError):
        Mlp([DenseLayer(2, 3, rng), DenseLayer(4, 1, rng)])


def test_batch_norm_width_must_match_preceding_dense():
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionError, match="layer 1"):
        Mlp([DenseLayer(2, 4, rng), BatchNormLayer(3), DenseLayer(4, 1, rng)])
    with pytest.raises(DimensionError, match="layer 2"):
        Mlp([DenseLayer(2, 4, rng), BatchNormLayer(4), DenseLayer(3, 1, rng)])


def test_sgd_step_direction_and_grad_clearing():
    rng = np.random.default_rng(2)
    net = mlp(2, [4], rng=rng, batch_norm=False)
    x = rng.standard_normal((6, 2))
    y = rng.integers(0, 2, 6).astype(np.float64)

    before = [p.copy() for p in parameters(net)]
    out = net.forward(x, train=True)
    loss0, grad = bce_loss(out[:, 0], y)
    net.backward(grad.reshape(-1, 1))
    g0 = [g.copy() for g in gradients(net)]
    net.sgd_step(0.01)
    for p, p0, g in zip(parameters(net), before, g0):
        assert np.allclose(p, p0 - 0.01 * g)
    assert all((g == 0.0).all() for g in gradients(net))
    loss1, _ = bce_loss(net.forward(x, train=True)[:, 0], y)
    assert loss1 < loss0


def test_sgd_step_maximize_flips_direction():
    rng = np.random.default_rng(3)
    net = mlp(2, [4], rng=rng, batch_norm=False)
    x = rng.standard_normal((6, 2))
    before = [p.copy() for p in parameters(net)]
    net.forward(x, train=True)
    net.backward(np.ones((6, 1)))
    grads = [g.copy() for g in gradients(net)]
    net.sgd_step(0.01, maximize=True)
    for p, p0, g in zip(parameters(net), before, grads):
        assert np.allclose(p, p0 + 0.01 * g)


def test_sgd_step_rejects_non_finite():
    net = mlp(2, [4], rng=np.random.default_rng(4), batch_norm=False)
    net.forward(np.zeros((2, 2)), train=True)
    net.backward(np.ones((2, 1)))
    gradients(net)[0][0, 0] = np.inf
    with pytest.raises(FloatingPointError, match="layer 0") as err:
        net.sgd_step(0.1)
    assert isinstance(err.value, DivergenceError) and isinstance(err.value, FairpenError)


def test_sgd_step_names_the_first_non_finite_layer():
    net = mlp(2, [4], rng=np.random.default_rng(4), batch_norm=True)
    assert [type(layer) for layer in net.layers][3] is DenseLayer  # the output layer
    net.layers[3].grad_weights[0, 0] = np.inf
    with pytest.raises(DivergenceError, match="layer 3"):
        net.sgd_step(0.1)


def test_backward_without_params_leaves_gradients_zero():
    rng = np.random.default_rng(6)
    net = mlp(3, [8, 8], rng=rng, batch_norm=True)
    net.forward(rng.standard_normal((16, 3)), train=True)
    upstream = rng.standard_normal((16, 1))
    grad_in = net.backward(upstream, params=False)
    assert all((g == 0.0).all() for g in gradients(net))
    assert net.backward(upstream) is None  # a parameter pass returns no input gradient
    grads = [g.copy() for g in gradients(net)]
    assert any((g != 0.0).any() for g in grads)
    assert net.backward(upstream, params=False).tobytes() == grad_in.tobytes()
    assert all(g.tobytes() == g0.tobytes() for g, g0 in zip(gradients(net), grads))


@pytest.mark.parametrize("in_dim", [2, 3, 5, 7])
def test_shape_rule_picks_the_first_block_only(in_dim):
    """At the CLI's width 64, h (7 features) and D (the score and 2 to 6
    attribute and outcome columns) run their first dense and batch-norm
    pair on the narrow path and their 64 -> 64 pairs on the other; a pair
    is narrow up to an input half as wide as its output."""
    net = mlp(in_dim, [64, 64], rng=np.random.default_rng(0))
    bn = [layer for layer in net.layers if isinstance(layer, BatchNormLayer)]
    assert [layer.narrow for layer in bn] == [True, False]
    assert [layer.dense for layer in bn] == [net.layers[0], net.layers[3]]
    # the first stage, batch-norm running the first dense layer, forms no input gradient
    assert [i for i, layer in enumerate(net.layers) if layer.input_grad_unread] == [1]
    rng = np.random.default_rng(1)
    for k, narrow in ((32, True), (33, False)):
        assert Mlp([DenseLayer(k, 64, rng), BatchNormLayer(64)]).layers[1].narrow is narrow


def test_narrow_pair_after_the_first_block_trains_through_a_parameter_pass():
    """A narrow pair that is not the first block (3 -> 8 after 4 -> 3) must
    pass its input gradient down to the layers before it in a parameter
    pass: every parameter gradient matches central differences."""
    rng = np.random.default_rng(21)
    net = mlp(4, [3, 8], rng=rng)
    assert [layer.narrow for layer in net.layers if isinstance(layer, BatchNormLayer)] == [False, True]
    x = rng.standard_normal((12, 4)) + 0.1
    y = rng.integers(0, 2, 12).astype(np.float64)
    assert check_network_gradients(net, bce_loss, x, y) < 1e-5


@pytest.mark.parametrize("in_dim", [3, 5])  # at width 8, a narrow and a wide first pair
def test_pair_keeps_its_stored_bias_which_still_counts(in_dim):
    """The dense layer that a batch-norm layer runs keeps a nonzero stored
    bias byte for byte through train steps, on either kernel, and its bias
    gradient stays 0. Train mode leaves the bias out, so every other trained
    array keeps the bits of a twin with a zero bias; the running mean still
    tracks the biased input, and inference applies bias - running_mean."""
    biased, plain = (mlp(in_dim, [8], rng=np.random.default_rng(31)) for _ in range(2))
    assert biased.layers[1].dense is biased.layers[0] and biased.layers[1].narrow is (in_dim == 3)
    biased.layers[0].bias[...] = np.random.default_rng(32).standard_normal(8)
    bias = biased.layers[0].bias.copy()
    rng = np.random.default_rng(33)
    for _ in range(5):
        x = rng.standard_normal((16, in_dim)) + 2.0
        y = rng.integers(0, 2, 16).astype(np.float64)
        for net in (biased, plain):
            _, grad = bce_loss(net.forward(x, train=True)[:, 0], y)
            net.backward(grad.reshape(-1, 1))
            assert (net.layers[0].grad_bias == 0.0).all()
            net.sgd_step(0.1)
    assert biased.layers[0].bias.tobytes() == bias.tobytes()
    trained = [a.tobytes() for net in (biased, plain) for i, a in enumerate(parameters(net)) if i != 1]
    assert trained[:5] == trained[5:]
    bn, bn_plain = biased.layers[1], plain.layers[1]
    assert bn.running_var.tobytes() == bn_plain.running_var.tobytes()
    assert np.allclose(bn.running_mean - bn_plain.running_mean, bias * (1 - 0.99**5), rtol=0.0, atol=1e-12)
    x = rng.standard_normal((20, in_dim)) + 2.0
    scores = biased.forward(x)
    assert not np.allclose(scores, plain.forward(x), rtol=0.0, atol=1e-6)
    bn_plain.running_mean[...] = bn.running_mean - bias  # the same bias - running_mean
    assert np.allclose(scores, plain.forward(x), rtol=0.0, atol=1e-12)


def test_parameter_views_alias_the_flat_buffers(tmp_path):
    net = mlp(3, [4], rng=np.random.default_rng(8), batch_norm=True)
    for k, (param, grad) in enumerate(zip(parameters(net), gradients(net))):
        param[...] = float(k)
        grad[...] = 1.0
    net.sgd_step(0.25)
    net.save(tmp_path / "net.ckpt")
    loaded = Mlp.load(tmp_path / "net.ckpt")
    for k, param in enumerate(parameters(loaded)):
        assert (param == k - 0.25).all()


def test_init_determinism():
    a = mlp(3, [8, 8], rng=np.random.default_rng(7))
    b = mlp(3, [8, 8], rng=np.random.default_rng(7))
    for pa, pb in zip(parameters(a), parameters(b)):
        assert np.array_equal(pa, pb)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    net = mlp(3, [8, 8], rng=rng, batch_norm=True)
    net.forward(rng.standard_normal((32, 3)), train=True)  # move running stats
    path = tmp_path / "net.ckpt"
    net.save(path)
    loaded = Mlp.load(path)
    for pa, pb in zip(parameters(net), parameters(loaded)):
        assert np.array_equal(pa, pb)
    x = rng.standard_normal((5, 3))
    assert np.array_equal(net.forward(x), loaded.forward(x))
    # saving the loaded copy reproduces the file byte for byte
    path2 = tmp_path / "net2.ckpt"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def _layer_arrays(net):
    """Every array a checkpoint stores, batch-norm running statistics included."""
    return [getattr(layer, name) for layer in net.layers for name in layer.PARAMS + layer.BUFFERS]


def _moved_batch_norm():
    rng = np.random.default_rng(0)
    net = Mlp([DenseLayer(3, 3, rng), BatchNormLayer(3, momentum=0.9)])
    net.forward(rng.standard_normal((8, 3)), train=True)  # move the running statistics
    return net.layers[1]


@pytest.mark.parametrize(
    "make", [lambda: DenseLayer(3, 2, np.random.default_rng(0)), _moved_batch_norm, lambda: ActivationLayer("relu")],
    ids=["dense", "batch_norm", "activation"],
)
def test_layer_declaration_is_its_checkpoint_spec(make):
    layer = make()
    spec = layer.to_spec()
    assert set(spec) == {"kind", *layer.PARAMS, *layer.BUFFERS, *layer.SETTINGS}
    assert spec["kind"] == layer.KIND
    loaded = type(layer).from_spec(json.loads(json.dumps(spec)))
    assert json.dumps(loaded.to_spec(), sort_keys=True) == json.dumps(spec, sort_keys=True)
    # settings are read before arrays, so a spec with neither names the first setting
    with pytest.raises(KeyError, match=repr((layer.SETTINGS + layer.PARAMS)[0])):
        type(layer).from_spec({"kind": layer.KIND})


def _inference_maps_finite(net):
    """Whether every array an inference pass runs on is finite: each layer's
    parameters, and each batch-norm layer's fold, with the dense layer
    before it folded in."""
    with np.errstate(over="ignore", invalid="ignore"):
        return all(
            np.isfinite(a).all()
            for layer in net.layers
            for a in (layer.fold() if isinstance(layer, BatchNormLayer) else
                      [getattr(layer, name) for name in layer.PARAMS])
        )


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_checkpoint_round_trip_bit_exact_property(data):
    finite = st.floats(allow_nan=False, allow_infinity=False)  # subnormals, -0.0, +/-1.7e308
    variance = st.floats(min_value=0.0, allow_infinity=False)  # a checkpoint refuses a negative running_var
    net = mlp(
        data.draw(st.integers(1, 4)),
        data.draw(st.lists(st.integers(1, 5), max_size=3)),
        out_dim=data.draw(st.integers(1, 3)),
        rng=np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
        batch_norm=data.draw(st.booleans()),
        output_activation=data.draw(st.sampled_from(["sigmoid", "identity", "relu"])),
    )
    for layer in net.layers:
        for name in layer.PARAMS + layer.BUFFERS:
            arr, values = getattr(layer, name), variance if name == "running_var" else finite
            arr[...] = np.reshape(data.draw(st.lists(values, min_size=arr.size, max_size=arr.size)), arr.shape)
    with tempfile.TemporaryDirectory() as tmp:
        path, path2 = Path(tmp) / "net.ckpt", Path(tmp) / "net2.ckpt"
        net.save(path)
        if not _inference_maps_finite(net):  # refused by the one check that reads across layers
            with pytest.raises(CheckpointError, match="is not finite"):
                Mlp.load(path)
            return
        loaded = Mlp.load(path)
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()
    assert [type(layer) for layer in loaded.layers] == [type(layer) for layer in net.layers]
    for a, b in zip(_layer_arrays(net), _layer_arrays(loaded)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()  # bit for bit, -0.0 included


def _saved_and_loaded(net):
    with tempfile.TemporaryDirectory() as tmp:
        net.save(Path(tmp) / "net.ckpt")
        return Mlp.load(Path(tmp) / "net.ckpt")


def _all_arrays(net):
    """The flat buffers of ``net`` and every layer array that views them."""
    views = [getattr(layer, name) for layer in net.layers for name in layer.PARAMS + layer.BUFFERS]
    views += gradients(net) + [getattr(layer, name) for layer in net.layers for name in ("batch_mean", "batch_var")
                               if hasattr(layer, name)]
    return [net._params, net._grads, net._running, net._batch] + views


def _train_steps(net, batches):
    """The bytes of the train-mode output, every trained array and the
    inference output after each of the train steps on ``batches``."""
    states = []
    for x, grad_out in batches:
        out = net.forward(x, train=True)
        net.backward(grad_out)
        net.sgd_step(0.1)
        states.append([out.tobytes(), *(a.tobytes() for a in trained_state(net)), net.forward(x).tobytes()])
    return states


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_every_copy_of_a_network_trains(data):
    """deepcopy, pickle and a checkpoint's save and load each give a net
    whose next train steps have the bits of the original's on the same
    batches; the copy shares no buffer with the original, and stepping one
    leaves the other unchanged."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    in_dim = data.draw(st.integers(1, 4))
    net = mlp(in_dim, data.draw(st.lists(st.integers(1, 6), max_size=3)), rng=rng,
              batch_norm=data.draw(st.booleans()), output_activation=data.draw(st.sampled_from(["sigmoid", "identity"])))
    n = data.draw(st.integers(2, 8))
    batches = [(rng.standard_normal((n, in_dim)), rng.standard_normal((n, 1))) for _ in range(4)]
    _train_steps(net, batches[:1])  # move the parameters and the running statistics off their start
    copies = [copy.deepcopy(net), pickle.loads(pickle.dumps(net)), _saved_and_loaded(net)]
    for other in copies:
        assert not any(np.shares_memory(a, b) for a in _all_arrays(net) for b in _all_arrays(other))
    start = [a.tobytes() for a in _all_arrays(net)]
    stepped = [_train_steps(other, batches[1:]) for other in copies]
    assert [a.tobytes() for a in _all_arrays(net)] == start
    expected = _train_steps(net, batches[1:])
    for other, states in zip(copies, stepped):
        assert states == expected
        assert [a.tobytes() for a in trained_state(other)] == expected[-1][1:-1]


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("NOT-A-CHECKPOINT\n{}\n")
    with pytest.raises(CheckpointError):
        Mlp.load(path)


def test_checkpoint_corrupt_body(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("FAIRPEN-CKPT-v1\n{this is not json\n")
    with pytest.raises(CheckpointError):
        Mlp.load(path)
    # an unknown layer kind and a missing key name the file and the layer
    for body in ('{"layers": [{"kind": "conv"}]}', '{"layers": [{"kind": "dense"}]}'):
        path.write_text("FAIRPEN-CKPT-v1\n" + body + "\n")
        with pytest.raises(CheckpointError, match="layer 0") as err:
            Mlp.load(path)
        assert str(path) in str(err.value)


def test_checkpoint_malformed_hex_keeps_its_error_text(tmp_path):
    # the error each malformed "hex" value gave when it was read one float at a time
    path = tmp_path / "net.ckpt"
    for bad in (5, None, ["0x1p0", "zz"], ["0x1p0", 1.0], {"0x1p0": 1}):
        mlp(2, [4], rng=np.random.default_rng(0), batch_norm=False).save(path)
        magic, body = path.read_text().split("\n", 1)
        spec = json.loads(body)
        spec["layers"][0]["bias"]["hex"] = bad
        path.write_text(magic + "\n" + json.dumps(spec) + "\n")
        with pytest.raises((TypeError, ValueError)) as old:
            np.array([float.fromhex(h) for h in bad], dtype=np.float64).reshape([4])
        with pytest.raises(CheckpointError) as err:
            Mlp.load(path)
        assert str(err.value) == f"{path}: layer 0: malformed spec ({old.value!r})"


def test_bce_loss_value_and_gradient():
    p = np.array([0.9, 0.2])
    y = np.array([1.0, 0.0])
    loss, grad = bce_loss(p, y)
    # [DERIVED] -(log .9 + log .8)/2
    assert loss == pytest.approx(-(np.log(0.9) + np.log(0.8)) / 2.0, abs=1e-12)
    assert grad == pytest.approx([-1.0 / 0.9 / 2.0, 1.0 / 0.8 / 2.0], abs=1e-12)


def test_mae_loss_value_and_subgradient():
    s = np.array([1.0, 0.0, 2.0])
    y = np.array([0.0, 0.0, 3.0])
    loss, grad = mae_loss(s, y)
    assert loss == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert grad == pytest.approx([1.0 / 3.0, 0.0, -1.0 / 3.0], abs=1e-12)


def test_loss_length_mismatch():
    with pytest.raises(DimensionError):
        bce_loss(np.array([0.5]), np.array([1.0, 0.0]))
    with pytest.raises(DimensionError):
        mae_loss(np.array([0.5]), np.array([1.0, 0.0]))


@pytest.mark.parametrize("seed", range(5))
def test_gradients_match_finite_differences(seed):
    net, loss_fn, x, y = random_config(np.random.default_rng(100 + seed))
    assert check_network_gradients(net, loss_fn, x, y) < 1e-4


def test_activation_unknown_kind():
    with pytest.raises(ValueError):
        ActivationLayer("tanh")


def test_checkpoint_batch_norm_width_mismatch(tmp_path):
    path = tmp_path / "net.ckpt"
    mlp(7, [4], rng=np.random.default_rng(0), batch_norm=True).save(path)
    # layer 1 is the batch norm after the 7 -> 4 dense layer; make all its arrays width 3
    width3 = {k: np.ones(3) for k in ("gamma", "beta_shift", "running_mean", "running_var")}
    rewrite_checkpoint_layer(path, 1, **width3)
    with pytest.raises(CheckpointError, match="layer 1") as err:
        Mlp.load(path)
    assert str(path) in str(err.value)
    # arrays of one batch-norm layer that disagree with each other
    mlp(7, [4], rng=np.random.default_rng(0), batch_norm=True).save(path)
    rewrite_checkpoint_layer(path, 1, running_var=np.ones(3))
    with pytest.raises(CheckpointError, match="layer 1"):
        Mlp.load(path)


NOT_REAL = "not a finite real number"


@pytest.mark.parametrize(
    "name, value, reason",
    [("epsilon", "1e-5", NOT_REAL), ("epsilon", float("inf"), NOT_REAL), ("epsilon", float("nan"), NOT_REAL),
     pytest.param("epsilon", 10**400, NOT_REAL, id="epsilon-10**400"),
     ("epsilon", -1.0, "not positive"), ("epsilon", 0.0, "not positive"),
     ("momentum", True, NOT_REAL), ("momentum", None, NOT_REAL), ("momentum", [0.99], NOT_REAL),
     ("momentum", -0.1, r"outside \[0, 1\]"), ("momentum", 1.5, r"outside \[0, 1\]")],
)
def test_checkpoint_batch_norm_setting_is_checked(tmp_path, name, value, reason):
    path = tmp_path / "net.ckpt"
    mlp(3, [4], rng=np.random.default_rng(0), batch_norm=True).save(path)
    set_checkpoint_layer_value(path, 1, name, value)
    with pytest.raises(CheckpointError, match=rf"layer 1: malformed spec .*batch-norm {name} .*{reason}") as err:
        Mlp.load(path)
    assert str(path) in str(err.value)


def test_checkpoint_batch_norm_negative_running_var(tmp_path):
    path = tmp_path / "net.ckpt"
    mlp(3, [4], rng=np.random.default_rng(0), batch_norm=True).save(path)
    rewrite_checkpoint_layer(path, 1, running_var=[1.0, -0.5, 1.0, 1.0])
    with pytest.raises(CheckpointError, match="layer 1: malformed spec .*running_var has a negative entry"):
        Mlp.load(path)


def test_checkpoint_batch_norm_settings_at_their_bounds_load(tmp_path):
    path = tmp_path / "net.ckpt"
    for momentum, epsilon in ((0, 1e-300), (1, 2), (0.0, 1e-5)):
        mlp(3, [4], rng=np.random.default_rng(0), batch_norm=True).save(path)
        set_checkpoint_layer_value(path, 1, "momentum", momentum)
        set_checkpoint_layer_value(path, 1, "epsilon", epsilon)
        rewrite_checkpoint_layer(path, 1, running_var=[0.0, 1.0, 1.0, 1.0])
        layer = Mlp.load(path).layers[1]
        assert (layer.momentum, layer.epsilon) == (momentum, epsilon)


def test_checkpoint_batch_norm_variance_plus_epsilon_must_not_overflow(tmp_path):
    path = tmp_path / "net.ckpt"
    mlp(3, [4], rng=np.random.default_rng(0), batch_norm=True).save(path)
    set_checkpoint_layer_value(path, 1, "epsilon", sys.float_info.max)
    rewrite_checkpoint_layer(path, 1, running_var=[1.0, 1e300, 0.0, 1.0])
    with pytest.raises(CheckpointError, match="layer 1: malformed spec .*running_var \\+ epsilon overflows"):
        Mlp.load(path)
    # the same epsilon over a variance whose sum with it stays finite loads and scores
    rewrite_checkpoint_layer(path, 1, running_var=[1.0, 1e280, 0.0, 1.0])
    net = Mlp.load(path)
    assert np.isfinite(net.forward(np.ones((3, 3)))).all()


@pytest.mark.parametrize(
    "epsilon, dense, bn",
    [(5e-324, {}, {"gamma": [1e160] * 4, "running_var": [0.0] * 4}),  # s near 4.5e321
     (1.0, {"weights": [[2.0] * 4] * 3}, {"gamma": [1e308] * 4, "running_var": [0.0] * 4}),  # 2 s
     (1e-5, {"bias": [1e308] * 4}, {"running_mean": [-1e308] * 4})],  # bias - running_mean
    ids=["scale", "weights", "shift"],
)
def test_checkpoint_batch_norm_fold_must_be_finite(tmp_path, epsilon, dense, bn):
    """A batch-norm layer whose inference scale, or whose fold into the dense
    layer before it, overflows is refused at load, with no numpy warning
    (pytest turns one into an error)."""
    path = tmp_path / "net.ckpt"
    mlp(3, [4], rng=np.random.default_rng(0), batch_norm=True).save(path)
    set_checkpoint_layer_value(path, 1, "epsilon", epsilon)
    rewrite_checkpoint_layer(path, 1, **bn)
    for name, values in dense.items():
        values = np.array(values, dtype=float)
        set_checkpoint_layer_value(path, 0, name, {"shape": list(values.shape),
                                                  "hex": [v.hex() for v in values.ravel().tolist()]})
    message = ("batch-norm scale gamma / sqrt(running_var + epsilon), or its fold into the dense layer "
               "before it, is not finite")
    with pytest.raises(CheckpointError, match=rf"layer 1: {re.escape(message)}") as err:
        Mlp.load(path)
    assert str(path) in str(err.value)


def test_checkpoint_non_finite_value(tmp_path):
    path = tmp_path / "net.ckpt"
    mlp(3, [4], rng=np.random.default_rng(0), batch_norm=True).save(path)
    rewrite_checkpoint_layer(path, 1, running_mean=[0.0, np.nan, 0.0, 0.0])
    with pytest.raises(CheckpointError, match="layer 1.*non-finite"):
        Mlp.load(path)
