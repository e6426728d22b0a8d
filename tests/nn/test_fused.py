"""Fused-kernel equivalence: forward bitwise, backward via gradcheck.

Every fused op in :mod:`repro.nn.fused` must match its unfused reference
composition exactly in float64 (same op sequence => bit-identical
forward) and carry a correct hand-written backward (finite-difference
gradcheck plus direct comparison against the reference graph's
gradients).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import nn
from repro.nn import Tensor, fused, gradcheck
from repro.nn import functional as F
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.transformer import TransformerLayer

FORWARD_ATOL = 1e-10


def _finite_arrays(shape):
    return arrays(
        np.float64,
        shape,
        elements=st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
    )


class TestFusedSwitch:
    def test_default_enabled(self):
        assert fused.fused_enabled()

    def test_context_manager_restores(self):
        assert fused.fused_enabled()
        with fused.use_fused(False):
            assert not fused.fused_enabled()
            with fused.use_fused(True):
                assert fused.fused_enabled()
            assert not fused.fused_enabled()
        assert fused.fused_enabled()

    def test_functional_dispatch(self, rng):
        """functional entry points follow the switch."""
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        with fused.use_fused(True):
            fused_out = F.softmax(x)
        with fused.use_fused(False):
            reference_out = F.softmax(x)
        # The fused node has one parent and no intermediate chain.
        assert fused_out._parents == (x,)
        assert reference_out._parents != (x,)
        np.testing.assert_array_equal(fused_out.data, reference_out.data)


class TestForwardBitwise:
    """Fused forward == reference forward, bit-for-bit in float64."""

    def test_softmax(self, rng):
        x = rng.normal(size=(4, 6, 8)) * 3.0
        out = fused.softmax(Tensor(x))
        ref = fused.reference_softmax(Tensor(x))
        assert np.array_equal(out.data, ref.data)

    def test_softmax_other_axis(self, rng):
        x = rng.normal(size=(5, 7))
        out = fused.softmax(Tensor(x), axis=0)
        ref = fused.reference_softmax(Tensor(x), axis=0)
        assert np.array_equal(out.data, ref.data)

    def test_log_softmax(self, rng):
        x = rng.normal(size=(4, 9)) * 4.0
        out = fused.log_softmax(Tensor(x))
        ref = fused.reference_log_softmax(Tensor(x))
        assert np.array_equal(out.data, ref.data)

    def test_layer_norm(self, rng):
        x = Tensor(rng.normal(size=(3, 5, 8)))
        weight = Tensor(rng.normal(size=(8,)))
        bias = Tensor(rng.normal(size=(8,)))
        out = fused.layer_norm(x, weight, bias)
        ref = fused.reference_layer_norm(x, weight, bias)
        assert np.array_equal(out.data, ref.data)

    def test_gelu(self, rng):
        x = rng.normal(size=(100,)) * 3.0
        out = fused.gelu(Tensor(x))
        ref = fused.reference_gelu(Tensor(x))
        assert np.array_equal(out.data, ref.data)

    def test_dropout_residual_matches_rng_stream(self, rng):
        x = rng.normal(size=(6, 8))
        res = rng.normal(size=(6, 8))
        out = fused.dropout_residual(
            Tensor(x), Tensor(res), p=0.3, training=True,
            rng=np.random.default_rng(7),
        )
        ref = fused.reference_dropout_residual(
            Tensor(x), Tensor(res), p=0.3, training=True,
            rng=np.random.default_rng(7),
        )
        assert np.array_equal(out.data, ref.data)

    def test_dropout_residual_eval_mode(self, rng):
        x, res = rng.normal(size=(4,)), rng.normal(size=(4,))
        out = fused.dropout_residual(Tensor(x), Tensor(res), p=0.5, training=False)
        np.testing.assert_array_equal(out.data, res + x)

    def test_attention(self, rng):
        q = Tensor(rng.normal(size=(2, 3, 5, 4)))
        k = Tensor(rng.normal(size=(2, 3, 5, 4)))
        v = Tensor(rng.normal(size=(2, 3, 5, 4)))
        out, weights = fused.scaled_dot_product_attention(q, k, v, scale=0.5)
        ref, ref_weights = fused.reference_scaled_dot_product_attention(
            q, k, v, scale=0.5
        )
        assert np.array_equal(out.data, ref.data)
        assert np.array_equal(weights, ref_weights)

    def test_attention_with_dropout(self, rng):
        q = Tensor(rng.normal(size=(2, 2, 4, 3)))
        k = Tensor(rng.normal(size=(2, 2, 4, 3)))
        v = Tensor(rng.normal(size=(2, 2, 4, 3)))
        out, _ = fused.scaled_dot_product_attention(
            q, k, v, scale=0.5, dropout_p=0.25, training=True,
            rng=np.random.default_rng(3),
        )
        ref, _ = fused.reference_scaled_dot_product_attention(
            q, k, v, scale=0.5, dropout_p=0.25, training=True,
            rng=np.random.default_rng(3),
        )
        assert np.array_equal(out.data, ref.data)

    def test_invalid_dropout_probability(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        with pytest.raises(ValueError):
            fused.dropout_residual(x, x, p=1.5, training=True)
        with pytest.raises(ValueError):
            fused.scaled_dot_product_attention(
                x, x, x, scale=1.0, dropout_p=1.5, training=True
            )


class TestBackwardEquivalence:
    """Fused hand-written backwards == reference graph gradients."""

    @staticmethod
    def _grads(factory, seed_grad, *tensors):
        out = factory(*tensors)
        out.backward(seed_grad)
        return [t.grad for t in tensors]

    def test_softmax(self, rng):
        x = rng.normal(size=(3, 6))
        seed = rng.normal(size=(3, 6))
        fused_grads = self._grads(
            fused.softmax, seed, Tensor(x, requires_grad=True)
        )
        ref_grads = self._grads(
            fused.reference_softmax, seed, Tensor(x, requires_grad=True)
        )
        np.testing.assert_allclose(fused_grads[0], ref_grads[0], atol=1e-14)

    def test_log_softmax(self, rng):
        x = rng.normal(size=(4, 5))
        seed = rng.normal(size=(4, 5))
        fused_grads = self._grads(
            fused.log_softmax, seed, Tensor(x, requires_grad=True)
        )
        ref_grads = self._grads(
            fused.reference_log_softmax, seed, Tensor(x, requires_grad=True)
        )
        np.testing.assert_allclose(fused_grads[0], ref_grads[0], atol=1e-14)

    def test_layer_norm(self, rng):
        x = rng.normal(size=(3, 4, 6))
        w = rng.normal(size=(6,))
        b = rng.normal(size=(6,))
        seed = rng.normal(size=(3, 4, 6))
        fused_grads = self._grads(
            fused.layer_norm, seed,
            Tensor(x, requires_grad=True),
            Tensor(w, requires_grad=True),
            Tensor(b, requires_grad=True),
        )
        ref_grads = self._grads(
            fused.reference_layer_norm, seed,
            Tensor(x, requires_grad=True),
            Tensor(w, requires_grad=True),
            Tensor(b, requires_grad=True),
        )
        for got, want in zip(fused_grads, ref_grads):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_gelu(self, rng):
        x = rng.normal(size=(40,)) * 2.0
        seed = rng.normal(size=(40,))
        fused_grads = self._grads(fused.gelu, seed, Tensor(x, requires_grad=True))
        ref_grads = self._grads(
            fused.reference_gelu, seed, Tensor(x, requires_grad=True)
        )
        np.testing.assert_allclose(fused_grads[0], ref_grads[0], atol=1e-13)

    def test_dropout_residual(self, rng):
        x = rng.normal(size=(5, 4))
        res = rng.normal(size=(5, 4))
        seed = rng.normal(size=(5, 4))
        fused_grads = self._grads(
            lambda a, b: fused.dropout_residual(
                a, b, p=0.4, training=True, rng=np.random.default_rng(1)
            ),
            seed,
            Tensor(x, requires_grad=True),
            Tensor(res, requires_grad=True),
        )
        ref_grads = self._grads(
            lambda a, b: fused.reference_dropout_residual(
                a, b, p=0.4, training=True, rng=np.random.default_rng(1)
            ),
            seed,
            Tensor(x, requires_grad=True),
            Tensor(res, requires_grad=True),
        )
        for got, want in zip(fused_grads, ref_grads):
            np.testing.assert_allclose(got, want, atol=1e-14)

    def test_attention(self, rng):
        shape = (2, 2, 5, 3)
        q, k, v = (rng.normal(size=shape) for _ in range(3))
        seed = rng.normal(size=shape)
        fused_grads = self._grads(
            lambda a, b, c: fused.scaled_dot_product_attention(
                a, b, c, scale=0.7
            )[0],
            seed,
            Tensor(q, requires_grad=True),
            Tensor(k, requires_grad=True),
            Tensor(v, requires_grad=True),
        )
        ref_grads = self._grads(
            lambda a, b, c: fused.reference_scaled_dot_product_attention(
                a, b, c, scale=0.7
            )[0],
            seed,
            Tensor(q, requires_grad=True),
            Tensor(k, requires_grad=True),
            Tensor(v, requires_grad=True),
        )
        for got, want in zip(fused_grads, ref_grads):
            np.testing.assert_allclose(got, want, atol=1e-12)


class TestFusedGradcheck:
    """Finite-difference validation of every hand-written backward."""

    def test_softmax(self, rng):
        assert gradcheck(
            fused.softmax, Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        )

    def test_log_softmax(self, rng):
        assert gradcheck(
            fused.log_softmax, Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        )

    def test_layer_norm(self, rng):
        assert gradcheck(
            fused.layer_norm,
            Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True),
            Tensor(rng.normal(size=(5,)), requires_grad=True),
            Tensor(rng.normal(size=(5,)), requires_grad=True),
        )

    def test_gelu(self, rng):
        assert gradcheck(
            fused.gelu, Tensor(rng.normal(size=(12,)) * 2.0, requires_grad=True)
        )

    def test_dropout_residual(self, rng):
        # A fresh generator per call would change the mask between the
        # analytic pass and every finite-difference probe; a fixed seed
        # keeps the function deterministic, which gradcheck requires.
        assert gradcheck(
            lambda x, res: fused.dropout_residual(
                x, res, p=0.3, training=True, rng=np.random.default_rng(11)
            ),
            Tensor(rng.normal(size=(4, 3)), requires_grad=True),
            Tensor(rng.normal(size=(4, 3)), requires_grad=True),
        )

    def test_attention(self, rng):
        shape = (1, 2, 4, 3)
        assert gradcheck(
            lambda q, k, v: fused.scaled_dot_product_attention(
                q, k, v, scale=0.6
            )[0],
            Tensor(rng.normal(size=shape), requires_grad=True),
            Tensor(rng.normal(size=shape), requires_grad=True),
            Tensor(rng.normal(size=shape), requires_grad=True),
        )

    def test_attention_with_dropout(self, rng):
        shape = (1, 1, 3, 2)
        assert gradcheck(
            lambda q, k, v: fused.scaled_dot_product_attention(
                q, k, v, scale=0.6, dropout_p=0.4, training=True,
                rng=np.random.default_rng(5),
            )[0],
            Tensor(rng.normal(size=shape), requires_grad=True),
            Tensor(rng.normal(size=shape), requires_grad=True),
            Tensor(rng.normal(size=shape), requires_grad=True),
        )


class TestFusedProperties:
    """Hypothesis sweeps: fused == reference on arbitrary finite inputs."""

    @given(x=_finite_arrays((4, 7)))
    @settings(max_examples=25, deadline=None)
    def test_softmax_property(self, x):
        out = fused.softmax(Tensor(x))
        ref = fused.reference_softmax(Tensor(x))
        assert np.array_equal(out.data, ref.data)

    @given(x=_finite_arrays((3, 6)))
    @settings(max_examples=25, deadline=None)
    def test_log_softmax_property(self, x):
        out = fused.log_softmax(Tensor(x))
        ref = fused.reference_log_softmax(Tensor(x))
        assert np.array_equal(out.data, ref.data)

    @given(x=_finite_arrays((10,)))
    @settings(max_examples=25, deadline=None)
    def test_gelu_property(self, x):
        out = fused.gelu(Tensor(x))
        ref = fused.reference_gelu(Tensor(x))
        assert np.array_equal(out.data, ref.data)

    @given(x=_finite_arrays((4, 6)), w=_finite_arrays((6,)), b=_finite_arrays((6,)))
    @settings(max_examples=25, deadline=None)
    def test_layer_norm_property(self, x, w, b):
        out = fused.layer_norm(Tensor(x), Tensor(w), Tensor(b))
        ref = fused.reference_layer_norm(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, ref.data, atol=FORWARD_ATOL)
        assert np.array_equal(out.data, ref.data)


class TestAttentionModule:
    def _module_pair(self, rng_seed=0, dropout=0.0, keep_graph=False):
        module = MultiHeadSelfAttention(
            8, 2, np.random.default_rng(rng_seed), dropout=dropout,
            keep_attention_graph=keep_graph,
        )
        return module

    def test_fused_matches_reference_path(self, rng):
        x = rng.normal(size=(2, 6, 8))
        with fused.use_fused(True):
            module = self._module_pair()
            fused_out = module(Tensor(x))
            fused_weights = module.last_attention
        with fused.use_fused(False):
            module = self._module_pair()
            ref_out = module(Tensor(x))
            ref_weights = module.last_attention
        assert np.array_equal(fused_out.data, ref_out.data)
        assert np.array_equal(fused_weights, ref_weights)

    def test_keep_attention_graph_uses_reference(self, rng):
        """The Anomaly Transformer contract: weights stay on the graph."""
        x = rng.normal(size=(1, 5, 8))
        with fused.use_fused(True):
            module = self._module_pair(keep_graph=True)
            module(Tensor(x, requires_grad=True))
        assert module.last_attention_tensor is not None
        assert module.last_attention_tensor.requires_grad

    def test_fused_path_weights_detached(self, rng):
        x = rng.normal(size=(1, 5, 8))
        with fused.use_fused(True):
            module = self._module_pair()
            module(Tensor(x, requires_grad=True))
        assert module.last_attention_tensor is None
        assert module.last_attention is not None
        assert module.last_attention.shape == (1, 2, 5, 5)


class TestTransformerLayerSmoke:
    """Tier-1 smoke: the full fused layer equals the reference layer."""

    @staticmethod
    def _layer(dropout=0.0):
        return TransformerLayer(8, 2, np.random.default_rng(0), dropout=dropout)

    def test_forward_bitwise(self, rng):
        x = rng.normal(size=(2, 10, 8))
        with fused.use_fused(True):
            fused_out = self._layer()(Tensor(x))
        with fused.use_fused(False):
            ref_out = self._layer()(Tensor(x))
        assert np.array_equal(fused_out.data, ref_out.data)

    def test_backward_grads_match(self, rng):
        x = rng.normal(size=(2, 6, 8))

        def run(enabled):
            with fused.use_fused(enabled):
                layer = self._layer()
                inp = Tensor(x, requires_grad=True)
                layer(inp).sum().backward()
                return inp.grad, {n: p.grad for n, p in layer.named_parameters()}

        fused_in, fused_params = run(True)
        ref_in, ref_params = run(False)
        np.testing.assert_allclose(fused_in, ref_in, atol=1e-12)
        assert fused_params.keys() == ref_params.keys()
        for name in fused_params:
            np.testing.assert_allclose(
                fused_params[name], ref_params[name], atol=1e-12,
                err_msg=f"parameter {name}",
            )

    def test_training_mode_rng_streams_align(self, rng):
        """With dropout on, fused and reference consume identical randomness."""
        x = rng.normal(size=(2, 5, 8))

        def run(enabled):
            with fused.use_fused(enabled):
                layer = self._layer(dropout=0.2)
                layer.train()
                return layer(Tensor(x)).data

        assert np.array_equal(run(True), run(False))


#: op -> (batched input trailing shapes, parameter shapes, apply).
_KERNEL_CASES = {
    "fused_softmax": ({"x": (5, 7)}, {}, lambda t: fused.softmax(t["x"])),
    "fused_log_softmax": ({"x": (5, 7)}, {}, lambda t: fused.log_softmax(t["x"])),
    "fused_layer_norm": (
        {"x": (5, 8)}, {"weight": (8,), "bias": (8,)},
        lambda t: fused.layer_norm(t["x"], t["weight"], t["bias"]),
    ),
    "fused_gelu": ({"x": (5, 7)}, {}, lambda t: fused.gelu(t["x"])),
    "fused_dropout_residual": (
        {"x": (5, 7), "residual": (5, 7)}, {},
        lambda t: fused.dropout_residual(t["x"], t["residual"], p=0.3, training=False),
    ),
    "fused_attention": (
        {"q": (2, 5, 4), "k": (2, 5, 4), "v": (2, 5, 4)}, {},
        lambda t: fused.scaled_dot_product_attention(t["q"], t["k"], t["v"], scale=0.5)[0],
    ),
}


def _kernel_case(op, rng, batch, dtype):
    """``(inputs, params, apply)`` for one fused kernel at ``batch``:
    input arrays lead with the batch, parameter arrays do not, and
    ``apply(tensors)`` runs the kernel on a dict of tensors over both."""
    inputs, params, apply = _KERNEL_CASES[op]

    def draw(shape):
        return (rng.normal(size=shape) * 2.0).astype(dtype)

    return ({name: draw((batch, *shape)) for name, shape in inputs.items()},
            {name: draw(shape) for name, shape in params.items()}, apply)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("op", sorted(fused.KERNELS))
class TestKernelTapeEquivalence:
    """Each fused kernel, compiled by both tapes, is bitwise the interpreter.

    Covers every kernel directly — no TFMAE graph reaches
    ``fused_softmax``, so the model-level suites cannot.
    """

    def test_scoring_tape_replays_bitwise(self, op, dtype):
        from repro.nn import jit

        rng = np.random.default_rng(0)
        slots, param_arrays, apply = _kernel_case(op, rng, 4, dtype)

        def forward(slots):
            return apply({**{name: Tensor(a) for name, a in slots.items()}, **params})

        with nn.default_dtype(dtype), nn.no_grad():
            params = {name: Tensor(a) for name, a in param_arrays.items()}
            out, tape = jit.trace(lambda: forward(slots), slots,
                                  params.values(), batched=list(slots))
            assert out.op == op
            assert tape is not None
            for batch in (4, 2, 7):
                slots = _kernel_case(op, rng, batch, dtype)[0]
                expected = forward(slots).data
                replayed = tape.replay(slots, params.values())
                assert replayed.dtype == expected.dtype == dtype
                assert np.array_equal(replayed, expected)

    def test_train_tape_gradients_bitwise(self, op, dtype):
        from repro.nn.jit_train import TrainTape, _TrainTapeBuilder
        from repro.nn.optim import Adam
        from repro.nn.tensor import op_hook

        rng = np.random.default_rng(1)
        inputs, param_arrays, apply = _kernel_case(op, rng, 3, dtype)
        with nn.default_dtype(dtype):
            leaves = {name: Tensor(a, requires_grad=True)
                      for name, a in {**inputs, **param_arrays}.items()}
            # Every kernel's output has the shape of its first input.
            first = next(iter(inputs.values()))
            slots = {"seed": rng.normal(size=first.shape).astype(dtype)}
            builder = _TrainTapeBuilder(slots, leaves.values())
            with op_hook(builder):
                out = apply(leaves)
                loss = (out * Tensor(slots["seed"])).sum()
                loss.backward()
        assert out.op == op
        assert op in {builder.steps[b].op for b in builder.backward_items}
        expected = {name: leaf.grad.copy() for name, leaf in leaves.items()}

        optimizer = Adam(list(leaves.values()))
        tape = TrainTape(builder, loss, {}, optimizer)
        frame = tape.new_frame()
        gen = tape.start(slots, frame, builder.params, optimizer)
        (compiled_loss,) = tape._advance(gen, "forward")
        assert np.array_equal(compiled_loss, loss.data)
        tape._advance(gen, "backward")
        grads = {id(builder.params[k]): frame[buf_id] for k, buf_id in tape._param_grads}
        assert len(grads) == len(leaves)
        for name, leaf in leaves.items():
            assert grads[id(leaf)].dtype == dtype
            assert np.array_equal(grads[id(leaf)], expected[name]), name


def test_broadcast_attention_train_tape_gradients_bitwise():
    """k and v shared across the batch: their compiled gradients are
    un-broadcast exactly as the interpreter's accumulation does."""
    from repro.nn.jit_train import TrainTape, _TrainTapeBuilder
    from repro.nn.optim import Adam
    from repro.nn.tensor import op_hook

    rng = np.random.default_rng(2)
    leaves = {"q": Tensor(rng.normal(size=(3, 2, 5, 4)), requires_grad=True),
              "k": Tensor(rng.normal(size=(1, 2, 5, 4)), requires_grad=True),
              "v": Tensor(rng.normal(size=(1, 2, 5, 4)), requires_grad=True)}
    slots = {"seed": rng.normal(size=(3, 2, 5, 4))}
    builder = _TrainTapeBuilder(slots, leaves.values())
    with op_hook(builder):
        out, _ = fused.scaled_dot_product_attention(
            leaves["q"], leaves["k"], leaves["v"], scale=0.5)
        loss = (out * Tensor(slots["seed"])).sum()
        loss.backward()
    expected = {name: leaf.grad.copy() for name, leaf in leaves.items()}

    optimizer = Adam(list(leaves.values()))
    tape = TrainTape(builder, loss, {}, optimizer)
    frame = tape.new_frame()
    gen = tape.start(slots, frame, builder.params, optimizer)
    tape._advance(gen, "forward")
    tape._advance(gen, "backward")
    grads = {id(builder.params[k]): frame[buf_id] for k, buf_id in tape._param_grads}
    for name, leaf in leaves.items():
        assert grads[id(leaf)].shape == leaf.shape
        assert np.array_equal(grads[id(leaf)], expected[name]), name
