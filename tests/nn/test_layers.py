"""Layer tests: Linear, LayerNorm, Conv1d, GRU — shapes, values, gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import GRU, Conv1d, Dropout, GRUCell, LayerNorm, Linear, Tensor
from tests.conftest import numerical_gradient


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(4, 7, rng)
        assert layer(Tensor(rng.normal(size=(3, 4)))).shape == (3, 7)

    def test_broadcasts_over_leading_axes(self, rng):
        layer = Linear(4, 7, rng)
        assert layer(Tensor(rng.normal(size=(2, 5, 4)))).shape == (2, 5, 7)

    def test_no_bias(self, rng):
        layer = Linear(4, 7, rng, bias=False)
        assert layer.bias is None
        zero_out = layer(Tensor(np.zeros((1, 4))))
        np.testing.assert_array_equal(zero_out.data, np.zeros((1, 7)))

    def test_weight_gradient(self, rng):
        layer = Linear(3, 2, rng)
        x = Tensor(rng.normal(size=(4, 3)))
        (layer(x) ** 2).mean().backward()
        assert layer.weight.grad is not None
        assert layer.weight.grad.shape == (3, 2)
        assert layer.bias.grad.shape == (2,)


class TestLayerNorm:
    def test_identity_statistics(self, rng):
        layer = LayerNorm(8)
        out = layer(Tensor(rng.normal(3.0, 2.0, size=(5, 8))))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-10)

    def test_gradient_flows_to_scale_and_shift(self, rng):
        layer = LayerNorm(4)
        (layer(Tensor(rng.normal(size=(3, 4)))) ** 2).mean().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestDropout:
    def test_eval_identity(self, rng):
        layer = Dropout(0.5, rng)
        layer.eval()
        x = Tensor(rng.normal(size=(4, 4)))
        assert layer(x) is x

    @pytest.mark.parametrize("p", [-0.2, 1.0, 1.5])
    def test_rejects_out_of_range_probability(self, rng, p):
        with pytest.raises(ValueError, match="dropout probability"):
            Dropout(p, rng)

    def test_accepts_zero(self, rng):
        layer = Dropout(0.0, rng)
        x = Tensor(rng.normal(size=(2, 3)))
        assert layer(x) is x


class TestConv1d:
    def test_same_padding_preserves_length(self, rng):
        conv = Conv1d(3, 5, kernel_size=5, rng=rng, padding="same")
        out = conv(Tensor(rng.normal(size=(2, 11, 3))))
        assert out.shape == (2, 11, 5)

    def test_even_kernel_same_padding(self, rng):
        conv = Conv1d(2, 2, kernel_size=4, rng=rng, padding="same")
        assert conv(Tensor(rng.normal(size=(1, 9, 2)))).shape == (1, 9, 2)

    def test_matches_manual_convolution(self, rng):
        conv = Conv1d(1, 1, kernel_size=3, rng=rng, padding=0)
        x = rng.normal(size=(1, 6, 1))
        out = conv(Tensor(x)).data[0, :, 0]
        kernel = conv.weight.data[:, 0]  # taps for (t-?), ordered k=0..2
        expected = [
            x[0, t, 0] * kernel[0] + x[0, t + 1, 0] * kernel[1] + x[0, t + 2, 0] * kernel[2]
            + conv.bias.data[0]
            for t in range(4)
        ]
        np.testing.assert_allclose(out, expected)

    def test_stride(self, rng):
        conv = Conv1d(2, 3, kernel_size=3, rng=rng, stride=2, padding=0)
        assert conv(Tensor(rng.normal(size=(1, 11, 2)))).shape == (1, 5, 3)

    def test_same_padding_with_stride_rejected(self, rng):
        with pytest.raises(ValueError):
            Conv1d(1, 1, 3, rng, stride=2, padding="same")

    def test_wrong_channel_count_raises(self, rng):
        conv = Conv1d(3, 4, 3, rng)
        with pytest.raises(ValueError):
            conv(Tensor(rng.normal(size=(1, 5, 2))))

    def test_gradient_matches_numerical(self, rng):
        conv = Conv1d(2, 2, kernel_size=3, rng=rng, padding="same")
        x0 = rng.normal(size=(1, 6, 2))

        def fn(arr):
            return float((conv(Tensor(arr)) ** 2).sum().data)

        x = Tensor(x0.copy(), requires_grad=True)
        (conv(x) ** 2).sum().backward()
        numeric = numerical_gradient(fn, x0)
        np.testing.assert_allclose(x.grad, numeric, atol=1e-5)


class TestGRU:
    def test_cell_shape(self, rng):
        cell = GRUCell(3, 5, rng)
        h = cell(Tensor(rng.normal(size=(2, 3))), Tensor(np.zeros((2, 5))))
        assert h.shape == (2, 5)

    def test_sequence_shape(self, rng):
        gru = GRU(3, 5, rng)
        out = gru(Tensor(rng.normal(size=(2, 7, 3))))
        assert out.shape == (2, 7, 5)

    def test_zero_input_zero_state_stays_bounded(self, rng):
        gru = GRU(3, 5, rng)
        out = gru(Tensor(np.zeros((1, 10, 3))))
        assert np.all(np.abs(out.data) <= 1.0)  # tanh-bounded candidates

    def test_initial_state_used(self, rng):
        gru = GRU(3, 4, rng)
        x = Tensor(rng.normal(size=(1, 3, 3)))
        out_zero = gru(x).data
        out_custom = gru(x, h0=Tensor(np.ones((1, 4)))).data
        assert not np.allclose(out_zero, out_custom)

    def test_gradient_flows_through_time(self, rng):
        gru = GRU(2, 3, rng)
        x = Tensor(rng.normal(size=(1, 5, 2)), requires_grad=True)
        (gru(x)[:, -1, :] ** 2).sum().backward()
        # The last output depends on the first input through recurrence.
        assert np.abs(x.grad[0, 0]).sum() > 0
