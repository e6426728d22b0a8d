"""Core neural-network layers built on the autograd engine.

Includes everything TFMAE and the 14 baselines require: linear maps, layer
normalisation, dropout, 1-D convolutions (for BeatGAN/TimesNet/DAEMON) and
a GRU cell (for OmniAno/THOC).
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = [
    "Linear",
    "LayerNorm",
    "Dropout",
    "Sequential",
    "ReLU",
    "GELU",
    "Tanh",
    "Sigmoid",
    "Conv1d",
    "GRUCell",
    "GRU",
]


class Linear(Module):
    """Affine map ``y = x W + b`` over the trailing dimension."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng), name="weight")
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features})"


class LayerNorm(Module):
    """Layer normalisation with learnable scale and shift (Eq. 13)."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(np.ones(dim), name="weight")
        self.bias = Parameter(np.zeros(dim), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)

    def __repr__(self) -> str:
        return f"LayerNorm(dim={self.dim})"


class Dropout(Module):
    """Inverted dropout; deterministic identity in eval mode."""

    def __init__(self, p: float, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        # Documented interactive fallback: every repro code path passes a
        # seeded generator; the default only serves ad-hoc REPL use.
        self.rng = rng if rng is not None else np.random.default_rng()  # repro: noqa[RNG001]

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, rng=self.rng)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._order: list[str] = []
        for index, module in enumerate(modules):
            name = f"layer{index}"
            setattr(self, name, module)
            self._order.append(name)

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = getattr(self, name)(x)
        return x

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return getattr(self, self._order[index])


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.sigmoid(x)


class Conv1d(Module):
    """1-D convolution via im2col + matmul.

    Input shape ``(batch, length, channels)``; output
    ``(batch, length_out, out_channels)``.  ``padding='same'`` keeps the
    temporal length when ``stride == 1``, which is what the convolutional
    baselines (BeatGAN, TimesNet, DAEMON) use.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: str | int = "same",
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        if padding == "same":
            if stride != 1:
                raise ValueError("padding='same' requires stride=1")
            self.pad = (kernel_size - 1) // 2, kernel_size - 1 - (kernel_size - 1) // 2
        else:
            self.pad = (int(padding), int(padding))
        self.weight = Parameter(
            init.xavier_uniform((kernel_size * in_channels, out_channels), rng), name="weight"
        )
        self.bias = Parameter(init.zeros((out_channels,)), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        batch, length, channels = x.shape
        if channels != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {channels}")
        left, right = self.pad
        padded_len = length + left + right
        out_len = (padded_len - self.kernel_size) // self.stride + 1

        # Zero-pad along time by concatenation so gradients flow through.
        parts = []
        if left:
            parts.append(Tensor(np.zeros((batch, left, channels))))
        parts.append(x)
        if right:
            parts.append(Tensor(np.zeros((batch, right, channels))))
        padded = Tensor.concat(parts, axis=1) if len(parts) > 1 else x

        # im2col: gather kernel_size shifted views and concatenate on the
        # channel axis -> (batch, out_len, kernel_size*channels).
        columns = []
        for k in range(self.kernel_size):
            stop = k + self.stride * (out_len - 1) + 1
            columns.append(padded[:, k:stop:self.stride, :])
        stacked = Tensor.concat(columns, axis=2)
        return stacked @ self.weight + self.bias

    def __repr__(self) -> str:
        return (
            f"Conv1d(in={self.in_channels}, out={self.out_channels}, "
            f"k={self.kernel_size}, stride={self.stride})"
        )


class GRUCell(Module):
    """Single gated recurrent unit step.

    Follows the standard formulation: reset gate ``r``, update gate ``z``
    and candidate state ``n``; used by the recurrent baselines.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_ih = Parameter(init.xavier_uniform((input_size, 3 * hidden_size), rng), name="w_ih")
        self.w_hh = Parameter(init.xavier_uniform((hidden_size, 3 * hidden_size), rng), name="w_hh")
        self.b_ih = Parameter(init.zeros((3 * hidden_size,)), name="b_ih")
        self.b_hh = Parameter(init.zeros((3 * hidden_size,)), name="b_hh")

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        gates_x = x @ self.w_ih + self.b_ih
        gates_h = h @ self.w_hh + self.b_hh
        H = self.hidden_size
        r = (gates_x[:, :H] + gates_h[:, :H]).sigmoid()
        z = (gates_x[:, H:2 * H] + gates_h[:, H:2 * H]).sigmoid()
        n = (gates_x[:, 2 * H:] + r * gates_h[:, 2 * H:]).tanh()
        return (1.0 - z) * n + z * h


class GRU(Module):
    """Unidirectional GRU over sequences shaped ``(batch, time, features)``.

    Returns the full hidden-state sequence ``(batch, time, hidden)``.  The
    unrolled python loop is slow but adequate at reproduction scale and
    keeps gradients exact.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.hidden_size = hidden_size
        self.cell = GRUCell(input_size, hidden_size, rng)

    def forward(self, x: Tensor, h0: Tensor | None = None) -> Tensor:
        batch, time, _ = x.shape
        h = h0 if h0 is not None else Tensor(np.zeros((batch, self.hidden_size)))
        outputs = []
        for t in range(time):
            h = self.cell(x[:, t, :], h)
            outputs.append(h)
        return Tensor.stack(outputs, axis=1)
