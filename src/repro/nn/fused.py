"""Fused autograd kernels: one graph node per mathematical operation.

The generic autograd engine composes every softmax, LayerNorm or GELU out
of 5-10 primitive nodes, each holding a full-size intermediate array and a
Python closure.  For the Transformer hot loop that dominates TFMAE
training and scoring this is the main source of both allocation traffic
and Python overhead.  Each kernel here computes the same mathematical
function in a **single** graph node with a hand-written backward that
saves only what the gradient formula actually needs:

================  =============================  ===========================
kernel            reference graph saves           fused backward saves
================  =============================  ===========================
softmax           shifted, exp, sum, out         softmax output only
log_softmax       shifted, exp, sum, log, out    log-softmax output only
layer_norm        mu, centred, var, std, x-hat   x-hat and std
gelu              x³-poly, tanh, 3 products      input and tanh(u)
dropout_residual  mask product, sum              dropout mask only
attention (SDPA)  QKᵀ, shifted, exp, sum,        softmax weights (+ dropout
                  weights, context               mask); reuses q/k/v data
================  =============================  ===========================

**One definition, three runners.**  :data:`KERNELS` holds each kernel
once, as a :class:`Kernel`: its output and scratch shapes, its forward
and its backward written as plain sequences of ``xp.<ufunc>(..., out=...)``
calls on a namespace argument ``xp``.  The interpreter (the public
functions below) passes real :mod:`numpy` over freshly allocated
scratch; the scoring tape (:mod:`repro.nn.jit`) and the train-step tape
(:mod:`repro.nn.jit_train`) pass a recorder that writes each call as one
line of generated source over planned frame buffers.  Replay is
therefore bitwise-identical to the interpreter by construction.

Forward numerics follow the *same operation sequence* as the unfused
reference composition, so in float64 the fused forward is bit-identical;
every backward is verified against the reference by finite-difference
:func:`repro.nn.gradcheck` in the test-suite.

:func:`use_fused` / :func:`set_fused` / :func:`fused_enabled` are the
switch (:data:`repro.nn.policy.FUSED`, default on) so the equivalence
tests and micro-benchmarks can flip between the fused and reference
paths; the public :mod:`repro.nn.functional` entry points dispatch on
it.  See :mod:`repro.nn.policy` for the threading contract.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .policy import FUSED
from .tensor import Tensor, _unbroadcast

__all__ = [
    "fused_enabled",
    "set_fused",
    "use_fused",
    "softmax",
    "log_softmax",
    "layer_norm",
    "gelu",
    "dropout_residual",
    "scaled_dot_product_attention",
    "reference_softmax",
    "reference_log_softmax",
    "reference_layer_norm",
    "reference_gelu",
    "reference_dropout_residual",
    "reference_scaled_dot_product_attention",
]

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))
_GELU_COEFF = 0.044715

use_fused = FUSED.use
set_fused = FUSED.set
fused_enabled = FUSED.get


def dropout_mask(shape: tuple, p: float, rng: np.random.Generator | None) -> np.ndarray:
    """Inverted-dropout mask ``(U >= p) / (1 - p)``, float64, for ``shape``.

    The one place every dropout path draws from, so the fused and
    reference paths consume identical random streams.  Raises
    :class:`ValueError` unless ``0 <= p < 1``.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    # Interactive fallback; repro callers thread a seeded generator.
    generator = rng if rng is not None else np.random.default_rng()  # repro: noqa[RNG001]
    return (generator.random(shape) >= p) / (1.0 - p)


# ----------------------------------------------------------------------
# the kernel table
# ----------------------------------------------------------------------
class Kernel(NamedTuple):
    """One fused op, run alike by the interpreter and both tape compilers.

    * ``shapes(*parents, **meta)`` → ``[(shape, dtype), ...]``: the output,
      then the forward's scratch buffers.
    * ``forward(xp, *parents, out, *scratch, **meta)``: the ``out=`` call
      sequence; its last call writes ``out``.
    * ``backward(xp, grads, g, *parents, out, *saved, **meta)``, given the
      output gradient ``g``: ``grads.scratch(shape, dtype)`` hands out a
      temporary, and ``grads.contrib(k, raw_shape, value)`` accumulates
      parent ``k``'s gradient — an array, or a callable writing it with
      ``out=`` into the target it is passed — un-broadcast to the
      parent's shape, as ``Tensor._accumulate`` does.
    * ``saved``: how many leading scratch buffers the backward reads.

    Arrays expose ``shape``/``dtype``; shape arithmetic uses real numpy,
    only the op sequence goes through ``xp``.
    """

    shapes: Callable
    forward: Callable
    backward: Callable
    saved: int = 0


def _reduced_shape(shape: tuple, axis: int) -> tuple:
    """Shape of a ``keepdims=True`` reduction along ``axis``."""
    reduced = list(shape)
    reduced[axis] = 1
    return tuple(reduced)


def _mT(shape: tuple) -> tuple:
    """Shape of ``np.swapaxes(a, -1, -2)``."""
    return shape[:-2] + (shape[-1], shape[-2])


def _matmul_shape(a: tuple, b: tuple) -> tuple:
    return tuple(np.broadcast_shapes(a[:-2], b[:-2])) + (a[-2], b[-1])


def _softmax_into(xp, x, out, red, axis):
    """Numerically-stable softmax of ``x`` into ``out`` (``red``: reduced)."""
    xp.maximum.reduce(x, axis=axis, out=red, keepdims=True)
    xp.subtract(x, red, out=out)
    xp.exp(out, out=out)
    xp.add.reduce(out, axis=axis, out=red, keepdims=True)
    xp.divide(out, red, out=out)


def _softmax_grad_into(xp, g, y, work, red, axis, dst):
    """Softmax vector-Jacobian product ``y * (g - sum(g * y))`` into ``dst``."""
    xp.multiply(g, y, out=work)
    xp.add.reduce(work, axis=axis, out=red, keepdims=True)
    xp.subtract(g, red, out=work)
    xp.multiply(y, work, out=dst)


# -- softmax ------------------------------------------------------------
def _softmax_shapes(x, axis):
    return [(x.shape, x.dtype), (_reduced_shape(x.shape, axis), x.dtype)]


def _softmax_backward(xp, grads, g, x, out, axis):
    work = grads.scratch(out.shape, out.dtype)
    red = grads.scratch(_reduced_shape(out.shape, axis), out.dtype)
    grads.contrib(0, out.shape,
                  lambda dx: _softmax_grad_into(xp, g, out, work, red, axis, dx))


# -- log-softmax --------------------------------------------------------
def _log_softmax_shapes(x, axis):
    return [(x.shape, x.dtype), (x.shape, x.dtype),
            (_reduced_shape(x.shape, axis), x.dtype)]


def _log_softmax_forward(xp, x, out, exps, red, axis):
    xp.maximum.reduce(x, axis=axis, out=red, keepdims=True)
    xp.subtract(x, red, out=out)
    xp.exp(out, out=exps)
    xp.add.reduce(exps, axis=axis, out=red, keepdims=True)
    xp.log(red, out=red)
    xp.subtract(out, red, out=out)


def _log_softmax_backward(xp, grads, g, x, out, axis):
    work = grads.scratch(out.shape, out.dtype)
    red = grads.scratch(_reduced_shape(out.shape, axis), out.dtype)

    def dx(target):
        xp.add.reduce(g, axis=axis, out=red, keepdims=True)
        xp.exp(out, out=work)
        xp.multiply(work, red, out=work)
        xp.subtract(g, work, out=target)

    grads.contrib(0, out.shape, dx)


# -- layer norm ---------------------------------------------------------
def _layer_norm_shapes(x, weight, bias, eps):
    out = np.broadcast_shapes(x.shape, weight.shape, bias.shape)
    return [(out, np.result_type(x, weight, bias)), (x.shape, x.dtype),
            (x.shape[:-1] + (1,), x.dtype)]


def _layer_norm_forward(xp, x, weight, bias, out, x_hat, std, eps):
    # Mirrors the reference op sequence (sum · 1/count, not mean) so the
    # float64 forward stays bit-identical to the composition.
    inv_count = 1.0 / x.shape[-1]
    xp.add.reduce(x, axis=-1, out=std, keepdims=True)  # mu
    xp.multiply(std, inv_count, out=std)
    xp.subtract(x, std, out=x_hat)  # centred
    xp.multiply(x_hat, x_hat, out=out)
    xp.add.reduce(out, axis=-1, out=std, keepdims=True)  # var
    xp.multiply(std, inv_count, out=std)
    xp.add(std, eps, out=std)
    xp.sqrt(std, out=std)
    xp.divide(x_hat, std, out=x_hat)
    xp.multiply(x_hat, weight, out=out)
    xp.add(out, bias, out=out)


def _layer_norm_backward(xp, grads, g, x, weight, bias, out, x_hat, std, eps):
    count = x.shape[-1]
    gw = grads.scratch(x.shape, x.dtype)
    work = grads.scratch(x.shape, x.dtype)
    g_mean = grads.scratch(x.shape[:-1] + (1,), x.dtype)
    g_hat_mean = grads.scratch(x.shape[:-1] + (1,), x.dtype)
    # ndarray.mean is add.reduce followed by a divide by the count.
    xp.multiply(g, weight, out=gw)
    xp.add.reduce(gw, axis=-1, out=g_mean, keepdims=True)
    xp.divide(g_mean, count, out=g_mean)
    xp.multiply(gw, x_hat, out=work)
    xp.add.reduce(work, axis=-1, out=g_hat_mean, keepdims=True)
    xp.divide(g_hat_mean, count, out=g_hat_mean)

    def dx(target):
        xp.subtract(gw, g_mean, out=gw)
        xp.multiply(x_hat, g_hat_mean, out=work)
        xp.subtract(gw, work, out=gw)
        xp.divide(gw, std, out=target)

    grads.contrib(0, x.shape, dx)
    grads.contrib(1, out.shape, lambda dw: xp.multiply(g, x_hat, out=dw))
    grads.contrib(2, out.shape, g)


# -- GELU ---------------------------------------------------------------
def _gelu_shapes(x):
    return [(x.shape, x.dtype)] * 3


def _gelu_forward(xp, x, out, t, tmp):
    # Same association order as the reference composition so the float64
    # forward stays bit-identical; t = tanh(u) survives for the backward.
    xp.multiply(x, x, out=t)
    xp.multiply(t, x, out=t)
    xp.multiply(t, _GELU_COEFF, out=t)
    xp.add(x, t, out=t)
    xp.multiply(t, _SQRT_2_OVER_PI, out=t)
    xp.tanh(t, out=t)
    xp.multiply(x, 0.5, out=out)
    xp.add(t, 1.0, out=tmp)
    xp.multiply(out, tmp, out=out)


def _gelu_backward(xp, grads, g, x, out, t):
    acc = grads.scratch(x.shape, x.dtype)
    tmp = grads.scratch(x.shape, x.dtype)
    tmp2 = grads.scratch(x.shape, x.dtype)

    def dx(target):
        # du = sqrt(2/pi) * (1 + 3 c x^2)
        xp.multiply(x, 3.0 * _GELU_COEFF, out=acc)
        xp.multiply(acc, x, out=acc)
        xp.add(acc, 1.0, out=acc)
        xp.multiply(acc, _SQRT_2_OVER_PI, out=acc)
        # 0.5 x (1 - t^2) du
        xp.multiply(t, t, out=tmp)
        xp.subtract(1.0, tmp, out=tmp)
        xp.multiply(x, 0.5, out=tmp2)
        xp.multiply(tmp2, tmp, out=tmp)
        xp.multiply(tmp, acc, out=acc)
        # + 0.5 (1 + t)
        xp.add(t, 1.0, out=tmp)
        xp.multiply(tmp, 0.5, out=tmp)
        xp.add(tmp, acc, out=acc)
        xp.multiply(g, acc, out=target)

    grads.contrib(0, x.shape, dx)


# -- dropout + residual -------------------------------------------------
def _dropout_residual_shapes(x, residual, mask):
    return [(np.broadcast_shapes(x.shape, residual.shape),
             np.result_type(x, residual))]


def _dropout_residual_forward(xp, x, residual, out, mask):
    xp.add(residual, x if mask is None else xp.multiply(x, mask), out=out)


def _dropout_residual_backward(xp, grads, g, x, residual, out, mask):
    # Residual before x: when both reach one gradient buffer, this order
    # fixes the rounding of their sum on every path.
    grads.contrib(1, out.shape, g)
    grads.contrib(0, out.shape,
                  g if mask is None else lambda dx: xp.multiply(g, mask, out=dx))


# -- attention ----------------------------------------------------------
def _attention_shapes(q, k, v, scale, mask):
    scores = _matmul_shape(q.shape, _mT(k.shape))
    dtype = np.result_type(q, k)
    return [(_matmul_shape(scores, v.shape), np.result_type(q, k, v)),
            (scores, dtype), (scores[:-1] + (1,), dtype)]


def _attention_forward(xp, q, k, v, out, weights, red, scale, mask):
    xp.matmul(q, xp.swapaxes(k, -1, -2), out=weights)
    xp.multiply(weights, scale, out=weights)
    _softmax_into(xp, weights, weights, red, -1)
    xp.matmul(weights if mask is None else xp.multiply(weights, mask), v, out=out)


def _attention_backward(xp, grads, g, q, k, v, out, weights, scale, mask):
    scores = _matmul_shape(q.shape, _mT(k.shape))
    s1 = grads.scratch(scores, out.dtype)
    s2 = grads.scratch(scores, out.dtype)
    red = grads.scratch(scores[:-1] + (1,), out.dtype)
    dropped = weights if mask is None else xp.multiply(weights, mask)
    xp.matmul(g, xp.swapaxes(v, -1, -2), out=s1)
    grads.contrib(2, _matmul_shape(_mT(scores), out.shape),
                  lambda dv: xp.matmul(xp.swapaxes(dropped, -1, -2), g, out=dv))
    if mask is not None:
        xp.multiply(s1, mask, out=s1)
    _softmax_grad_into(xp, s1, weights, s2, red, -1, s2)
    xp.multiply(s2, scale, out=s2)
    grads.contrib(0, _matmul_shape(scores, k.shape),
                  lambda dq: xp.matmul(s2, k, out=dq))
    grads.contrib(1, _matmul_shape(_mT(scores), q.shape),
                  lambda dk: xp.matmul(xp.swapaxes(s2, -1, -2), q, out=dk))


#: op name -> its single definition.  layer_norm saves (x-hat, std),
#: gelu saves tanh(u), attention saves the softmax weights.
KERNELS = {
    "fused_softmax": Kernel(_softmax_shapes, _softmax_into, _softmax_backward),
    "fused_log_softmax": Kernel(_log_softmax_shapes, _log_softmax_forward,
                                _log_softmax_backward),
    "fused_layer_norm": Kernel(_layer_norm_shapes, _layer_norm_forward,
                               _layer_norm_backward, saved=2),
    "fused_gelu": Kernel(_gelu_shapes, _gelu_forward, _gelu_backward, saved=1),
    "fused_dropout_residual": Kernel(_dropout_residual_shapes, _dropout_residual_forward,
                                     _dropout_residual_backward),
    "fused_attention": Kernel(_attention_shapes, _attention_forward,
                              _attention_backward, saved=1),
}


# ----------------------------------------------------------------------
# the interpreter: run a kernel eagerly as one graph node
# ----------------------------------------------------------------------
class _Eager:
    """Backward sink for the interpreter: fresh scratch, and every
    contribution accumulates into its parent tensor."""

    __slots__ = ("parents",)

    def __init__(self, parents):
        self.parents = parents

    scratch = staticmethod(np.empty)

    def contrib(self, k, shape, value):
        parent = self.parents[k]
        if not parent.requires_grad:
            return
        if callable(value):
            target = np.empty(shape, parent.dtype)
            value(target)
            value = target
        parent._accumulate(_unbroadcast(value, parent.shape))


def _apply(op: str, parents: tuple, meta: dict | None = None):
    """Run ``KERNELS[op]`` on real numpy; returns ``(result, scratch)``."""
    kernel = KERNELS[op]
    kwargs = meta or {}
    datas = tuple(p.data for p in parents)
    out, *scratch = (np.empty(shape, dtype)
                     for shape, dtype in kernel.shapes(*datas, **kwargs))
    kernel.forward(np, *datas, out, *scratch, **kwargs)
    saved = scratch[:kernel.saved]

    def backward(grad: np.ndarray) -> None:
        kernel.backward(np, _Eager(parents), grad, *datas, out, *saved, **kwargs)

    return Tensor._make(out, parents, backward, op=op, meta=meta), scratch


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Single-node softmax; backward saves only the softmax output."""
    return _apply("fused_softmax", (x,), {"axis": axis})[0]


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Single-node log-softmax; backward saves only the output."""
    return _apply("fused_log_softmax", (x,), {"axis": axis})[0]


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Single-node layer normalisation over the trailing dimension.

    Backward saves the normalised activations and the std; the
    reference composition keeps five full-size intermediates.
    """
    return _apply("fused_layer_norm", (x, weight, bias), {"eps": eps})[0]


def gelu(x: Tensor) -> Tensor:
    """Single-node GELU (tanh approximation) with an analytic backward."""
    return _apply("fused_gelu", (x,))[0]


def dropout_residual(
    x: Tensor,
    residual: Tensor,
    p: float,
    training: bool,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Fused ``residual + dropout(x)`` in one node (Transformer residual add).

    Draws the dropout mask with the same RNG call the reference
    :func:`repro.nn.functional.dropout` uses, so the two paths consume
    identical random streams.
    """
    mask = None
    if training and p > 0.0:
        mask = dropout_mask(x.shape, p, rng).astype(x.data.dtype, copy=False)
    return _apply("fused_dropout_residual", (x, residual), {"mask": mask})[0]


def scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    scale: float,
    dropout_p: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Fused attention: ``softmax(q kᵀ · scale) v`` in a single graph node.

    Returns ``(context, weights)`` where ``weights`` is the plain-numpy
    softmax output (pre-dropout), exposed for the ``last_attention``
    diagnostics.  The hand-written backward saves only the softmax
    weights (plus the dropout mask when active) and reuses the q/k/v data
    arrays already owned by the inputs — the reference composition
    retains six full ``(B, H, T, T)`` intermediates across its nodes.
    """
    mask = None
    if training and dropout_p > 0.0:
        mask = dropout_mask(_matmul_shape(q.shape, _mT(k.shape)), dropout_p, rng)
        mask = mask.astype(np.result_type(q.data, k.data), copy=False)
    out, (weights, _) = _apply("fused_attention", (q, k, v),
                               {"scale": scale, "mask": mask})
    return out, weights


# ----------------------------------------------------------------------
# unfused reference compositions (equivalence targets for the tests)
# ----------------------------------------------------------------------
def reference_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax as the multi-node primitive composition."""
    return x.softmax(axis=axis)


def reference_log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax as the multi-node primitive composition."""
    return x.log_softmax(axis=axis)


def reference_layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation as the multi-node primitive composition."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normalised = (x - mu) / (var + eps).sqrt()
    return normalised * weight + bias


def reference_gelu(x: Tensor) -> Tensor:
    """GELU (tanh approximation) as the multi-node primitive composition."""
    inner = (x + x * x * x * _GELU_COEFF) * _SQRT_2_OVER_PI
    return x * 0.5 * (inner.tanh() + 1.0)


def reference_dropout_residual(
    x: Tensor,
    residual: Tensor,
    p: float,
    training: bool,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """``residual + dropout(x)`` as separate dropout and add nodes."""
    if training and p > 0.0:
        return residual + x * Tensor(dropout_mask(x.shape, p, rng))
    return residual + x


def reference_scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    scale: float,
    dropout_p: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Attention as the multi-node primitive composition."""
    scores = (q @ k.swapaxes(-1, -2)) * scale
    weights = scores.softmax(axis=-1)
    weights_data = weights.data
    if training and dropout_p > 0.0:
        weights = weights * Tensor(dropout_mask(weights.shape, dropout_p, rng))
    return weights @ v, weights_data
