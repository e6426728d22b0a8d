"""Stateless neural-network operations on :class:`~repro.nn.tensor.Tensor`.

These free functions mirror ``torch.nn.functional`` for the subset of
operations the TFMAE reproduction needs: activations, normalisation,
dropout, and the divergence/distance losses used by the paper's
contrastive objective (Eq. 14-16).

The hot operations (``softmax``, ``log_softmax``, ``gelu``,
``layer_norm``, ``dropout_residual``) dispatch to the single-node fused
kernels of :mod:`repro.nn.fused` when those are enabled (the default);
the multi-node primitive compositions remain available both as the
fallback and as the equivalence reference for the gradcheck tests.
"""

from __future__ import annotations

import numpy as np

from . import fused
from .tensor import Tensor, as_tensor

__all__ = [
    "relu",
    "gelu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "dropout",
    "dropout_residual",
    "layer_norm",
    "mse_loss",
    "mae_loss",
    "kl_divergence",
    "symmetric_kl",
    "binary_cross_entropy",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation).

    The tanh form is differentiable with the primitives available in the
    autograd engine and matches the approximation used by most Transformer
    implementations.
    """
    if fused.fused_enabled():
        return fused.gelu(x)
    return fused.reference_gelu(x)


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if fused.fused_enabled():
        return fused.softmax(x, axis=axis)
    return x.softmax(axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    if fused.fused_enabled():
        return fused.log_softmax(x, axis=axis)
    return x.log_softmax(axis=axis)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: identity at evaluation time.

    Parameters
    ----------
    p:
        Drop probability in ``[0, 1)``.
    training:
        When ``False`` the input is returned unchanged.
    rng:
        Source of randomness; falls back to a module-level default.
    """
    if not training or p <= 0.0:
        return x
    return x * Tensor(fused.dropout_mask(x.shape, p, rng))


def dropout_residual(
    x: Tensor,
    residual: Tensor,
    p: float,
    training: bool,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """``residual + dropout(x)`` — the Transformer residual connection.

    Fused into one graph node when the fused kernels are enabled; both
    paths draw the dropout mask with the same RNG call, so they consume
    identical random streams.
    """
    if fused.fused_enabled():
        return fused.dropout_residual(x, residual, p, training, rng=rng)
    return fused.reference_dropout_residual(x, residual, p, training, rng=rng)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the trailing dimension (Eq. 13, ``LN``)."""
    if fused.fused_enabled():
        return fused.layer_norm(x, weight, bias, eps=eps)
    return fused.reference_layer_norm(x, weight, bias, eps=eps)


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements."""
    target = as_tensor(target)
    diff = prediction - target
    return (diff * diff).mean()


def mae_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error over all elements."""
    target = as_tensor(target)
    return (prediction - target).abs().mean()


def kl_divergence(p: Tensor, q: Tensor, axis: int = -1, reduce: bool = True) -> Tensor:
    """Kullback-Leibler divergence ``D_KL(softmax(p) || softmax(q))``.

    Both inputs are treated as unnormalised logits and converted to
    distributions along ``axis``, which matches the paper's use of KLD as a
    distance between latent representations (Eq. 14).

    Parameters
    ----------
    reduce:
        When ``True`` return the scalar mean over all leading dimensions;
        otherwise return the per-position divergence (used for the anomaly
        score in Eq. 16).
    """
    log_p = log_softmax(p, axis=axis)
    log_q = log_softmax(q, axis=axis)
    per_position = (log_p.exp() * (log_p - log_q)).sum(axis=axis)
    return per_position.mean() if reduce else per_position


def symmetric_kl(p: Tensor, q: Tensor, axis: int = -1, reduce: bool = True) -> Tensor:
    """Symmetric KL divergence ``D_KL(p||q) + D_KL(q||p)`` (Eq. 14/16)."""
    forward = kl_divergence(p, q, axis=axis, reduce=reduce)
    backward = kl_divergence(q, p, axis=axis, reduce=reduce)
    return forward + backward


def binary_cross_entropy(prediction: Tensor, target: Tensor, eps: float = 1e-7) -> Tensor:
    """Binary cross entropy on probabilities (used by GAN-style baselines)."""
    target = as_tensor(target)
    clipped = prediction.clip(eps, 1.0 - eps)
    loss = -(target * clipped.log() + (1.0 - target) * (1.0 - clipped).log())
    return loss.mean()
