"""Compute-dtype policy for the numpy substrate.

The reference numerics of the reproduction are float64 — every
equivalence test, gradcheck and paper-table number is produced at full
precision.  Production training and serving do not need that: float32
halves the memory traffic of every kernel and roughly doubles BLAS
throughput on the attention matmuls, while anomaly *ranking* (the only
thing thresholds consume) is insensitive at these scales.

:func:`set_default_dtype` / :func:`get_default_dtype` bind the process
default of :data:`repro.nn.policy.DTYPE`, used whenever a
:class:`~repro.nn.tensor.Tensor` is built from non-array data (or from
an array of another float dtype); :func:`default_dtype` overrides it on
the current thread only.  Models with a per-model ``compute_dtype``
(:class:`repro.core.TFMAEConfig`) wrap their forward passes in it, so a
float32 model serving traffic never disturbs a float64 equivalence test
on another thread.  The default stays float64.
"""

from __future__ import annotations

import numpy as np

from .policy import DTYPE, validate_dtype

__all__ = ["get_default_dtype", "set_default_dtype", "default_dtype", "resolve_dtype"]

get_default_dtype = DTYPE.get
set_default_dtype = DTYPE.set
default_dtype = DTYPE.use


def resolve_dtype(dtype=None) -> np.dtype:
    """Resolve an explicit dtype, falling back to the active default."""
    if dtype is None:
        return DTYPE.get()
    return validate_dtype(dtype)
