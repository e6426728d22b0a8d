"""Execution policies: one switch type for every ``repro.nn`` toggle.

A :class:`Switch` holds a validated process-wide default, changed by
:meth:`~Switch.set`, and a per-thread override entered by the
:meth:`~Switch.use` context manager (nestable; the innermost wins);
:meth:`~Switch.get` reads the active value.  The override is a
:class:`contextvars.ContextVar`: a new ``threading.Thread`` or
``ThreadPoolExecutor`` worker starts without one and sees the process
default, so a test or bench pinning a path on one thread never reaches
the serve scheduler's workers or a training thread.

:data:`SWITCHES` lists the five switches with the public names bound to
their override and setter; lint rule TLS001 reads its names from it.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Any, Callable, Iterator

import numpy as np

__all__ = ["Switch", "FUSED", "JIT", "TRAIN_JIT", "GRAD", "DTYPE", "SWITCHES",
           "validate_dtype"]


class Switch:
    """A validated process default plus a nestable per-thread override.

    ``use_name``/``set_name`` are the public names bound to :meth:`use`
    and :meth:`set` (``set_name`` is None when there is no public setter).
    """

    def __init__(self, name: str, default: Any, use_name: str,
                 set_name: str | None = None,
                 validate: Callable[[Any], Any] = bool):
        self.use_name = use_name
        self.set_name = set_name
        self._validate = validate
        self._default = validate(default)
        # None marks "no override": no switch value is ever None.
        self._override = contextvars.ContextVar(name, default=None)

    def get(self) -> Any:
        """The active value: this thread's override, else the default."""
        value = self._override.get()
        return self._default if value is None else value

    def set(self, value: Any) -> None:
        """Set the process-wide default (threads inside :meth:`use` keep
        their override; everyone else sees the new value immediately)."""
        self._default = self._validate(value)

    @contextlib.contextmanager
    def use(self, value: Any) -> Iterator[None]:
        """Override the value on the current thread (context manager)."""
        token = self._override.set(self._validate(value))
        try:
            yield
        finally:
            self._override.reset(token)


def validate_dtype(dtype) -> np.dtype:
    """Resolve ``dtype``; only float32 and float64 are compute dtypes."""
    resolved = np.dtype(dtype)
    if resolved not in (np.float32, np.float64):
        raise ValueError(
            f"compute dtype must be float32 or float64, got {resolved}"
        )
    return resolved


FUSED = Switch("fused", True, "use_fused", "set_fused")
JIT = Switch("jit", True, "use_jit", "set_jit")
TRAIN_JIT = Switch("train_jit", True, "use_train_jit", "set_train_jit")
GRAD = Switch("grad", True, "no_grad")
DTYPE = Switch("dtype", np.float64, "default_dtype", "set_default_dtype",
               validate=validate_dtype)
SWITCHES = (FUSED, JIT, TRAIN_JIT, GRAD, DTYPE)
