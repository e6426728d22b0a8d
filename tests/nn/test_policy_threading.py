"""Thread-locality of the ``repro.nn.policy`` switches.

The serve scheduler's worker pool and the trainer can run on different
threads of one process; a thread flipping a policy inside an override
(``use_fused``, ``default_dtype``, ``no_grad``, ...) must never be
observed by any other thread, while the setters (``set_fused``,
``set_default_dtype``, ...) remain the shared process defaults.  The
two-thread concurrent-flip tests are the regression for the bug where
``set_fused`` was the only switch and a test flipping to the reference
path could drag a concurrent worker with it.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor, fused, policy


def _run_both(worker_a, worker_b):
    """Run two workers concurrently; re-raise the first failure."""
    errors = []

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException as error:  # pragma: no cover - surfaced below
                errors.append(error)
        return run

    threads = [threading.Thread(target=wrap(worker_a)),
               threading.Thread(target=wrap(worker_b))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestFusedThreadLocal:
    def test_concurrent_flips_do_not_leak(self):
        barrier = threading.Barrier(2)
        iterations = 200

        def flip_off():
            barrier.wait()
            for _ in range(iterations):
                with fused.use_fused(False):
                    assert fused.fused_enabled() is False

        def flip_on():
            barrier.wait()
            for _ in range(iterations):
                with fused.use_fused(True):
                    assert fused.fused_enabled() is True

        _run_both(flip_off, flip_on)
        assert fused.fused_enabled() is True  # process default untouched

    def test_override_invisible_to_other_thread(self):
        entered = threading.Event()
        release = threading.Event()
        seen = {}

        def overrider():
            with fused.use_fused(False):
                entered.set()
                release.wait(timeout=5)

        def observer():
            entered.wait(timeout=5)
            seen["enabled"] = fused.fused_enabled()
            release.set()

        _run_both(overrider, observer)
        assert seen["enabled"] is True

    def test_set_fused_is_the_shared_default(self):
        seen = {}
        try:
            fused.set_fused(False)
            thread = threading.Thread(
                target=lambda: seen.update(enabled=fused.fused_enabled())
            )
            thread.start()
            thread.join()
        finally:
            fused.set_fused(True)
        assert seen["enabled"] is False

    def test_thread_local_wins_over_process_default(self):
        try:
            fused.set_fused(False)
            with fused.use_fused(True):
                assert fused.fused_enabled() is True
            assert fused.fused_enabled() is False
        finally:
            fused.set_fused(True)

    def test_nested_overrides_restore(self):
        with fused.use_fused(False):
            with fused.use_fused(True):
                assert fused.fused_enabled() is True
            assert fused.fused_enabled() is False
        assert fused.fused_enabled() is True


#: The non-default value each switch is flipped to.
_OTHER = {policy.DTYPE: np.dtype(np.float32)}


@pytest.fixture(params=policy.SWITCHES, ids=lambda switch: switch.use_name)
def case(request):
    """``(switch, default, other)``; the process default is restored after."""
    switch = request.param
    default = switch.get()
    yield switch, default, _OTHER.get(switch, False)
    switch.set(default)


class TestEverySwitchThreadLocal:
    """The ``TestFusedThreadLocal`` cases, for every switch."""

    def test_concurrent_flips_do_not_leak(self, case):
        switch, default, other = case
        barrier = threading.Barrier(2)

        def flipper(value):
            def run():
                barrier.wait()
                for _ in range(200):
                    with switch.use(value):
                        assert switch.get() == value
            return run

        _run_both(flipper(other), flipper(default))
        assert switch.get() == default

    def test_override_invisible_to_other_thread(self, case):
        switch, default, other = case
        entered = threading.Event()
        release = threading.Event()
        seen = {}

        def overrider():
            with switch.use(other):
                entered.set()
                release.wait(timeout=5)

        def observer():
            entered.wait(timeout=5)
            seen["value"] = switch.get()
            release.set()

        _run_both(overrider, observer)
        assert seen["value"] == default

    def test_set_is_the_shared_default(self, case):
        switch, default, other = case
        switch.set(other)
        seen = {}
        # New threads and pool workers start without the submitter's
        # override, so they see the process default.
        with switch.use(default), ThreadPoolExecutor(max_workers=1) as pool:
            assert pool.submit(switch.get).result(timeout=5) == other
            thread = threading.Thread(target=lambda: seen.update(value=switch.get()))
            thread.start()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert seen["value"] == other

    def test_thread_local_wins_over_process_default(self, case):
        switch, default, other = case
        switch.set(other)
        with switch.use(default):
            assert switch.get() == default
        assert switch.get() == other

    def test_nested_overrides_restore(self, case):
        switch, default, other = case
        with switch.use(other):
            with switch.use(default):
                assert switch.get() == default
            assert switch.get() == other
        assert switch.get() == default

    def test_public_names_bind_the_switch(self, case):
        switch, _default, _other = case
        if switch is policy.GRAD:
            with nn.no_grad():
                assert nn.is_grad_enabled() is False
            assert nn.is_grad_enabled() is True
        else:
            module = fused if switch is policy.FUSED else nn
            assert getattr(module, switch.use_name) == switch.use
            assert getattr(module, switch.set_name) == switch.set


class TestDtypeThreadLocal:
    def test_concurrent_flips_do_not_leak(self):
        barrier = threading.Barrier(2)
        iterations = 200

        def float32_worker():
            barrier.wait()
            for _ in range(iterations):
                with nn.default_dtype(np.float32):
                    assert Tensor([1.0]).data.dtype == np.float32

        def float64_worker():
            barrier.wait()
            for _ in range(iterations):
                with nn.default_dtype(np.float64):
                    assert Tensor([1.0]).data.dtype == np.float64

        _run_both(float32_worker, float64_worker)
        assert Tensor([1.0]).data.dtype == np.float64

    def test_override_invisible_to_other_thread(self):
        entered = threading.Event()
        release = threading.Event()
        seen = {}

        def overrider():
            with nn.default_dtype(np.float32):
                entered.set()
                release.wait(timeout=5)

        def observer():
            entered.wait(timeout=5)
            seen["dtype"] = Tensor([1.0]).data.dtype
            release.set()

        _run_both(overrider, observer)
        assert seen["dtype"] == np.float64


class TestMixedPolicyWorkers:
    def test_fused_and_dtype_flip_together(self):
        """A float32/reference-path thread next to a float64/fused thread —
        the serve-scheduler scenario that motivated thread-locality."""
        barrier = threading.Barrier(2)

        def reference_float32():
            barrier.wait()
            for _ in range(50):
                with fused.use_fused(False), nn.default_dtype(np.float32):
                    x = Tensor(np.ones((2, 3)), requires_grad=True)
                    y = x.softmax(axis=-1)
                    assert y.data.dtype == np.float32
                    assert fused.fused_enabled() is False

        def fused_float64():
            barrier.wait()
            for _ in range(50):
                with fused.use_fused(True), nn.default_dtype(np.float64):
                    x = Tensor(np.ones((2, 3)), requires_grad=True)
                    y = x.softmax(axis=-1)
                    assert y.data.dtype == np.float64
                    assert fused.fused_enabled() is True

        _run_both(reference_float32, fused_float64)
