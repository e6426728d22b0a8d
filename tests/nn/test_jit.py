"""Tape-replay JIT: bitwise equivalence, guards, cache keys, fallback.

The contract of :mod:`repro.nn.jit` is strict: replay output must be
*bitwise* identical to the interpreted graph — every kernel emitter
mirrors the exact numpy call sequence of its op, so these tests use
``np.array_equal``, never ``allclose``.  Coverage spans the same five
model variants ``repro analyze --all`` checks (default, float32,
temporal-only, frequency-only, non-adversarial) at both compute dtypes
and both fused-policy states.  One tape serves every batch size, so the
equivalence is checked at batch sizes other than the traced one too.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core import TFMAE, TFMAEConfig
from repro.core.model import _UNSUPPORTED, TFMAEModel
from repro.nn import Tensor, fused, jit, no_grad
from repro.nn.jit_train import TrainStep
from repro.nn.optim import Adam


def _sine_series(rng, length, features=1):
    t = np.arange(length, dtype=np.float64)
    base = np.sin(2 * np.pi * t / 23.0)[:, None]
    return np.repeat(base, features, axis=1) + 0.05 * rng.normal(
        size=(length, features)
    )


#: Structural variants of the scoring graph; together with the dtype
#: axis these cover all five `analyze --all` model variants (the cli's
#: "float32" variant is the default structure at compute_dtype=float32).
VARIANTS = {
    "default": {},
    "temporal-only": {"use_frequency_branch": False},
    "frequency-only": {"use_temporal_branch": False},
    "non-adversarial": {"adversarial": False},
}
DTYPES = ("float64", "float32")

_FITTED: dict = {}


def _fitted(variant: str, dtype: str) -> TFMAE:
    """Fit-once cache across the module (8 tiny models total)."""
    key = (variant, dtype)
    detector = _FITTED.get(key)
    if detector is None:
        config = TFMAEConfig(
            window_size=30,
            d_model=8,
            num_layers=1,
            num_heads=2,
            temporal_mask_ratio=30.0,
            frequency_mask_ratio=30.0,
            anomaly_ratio=5.0,
            batch_size=8,
            epochs=1,
            learning_rate=1e-3,
            seed=0,
            compute_dtype=dtype,
            **VARIANTS[variant],
        )
        detector = TFMAE(config)
        detector.fit(_sine_series(np.random.default_rng(0), 150))
        _FITTED[key] = detector
    return detector


def _windows(detector: TFMAE, batch: int = 3, size: int | None = None,
             seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    size = size or detector.config.window_size
    return np.stack([_sine_series(rng, size) for _ in range(batch)])


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("use_fused", [True, False])
    def test_replay_matches_interpreted(self, variant, dtype, use_fused):
        detector = _fitted(variant, dtype)
        windows = _windows(detector)
        with fused.use_fused(use_fused):
            with jit.use_jit(False):
                interpreted = detector.model.score_windows(windows)
            with jit.use_jit(True):
                traced = detector.model.score_windows(windows)  # trace call
                replay_1 = detector.model.score_windows(windows)
                replay_2 = detector.model.score_windows(windows)
        assert np.array_equal(interpreted, traced)
        assert np.array_equal(interpreted, replay_1)
        assert np.array_equal(interpreted, replay_2)
        assert interpreted.dtype == np.float64  # score contract

    def test_score_and_score_last_ride_the_tape(self):
        detector = _fitted("default", "float64")
        rng = np.random.default_rng(11)
        series = _sine_series(rng, 90)
        windows = _windows(detector, batch=2)
        with jit.use_jit(False):
            series_interp = detector.score(series)
            last_interp = detector.score_last(windows)
        with jit.use_jit(True):
            assert np.array_equal(series_interp, detector.score(series))
            assert np.array_equal(last_interp, detector.score_last(windows))

    def test_replay_output_is_owned(self):
        """Scores must not alias the tape's reusable frame buffers."""
        detector = _fitted("default", "float64")
        windows = _windows(detector)
        with jit.use_jit(True):
            detector.model.score_windows(windows)
            first = detector.model.score_windows(windows)
            snapshot = first.copy()
            detector.model.score_windows(windows * 2.0)
        assert np.array_equal(first, snapshot)


#: Graphs that are not batch-polymorphic, with their numpy reference.
#: Each takes the windows tensor and the slots; ``t_pe`` is unbatched and
#: ``t_unmasked`` a batched index array.
_NOT_POLYMORPHIC = {
    "sum over axis 0": (lambda x, s: x.sum(axis=0), lambda a, s: a.sum(axis=0)),
    "reshape merging the batch": (lambda x, s: x.reshape(-1, 2),
                                  lambda a, s: a.reshape(-1, 2)),
    "transpose moving the batch": (lambda x, s: x.transpose(1, 0, 2),
                                   lambda a, s: a.transpose(1, 0, 2)),
    "constant index on axis 0": (lambda x, s: x[0] * 2.0, lambda a, s: a[0] * 2.0),
    "concat over axis 0": (lambda x, s: Tensor.concat([x, x], axis=0),
                           lambda a, s: np.concatenate([a, a], axis=0)),
    # pe[:, idx] puts the batch on axis 1 of an unbatched source.
    "batched index behind a slice": (
        lambda x, s: x + Tensor(s["t_pe"])[:, s["t_unmasked"]].transpose(1, 0, 2),
        lambda a, s: a + s["t_pe"][:, s["t_unmasked"]].transpose(1, 0, 2)),
}


class TestBatchPolymorphism:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("use_fused", [True, False])
    def test_one_tape_replays_every_batch(self, variant, dtype, use_fused):
        """Trace at batch 5, replay at 1, 5, 8 (frame growth), 3 (after
        growth) and then every size 1-32: each replay equals the
        interpreter at its own batch."""
        detector = _fitted(variant, dtype)
        model = detector.model
        model._tapes.clear()
        with fused.use_fused(use_fused):
            with jit.use_jit(True):
                model.score_windows(_windows(detector, batch=5))  # trace
            (tape,) = model._tapes.values()
            sweep = [(batch, max(batch, 8)) for batch in range(1, 33)]
            for batch, planned in [(1, 1), (5, 5), (8, 8), (3, 8), *sweep]:
                windows = _windows(detector, batch=batch, seed=batch)
                with jit.use_jit(False):
                    interpreted = model.score_windows(windows)
                with jit.use_jit(True):
                    replayed = model.score_windows(windows)
                assert np.array_equal(interpreted, replayed), batch
                assert tape.frame_batch == planned
        assert list(model._tapes.values()) == [tape]

    def test_batch_sizes_share_one_trace(self):
        detector = _fitted("default", "float64")
        model = detector.model
        with jit.use_jit(True):
            model.score_windows(_windows(detector, batch=4))  # warm
            traces, replays = model.jit_traces, model.jit_replays
            for batch in range(1, 33):
                model.score_windows(_windows(detector, batch=batch))
        assert model.jit_traces - traces == 0
        assert model.jit_replays - replays == 32

    def test_empty_batch_neither_traces_nor_poisons_the_key(self):
        detector = _fitted("default", "float64")
        model = detector.model
        model._tapes.clear()
        empty = np.zeros((0, detector.config.window_size, 1))
        with jit.use_jit(True):
            assert model.score_windows(empty).shape == (0, detector.config.window_size)
            assert not model._tapes
            model.score_windows(_windows(detector, batch=2))
            assert model.score_windows(empty).shape == (0, detector.config.window_size)
        assert _UNSUPPORTED not in model._tapes.values()

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("graph", sorted(_NOT_POLYMORPHIC))
    def test_trace_rejects_non_polymorphic_graphs(self, graph, batch):
        """Graphs whose rows depend on other rows, or whose batch leaves
        axis 0, get no tape at any traced batch size; the traced call
        still returns its interpreted result."""
        fn, expected = _NOT_POLYMORPHIC[graph]
        rng = np.random.default_rng(batch)
        slots = {"windows": np.arange(batch * 8.0).reshape(batch, 4, 2),
                 "t_pe": rng.standard_normal((4, 5)),
                 "t_unmasked": rng.integers(0, 5, size=(batch, 2))}
        with no_grad():
            out, tape = jit.trace(lambda: fn(Tensor(slots["windows"]), slots), slots,
                                  (), ("windows", "t_unmasked"))
        assert tape is None
        assert np.array_equal(out.data, expected(slots["windows"], slots))


class TestGuards:
    def test_load_state_dict_invalidates_tapes(self):
        """Rebinding every parameter array (what load_model / publish do)
        keeps the cached tape: the next call replays it over the new
        arrays, bitwise the interpreter on the new weights, never the
        old ones."""
        detector = _fitted("default", "float64")
        model = detector.model
        windows = _windows(detector)
        with jit.use_jit(True):
            model.score_windows(windows)
            before = model.score_windows(windows)  # a replay over the old arrays
            assert model._tapes  # tape cached
            traces = model.jit_traces

            state = model.state_dict()
            for name in state:
                state[name] = state[name] * 1.5
            model.load_state_dict(state)

            with jit.use_jit(False):
                interpreted = model.score_windows(windows)
            replayed = model.score_windows(windows)  # replays, not stale
        assert model.jit_traces == traces
        assert np.array_equal(interpreted, replayed)
        assert not np.array_equal(before, replayed)

    def test_checkpoint_roundtrip_stays_bitwise(self, tmp_path):
        from repro.nn.serialization import load_model, save_model

        detector = _fitted("default", "float64")
        model = detector.model
        windows = _windows(detector)
        with jit.use_jit(True):
            before = model.score_windows(windows)
            save_model(model, tmp_path / "ckpt.npz")
            load_model(model, tmp_path / "ckpt.npz")
            after = model.score_windows(windows)  # guards tripped, retraced
        assert np.array_equal(before, after)

    def test_inplace_update_keeps_tape_valid(self):
        """Optimizer-style in-place writes keep array identity: no retrace,
        and replay reads the new values."""
        detector = _fitted("default", "float64")
        model = detector.model
        windows = _windows(detector)
        with jit.use_jit(True):
            model.score_windows(windows)
            traces = model.jit_traces
            param = next(iter(model.parameters()))
            param.data *= 1.01  # repro: noqa[MUT001] - optimizer-style step
            with jit.use_jit(False):
                interpreted = model.score_windows(windows)
            assert np.array_equal(interpreted, model.score_windows(windows))
            assert model.jit_traces == traces


class TestTapeCache:
    def test_keys_specialize_shape_dtype_fused(self):
        detector = _fitted("default", "float64")
        model = detector.model
        model._tapes.clear()
        with jit.use_jit(True):
            model.score_windows(_windows(detector, batch=2))
            assert len(model._tapes) == 1
            model.score_windows(_windows(detector, batch=5))
            assert len(model._tapes) == 1  # batch sizes share one tape
            model.score_windows(_windows(detector, batch=2, size=40))
            assert len(model._tapes) == 2  # window length in the key
            with fused.use_fused(False):
                model.score_windows(_windows(detector, batch=2))
            assert len(model._tapes) == 3  # fused policy in the key
        keys = set(model._tapes)
        assert {key[0] for key in keys} == {30, 40}
        assert {key[1:3] for key in keys} == {(1, np.dtype("float64"))}
        assert {key[3] for key in keys} == {True, False}

    def test_scoring_cache_is_lru(self):
        """Window lengths A B A C at capacity two: the hit on A refreshes
        it, so C evicts B."""
        model = TFMAEModel(1, TFMAEConfig(window_size=30, d_model=8, num_layers=1,
                                          num_heads=2, jit_cache_size=2, seed=0))
        rng = np.random.default_rng(3)
        with jit.use_jit(True):
            for length in (30, 40, 30, 50):
                model.score_windows(_sine_series(rng, length)[None])
        assert [key[0] for key in model._tapes] == [30, 50]
        assert model.jit_evictions == 1

    def test_train_step_cache_is_lru(self):
        config = TFMAEConfig(window_size=30, d_model=8, num_layers=1, num_heads=2,
                             jit_cache_size=2, seed=0)
        model = TFMAEModel(1, config)
        step = TrainStep(model, Adam(model.parameters(), lr=1e-3),
                         cache_size=config.jit_cache_size)
        rng = np.random.default_rng(3)
        for batch in (2, 3, 2, 4):
            windows = np.stack([_sine_series(rng, 30) for _ in range(batch)])
            handle = step.begin(windows)
            handle.backward()
            handle.apply_update()
        assert [key[0][0] for key in step._tapes] == [2, 4]
        assert step.evictions == 1


class TestFallback:
    def test_unsupported_op_falls_back_and_negative_caches(self, monkeypatch):
        detector = _fitted("default", "float64")
        model = detector.model
        model._tapes.clear()
        windows = _windows(detector)
        with jit.use_jit(False):
            interpreted = model.score_windows(windows)

        monkeypatch.delitem(jit._COMPILERS, "matmul")
        with jit.use_jit(True):
            first = model.score_windows(windows)
            assert list(model._tapes.values()) == [_UNSUPPORTED]
            second = model.score_windows(windows)  # negative-cache path
        assert np.array_equal(interpreted, first)
        assert np.array_equal(interpreted, second)

        monkeypatch.undo()
        model._tapes.clear()
        with jit.use_jit(True):
            third = model.score_windows(windows)
            assert all(t is not _UNSUPPORTED for t in model._tapes.values())
        assert np.array_equal(interpreted, third)


class TestJitThreadLocal:
    """Mirror of tests/nn/test_policy_threading.py for the jit switch."""

    def _run_both(self, worker_a, worker_b):
        errors = []

        def wrap(fn):
            def run():
                try:
                    fn()
                except BaseException as error:  # pragma: no cover
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

    def test_concurrent_flips_do_not_leak(self):
        barrier = threading.Barrier(2)
        iterations = 200

        def flip_off():
            barrier.wait()
            for _ in range(iterations):
                with jit.use_jit(False):
                    assert jit.jit_enabled() is False

        def flip_on():
            barrier.wait()
            for _ in range(iterations):
                with jit.use_jit(True):
                    assert jit.jit_enabled() is True

        self._run_both(flip_off, flip_on)
        assert jit.jit_enabled() is True  # process default untouched

    def test_override_invisible_to_other_thread(self):
        entered = threading.Event()
        release = threading.Event()
        seen = {}

        def overrider():
            with jit.use_jit(False):
                entered.set()
                release.wait(timeout=5)

        def observer():
            entered.wait(timeout=5)
            seen["enabled"] = jit.jit_enabled()
            release.set()

        self._run_both(overrider, observer)
        assert seen["enabled"] is True

    def test_set_jit_is_the_shared_default(self):
        seen = {}
        try:
            jit.set_jit(False)
            thread = threading.Thread(
                target=lambda: seen.update(enabled=jit.jit_enabled())
            )
            thread.start()
            thread.join()
        finally:
            jit.set_jit(True)
        assert seen["enabled"] is False

    def test_nested_overrides_restore(self):
        with jit.use_jit(False):
            with jit.use_jit(True):
                assert jit.jit_enabled() is True
            assert jit.jit_enabled() is False
        assert jit.jit_enabled() is True

    def test_concurrent_replay_same_tape(self):
        """Two threads replaying one tape share code but not frames."""
        detector = _fitted("default", "float64")
        model = detector.model
        windows = _windows(detector)
        with jit.use_jit(True):
            expected = model.score_windows(windows)
        results = {}

        def worker(name):
            with jit.use_jit(True):
                for _ in range(20):
                    results[name] = model.score_windows(windows)

        self._run_both(lambda: worker("a"), lambda: worker("b"))
        assert np.array_equal(results["a"], expected)
        assert np.array_equal(results["b"], expected)

    def test_concurrent_replay_at_different_batches(self):
        """One tape, more threads than cores, different batch sizes at
        once: each thread grows its own frame and stays bitwise."""
        detector = _fitted("default", "float64")
        model = detector.model
        model._tapes.clear()
        batches = ((1, 6, 2, 9), (12, 3, 16, 5), (4, 20, 1, 7))
        windows = {b: _windows(detector, batch=b, seed=b)
                   for sizes in batches for b in sizes}
        with jit.use_jit(False):
            expected = {b: model.score_windows(w) for b, w in windows.items()}
        with jit.use_jit(True):
            model.score_windows(windows[6])  # trace
        (tape,) = model._tapes.values()
        barrier = threading.Barrier(len(batches))
        mismatches, errors = [], []

        def worker(sizes):
            try:
                barrier.wait(timeout=10)
                with jit.use_jit(True):
                    for _ in range(10):
                        for batch in sizes:
                            scores = model.score_windows(windows[batch])
                            if not np.array_equal(scores, expected[batch]):
                                mismatches.append(batch)
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(sizes,)) for sizes in batches]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and mismatches == []
        assert list(model._tapes.values()) == [tape]

    def test_threads_evicting_one_entry_cache(self):
        """Two window lengths at jit_cache_size=1: every call misses, traces
        and evicts the other thread's entry while hits refresh theirs."""
        model = TFMAEModel(1, TFMAEConfig(window_size=30, d_model=8, num_layers=1,
                                          num_heads=2, jit_cache_size=1, seed=0))
        rng = np.random.default_rng(5)
        windows = {(length, batch): np.stack([_sine_series(rng, length)
                                              for _ in range(batch)])
                   for length in (30, 40) for batch in (1, 3)}
        with jit.use_jit(False):
            expected = {key: model.score_windows(w) for key, w in windows.items()}
        orders = (((30, 1), (40, 3)), ((40, 1), (30, 3)), ((30, 3), (30, 1), (40, 1)))
        barrier = threading.Barrier(len(orders))
        mismatches, errors = [], []

        def worker(keys):
            try:
                barrier.wait(timeout=10)
                with jit.use_jit(True):
                    for _ in range(8):
                        for key in keys:
                            scores = model.score_windows(windows[key])
                            if not np.array_equal(scores, expected[key]):
                                mismatches.append(key)
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(keys,)) for keys in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and mismatches == []
        assert len(model._tapes) == 1
        assert model.jit_evictions > 0
