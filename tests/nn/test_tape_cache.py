"""One compiled tape per architecture: sharing, binding, separation, lifetime.

Every model built with the same ``(type, n_features, config)`` shares one
:class:`repro.nn.jit.TapeCache`; parameters (and Adam's moments) are
replay arguments, so a second model, a reload or a second fit replays the
tapes the first one traced — over its own weights, bitwise equal to the
interpreter.  Each test uses its own config seed, so no other test's live
model shares its cache.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core import TFMAE, TFMAEConfig
from repro.core.model import _UNSUPPORTED, TFMAEModel
from repro.core.trainer import TFMAETrainer
from repro.nn import Tensor, default_dtype, fused, jit, no_grad
from repro.nn.jit_train import use_train_jit
from repro.nn.serialization import load_model, save_model


def _series(length: int = 360, features: int = 2, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    base = np.sin(2 * np.pi * t / 23.0)[:, None]
    return np.repeat(base, features, axis=1) + 0.05 * rng.normal(size=(length, features))


def _config(seed: int, **overrides) -> TFMAEConfig:
    base = dict(window_size=30, d_model=8, num_layers=1, num_heads=2,
                temporal_mask_ratio=30.0, frequency_mask_ratio=30.0,
                anomaly_ratio=5.0, batch_size=4, epochs=1, learning_rate=1e-3,
                seed=seed, preflight=False)
    base.update(overrides)
    return TFMAEConfig(**base)


def _windows(batch: int, seed: int, features: int = 2) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([_series(30, features, seed=int(rng.integers(1 << 30)))
                     for _ in range(batch)])


def _perturbed(model: TFMAEModel, scale: float) -> TFMAEModel:
    """``model`` with every weight scaled: same architecture, other weights."""
    model.load_state_dict({name: value * scale for name, value in model.state_dict().items()})
    return model


def _interpreted(model: TFMAEModel, windows: np.ndarray) -> np.ndarray:
    with jit.use_jit(False):
        return model.score_windows(windows)


def _fit(config: TFMAEConfig, series: np.ndarray, compiled: bool = True):
    model = TFMAEModel(2, config)
    trainer = TFMAETrainer(model, config)
    with use_train_jit(compiled):
        log = trainer.fit(series)
    return model, trainer, log


def _assert_same_state(a: TFMAEModel, b: TFMAEModel) -> None:
    state_a, state_b = a.state_dict(), b.state_dict()
    assert set(state_a) == set(state_b)
    for name in state_a:
        assert np.array_equal(state_a[name], state_b[name]), name


class TestCrossModelScoring:
    def test_second_model_replays_bitwise_without_tracing(self):
        config = _config(seed=101)
        first = TFMAEModel(2, config)
        second = _perturbed(TFMAEModel(2, config), 1.25)
        assert first._tape_cache is second._tape_cache
        windows = _windows(3, seed=1)
        first.score_windows(windows)
        assert first.jit_traces == 1
        for batch in (3, 1, 6):
            windows = _windows(batch, seed=batch)
            assert np.array_equal(second.score_windows(windows),
                                  _interpreted(second, windows))
        assert second.jit_traces == 0
        assert second.jit_replays == 3
        # The tape holds no weights: the first model still scores its own.
        assert np.array_equal(first.score_windows(windows), _interpreted(first, windows))
        assert not np.array_equal(first.score_windows(windows),
                                  second.score_windows(windows))


class TestReloads:
    def test_load_state_dict_replays_new_weights(self):
        model = TFMAEModel(2, _config(seed=102))
        windows = _windows(4, seed=2)
        model.score_windows(windows)
        before = model.score_windows(windows)  # a replay over the old arrays
        _perturbed(model, 0.5)
        after = model.score_windows(windows)
        assert model.jit_traces == 1
        assert np.array_equal(after, _interpreted(model, windows))
        assert not np.array_equal(before, after)

    def test_load_model_replays_new_weights(self, tmp_path):
        config = _config(seed=103)
        model = TFMAEModel(2, config)
        windows = _windows(4, seed=3)
        saved = model.score_windows(windows)
        save_model(model, tmp_path / "ckpt.npz")
        _perturbed(model, 2.0)
        assert not np.array_equal(model.score_windows(windows), saved)
        load_model(model, tmp_path / "ckpt.npz")
        assert np.array_equal(model.score_windows(windows), saved)
        other = load_model(_perturbed(TFMAEModel(2, config), 3.0), tmp_path / "ckpt.npz")
        assert np.array_equal(other.score_windows(windows), saved)
        assert model.jit_traces == 1 and other.jit_traces == 0

    def test_publish_load_fresh_and_refit_replay_bitwise(self, tmp_path):
        from repro.serve import ModelRegistry

        series = _series(300, seed=4)
        detector = TFMAE(_config(seed=104)).fit(series[:240], series[240:])
        registry = ModelRegistry(tmp_path)
        version = registry.publish("m", detector)
        fresh, _ = registry.load_fresh("m", version)
        assert fresh.model._tape_cache is detector.model._tape_cache
        windows = _windows(5, seed=4)
        expected = detector.model.score_windows(windows)
        assert np.array_equal(fresh.model.score_windows(windows), expected)
        assert fresh.model.jit_traces == 0

        fresh.refit(series[:180], epochs=1)
        refitted = fresh.model.score_windows(windows)
        assert fresh.model.jit_traces == 0
        assert np.array_equal(refitted, _interpreted(fresh.model, windows))
        assert not np.array_equal(refitted, expected)
        # The original keeps scoring its own weights through the same tape.
        assert np.array_equal(detector.model.score_windows(windows), expected)


class TestSecondFit:
    def test_second_fit_replays_and_matches_interpreted(self):
        config = _config(seed=105, epochs=2)
        series = _series()
        first, first_trainer, _ = _fit(config, series)
        assert first_trainer.train_step.traces >= 1
        second, second_trainer, second_log = _fit(config, series)
        step = second_trainer.train_step
        assert step.traces == 0 and step.fallbacks == 0
        assert step.replays == len(second_log.losses)
        reference, _, reference_log = _fit(config, series, compiled=False)
        assert np.array_equal(second_log.losses, reference_log.losses)
        _assert_same_state(second, reference)

        # Refit: the first model's refit traces what the fit did not see
        # (this slice ends in a batch of one), the second replays it all.
        refit_config = config.with_overrides(epochs=1)
        recent = _series(9 * config.window_size, seed=5)
        TFMAETrainer(first, refit_config).fit(recent)
        refit = TFMAETrainer(second, refit_config)
        refit_log = refit.fit(recent)
        assert refit.train_step.traces == 0 and refit.train_step.replays > 0
        reference_refit = TFMAETrainer(reference, refit_config)
        with use_train_jit(False):
            reference_refit_log = reference_refit.fit(recent)
        assert np.array_equal(refit_log.losses, reference_refit_log.losses)
        _assert_same_state(second, reference)

    def test_train_frames_die_with_the_trainer(self):
        config = _config(seed=106)
        series = _series()
        first, *_ = _fit(config, series)  # traces; its tapes stay with the architecture
        model, trainer, _ = _fit(config, series)
        assert trainer.train_step.traces == 0
        frames = [frame for _, frame in trainer.train_step._frames.values()]
        held = sum(buffer.nbytes for frame in frames for buffer in frame)
        assert held > 0
        before = jit.cache_stats()["train"]["frame_bytes"]
        del trainer, frames
        gc.collect()
        assert before - jit.cache_stats()["train"]["frame_bytes"] == held
        assert model._tape_cache.view("train")  # the tapes themselves stay

    def test_evicted_tapes_take_their_frames(self):
        # 9 windows at batch_size=4 -> batches of 4, 4 and 1: two shape
        # keys against a one-entry cache, so each fit evicts a replayed key.
        config = _config(seed=115, jit_cache_size=1, epochs=2)
        series = _series(length=9 * config.window_size)
        _, trainer, _ = _fit(config, series)
        step = trainer.train_step
        assert step.evictions >= 1 and step.replays >= 1  # replays made frames
        cached = dict(step._tapes.items())
        for key, (tape, _) in step._frames.items():
            assert cached.get(key) is tape


class TestCacheSeparation:
    def test_config_and_features_get_their_own_cache(self):
        config = _config(seed=107)
        model = TFMAEModel(2, config)
        assert TFMAEModel(2, _config(seed=107))._tape_cache is model._tape_cache
        assert TFMAEModel(3, config)._tape_cache is not model._tape_cache
        other = TFMAEModel(2, config.with_overrides(anomaly_ratio=1.0))
        assert other._tape_cache is not model._tape_cache

    def test_parameter_dtype_gets_its_own_tape(self):
        config = _config(seed=108)
        wide = TFMAEModel(2, config)
        narrow = TFMAEModel(2, config).to_dtype(np.float32)
        windows = _windows(3, seed=8)
        # Primitive ops only: fused kernels do not trace mixed dtypes.
        with fused.use_fused(False):
            wide.score_windows(windows)
            narrow.score_windows(windows)
            assert narrow.jit_traces == 1
            assert len(wide._tapes) == 2
            for model in (wide, narrow):
                assert np.array_equal(model.score_windows(windows),
                                      _interpreted(model, windows))

    def test_requires_grad_gets_its_own_train_tape(self):
        config = _config(seed=109)
        series = _series()
        trainable, *_ = _fit(config, series)
        frozen = TFMAEModel(2, config)
        frozen.temporal.projection.weight.requires_grad = False
        trainer = TFMAETrainer(frozen, config)
        log = trainer.fit(series)
        assert trainer.train_step.traces >= 1
        assert trainer.train_step.replays >= 1
        reference = TFMAEModel(2, config)
        reference.temporal.projection.weight.requires_grad = False
        with use_train_jit(False):
            reference_log = TFMAETrainer(reference, config).fit(series)
        assert np.array_equal(log.losses, reference_log.losses)
        _assert_same_state(frozen, reference)

    def test_negative_cache_is_shared(self, monkeypatch):
        config = _config(seed=110)
        first, second = TFMAEModel(2, config), _perturbed(TFMAEModel(2, config), 0.75)
        windows = _windows(2, seed=10)
        monkeypatch.delitem(jit._COMPILERS, "matmul")
        first.score_windows(windows)
        assert list(second._tapes.values()) == [_UNSUPPORTED]
        assert np.array_equal(second.score_windows(windows), _interpreted(second, windows))
        assert second.jit_traces == 0


class TestThreads:
    def test_three_threads_two_models_bitwise(self):
        config = _config(seed=111)
        models = [TFMAEModel(2, config), _perturbed(TFMAEModel(2, config), 1.5)]
        batches = ((1, 5, 2), (7, 3, 1), (4, 2, 6))
        windows = {b: _windows(b, seed=b) for sizes in batches for b in sizes}
        expected = {(m, b): _interpreted(model, w)
                    for m, model in enumerate(models) for b, w in windows.items()}
        models[0].score_windows(windows[5])  # trace
        barrier = threading.Barrier(len(batches))
        mismatches, errors = [], []

        def worker(index, sizes):
            try:
                barrier.wait(timeout=10)
                for round_ in range(6):
                    for batch in sizes:
                        m = (index + round_ + batch) % 2
                        if not np.array_equal(models[m].score_windows(windows[batch]),
                                              expected[(m, batch)]):
                            mismatches.append((m, batch))
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i, sizes))
                   for i, sizes in enumerate(batches)]
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
        assert models[0].jit_traces + models[1].jit_traces == 1


class TestLifetime:
    def test_cache_freed_with_its_last_model(self):
        config = _config(seed=112)
        first, second = TFMAEModel(2, config), TFMAEModel(2, config)
        cache = weakref.ref(first._tape_cache)
        first.score_windows(_windows(2, seed=12))
        before = jit.cache_stats()
        del first
        gc.collect()
        assert cache() is second._tape_cache
        del second
        gc.collect()
        assert cache() is None
        assert (TFMAEModel, 2, config) not in jit._CACHES
        after = jit.cache_stats()
        # Counters of a freed cache stay in the process totals.
        assert after["score"]["traces"] >= before["score"]["traces"]
        assert after["caches"] == before["caches"] - 1


class TestMixedDtype:
    def test_wide_parameters_under_narrow_compute_score_interpreted(self):
        model = TFMAEModel(2, _config(seed=113, compute_dtype="float32"))
        model.to_dtype(np.float64)
        windows = _windows(3, seed=13)
        expected = _interpreted(model, windows)
        first, second = model.score_windows(windows), model.score_windows(windows)
        assert list(model._tapes.values()) == [_UNSUPPORTED]
        assert np.array_equal(first, expected)
        assert np.array_equal(second, expected)

    def test_tracer_rejects_fused_kernel_over_wider_parameter(self):
        rng = np.random.default_rng(0)
        slots = {"x": rng.normal(size=(4, 8)).astype(np.float32)}
        weight, bias = (Tensor(rng.normal(size=8)) for _ in range(2))
        with no_grad(), default_dtype(np.float32):
            out, tape = jit.trace(
                lambda: fused.layer_norm(Tensor(slots["x"]), weight, bias),
                slots, [weight, bias], ["x"])
        assert tape is None
        assert out.data.dtype == np.float32


_SOURCE_SCRIPT = """
import numpy as np
from repro.nn import Tensor, default_dtype, fused, jit, no_grad
rng = np.random.default_rng(0)
slots = {"x": rng.normal(size=(4, 5, 8))}
w, g, b = Tensor(rng.normal(size=(8, 8))), Tensor(rng.normal(size=8)), Tensor(rng.normal(size=8))
with no_grad():
    _, tape = jit.trace(
        lambda: fused.softmax(fused.layer_norm(fused.gelu(Tensor(slots["x"]) @ w), g, b).exp(),
                              axis=-1),
        slots, [w, g, b], ["x"])
print(tape.source)
"""


class TestDeterministicSource:
    def test_same_graph_compiles_to_the_same_source(self):
        """Across hash seeds too: the hoisted ``np`` arguments are sorted."""
        sources = []
        for seed in ("0", "1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, [
                       os.path.join(os.path.dirname(__file__), "..", "..", "src"),
                       os.environ.get("PYTHONPATH")]))}
            result = subprocess.run([sys.executable, "-c", _SOURCE_SCRIPT], env=env,
                                    capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            sources.append(result.stdout)
        assert sources[0].startswith("def _replay(slots, frame, b, P, np_")
        assert sources[0] == sources[1] == sources[2]

    def test_retrace_gives_identical_source(self):
        model = TFMAEModel(2, _config(seed=114))
        windows = _windows(2, seed=14)
        model.score_windows(windows)
        (first,) = model._tapes.values()
        model._tapes.clear()
        model.score_windows(windows)
        (second,) = model._tapes.values()
        assert second is not first
        assert second.source == first.source


@pytest.mark.parametrize("kind", ["score", "train"])
def test_cache_stats_shape(kind):
    stats = jit.cache_stats()
    assert set(stats[kind]) == {"traces", "replays", "evictions", "fallbacks",
                                "resident", "frame_bytes"}
