"""Trace-compiled training: train-step tape JIT vs the interpreted loop.

Not a paper table: this bench tracks the ``repro.nn.jit_train`` backend
behind ``Trainer.fit`` and ``TFMAE.refit``.  The same model is fitted
twice on the Table III bench configuration (window 100, d_model 32,
2 layers, 4 heads, batch 16) — once with ``train_jit=False`` and once
with the default compiled train step — and three things are reported:

* **per-epoch wall-clock** for both paths and their ratio (the
  acceptance criterion: >= 1.5x on this config);
* **bitwise equivalence**, asserted in-bench: the per-epoch loss curve
  and the final ``state_dict`` must be *identical* arrays, not merely
  close — the compiled step replays the interpreted trajectory exactly;
* **tape-cache behaviour**: traces, replays, fallbacks and LRU
  evictions from the trainer's ``TrainStep`` counters.

A steady-state per-step timing (trace amortised away) is included as
well, since the fit-level ratio folds the one-off trace epoch and the
non-training epoch work (windowing, divergence guard) into the number.

Run directly for the committed artifacts::

    PYTHONPATH=src python benchmarks/bench_train_jit.py
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.config import TFMAEConfig
from repro.core.model import TFMAEModel
from repro.core.trainer import TFMAETrainer
from repro.nn.jit_train import TrainStep
from repro.nn.optim import Adam

from _common import EPOCHS, SEED, save_json, save_result

#: Batches per epoch; 6 non-overlapping window batches keep the
#: interpreted run under ~10 s while giving the compiled path enough
#: steady-state steps to dominate the one-off trace.
BATCHES = int(os.environ.get("REPRO_BENCH_TRAIN_BATCHES", "6"))
STEP_REPEATS = int(os.environ.get("REPRO_BENCH_TRAIN_REPEATS", "10"))


def _config(train_jit: bool) -> TFMAEConfig:
    return TFMAEConfig(
        window_size=100,
        d_model=32,
        num_layers=2,
        num_heads=4,
        batch_size=16,
        epochs=max(2, EPOCHS),
        learning_rate=1e-3,
        seed=SEED,
        train_jit=train_jit,
        preflight=False,
    )


def _series(config: TFMAEConfig) -> np.ndarray:
    rng = np.random.default_rng(SEED)
    length = BATCHES * config.batch_size * config.window_size
    t = np.arange(length)
    base = np.stack(
        [np.sin(2 * np.pi * t / p) for p in (23.0, 47.0, 91.0)], axis=1
    )
    return base + 0.1 * rng.normal(size=base.shape)


def _fit(train_jit: bool):
    config = _config(train_jit)
    model = TFMAEModel(n_features=3, config=config)
    trainer = TFMAETrainer(model, config)
    series = _series(config)
    start = time.perf_counter()
    log = trainer.fit(series)
    elapsed = time.perf_counter() - start
    return model, trainer, log, elapsed


def _steady_step_ms(train_jit: bool) -> float:
    """Best per-step wall-clock with the trace already amortised."""
    config = _config(train_jit)
    model = TFMAEModel(n_features=3, config=config)
    optimizer = Adam(model.parameters(), lr=config.learning_rate,
                     grad_clip=config.grad_clip)
    step = TrainStep(model, optimizer, enabled=train_jit,
                     cache_size=config.jit_cache_size)
    rng = np.random.default_rng(SEED + 1)
    batch = rng.normal(size=(config.batch_size, config.window_size, 3))

    def one_step() -> None:
        handle = step.begin(batch)
        handle.backward()
        handle.apply_update()

    for _ in range(3):
        one_step()
    best = float("inf")
    for _ in range(STEP_REPEATS):
        start = time.perf_counter()
        one_step()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def run_train_jit_bench() -> tuple[str, dict]:
    interp_model, _, interp_log, interp_s = _fit(train_jit=False)
    jit_model, jit_trainer, jit_log, jit_s = _fit(train_jit=True)

    # --- bitwise equivalence: loss curve and final weights ---
    interp_losses = np.asarray(interp_log.losses)
    jit_losses = np.asarray(jit_log.losses)
    if not np.array_equal(interp_losses, jit_losses):
        raise AssertionError(
            f"per-epoch losses diverged: {interp_losses} vs {jit_losses}"
        )
    interp_state = interp_model.state_dict()
    jit_state = jit_model.state_dict()
    mismatched = [
        key for key in interp_state
        if not np.array_equal(interp_state[key], jit_state[key])
    ]
    if mismatched:
        raise AssertionError(f"final state_dict diverged at: {mismatched}")

    epochs = _config(train_jit=False).epochs  # log.losses is per batch
    interp_epoch = interp_s / epochs
    jit_epoch = jit_s / epochs
    speedup = interp_epoch / jit_epoch

    interp_step = _steady_step_ms(train_jit=False)
    jit_step = _steady_step_ms(train_jit=True)

    counters = jit_trainer.train_step
    rows = [
        "trace-compiled training: Trainer.fit wall-clock, train JIT vs interpreted",
        f"(Table III bench config, {BATCHES} batches x {epochs} epochs; "
        "per-batch loss curve and final state_dict asserted bitwise-identical)",
        f"{'path':<14} {'fit_s':>8} {'epoch_s':>8} {'step_ms':>8}",
        f"{'interpreted':<14} {interp_s:>8.2f} {interp_epoch:>8.2f} {interp_step:>8.1f}",
        f"{'train-jit':<14} {jit_s:>8.2f} {jit_epoch:>8.2f} {jit_step:>8.1f}",
        "",
        f"per-epoch speedup: {speedup:.2f}x (target >= 1.5x)   "
        f"steady-state step: {interp_step / jit_step:.2f}x",
        f"tape cache: traces={counters.traces} replays={counters.replays} "
        f"fallbacks={counters.fallbacks} evictions={counters.evictions}",
    ]
    payload = {
        "config": {
            "window_size": 100, "d_model": 32, "num_layers": 2,
            "num_heads": 4, "batch_size": 16, "batches_per_epoch": BATCHES,
            "epochs": epochs,
        },
        "interpreted": {
            "fit_s": round(interp_s, 3),
            "epoch_s": round(interp_epoch, 3),
            "step_ms": round(interp_step, 2),
        },
        "train_jit": {
            "fit_s": round(jit_s, 3),
            "epoch_s": round(jit_epoch, 3),
            "step_ms": round(jit_step, 2),
        },
        "speedup_per_epoch": round(speedup, 3),
        "speedup_steady_step": round(interp_step / jit_step, 3),
        "bitwise_identical": {"loss_curve": True, "state_dict": True},
        "tape_cache": {
            "traces": counters.traces,
            "replays": counters.replays,
            "fallbacks": counters.fallbacks,
            "evictions": counters.evictions,
        },
    }
    return "\n".join(rows), payload


def test_train_jit(benchmark):
    # The timed fits run first: tapes are shared by every live model of a
    # config, so a warm-up model alive during them would let the train-jit
    # fit replay its tape and leave compile cost out of fit_s.
    table, payload = run_train_jit_bench()
    save_result("train_jit", table)
    save_json("train_jit", payload)

    config = _config(train_jit=True)
    model = TFMAEModel(n_features=3, config=config)
    optimizer = Adam(model.parameters(), lr=config.learning_rate,
                     grad_clip=config.grad_clip)
    step = TrainStep(model, optimizer, enabled=True)
    rng = np.random.default_rng(SEED + 1)
    batch = rng.normal(size=(config.batch_size, config.window_size, 3))

    def one_step() -> None:
        handle = step.begin(batch)
        handle.backward()
        handle.apply_update()

    one_step()  # trace outside the timer
    benchmark(one_step)
    assert payload["speedup_per_epoch"] >= 1.5, payload
    assert payload["bitwise_identical"] == {
        "loss_curve": True, "state_dict": True,
    }


def main() -> None:
    table, payload = run_train_jit_bench()
    save_result("train_jit", table)
    save_json("train_jit", payload)


if __name__ == "__main__":
    main()
