"""Trace-compiled scoring: tape-replay JIT vs the interpreted graph.

Not a paper table: this bench tracks the ``repro.nn.jit`` scoring
backend.  A small TFMAE is fitted per configuration, then ``score_last``
wall-clock is measured with the JIT on and off across model sizes,
compute dtypes, and batch sizes.  Replay must stay bitwise-identical to
the interpreted graph (asserted here), so every speedup row is pure
dispatch/allocation overhead removed — the numpy math is the same.

Two baselines are reported:

* **in-tree interpreted** — ``use_jit(False)`` on the current tree.
  Conservative: the current interpreted path is itself faster than the
  PR-3-era one (op-hook dispatch fast path), so ratios against it
  understate the JIT's gain over history.
* **PR-3 interpreted** — when ``REPRO_BENCH_JIT_BASELINE`` points at a
  PR-3-era checkout's ``src`` directory (``git worktree add /tmp/pr3
  <pr3-commit>`` → ``REPRO_BENCH_JIT_BASELINE=/tmp/pr3/src``), the same
  fit runs there in a subprocess that times one ``score_last`` call per
  request, giving the true pre-JIT fused interpreted baseline the
  acceptance criterion names (single-window ``score_last`` >= 2.0x, met
  by the stream configs; see the committed ``BENCH_jit_scoring.json``).

All arms of a row are timed interleaved, one call each per round with
the order rotating, and each reports its best round: a slow stretch on
a shared host then hits every arm alike instead of one arm's block.

A **mixed-batch** row then scores the serve-w100-d32 model over seeded
permutations of batch sizes 1-32 — the micro-batch mix the serving
scheduler and ``score_last`` chunking produce — with the JIT and
interpreted arms interleaved call by call (alternating which goes first),
every pair asserted bitwise equal.  It counts from a cold tape cache, so
the JIT arm pays its one trace, and reports how many tapes the mix
compiled: one, since a tape replays at any batch size.

Run directly for the committed artifacts::

    PYTHONPATH=src REPRO_BENCH_JIT_BASELINE=/tmp/pr3/src \
        python benchmarks/bench_jit_scoring.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro import TFMAE, TFMAEConfig
from repro.nn import jit

from _common import SEED, save_json, save_result

#: (name -> TFMAEConfig overrides).  The stream configs model the online
#: scoring loop (short windows, small model, one window per call); the
#: serve configs match bench_serving_throughput's model.
CONFIGS = {
    "stream-w50-d16": dict(window_size=50, d_model=16, num_layers=1, num_heads=2),
    "stream-w50-d16-f32": dict(
        window_size=50, d_model=16, num_layers=1, num_heads=2,
        compute_dtype="float32",
    ),
    "serve-w100-d32": dict(window_size=100, d_model=32, num_layers=2, num_heads=4),
    "serve-w100-d32-f32": dict(
        window_size=100, d_model=32, num_layers=2, num_heads=4,
        compute_dtype="float32",
    ),
}
BATCH_SIZES = (1, 32)
REPEATS = int(os.environ.get("REPRO_BENCH_JIT_REPEATS", "60"))
#: The mixed-batch row: its config, largest batch, and how many seeded
#: permutations of 1..MIXED_MAX_BATCH it scores.
MIXED_CONFIG = "serve-w100-d32"
MIXED_MAX_BATCH = 32
MIXED_ROUNDS = 3


def _series(length: int, rng: np.random.Generator) -> np.ndarray:
    t = np.arange(length)
    base = np.sin(2 * np.pi * t / 25.0)
    return (base + 0.1 * rng.normal(size=length))[:, None]


def _fit_detector(overrides: dict) -> TFMAE:
    rng = np.random.default_rng(SEED)
    config = TFMAEConfig(
        batch_size=16, epochs=1, learning_rate=1e-3, seed=SEED, **overrides
    )
    detector = TFMAE(config)
    detector.fit(_series(1200, rng), _series(400, rng))
    return detector


def _windows(overrides: dict, batch: int) -> np.ndarray:
    rng = np.random.default_rng(SEED + 1)
    return np.stack(
        [_series(overrides["window_size"], rng)[:, 0] for _ in range(batch)]
    )[:, :, None]


def _timed(fn, use_jit: bool):
    """An arm for :func:`_best_interleaved`: one timed ``fn()`` call."""
    def arm() -> float:
        with jit.use_jit(use_jit):
            start = time.perf_counter()
            fn()
            return time.perf_counter() - start
    return arm


def _best_interleaved(arms: dict, repeats: int = REPEATS, warmup: int = 8) -> dict:
    """Best seconds per arm; each round calls every arm once, rotating
    which goes first."""
    names = list(arms)
    for _ in range(warmup):
        for name in names:
            arms[name]()
    best = dict.fromkeys(names, float("inf"))
    for round_ in range(repeats):
        shift = round_ % len(names)
        for name in names[shift:] + names[:shift]:
            best[name] = min(best[name], arms[name]())
    return best


#: Runs inside the baseline checkout (no repro.nn.jit there): fit the
#: same detector, then per stdin line (a batch size) time one interpreted
#: score_last call and print its ms.
_BASELINE_SCRIPT = """
import json, sys, time
import numpy as np
from repro import TFMAE, TFMAEConfig

spec = json.loads(sys.argv[1])
rng = np.random.default_rng(spec["seed"])

def series(length, rng):
    t = np.arange(length)
    return (np.sin(2 * np.pi * t / 25.0) + 0.1 * rng.normal(size=length))[:, None]

config = TFMAEConfig(batch_size=16, epochs=1, learning_rate=1e-3,
                     seed=spec["seed"], **spec["overrides"])
detector = TFMAE(config)
detector.fit(series(1200, rng), series(400, rng))
windows = {}
for line in sys.stdin:
    batch = int(line)
    if batch not in windows:
        wrng = np.random.default_rng(spec["seed"] + 1)
        windows[batch] = np.stack([series(spec["overrides"]["window_size"], wrng)[:, 0]
                                   for _ in range(batch)])[:, :, None]
    start = time.perf_counter()
    detector.score_last(windows[batch])
    print(json.dumps((time.perf_counter() - start) * 1e3), flush=True)
"""


class _Baseline:
    """The pre-JIT interpreted detector in a subprocess, timed call by call."""

    def __init__(self, path: str, overrides: dict):
        spec = {"seed": SEED, "overrides": overrides}
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _BASELINE_SCRIPT, json.dumps(spec)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )

    def arm(self, batch: int):
        """An arm for :func:`_best_interleaved` scoring ``batch`` windows."""
        def call() -> float:
            self.proc.stdin.write(f"{batch}\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("baseline subprocess exited early")
            return json.loads(line) / 1e3
        return call

    def close(self) -> None:
        self.proc.stdin.close()
        if self.proc.wait(timeout=60):
            raise RuntimeError(f"baseline subprocess failed ({self.proc.returncode})")


def _mixed_batch(detector: TFMAE, overrides: dict) -> dict:
    """JIT vs interpreted ``score_last`` over seeded mixed batch sizes.

    Arms run interleaved call by call, alternating which goes first, so
    neither gets the warm cache; the tape cache starts cold.
    """
    rng = np.random.default_rng(SEED)
    pool = _windows(overrides, MIXED_MAX_BATCH)
    sizes = np.concatenate([rng.permutation(MIXED_MAX_BATCH) + 1
                            for _ in range(MIXED_ROUNDS)])
    model = detector.model
    model._tapes.clear()
    traces = model.jit_traces
    times: dict[bool, list[float]] = {True: [], False: []}
    for call, size in enumerate(sizes):
        batch = pool[rng.integers(0, MIXED_MAX_BATCH, size=size)]
        scores = {}
        for arm in ((True, False) if call % 2 == 0 else (False, True)):
            with jit.use_jit(arm):
                start = time.perf_counter()
                scores[arm] = detector.score_last(batch)
                times[arm].append(time.perf_counter() - start)
        if not np.array_equal(scores[True], scores[False]):
            raise AssertionError(f"jit replay diverged from interpreted at B={size}")

    def summary(samples: list[float]) -> dict:
        ms = np.array(samples) * 1e3
        return {"total_ms": round(float(ms.sum()), 3),
                "p50_ms": round(float(np.percentile(ms, 50)), 4),
                "p99_ms": round(float(np.percentile(ms, 99)), 4)}

    return {
        "calls": len(sizes),
        "windows": int(sizes.sum()),
        "jit": summary(times[True]),
        "interpreted": summary(times[False]),
        "speedup_vs_interpreted": round(sum(times[False]) / sum(times[True]), 3),
        "tapes": len(model._tapes),
        "traces": model.jit_traces - traces,
        "bitwise": True,
    }


def run_jit_bench() -> tuple[str, dict]:
    rows = [
        "trace-compiled scoring: score_last wall-clock, jit vs interpreted",
        f"(best of {REPEATS} interleaved rounds; pr3_ms from "
        "REPRO_BENCH_JIT_BASELINE when set)",
        f"{'config':<22} {'batch':>5} {'interp_ms':>10} {'jit_ms':>8} "
        f"{'speedup':>8} {'pr3_ms':>8} {'vs_pr3':>7}",
    ]
    results: dict[str, dict] = {}
    baseline_path = os.environ.get("REPRO_BENCH_JIT_BASELINE")
    for name, overrides in CONFIGS.items():
        detector = _fit_detector(overrides)
        baseline = _Baseline(baseline_path, overrides) if baseline_path else None
        for batch in BATCH_SIZES:
            windows = _windows(overrides, batch)
            with jit.use_jit(False):
                interp_scores = detector.score_last(windows)
            with jit.use_jit(True):
                jit_scores = detector.score_last(windows)
            if not np.array_equal(interp_scores, jit_scores):
                raise AssertionError(
                    f"jit replay diverged from interpreted at {name} B={batch}"
                )
            arms = {
                "interp": _timed(lambda: detector.score_last(windows), False),
                "jit": _timed(lambda: detector.score_last(windows), True),
            }
            if baseline is not None:
                arms["pr3"] = baseline.arm(batch)
            best = _best_interleaved(arms)
            interp, replay = best["interp"], best["jit"]
            pr3_ms = best["pr3"] * 1e3 if baseline is not None else None
            entry = {
                "interpreted_ms": round(interp * 1e3, 4),
                "jit_ms": round(replay * 1e3, 4),
                "speedup_vs_interpreted": round(interp / replay, 3),
            }
            if pr3_ms is not None:
                entry["pr3_interpreted_ms"] = round(pr3_ms, 4)
                entry["speedup_vs_pr3"] = round(pr3_ms / (replay * 1e3), 3)
            results[f"{name}/B{batch}"] = entry
            pr3_text = f"{pr3_ms:>8.3f}" if pr3_ms is not None else f"{'-':>8}"
            vs_text = (
                f"{pr3_ms / (replay * 1e3):>6.2f}x" if pr3_ms is not None
                else f"{'-':>7}"
            )
            rows.append(
                f"{name:<22} {batch:>5} {interp * 1e3:>10.3f} "
                f"{replay * 1e3:>8.3f} {interp / replay:>7.2f}x "
                f"{pr3_text} {vs_text}"
            )
        if baseline is not None:
            baseline.close()
    mixed = _mixed_batch(_fit_detector(CONFIGS[MIXED_CONFIG]), CONFIGS[MIXED_CONFIG])
    rows.append("")
    rows.append(
        f"mixed batches: {MIXED_CONFIG}, {mixed['calls']} score_last calls over "
        f"{MIXED_ROUNDS} seeded permutations of B=1..{MIXED_MAX_BATCH}, arms "
        "interleaved, cold tape cache, bitwise asserted"
    )
    rows.append(f"{'arm':<12} {'total_ms':>10} {'p50_ms':>8} {'p99_ms':>8}")
    for arm in ("interpreted", "jit"):
        entry = mixed[arm]
        rows.append(f"{arm:<12} {entry['total_ms']:>10.1f} {entry['p50_ms']:>8.3f} "
                    f"{entry['p99_ms']:>8.3f}")
    rows.append(f"speedup {mixed['speedup_vs_interpreted']:.2f}x; "
                f"tapes compiled {mixed['tapes']} ({mixed['traces']} trace)")
    single = {
        key: entry for key, entry in results.items() if key.endswith("/B1")
    }
    best_key = max(
        single,
        key=lambda k: single[k].get(
            "speedup_vs_pr3", single[k]["speedup_vs_interpreted"]
        ),
    )
    best = single[best_key]
    headline = best.get("speedup_vs_pr3", best["speedup_vs_interpreted"])
    rows.append("")
    rows.append(
        f"acceptance: single-window score_last best speedup = {headline:.2f}x "
        f"({best_key}, target >= 2.0x vs PR 3 interpreted)"
    )
    payload = {"results": results, "mixed_batch": mixed, "headline_single_window": {
        "config": best_key, "speedup": headline,
        "baseline": "pr3" if "speedup_vs_pr3" in best else "in-tree",
    }}
    return "\n".join(rows), payload


def test_jit_scoring(benchmark):
    detector = _fit_detector(CONFIGS["stream-w50-d16"])
    windows = _windows(CONFIGS["stream-w50-d16"], 1)
    with jit.use_jit(True):
        detector.score_last(windows)  # trace once outside the timer
        benchmark(lambda: detector.score_last(windows))
    table, payload = run_jit_bench()
    save_result("jit_scoring", table)
    save_json("jit_scoring", payload)
    # Replay must beat the interpreted path on every single-window row.
    for key, entry in payload["results"].items():
        if key.endswith("/B1"):
            assert entry["speedup_vs_interpreted"] > 1.0, (key, entry)
    # Mixed batch sizes compile one tape and the JIT is no slower.
    mixed = payload["mixed_batch"]
    assert mixed["tapes"] == 1, mixed
    assert mixed["speedup_vs_interpreted"] >= 1.0, mixed


def main() -> None:
    table, payload = run_jit_bench()
    save_result("jit_scoring", table)
    save_json("jit_scoring", payload)


if __name__ == "__main__":
    main()
