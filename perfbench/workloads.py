"""The benchmark's three workloads: set-up, timed phase, checks, metrics.

Each workload is a class with ``setup`` (timed as ``setup_s``), ``run``
(one stretch of the timed phase) and ``close``; :func:`run_workload`
drives them.  Untraced runs (``trace=False``) set up several times, keep
the last set-up, run the timed phase once and report every end-to-end
metric.  Traced runs set up once with every layer wrapped in spans (see
:mod:`spans`), run the timed phase twice, first untraced and then traced,
and report every per-layer metric plus the tracing overhead between the
two halves.

Every workload fits a model and answers ``POST /score`` over HTTP, at
least in its set-up, where each answer is checked against in-process
scoring.  So every layer has spans in every workload: a per-layer time
comes from the traced timed phase when the layer runs there, and from the
set-up otherwise.  Per-layer counts always come from the timed phase.
Why each workload exists is written in ``perfbench/README.md``.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import gc
import json
import math
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import TFMAE, TFMAEConfig
from repro.core import preset_for
from repro.datasets import get_dataset
from repro.metrics.ranking import roc_auc
from repro.serve import InferenceServer, ModelRegistry

from loadgen import Phase, run_phase
from spans import Tracer, instrument

__all__ = ["WORKLOADS", "Size", "Result", "run_workload"]

#: Clients of http-score, each with its own keep-alive connection.
CLIENTS = 2
#: Batch sizes drawn by score-mixed-batch: 32 distinct tape keys.
MAX_BATCH = 32
#: Model name every workload publishes under.
MODEL = "model"
#: The scheduler's own histograms read for the per-layer metrics.
HISTOGRAMS = ("serve_queue_wait_seconds", "serve_batch_size")


@dataclass(frozen=True)
class Size:
    """Input sizes; the defaults are the benchmark, tests shrink them."""

    setup_reps: int = 3
    windows: int = 64
    smd_scale: float = 0.005
    fit_epochs: int = 3
    recent: int = 1000
    probes: int = 8


SMOKE = Size(setup_reps=1, windows=4, smd_scale=0.002,
             fit_epochs=1, recent=300, probes=2)


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    info: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, count: int = 1) -> None:
        """Count ``count`` operations; a failed check fails all of them."""
        self.attempted += count
        if not ok:
            self.failed += count
            self.mismatches += count

    def count(self, phase: Phase) -> None:
        """Count one phase of HTTP load; a wrong answer is a mismatch."""
        self.attempted += phase.sent
        self.failed += phase.failed
        self.mismatches += phase.mismatched

    @property
    def correct(self) -> bool:
        return self.mismatches == 0 and self.attempted > 0


@dataclass
class Samples:
    """What one stretch of the timed phase measured."""

    latencies: list      # seconds per operation
    windows: int         # windows the throughput operations processed
    busy: float          # seconds those windows took


@dataclass
class Part:
    """One stretch of a traced run: set-up, or the traced timed half."""

    spans: list = field(default_factory=list)
    seen: dict = field(default_factory=dict)        # see spans.instrument
    phases: list = field(default_factory=list)      # HTTP phases sent
    hist: dict = field(default_factory=lambda: {name: [0, 0.0] for name in HISTOGRAMS})


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------
_LIBC = ctypes.CDLL(ctypes.util.find_library("c"))


def live_mb() -> float:
    """Resident MiB after collecting garbage and returning free heap pages.

    ``malloc_trim`` makes RSS track live allocations instead of the
    allocator's free lists, so differences between two calls measure
    memory still referenced.
    """
    gc.collect()
    _LIBC.malloc_trim(0)
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * resource.getpagesize() / 2**20


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def ms(seconds: float) -> float:
    return seconds * 1e3


def mean(values, default: float = 0.0) -> float:
    values = list(values)
    return sum(values) / len(values) if values else default


def bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def percentile_ms(latencies, q: float) -> float:
    return ms(float(np.quantile(latencies, q))) if len(latencies) else math.inf


def _by_name(spans) -> dict:
    index: dict[str, list] = {}
    for span in spans:
        index.setdefault(span.name, []).append(span)
    return index


def _histograms(server: InferenceServer) -> dict:
    """(count, sum) of the scheduler's own histograms."""
    hists = {name: server.metrics.histogram(name) for name in HISTOGRAMS}
    return {name: (hist.count, hist.sum) for name, hist in hists.items()}


def _phase_info(phase: Phase) -> dict:
    return {"connections": phase.connections, "sent": phase.sent, "ok": phase.ok,
            "failed": phase.failed, "mismatched": phase.mismatched, "errors": phase.errors,
            "p50_ms": percentile_ms(phase.latencies, 0.5),
            "p99_ms": percentile_ms(phase.latencies, 0.99),
            "achieved_rps": phase.achieved_rps}


# ----------------------------------------------------------------------
# models and data
# ----------------------------------------------------------------------
def serving_config() -> TFMAEConfig:
    """The serving-bench model: NIPS-TS-Global, window 100, d 32, 2 layers,
    4 heads.  ``batch_size`` is 32 so ``score_last`` never re-chunks the
    1-32 window batches of score-mixed-batch; one epoch keeps set-up short
    (scoring cost does not depend on how long the model trained)."""
    return TFMAEConfig(window_size=100, d_model=32, num_layers=2, num_heads=4,
                       anomaly_ratio=2.5, epochs=1, batch_size=MAX_BATCH,
                       learning_rate=1e-3, seed=0)


def serving_data(seed: int):
    return get_dataset("NIPS-TS-Global", seed=seed, scale=0.02, cache=False).normalised()


def window_pool(series: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    size = serving_config().window_size
    starts = rng.choice(series.shape[0] - size + 1, size=count, replace=False)
    return np.stack([series[start:start + size] for start in starts])


def smd_config(size: Size) -> TFMAEConfig:
    """The SMD preset at bench scale, with probe selection on validation."""
    base = TFMAEConfig(window_size=100, d_model=32, num_layers=2, num_heads=4,
                       batch_size=16, epochs=size.fit_epochs, learning_rate=1e-3,
                       seed=0, select_best_epoch=True)
    return preset_for("SMD", base=base, anomaly_ratio=2.0)


def score_requests(name: str, version: str, windows, expected) -> list:
    """``(body, expected score)`` pairs for :func:`loadgen.run_phase`."""
    return [(json.dumps({"model": name, "version": version, "window": window.tolist()})
             .encode(), float(score))
            for window, score in zip(windows, expected)]


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------
class Workload:
    """Shared state: a registry, a thread-tier server and the load it gets."""

    def __init__(self, seed: int, workdir: Path, size: Size, result: Result,
                 measure_memory: bool):
        self.seed, self.size, self.result = seed, size, result
        self.measure_memory = measure_memory
        self.root = tempfile.mkdtemp(dir=workdir)
        self.registry = ModelRegistry(self.root)
        self.server = None
        self.part = Part()
        self.rid = 0
        self.retained_mb = 0.0

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, duration: float) -> Samples:
        raise NotImplementedError

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        shutil.rmtree(self.root, ignore_errors=True)

    def start_server(self) -> None:
        self.server = InferenceServer(self.registry, port=0)
        self.server.start()

    def send(self, requests, duration: float, connections: int,
             limit: int | None = None) -> Phase:
        """One phase of load on the server, counted and kept in this part."""
        host, port = self.server._httpd.server_address[:2]
        before = _histograms(self.server)
        phase = run_phase(host, port, requests, duration, self.rid, connections, limit)
        after = _histograms(self.server)
        for name, (count, total) in after.items():
            self.part.hist[name][0] += count - before[name][0]
            self.part.hist[name][1] += total - before[name][1]
        self.rid += phase.sent
        self.part.phases.append(phase)
        self.result.count(phase)
        return phase

    def check_served(self, requests) -> Phase:
        """Send each request once over one connection; each answer must be exact."""
        return self.send(requests, math.inf, connections=1, limit=len(requests))

    def fit(self, config: TFMAEConfig, train, validation) -> TFMAE:
        """``TFMAE.fit``; with ``measure_memory`` the first fit also records
        the memory it leaves referenced (``trainer.retained_mb``)."""
        first = self.measure_memory
        if first:
            self.measure_memory = False
            before = live_mb()
        detector = TFMAE(config).fit(train, validation)
        if first:
            self.retained_mb = live_mb() - before
        return detector

    def serve_model(self) -> None:
        """Fit the serving model, publish it, serve it, and check every
        served answer against in-process ``score_last`` of the published
        version, loaded the way the server loads it."""
        self.data = serving_data(self.seed)
        detector = self.fit(serving_config(), self.data.train, self.data.validation)
        version = self.registry.publish(MODEL, detector)
        self.start_server()
        self.rng = np.random.default_rng(self.seed)
        self.windows = window_pool(self.data.test, self.size.windows, self.rng)
        self.detector, _ = self.registry.load(MODEL, version)
        # score_windows is batch-size invariant by contract, so these
        # batch-of-one answers are also the reference for larger batches.
        self.reference = np.array([self.detector.score_last(window[None])[0]
                                   for window in self.windows])
        order = self.rng.permutation(len(self.windows))
        self.requests = score_requests(MODEL, version, self.windows[order],
                                       self.reference[order])
        # Each round trip waits ~40 ms for the client's delayed ACK (see
        # loadgen), so the set-up checks only the first few.
        self.check_served(self.requests[:self.size.probes])

    def quality(self) -> float:
        """ROC-AUC of the set-up's model on its test split."""
        return roc_auc(self.detector.score(self.data.test), self.data.test_labels)


class HttpScore(Workload):
    """Single-window ``POST /score`` from clients sending back to back."""

    def setup(self) -> None:
        self.serve_model()

    def run(self, duration: float) -> Samples:
        phase = self.send(self.requests, duration, connections=CLIENTS)
        end = max(done for _, done in phase.round_trips.values())
        return Samples(phase.latencies, phase.ok, end - phase.begin)


class ScoreMixedBatch(Workload):
    """Closed-loop in-process ``score_last`` over seeded batch sizes 1-32."""

    def setup(self) -> None:
        self.serve_model()

    def run(self, duration: float) -> Samples:
        # Warm-up, not timed: one pass over every batch size.
        _mixed_loop(self.detector, self.windows, self.reference, self.rng, 0.0,
                    self.result, calls=MAX_BATCH)
        latencies, scored = _mixed_loop(self.detector, self.windows, self.reference,
                                        self.rng, duration, self.result)
        return Samples(latencies, sum(scored), sum(latencies))


def _mixed_loop(detector, windows, reference, rng, duration, result, calls=None):
    """Score seeded batches until ``duration`` has passed, or for ``calls`` calls.

    Batch sizes come in seeded permutations of 1..MAX_BATCH, so every
    size occurs equally often and a run's mix does not depend on luck.
    """
    latencies, scored, sizes = [], [], []
    deadline = time.perf_counter() + duration
    while (len(latencies) < calls) if calls is not None else (time.perf_counter() < deadline):
        if not sizes:
            sizes.extend(int(size) for size in rng.permutation(MAX_BATCH) + 1)
        picks = rng.integers(0, len(windows), size=sizes.pop())
        batch = windows[picks]
        started = time.perf_counter()
        scores = detector.score_last(batch)
        latencies.append(time.perf_counter() - started)
        scored.append(len(picks))
        result.check(bitwise_equal(scores, reference[picks]), len(picks))
    return latencies, scored


class FitRefit(Workload):
    """Retrain-and-republish cycles on SMD while the server serves each version."""

    def setup(self) -> None:
        """Data, server, and one reference fit: its test scores are what
        every later fit of the same seeded config must reproduce."""
        self.data = get_dataset("SMD", seed=self.seed, scale=self.size.smd_scale,
                                cache=False).normalised()
        self.config = smd_config(self.size)
        self.recent = self.data.test[:self.size.recent]
        size = self.config.window_size
        self.probe = np.stack([self.data.test[i:i + size]
                               for i in range(0, 50 * self.size.probes, 50)])
        self.start_server()
        self.detector = self.fit(self.config, self.data.train, self.data.validation)
        self.scores = self.detector.score(self.data.test)
        self.result.check(bool(np.isfinite(self.scores).all()))
        # Warm the rest of a cycle too, so the timed cycles are alike.
        version = self.registry.publish(MODEL, self.detector)
        self.registry.load_fresh(MODEL, version)[0].refit(self.recent, epochs=1)
        self.cycles = []

    def run(self, duration: float) -> Samples:
        """Cycles of fit -> publish -> load_fresh -> refit -> publish.

        A cycle's latency is the sum of those five steps; its checks run
        outside that clock.  Throughput counts training windows (windows
        per epoch times epochs) over the fit and refit time.
        """
        size = self.config.window_size
        trained = ((len(self.data.train) // size) * self.config.epochs
                   + len(self.recent) // size)
        latencies, busy = [], 0.0
        deadline = time.perf_counter() + duration
        while not latencies or time.perf_counter() < deadline:
            # Collect the previous cycle's garbage outside the clock, so peak
            # RSS is that of one cycle, not of how many cycles fit in the run.
            gc.collect()
            started = time.perf_counter()
            detector = self.fit(self.config, self.data.train, self.data.validation)
            fit_s = time.perf_counter() - started
            # The same seeded fit gives the reference fit's scores.
            self.result.check(bitwise_equal(detector.score(self.data.test), self.scores), 2)
            started = time.perf_counter()
            version = self.registry.publish(MODEL, detector)
            fresh, _ = self.registry.load_fresh(MODEL, version)
            load_s = time.perf_counter() - started
            self.result.check(bitwise_equal(fresh.score_last(self.probe),
                                            detector.score_last(self.probe)), 2)
            started = time.perf_counter()
            fresh.refit(self.recent, epochs=1)
            refit_s = time.perf_counter() - started
            refit = self.registry.publish(MODEL, fresh)
            republish_s = time.perf_counter() - started - refit_s
            expected = [fresh.score_last(window[None])[0] for window in self.probe]
            self.check_served(score_requests(MODEL, refit, self.probe, expected))
            latencies.append(fit_s + load_s + refit_s + republish_s)
            busy += fit_s + refit_s
            self.cycles.append({"fit_s": fit_s, "refit_s": refit_s,
                                "publish_load_s": load_s + republish_s,
                                "version": version})
        return Samples(latencies, trained * len(latencies), busy)


WORKLOADS = {
    "http-score": HttpScore,
    "score-mixed-batch": ScoreMixedBatch,
    "fit-refit": FitRefit,
}


# ----------------------------------------------------------------------
# running a workload
# ----------------------------------------------------------------------
def _timed_halves(seconds: float, trace: bool) -> list[tuple[float, bool]]:
    """(duration, traced) for each part of the timed phase."""
    if not trace:
        return [(seconds, False)]
    return [(seconds / 2, False), (seconds / 2, True)]


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 size: Size = Size()) -> Result:
    kind = WORKLOADS[name]
    result = Result()
    tracer = Tracer()
    reps = 1 if trace else size.setup_reps
    timings, workload, seen = [], None, {}
    try:
        for _ in range(reps):
            if workload is not None:
                workload.close()
            workload = kind(seed, workdir, size, result, measure_memory=trace)
            if trace:
                seen = instrument(tracer)
            started = time.perf_counter()
            workload.setup()
            timings.append(time.perf_counter() - started)
            tracer.restore()
        setup = workload.part
        setup.spans, setup.seen = tracer.spans, seen
        halves = []
        for duration, traced in _timed_halves(seconds, trace):
            workload.part = Part()
            if traced:
                tracer.spans = []
                seen = instrument(tracer)
            samples = workload.run(duration)
            tracer.restore()
            workload.part.spans, workload.part.seen = tracer.spans, seen
            halves.append((samples, workload.part))
        if trace:
            timed = halves[1][1]
            _layer_metrics(result, setup, timed, workload.retained_mb, workload.quality())
            before = statistics.median(halves[0][0].latencies)
            after = statistics.median(halves[1][0].latencies)
            result.add("trace.overhead_pct", 100.0 * (after - before) / before, "%")
            result.spans = setup.spans + timed.spans
        else:
            samples = halves[0][0]
            result.add("setup_s", statistics.median(timings), "s")
            result.add("latency_p50_ms", percentile_ms(samples.latencies, 0.5), "ms")
            result.add("latency_p90_ms", percentile_ms(samples.latencies, 0.9), "ms")
            result.add("windows_per_s", samples.windows / samples.busy, "windows/s")
            result.add("peak_rss_mb", peak_mb(), "MiB")
        result.info.update({
            "setup_s_reps": timings,
            "latency_samples": [len(samples.latencies) for samples, _ in halves],
            "latency_ms": [{f"p{q}": percentile_ms(samples.latencies, q / 100)
                            for q in (50, 90, 99)} for samples, _ in halves],
            "setup_phases": [_phase_info(phase) for phase in setup.phases],
            "timed_phases": [_phase_info(phase) for _, part in halves
                             for phase in part.phases],
            "cycles": getattr(workload, "cycles", None),
        })
        return result
    finally:
        tracer.restore()
        if workload is not None:
            workload.close()


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _round_trips(part: Part) -> tuple[dict, float]:
    """Split every answered round trip of ``part`` into its layers.

    ``self`` is the round trip minus the ``score_request`` span (HTTP
    parsing, socket writes, the client); ``score_request`` splits into
    its own code, the registry load, the scheduler wait and the batch's
    ``score_last``.  Returns the parts in seconds and the largest error
    of any split against its round trip.
    """
    index = _by_name(part.spans)
    by_rid = {name: {span.rid: span for span in index.get(name, [])}
              for name in ("server.score_request", "scheduler.score")}
    loads: dict = {}
    for span in index.get("registry.load", []):
        if span.rid is not None:
            loads[span.rid] = loads.get(span.rid, 0.0) + span.duration
    in_batch: dict = {}
    for call in index.get("detector.score_last", []):
        in_batch[call.parent] = in_batch.get(call.parent, 0.0) + call.duration
    score_last_of = {request: in_batch.get(batch_id, 0.0)
                     for batch_id, rids in part.seen["batches"].items() for request in rids}
    rows = {key: [] for key in ("self", "score_request", "handler_self", "load", "wait",
                                "score_last")}
    worst = 0.0
    for phase in part.phases:
        for request, (sent, done) in phase.round_trips.items():
            handler = by_rid["server.score_request"].get(request)
            scoring = by_rid["scheduler.score"].get(request)
            if handler is None or scoring is None:
                continue
            rtt = done - sent
            row = {"self": rtt - handler.duration, "score_request": handler.duration,
                   "load": loads.get(request, 0.0),
                   "score_last": score_last_of.get(request, 0.0)}
            row["handler_self"] = handler.duration - row["load"] - scoring.duration
            row["wait"] = scoring.duration - row["score_last"]
            total = (row["self"] + row["handler_self"] + row["load"] + row["wait"]
                     + row["score_last"])
            worst = max(worst, abs(total - rtt))
            for key, value in row.items():
                rows[key].append(value)
    return rows, worst


def _cold_loads(index: dict) -> list:
    """Registry loads that read an artifact from disk."""
    reads = {span.parent for span in index.get("registry.read_artifact", [])}
    return [span for name in ("registry.load", "registry.load_fresh")
            for span in index.get(name, []) if span.id in reads]


def _layer_metrics(result: Result, setup: Part, timed: Part, retained_mb: float,
                   test_auc: float) -> None:
    setup_index, timed_index = _by_name(setup.spans), _by_name(timed.spans)

    def spans(name: str) -> list:
        """The timed half's spans of ``name``, or the set-up's when it has none."""
        return timed_index.get(name) or setup_index.get(name, [])

    def mean_ms(name: str) -> float:
        return ms(mean(span.duration for span in spans(name)))

    def timed_count(name: str) -> int:
        return len(timed_index.get(name, []))

    # serve.server, serve.registry (per-request loads), serve.scheduler
    http = timed if timed.phases else setup
    rows, worst = _round_trips(http)
    ok = sum(phase.ok for phase in http.phases)
    # Span arithmetic: the parts of every round trip add up to it.
    result.check(len(rows["self"]) == ok and worst < 1e-9)
    result.info["attributed_requests"] = len(rows["self"])
    result.info["attribution_max_error_s"] = worst
    result.info["http_from"] = "timed" if http is timed else "setup"
    result.add("server.self_ms", ms(mean(rows["self"])), "ms")
    result.add("server.score_request_ms", ms(mean(rows["score_request"])), "ms")
    result.add("server.handler_self_ms", ms(mean(rows["handler_self"])), "ms")
    result.add("registry.load_ms", ms(mean(rows["load"])), "ms")
    result.add("scheduler.wait_ms", ms(mean(rows["wait"])), "ms")
    (waits, wait_sum), (batches, batch_sum) = (http.hist[name] for name in HISTOGRAMS)
    result.add("scheduler.queue_wait_ms", ms(wait_sum / max(1, waits)), "ms")
    result.add("scheduler.batch_mean", batch_sum / max(1, batches), "count")
    result.add("loadgen.sent", sum(phase.sent for phase in http.phases), "count")
    result.add("loadgen.ok", ok, "count")
    result.add("loadgen.failed", sum(phase.failed for phase in http.phases), "count")

    # serve.registry writes and cold reads
    result.add("registry.cold_loads", timed_count("registry.read_artifact"), "count")
    result.add("registry.publish_ms", mean_ms("registry.publish"), "ms")
    cold = _cold_loads(timed_index) or _cold_loads(setup_index)
    result.add("registry.load_cold_ms", ms(mean(span.duration for span in cold)), "ms")

    # core.detector, core.model, masking, nn.jit
    calls = spans("detector.score_last")
    result.add("detector.score_last_ms", mean_ms("detector.score_last"), "ms")
    result.add("detector.windows_per_call", mean(s.attrs["windows"] for s in calls), "count")
    result.add("detector.test_auc", test_auc, "ratio")
    result.add("model.score_windows_ms", mean_ms("model.score_windows"), "ms")
    result.add("masking.temporal_ms", mean_ms("masking.temporal"), "ms")
    result.add("masking.frequency_ms", mean_ms("masking.frequency"), "ms")
    traces, replays = timed_count("jit.trace"), timed_count("jit.replay")
    result.add("jit.traces", traces, "count")
    result.add("jit.replays", replays, "count")
    result.add("jit.trace_ms", mean_ms("jit.trace"), "ms")
    result.add("jit.replay_ms", mean_ms("jit.replay"), "ms")
    result.add("jit.evictions", timed.seen["evictions"], "count")
    result.add("jit.hit_ratio", replays / (replays + traces) if replays + traces else 0.0,
               "ratio")

    # core.trainer, nn.jit_train
    train = timed_index if "trainer.fit" in timed_index else setup_index
    parents = {span.id: span for span in setup.spans + timed.spans}

    def under_fit(span) -> bool:
        while span.parent is not None:
            span = parents.get(span.parent)
            if span is None:
                return False
            if span.name == "trainer.fit":
                return True
        return False

    fits = train.get("trainer.fit", [])
    preflight = sum(span.duration for span in train.get("trainer.preflight", []))
    probes = sum(span.duration for span in train.get("model.score_windows", [])
                 if under_fit(span))
    steps = len(train.get("train_jit.begin", []))
    busy = sum(span.duration for span in fits) - preflight - probes
    result.add("trainer.steps", timed_count("train_jit.begin"), "count")
    result.add("trainer.step_ms", ms(busy / max(1, steps)), "ms")
    result.add("trainer.preflight_ms", ms(preflight / max(1, len(fits))), "ms")
    result.add("trainer.retained_mb", retained_mb, "MiB")
    for name, count in timed.seen["train_jit"].items():
        result.add(f"train_jit.{name}", count, "count")
    result.add("train_jit.begin_ms", mean_ms("train_jit.begin"), "ms")
