"""In-memory timing spans and the wrappers that place them around repro.

The benchmark measures every layer from outside: :func:`instrument`
replaces the public entry points of each ``repro`` module with wrappers
that open a span, call the original and close the span.  Spans carry a
name, start and end (``time.perf_counter`` seconds), the id of the span
that was open on the same thread when they started, and a per-request
id.  They are kept in a list and written out when the run ends.

Request ids cross threads in two places, both through the program's own
objects: the HTTP client sends its id in an ``X-Request-Id`` header that
the wrapped handler adopts, and each queued scheduler request's future is
mapped to the id current on the thread that queued it, which the wrapped
batch step reads back on the worker thread.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "self_times", "covered", "instrument", "REQUEST_HEADER"]

#: Header the load generator uses to carry its request id to the server.
REQUEST_HEADER = "X-Request-Id"
#: TrainStep counters read per traced stretch (see instrument).
TRAIN_JIT_COUNTERS = ("traces", "replays", "fallbacks")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: object
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "rid": self.rid, **self.attrs}


class _Open:
    """Context manager for one span (a class, not a generator: it is cheap)."""

    __slots__ = ("tracer", "name", "rid", "attrs", "id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str, rid, attrs: dict):
        self.tracer, self.name, self.rid, self.attrs = tracer, name, rid, attrs

    def __enter__(self) -> "_Open":
        local = self.tracer._local
        stack = local.__dict__.setdefault("stack", [])
        self.parent = stack[-1] if stack else None
        if self.rid is None:
            self.rid = getattr(local, "rid", None)
        self.id = next(self.tracer._ids)
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self.tracer._local.stack.pop()
        self.tracer.spans.append(
            Span(self.id, self.name, self.start, end, self.parent, self.rid, self.attrs)
        )


class _Request:
    __slots__ = ("local", "rid", "saved")

    def __init__(self, local, rid):
        self.local, self.rid = local, rid

    def __enter__(self) -> None:
        self.saved = getattr(self.local, "rid", None)
        self.local.rid = self.rid

    def __exit__(self, *exc_info) -> None:
        self.local.rid = self.saved


class Tracer:
    """Collects spans from every thread of the process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, rid=None, **attrs) -> _Open:
        """Time a block; nested spans on the same thread become children."""
        return _Open(self, name, rid, attrs)

    def request(self, rid) -> _Request:
        """Tag every span opened on this thread inside the block with ``rid``."""
        return _Request(self._local, rid)

    @property
    def current_rid(self):
        return getattr(self._local, "rid", None)

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` by a spanned wrapper; :meth:`restore` undoes it.

        ``attrs(*args, **kwargs)`` may return extra span attributes.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            extra = attrs(*args, **kwargs) if attrs is not None else {}
            with _Open(self, name, None, extra):
                return original(*args, **kwargs)

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover.

    Children are clipped to their parent's interval, and overlapping
    children (e.g. from several threads) are counted once.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children[span.id]
            if child.end > span.start and child.start < span.end
        ]
        result[span.id] = span.duration - covered(clipped)
    return result


def _batch_size(_self, windows, *args, **kwargs) -> dict:
    shape = getattr(windows, "shape", ())
    return {"windows": int(shape[0]) if len(shape) == 3 else 1}


def instrument(tracer: Tracer) -> dict:
    """Wrap the entry points of every repro layer the benchmark reports.

    Returns the live registries the wrappers fill: ``train_jit`` (how
    often :meth:`~repro.nn.jit_train.TrainStep.begin` traced, replayed or
    fell back), ``batches`` (scheduler batch span id -> request ids in that
    batch) and ``evictions`` (scoring tapes evicted inside
    ``score_windows`` calls).  They hold counts, not the objects counted,
    so tracing keeps no model memory alive.
    """
    from repro.core import detector as core_detector
    from repro.core import model as core_model
    from repro.core import trainer as core_trainer
    from repro.masking import FrequencyMasker, TemporalMasker
    from repro.nn import jit, jit_train
    from repro.serve import registry, scheduler, server

    seen = {"train_jit": dict.fromkeys(TRAIN_JIT_COUNTERS, 0), "batches": {},
            "evictions": 0}

    # serve.server: the handler adopts the client's request id, then
    # score_request is the server's call into the scoring tiers.
    handler_post = server._Handler.do_POST

    def do_post(handler):
        rid = handler.headers.get(REQUEST_HEADER)
        with tracer.request(int(rid) if rid is not None else None):
            return handler_post(handler)

    tracer.patch(server._Handler, "do_POST", do_post)
    tracer.wrap(server.InferenceServer, "score_request", "server.score_request")

    # serve.registry
    tracer.wrap(registry.ModelRegistry, "load", "registry.load")
    tracer.wrap(registry.ModelRegistry, "load_fresh", "registry.load_fresh")
    tracer.wrap(registry.ModelRegistry, "publish", "registry.publish")
    tracer.wrap(registry, "load_training_state", "registry.read_artifact")

    # serve.scheduler: a request is queued on the caller's thread and
    # scored on a worker; its future links the two.
    futures: dict[int, object] = {}
    request_init = scheduler.ScoreRequest.__init__

    def request_init_wrapper(request, model_key, window):
        request_init(request, model_key, window)
        futures[id(request.future)] = tracer.current_rid

    score_batch = scheduler.MicroBatcher._score_batch

    def score_batch_wrapper(batcher, batch):
        rids = [futures.pop(id(request.future), None) for request in batch]
        with tracer.span("scheduler.batch", size=len(batch)) as span:
            seen["batches"][span.id] = rids
            return score_batch(batcher, batch)

    tracer.patch(scheduler.ScoreRequest, "__init__", request_init_wrapper)
    tracer.patch(scheduler.MicroBatcher, "_score_batch", score_batch_wrapper)
    tracer.wrap(scheduler.MicroBatcher, "score", "scheduler.score")

    # core.detector, core.model, masking
    tracer.wrap(core_detector.TFMAE, "score_last", "detector.score_last", _batch_size)
    tracer.wrap(core_detector.TFMAE, "fit", "detector.fit")
    tracer.wrap(core_detector.TFMAE, "refit", "detector.refit")
    score_windows = core_model.TFMAEModel.score_windows

    def score_windows_wrapper(model, windows, *args, **kwargs):
        before = model.jit_evictions
        try:
            with tracer.span("model.score_windows", **_batch_size(model, windows)):
                return score_windows(model, windows, *args, **kwargs)
        finally:
            seen["evictions"] += model.jit_evictions - before

    tracer.patch(core_model.TFMAEModel, "score_windows", score_windows_wrapper)
    tracer.wrap(TemporalMasker, "__call__", "masking.temporal")
    tracer.wrap(FrequencyMasker, "__call__", "masking.frequency")

    # nn.jit: model.py calls jit.trace through the module attribute.
    tracer.wrap(jit, "trace", "jit.trace")
    tracer.wrap(jit.Tape, "replay", "jit.replay")

    # core.trainer and nn.jit_train
    tracer.wrap(core_trainer.TFMAETrainer, "fit", "trainer.fit")
    tracer.wrap(core_trainer, "preflight_model", "trainer.preflight")
    # begin counts replays and fallbacks; _store, called once a traced
    # step has run, counts traces.
    def counted(method):
        @functools.wraps(method)
        def wrapper(step, *args):
            before = [getattr(step, name) for name in TRAIN_JIT_COUNTERS]
            try:
                return method(step, *args)
            finally:
                for name, count in zip(TRAIN_JIT_COUNTERS, before):
                    seen["train_jit"][name] += getattr(step, name) - count

        return wrapper

    begin = counted(jit_train.TrainStep.begin)

    def begin_wrapper(step, windows):
        with tracer.span("train_jit.begin"):
            return begin(step, windows)

    tracer.patch(jit_train.TrainStep, "begin", begin_wrapper)
    tracer.patch(jit_train.TrainStep, "_store", counted(jit_train.TrainStep._store))
    return seen
