"""Fast tests of the benchmark itself: ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.use_repo_source()

import workloads  # noqa: E402
from loadgen import run_phase  # noqa: E402
from spans import Span, Tracer, covered, self_times  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

def _span(id, start, end, parent=None):
    return Span(id, f"s{id}", start, end, parent, None)


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 3.0, parent=1),
        _span(3, 2.0, 5.0, parent=1),    # overlaps span 2: counted once
        _span(4, 8.0, 12.0, parent=1),   # runs past its parent: clipped
        _span(5, 1.5, 2.5, parent=2),    # grandchild: only its parent's business
    ]
    times = self_times(spans)
    assert times[1] == pytest.approx(10.0 - (5.0 - 1.0) - (10.0 - 8.0))
    assert times[2] == pytest.approx(2.0 - 1.0)
    assert times[3] == pytest.approx(3.0)
    assert times[5] == pytest.approx(1.0)
    assert covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_tracer_nests_spans_and_propagates_request_ids():
    tracer = Tracer()
    with tracer.request(7):
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
    with tracer.span("other"):
        pass
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["inner"].parent == outer.id
    assert by_name["outer"].parent is None
    assert by_name["inner"].rid == 7 and by_name["outer"].rid == 7
    assert by_name["other"].rid is None
    times = self_times(tracer.spans)
    assert times[outer.id] == pytest.approx(
        by_name["outer"].duration - by_name["inner"].duration)


def test_wrap_and_restore_leave_the_original_in_place():
    class Target:
        def work(self, x):
            return x + 1

    original = Target.__dict__["work"]
    tracer = Tracer()
    tracer.wrap(Target, "work", "target.work")
    assert Target().work(1) == 2
    assert [span.name for span in tracer.spans] == ["target.work"]
    tracer.restore()
    assert Target.__dict__["work"] is original


@pytest.fixture(scope="module")
def detector():
    from repro import TFMAE

    data = workloads.serving_data(3)
    return TFMAE(workloads.serving_config()).fit(data.train, data.validation), data


def test_mixed_batch_check_catches_a_perturbed_score(detector):
    model, data = detector
    rng = np.random.default_rng(0)
    windows = workloads.window_pool(data.test, 4, rng)
    reference = np.array([model.score_last(w[None])[0] for w in windows])
    result = workloads.Result()
    workloads._mixed_loop(model, windows, reference, rng, 0.2, result)
    assert result.correct and result.failed == 0
    reference[0] = np.nextafter(reference[0], np.inf)
    result = workloads.Result()
    workloads._mixed_loop(model, windows, reference, np.random.default_rng(0), 0.5, result)
    assert not result.correct and result.failed > 0


def test_http_check_catches_a_perturbed_score(detector, tmp_path):
    from repro.serve import InferenceServer, ModelRegistry

    model, data = detector
    registry = ModelRegistry(tmp_path)
    registry.publish("m", model)
    window = data.test[:100]
    body = json.dumps({"model": "m", "window": window.tolist()}).encode()
    expected = float(model.score_last(window)[0])
    with InferenceServer(registry, port=0) as server:
        host, port = server._httpd.server_address[:2]
        good = run_phase(host, port, [(body, expected)], limit=3)
        bad = run_phase(host, port, [(body, np.nextafter(expected, np.inf))], limit=3)
        timed = run_phase(host, port, [(body, expected)], duration=0.3, connections=1)
    assert good.ok == good.sent == 3 and good.mismatched == 0
    assert bad.ok == 0 and bad.mismatched == bad.sent == 3
    # A phase with a duration stops at its deadline, every answer checked.
    assert timed.ok == timed.sent > 0


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_at_minimum_size(name, trace, tmp_path):
    result = workloads.run_workload(name, seed=1, seconds=1.0, trace=trace,
                                    workdir=tmp_path, size=workloads.SMOKE)
    assert result.correct and result.failed == 0 and result.attempted > 0
    assert all(math.isfinite(value) for value, _ in result.metrics.values())
    # Every workload reports every metric of the manifest, in its unit.
    manifest = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: unit for name, (_, unit) in result.metrics.items()} == {
        metric["name"]: metric["unit"] for metric in manifest}
    if not trace:
        assert all(value > 0 for value, _ in result.metrics.values())
