"""Closed-loop HTTP load from one process.

All load comes from one process: ``connections`` generator threads, each
owning one keep-alive connection and sending its next request as soon as
the previous answer arrives.  One connection gives the round trip of a
client that sends requests one after another; two give the answer rate
of two such clients.

The load is closed-loop rather than on a fixed schedule because the
server's round trip is mostly a TCP timer today: the server writes the
headers and the body of each answer separately, so the body waits for
the client's delayed ACK (about 40 ms).  Back-to-back requests always
meet that timer, so their round trip is steady from run to run on a
shared host; sparse requests sometimes meet it and sometimes not, which
made fixed-rate percentiles jump between runs.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import threading
import time
from dataclasses import dataclass, field

from spans import REQUEST_HEADER

__all__ = ["Phase", "run_phase"]


@dataclass
class Phase:
    """Outcome of one phase of load."""

    connections: int
    latencies: list = field(default_factory=list)    # seconds, answered requests
    round_trips: dict = field(default_factory=dict)  # rid -> (send, done)
    begin: float = 0.0
    sent: int = 0
    ok: int = 0
    failed: int = 0
    mismatched: int = 0
    errors: list = field(default_factory=list)

    @property
    def achieved_rps(self) -> float:
        """Answers per second, from the start to the last answer."""
        end = max((done for _, done in self.round_trips.values()), default=self.begin)
        return self.ok / (end - self.begin) if end > self.begin else 0.0


def run_phase(host: str, port: int, requests, duration: float = math.inf,
              first_rid: int = 0, connections: int = 2, limit: int | None = None) -> Phase:
    """POST ``requests[i % len(requests)]`` back to back on ``connections``.

    Stops sending after ``duration`` seconds or ``limit`` requests,
    whichever comes first.  Each entry of ``requests`` is
    ``(body_bytes, expected_score)``; an answer counts as ok only when it
    has status 200 and its ``score`` is exactly ``expected_score``.
    Request ``i`` carries id ``first_rid + i``.
    """
    phase = Phase(connections=connections)
    lock = threading.Lock()
    cursor = itertools.count() if limit is None else iter(range(limit))
    begin = phase.begin = time.perf_counter()
    deadline = begin + duration

    def worker() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None or time.perf_counter() >= deadline:
                    return
                body, expected = requests[index % len(requests)]
                rid = first_rid + index
                sent = time.perf_counter()
                try:
                    conn.request("POST", "/score", body=body, headers={
                        "Content-Type": "application/json", REQUEST_HEADER: str(rid)})
                    response = conn.getresponse()
                    payload = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException) as error:
                    conn.close()
                    status, payload = None, repr(error).encode()
                done = time.perf_counter()
                good = status == 200 and json.loads(payload).get("score") == expected
                with lock:
                    phase.sent += 1
                    phase.round_trips[rid] = (sent, done)
                    if good:
                        phase.ok += 1
                        phase.latencies.append(done - sent)
                    else:
                        phase.failed += 1
                        if status == 200:
                            phase.mismatched += 1
                        if len(phase.errors) < 5:
                            phase.errors.append(f"{status}: {payload[:200]!r}")
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, name=f"loadgen-{i}")
               for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return phase
