#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

From the repository root::

    python3 perfbench/run.py --workload http-score --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the environment stamp.  The full record (stamp, phase counts, samples
and, when traced, every span) goes to ``.perfbench_out/`` at the root.
The program under test is always the ``src/`` tree next to this
directory; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
#: BLAS thread pools are pinned to one thread before numpy loads.  On two
#: cores shared with the server, generator and scheduler threads, BLAS
#: worker wake-ups on these small matrices make latency bimodal from one
#: run to the next; one thread keeps every run in the same regime.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def use_repo_source() -> None:
    """Import repro from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        fail(f"no program source at {src / 'repro'}")
    sys.path.insert(0, str(src))
    # Spawned pool workers re-import repro; point them at the same tree.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        fail(f"repro resolved to {repro.__file__}, not {src}")


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_sha": git_sha(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    os.environ.update({name: "1" for name in THREAD_VARS})
    use_repo_source()
    from spans import self_times
    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stamp = environment(args)
    own = self_times(result.spans)
    record = {
        "env": stamp,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
        "info": result.info,
        "spans": [{**span.as_dict(), "self": own[span.id]} for span in result.spans],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str) + "\n")
    print(json.dumps({"env": stamp, "record": str(path.relative_to(ROOT))}))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed",
                                                    "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
