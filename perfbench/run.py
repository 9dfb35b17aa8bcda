"""ESP end-to-end benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload shelf_batch --seed 1 --seconds 20 --trace 0

Repeats whole passes of the workload (set up, replay the recording,
collect the cleaned output, tear down) until ``--seconds`` have passed,
then checks the output against a reference computed apart from the
timed path. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``:

- ``--trace 0``: the end-to-end metrics, measured with telemetry off:
  the median pass's ``setup_s``; ``readings_per_s`` and
  ``cpu_us_per_reading`` over the data paths of all completed passes
  together; the process's peak ``peak_rss_mb``.
- ``--trace 1``: the per-layer metrics (see ``perfbench/layers.py``),
  and the benchmark's spans written to ``perfbench/out/``.

``correct`` is true only when no pass failed and the output passed every
check.

String hashing is pinned (``PYTHONHASHSEED=0``, by re-executing the
interpreter once) because hash randomisation alone moves set and dict
iteration cost from run to run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HASH_SEED = "0"


def _parse(argv: "list[str]") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, seed: int, seconds: float) -> dict:
    """Time whole passes for ``seconds``; return the end-to-end result."""
    from workloads import Spans, Tally, verify

    spans = Spans()
    tally = Tally()
    deadline = time.perf_counter() + seconds
    while not tally.passes or time.perf_counter() < deadline:
        gc.collect()
        tally.add(workload.once(seed, spans))
    problems = verify(workload, seed, tally)
    done = tally.done()
    metrics = {"peak_rss_mb": (tally.peak_rss_mb, "MiB")}
    if done:
        # Throughput and CPU are totals over every completed pass, which
        # weighs each pass by its length; set-up is the median pass's.
        readings = sum(p.readings for p in done)
        metrics.update(
            setup_s=(statistics.median(p.setup_s for p in done), "s"),
            readings_per_s=(readings / sum(p.data_s for p in done), "1/s"),
            cpu_us_per_reading=(
                1e6 * sum(p.cpu_s for p in done) / readings, "us"
            ),
        )
    failed = len(tally.passes) - len(done)
    return {
        "correct": not failed and not problems,
        "attempted": len(tally.passes),
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "failures": tally.failures(),
    }


def main(argv: "list[str]") -> int:
    args = _parse(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, __file__, *argv], env)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; "
            f"expected one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        from layers import traced_run

        result = traced_run(workload, args.seed, args.seconds, ROOT)
    else:
        result = measure(workload, args.seed, args.seconds)
    for key in ("problems", "failures"):
        for text in result.pop(key, []):
            print(f"{key[:-1]}: {text}", file=sys.stderr)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:40s} {value:14.6g} {unit}")
    result["metrics"] = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
