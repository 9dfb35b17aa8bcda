"""Steadiness check: two interleaved sets of runs of the same code.

Usage (from the repository root)::

    python3 perfbench/steady.py

For every workload in ``BENCHMARK.json`` it makes :data:`RUNS` runs in
each of two sets, A and B, alternating which set goes first, each run
with its own seed (set A seeds 1, 2, ...; set B seeds 101, 102, ...).
For every end-to-end metric it prints each set's median and quartiles
(``statistics.quantiles(values, n=4)``), the quartile spread as a share
of the median, and whether

- each set's spread is within the metric's bound,
- the two sets' medians differ by no more than the bound, either way,
- every run is correct and neither set failed an operation.

Exits 1 if any check fails. This is the evidence for the bounds in
``BENCHMARK.json``; run it again when the machine changes.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_BASE = {"A": 1, "B": 101}
#: Runs per set and workload.
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(
            f"{workload} seed {seed} printed no result:\n{completed.stderr}"
        )
    return json.loads(lines[-1])


def spread(values: "list[float]") -> "tuple[float, float, float, float]":
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    results: dict[tuple[str, str], list[dict]] = {
        (name, side): [] for name in names for side in "AB"
    }
    for index in range(RUNS):
        order = "AB" if index % 2 == 0 else "BA"
        for name in names:
            for side in order:
                seed = SEED_BASE[side] + index
                result = run_once(name, seed, bench["run_seconds"])
                results[(name, side)].append(result)
                print(
                    f"# {name} set {side} seed {seed}: correct="
                    f"{result['correct']} attempted={result['attempted']} "
                    f"failed={result['failed']}",
                    file=sys.stderr, flush=True,
                )
    ok = True
    over = checked = 0
    print(
        f"{'workload':14s} {'metric':19s} {'set':3s} {'median':>12s} "
        f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}  verdict"
    )
    for name in names:
        shares = {}
        for side in "AB":
            runs = results[(name, side)]
            shares[side] = (
                sum(r["failed"] for r in runs)
                / sum(r["attempted"] for r in runs)
            )
            if not all(r["correct"] for r in runs):
                print(f"{name}: set {side} has incorrect runs")
                ok = False
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            medians = {}
            for side in "AB":
                values = [
                    r["metrics"][key]["value"] for r in results[(name, side)]
                ]
                median, q1, q3, share = spread(values)
                medians[side] = median
                verdict = []
                checked += 1
                if share > bound:
                    verdict.append("SPREAD>BOUND")
                    over += 1
                    ok = False
                elif share > bound / 3:
                    verdict.append("spread>bound/3")
                print(
                    f"{name:14s} {key:19s} {side:3s} {median:12.6g} "
                    f"{q1:12.6g} {q3:12.6g} {share:7.3f} {bound:6.2f}  "
                    + (" ".join(verdict) or "ok")
                )
            drift = (medians["B"] - medians["A"]) / medians["A"]
            agree = abs(drift) <= bound
            ok = ok and agree
            print(
                f"{name:14s} {key:19s} B/A {drift:+12.4f} "
                f"{'agree' if agree else 'DISAGREE'} within {bound}"
            )
        none_failed = shares["A"] == shares["B"] == 0
        ok = ok and none_failed
        print(
            f"{name:14s} failed share A={shares['A']:.4f} "
            f"B={shares['B']:.4f} {'none' if none_failed else 'FAILED'}"
        )
    print(f"{over} of {checked} spreads over their bound")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
