"""The benchmark's three workloads, each driven through public calls only.

One *pass* of a workload is one operation: set the program up, feed it
the whole recording, collect the complete cleaned output, tear it down.
Set-up and the data path are timed separately, from outside, around the
public calls into each layer; every call is also recorded as a span
(:class:`Spans`) so the traced run can attribute the pass's time.

All three workloads replay the RFID shelf recording (``ShelfScenario``),
generated from the run's ``--seed``:

- ``shelf_batch``: the paper's Smooth+Arbitrate bundle through
  ``ESPProcessor.run`` (fused mode), the offline path behind the
  figures.
- ``shelf_gateway``: the same bundle served by one ``IngestGateway``
  over loopback, fed by one ``ReplayFeeder`` that delays readings out
  of order; the reorder slack sits at the delay cap.
- ``chain_cluster``: the ``shelf_chain`` bundle (128-stage Point chain)
  through an in-process ``ClusterRouter`` and two ``ClusterWorker``\\ s
  over loopback, with checkpointing on.
"""

from __future__ import annotations

import asyncio
import itertools
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Iterator

from repro.experiments.rfid import shelf_error
from repro.net.feeder import ReplayFeeder
from repro.net.gateway import IngestGateway
from repro.net.router import ClusterRouter
from repro.net.service import build_bundle
from repro.net.worker import ClusterWorker
from repro.pipelines.rfid_shelf import build_shelf_processor, count_series
from repro.receptors.network import DelayModel
from repro.scenarios.shelf import ShelfScenario
from repro.streams.telemetry import InMemoryCollector

#: Simulated seconds of the shelf recording for ``shelf_batch`` and
#: ``shelf_gateway`` (about 42k raw readings). At this length the
#: Smooth+Arbitrate count error sits near the paper's, far below raw.
SHELF_SECONDS = 600.0
#: Simulated seconds for ``chain_cluster`` (about 4.2k raw readings):
#: the 128-stage chain costs about eight times more per reading.
CHAIN_SECONDS = 60.0
#: Feeder network delay for ``shelf_gateway``: truncated exponential,
#: mean and cap in simulated seconds. The gateway's reorder slack
#: equals the cap, so readings arrive out of order yet none is late.
DELAY_MEAN = 0.4
DELAY_CAP = 1.5
#: Cluster shape: workers, and data frames per link between checkpoints.
WORKERS = 2
CHECKPOINT_INTERVAL = 100
#: Hang guard for one pass's data path, wall seconds. A healthy pass
#: takes a few seconds; a pass that hits it counts as failed.
PASS_TIMEOUT = 60.0


class Spans:
    """The benchmark's own spans around each public call it makes.

    A span is ``{"trace", "id", "parent", "name", "start_ns", "end_ns"}``;
    all spans of one pass share ``trace`` and have the pass span as
    parent. Kept in memory and written out as JSONL by the traced run.
    """

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self.trace = 0
        self._ids = itertools.count(1)
        self._parent: "int | None" = None

    @contextmanager
    def open_pass(self, name: str) -> Iterator[None]:
        self.trace += 1
        with self._span(name, None) as span_id:
            self._parent = span_id
            try:
                yield
            finally:
                self._parent = None

    def call(self, name: str) -> "ContextManager[int]":
        return self._span(name, self._parent)

    @contextmanager
    def _span(self, name: str, parent: "int | None") -> Iterator[int]:
        span_id = next(self._ids)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            self.records.append({
                "trace": self.trace,
                "id": span_id,
                "parent": parent,
                "name": name,
                "start_ns": start,
                "end_ns": time.perf_counter_ns(),
            })

    def durations(self, name: str, trace: "int | None" = None) -> list[float]:
        """Seconds of every span called ``name`` (in one pass if given)."""
        return [
            (r["end_ns"] - r["start_ns"]) / 1e9
            for r in self.records
            if r["name"] == name and (trace is None or r["trace"] == trace)
        ]


class WorkerCollector(InMemoryCollector):
    """A traced worker's collector: counters, histograms and stage
    rollups, without the per-tuple span log and event log.

    A worker ships its whole snapshot in one ``result_end`` frame. With
    both logs, a worker epoch of about 2k readings exceeds the protocol's
    1 MiB frame limit, the worker's send raises, and the router declares
    the worker lost, so the traced cluster pass cannot finish.
    """

    def event(self, kind: str, **fields: Any) -> None:
        pass

    def span(self, **fields: Any) -> None:
        pass

    def spawn(self) -> "WorkerCollector":
        return WorkerCollector()


@dataclass
class Pass:
    """What one pass measured and produced.

    ``failure`` names why the operation failed (an error, a hang, or a
    failover nobody injected); ``problems`` lists output-property
    violations, which make the run incorrect rather than failed.
    ``detail`` keeps the layer objects' own accounting for the traced
    run.
    """

    readings: int
    setup_s: float = 0.0
    data_s: float = 0.0
    cpu_s: float = 0.0
    output: list = field(default_factory=list)
    failure: "str | None" = None
    problems: list[str] = field(default_factory=list)
    detail: dict[str, Any] = field(default_factory=dict)


class _Clock:
    """Wall and process-CPU stamps bracketing set-up and the data path."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()

    def ready(self) -> None:
        self.t1 = time.perf_counter()
        self.c1 = time.process_time()

    def done(self, result: Pass) -> None:
        t2 = time.perf_counter()
        c2 = time.process_time()
        result.setup_s = self.t1 - self.t0
        result.data_s = t2 - self.t1
        result.cpu_s = c2 - self.c1


def _readings(streams: dict) -> int:
    return sum(len(items) for items in streams.values())


def delay_model(seed: int) -> DelayModel:
    return DelayModel(DELAY_MEAN, DELAY_CAP, rng=seed)


# -- shelf_batch ---------------------------------------------------------------


def shelf_batch_pass(
    seed: int, spans: Spans, telemetry: "InMemoryCollector | None" = None
) -> Pass:
    clock = _Clock()
    with spans.call("build_bundle"):
        bundle = build_bundle("shelf", SHELF_SECONDS, seed)
    result = Pass(_readings(bundle.streams))
    clock.ready()
    with spans.call("ESPProcessor.run"):
        run = bundle.processor.run(
            bundle.until, bundle.tick, sources=bundle.streams,
            mode="fused", telemetry=telemetry,
        )
    clock.done(result)
    result.output = run.output
    result.detail["telemetry"] = [run.telemetry] if telemetry else []
    return result


# -- shelf_gateway -------------------------------------------------------------


async def shelf_gateway_pass(
    seed: int, spans: Spans, telemetry: "InMemoryCollector | None" = None
) -> Pass:
    clock = _Clock()
    with spans.call("build_bundle"):
        bundle = build_bundle("shelf", SHELF_SECONDS, seed)
    result = Pass(_readings(bundle.streams))
    with spans.call("open_session"):
        session = bundle.processor.open_session(
            until=bundle.until, tick=bundle.tick, telemetry=telemetry,
            mode="fused",
        )
    gateway = IngestGateway(session, slack=DELAY_CAP, telemetry=telemetry)
    try:
        with spans.call("IngestGateway.start"):
            host, port = await gateway.start()
        feeder = ReplayFeeder(
            host, port, bundle.streams, delay_model=delay_model(seed),
            telemetry=telemetry,
        )
        clock.ready()
        with spans.call("ReplayFeeder.run"):
            report = await asyncio.wait_for(feeder.run(), PASS_TIMEOUT)
        with spans.call("IngestGateway.run_until_drained"):
            await asyncio.wait_for(gateway.run_until_drained(), PASS_TIMEOUT)
        with spans.call("IngestGateway.close"):
            run = await gateway.close()
        clock.done(result)
    finally:
        await gateway.close()
    result.output = run.output
    stats = gateway.stats()
    result.detail.update(
        feeder=report, gateway=stats, schedule_slack=DELAY_CAP,
        telemetry=[telemetry.snapshot()] if telemetry else [],
    )
    sent = sum(report["sent"].values())
    if sent != result.readings:
        result.problems.append(f"feeder sent {sent} of {result.readings}")
    for name, source in stats["sources"].items():
        if source["dropped_late"]:
            result.problems.append(
                f"{name}: {source['dropped_late']} late drops"
            )
        if source["offered"] != source["delivered"]:
            result.problems.append(
                f"{name}: offered {source['offered']} != delivered "
                f"{source['delivered']}"
            )
    return result


# -- chain_cluster -------------------------------------------------------------


async def chain_cluster_pass(
    seed: int, spans: Spans, telemetry: "InMemoryCollector | None" = None
) -> Pass:
    clock = _Clock()
    with spans.call("build_bundle"):
        bundle = build_bundle("shelf_chain", CHAIN_SECONDS, seed)
    result = Pass(_readings(bundle.streams))
    workers: list[ClusterWorker] = []
    worker_telemetry: list[WorkerCollector] = []
    router: "ClusterRouter | None" = None
    try:
        specs = []
        for index in range(WORKERS):
            # Each worker builds its own bundle, as a worker process would.
            with spans.call("build_bundle"):
                worker_bundle = build_bundle("shelf_chain", CHAIN_SECONDS, seed)
            collector = WorkerCollector() if telemetry else None
            worker = ClusterWorker(worker_bundle, telemetry=collector)
            with spans.call("ClusterWorker.start"):
                host, port = await worker.start()
            workers.append(worker)
            if collector is not None:
                worker_telemetry.append(collector)
            specs.append((f"w{index}", host, port))
        with spans.call("build_bundle"):
            router_bundle = build_bundle("shelf_chain", CHAIN_SECONDS, seed)
        router = ClusterRouter(
            router_bundle, telemetry=telemetry,
            checkpoint_interval=CHECKPOINT_INTERVAL,
        )
        with spans.call("ClusterRouter.start"):
            host, port = await router.start()
        with spans.call("ClusterRouter.connect_workers"):
            await asyncio.wait_for(router.connect_workers(specs), PASS_TIMEOUT)
        feeder = ReplayFeeder(host, port, bundle.streams, telemetry=telemetry)
        clock.ready()
        with spans.call("ReplayFeeder.run"):
            report = await asyncio.wait_for(feeder.run(), PASS_TIMEOUT)
        with spans.call("ClusterRouter.run_until_complete"):
            await asyncio.wait_for(router.run_until_complete(), PASS_TIMEOUT)
        with spans.call("ClusterRouter.result"):
            result.output = router.result()
        clock.done(result)
        stats = router.stats()
    finally:
        with spans.call("close"):
            if router is not None:
                await router.close()
            for worker in workers:
                await worker.close()
    recovery = stats["recovery"]
    # No fault is injected, so any failover or replay is the
    # close race (a finished worker declared lost), not recovery at work.
    if recovery["failovers"] or recovery["replayed_frames"]:
        result.failure = (
            f"uninjected failover: {recovery['failovers']} failovers, "
            f"{recovery['replayed_frames']} replayed frames"
        )
    result.detail.update(
        feeder=report, router=stats, schedule_slack=0.0,
        telemetry=[c.snapshot() for c in worker_telemetry],
        router_telemetry=telemetry.snapshot() if telemetry else None,
    )
    return result


# -- references (computed apart from the timed path) ---------------------------


def shelf_reference(seed: int, duration: float) -> dict[str, Any]:
    """Row-mode single-threaded runs of the shelf recording.

    Returns the Smooth+Arbitrate output (the semantic reference) and the
    raw configuration's per-shelf count error on the same recording.
    """
    scenario = ShelfScenario(duration=duration, seed=seed)
    streams = scenario.recorded_streams()
    outputs = {}
    for config in ("smooth+arbitrate", "raw"):
        processor = build_shelf_processor(scenario, config)
        outputs[config] = processor.run(
            scenario.duration, scenario.poll_period, sources=streams,
            mode="row",
        ).output
    return {
        "scenario": scenario,
        "output": outputs["smooth+arbitrate"],
        "raw_error": count_error(scenario, outputs["raw"]),
    }


def count_error(scenario: ShelfScenario, output: list) -> float:
    """Per-shelf count error (Eq. 1) of a cleaned or raw stream."""
    counts = count_series(
        output, scenario.ticks(), [g.name for g in scenario.granules],
        scenario.poll_period,
    )
    return shelf_error(counts, scenario.truth_series())


def check_shelf(seed: int, output: list) -> "tuple[list[str], dict]":
    """``shelf_batch``/``shelf_gateway`` output checks."""
    reference = shelf_reference(seed, SHELF_SECONDS)
    problems = []
    if output != reference["output"]:
        problems.append("output differs from the row-mode reference")
    error = count_error(reference["scenario"], output)
    if not error < reference["raw_error"]:
        problems.append(
            f"count error {error:.4f} not below raw {reference['raw_error']:.4f}"
        )
    return problems, {"count_error": error, "raw_error": reference["raw_error"]}


def check_chain(seed: int, output: list) -> "tuple[list[str], dict]":
    """``chain_cluster`` output check: the deep chain only repeats an
    idempotent ghost filter, so it must equal plain ``shelf``."""
    bundle = build_bundle("shelf", CHAIN_SECONDS, seed)
    reference = bundle.processor.run(
        bundle.until, bundle.tick, sources=bundle.streams, mode="row"
    ).output
    if output != reference:
        return ["output differs from the shelf row-mode reference"], {}
    return [], {}


class Tally:
    """The passes of one run, holding on to one output only.

    Outputs are compared as passes finish and then dropped, so memory
    does not grow with the number of passes; the process's peak RSS is
    read once, after the first pass, for the same reason.
    """

    def __init__(self) -> None:
        self.passes: list[Pass] = []
        self.output: "list | None" = None
        self.disagree = False
        self.peak_rss_mb = 0.0

    def add(self, result: Pass) -> None:
        if result.failure is None:
            if self.output is None:
                self.output = result.output
            elif result.output != self.output:
                self.disagree = True
        result.output = []
        if not self.passes:
            rusage = resource.getrusage(resource.RUSAGE_SELF)
            self.peak_rss_mb = rusage.ru_maxrss / 1024.0
        self.passes.append(result)

    def done(self) -> list[Pass]:
        return [p for p in self.passes if p.failure is None]

    def failures(self) -> list[str]:
        return sorted({p.failure for p in self.passes if p.failure})


def verify(workload: "Workload", seed: int, tally: Tally) -> list[str]:
    """Every completed pass must give the same output, which must pass
    the workload's check against its independent reference."""
    problems = sorted({text for p in tally.done() for text in p.problems})
    if tally.output is None:
        return problems
    if tally.disagree:
        problems.append("passes disagree on the output")
    found, facts = workload.check(seed, tally.output)
    for name, value in facts.items():
        print(f"check: {name} = {value:.4f}", file=sys.stderr)
    return problems + found


@dataclass(frozen=True)
class Workload:
    name: str
    run_pass: Callable[..., Any]
    check: Callable[[int, list], "tuple[list[str], dict]"]

    def once(
        self, seed: int, spans: Spans,
        telemetry: "InMemoryCollector | None" = None,
    ) -> Pass:
        """Run one pass; an exception becomes the pass's failure."""
        with spans.open_pass(self.name):
            try:
                if asyncio.iscoroutinefunction(self.run_pass):
                    return asyncio.run(self.run_pass(seed, spans, telemetry))
                return self.run_pass(seed, spans, telemetry)
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                failed = Pass(0)
                failed.failure = f"{type(exc).__name__}: {exc}"
                return failed


WORKLOADS = {
    "shelf_batch": Workload("shelf_batch", shelf_batch_pass, check_shelf),
    "shelf_gateway": Workload("shelf_gateway", shelf_gateway_pass, check_shelf),
    "chain_cluster": Workload("chain_cluster", chain_cluster_pass, check_chain),
}
