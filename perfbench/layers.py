"""The traced run: per-layer metrics, the rung ladder and the spans file.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 1``
alternates untraced and traced passes of the workload for ``--seconds``
(a traced pass hands an ``InMemoryCollector`` to every layer), then
reads each layer's own accounting off the last traced pass. Layers the
workload does not run report 0. A few figures are computed apart from
the pass, from the same seed's bundle, because no layer accounts for
them itself: ``protocol.*`` and ``reorder.max_depth`` (on the rebuilt
wire order, :func:`wire_order`), ``recovery.state_bytes`` and the
encode/decode times (one mid-run checkpoint), and ``core.open_session_s``
where the program opens the session inside ``ESPProcessor.run`` or a
worker (``shelf_batch``, ``chain_cluster``). Every traced run also

- replays the ``chain_cluster`` bundle through each rung of the stack
  (batch, streaming session, one gateway, the cluster) for ``ladder.*``;
- writes the benchmark's own spans, one JSON object per line, to
  ``perfbench/out/spans-<workload>-seed<n>.jsonl``.

Which end-to-end metric each layer metric should move, and on which
workload, is tabled in ``perfbench/README.md``.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import statistics
import sys
import time

from repro.core.pipeline import stage_rollups
from repro.net import protocol
from repro.net.feeder import ReplayFeeder
from repro.net.gateway import IngestGateway
from repro.net.recovery import decode_state, encode_state
from repro.net.service import build_bundle
from repro.streams.reorder import ReorderBuffer
from repro.streams.telemetry import InMemoryCollector

import workloads
from workloads import CHAIN_SECONDS, Pass, Spans, Tally, verify

#: The ingest spans of one gateway (wire arrival to emission).
INGEST_SPANS = ("queue", "reorder", "session", "e2e")
#: Cluster hop spans: metric name → field of the router's span log.
CLUSTER_SPANS = {
    "router.queue": "router_queue_ns",
    "wire.transit": "wire_transit_ns",
    "worker.queue": "worker_queue_ns",
    "worker.session": "worker_session_ns",
    "merge.egress": "merge_egress_ns",
}
#: Best-of count for each ladder rung.
LADDER_REPEATS = 2


def traced_run(workload, seed: int, seconds: float, root: str) -> dict:
    spans = Spans()
    plain, traced = Tally(), Tally()
    last_traced: "Pass | None" = None
    deadline = time.perf_counter() + seconds
    while not traced.passes or time.perf_counter() < deadline:
        gc.collect()
        plain.add(workload.once(seed, spans))
        gc.collect()
        result = workload.once(seed, spans, InMemoryCollector())
        if result.failure is None:
            last_traced = result
        traced.add(result)
    problems = verify(workload, seed, plain)
    problems += sorted({text for p in traced.done() for text in p.problems})
    if traced.disagree or traced.output != plain.output:
        problems.append("traced and untraced passes disagree on the output")
    metrics: dict[str, tuple[float, str]] = {}
    if plain.done() and last_traced is not None:
        metrics = layer_metrics(workload.name, seed, last_traced, spans)
        metrics["telemetry.overhead"] = (
            statistics.median(p.data_s for p in traced.done())
            / statistics.median(p.data_s for p in plain.done()) - 1.0,
            "ratio",
        )
        metrics["scenarios.build_s"] = (
            statistics.median(
                sum(spans.durations("build_bundle", trace))
                for trace in range(1, spans.trace + 1)
            ),
            "s",
        )
        metrics.update(ladder(seed, spans))
    write_spans(spans, root, workload.name, seed)
    attempted = len(plain.passes) + len(traced.passes)
    failed = attempted - len(plain.done()) - len(traced.done())
    return {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": dict(sorted(metrics.items())),
        "problems": problems,
        "failures": sorted(set(plain.failures() + traced.failures())),
    }


def layer_metrics(
    name: str, seed: int, traced: Pass, spans: Spans
) -> dict[str, tuple[float, str]]:
    detail = traced.detail
    n = traced.readings
    out: dict[str, tuple[float, str]] = {}
    out.update(stage_metrics(detail["telemetry"]))
    out.update(ingest_span_metrics(detail["telemetry"]))
    out.update(cluster_metrics(detail, spans))
    network = "feeder" in detail
    bundle_name = "shelf_chain" if name == "chain_cluster" else "shelf"
    duration = (
        CHAIN_SECONDS if name == "chain_cluster" else workloads.SHELF_SECONDS
    )
    bundle = build_bundle(bundle_name, duration, seed)
    delay = workloads.delay_model(seed) if name == "shelf_gateway" else None
    schedule = wire_order(bundle.streams, delay) if network else []
    out.update(protocol_metrics(schedule, n))
    feeder = detail.get("feeder", {})
    out["feeder.feed_s"] = (_last(spans, "ReplayFeeder.run"), "s")
    out["feeder.blocked_waits"] = (feeder.get("blocked_waits", 0), "count")
    out["feeder.credit_frames"] = (feeder.get("credit_frames", 0), "count")
    gateway = detail.get("gateway", {"sources": {}})
    out["gateway.late_dropped"] = (
        sum(s["dropped_late"] for s in gateway["sources"].values()), "count"
    )
    out["reorder.max_depth"] = (
        reorder_max_depth(schedule, detail.get("schedule_slack", 0.0)),
        "count",
    )
    # The gateway pass opens its session itself; the batch run and the
    # cluster's workers do it inside the program, so time it apart.
    opened = spans.durations("open_session")
    out["core.open_session_s"] = (
        statistics.median(opened) if opened
        else open_session_seconds(bundle),
        "s",
    )
    out.update(
        recovery_metrics(bundle, detail)
        if name == "chain_cluster"
        else {
            "recovery.checkpoints_acked": (0, "count"),
            "recovery.state_bytes": (0, "B"),
            "recovery.encode_ms": (0.0, "ms"),
            "recovery.decode_ms": (0.0, "ms"),
        }
    )
    return out


def _last(spans: Spans, name: str) -> float:
    durations = spans.durations(name)
    return durations[-1] if durations else 0.0


def _quantiles(values: "list[float]") -> "tuple[float, float]":
    """Exact (p50, p99) of ``values``; zeros when there are none."""
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    cuts = statistics.quantiles(values, n=100)
    return statistics.median(values), cuts[98]


# -- executor stages -----------------------------------------------------------


def stage_metrics(snapshots: "list[dict]") -> dict[str, tuple[float, str]]:
    """Point/Smooth/Arbitrate/union busy time from the stage rollups,
    summed over every session the pass ran (one per worker)."""
    totals: dict[str, dict[str, int]] = {}
    for snapshot in snapshots:
        for stage, row in stage_rollups(snapshot).items():
            into = totals.setdefault(stage, dict.fromkeys(row, 0))
            for key, value in row.items():
                into[key] += value
    empty = {"busy_ns": 0, "batches": 0, "tuples_in": 0}
    out = {}
    for stage in ("point", "smooth", "arbitrate", "union"):
        row = totals.get(stage, empty)
        out[f"stage.{stage}.busy_s"] = (row["busy_ns"] / 1e9, "s")
    point = totals.get("point", empty)
    out["stage.point.batches"] = (point["batches"], "count")
    out["stage.point.tuples_per_batch"] = (
        point["tuples_in"] / point["batches"] if point["batches"] else 0.0,
        "count",
    )
    return out


def ingest_span_metrics(snapshots: "list[dict]") -> dict[str, tuple[float, str]]:
    """Exact percentiles of the gateway's per-tuple ingest spans."""
    log = [
        span for snapshot in snapshots for span in snapshot["span_log"]
        if "queue_ns" in span
    ]
    out = {}
    for phase in INGEST_SPANS:
        p50, p99 = _quantiles([span[f"{phase}_ns"] / 1e3 for span in log])
        out[f"span.ingest.{phase}.p50_us"] = (p50, "us")
        out[f"span.ingest.{phase}.p99_us"] = (p99, "us")
    return out


# -- cluster ---------------------------------------------------------------------


def cluster_metrics(detail: dict, spans: Spans) -> dict[str, tuple[float, str]]:
    router = detail.get("router")
    recovery = router["recovery"] if router else {}
    # Readings each worker's session received: its load under the ring.
    loads = [
        sum(source["tuples"] for source in snapshot["sources"].values())
        for snapshot in detail["telemetry"]
    ] if router else []
    out = {
        "router.retained_frames": (
            router["retained_frames"] if router else 0, "count"
        ),
        "router.partition_skew": (
            max(loads) / statistics.mean(loads) if any(loads) else 0.0,
            "ratio",
        ),
        "router.failovers": (recovery.get("failovers", 0), "count"),
        "router.replayed_frames": (recovery.get("replayed_frames", 0), "count"),
        "cluster.drain_s": (
            _last(spans, "ClusterRouter.run_until_complete") if router else 0.0,
            "s",
        ),
        "cluster.result_s": (
            _last(spans, "ClusterRouter.result") if router else 0.0, "s"
        ),
    }
    snapshot = detail.get("router_telemetry")
    log = [
        span for span in (snapshot["span_log"] if snapshot else [])
        if span.get("kind") == "cluster_span"
    ]
    total_e2e = sum(span["e2e_ns"] for span in log)
    for name, key in CLUSTER_SPANS.items():
        p50, p99 = _quantiles([span[key] / 1e3 for span in log])
        out[f"span.{name}.p50_us"] = (p50, "us")
        out[f"span.{name}.p99_us"] = (p99, "us")
        out[f"span.{name}.share"] = (
            sum(span[key] for span in log) / total_e2e if total_e2e else 0.0,
            "ratio",
        )
    p50, p99 = _quantiles([span["e2e_ns"] / 1e3 for span in log])
    out["span.cluster.e2e.p50_us"] = (p50, "us")
    out["span.cluster.e2e.p99_us"] = (p99, "us")
    return out


def recovery_metrics(bundle, detail: dict) -> dict[str, tuple[float, str]]:
    """Checkpoint cost: the router's acked count, plus one mid-run
    ``ESPStreamSession.checkpoint()`` of the same bundle encoded and
    decoded the way a worker ships it."""
    session = bundle.processor.open_session(
        until=bundle.until, tick=bundle.tick, mode="fused"
    )
    readings = _time_ordered(bundle.streams)
    middle = readings[len(readings) // 2][0]
    for timestamp, receptor, _seq, item in readings:
        if timestamp >= middle:
            break
        session.push(receptor, item)
    session.advance(middle)
    state = session.checkpoint()
    t0 = time.perf_counter()
    blob, size = encode_state(state)
    t1 = time.perf_counter()
    if blob is not None:
        decode_state(blob)
    t2 = time.perf_counter()
    session.close()
    return {
        "recovery.checkpoints_acked": (
            detail["router"]["recovery"]["checkpoints_acked"], "count"
        ),
        "recovery.state_bytes": (size, "B"),
        "recovery.encode_ms": ((t1 - t0) * 1e3, "ms"),
        "recovery.decode_ms": ((t2 - t1) * 1e3 if blob else 0.0, "ms"),
    }


# -- protocol, feeder schedule, reorder ----------------------------------------


def wire_order(streams: dict, delay) -> list:
    """The order the workload's feeder puts readings on the wire.

    ``ReplayFeeder`` draws one delay per reading (sources in name order,
    readings in sequence) and replays by ``(arrival, source, seq)``;
    the same draws from a ``DelayModel`` with the same seed rebuild that
    order here, apart from the pass.
    """
    schedule = []
    for name in sorted(streams):
        for seq, item in enumerate(streams[name]):
            lag = float(delay.sample()) if delay is not None else 0.0
            schedule.append((item.timestamp + lag, name, seq, item))
    schedule.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
    return schedule


def protocol_metrics(
    schedule: list, readings: int
) -> dict[str, tuple[float, str]]:
    """Wire cost of the workload's data frames on one hop: bytes, and
    ``encode_frame``/``FrameDecoder`` time, per reading."""
    if not schedule:
        return {
            "protocol.bytes_per_reading": (0.0, "B"),
            "protocol.encode_us_per_reading": (0.0, "us"),
            "protocol.decode_us_per_reading": (0.0, "us"),
        }
    frames = [
        protocol.data_frame(source, seq, arrival, item)
        for arrival, source, seq, item in schedule
    ]
    t0 = time.perf_counter()
    wire = b"".join([protocol.encode_frame(frame) for frame in frames])
    t1 = time.perf_counter()
    decoded = protocol.FrameDecoder().feed(wire)
    t2 = time.perf_counter()
    if len(decoded) != len(frames):
        raise RuntimeError("frame decoder lost frames")
    return {
        "protocol.bytes_per_reading": (len(wire) / readings, "B"),
        "protocol.encode_us_per_reading": ((t1 - t0) * 1e6 / readings, "us"),
        "protocol.decode_us_per_reading": ((t2 - t1) * 1e6 / readings, "us"),
    }


def reorder_max_depth(schedule: list, slack: float) -> int:
    """Deepest any per-source ``ReorderBuffer`` gets on this wire order.

    The buffer's depth depends only on the arrival order and the slack,
    so replaying the schedule gives exactly the gateway's figure.
    """
    buffers: dict[str, ReorderBuffer] = {}
    deepest = 0
    for arrival, source, seq, item in schedule:
        buffer = buffers.setdefault(source, ReorderBuffer(slack))
        buffer.push(arrival, item, sequence=seq)
        deepest = max(deepest, len(buffer))
    return deepest


def open_session_seconds(bundle) -> float:
    """Median of three fused ``open_session`` calls (dataflow + fuse)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        session = bundle.processor.open_session(
            until=bundle.until, tick=bundle.tick, mode="fused"
        )
        times.append(time.perf_counter() - t0)
        session.close()
    return statistics.median(times)


def _time_ordered(streams: dict) -> list:
    return sorted(
        (item.timestamp, receptor, seq, item)
        for receptor, items in streams.items()
        for seq, item in enumerate(items)
    )


# -- the rung ladder -------------------------------------------------------------


def ladder(seed: int, spans: Spans) -> dict[str, tuple[float, str]]:
    """Readings/s of the ``chain_cluster`` bundle on every rung, untraced,
    best of :data:`LADDER_REPEATS`."""
    rungs = {
        "batch": _batch_rung,
        "session": _session_rung,
        "gateway": lambda s: asyncio.run(_gateway_rung(s)),
        "cluster": lambda s: _cluster_rung(s, spans),
    }
    out = {}
    for rung, run in rungs.items():
        best = 0.0
        for _ in range(LADDER_REPEATS):
            gc.collect()
            with spans.open_pass(f"ladder.{rung}"):
                best = max(best, run(seed))
        out[f"ladder.{rung}.readings_per_s"] = (best, "1/s")
    return out


def _chain_bundle(seed: int):
    bundle = build_bundle("shelf_chain", CHAIN_SECONDS, seed)
    return bundle, sum(len(items) for items in bundle.streams.values())


def _batch_rung(seed: int) -> float:
    bundle, n = _chain_bundle(seed)
    t0 = time.perf_counter()
    bundle.processor.run(
        bundle.until, bundle.tick, sources=bundle.streams, mode="fused"
    )
    return n / (time.perf_counter() - t0)


def _session_rung(seed: int) -> float:
    bundle, n = _chain_bundle(seed)
    session = bundle.processor.open_session(
        until=bundle.until, tick=bundle.tick, mode="fused"
    )
    readings = _time_ordered(bundle.streams)
    t0 = time.perf_counter()
    for timestamp, receptor, _seq, item in readings:
        session.push(receptor, item)
        session.advance(timestamp)
    session.close()
    return n / (time.perf_counter() - t0)


async def _gateway_rung(seed: int) -> float:
    bundle, n = _chain_bundle(seed)
    session = bundle.processor.open_session(
        until=bundle.until, tick=bundle.tick, mode="fused"
    )
    gateway = IngestGateway(session)
    try:
        host, port = await gateway.start()
        feeder = ReplayFeeder(host, port, bundle.streams)
        t0 = time.perf_counter()
        await asyncio.wait_for(feeder.run(), workloads.PASS_TIMEOUT)
        await asyncio.wait_for(
            gateway.run_until_drained(), workloads.PASS_TIMEOUT
        )
        await gateway.close()
        return n / (time.perf_counter() - t0)
    finally:
        await gateway.close()


def _cluster_rung(seed: int, spans: Spans) -> float:
    result = asyncio.run(workloads.chain_cluster_pass(seed, spans))
    if result.failure is not None:
        raise RuntimeError(f"ladder cluster rung failed: {result.failure}")
    return result.readings / result.data_s


# -- spans file -------------------------------------------------------------------


def write_spans(spans: Spans, root: str, workload: str, seed: int) -> str:
    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for record in spans.records:
            handle.write(json.dumps(record) + "\n")
    print(f"spans: {len(spans.records)} -> {path}", file=sys.stderr)
    return path
