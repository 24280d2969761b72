"""Per-layer metrics from the trace files of one traced run.

Every ``*_s`` metric is seconds summed over all processes the traced run
started (set-up starts included); ``self_s.<layer>`` is a layer's self time:
its busy spans' durations minus the time of their child spans and of the
operations charged to them, plus the operations it owns.  Wait spans (a
ticket waiting for its verdict, the parent waiting on pool results, the
queue wait before a flush's scan) are no layer's self time.

``trace.coverage`` is the share of the measured wall time during which some
layer's own code ran: the union, over every process and thread, of each busy
span's interval minus the intervals of its child spans.  Waits cover
nothing, and neither do the wrappers that enclose a whole request or scan
(``WRAPPERS``), so interpreter start-up, code outside every wrapped
function, a wrapper's own glue and idle time (``linger_ms`` included) all
lower the figure.
"""

from __future__ import annotations

import json
from pathlib import Path

LAYERS = (
    "util.intops", "core.batch_gcd", "core.attack", "core.pipeline",
    "core.parallel", "core.spool", "core.checkpoint", "core.incremental",
    "core.ptree", "service.wire", "service.http", "service.batcher",
    "service.registry", "telemetry", "integrity.scrub",
)

#: span name -> reported metric (inclusive seconds)
SPAN_SECONDS = {
    "batch_gcd.product_tree": "batch_gcd.product_tree_s",
    "batch_gcd.remainder_tree": "batch_gcd.remainder_tree_s",
    "attack.group_batch_hits": "attack.pairing_s",
    "pipeline.ingest": "pipeline.ingest_s",
    "pipeline.product": "pipeline.product_s",
    "pipeline.remainder": "pipeline.remainder_s",
    "pipeline.leaf": "pipeline.leaf_s",
    "pipeline.pairing": "pipeline.pairing_s",
    "parallel.result_wait": "parallel.result_wait_s",
    "spool.write_blob": "spool.write_s",  # self time: it pulls from the stage's producer
    "checkpoint.save": "checkpoint.save_s",
    "incremental.add_batch": "incremental.add_batch_s",
    "ptree.batch_remainders": "ptree.batch_remainders_s",
    "ptree.append": "ptree.append_s",
    "ptree.load_or_rebuild": "ptree.load_or_rebuild_s",
    "wire.decode_moduli": "wire.decode_s",
    "http.parse_submission": "http.parse_submission_s",
    "service.submit": "service.submit_s",
    "service.scan": "service.scan_s",
    "batcher.queue_wait": "batcher.queue_wait_s",
    "registry.commit_batch": "registry.commit_batch_s",
    "registry.note_duplicates": "registry.note_duplicates_s",
    "registry.load": "registry.load_s",
    "telemetry.snapshot": "telemetry.snapshot_s",
    "scrub.cycle": "scrub.cycle_s",
}
SELF_TIMED = {"spool.write_blob"}
#: spans around a whole request or scan: they count for self time, not coverage
WRAPPERS = {
    "http.dispatch", "service.scan", "batcher.flush", "attack.find_shared_primes",
    "batch_gcd.batch_gcd", "pipeline.run",
}
CHUNK_SPANS = ("parallel.product_chunk", "parallel.remainder_chunk", "parallel.leaf_gcd_chunk")
#: operation -> (calls metric, seconds metric, computed bytes metric)
OPS = {
    "mul": ("intops.mul_calls", "intops.mul_s", "intops.mul_operand_bytes"),
    "sqr": ("intops.sqr_calls", "intops.sqr_s", None),
    "mod": ("intops.mod_calls", "intops.mod_s", "intops.mod_operand_bytes"),
    "leaf_gcd": ("intops.leaf_gcd_calls", "intops.leaf_gcd_s", None),
    "gcd": ("intops.gcd_calls", "intops.gcd_s", None),
    "prod": ("intops.prod_calls", "intops.prod_s", None),
    "spool.read": (None, "spool.read_s", None),
    "fsync": ("fsync_calls", "fsync_s", None),
    "registry.verdict": ("registry.verdict_calls", "registry.verdict_s", None),
}
COUNTS = (
    "spool.write_bytes", "spool.read_bytes", "incremental.flush_keys",
    "incremental.engine.native", "incremental.engine.ptree", "batcher.flushes",
    "batcher.rejected_429", "scrub.bytes",
)


def _unit(name: str) -> tuple[str, str]:
    """``(unit, better)`` of a per-layer metric, from its name."""
    if name.endswith("keys_per_s"):
        return "keys/s", "higher"
    if name.endswith("_s") or name.startswith("self_s."):
        return "s", "lower"
    if name.endswith("bytes"):
        return "bytes", "lower"
    if name.endswith("_ms"):
        return "ms", "lower"
    if name in ("trace.coverage", "trace.tickets_linked", "batcher.keys_per_flush"):
        return "ratio" if name.startswith("trace.") else "keys", "higher"
    if name == "trace.overhead":
        return "ratio", "lower"
    return "count", "lower"


def metric_names() -> list[str]:
    names = list(SPAN_SECONDS.values())
    for calls, seconds, nbytes in OPS.values():
        names += [n for n in (calls, seconds, nbytes) if n]
    names += list(COUNTS)
    names += [
        "parallel.chunks", "parallel.worker_busy_s", "resilience.retries",
        "ptree.node_bytes", "batcher.keys_per_flush", "telemetry.histogram_samples",
        "scrub.cycles", "batch_keys_per_s", "batchscan_keys_per_s", "scrape_p50_ms",
        "trace.coverage", "trace.overhead", "trace.tickets_linked",
    ]
    names += [f"self_s.{layer}" for layer in LAYERS]
    return names


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def _own_intervals(spans: list) -> list[tuple[float, float]]:
    """Each busy span's interval minus its child spans' intervals, wrappers
    left out."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, _, t0, t1, _, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = []
    for span_id, name, _, t0, t1, _, _, _, kind in spans:
        if kind != "busy" or name in WRAPPERS:
            continue
        cursor = t0
        for a, b in sorted(children.get(span_id, ())):
            if a > cursor:
                out.append((cursor, min(a, t1)))
            cursor = max(cursor, b)
        if cursor < t1:
            out.append((cursor, t1))
    return out


def per_layer(trace_dir: Path, plain, traced) -> dict[str, tuple[float, str]]:
    values = {name: 0.0 for name in metric_names()}
    self_s = {layer: 0.0 for layer in LAYERS}
    covered: list[tuple[float, float]] = []
    tickets = linked = flushed = 0
    for path in sorted(trace_dir.glob("trace-*.json")):
        doc = json.loads(path.read_text())
        for _, name, layer, t0, t1, child, _, _, kind in doc["spans"]:
            if kind == "busy":
                self_s[layer] += (t1 - t0) - child
            if name in SPAN_SECONDS:
                values[SPAN_SECONDS[name]] += (t1 - t0) - (child if name in SELF_TIMED else 0)
            if name in CHUNK_SPANS:
                values["parallel.chunks"] += 1
                values["parallel.worker_busy_s"] += t1 - t0
        for t0, t1 in _own_intervals(doc["spans"]):
            for w0, w1 in traced.windows:
                if t0 < w1 and t1 > w0:
                    covered.append((max(t0, w0), min(t1, w1)))
        for op, (calls, seconds, nbytes, charged, layer) in doc["ops"].items():
            names = OPS.get(op, (None, None, None))
            for metric, value in zip(names, (calls, seconds, nbytes)):
                if metric:
                    values[metric] += value
            self_s[layer] += charged
        for name in COUNTS:
            values[name] += doc["counts"].get(name, 0)
        flushed += doc["counts"].get("batcher.flushed_keys", 0)
        gauges = doc["gauges"]
        values["ptree.node_bytes"] = max(
            values["ptree.node_bytes"], gauges.get("ptree.node_bytes", 0)
        )
        values["telemetry.histogram_samples"] += gauges.get("telemetry.histogram_samples", 0)
        values["resilience.retries"] += sum(
            v for k, v in doc["program_counters"].items()
            if k.endswith("retries") or k == "resilience.pool_respawns"
        )
        values["scrub.cycles"] += doc["program_counters"].get("integrity.scrub.cycles", 0)
        tickets += len(doc["tickets"])
        linked += sum(1 for _, flush in doc["tickets"].values() if flush is not None)

    if values["batcher.flushes"]:
        values["batcher.keys_per_flush"] = flushed / values["batcher.flushes"]
    if tickets:
        values["trace.tickets_linked"] = linked / tickets
    for layer, seconds in self_s.items():
        values[f"self_s.{layer}"] = seconds
    window = sum(b - a for a, b in traced.windows)
    values["trace.coverage"] = _union(covered) / window if window else 0.0
    values["trace.overhead"] = (
        plain.metrics["verdict_keys_per_s"] / traced.metrics["verdict_keys_per_s"] - 1
    )
    for note in ("batch_keys_per_s", "batchscan_keys_per_s", "scrape_p50_ms"):
        if note in plain.notes:
            values[note] = plain.notes[note][0]
    return {name: (value, _unit(name)[0]) for name, value in values.items()}
