"""Span and operation recording for the benchmark's traced runs.

``install(out_dir)`` wraps the public functions of each layer the benchmark
reports on (``README.md`` lists them) in the running process, without
touching ``src/``.  Two kinds of record are kept in memory and written to
``out_dir/trace-<pid>.json`` when the process exits:

* a **span** per call of a layer function: name, layer, start, end, parent
  span, the time its child spans and charged operations took (so self time
  is ``end - start - child``), and the micro-batch flush it belongs to;
* an **operation** tally for calls too frequent to keep one by one
  (big-integer arithmetic, blob record reads, ``os.fsync``, verdict rows):
  calls, seconds and computed operand bytes.  An operation's time is charged
  to the enclosing span as child time, except ``fsync``, which stays in the
  self time of the commit that called it.

Forked pool workers reset the buffers and write their own file at exit.
Every ticket the service creates records the flush that resolved it, and the
spans of one flush carry that flush's id.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from multiprocessing import util as mp_util
from pathlib import Path

clock = time.monotonic

#: the current span frame: ``[span id, child seconds]``
_frame: contextvars.ContextVar = contextvars.ContextVar("perfbench_frame", default=None)
#: the flush the current code runs for
_flush: contextvars.ContextVar = contextvars.ContextVar("perfbench_flush", default=None)


class Tracer:
    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.ops: dict[str, list] = {}  # name -> [calls, seconds, bytes, charged s]
        self.op_layer: dict[str, str] = {}
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        for stats in self.ops.values():
            stats[:] = [0, 0.0, 0, 0.0]
        self.counts: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.tickets: dict[str, list] = {}  # ticket id -> [created, flush id]
        self.scan_start: dict[int, float] = {}  # flush id -> its scan's start
        self.flush_ids = itertools.count(1)
        self.span_ids = itertools.count(1)
        self.pending_flush: int | None = None
        self.telemetry = None
        self.scrubber = None
        self.written = False

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- spans -----------------------------------------------------------------

    def _open(self) -> tuple:
        parent = _frame.get()
        frame = [next(self.span_ids), 0.0]
        return parent, frame, _frame.set(frame), clock()

    def _close(self, name, layer, kind, parent, frame, token, t0) -> None:
        t1 = clock()
        _frame.reset(token)
        if parent is not None:
            parent[1] += t1 - t0
        self.spans.append((
            frame[0], name, layer, t0, t1, frame[1],
            parent[0] if parent is not None else None, _flush.get(), kind,
        ))

    def span(self, fn, name: str, layer: str, after=None, kind: str = "busy"):
        """Wrap ``fn`` (sync or async) so each call records one span;
        ``after(args, kwargs, result)`` runs once the span is closed."""
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                state = tracer._open()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer._close(name, layer, kind, *state)
                if after is not None:
                    after(args, kwargs, result)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, layer, kind, *state)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- operations ------------------------------------------------------------

    def op(self, fn, name: str, layer: str, nbytes=None, charge: bool = True):
        """Wrap a hot leaf call: tally it instead of keeping a span.  Calls
        nested in another operation count, but only the outermost one's
        time is charged to the enclosing span."""
        stats = self.ops.setdefault(name, [0, 0.0, 0, 0.0])
        self.op_layer[name] = layer
        local = self._local

        @functools.wraps(fn)
        def traced(*args):
            stats[0] += 1
            if nbytes is not None:
                stats[2] += nbytes(args)
            outer = not getattr(local, "busy", False)
            local.busy = True
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                stats[1] += dt
                if outer:
                    local.busy = False
                    if charge:
                        stats[3] += dt
                        frame = _frame.get()
                        if frame is not None:
                            frame[1] += dt

        return traced

    def timed_iter(self, iterator, name: str, layer: str):
        """Charge the time spent producing each item of ``iterator``."""
        stats = self.ops.setdefault(name, [0, 0.0, 0, 0.0])
        self.op_layer[name] = layer
        stats[0] += 1
        while True:
            t0 = clock()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                dt = clock() - t0
                stats[1] += dt
                stats[3] += dt
                frame = _frame.get()
                if frame is not None:
                    frame[1] += dt
            yield item

    # -- output ----------------------------------------------------------------

    def write(self) -> None:
        if self.written:
            return
        self.written = True
        spans = list(self.spans)
        for ticket, (created, flush) in self.tickets.items():
            start = self.scan_start.get(flush)
            if start is not None:
                spans.append((
                    0, "batcher.queue_wait", "service.batcher", created, start,
                    0.0, None, flush, "wait",
                ))
        if self.telemetry is not None:
            registry = self.telemetry.registry
            self.gauges["telemetry.histogram_samples"] = sum(
                h.count for h in registry.histograms.values()
            )
            program = {k: c.value for k, c in registry.counters.items()}
        else:
            program = {}
        if self.scrubber is not None:
            self.counts["scrub.bytes"] = self.scrubber.bytes_checked
        doc = {
            "pid": os.getpid(),
            "argv": sys.argv[1:3],
            "spans": spans,
            "ops": {k: v + [self.op_layer[k]] for k, v in self.ops.items() if v[0]},
            "counts": self.counts,
            "gauges": self.gauges,
            "program_counters": program,
            "tickets": {k: v for k, v in self.tickets.items()},
        }
        path = self.out_dir / f"trace-{os.getpid()}-{next(_files)}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc))
        os.replace(tmp, path)


_files = itertools.count()


# -- installing the wrappers ---------------------------------------------------------


def _bits_bytes(args) -> int:
    return sum((a.bit_length() + 7) // 8 for a in args[:2])


def _replace_everywhere(old, new) -> None:
    """Point every loaded ``repro`` module's reference to ``old`` at ``new``."""
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


def _wrap_function(tracer, module, attr, name, layer, **kw) -> None:
    old = getattr(module, attr)
    _replace_everywhere(old, tracer.span(old, name, layer, **kw))


def _wrap_method(tracer, cls, attr, name, layer, **kw) -> None:
    setattr(cls, attr, tracer.span(getattr(cls, attr), name, layer, **kw))


def install(out_dir: str | Path) -> Tracer:
    import repro.cli  # noqa: F401  (loads every layer module first)
    from repro.core.checkpoint import CheckpointStore
    from repro.core.incremental import IncrementalScanner
    from repro.integrity.scrub import Scrubber
    from repro.telemetry import Telemetry

    # by module path: some packages re-export a function under its module's name
    attack, batch_gcd, parallel, pipeline, ptree, spool = (
        importlib.import_module(f"repro.core.{name}")
        for name in ("attack", "batch_gcd", "parallel", "pipeline", "ptree", "spool")
    )
    batcher, http, registry, wire = (
        importlib.import_module(f"repro.service.{name}")
        for name in ("batcher", "http", "registry", "wire")
    )
    intops = importlib.import_module("repro.util.intops")

    tracer = Tracer(Path(out_dir))

    # util.intops: every big-integer operation of the active backend
    backend = intops.resolve_backend()
    for attr, nbytes in (
        ("mul", _bits_bytes), ("sqr", _bits_bytes), ("mod", _bits_bytes),
        ("gcd", None), ("divexact", None), ("prod", None),
    ):
        if attr in vars(backend):
            setattr(backend, attr, tracer.op(getattr(backend, attr), attr, "util.intops", nbytes))
        else:
            setattr(type(backend), attr, staticmethod(
                tracer.op(getattr(type(backend), attr), attr, "util.intops", nbytes)
            ))
    leaf = tracer.op(type(backend).leaf_gcd, "leaf_gcd", "util.intops")
    type(backend).leaf_gcd = leaf

    # core.batch_gcd / core.attack
    for attr in ("product_tree", "remainder_tree", "batch_gcd"):
        _wrap_function(tracer, batch_gcd, attr, f"batch_gcd.{attr}", "core.batch_gcd")
    _wrap_function(tracer, attack, "find_shared_primes", "attack.find_shared_primes", "core.attack")
    _wrap_function(tracer, attack, "group_batch_hits", "attack.group_batch_hits", "core.attack")

    # core.pipeline / core.parallel
    _wrap_function(tracer, pipeline, "run_pipeline", "pipeline.run", "core.pipeline")
    for stage in ("ingest", "product", "remainder", "leaf", "pairing"):
        _wrap_function(tracer, pipeline, f"_{stage}_stage", f"pipeline.{stage}", "core.pipeline")
    for attr in ("product_chunk", "remainder_chunk", "leaf_gcd_chunk"):
        _wrap_function(tracer, parallel, attr, f"parallel.{attr}", "core.parallel")
    run_chunked = parallel.run_chunked

    def traced_run_chunked(*args, **kwargs):
        results = run_chunked(*args, **kwargs)
        wait = tracer.span(
            lambda: next(results), "parallel.result_wait", "core.parallel", kind="wait"
        )
        try:
            while True:
                try:
                    item = wait()
                except StopIteration:
                    return
                yield item
        finally:
            close = getattr(results, "close", None)
            if close is not None:
                close()

    _replace_everywhere(run_chunked, functools.wraps(run_chunked)(traced_run_chunked))

    # core.spool / core.checkpoint
    def wrote(args, kwargs, info) -> None:
        tracer.count("spool.write_bytes", info.nbytes)

    _wrap_function(tracer, spool, "write_blob", "spool.write_blob", "core.spool", after=wrote)
    iter_blob = spool.iter_blob

    @functools.wraps(iter_blob)
    def traced_iter_blob(path, *args, **kwargs):
        tracer.count("spool.read_bytes", os.path.getsize(path))
        return tracer.timed_iter(iter_blob(path, *args, **kwargs), "spool.read", "core.spool")

    _replace_everywhere(iter_blob, traced_iter_blob)
    _wrap_method(tracer, CheckpointStore, "save", "checkpoint.save", "core.checkpoint")
    os.fsync = tracer.op(os.fsync, "fsync", "core.spool", charge=False)

    # core.incremental / core.ptree
    def batch_done(args, kwargs, report) -> None:
        tracer.count("incremental.flush_keys", report.new_keys)
        tracer.count(f"incremental.engine.{report.engine}")

    _wrap_method(tracer, IncrementalScanner, "add_batch", "incremental.add_batch",
                 "core.incremental", after=batch_done)

    def tree_size(args, kwargs, result) -> None:
        tree = args[0]
        nbytes = sum(
            (int(v).bit_length() + 7) // 8
            for seg in tree.segments for level in seg.levels for v in level
        )
        tracer.gauges["ptree.node_bytes"] = max(tracer.gauges.get("ptree.node_bytes", 0), nbytes)

    cls = ptree.PersistentProductTree
    _wrap_method(tracer, cls, "batch_remainders", "ptree.batch_remainders", "core.ptree")
    _wrap_method(tracer, cls, "append", "ptree.append", "core.ptree", after=tree_size)
    _wrap_method(tracer, cls, "load_or_rebuild", "ptree.load_or_rebuild", "core.ptree",
                 after=tree_size)

    # service.wire / service.http
    _wrap_function(tracer, wire, "decode_moduli", "wire.decode_moduli", "service.wire")
    _wrap_function(tracer, http, "parse_submission", "http.parse_submission", "service.http")
    _wrap_method(tracer, http.HttpServer, "_dispatch", "http.dispatch", "service.http")
    _wrap_method(tracer, http.WeakKeyService, "submit", "service.submit", "service.http")
    scan_sync = http.WeakKeyService._scan_sync

    @functools.wraps(scan_sync)
    def traced_scan_sync(self, items):
        # runs on the scan executor; flushes are strictly serialised
        flush = tracer.pending_flush
        tracer.scan_start[flush] = clock()
        token = _flush.set(flush)
        try:
            return traced_inner(self, items)
        finally:
            _flush.reset(token)

    traced_inner = tracer.span(scan_sync, "service.scan", "service.http")
    http.WeakKeyService._scan_sync = traced_scan_sync
    # waits for the scan executor, so they are not their caller's self time
    _wrap_method(tracer, http.WeakKeyService, "_scan_async", "service.scan_wait",
                 "service.http", kind="wait")
    _wrap_method(tracer, http.WeakKeyService, "metrics_view", "service.metrics_wait",
                 "service.http", kind="wait")

    # service.batcher
    def submitted(args, kwargs, ticket) -> None:
        tracer.tickets[ticket.id] = [clock(), None]

    submit = batcher.MicroBatcher.submit

    @functools.wraps(submit)
    def traced_submit(self, items):
        try:
            return traced_submit_inner(self, items)
        except batcher.BacklogFull:
            tracer.count("batcher.rejected_429")
            raise

    traced_submit_inner = tracer.span(submit, "batcher.submit", "service.batcher", after=submitted)
    batcher.MicroBatcher.submit = traced_submit
    flush = batcher.MicroBatcher._flush

    @functools.wraps(flush)
    async def traced_flush(self, parts, loop):
        fid = next(tracer.flush_ids)
        tracer.pending_flush = fid
        tracer.count("batcher.flushes")
        tracer.count("batcher.flushed_keys", sum(count for _, _, _, count in parts))
        for _, ticket, _, _ in parts:
            if ticket.id in tracer.tickets:
                tracer.tickets[ticket.id][1] = fid
        token = _flush.set(fid)
        try:
            return await traced_flush_inner(self, parts, loop)
        finally:
            _flush.reset(token)

    traced_flush_inner = tracer.span(flush, "batcher.flush", "service.batcher")
    batcher.MicroBatcher._flush = traced_flush
    _wrap_method(tracer, batcher.Ticket, "wait", "batcher.ticket_wait", "service.batcher",
                 kind="wait")

    # service.registry
    reg = registry.WeakKeyRegistry
    for attr in ("commit_batch", "note_duplicates", "load"):
        _wrap_method(tracer, reg, attr, f"registry.{attr}", "service.registry")
    reg.verdict = tracer.op(reg.verdict, "registry.verdict", "service.registry")

    # telemetry / integrity.scrub
    create = Telemetry.create.__func__

    @functools.wraps(create)
    def traced_create(cls, *args, **kwargs):
        tel = create(cls, *args, **kwargs)
        if tracer.telemetry is None:  # the CLI's own, created first
            tracer.telemetry = tel
        return tel

    Telemetry.create = classmethod(traced_create)
    _wrap_method(tracer, Telemetry, "snapshot", "telemetry.snapshot", "telemetry")

    def scrubbed(args, kwargs, result) -> None:
        tracer.scrubber = args[0]

    _wrap_method(tracer, Scrubber, "_cycle", "scrub.cycle", "integrity.scrub", after=scrubbed)

    mp_util.register_after_fork(tracer, _after_fork)
    return tracer


def _after_fork(tracer: Tracer) -> None:
    """In a forked pool worker: start empty and write out at exit."""
    tracer.reset()
    _frame.set(None)
    mp_util.Finalize(tracer, tracer.write, exitpriority=100)
