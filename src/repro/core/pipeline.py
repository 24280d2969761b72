"""Sharded, checkpointed batch GCD: the memory-bounded scaling path.

:func:`repro.core.batch_gcd.batch_gcd` is quasi-linear but builds the
whole product and remainder tree in RAM — at millions of moduli the tree
is many times the corpus size and a crash loses everything.  This module
runs the same mathematics as a sequence of *stages*, each of which streams
records from disk blobs (:mod:`repro.core.spool`) through a bounded
working set and commits its output to a checkpoint manifest
(:mod:`repro.core.checkpoint`) before the next stage starts:

========================  ====================================================
``ingest``                moduli stream → validated ``product-000.bin``
``product.k`` (k=1…L)     level ``k−1`` blob → pairwise products, level ``k``
``remainder.k`` (k=L−1…0) level ``k+1`` remainders + level ``k`` values →
                          ``N mod value²`` per node (``k=L−1`` reads only
                          the root's two children)
``leaf``                  leaf remainders → one GCD per modulus (``gcds.bin``)
``pairing``               flagged moduli → explicit weak pairs (``hits.json``)
========================  ====================================================

The tree arithmetic is :mod:`repro.core.batch_gcd`'s level steps.  Memory
is governed by an explicit byte budget: stages cut their streams into
chunks whose on-disk size fits the budget (never inside a sibling pair), and
:func:`repro.core.parallel.run_chunked` keeps only a bounded window of
chunks in flight across the ``ProcessPoolExecutor``.  A killed run resumes
from the last committed stage (``resume=True``); corrupted blobs or an
unreadable manifest fall back to re-running the affected stages.  See
``docs/BATCH_PIPELINE.md`` for the full architecture walkthrough.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.core.attack import WeakHit, group_batch_hits
from repro.core.batch_gcd import level_sizes, product_tree, root_remainders
from repro.core.checkpoint import CheckpointStore, Manifest, StageRecord
from repro.core.parallel import leaf_gcd_chunk, product_chunk, remainder_chunk, run_chunked
from repro.core.spool import (
    MAGIC,
    BlobInfo,
    atomic_write,
    iter_blob,
    record_nbytes,
    write_blob,
)
from repro.resilience import RetryPolicy, classify_error
from repro.telemetry import Telemetry
from repro.util.intops import IntBackend, resolve_backend

__all__ = [
    "PipelineConfig",
    "PipelineResult",
    "run_pipeline",
    "quick_check",
    "level_sizes",
    "stage_plan",
]

DEFAULT_MEMORY_BUDGET = 256 * 2**20  # 256 MiB of in-flight tree nodes


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a ``batchscan`` run is parameterised by.

    ``memory_budget`` bounds the bytes of tree nodes held in RAM at once
    (chunking math in ``docs/BATCH_PIPELINE.md``); ``workers <= 1`` runs
    stages inline, larger values fan chunks across a *supervised* process
    pool (worker death respawns the pool and resubmits lost chunks, up to
    ``chunk_attempts`` tries each — see ``docs/RESILIENCE.md``).
    ``retries`` is the number of *re*-attempts per failed stage before the
    run gives up; only transiently-classified failures are retried
    (:func:`repro.resilience.classify_error`), with exponential backoff,
    and ``stage_deadline`` caps each stage's wall-clock budget across all
    of its attempts.  ``backend`` names the big-integer implementation
    (``auto``/``python``/``gmpy2``, see :mod:`repro.util.intops`;
    ``None`` defers to ``REPRO_INT_BACKEND``, then ``auto``); the resolved
    name is pinned into every chunk work unit, so all workers compute with
    the same arithmetic no matter what is importable where.

    >>> PipelineConfig(spool_dir="/tmp/spool").workers
    0
    """

    spool_dir: str | Path
    memory_budget: int = DEFAULT_MEMORY_BUDGET
    workers: int = 0
    resume: bool = False
    retries: int = 1
    backend: str | None = None
    #: wall-clock budget per stage across all attempts, seconds (None = off)
    stage_deadline: float | None = None
    #: total tries a chunk gets when its worker keeps dying
    chunk_attempts: int = 6

    def retry_policy(self, retries: int | None = None) -> RetryPolicy:
        """The stage-level policy (``retries`` overrides ``self.retries``).

        >>> PipelineConfig(spool_dir="x", retries=2).retry_policy().max_attempts
        3
        """
        return RetryPolicy(
            max_attempts=(self.retries if retries is None else retries) + 1,
            base_delay=0.05,
            max_delay=5.0,
            jitter=0.25,
            seed=0,
            deadline=self.stage_deadline,
        )

    def chunk_bytes(self, level_bytes: int | None = None) -> int:
        """Per-chunk byte target: budget spread over the in-flight window.

        ``run_chunked`` keeps up to ``workers + 2`` chunks submitted plus
        one being assembled and one result in hand — call it four windows
        of ``max(workers, 1)`` — so each chunk gets ``budget / (4·W)``.
        With ``workers ≥ 2``, a stage passes its source level's weighted
        ``level_bytes`` and the target is capped at a ``1/W`` share of
        it, so a level smaller than one budget chunk still reaches every
        worker.

        >>> PipelineConfig(spool_dir="x", memory_budget=1 << 20, workers=4).chunk_bytes()
        65536
        >>> PipelineConfig(spool_dir="x", workers=2).chunk_bytes(level_bytes=6000)
        3000
        """
        target = max(256, self.memory_budget // (4 * max(self.workers, 1)))
        if level_bytes is None or self.workers <= 1:
            return target
        return max(256, min(target, level_bytes // self.workers))


@dataclass
class PipelineResult:
    """What one pipeline run (or resume) produced.

    >>> r = PipelineResult(n_moduli=4, levels=2, spool_dir=Path("/tmp/s"))
    >>> r.hit_pairs
    set()
    """

    n_moduli: int
    levels: int
    spool_dir: Path
    hits: list[WeakHit] = field(default_factory=list)
    stages_run: list[str] = field(default_factory=list)
    stages_skipped: list[str] = field(default_factory=list)
    resumed: bool = False
    elapsed_seconds: float = 0.0
    #: telemetry snapshot (see docs/OBSERVABILITY.md), always populated
    metrics: dict = field(default_factory=dict)

    @property
    def hit_pairs(self) -> set[tuple[int, int]]:
        return {(h.i, h.j) for h in self.hits}


def stage_plan(n_moduli: int) -> list[tuple[str, str]]:
    """The ordered ``(stage name, blob file)`` plan for ``n_moduli`` keys.

    Deterministic in ``n_moduli`` alone — which is what lets a resumed run
    rebuild the plan from the manifest's ingest record and line its
    completed stages up against it.

    >>> stage_plan(4)  # doctest: +NORMALIZE_WHITESPACE
    [('ingest', 'product-000.bin'), ('product.1', 'product-001.bin'),
     ('product.2', 'product-002.bin'), ('remainder.1', 'remainder-001.bin'),
     ('remainder.0', 'remainder-000.bin'), ('leaf', 'gcds.bin'),
     ('pairing', 'hits.json')]
    """
    top = len(level_sizes(n_moduli)) - 1
    plan = [("ingest", "product-000.bin")]
    for k in range(1, top + 1):
        plan.append((f"product.{k}", f"product-{k:03d}.bin"))
    for k in range(top - 1, -1, -1):
        plan.append((f"remainder.{k}", f"remainder-{k:03d}.bin"))
    plan.append(("leaf", "gcds.bin"))
    plan.append(("pairing", "hits.json"))
    return plan


# -- stage bodies --------------------------------------------------------------


def _chunks_by_bytes(
    records: Iterator, chunk_bytes: int, nbytes_of: Callable, *, whole_pairs: bool = False
) -> Iterator[list]:
    """Greedy byte-budgeted chunking: cut once a chunk reaches the budget
    (with ``whole_pairs``, only after an even count: never inside a sibling pair)."""
    chunk: list = []
    size = 0
    for record in records:
        chunk.append(record)
        size += nbytes_of(record)
        if size >= chunk_bytes and not (whole_pairs and len(chunk) % 2):
            yield chunk
            chunk = []
            size = 0
    if chunk:
        yield chunk


def _level_bytes(blob: Path) -> int:
    """Summed :func:`record_nbytes` of a blob's records: its size past the magic."""
    return blob.stat().st_size - len(MAGIC)


def _validated(moduli: Iterable[int]) -> Iterator[int]:
    for n in moduli:
        if n <= 1 or n % 2 == 0:
            raise ValueError(f"RSA moduli must be odd and > 1, got {n}")
        yield n


def _ingest_stage(
    source: Iterable[int], path: Path, config: PipelineConfig, tel: Telemetry
) -> BlobInfo:
    def records() -> Iterator[int]:
        moduli = tel.registry.counter("pipeline.moduli")
        for n in _validated(source):
            moduli.inc()
            yield n

    info = write_blob(path, records())
    if info.count < 2:
        raise ValueError(f"batch GCD needs at least two moduli, got {info.count}")
    return info


def _product_stage(
    src: Path, dst: Path, config: PipelineConfig, tel: Telemetry, B: IntBackend
) -> BlobInfo:
    chunks = _chunks_by_bytes(
        iter_blob(src, backend=B),
        config.chunk_bytes(_level_bytes(src)),
        record_nbytes,
        whole_pairs=True,
    )
    return _write_chunked(partial(product_chunk, backend=B.name), chunks, dst, config, tel)


def _remainder_stage(
    parent_blob: Path | None,
    value_blob: Path,
    dst: Path,
    config: PipelineConfig,
    tel: Telemetry,
    B: IntBackend,
) -> BlobInfo:
    """One descent level; ``parent_blob=None`` is the root's two children,
    reduced from each other alone (:func:`root_remainders`)."""
    if parent_blob is None:
        return write_blob(dst, root_remainders(list(iter_blob(value_blob, backend=B)), B))

    def chunks() -> Iterator[tuple[list, list]]:
        # a node weighs itself plus its parent remainder (below the pair's
        # product squared, so about four nodes): the per-node cost it had
        # when every node travelled with its own copy of the parent
        parents = iter_blob(parent_blob, backend=B)
        for nodes in _chunks_by_bytes(
            iter_blob(value_blob, backend=B),
            config.chunk_bytes(5 * _level_bytes(value_blob)),
            lambda node: 5 * record_nbytes(node),
            whole_pairs=True,
        ):
            yield list(islice(parents, (len(nodes) + 1) // 2)), nodes  # one per pair

    return _write_chunked(
        partial(remainder_chunk, backend=B.name), chunks(), dst, config, tel
    )


def _leaf_stage(
    moduli_blob: Path,
    rem_blob: Path,
    dst: Path,
    config: PipelineConfig,
    tel: Telemetry,
    B: IntBackend,
) -> BlobInfo:
    items = zip(iter_blob(moduli_blob, backend=B), iter_blob(rem_blob, backend=B))
    chunks = _chunks_by_bytes(
        items,
        config.chunk_bytes(_level_bytes(moduli_blob) + _level_bytes(rem_blob)),
        lambda item: record_nbytes(item[0]) + record_nbytes(item[1]),
    )
    return _write_chunked(
        partial(leaf_gcd_chunk, backend=B.name), chunks, dst, config, tel
    )


def _write_chunked(fn, chunks, dst: Path, config: PipelineConfig, tel: Telemetry) -> BlobInfo:
    def results() -> Iterator[int]:
        outs = run_chunked(
            fn,
            _counted(chunks, tel),
            workers=config.workers,
            telemetry=tel,
            max_attempts=config.chunk_attempts,
        )
        for out in outs:
            yield from out

    return write_blob(dst, results())


def _counted(chunks: Iterator[list], tel: Telemetry) -> Iterator[list]:
    for chunk in chunks:
        tel.registry.counter("pipeline.chunks").inc()
        tel.registry.histogram("pipeline.chunk_items").observe(len(chunk))
        yield chunk


def _pairing_stage(
    moduli_blob: Path, gcd_blob: Path, dst: Path, B: IntBackend
) -> tuple[list[WeakHit], BlobInfo]:
    flagged = [
        (idx, n, g)
        for idx, (n, g) in enumerate(zip(iter_blob(moduli_blob), iter_blob(gcd_blob)))
        if g > 1
    ]
    hits = sorted(group_batch_hits(flagged, backend=B), key=lambda h: (h.i, h.j))
    payload = {
        "hits": [{"i": h.i, "j": h.j, "prime": str(h.prime)} for h in hits],
        "flagged": len(flagged),
    }
    nbytes, sha256 = atomic_write(dst, [(json.dumps(payload, indent=2) + "\n").encode()])
    return hits, BlobInfo(path=dst, count=len(hits), nbytes=nbytes, sha256=sha256)


def _load_hits(path: Path) -> list[WeakHit]:
    raw = json.loads(path.read_text())
    return [WeakHit(h["i"], h["j"], int(h["prime"])) for h in raw["hits"]]


# -- the driver ----------------------------------------------------------------


def run_pipeline(
    source: Iterable[int],
    config: PipelineConfig,
    *,
    telemetry: Telemetry | None = None,
    _stage_hook: Callable[[str], None] | None = None,
) -> PipelineResult:
    """Run (or resume) the sharded batch-GCD pipeline over ``source``.

    ``source`` is any iterable of moduli — typically a
    :class:`repro.rsa.corpus.ModulusStream` so nothing is materialised.  It
    is only consumed when the ``ingest`` stage actually runs; a resume
    whose ingest blob verifies never re-reads it.  Ingest retries require a
    *re-iterable* source: a one-shot iterator (anything with ``__next__``,
    e.g. a generator) is accepted, but its ingest failures are never
    retried — re-iterating would read only the unconsumed tail and commit
    a silently truncated corpus.  ``_stage_hook`` is a test seam invoked
    after each stage commits (crash-injection tests raise from it to
    simulate a kill between stages).

    Returns a :class:`PipelineResult`; equivalent to in-memory
    ``batch_gcd`` + pairing on the same moduli (property-tested in
    ``tests/core/test_pipeline.py``).

    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as d:
    ...     result = run_pipeline([33, 35, 55], PipelineConfig(spool_dir=d))
    ...     [(h.i, h.j, h.prime) for h in result.hits]
    [(0, 2, 11), (1, 2, 5)]
    """
    spool_dir = Path(config.spool_dir)
    spool_dir.mkdir(parents=True, exist_ok=True)
    store = CheckpointStore(spool_dir)
    B = resolve_backend(config.backend)
    tel = telemetry if telemetry is not None else Telemetry.create()
    reg = tel.registry
    reg.gauge("pipeline.workers").set(max(config.workers, 1))
    reg.gauge("pipeline.memory_budget").set(config.memory_budget)
    reg.gauge("backend.name").set(B.name)

    manifest, completed = _resume_state(store, config, tel)
    done_names = {record.name for record in completed}

    result = PipelineResult(
        n_moduli=0, levels=0, spool_dir=spool_dir, resumed=bool(completed)
    )
    hook = _stage_hook if _stage_hook is not None else (lambda stage: None)

    with tel.timer.span("pipeline"):
        # -- ingest (special-cased: it defines the plan for everything else)
        ingest_record = manifest.stage("ingest")
        if ingest_record is None:
            tel.emit("pipeline.stage.start", stage="ingest")
            # A one-shot iterator cannot be re-read: retrying it would ingest
            # only the unconsumed tail, committing a silently truncated corpus.
            ingest_retries = 0 if hasattr(source, "__next__") else config.retries
            info, seconds = _attempt(
                "ingest",
                lambda: _ingest_stage(
                    source, spool_dir / "product-000.bin", config, tel
                ),
                config,
                tel,
                retries=ingest_retries,
            )
            ingest_record = _commit(store, manifest, "ingest", info, seconds, config, tel)
            result.stages_run.append("ingest")
            hook("ingest")
        else:
            result.stages_skipped.append("ingest")

        n = ingest_record.count
        sizes = level_sizes(n)
        top = len(sizes) - 1
        plan = stage_plan(n)
        result.n_moduli = n
        result.levels = top
        reg.gauge("pipeline.levels").max_of(top)
        tel.set_progress_total(len(plan))
        tel.advance(1)  # ingest, whether freshly run or resumed
        tel.emit(
            "pipeline.start",
            moduli=n,
            levels=top,
            stages=len(plan),
            resumed=result.resumed,
            memory_budget=config.memory_budget,
            workers=config.workers,
            int_backend=B.name,
        )

        for name, blob in plan[1:]:
            if name in done_names:
                result.stages_skipped.append(name)
                tel.advance(1)
                tel.emit("pipeline.stage.skip", stage=name)
                continue
            tel.emit("pipeline.stage.start", stage=name)
            dst = spool_dir / blob
            if name == "pairing":
                (hits, info), seconds = _attempt(
                    name,
                    lambda: _pairing_stage(
                        spool_dir / "product-000.bin", spool_dir / "gcds.bin", dst, B
                    ),
                    config,
                    tel,
                )
                result.hits = hits
            else:
                stage_fn = _stage_body(name, spool_dir, dst, top, config, tel, B)
                info, seconds = _attempt(name, stage_fn, config, tel)
                kind = name.partition(".")[0]
                if kind in ("product", "remainder"):
                    reg.histogram(f"pipeline.{kind}_level_seconds").observe(seconds)
                _check_count(name, info, sizes, n)
            _commit(store, manifest, name, info, seconds, config, tel)
            result.stages_run.append(name)
            tel.advance(1)
            hook(name)

        if not result.hits and "pairing" in done_names:
            result.hits = _load_hits(spool_dir / "hits.json")

    result.elapsed_seconds = tel.timer.total_seconds("pipeline")
    reg.counter("pipeline.hits").inc(len(result.hits))
    result.metrics = tel.snapshot()
    tel.emit(
        "pipeline.done",
        moduli=result.n_moduli,
        hits=len(result.hits),
        stages_run=len(result.stages_run),
        stages_skipped=len(result.stages_skipped),
        elapsed_seconds=result.elapsed_seconds,
    )
    return result


def _stage_body(
    name: str,
    spool_dir: Path,
    dst: Path,
    top: int,
    config: PipelineConfig,
    tel: Telemetry,
    B: IntBackend,
) -> Callable[[], BlobInfo]:
    kind, _, level = name.partition(".")
    if kind == "product":
        src = spool_dir / f"product-{int(level) - 1:03d}.bin"
        return lambda: _product_stage(src, dst, config, tel, B)
    if kind == "remainder":
        k = int(level)
        parent = None if k == top - 1 else spool_dir / f"remainder-{k + 1:03d}.bin"
        values = spool_dir / f"product-{k:03d}.bin"
        return lambda: _remainder_stage(parent, values, dst, config, tel, B)
    if kind == "leaf":
        return lambda: _leaf_stage(
            spool_dir / "product-000.bin",
            spool_dir / "remainder-000.bin",
            dst,
            config,
            tel,
            B,
        )
    raise ValueError(f"unknown stage {name!r}")


def _check_count(name: str, info: BlobInfo, sizes: list[int], n: int) -> None:
    kind, _, level = name.partition(".")
    expected = n if kind == "leaf" else sizes[int(level)]
    if info.count != expected:
        raise RuntimeError(
            f"stage {name} produced {info.count} records, expected {expected}"
        )


#: metrics incremented *inside* stage bodies — rolled back when an attempt
#: fails so a retried stage doesn't double-count its records
_STAGE_COUNTERS = ("pipeline.moduli", "pipeline.chunks")
_STAGE_HISTOGRAMS = ("pipeline.chunk_items",)


def _attempt(
    name: str,
    fn: Callable,
    config: PipelineConfig,
    tel: Telemetry,
    *,
    retries: int | None = None,
):
    """Run one stage body under its span, with retries; returns (out, secs).

    Spans use the stage *kind* (``product``, not ``product.3``) so the
    ``stage.pipeline/<kind>.seconds`` histogram cardinality stays bounded;
    per-level skew lands in the ``pipeline.*_level_seconds`` histograms.
    A failed attempt rolls its in-stage record counters back to the
    pre-attempt marks, so only the successful attempt's records survive in
    the metrics snapshot.  ``retries`` overrides ``config.retries`` (the
    ingest stage uses it to disable retries for one-shot sources).

    Retries ride :class:`repro.resilience.RetryPolicy`: only transiently
    classified failures re-attempt (a ``ValueError`` from a malformed
    corpus fails fast), backoff is capped-exponential with seeded jitter,
    and ``config.stage_deadline`` bounds the stage's total wall clock.
    """
    kind = name.partition(".")[0]
    reg = tel.registry
    policy = config.retry_policy(retries)

    def body():
        counter_marks = {
            n: reg.counters[n].value for n in _STAGE_COUNTERS if n in reg.counters
        }
        hist_marks = {
            n: len(reg.histograms[n].samples)
            for n in _STAGE_HISTOGRAMS
            if n in reg.histograms
        }
        t0 = tel.timer.clock()
        try:
            with tel.timer.span(kind):
                out = fn()
            return out, tel.timer.clock() - t0
        except Exception:
            for n in _STAGE_COUNTERS:
                if n in reg.counters:
                    reg.counters[n].value = counter_marks.get(n, 0)
            for n in _STAGE_HISTOGRAMS:
                if n in reg.histograms:
                    del reg.histograms[n].samples[hist_marks.get(n, 0):]
            raise

    def on_retry(attempt: int, delay: float, exc: BaseException) -> None:
        reg.counter("pipeline.stage_retries").inc()
        tel.emit(
            "pipeline.stage.retry",
            stage=name,
            attempt=attempt,
            delay=round(delay, 4),
            error=repr(exc),
            kind=classify_error(exc).__name__,
        )

    return policy.run(body, on_retry=on_retry)


def _commit(
    store: CheckpointStore,
    manifest: Manifest,
    name: str,
    info: BlobInfo,
    seconds: float,
    config: PipelineConfig,
    tel: Telemetry,
) -> StageRecord:
    record = StageRecord.from_blob(name, info, seconds)
    manifest.stages.append(record)
    if name == "ingest":
        manifest.config = {
            "n_moduli": info.count,
            "memory_budget": config.memory_budget,
            "workers": config.workers,
            "backend": resolve_backend(config.backend).name,
        }
    # the blob is already durable and the rewrite is atomic + idempotent,
    # so a transient manifest-write blip is safe to retry in place
    def on_retry(attempt: int, delay: float, exc: BaseException) -> None:
        tel.registry.counter("pipeline.commit_retries").inc()
        tel.emit(
            "pipeline.commit.retry",
            stage=name,
            attempt=attempt,
            delay=round(delay, 4),
            error=repr(exc),
        )

    config.retry_policy().run(lambda: store.save(manifest), on_retry=on_retry)
    tel.registry.counter("pipeline.bytes_spilled").inc(info.nbytes)
    tel.registry.histogram("pipeline.stage_bytes").observe(info.nbytes)
    tel.emit(
        "pipeline.stage.done",
        stage=name,
        records=info.count,
        nbytes=info.nbytes,
        seconds=seconds,
    )
    return record


def _resume_state(
    store: CheckpointStore, config: PipelineConfig, tel: Telemetry
) -> tuple[Manifest, list[StageRecord]]:
    """Decide what survives from a previous run in this spool directory."""
    if not config.resume:
        return Manifest(), []
    manifest = store.load()
    if manifest is None:
        tel.emit("pipeline.resume", usable=False, reason="missing or unreadable manifest")
        return Manifest(), []
    ingest = manifest.stage("ingest")
    if ingest is None or manifest.stages[0].name != "ingest":
        tel.emit("pipeline.resume", usable=False, reason="no completed ingest stage")
        return Manifest(), []
    if not store.verify(ingest):
        tel.emit("pipeline.resume", usable=False, reason="ingest blob corrupt")
        tel.registry.counter("pipeline.resume.stages_invalidated").inc(len(manifest.stages))
        return Manifest(), []
    expected = [name for name, _ in stage_plan(ingest.count)]
    completed = store.verified_prefix(manifest, expected)
    invalidated = len(manifest.stages) - len(completed)
    if invalidated:
        tel.registry.counter("pipeline.resume.stages_invalidated").inc(invalidated)
    manifest.stages = list(completed)
    store.save(manifest)
    tel.registry.counter("pipeline.resume.stages_skipped").inc(len(completed))
    tel.emit(
        "pipeline.resume",
        usable=True,
        completed=[record.name for record in completed],
        invalidated=invalidated,
    )
    return manifest, completed


# -- single-key arrival check --------------------------------------------------


def quick_check(
    new_moduli: Iterable[int],
    *,
    spool_dir: str | Path | None = None,
    corpus_moduli: Iterable[int] | None = None,
    backend: str | IntBackend | None = None,
) -> list[int]:
    """GCD each *arriving* modulus against a whole corpus in one shot.

    For a modulus ``n`` outside the corpus, ``gcd(n, N mod n)`` with
    ``N = Π n_i`` is non-trivial exactly when ``n`` shares a prime with
    some corpus key — the O(|N|) streaming complement to a full rescan.  A
    modulus already *in* the corpus returns ``n`` itself (``N mod n = 0``),
    flagging it like a duplicate key.  (This membership semantics is why
    the formula here is deliberately *not* the batch-GCD leaf formula
    ``leaf_gcd(n, N mod n²)``: an arriving modulus need not divide ``N``,
    so no exact division exists; ``gcd(n, N mod n) = gcd(n, N)`` is the
    whole-corpus test.)

    The corpus product comes from a finished pipeline run's root blob
    (``spool_dir``) or is computed root-only from ``corpus_moduli`` via
    ``product_tree(..., keep_levels=False)`` — the path that never retains
    inner tree levels.  A spool whose product tree never reached the root
    (a run killed mid-tree) raises ``ValueError`` rather than GCD-ing
    against a partial-level value that covers only part of the corpus.

    >>> quick_check([91, 13], corpus_moduli=[33, 35, 55])  # 91 = 7 * 13
    [7, 1]
    """
    if (spool_dir is None) == (corpus_moduli is None):
        raise ValueError("pass exactly one of spool_dir or corpus_moduli")
    B = resolve_backend(backend)
    if spool_dir is not None:
        store = CheckpointStore(spool_dir)
        manifest = store.load()
        if manifest is None:
            raise ValueError(f"no readable manifest in {spool_dir}")
        ingest = manifest.stage("ingest")
        if ingest is None:
            raise ValueError(f"{spool_dir} has no completed product tree")
        top = len(level_sizes(ingest.count)) - 1
        root_record = manifest.stage(f"product.{top}")
        if root_record is None or root_record.count != 1:
            raise ValueError(
                f"{spool_dir} has no completed product tree root: a run killed "
                f"mid-tree leaves partial levels whose values are not the corpus "
                f"product (finish the run or resume it first)"
            )
        root = next(iter_blob(Path(spool_dir) / root_record.blob, backend=B))
    else:
        root = product_tree(
            list(corpus_moduli), keep_levels=False, backend=B, native=True
        )[-1][0]
    gcd, mod, to_int = B.gcd, B.mod, B.to_int
    return [to_int(gcd(n, mod(root, n))) for n in new_moduli]
