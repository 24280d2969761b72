"""Incremental weak-key scanning: keys arrive in batches.

The paper's motivating scenario — keys scraped from the Web — is a stream,
not a snapshot.  Rescanning all ``m(m−1)/2`` pairs on every arrival wastes
quadratic work; an arriving batch of ``k`` keys only creates ``k·m_old``
cross pairs plus ``k(k−1)/2`` internal ones.  :class:`IncrementalScanner`
maintains the corpus and covers exactly those new pairs, reporting hits in
*global* key indices.

Three engine tiers cover the new pairs, and ``auto`` picks between two of
them (hit sets are identical across all of them — property-tested in
``tests/core/test_incremental_stateful.py``).  :data:`ENGINES` is the one
table every engine choice is made from:

``bulk``
    the paper's SIMT simulation, one word-level GCD per pair — the
    measurement subject;
``native``
    one big-integer GCD per pair via :mod:`repro.util.intops` — the
    simple serving path;
``ptree``
    a :class:`~repro.core.ptree.PersistentProductTree` over the old
    corpus: the batch is tested against *all* old keys with a single
    remainder descent of ``Π new`` (no squaring needed — new keys are
    never in the tree), plus a direct ``k(k−1)/2`` internal pass.
    Amortizes the flush to roughly O(m·log k) big-integer work instead of
    ``k·m`` independent GCDs;
``auto``
    picks ``native`` or ``ptree`` per batch from the measured crossover
    in ``BENCH_e2e.json`` (see :data:`AUTO_MIN_CROSS_PAIRS`), while always
    keeping the tree maintained so either choice stays available.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.bulk.engine import BulkGcdEngine
from repro.core.attack import WeakHit
from repro.core.ptree import PersistentProductTree
from repro.telemetry import Telemetry
from repro.util.intops import IntBackend, resolve_backend

__all__ = [
    "AUTO_MIN_CROSS_PAIRS",
    "BatchReport",
    "ENGINES",
    "EngineTier",
    "IncrementalScanner",
    "SCAN_CONFIG_FIELDS",
    "SNAPSHOT_VERSION",
]

#: bump when the :meth:`IncrementalScanner.snapshot` payload changes shape
SNAPSHOT_VERSION = 2

#: the scan-configuration fields a snapshot records and
#: :meth:`IncrementalScanner.restore` may override
SCAN_CONFIG_FIELDS = ("algorithm", "d", "chunk_pairs", "early_terminate", "engine")

#: ``auto`` switches from pairwise ``native`` to the ``ptree`` descent when
#: a batch creates at least this many cross pairs (``k·m_old``).  The value
#: is the measured crossover from ``benchmarks/bench_e2e_scaling.py
#: --incremental`` (see BENCH_e2e.json and docs/PERFORMANCE.md): below it
#: — essentially only single-key flushes against small corpora — the
#: descent's fixed costs (batch product, per-leaf flag GCDs) exceed the
#: pairwise GCDs it saves.
AUTO_MIN_CROSS_PAIRS = 256


@dataclass
class BatchReport:
    """What one arriving batch revealed.

    >>> from repro.core.attack import WeakHit
    >>> BatchReport(batch_index=0, new_keys=2, total_keys=5,
    ...             hits=[WeakHit(1, 3, 7)]).hit_pairs
    {(1, 3)}
    """

    batch_index: int
    new_keys: int
    total_keys: int
    pairs_tested: int = 0
    hits: list[WeakHit] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: the engine tier that actually covered this batch (resolves ``auto``)
    engine: str = ""
    #: scanner-lifetime telemetry snapshot as of this batch's completion
    metrics: dict = field(default_factory=dict)

    @property
    def hit_pairs(self) -> set[tuple[int, int]]:
        return {(h.i, h.j) for h in self.hits}


def _merge_hits(existing: list[WeakHit], new: list[WeakHit]) -> list[WeakHit]:
    """Merge two (i, j)-sorted hit lists — O(total), no full re-sort."""
    if not new:
        return existing
    if not existing:
        return list(new)
    out: list[WeakHit] = []
    a = b = 0
    while a < len(existing) and b < len(new):
        if (existing[a].i, existing[a].j) <= (new[b].i, new[b].j):
            out.append(existing[a])
            a += 1
        else:
            out.append(new[b])
            b += 1
    out.extend(existing[a:])
    out.extend(new[b:])
    return out


class IncrementalScanner:
    """Streamed all-pairs scanning over an append-only modulus collection.

    >>> scanner = IncrementalScanner(bits=16)
    >>> first = scanner.add_batch([193 * 197, 211 * 227])
    >>> (first.pairs_tested, first.hits)
    (1, [])
    >>> second = scanner.add_batch([193 * 199])  # only 2 new pairs scanned
    >>> [(h.i, h.j, h.prime) for h in second.hits]
    [(0, 2, 193)]
    >>> scanner.coverage_is_complete()
    True
    """

    def __init__(
        self,
        *,
        bits: int,
        algorithm: str = "approx",
        d: int = 32,
        chunk_pairs: int = 4096,
        early_terminate: bool = True,
        engine: str = "bulk",
        int_backend: str | IntBackend | None = None,
        spool_dir: str | Path | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        """``bits`` fixes the modulus size up front (the early-terminate
        threshold must be corpus-wide); ``chunk_pairs`` caps bulk batch
        sizes so memory stays bounded as the corpus grows.  ``telemetry``
        persists across batches — the scanner is long-lived, so its
        counters tell the stream's whole story.

        ``engine`` picks the coverage tier (a key of :data:`ENGINES`);
        ``int_backend`` selects the big-integer implementation for every
        tier except ``bulk``.  ``spool_dir`` checkpoints the ``ptree``
        tier's product tree on disk (RGSPOOL1 blobs + pinned manifest),
        so a restarted scanner reloads it instead of re-multiplying the
        corpus; without it the tree lives in memory only."""
        if bits < 16 or bits % 2:
            raise ValueError(f"bits must be an even size >= 16, got {bits}")
        if chunk_pairs < 1:
            raise ValueError("chunk_pairs must be >= 1")
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {tuple(ENGINES)}")
        self.bits = bits
        self.stop_bits = bits // 2 if early_terminate else None
        self.chunk_pairs = chunk_pairs
        self.algorithm = algorithm
        self.d = d
        self.engine_name = engine
        self.tier = ENGINES[engine]
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self.engine = BulkGcdEngine(d=d, algorithm=algorithm) if engine == "bulk" else None
        self.backend = resolve_backend(int_backend) if self.tier.int_backend else None
        self.telemetry = telemetry if telemetry is not None else Telemetry.create()
        self.moduli: list[int] = []
        self.all_hits: list[WeakHit] = []
        self.total_pairs_tested = 0
        self._batches = 0
        #: ptree tier state, built lazily (restore swaps the corpus in first)
        self._ptree: PersistentProductTree | None = None

    def _ensure_engine_state(self) -> None:
        """Build the lazy product tree for the current corpus."""
        if self.tier.ptree and self._ptree is None:
            tree = PersistentProductTree(
                backend=self.backend, spool_dir=self.spool_dir,
                telemetry=self.telemetry,
            )
            tree.load_or_rebuild(self.moduli)
            self._ptree = tree

    def _check(self, moduli: list[int]) -> None:
        for n in moduli:
            if n <= 1 or n % 2 == 0:
                raise ValueError("RSA moduli must be odd and > 1")
            if n.bit_length() != self.bits:
                raise ValueError(
                    f"modulus of {n.bit_length()} bits in a {self.bits}-bit scanner"
                )

    def _extend(self, new_moduli: list[int]) -> None:
        """Grow the corpus and the engine state that tracks it."""
        if self.tier.ptree:
            # auto maintains the tree even on pairwise batches, so the
            # next flush can still choose the descent
            self._ptree.append(new_moduli)
        self.moduli.extend(new_moduli)

    # -- scanning --------------------------------------------------------------

    def _cover(
        self, new_moduli: list[int], *, include_internal: bool, adopt: bool
    ) -> BatchReport:
        """The path :meth:`add_batch` (``adopt=True``) and :meth:`cross_scan`
        share: validate, resolve the engine, cover the batch's new pairs —
        and, when adopting, grow the corpus — inside one timed span."""
        self._check(new_moduli)
        tel = self.telemetry
        self._ensure_engine_state()
        base = len(self.moduli)
        k = len(new_moduli)
        engine = self.tier.pick(base, k) if self.tier.pick else self.engine_name
        report = BatchReport(
            batch_index=-1, new_keys=k, total_keys=base + k, engine=engine
        )
        if adopt:
            report.batch_index = self._batches
            self._batches += 1
            tel.emit("batch.start", batch=report.batch_index, engine=engine,
                     new_keys=report.new_keys, total_keys=report.total_keys)
        clock = tel.timer.clock
        started = clock()
        with tel.timer.span("batch" if adopt else "cross"):
            ENGINES[engine].cover(self, new_moduli, base, report, include_internal)
            if adopt:
                self._extend(new_moduli)
        # each batch owns its own span measurement: deriving it from the
        # shared timer total mis-attributes time under nested or
        # concurrent spans (the timer keys by slash-joined path)
        report.elapsed_seconds = clock() - started
        report.hits.sort(key=lambda h: (h.i, h.j))
        report.pairs_tested = base * k + (k * (k - 1) // 2 if include_internal else 0)
        reg = tel.registry
        reg.counter("scan.pairs_tested").inc(report.pairs_tested)
        reg.counter("scan.hits").inc(len(report.hits))
        return report

    def add_batch(self, new_moduli: list[int]) -> BatchReport:
        """Ingest a batch, covering only the pairs it creates."""
        report = self._cover(new_moduli, include_internal=True, adopt=True)
        self.total_pairs_tested += report.pairs_tested
        self.all_hits = _merge_hits(self.all_hits, report.hits)
        tel = self.telemetry
        reg = tel.registry
        reg.counter("incremental.batches").inc()
        reg.counter(f"incremental.engine.{report.engine}").inc()
        reg.counter("incremental.keys").inc(report.new_keys)
        reg.histogram("incremental.batch_pairs").observe(report.pairs_tested)
        report.metrics = tel.snapshot()
        tel.emit("batch.done", batch=report.batch_index, engine=report.engine,
                 pairs=report.pairs_tested, hits=len(report.hits),
                 elapsed_seconds=report.elapsed_seconds)
        return report

    def cross_scan(
        self, new_moduli: list[int], *, include_internal: bool = False
    ) -> BatchReport:
        """Test an external batch against the corpus **without adopting it**.

        The sharded service (``repro.service.shard``) partitions each
        admitted batch's pairs across workers: every shard cross-scans the
        full batch against its local slice, exactly one shard also covers
        the batch's internal pairs (``include_internal=True``), and each
        shard then :meth:`adopt`\\ s only the keys it owns.  Hits are
        reported as ``(corpus_index, base + batch_position)`` — the same
        shape :meth:`add_batch` uses — and neither the corpus, the engine
        state, nor the pairs accounting is mutated.

        >>> s = IncrementalScanner(bits=16)
        >>> _ = s.add_batch([193 * 197])
        >>> r = s.cross_scan([193 * 199, 211 * 227], include_internal=True)
        >>> ([(h.i, h.j, h.prime) for h in r.hits], r.pairs_tested, s.n_keys)
        ([(0, 1, 193)], 3, 1)
        """
        report = self._cover(new_moduli, include_internal=include_internal, adopt=False)
        self.telemetry.registry.counter("incremental.cross_scans").inc()
        report.metrics = self.telemetry.snapshot()
        return report

    def adopt(self, new_moduli: list[int]) -> None:
        """Extend the corpus (and engine state) **without scanning**.

        The dual of :meth:`cross_scan`: pairs involving these keys were
        covered elsewhere (by this scanner's own cross-scan against them,
        or by a sibling shard), so only membership changes — the ptree
        carry-merges the new leaves and ``total_pairs_tested`` is
        untouched.

        >>> s = IncrementalScanner(bits=16)
        >>> s.adopt([193 * 197, 193 * 199])
        >>> (s.n_keys, s.total_pairs_tested)
        (2, 0)
        """
        self._check(new_moduli)
        if not new_moduli:
            return
        self._ensure_engine_state()
        self._extend(new_moduli)
        self.telemetry.registry.counter("incremental.adopted_keys").inc(len(new_moduli))

    def _cover_pairwise(
        self, new_moduli: list[int], base: int, report: BatchReport,
        include_internal: bool,
    ) -> None:
        """One GCD per new pair: every new key against every old key, plus
        new-new pairs — chunked so memory stays bounded.  The ``bulk``
        tier runs each chunk on the SIMT engine, ``native`` on the
        big-integer backend."""
        tel = self.telemetry
        index_pairs: list[tuple[int, int]] = []
        for t, _ in enumerate(new_moduli):
            gk = base + t
            index_pairs.extend((old, gk) for old in range(base))
            if include_internal:
                index_pairs.extend((base + u, gk) for u in range(t))
        corpus = self.moduli + new_moduli
        for start in range(0, len(index_pairs), self.chunk_pairs):
            chunk = index_pairs[start : start + self.chunk_pairs]
            values = [(corpus[a], corpus[b]) for a, b in chunk]
            if self.engine is not None:
                result = self.engine.run_pairs(
                    values, stop_bits=self.stop_bits, compact=True, telemetry=tel
                )
                gcds = result.gcds
            else:
                gcd, to_int = self.backend.gcd, self.backend.to_int
                gcds = [to_int(gcd(a, b)) for a, b in values]
            for (a, b), g in zip(chunk, gcds):
                if g > 1:
                    report.hits.append(WeakHit(a, b, g))
            tel.advance(len(chunk))

    def _cover_ptree(
        self, new_moduli: list[int], base: int, report: BatchReport,
        include_internal: bool,
    ) -> None:
        """Cross pairs via one remainder descent of ``Π new`` down the
        persistent tree; flagged old keys are attributed to their partners
        with small GCDs against the flag value.  The ``k(k−1)/2`` new-new
        pairs go direct (batches are small)."""
        tel = self.telemetry
        B = self.backend
        gcd, to_int, from_int = B.gcd, B.to_int, B.from_int
        one = B.from_int(1)
        native_new = [from_int(n) for n in new_moduli]
        if base and new_moduli:
            with tel.timer.span("descend"):
                p_new = B.prod(native_new)
                rems = self._ptree.batch_remainders(p_new)
            for i, (leaf, r) in enumerate(zip(self._ptree.leaves(), rems)):
                g = gcd(leaf, r)
                if g <= one:
                    continue
                # g = gcd(n_i, Π new) holds every prime key i shares with
                # the batch, so candidate partners filter on gcd(g, n_k)
                # — and every candidate is a genuine hit
                for t, nk in enumerate(native_new):
                    if to_int(gcd(g, nk)) > 1:
                        report.hits.append(
                            WeakHit(i, base + t, to_int(gcd(leaf, nk)))
                        )
            tel.advance(base)
        if include_internal:
            for t in range(1, len(native_new)):
                for u in range(t):
                    g = to_int(gcd(native_new[u], native_new[t]))
                    if g > 1:
                        report.hits.append(WeakHit(base + u, base + t, g))

    # -- accounting ------------------------------------------------------------

    @property
    def n_keys(self) -> int:
        return len(self.moduli)

    def coverage_is_complete(self) -> bool:
        """True iff the pairs covered so far equal all pairs of the corpus —
        the invariant that incremental scanning never misses a pair."""
        m = len(self.moduli)
        return self.total_pairs_tested == m * (m - 1) // 2

    def snapshot(self) -> dict:
        """The scanner's whole state as a JSON-ready dict.

        Everything :meth:`restore` needs to resume the stream without
        rescanning a single old-vs-old pair: the corpus, every hit found so
        far, the pairs-tested accounting, and the scan configuration —
        including the *resolved* big-integer backend, so a restore on a
        host missing that backend fails loudly instead of silently
        switching arithmetic.  The registry service persists an equivalent
        of this across restarts.

        >>> s = IncrementalScanner(bits=16)
        >>> _ = s.add_batch([193 * 197, 193 * 199])
        >>> s2 = IncrementalScanner.restore(s.snapshot())
        >>> (s2.n_keys, [(h.i, h.j) for h in s2.all_hits], s2.coverage_is_complete())
        (2, [(0, 1)], True)
        """
        return {
            "version": SNAPSHOT_VERSION,
            "bits": self.bits,
            "engine": self.engine_name,
            "int_backend": self.backend.name if self.backend is not None else None,
            "algorithm": self.algorithm,
            "d": self.d,
            "chunk_pairs": self.chunk_pairs,
            "early_terminate": self.stop_bits is not None,
            "moduli": list(self.moduli),
            "hits": [[h.i, h.j, h.prime] for h in self.all_hits],
            "total_pairs_tested": self.total_pairs_tested,
            "batches": self._batches,
        }

    @classmethod
    def restore(
        cls,
        state: dict,
        *,
        int_backend: str | IntBackend | None = None,
        spool_dir: str | Path | None = None,
        telemetry: Telemetry | None = None,
        **overrides,
    ) -> IncrementalScanner:
        """Rebuild a scanner from a :meth:`snapshot` payload.

        The restored scanner picks up exactly where the snapshot left off:
        the next :meth:`add_batch` scans only new-vs-old and new-vs-new
        pairs, and no hit already in the snapshot is ever re-reported.
        ``overrides`` may replace any of :data:`SCAN_CONFIG_FIELDS` — the
        corpus facts cannot change; a field neither the payload nor the
        caller gives takes the constructor's default.

        The payload's recorded ``int_backend`` is resolved again unless
        the caller overrides it explicitly, and restoring raises if that
        backend is not importable here.
        """
        if not isinstance(state, dict):
            raise ValueError("snapshot must be a dict")
        version = state.get("version")
        if version != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported scanner snapshot version {version!r}"
            )
        unknown = set(overrides) - set(SCAN_CONFIG_FIELDS)
        if unknown:
            raise ValueError(f"unknown restore overrides: {sorted(unknown)}")
        config = {k: state[k] for k in SCAN_CONFIG_FIELDS if k in state}
        config.update(overrides)
        if int_backend is None:
            # pin to the snapshot's resolved backend: a missing gmpy2 here
            # raises from resolve_backend instead of silently downgrading
            int_backend = state.get("int_backend")
        scanner = cls(
            bits=int(state["bits"]), int_backend=int_backend,
            spool_dir=spool_dir, telemetry=telemetry, **config,
        )
        moduli = [int(n) for n in state["moduli"]]
        for n in moduli:
            if n <= 1 or n % 2 == 0 or n.bit_length() != scanner.bits:
                raise ValueError(f"snapshot modulus {n} invalid for a {scanner.bits}-bit scanner")
        hits = [WeakHit(int(i), int(j), int(p)) for i, j, p in state["hits"]]
        m = len(moduli)
        for h in hits:
            if not (0 <= h.i < h.j < m):
                raise ValueError(f"snapshot hit ({h.i}, {h.j}) out of range for {m} keys")
        total = int(state["total_pairs_tested"])
        if not 0 <= total <= m * (m - 1) // 2:
            raise ValueError(f"snapshot pairs_tested {total} impossible for {m} keys")
        scanner.moduli = moduli
        scanner.all_hits = sorted(hits, key=lambda h: (h.i, h.j))
        scanner.total_pairs_tested = total
        scanner._batches = int(state["batches"])
        scanner._ensure_engine_state()
        return scanner


@dataclass(frozen=True)
class EngineTier:
    """One row of :data:`ENGINES`: everything engine selection needs."""

    #: per-pair work runs on the :mod:`repro.util.intops` backend
    int_backend: bool
    #: the persistent product tree is kept current on every batch
    ptree: bool
    #: covers a batch's new pairs: ``(scanner, new_moduli, base, report,
    #: include_internal)``; ``None`` for a tier that only picks another
    cover: Callable[..., None] | None = None
    #: the ``auto`` rule: ``(base, k)`` -> the tier covering this batch
    pick: Callable[[int, int], str] | None = None


def _auto_pick(base: int, k: int) -> str:
    """Pairwise below the measured crossover in cross pairs, tree descent
    above it."""
    return "ptree" if base * k >= AUTO_MIN_CROSS_PAIRS else "native"


#: every engine tier by name — scanner construction, per-batch dispatch,
#: the CLI's ``--stream-engine``/``--scan-engine`` choices and the tests'
#: engine lists all read this one table
ENGINES: dict[str, EngineTier] = {
    "bulk": EngineTier(
        int_backend=False, ptree=False, cover=IncrementalScanner._cover_pairwise
    ),
    "native": EngineTier(
        int_backend=True, ptree=False, cover=IncrementalScanner._cover_pairwise
    ),
    "ptree": EngineTier(
        int_backend=True, ptree=True, cover=IncrementalScanner._cover_ptree
    ),
    "auto": EngineTier(int_backend=True, ptree=True, pick=_auto_pick),
}
