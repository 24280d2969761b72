"""Persistent, incrementally maintained product tree over a growing corpus.

The incremental scanner's hot path is "test a batch of ``k`` new moduli
against all ``m`` old ones".  Done pairwise that is ``k·m`` GCDs per flush;
done with a product tree it is one remainder descent: compute
``P = Π new``, push it down a tree whose leaves are the *old* moduli, and
flag every old key ``i`` with ``gcd(n_i, P mod n_i) > 1``.  Because no
``n_i`` divides ``P`` (the tree holds only old keys), the descent needs no
squaring — unlike classic batch GCD, plain ``mod`` at every node suffices.

Rebuilding the tree from scratch on every flush would cost ``m − 1``
multiplications each time.  :class:`PersistentProductTree` instead keeps
the tree as a *forest of perfect power-of-two segments* whose sizes are
the binary decomposition of ``m`` (the classic binary-counter shape):
appending a leaf adds a one-leaf segment and carry-merges equal-sized
neighbours, and a merge reuses both children's node arrays wholesale —
one multiplication per merge, ``m − 1`` multiplications *total* over the
corpus lifetime, amortized O(1) per insert with O(log m) segments live.

Persistence rides the exact storage primitives the registry commits with:
each segment is one RGSPOOL1 blob (:mod:`repro.core.spool`, nodes in
bottom-up level order) pinned by SHA-256 in an atomically rewritten
manifest (:mod:`repro.core.checkpoint`).  The commit protocol per flush is
*blobs first, manifest second*; a crash between the two leaves the old
manifest pointing at the old (still present) blobs, so a restarted
scanner resumes at the previous flush boundary without recomputing a
single product.  Any mismatch — corrupt blob, foreign manifest, or leaves
that disagree with the scanner's corpus — falls back to a full rebuild
from the moduli (counted in ``ptree.rebuilds``), which is always correct
and never trusted state over arithmetic.

The ``ptree.commit`` fault point fires before each persist attempt (on
top of the ``spool.write`` / ``manifest.commit`` points inside the
primitives), so chaos tests can kill exactly the tree's commit path.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.batch_gcd import level_sizes, product_level, remainder_level
from repro.core.checkpoint import CheckpointStore, Manifest, StageRecord
from repro.core.spool import SpoolError, read_blob, write_blob
from repro.resilience import RetryPolicy, faults
from repro.telemetry import Telemetry
from repro.util.intops import IntBackend, resolve_backend

__all__ = ["PersistentProductTree", "PTREE_FORMAT", "parse_segment"]

PTREE_FORMAT = "product-tree/1"


class _Segment:
    """One perfect power-of-two subtree: ``levels[0]`` leaves → ``levels[-1]`` root.

    Nodes are backend-native values; ``size`` is the leaf count (a power of
    two) and ``start`` the segment's first global leaf index.
    """

    __slots__ = ("start", "levels")

    def __init__(self, start: int, levels: list[list]) -> None:
        self.start = start
        self.levels = levels

    @property
    def size(self) -> int:
        return len(self.levels[0])

    @property
    def height(self) -> int:
        return len(self.levels) - 1

    @property
    def root(self):
        return self.levels[-1][0]

    def stage_name(self) -> str:
        return f"seg.{self.start}.{self.height}"

    def blob_name(self) -> str:
        return f"seg-{self.start:08d}-h{self.height:02d}.bin"

    def nodes(self) -> list:
        """Every node, bottom-up level order — the blob serialisation."""
        return [node for level in self.levels for node in level]


def parse_segment(name: str, nodes: list) -> _Segment:
    """Segment ``seg.<start>.<height>`` from its blob's nodes (``ValueError`` if bad).

    >>> parse_segment("seg.4.1", [3, 5, 15]).levels
    [[3, 5], [15]]
    """
    kind, start, _ = name.split(".")
    width = (len(nodes) + 1) // 2  # a perfect tree over w leaves has 2w−1 nodes
    if kind != "seg" or not nodes or width & (width - 1):
        raise ValueError(f"segment blob holds {len(nodes)} nodes, not 2s-1")
    levels: list[list] = []
    pos = 0
    for size in level_sizes(width):
        levels.append(nodes[pos : pos + size])
        pos += size
    seg = _Segment(int(start), levels)
    if pos != len(nodes) or seg.stage_name() != name:
        raise ValueError(f"segment blob of {len(nodes)} nodes does not match {name!r}")
    return seg


def _merge(a: _Segment, b: _Segment, B: IntBackend) -> _Segment:
    """Merge two adjacent equal-sized segments: one multiplication, all
    child nodes reused by reference."""
    levels = [a.levels[i] + b.levels[i] for i in range(len(a.levels))]
    levels.append(product_level([a.root, b.root], B))
    return _Segment(a.start, levels)


class PersistentProductTree:
    """Incrementally maintained product forest, optionally spool-backed.

    >>> t = PersistentProductTree()
    >>> t.append([3, 5, 7])
    >>> t.n_leaves, t.segment_sizes()
    (3, [2, 1])
    >>> [int(r) for r in t.batch_remainders(11 * 3)]
    [0, 3, 5]
    """

    def __init__(
        self,
        *,
        backend: str | IntBackend | None = None,
        spool_dir: str | Path | None = None,
        telemetry: Telemetry | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.backend = resolve_backend(backend)
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self.store = CheckpointStore(self.spool_dir) if self.spool_dir else None
        self.telemetry = telemetry
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=2.0)
        )
        self.segments: list[_Segment] = []
        self.n_leaves = 0
        #: blob name -> StageRecord for blobs this tree knows are on disk
        #: (written by us or verified at load); saves re-hashing per flush
        self._committed: dict[str, StageRecord] = {}

    # -- queries ---------------------------------------------------------------

    def segment_sizes(self) -> list[int]:
        """Live segment leaf counts — the binary decomposition of ``n_leaves``."""
        return [seg.size for seg in self.segments]

    def leaves(self):
        """Every leaf (backend-native), in global index order."""
        for seg in self.segments:
            yield from seg.levels[0]

    def batch_remainders(self, value) -> list:
        """``value mod n_i`` for every leaf ``n_i``, in global index order.

        ``value`` is the product of an arriving batch; the result feeds
        ``gcd(n_i, r_i)`` flagging.  No squaring anywhere: ``value`` is
        built from moduli *not* in this tree, so ``gcd(n_i, value) =
        gcd(n_i, value mod n_i)`` exactly.  Descending top-down means the
        huge upper nodes absorb the reduction once per segment instead of
        once per leaf.
        """
        B = self.backend
        value = B.from_int(value)
        out: list = []
        for seg in self.segments:
            rems = [B.mod(value, seg.root)]
            for level in reversed(seg.levels[:-1]):
                rems = remainder_level(rems, level, B, square=False)
            out.extend(rems)
        return out

    # -- growth ----------------------------------------------------------------

    def append(self, values: list[int]) -> None:
        """Append leaves (carry-merging as needed) and persist the new shape."""
        if not values:
            return
        B = self.backend
        merges = 0
        for v in values:
            self.segments.append(_Segment(self.n_leaves, [[B.from_int(v)]]))
            self.n_leaves += 1
            while (
                len(self.segments) >= 2
                and self.segments[-1].size == self.segments[-2].size
            ):
                b = self.segments.pop()
                a = self.segments.pop()
                self.segments.append(_merge(a, b, B))
                merges += 1
        if self.telemetry is not None:
            reg = self.telemetry.registry
            reg.counter("ptree.node_merges").inc(merges)
            reg.gauge("ptree.leaves").set(self.n_leaves)
            reg.gauge("ptree.segments").set(len(self.segments))
        self._persist()

    # -- persistence -----------------------------------------------------------

    def _manifest(self) -> Manifest:
        return Manifest(
            config={"format": PTREE_FORMAT, "n_leaves": self.n_leaves},
            stages=[],
        )

    def _persist(self) -> None:
        """Commit the live forest: new segment blobs first, manifest second.

        Blob writes go through ``spool.atomic_write`` (idempotent under
        retry); stale blobs from superseded segments are unlinked only
        after the manifest no longer references them, so no crash window
        ever leaves the manifest pointing at a missing file.
        """
        if self.store is None:
            return
        store = self.store
        manifest = self._manifest()
        writes = 0

        def commit_blobs() -> list[StageRecord]:
            nonlocal writes
            faults.fire("ptree.commit")
            self.spool_dir.mkdir(parents=True, exist_ok=True)
            records = []
            for seg in self.segments:
                blob = seg.blob_name()
                record = self._committed.get(blob)
                if record is None:
                    info = write_blob(self.spool_dir / blob, seg.nodes())
                    faults.corrupt_file("ptree.commit", info.path)
                    record = StageRecord.from_blob(seg.stage_name(), info)
                    writes += 1
                records.append(record)
            return records

        manifest.stages = self.retry_policy.run(
            commit_blobs, on_retry=self._on_retry
        )
        self.retry_policy.run(
            lambda: store.save(manifest), on_retry=self._on_retry
        )
        self._committed = {record.blob: record for record in manifest.stages}
        live = set(self._committed)
        for stray in self.spool_dir.glob("seg-*.bin"):
            if stray.name not in live:
                try:
                    stray.unlink()
                except OSError:  # a stray blob is harmless; never fail a commit on it
                    pass
        if self.telemetry is not None:
            self.telemetry.registry.counter("ptree.blob_writes").inc(writes)

    def _on_retry(self, attempt: int, delay: float, exc: BaseException) -> None:
        if self.telemetry is not None:
            self.telemetry.registry.counter("ptree.commit_retries").inc()
            self.telemetry.emit(
                "ptree.commit.retry", attempt=attempt,
                delay=round(delay, 4), error=repr(exc),
            )

    # -- restore ---------------------------------------------------------------

    def load_or_rebuild(self, moduli: list[int]) -> bool:
        """Make this (empty) tree hold exactly ``moduli``.

        Tries the spool first: every referenced blob must re-verify, the
        segment shapes must form the binary decomposition of
        ``len(moduli)`` over contiguous leaf ranges, and the stored leaves
        must equal ``moduli`` value-for-value.  Anything less falls back
        to a rebuild from scratch (``ptree.rebuilds`` counts these).
        Returns True when the spool satisfied the load.
        """
        if self.n_leaves:
            raise ValueError("load_or_rebuild requires an empty tree")
        if self.store is not None and self._try_load(moduli):
            if self.telemetry is not None:
                reg = self.telemetry.registry
                reg.gauge("ptree.leaves").set(self.n_leaves)
                reg.gauge("ptree.segments").set(len(self.segments))
            return True
        if self.store is not None and self.telemetry is not None:
            self.telemetry.registry.counter("ptree.rebuilds").inc()
        self.segments = []
        self.n_leaves = 0
        self.append(moduli)
        return False

    def _try_load(self, moduli: list[int]) -> bool:
        manifest = self.store.load()
        if manifest is None or manifest.config.get("format") != PTREE_FORMAT:
            return False
        if manifest.config.get("n_leaves") != len(moduli):
            return False
        from_int, to_int = self.backend.from_int, self.backend.to_int
        segments: list[_Segment] = []
        start = 0
        for record in manifest.stages:
            if not self.store.verify(record):
                return False
            try:
                nodes = read_blob(self.spool_dir / record.blob)
                seg = parse_segment(record.name, [from_int(v) for v in nodes])
            except (OSError, SpoolError, ValueError):
                return False
            if seg.start != start or record.blob != seg.blob_name():
                return False
            if segments and seg.size >= segments[-1].size:
                return False  # not a binary-counter forest
            if seg.levels[0] != [from_int(n) for n in moduli[start : start + seg.size]]:
                return False  # leaves disagree with the corpus
            segments.append(seg)
            start += seg.size
        if start != len(moduli):
            return False
        self.segments = segments
        self.n_leaves = start
        self._committed = {record.blob: record for record in manifest.stages}
        return True
