"""The sharded scanner fleet: a consistent-hash router over N worker processes.

The paper's §VI group schedule blocks the all-pairs workload into ``(i, j)``
tiles over groups of ``r`` moduli precisely so independent compute units can
own disjoint slices.  This module generalises that schedule to the serving
path: a :class:`ShardRouter` owns ``N`` supervised worker processes, each
running its own :class:`~repro.core.incremental.IncrementalScanner` (with
the usual engine auto-pick) over a consistent-hash slice of the modulus
space.

**Pair-coverage partition.**  For an admitted batch ``B`` of ``b`` fresh
keys against a corpus of ``M`` keys split as ``M = Σ m_k``:

* every shard ``k`` cross-scans the *full* batch against its local slice —
  ``m_k · b`` pairs, hits reported in global indices;
* exactly one shard (``job % N``) also covers the batch's ``b(b−1)/2``
  internal pairs;
* each shard then *adopts* only its hash-owned subset of the batch.

Per batch the shards cover ``Σ_k m_k·b + b(b−1)/2 = M·b + b(b−1)/2`` pairs
— exactly what the single scanner would have covered — so over a session
``Σ_k pairs_k = M(M−1)/2`` and the hit set is identical to the 1-shard run
(pinned by ``tests/service/test_shard.py``).

**Durability and exactly-once.**  Delivery is at-least-once (a crashed
shard gets its unacknowledged job replayed); application is exactly-once:
a worker persists its snapshot — corpus slice, pair watermark, the job id
*and that job's hits* — under ``state_dir/shards/<k>/`` **before** acking
(the ``shard.commit`` fault point), so a replay of an already-applied job
returns the stored hits without rescanning.  The router gathers all acks,
records per-shard watermarks into the registry manifest config, and only
then runs the registry's blobs-then-manifest commit: shard state is always
at or one job ahead of the registry, never behind.  On restart the
registry is the durable truth — a shard snapshot that is ahead, stale, or
shaped for a different shard count is rebuilt from the registry's slice
(``shard.rebalance`` telemetry on a count change).

Failure handling mirrors :class:`~repro.resilience.supervisor.ChunkSupervisor`
semantics: a SIGKILL'd worker is respawned, restores its snapshot, and
replays only the in-flight job; per-job attempt budgets catch poison
batches (:class:`ShardJobFailed`) and consecutive no-progress respawns
bound crash loops (:class:`ShardPoolExhausted`).  ``docs/SHARDING.md`` has
the full protocol, ordering model and failure matrix.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.attack import WeakHit
from repro.core.incremental import IncrementalScanner
from repro.core.spool import atomic_write, write_sidecar
from repro.resilience import faults
from repro.resilience.errors import FatalError, TransientError
from repro.telemetry import Telemetry

__all__ = [
    "SHARD_SNAPSHOT_FORMAT",
    "ShardJobFailed",
    "ShardPoolExhausted",
    "ShardRing",
    "ShardRouter",
    "simulate_watermarks",
]

#: on-disk format tag of ``state_dir/shards/<k>/shard.json``
SHARD_SNAPSHOT_FORMAT = "repro.shard-snapshot/1"

#: virtual nodes per shard on the hash ring — enough for a few-percent
#: balance spread at single-digit shard counts without bloating lookups
DEFAULT_RING_REPLICAS = 32


class ShardJobFailed(FatalError):
    """One shard exhausted its per-job attempt budget — a poison batch."""


class ShardPoolExhausted(FatalError):
    """Consecutive respawns with no completed job — a shard crash loop."""


class ShardRing:
    """Consistent-hash assignment of moduli to shards.

    Each shard owns ``replicas`` points on a SHA-256 ring; a modulus maps
    to the first point at or after its own hash.  The mapping depends only
    on ``(shards, replicas, n)``, so every process — router, workers,
    tests — computes identical ownership with no coordination.

    >>> ring = ShardRing(3)
    >>> owners = {ring.owner(193 * 197), ring.owner(211 * 227)}
    >>> all(0 <= k < 3 for k in owners)
    True
    """

    def __init__(self, shards: int, *, replicas: int = DEFAULT_RING_REPLICAS) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.shards = shards
        self.replicas = replicas
        points: list[tuple[int, int]] = []
        for k in range(shards):
            for r in range(replicas):
                digest = hashlib.sha256(f"repro.shard:{k}:{r}".encode()).digest()
                points.append((int.from_bytes(digest[:8], "big"), k))
        points.sort()
        self._keys = [p[0] for p in points]
        self._shards = [p[1] for p in points]

    def owner(self, n: int) -> int:
        """The shard that owns modulus ``n``."""
        if self.shards == 1:
            return 0
        raw = n.to_bytes((n.bit_length() + 7) // 8 or 1, "big")
        h = int.from_bytes(hashlib.sha256(raw).digest()[:8], "big")
        idx = bisect_right(self._keys, h) % len(self._keys)
        return self._shards[idx]


def simulate_watermarks(
    moduli: list[int], batch_sizes: list[int], ring: ShardRing
) -> tuple[list[int], list[int]]:
    """Replay the admission history to recompute per-shard watermarks.

    Returns ``(keys_per_shard, pairs_per_shard)`` such that
    ``sum(pairs) == M(M−1)/2`` — the deterministic fallback when a shard
    rebuilds from a registry whose manifest predates sharding or was
    written for a different shard count.

    >>> ring = ShardRing(2)
    >>> keys, pairs = simulate_watermarks([15, 21, 35], [2, 1], ring)
    >>> (sum(keys), sum(pairs))
    (3, 3)
    """
    shards = ring.shards
    keys = [0] * shards
    pairs = [0] * shards
    pos = 0
    for job, size in enumerate(batch_sizes):
        for k in range(shards):
            pairs[k] += keys[k] * size
        pairs[job % shards] += size * (size - 1) // 2
        for n in moduli[pos : pos + size]:
            keys[ring.owner(n)] += 1
        pos += size
    if pos != len(moduli):
        raise ValueError(
            f"batch sizes sum to {pos} but the corpus holds {len(moduli)} keys"
        )
    return keys, pairs


def _state_digest(shards: int, replicas: int, indices: list[int], moduli: list[int]) -> str:
    """Fingerprint of a shard's corpus slice, comparable across processes."""
    h = hashlib.sha256()
    h.update(f"{shards}:{replicas}".encode())
    for i, n in zip(indices, moduli):
        h.update(f":{i}={n}".encode())
    return h.hexdigest()


def _batch_fingerprint(moduli: list[int]) -> str:
    """Identity of one admitted batch — replay-dedup is keyed on (job, fp)."""
    h = hashlib.sha256()
    for n in moduli:
        h.update(f"{n},".encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# worker side (child process)
# ---------------------------------------------------------------------------


class _ShardWorker:
    """One shard's state machine, living in its own process.

    Job protocol: cross-scan the full batch against the local slice →
    adopt the hash-owned subset → persist the snapshot (``shard.commit``)
    → ack.  An ack therefore *implies* durability; a replay of the applied
    job returns the stored hits without rescanning.
    """

    def __init__(
        self,
        shard: int,
        shards: int,
        replicas: int,
        state_dir: str,
        engine: str,
        int_backend: str | None,
    ) -> None:
        self.shard = shard
        self.shards = shards
        self.replicas = replicas
        self.ring = ShardRing(shards, replicas=replicas)
        self.dir = Path(state_dir) / "shards" / str(shard)
        self.engine = engine
        self.int_backend = int_backend
        self.telemetry = Telemetry.create()
        self.scanner: IncrementalScanner | None = None
        self.indices: list[int] = []
        self.pairs_tested = 0
        self.applied_job: int | None = None
        self.applied_fp: str | None = None
        self.applied_hits: list[list[int]] = []
        self.applied_pairs = 0
        self.persisted = True

    # -- persistence --------------------------------------------------------

    @property
    def snapshot_path(self) -> Path:
        return self.dir / "shard.json"

    def _persist(self) -> None:
        faults.fire("shard.commit")
        payload = {
            "format": SHARD_SNAPSHOT_FORMAT,
            "shard": self.shard,
            "shards": self.shards,
            "replicas": self.replicas,
            "scanner": self.scanner.snapshot() if self.scanner is not None else None,
            "indices": list(self.indices),
            "pairs_tested": self.pairs_tested,
            "job": self.applied_job,
            "job_fp": self.applied_fp,
            "job_hits": [list(h) for h in self.applied_hits],
            "job_pairs": self.applied_pairs,
        }
        self.dir.mkdir(parents=True, exist_ok=True)
        _, digest = atomic_write(self.snapshot_path, [json.dumps(payload).encode("utf-8")])
        faults.corrupt_file("shard.commit", self.snapshot_path)
        write_sidecar(self.snapshot_path, digest)
        self.persisted = True

    def _load(self) -> bool:
        try:
            with open(self.snapshot_path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return False
        if (
            not isinstance(payload, dict)
            or payload.get("format") != SHARD_SNAPSHOT_FORMAT
            or payload.get("shard") != self.shard
            or payload.get("shards") != self.shards
            or payload.get("replicas") != self.replicas
        ):
            return False
        try:
            scanner_state = payload["scanner"]
            if scanner_state is not None:
                self.scanner = IncrementalScanner.restore(
                    scanner_state,
                    int_backend=self.int_backend,
                    spool_dir=self.dir / "ptree",
                    telemetry=self.telemetry,
                    engine=self.engine,
                )
            else:
                self.scanner = None
            indices = [int(i) for i in payload["indices"]]
            n_local = self.scanner.n_keys if self.scanner is not None else 0
            if len(indices) != n_local:
                raise ValueError("indices/corpus length mismatch")
            self.indices = indices
            self.pairs_tested = int(payload["pairs_tested"])
            self.applied_job = payload["job"]
            self.applied_fp = payload.get("job_fp")
            self.applied_hits = [
                [int(a), int(b), int(p)] for a, b, p in payload.get("job_hits", [])
            ]
            self.applied_pairs = int(payload.get("job_pairs", 0))
            self.persisted = True
            return True
        except (KeyError, ValueError, TypeError):
            self.scanner = None
            self.indices = []
            return False

    # -- state views --------------------------------------------------------

    def _digest(self) -> str:
        moduli = self.scanner.moduli if self.scanner is not None else []
        return _state_digest(self.shards, self.replicas, self.indices, moduli)

    def _status(self, *, loaded: bool) -> tuple[str, dict]:
        return (
            "status",
            {
                "loaded": loaded,
                "job": self.applied_job,
                "keys": len(self.indices),
                "pairs_total": self.pairs_tested,
                "digest": self._digest(),
            },
        )

    def _ack(self, *, replayed: bool) -> tuple[str, dict]:
        return (
            "ack",
            {
                "job": self.applied_job,
                "hits": [list(h) for h in self.applied_hits],
                "pairs": self.applied_pairs,
                "keys": len(self.indices),
                "pairs_total": self.pairs_tested,
                "replayed": replayed,
            },
        )

    # -- command handlers ----------------------------------------------------

    def _ensure_scanner(self, bits: int) -> IncrementalScanner:
        if self.scanner is None:
            self.scanner = IncrementalScanner(
                bits=bits,
                engine=self.engine,
                int_backend=self.int_backend,
                spool_dir=self.dir / "ptree",
                telemetry=self.telemetry,
            )
        return self.scanner

    def handle_init(self, payload: dict) -> tuple[str, dict]:
        state = payload.get("state")
        if state is None:
            return self._status(loaded=self._load())
        # explicit rebuild from the registry's slice — the durable truth
        self.scanner = None
        moduli = [int(n) for n in state["moduli"]]
        bits = state.get("bits")
        if moduli:
            self._ensure_scanner(bits or moduli[0].bit_length()).adopt(moduli)
        self.indices = [int(i) for i in state["indices"]]
        self.pairs_tested = int(state["pairs_tested"])
        self.applied_job = state.get("job")
        self.applied_fp = None
        self.applied_hits = []
        self.applied_pairs = 0
        self.persisted = False
        try:
            self._persist()
        except OSError:
            # memory is already the rebuilt truth; durability rides the
            # next job/sync persist, and a crash before then just earns
            # another rebuild from the registry
            pass
        return self._status(loaded=True)

    def handle_job(self, payload: dict) -> tuple[str, dict]:
        job = int(payload["job"])
        fp = payload["fp"]
        if self.applied_job is not None and job <= self.applied_job:
            if job == self.applied_job and fp == self.applied_fp:
                # replay of the applied job: retry the persist if the
                # original attempt failed, then hand back the stored hits
                if not self.persisted:
                    self._persist()
                return self._ack(replayed=True)
            return (
                "err",
                {
                    "error": f"job {job} conflicts with applied job "
                    f"{self.applied_job} (fp mismatch or out of sequence)",
                    "dead": True,
                },
            )
        base = int(payload["base"])
        moduli = [int(n) for n in payload["moduli"]]
        scanner = self._ensure_scanner(int(payload["bits"]))
        local_base = scanner.n_keys
        report = scanner.cross_scan(moduli, include_internal=bool(payload["internal"]))
        hits: list[list[int]] = []
        for h in report.hits:
            gi = self.indices[h.i] if h.i < local_base else base + (h.i - local_base)
            gj = base + (h.j - local_base)
            hits.append([gi, gj, h.prime])
        owned = [(t, n) for t, n in enumerate(moduli) if self.ring.owner(n) == self.shard]
        scanner.adopt([n for _, n in owned])
        self.indices.extend(base + t for t, _ in owned)
        self.pairs_tested += report.pairs_tested
        self.applied_job = job
        self.applied_fp = fp
        self.applied_hits = hits
        self.applied_pairs = report.pairs_tested
        self.persisted = False
        self._persist()
        return self._ack(replayed=False)

    def handle_sync(self) -> tuple[str, dict]:
        if not self.persisted:
            self._persist()
        return self._ack(replayed=True)

    def run(self, conn) -> None:
        while True:
            try:
                kind, payload = conn.recv()
            except (EOFError, OSError):
                return
            try:
                if kind == "init":
                    reply = self.handle_init(payload)
                elif kind == "job":
                    try:
                        reply = self.handle_job(payload)
                    except OSError as exc:
                        # a failed snapshot persist leaves memory consistent:
                        # the job is applied but unacked, so a replay only
                        # retries the persist — report transient, stay alive
                        reply = ("err", {"error": repr(exc), "dead": False})
                elif kind == "sync":
                    try:
                        reply = self.handle_sync()
                    except OSError as exc:
                        reply = ("err", {"error": repr(exc), "dead": False})
                elif kind == "status":
                    reply = self._status(loaded=self.scanner is not None)
                elif kind == "stop":
                    try:
                        if not self.persisted:
                            self._persist()
                    except OSError:
                        pass
                    try:
                        conn.send(("ack", {"stopped": True}))
                    finally:
                        return
                else:
                    reply = ("err", {"error": f"unknown command {kind!r}", "dead": True})
            except SystemExit:
                raise
            except BaseException as exc:  # scan/adopt state may be torn — die
                try:
                    conn.send(("err", {"error": repr(exc), "dead": True}))
                except OSError:
                    pass
                raise
            try:
                conn.send(reply)
            except OSError:
                return
            if reply[0] == "err" and reply[1].get("dead"):
                sys.exit(81)


def _shard_worker_main(
    conn,
    shard: int,
    shards: int,
    replicas: int,
    state_dir: str,
    engine: str,
    int_backend: str | None,
) -> None:
    """Process entry point for one shard worker (fork- and spawn-safe)."""
    worker = _ShardWorker(shard, shards, replicas, state_dir, engine, int_backend)
    worker.run(conn)


# ---------------------------------------------------------------------------
# router side (front-door process)
# ---------------------------------------------------------------------------


@dataclass
class _Handle:
    process: multiprocessing.Process
    conn: object
    crashes: int = 0
    respawns: int = 0


@dataclass
class _Pending:
    """The in-flight (dispatched, uncommitted) job — the replay unit."""

    job: int
    fp: str
    base: int
    moduli: list[int]
    owned: list[list[int]]  # per shard: global indices this job adds
    prev_job: int | None
    internal_shard: int
    attempts: list[int] = field(default_factory=list)


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class ShardRouter:
    """Front-door side of the fleet: dispatch, gather, supervise, reconcile.

    Lifecycle: :meth:`start` (spawn + reconcile against the registry),
    :meth:`scan_batch` per admitted batch (on the service's scan thread),
    :meth:`sync` as the drain barrier *before* the final registry manifest
    sync, :meth:`stop` to tear the fleet down.
    """

    def __init__(
        self,
        *,
        state_dir: str | Path,
        shards: int,
        engine: str,
        int_backend: str | None = None,
        bits: int | None = None,
        telemetry: Telemetry | None = None,
        replicas: int = DEFAULT_RING_REPLICAS,
        max_attempts: int = 4,
        max_respawns: int = 3,
    ) -> None:
        if shards < 2:
            raise ValueError("ShardRouter needs >= 2 shards; use the in-process scanner for 1")
        self.state_dir = Path(state_dir)
        self.shards = shards
        self.replicas = replicas
        self.ring = ShardRing(shards, replicas=replicas)
        self.engine = engine
        self.int_backend = int_backend
        self.bits = bits
        self.telemetry = telemetry if telemetry is not None else Telemetry.create()
        self.max_attempts = max_attempts
        self.max_respawns = max_respawns
        self._ctx = _mp_context()
        self._workers: list[_Handle | None] = [None] * shards
        self._indices: list[list[int]] = [[] for _ in range(shards)]
        self._pairs: list[int] = [0] * shards
        self._worker_job: list[int | None] = [None] * shards
        self._pending: _Pending | None = None
        self._consecutive_respawns = 0
        self._registry = None
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self, registry) -> None:
        """Spawn the fleet and reconcile every shard against the registry."""
        if self._started:
            raise RuntimeError("router already started")
        self._registry = registry
        if registry.bits is not None:
            self.bits = registry.bits
        expected: list[list[int]] = [[] for _ in range(self.shards)]
        for i, n in enumerate(registry.moduli):
            expected[self.ring.owner(n)].append(i)
        prev = registry.shard_state()
        rebalanced = prev is not None and (
            prev.get("shards") != self.shards or prev.get("replicas") != self.replicas
        )
        if rebalanced:
            self.telemetry.registry.counter("shard.rebalances").inc()
            self.telemetry.emit(
                "shard.rebalance",
                from_shards=prev.get("shards"),
                to_shards=self.shards,
                keys=registry.n_keys,
            )
        pairs = self._recover_watermarks(registry, prev, rebalanced)
        prev_job = registry.n_batches - 1 if registry.n_batches else None
        rebuilt = []
        for k in range(self.shards):
            self._spawn(k)
            status = self._request(k, ("init", {}))
            moduli = [registry.moduli[i] for i in expected[k]]
            want = _state_digest(self.shards, self.replicas, expected[k], moduli)
            if not (
                status.get("loaded")
                and status.get("digest") == want
                and status.get("job") == prev_job
            ):
                self._rebuild(k, expected[k], moduli, pairs[k], prev_job)
                rebuilt.append(k)
            else:
                pairs[k] = status["pairs_total"]
        self._indices = expected
        self._pairs = pairs
        self._worker_job = [prev_job] * self.shards
        self._started = True
        registry.set_shard_state(self._watermark_payload())
        self._update_gauges()
        self.telemetry.emit(
            "shard.start", shards=self.shards, keys=registry.n_keys,
            rebuilt=rebuilt, rebalanced=rebalanced,
        )

    def _recover_watermarks(self, registry, prev, rebalanced: bool) -> list[int]:
        if prev is not None and not rebalanced:
            marks = prev.get("watermarks", {})
            try:
                return [int(marks[str(k)]["pairs_tested"]) for k in range(self.shards)]
            except (KeyError, TypeError, ValueError):
                pass
        _, pairs = simulate_watermarks(registry.moduli, registry.batch_sizes(), self.ring)
        return pairs

    def stop(self) -> None:
        """Tear the fleet down (drain durability came from :meth:`sync`)."""
        for k, handle in enumerate(self._workers):
            if handle is None:
                continue
            try:
                handle.conn.send(("stop", {}))
            except OSError:
                pass
        for handle in self._workers:
            if handle is None:
                continue
            handle.process.join(timeout=3.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=2.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        self._workers = [None] * self.shards
        self._started = False

    # -- the scan path -------------------------------------------------------

    def scan_batch(
        self, fresh: list[int], *, base: int, job_id: int, bits: int
    ) -> list[WeakHit]:
        """Fan one admitted batch out to every shard; return the merged hits.

        Runs on the service's single scan thread.  Raises transient errors
        for the batcher's retry policy to absorb (a retry replays the same
        job — shards that already applied it dedupe via their snapshots)
        and :class:`ShardJobFailed`/:class:`ShardPoolExhausted` when the
        budgets run out.
        """
        if not self._started:
            raise RuntimeError("router not started")
        if self.bits is None:
            self.bits = bits
        fp = _batch_fingerprint(fresh)
        if self._pending is not None and (self._pending.job, self._pending.fp) != (job_id, fp):
            self._abandon_pending()
        if self._pending is None or (self._pending.job, self._pending.fp) != (job_id, fp):
            owned: list[list[int]] = [[] for _ in range(self.shards)]
            for t, n in enumerate(fresh):
                owned[self.ring.owner(n)].append(base + t)
            self._pending = _Pending(
                job=job_id, fp=fp, base=base, moduli=list(fresh), owned=owned,
                prev_job=job_id - 1 if job_id else None,
                internal_shard=job_id % self.shards,
                attempts=[0] * self.shards,
            )
        pending = self._pending
        for k in range(self.shards):
            self._send_job(k, pending)
        acks = self._gather(pending)

        expected_pairs = base * len(fresh) + len(fresh) * (len(fresh) - 1) // 2
        got = sum(acks[k]["pairs"] for k in range(self.shards))
        if got != expected_pairs:
            raise FatalError(
                f"shard pair-coverage invariant broken: job {job_id} covered "
                f"{got} pairs, expected {expected_pairs}"
            )
        # success: fold the job into the committed parent-side tracking
        for k in range(self.shards):
            self._indices[k].extend(pending.owned[k])
            self._pairs[k] = acks[k]["pairs_total"]
            self._worker_job[k] = job_id
        self._pending = None
        if self._registry is not None:
            self._registry.set_shard_state(self._watermark_payload())
        hits = [WeakHit(int(a), int(b), int(p)) for k in range(self.shards)
                for a, b, p in acks[k]["hits"]]
        hits.sort(key=lambda h: (h.i, h.j))
        reg = self.telemetry.registry
        reg.counter("shard.jobs").inc()
        reg.counter("scan.pairs_tested").inc(expected_pairs)
        reg.counter("scan.hits").inc(len(hits))
        self._update_gauges()
        return hits

    def sync(self) -> None:
        """Drain barrier: every live shard persists its snapshot *now*.

        Called before the final ``registry.sync()`` so the manifest's
        watermarks never get ahead of the shard snapshots on disk.
        """
        for k, handle in enumerate(self._workers):
            if handle is None or not handle.process.is_alive():
                # a dead shard's last ack already implied a durable snapshot
                continue
            try:
                reply = self._request(k, ("sync", {}), kind="ack")
            except (ShardJobFailed, ShardPoolExhausted, FatalError, TransientError, OSError):
                continue
            self._pairs[k] = reply.get("pairs_total", self._pairs[k])
        if self._registry is not None:
            self._registry.set_shard_state(self._watermark_payload())
        self.telemetry.emit(
            "shard.synced", shards=self.shards,
            pairs=[self._pairs[k] for k in range(self.shards)],
        )

    # -- views ---------------------------------------------------------------

    def status_view(self) -> dict:
        keys = sum(len(ix) for ix in self._indices)
        detail = []
        for k in range(self.shards):
            handle = self._workers[k]
            detail.append({
                "shard": k,
                "keys": len(self._indices[k]),
                "pairs_tested": self._pairs[k],
                "applied_job": self._worker_job[k],
                "alive": bool(handle is not None and handle.process.is_alive()),
                "crashes": handle.crashes if handle is not None else 0,
                "respawns": handle.respawns if handle is not None else 0,
            })
        return {
            "shards": self.shards,
            "replicas": self.replicas,
            "keys": keys,
            "pairs_tested": sum(self._pairs),
            "pairs_expected": keys * (keys - 1) // 2,
            "detail": detail,
        }

    def _watermark_payload(self) -> dict:
        return {
            "shards": self.shards,
            "replicas": self.replicas,
            "watermarks": {
                str(k): {
                    "keys": len(self._indices[k]),
                    "pairs_tested": self._pairs[k],
                    "job": self._worker_job[k],
                }
                for k in range(self.shards)
            },
        }

    def _update_gauges(self) -> None:
        reg = self.telemetry.registry
        reg.gauge("shard.count").set(self.shards)
        for k in range(self.shards):
            reg.gauge(f"shard.{k}.keys").set(len(self._indices[k]))
            reg.gauge(f"shard.{k}.pairs_tested").set(self._pairs[k])

    # -- supervision ---------------------------------------------------------

    def _spawn(self, k: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                child_conn, k, self.shards, self.replicas, str(self.state_dir),
                self.engine, self.int_backend,
            ),
            name=f"repro-shard-{k}",
            daemon=True,
        )
        old = self._workers[k]
        process.start()
        child_conn.close()
        self._workers[k] = _Handle(
            process=process, conn=parent_conn,
            crashes=old.crashes if old else 0,
            respawns=old.respawns if old else 0,
        )

    def _request(self, k: int, msg: tuple, *, kind: str = "status", timeout: float = 120.0) -> dict:
        """Send one control message and wait for its typed reply."""
        handle = self._workers[k]
        handle.conn.send(msg)
        deadline = time.monotonic() + timeout
        while True:
            if handle.conn.poll(0.1):
                reply_kind, payload = handle.conn.recv()
                if reply_kind == "err":
                    raise TransientError(f"shard {k}: {payload.get('error')}")
                if reply_kind != kind:
                    raise FatalError(
                        f"shard {k}: expected {kind!r} reply, got {reply_kind!r}"
                    )
                return payload
            if not handle.process.is_alive():
                raise TransientError(f"shard {k} died during {msg[0]!r}")
            if time.monotonic() > deadline:
                raise TransientError(f"shard {k} timed out on {msg[0]!r}")

    def _rebuild(
        self, k: int, indices: list[int], moduli: list[int],
        pairs: int, job: int | None,
    ) -> None:
        self.telemetry.registry.counter("shard.rebuilds").inc()
        self.telemetry.emit("shard.rebuild", shard=k, keys=len(indices), job=job)
        self._request(k, ("init", {
            "state": {
                "indices": indices,
                "moduli": moduli,
                "pairs_tested": pairs,
                "job": job,
                "bits": self.bits,
            },
        }))

    def _moduli_for(self, indices: list[int], pending: _Pending | None) -> list[int]:
        registry_moduli = self._registry.moduli if self._registry is not None else []
        out = []
        for i in indices:
            if i < len(registry_moduli):
                out.append(registry_moduli[i])
            elif pending is not None and 0 <= i - pending.base < len(pending.moduli):
                out.append(pending.moduli[i - pending.base])
            else:
                raise FatalError(f"shard index {i} maps to no known modulus")
        return out

    def _send_job(self, k: int, pending: _Pending) -> None:
        handle = self._workers[k]
        if handle is None or not handle.process.is_alive():
            self._respawn(k, pending)
            handle = self._workers[k]
        faults.fire("shard.dispatch")
        msg = ("job", {
            "job": pending.job,
            "fp": pending.fp,
            "base": pending.base,
            "moduli": pending.moduli,
            "bits": self.bits,
            "internal": k == pending.internal_shard,
        })
        try:
            handle.conn.send(msg)
        except OSError:
            self._respawn(k, pending)
            self._workers[k].conn.send(msg)

    def _respawn(self, k: int, pending: _Pending) -> None:
        """ChunkSupervisor semantics for shard workers: budgeted respawn,
        snapshot-validated restore, replay of only the in-flight job."""
        pending.attempts[k] += 1
        if pending.attempts[k] > self.max_attempts:
            raise ShardJobFailed(
                f"shard {k} exhausted {self.max_attempts} attempts on job {pending.job}"
            )
        self._consecutive_respawns += 1
        if self._consecutive_respawns > self.max_respawns:
            raise ShardPoolExhausted(
                f"{self._consecutive_respawns} consecutive shard respawns with no progress"
            )
        handle = self._workers[k]
        if handle is not None:
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2.0)
                if handle.process.is_alive():
                    handle.process.kill()
                    handle.process.join(timeout=2.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        reg = self.telemetry.registry
        reg.counter("shard.worker_crashes").inc()
        reg.counter("shard.respawns").inc()
        self._spawn(k)
        self._workers[k].crashes += 1
        self._workers[k].respawns += 1
        self.telemetry.emit("shard.respawn", shard=k, job=pending.job,
                            attempt=pending.attempts[k])
        status = self._request(k, ("init", {}))
        pre_moduli = self._moduli_for(self._indices[k], None)
        pre_digest = _state_digest(self.shards, self.replicas, self._indices[k], pre_moduli)
        post_indices = self._indices[k] + pending.owned[k]
        post_digest = _state_digest(
            self.shards, self.replicas, post_indices,
            self._moduli_for(post_indices, pending),
        )
        if status.get("loaded") and status.get("digest") == post_digest \
                and status.get("job") == pending.job:
            self._worker_job[k] = pending.job  # applied + durable; resend replays
            return
        if status.get("loaded") and status.get("digest") == pre_digest \
                and status.get("job") == pending.prev_job:
            self._worker_job[k] = pending.prev_job
            return
        self._rebuild(k, self._indices[k], pre_moduli, self._pairs[k], pending.prev_job)
        self._worker_job[k] = pending.prev_job

    def _gather(self, pending: _Pending) -> dict[int, dict]:
        waiting = set(range(self.shards))
        acks: dict[int, dict] = {}
        transient: list[str] = []
        while waiting:
            for k in sorted(waiting):
                handle = self._workers[k]
                try:
                    if not handle.conn.poll(0.05):
                        if not handle.process.is_alive():
                            raise EOFError
                        continue
                    kind, payload = handle.conn.recv()
                except (EOFError, OSError):
                    self._respawn(k, pending)
                    self._send_job_raw(k, pending)
                    continue
                if kind == "ack":
                    if payload.get("job") != pending.job:
                        continue  # stale ack from an abandoned exchange
                    acks[k] = payload
                    waiting.discard(k)
                    self._worker_job[k] = pending.job
                    self._consecutive_respawns = 0
                    if payload.get("replayed"):
                        self.telemetry.registry.counter("shard.replays").inc()
                elif kind == "err" and payload.get("dead"):
                    self._respawn(k, pending)
                    self._send_job_raw(k, pending)
                else:  # transient worker-side error (persist failed)
                    transient.append(f"shard {k}: {payload.get('error')}")
                    waiting.discard(k)
                    self._worker_job[k] = pending.job  # applied in memory, unacked
        if transient:
            raise TransientError("; ".join(transient))
        return acks

    def _send_job_raw(self, k: int, pending: _Pending) -> None:
        faults.fire("shard.dispatch")
        self._workers[k].conn.send(("job", {
            "job": pending.job,
            "fp": pending.fp,
            "base": pending.base,
            "moduli": pending.moduli,
            "bits": self.bits,
            "internal": k == pending.internal_shard,
        }))

    def _abandon_pending(self) -> None:
        """A previous batch failed permanently and a *different* one is next:
        any worker that applied the abandoned job rolls back by rebuild."""
        pending = self._pending
        self._pending = None
        for k in range(self.shards):
            if self._worker_job[k] != pending.job:
                continue
            handle = self._workers[k]
            if handle is None or not handle.process.is_alive():
                self._spawn(k)
            pre_moduli = self._moduli_for(self._indices[k], None)
            self._rebuild(k, self._indices[k], pre_moduli, self._pairs[k], pending.prev_job)
            self._worker_job[k] = pending.prev_job
