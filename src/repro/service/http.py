"""The registry service proper, plus its stdlib-only asyncio HTTP front.

:class:`WeakKeyService` wires the three moving parts together — durable
:class:`~repro.service.registry.WeakKeyRegistry`, restart-safe
:class:`~repro.core.incremental.IncrementalScanner` (rebuilt from the
registry via ``snapshot``/``restore``, so a restart never rescans an
old-vs-old pair), and the :class:`~repro.service.batcher.MicroBatcher`
admission queue.  Scans run on a single dedicated worker thread so the
event loop keeps accepting submissions while GCDs grind.

:class:`HttpServer` puts an HTTP/1.1 interface on top using nothing but
``asyncio.start_server`` — no new runtime dependencies.  Endpoints
(``docs/SERVICE.md`` is the full reference):

==========================  ==================================================
``POST /submit[?wait=1]``   submit keys (hex/decimal moduli, PEM, DER — or
                            the RGWIRE1 binary format via ``Content-Type:
                            application/x-repro-moduli``, see
                            :mod:`repro.service.wire`); bulk or single;
                            returns a ticket (``wait=1`` long-polls until
                            the verdicts are in)
``GET /ticket/<id>``        poll a submission ticket
``GET /hits``               every weak-key hit found so far
``GET /broken``             recovered private keys (PKCS#1 PEM) for every
                            factored modulus
``GET /healthz``            liveness + corpus summary
``GET /metricsz``           the full telemetry snapshot as JSON
``GET /shardsz``            shard fleet status (per-shard keys, watermarks,
                            liveness; see ``docs/SHARDING.md``)
==========================  ==================================================

Backpressure surfaces as ``429`` with a ``Retry-After`` header; durability
is the registry's commit protocol (a key acknowledged ``registered`` or
``duplicate`` survives ``kill -9``).
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import json
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from repro.core.incremental import IncrementalScanner
from repro.integrity.lock import StateLock
from repro.integrity.scrub import Scrubber
from repro.resilience import faults
from repro.rsa.der import DERError, decode_rsa_public_key, decode_subject_public_key_info
from repro.rsa.keys import DEFAULT_E, recover_key
from repro.rsa.pem import PEMError, pem_decode_all, private_key_to_pem
from repro.service import wire
from repro.service.batcher import BacklogFull, MicroBatcher, Ticket
from repro.service.registry import WeakKeyRegistry
from repro.service.shard import ShardRouter
from repro.telemetry import Telemetry

__all__ = ["ServiceConfig", "WeakKeyService", "HttpServer", "parse_submission"]

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented", 503: "Service Unavailable",
}


@dataclass
class ServiceConfig:
    """Every serving knob in one place (the CLI maps flags onto this)."""

    state_dir: Path
    #: modulus size; ``None`` pins to the first key's size (persisted)
    bits: int | None = None
    #: scan engine tier, a key of :data:`repro.core.incremental.ENGINES`:
    #: ``auto`` (serving default; picks ``native`` or ``ptree`` per batch
    #: from the measured crossover), ``native``, ``bulk`` or ``ptree``
    engine: str = "auto"
    #: big-integer backend for the non-bulk engines (auto/python/gmpy2)
    int_backend: str | None = None
    #: micro-batching: flush at ``max_batch`` keys or after ``linger_ms``
    max_batch: int = 256
    linger_ms: float = 20.0
    #: admission bound; beyond it submissions get 429 + Retry-After
    max_pending: int = 4096
    #: completed tickets kept for polling before eviction
    ticket_history: int = 4096
    #: ``?wait=1`` long-poll ceiling, seconds
    wait_timeout: float = 60.0
    #: scanner fleet width; 1 keeps today's in-process scanner, >= 2 runs
    #: a :class:`~repro.service.shard.ShardRouter` over worker processes
    shards: int = 1
    #: seconds between online-scrubber cycles (0 disables scrubbing);
    #: see ``docs/INTEGRITY.md`` for the dials
    scrub_interval: float = 5.0
    #: per-cycle byte budget for scrub re-hashing (rate limit)
    scrub_max_bytes: int = 16 << 20


class WeakKeyService:
    """Registry + scanner + batcher, glued; the HTTP layer calls only this."""

    def __init__(self, config: ServiceConfig, *, telemetry: Telemetry | None = None) -> None:
        self.config = config
        self.telemetry = telemetry if telemetry is not None else Telemetry.create()
        self.registry = WeakKeyRegistry(config.state_dir, telemetry=self.telemetry)
        self.scanner: IncrementalScanner | None = None
        self.router: ShardRouter | None = None
        if config.shards < 1:
            raise ValueError("shards must be >= 1")
        self.bits = config.bits
        self.batcher = MicroBatcher(
            self._scan_async,
            max_batch=config.max_batch,
            linger_ms=config.linger_ms,
            max_pending=config.max_pending,
            telemetry=self.telemetry,
        )
        self.tickets: OrderedDict[str, Ticket] = OrderedDict()
        self._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="scan")
        self._started_at: float | None = None
        #: sticky read-only trip reason; set by the scrubber on corruption
        self.degraded_reason: str | None = None
        self.scrubber: Scrubber | None = None
        self._state_lock = StateLock(config.state_dir)

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> int:
        """Load durable state, rebuild the scanner, start the batcher.

        Returns the number of batches restored from the state directory.

        Takes the state-directory advisory lock first, so an offline
        ``repro fsck`` and a live service can never race each other
        (:mod:`repro.integrity.lock`); raises
        :class:`~repro.integrity.lock.LockHeld` when another holder is
        alive.
        """
        self._state_lock.acquire(purpose="serve")
        restored = self.registry.load()
        if self.registry.bits is not None:
            if self.config.bits is not None and self.config.bits != self.registry.bits:
                raise ValueError(
                    f"--bits {self.config.bits} conflicts with the state "
                    f"directory's pinned {self.registry.bits} bits"
                )
            self.bits = self.registry.bits
        if self.config.shards >= 2:
            # sharded fleet: the corpus lives in the worker processes, so
            # the front door keeps no in-process scanner at all
            self.router = ShardRouter(
                state_dir=self.config.state_dir,
                shards=self.config.shards,
                engine=self.config.engine,
                int_backend=self.config.int_backend,
                bits=self.bits,
                telemetry=self.telemetry,
            )
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(self._executor, self.router.start, self.registry)
        elif self.registry.n_keys:
            self.scanner = self._restored_scanner()
        elif self.bits is not None:
            self.scanner = self._fresh_scanner(self.bits)
        await self.batcher.start()
        if self.config.scrub_interval > 0:
            self.scrubber = Scrubber(
                self,
                interval=self.config.scrub_interval,
                max_bytes_per_cycle=self.config.scrub_max_bytes,
            )
            self.scrubber.start()
        self.telemetry.registry.gauge("integrity.degraded").set(0)
        self._started_at = time.monotonic()
        self.telemetry.emit(
            "service.start", keys=self.registry.n_keys,
            batches_restored=restored, bits=self.bits,
        )
        return restored

    async def stop(self, *, drain: bool = True) -> None:
        """Flush (or fail) the backlog, commit scan state, sync, tear down.

        Ordering is the drain-durability contract (regression-tested in
        ``tests/service/test_shard.py``): the scan state commits *before*
        the final registry manifest sync.  ``_commit_scan_state`` runs on
        the scan thread, which both serialises it after every flushed
        batch and — in sharded mode — persists every shard snapshot via
        :meth:`~repro.service.shard.ShardRouter.sync`.  Only then does the
        final :meth:`~repro.service.registry.WeakKeyRegistry.sync` rewrite
        the manifest (folding in straggler config state such as duplicate
        counts and the per-shard watermarks), so a SIGTERM landing
        anywhere in the drain can never leave the manifest ahead of the
        shard snapshots — the restored fleet would otherwise skip pairs
        the registry already recorded hits for.
        """
        if self.scrubber is not None:
            await self.scrubber.stop()
        await self.batcher.stop(drain=drain)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._executor, self._commit_scan_state)
        self._executor.shutdown(wait=True)
        if self.router is not None:
            self.router.stop()
        self.registry.sync()
        self._state_lock.release()
        self.telemetry.emit("service.stop", keys=self.registry.n_keys)

    def _commit_scan_state(self) -> None:
        """Drain barrier on the scan thread: by the time this returns,
        every flushed batch has committed and every shard snapshot is
        durable — the manifest sync that follows can only trail, never
        lead, the scan state on disk."""
        if self.router is not None:
            self.router.sync()
        self.telemetry.emit(
            "service.scan_state_committed",
            shards=self.config.shards, keys=self.registry.n_keys,
        )

    def _ptree_dir(self) -> Path:
        """Where the ``ptree``/``auto`` tiers checkpoint the product tree —
        beside the registry spool, restored with it."""
        return self.config.state_dir / "ptree"

    def _fresh_scanner(self, bits: int) -> IncrementalScanner:
        return IncrementalScanner(
            bits=bits, engine=self.config.engine,
            int_backend=self.config.int_backend,
            spool_dir=self._ptree_dir(), telemetry=self.telemetry,
        )

    def _restored_scanner(self) -> IncrementalScanner:
        """A scanner over the registry's corpus — the durable truth."""
        return IncrementalScanner.restore(
            self.registry.scanner_snapshot(engine=self.config.engine),
            int_backend=self.config.int_backend,
            spool_dir=self._ptree_dir(), telemetry=self.telemetry,
        )

    # -- integrity -------------------------------------------------------------

    def enter_degraded(self, reason: str) -> None:
        """Trip read-only mode: damage was found in committed state.

        Sticky until the process restarts — a corrupt registry does not
        get *less* corrupt while serving, and only an offline
        ``repro fsck --repair`` (plus restart) clears the condition.
        Reads keep serving: existing verdicts were computed before the
        damage was observable and re-verifying them is exactly what the
        operator's fsck run is for, while new writes could commit batches
        scanned against rotten state.
        """
        if self.degraded_reason is not None:
            return
        self.degraded_reason = reason
        self.telemetry.registry.gauge("integrity.degraded").set(1)
        self.telemetry.emit("integrity.degraded", reason=reason)

    # -- submission ------------------------------------------------------------

    def submit(self, keys: list[tuple[int, int]]) -> Ticket:
        """Admit ``(modulus, exponent)`` pairs; returns the ticket.

        Raises :class:`BacklogFull` under backpressure.
        """
        ticket = self.batcher.submit(keys)
        self.tickets[ticket.id] = ticket
        while len(self.tickets) > self.config.ticket_history:
            oldest_id, oldest = next(iter(self.tickets.items()))
            if oldest.completed is None:
                break  # never evict a live ticket; backlog bounds these
            del self.tickets[oldest_id]
        return ticket

    def ticket(self, ticket_id: str) -> Ticket | None:
        return self.tickets.get(ticket_id)

    async def _scan_async(self, items: list[tuple[int, int]]) -> list[dict]:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, self._scan_sync, items)

    def _scan_sync(self, items: list[tuple[int, int]]) -> list[dict]:
        """One flushed batch, on the scan thread: dedup → scan → commit.

        Every item gets a verdict dict; verdicts (including cached ones for
        duplicates) are computed *after* the commit, so a duplicate
        submitted alongside the fresh key that breaks it sees the new hit.
        Registered/duplicate rows hold just the status string until then —
        the final row is built in one step from the (cached) verdict, so
        the per-key cost of a duplicate storm is two dict lookups and one
        dict build.
        """
        results: list = [None] * len(items)
        registered: dict[int, int] = {}  # result position -> global index
        fresh: list[int] = []
        fresh_exponents: dict[int, int] = {}
        in_batch: dict[int, int] = {}  # modulus -> assigned global index
        index_of = self.registry.index_of
        in_batch_get = in_batch.get
        base = self.registry.n_keys
        duplicates = 0
        for pos, (n, e) in enumerate(items):
            if n <= 1 or n % 2 == 0:
                results[pos] = {
                    "status": "invalid", "error": "RSA moduli must be odd and > 1",
                }
                continue
            if self.bits is None:
                blen = n.bit_length()
                if blen < 16 or blen % 2:
                    results[pos] = {
                        "status": "invalid",
                        "error": f"cannot pin the registry to {blen}-bit keys "
                        "(need an even size >= 16)",
                    }
                    continue
                self.bits = blen
                if self.router is None:
                    self.scanner = self._fresh_scanner(blen)
            if n.bit_length() != self.bits:
                results[pos] = {
                    "status": "invalid",
                    "error": f"modulus of {n.bit_length()} bits in a "
                    f"{self.bits}-bit registry",
                }
                continue
            gidx = index_of(n)
            if gidx is None:
                gidx = in_batch_get(n)
            if gidx is not None:
                duplicates += 1
                results[pos] = "duplicate"
                registered[pos] = gidx
                continue
            gidx = base + len(fresh)
            in_batch[n] = gidx
            fresh.append(n)
            if e != DEFAULT_E:
                fresh_exponents[gidx] = e
            results[pos] = "registered"
            registered[pos] = gidx
        if duplicates:
            # count first: the commit's manifest rewrite then persists the
            # new total for free; an all-duplicate batch persists explicitly
            self.registry.note_duplicates(duplicates, persist=not fresh)
        if fresh and self.router is not None:
            # sharded path: fan the batch out as cross-jobs; a failed
            # commit retries the same (job, fingerprint) and the workers
            # dedupe via their durable snapshots — no rebuild needed here
            started = time.monotonic()
            hits = self.router.scan_batch(
                fresh, base=base, job_id=self.registry.n_batches, bits=self.bits
            )
            self.registry.commit_batch(
                fresh, hits,
                exponents=fresh_exponents, seconds=time.monotonic() - started,
            )
        elif fresh:
            try:
                report = self.scanner.add_batch(fresh)
            except Exception:
                # a failed flush can leave the scanner's product tree
                # half-updated; rebuild it from the registry so the
                # retried batch scans against a consistent corpus
                self.scanner = (
                    self._restored_scanner()
                    if self.registry.n_keys
                    else self._fresh_scanner(self.bits)
                )
                raise
            self.registry.commit_batch(
                fresh, report.hits,
                exponents=fresh_exponents, seconds=report.elapsed_seconds,
            )
        reg = self.telemetry.registry
        reg.counter("service.keys_registered").inc(len(fresh))
        invalid = len(items) - len(registered)  # every non-registered row
        if invalid:
            reg.counter("service.keys_invalid").inc(invalid)
        verdict = self.registry.verdict
        for pos, gidx in registered.items():
            results[pos] = {"status": results[pos], **verdict(gidx)}
        return results

    # -- read-side views -------------------------------------------------------

    def hits_view(self) -> dict:
        return {
            "keys": self.registry.n_keys,
            "batches": self.registry.n_batches,
            "hits": [
                {"i": h.i, "j": h.j, "prime": hex(h.prime)}
                for h in self.registry.hits
            ],
        }

    def broken_view(self) -> dict:
        """Recovered private keys for every factorable weak modulus."""
        broken = []
        seen: set[int] = set()
        for h in self.registry.hits:
            for idx in (h.i, h.j):
                if idx in seen:
                    continue
                seen.add(idx)
                n = self.registry.moduli[idx]
                if h.prime == n or n % h.prime:
                    continue  # a duplicate-style hit factors nothing
                key = recover_key(n, self.registry.exponent_of(idx), h.prime)
                broken.append(
                    {"index": idx, "modulus": hex(n), "pem": private_key_to_pem(key)}
                )
        broken.sort(key=lambda entry: entry["index"])
        return {"broken": broken}

    def health_view(self) -> dict:
        up = time.monotonic() - self._started_at if self._started_at else 0.0
        return {
            "status": "degraded" if self.degraded_reason is not None else "ok",
            "degraded_reason": self.degraded_reason,
            "keys": self.registry.n_keys,
            "batches": self.registry.n_batches,
            "hits": len(self.registry.hits),
            "duplicate_submissions": self.registry.duplicate_submissions,
            "pending_keys": self.batcher.pending_keys,
            "bits": self.bits,
            "shards": self.config.shards,
            "uptime_seconds": round(up, 3),
            "scrub": self.scrubber.status()
            if self.scrubber is not None
            else {"enabled": False},
        }

    def shards_view(self) -> dict:
        """Fleet status for ``GET /shardsz`` — shaped identically whether
        the corpus lives in one in-process scanner or N shard workers."""
        if self.router is not None:
            return self.router.status_view()
        keys = self.registry.n_keys
        pairs = self.scanner.total_pairs_tested if self.scanner is not None else 0
        return {
            "shards": 1,
            "replicas": None,
            "keys": keys,
            "pairs_tested": pairs,
            "pairs_expected": keys * (keys - 1) // 2,
            "detail": [{
                "shard": 0, "keys": keys, "pairs_tested": pairs,
                "applied_job": self.registry.n_batches - 1 if self.registry.n_batches else None,
                "alive": True, "crashes": 0, "respawns": 0,
            }],
        }

    async def metrics_view(self) -> dict:
        # snapshot on the scan thread: serialised against live scans, so
        # the registry dicts are never mutated mid-iteration
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, self.telemetry.snapshot)


# -- submission parsing --------------------------------------------------------


def parse_submission(doc: object) -> tuple[list[tuple[int, int]], list[dict]]:
    """Decode a ``POST /submit`` body into ``(modulus, exponent)`` pairs.

    Accepted fields, freely combined; order is preserved across them:

    * ``"moduli"`` — list of JSON integers (decimal) or strings (hex, with
      or without ``0x``); exponent defaults to 65537;
    * ``"pem"``    — a PEM bundle; every ``PUBLIC KEY`` / ``RSA PUBLIC
      KEY`` block contributes its ``(n, e)``;
    * ``"der"``    — list of base64 DER blobs (SubjectPublicKeyInfo or
      PKCS#1 public key).

    Returns the parsed keys plus per-entry parse failures (reported in the
    submit response; they never reach the scanner).

    >>> keys, bad = parse_submission({"moduli": ["0x23", 33, "zz"]})
    >>> ([n for n, _ in keys], bad[0]["error"].startswith("not a hex"))
    ([35, 33], True)
    """
    if not isinstance(doc, dict):
        raise ValueError("submission body must be a JSON object")
    unknown = set(doc) - {"moduli", "pem", "der"}
    if unknown:
        raise ValueError(f"unknown submission fields: {sorted(unknown)}")
    keys: list[tuple[int, int]] = []
    rejected: list[dict] = []

    moduli = doc.get("moduli", [])
    if not isinstance(moduli, list):
        raise ValueError('"moduli" must be a list')
    for item in moduli:
        if isinstance(item, bool):
            rejected.append({"key": str(item), "error": "not a modulus"})
        elif isinstance(item, int):
            keys.append((item, DEFAULT_E))
        elif isinstance(item, str):
            # one C-level call on the hot path: int(, 16) natively accepts
            # surrounding whitespace, 0x/0X prefixes and either hex case,
            # so no per-key strip().lower().removeprefix() string copies
            try:
                keys.append((int(item, 16), DEFAULT_E))
            except ValueError:
                rejected.append({"key": item[:64], "error": f"not a hex modulus: {item[:64]!r}"})
        else:
            rejected.append({"key": str(item)[:64], "error": "not a modulus"})

    pem = doc.get("pem", "")
    if not isinstance(pem, str):
        raise ValueError('"pem" must be a string')
    if pem:
        try:
            blocks = pem_decode_all(pem)
        except (PEMError, ValueError) as exc:
            raise ValueError(f"unparsable PEM bundle: {exc}") from exc
        found = 0
        for label, der in blocks:
            try:
                if label == "PUBLIC KEY":
                    n, e = decode_subject_public_key_info(der)
                elif label == "RSA PUBLIC KEY":
                    n, e = decode_rsa_public_key(der)
                else:
                    continue
                keys.append((n, e))
                found += 1
            except DERError as exc:
                rejected.append({"key": label, "error": f"bad {label} block: {exc}"})
        if not found and not rejected:
            raise ValueError("PEM bundle holds no public-key blocks")

    ders = doc.get("der", [])
    if not isinstance(ders, list):
        raise ValueError('"der" must be a list')
    for item in ders:
        if not isinstance(item, str):
            rejected.append({"key": str(item)[:64], "error": "DER entries must be base64 strings"})
            continue
        try:
            blob = base64.b64decode(item, validate=True)
        except (binascii.Error, ValueError):
            rejected.append({"key": item[:64], "error": "not valid base64"})
            continue
        try:
            n, e = decode_subject_public_key_info(blob)
        except DERError:
            try:
                n, e = decode_rsa_public_key(blob)
            except DERError as exc:
                rejected.append({"key": item[:64], "error": f"not an RSA public key: {exc}"})
                continue
        keys.append((n, e))
    return keys, rejected


# -- the HTTP layer ------------------------------------------------------------


#: compact-JSON encoder for every response body; pre-bound so the hot path
#: pays no keyword re-processing per call
_dumps = json.JSONEncoder(separators=(",", ":")).encode

#: static header prefixes keyed by (status, keep_alive) — see _write_json
_HEAD_CACHE: dict[tuple[int, bool], bytes] = {}


class _HttpError(Exception):
    def __init__(self, status: int, message: str, headers: tuple = ()) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers


@dataclass
class _Request:
    method: str
    path: str
    query: dict
    body: bytes
    keep_alive: bool
    content_type: str = ""


class HttpServer:
    """A deliberately small HTTP/1.1 server over ``asyncio.start_server``.

    Supports exactly what the service needs: JSON request/response bodies,
    ``Content-Length`` framing, keep-alive, and honest status codes.  Bind
    ``port=0`` to let the OS pick (read it back from :attr:`port` — the CI
    smoke job and the tests do).
    """

    def __init__(
        self,
        service: WeakKeyService,
        *,
        host: str = "127.0.0.1",
        port: int = 8571,
        max_body: int = 8 << 20,
        max_header_bytes: int = 32 << 10,
        drain_grace: float = 5.0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.max_body = max_body
        self.max_header_bytes = max_header_bytes
        self.drain_grace = drain_grace
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()
        self._draining = asyncio.Event()
        self._active_requests = 0

    async def start(self) -> None:
        await self.service.start()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    async def close(self, *, drain: bool = True) -> None:
        """Shut down in the order that loses nothing acknowledged.

        1. mark draining — new submissions get ``503`` + ``Retry-After``
           and parked long-polls wake to report their tickets as they
           stand;
        2. stop accepting connections (listening sockets only — do NOT
           wait for established connections yet: an idle keep-alive
           blocked in a read would stall the drain forever);
        3. stop the service: with ``drain`` the batcher flushes its whole
           backlog (every queued key is scanned and durably committed)
           and the registry syncs its manifest;
        4. give in-flight handlers ``drain_grace`` seconds to finish
           writing responses, then cancel whatever is left (idle
           keep-alive connections mostly) and wait for every handler
           to unwind.
        """
        self._draining.set()
        if self._server is not None:
            self._server.close()
        await self.service.stop(drain=drain)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_grace
        while self._active_requests and loop.time() < deadline:
            await asyncio.sleep(0.01)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._server is not None:
            # safe only now: on Python >= 3.12.1 wait_closed() blocks until
            # every connection handler returns, and an idle keep-alive
            # parked in _read_request only unwinds via the cancel above
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- connection handling ---------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    self._write_json(
                        writer, exc.status, {"error": str(exc)},
                        headers=exc.headers, keep_alive=False,
                    )
                    break
                if request is None:
                    break
                keep = await self._dispatch(request, writer)
                await writer.drain()
                if not keep:
                    break
        except (asyncio.CancelledError, asyncio.IncompleteReadError,
                ConnectionError, TimeoutError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> _Request | None:
        try:
            line = await reader.readline()
        except ValueError as exc:  # request line exceeded the stream limit
            raise _HttpError(400, f"request line too long: {exc}") from exc
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HttpError(400, "malformed request line")
        method, target, version = parts
        headers: dict[str, str] = {}
        header_bytes = 0
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            # hard cap *before* parsing on: the header section must never
            # buffer unboundedly, whatever a hostile client streams at us
            header_bytes += len(raw)
            if header_bytes > self.max_header_bytes:
                raise _HttpError(
                    431, f"header section exceeds {self.max_header_bytes} bytes"
                )
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise _HttpError(501, "chunked bodies are not supported")
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _HttpError(400, "malformed Content-Length") from None
        if length < 0:
            raise _HttpError(400, "malformed Content-Length")
        # the hard cap fires on the declared length, before buffering a byte
        if length > self.max_body:
            raise _HttpError(413, f"body of {length} bytes exceeds {self.max_body}")
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        keep_alive = (
            headers.get("connection", "").lower() != "close"
            and version != "HTTP/1.0"
        )
        return _Request(
            method=method, path=split.path, query=parse_qs(split.query),
            body=body, keep_alive=keep_alive,
            content_type=headers.get("content-type", ""),
        )

    def _write_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        *,
        headers: tuple = (),
        keep_alive: bool = True,
    ) -> None:
        """Serialise and send one JSON response.

        The hot path is deliberately allocation-light: compact separators
        (no cosmetic whitespace crosses the wire), and the static header
        prefix — status line, content type, connection — is built once per
        ``(status, keep_alive)`` shape and cached, so the per-response
        work is one ``dumps``, one length format, and one write.  The
        ``/healthz``- and ``/metricsz``-shaped responses (no extra
        headers) ride the cache on every call.
        """
        body = _dumps(payload).encode() + b"\n"
        try:
            head = _HEAD_CACHE[(status, keep_alive)]
        except KeyError:
            head = _HEAD_CACHE[(status, keep_alive)] = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                "Content-Type: application/json\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            ).encode("latin-1")
        extra = "".join(f"{name}: {value}\r\n" for name, value in headers)
        writer.write(
            head
            + f"{extra}Content-Length: {len(body)}\r\n\r\n".encode("latin-1")
            + body
        )

    # -- routing ---------------------------------------------------------------

    async def _dispatch(self, request: _Request, writer: asyncio.StreamWriter) -> bool:
        tel = self.service.telemetry
        tel.registry.counter("http.requests").inc()
        self._active_requests += 1
        try:
            faults.fire("http.handler")
            status, payload, headers = await self._route(request)
        except _HttpError as exc:
            status, payload, headers = exc.status, {"error": str(exc)}, exc.headers
        except (ValueError, KeyError) as exc:
            status, payload, headers = 400, {"error": str(exc)}, ()
        except Exception as exc:  # never let a handler kill the connection loop
            tel.registry.counter("http.internal_errors").inc()
            status, payload, headers = 500, {"error": f"internal error: {exc}"}, ()
        finally:
            self._active_requests -= 1
        tel.registry.counter(f"http.status.{status}").inc()
        self._write_json(
            writer, status, payload, headers=headers, keep_alive=request.keep_alive
        )
        return request.keep_alive

    async def _route(self, request: _Request) -> tuple[int, dict, tuple]:
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/submit":
            if method != "POST":
                raise _HttpError(405, "submit requires POST")
            return await self._handle_submit(request)
        if path.startswith("/ticket/"):
            if method != "GET":
                raise _HttpError(405, "ticket polling requires GET")
            ticket = self.service.ticket(path.removeprefix("/ticket/"))
            if ticket is None:
                raise _HttpError(404, "no such ticket")
            return 200, ticket.as_dict(), ()
        if method != "GET":
            raise _HttpError(405, f"{path} requires GET")
        if path == "/hits":
            return 200, self.service.hits_view(), ()
        if path == "/broken":
            return 200, self.service.broken_view(), ()
        if path == "/healthz":
            return 200, self.service.health_view(), ()
        if path == "/metricsz":
            return 200, await self.service.metrics_view(), ()
        if path == "/shardsz":
            return 200, self.service.shards_view(), ()
        raise _HttpError(404, f"no such endpoint: {path}")

    async def _handle_submit(self, request: _Request) -> tuple[int, dict, tuple]:
        if request.content_type.startswith(wire.CONTENT_TYPE):
            # raw-speed path: length-prefixed big-endian moduli, decoded
            # straight off a memoryview into the exact (modulus, exponent)
            # list the batcher consumes — no hex, no JSON, no re-copy
            try:
                keys = wire.decode_moduli(request.body)
            except wire.WireError as exc:
                raise _HttpError(400, f"bad {wire.MAGIC[:7].decode()} body: {exc}") from exc
            rejected: list[dict] = []
            self.service.telemetry.registry.counter("http.submit_binary").inc()
        else:
            if request.body.startswith(wire.MAGIC):
                raise _HttpError(
                    400,
                    "binary submission bodies need "
                    f"Content-Type: {wire.CONTENT_TYPE}",
                )
            try:
                doc = json.loads(request.body or b"{}")
            except ValueError as exc:
                raise _HttpError(400, f"body is not JSON: {exc}") from exc
            keys, rejected = parse_submission(doc)
        if not keys:
            raise _HttpError(
                400,
                "no parseable keys in submission"
                + (f" ({len(rejected)} rejected)" if rejected else ""),
            )
        if self.service.degraded_reason is not None:
            # read-only: the scrubber found corruption in committed state;
            # reads keep serving, writes wait for the operator's fsck
            raise _HttpError(
                503,
                "service is degraded read-only (durable-state corruption: "
                f"{self.service.degraded_reason}); run `repro fsck --repair` "
                "and restart",
                headers=(("Retry-After", "60"),),
            )
        if self._draining.is_set():
            raise _HttpError(
                503,
                "service is draining; retry against the restarted instance",
                headers=(("Retry-After", "1"),),
            )
        try:
            ticket = self.service.submit(keys)
        except BacklogFull as exc:
            retry = f"{exc.retry_after:.2f}"
            raise _HttpError(
                429,
                f"admission queue full; retry after {retry}s",
                headers=(("Retry-After", retry),),
            ) from None
        except RuntimeError as exc:  # batcher already stopping under our feet
            raise _HttpError(
                503, str(exc), headers=(("Retry-After", "1"),)
            ) from None
        wait = request.query.get("wait", ["0"])[-1] not in ("0", "", "false")
        if wait:
            # park on the ticket OR the drain signal, whichever fires first;
            # a drain-time wake reports the ticket as it stands (its keys
            # are still flushed and committed by the drain itself)
            waiters = [
                asyncio.ensure_future(ticket.wait()),
                asyncio.ensure_future(self._draining.wait()),
            ]
            try:
                await asyncio.wait(
                    waiters,
                    timeout=self.service.config.wait_timeout,
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                for waiter in waiters:
                    waiter.cancel()
        payload = ticket.as_dict()
        if rejected:
            payload["rejected"] = rejected
        if ticket.completed is not None:
            status = 200
        elif self._draining.is_set():
            status, payload["error"] = 503, (
                "service draining before the verdict; queued keys are "
                "committed by the drain — resubmit after restart for the "
                "cached verdict"
            )
            return status, payload, (("Retry-After", "1"),)
        else:
            status = 202
        return status, payload, ()
