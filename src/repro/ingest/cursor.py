"""The crawl checkpoint: atomic, fsync'd, and the root of exactly-once.

One JSON file under the state directory records everything a resumed
crawl needs: which log, how far the crawl has read (``next_index``), how
much of the dedup log is durable (``dedup_watermark``), and the outbox
ledger (``outbox_count``/``outbox_bytes``/``acked_count``) that the
exactly-once submission protocol reconciles against (see
``docs/INGEST.md``).

Commits are crash-atomic the same way the spool's blobs are — tmp +
fsync + rename + directory fsync, via :func:`repro.core.spool.atomic_write`.
The ``ct.cursor.commit`` fault point fires *before* the temp write, so an
injected crash always leaves the previous checkpoint intact — the
invariant the crash/resume matrix in ``tests/ingest/test_crawl.py`` kills
its way through.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from repro.core.spool import atomic_write, write_sidecar
from repro.resilience import faults

__all__ = ["CrawlState", "CrawlCursor"]

_FORMAT = "repro-ct-cursor-v1"


@dataclass(frozen=True)
class CrawlState:
    """Everything a ``--resume`` needs, as one immutable record.

    ``outbox_count``/``outbox_bytes`` describe the committed prefix of
    the outbox spool (lines / bytes) — anything past ``outbox_bytes`` is
    an uncommitted tail to truncate on resume.  ``acked_count`` is how
    many outbox lines the registry service has acknowledged, and
    ``registry_keys`` the service's key count right after that ack
    (``None`` until the first ack) — the pair the resume logic uses to
    decide whether an in-flight batch landed before a crash.
    """

    log_url: str
    start: int
    end: int
    next_index: int
    tree_size: int = 0
    dedup_watermark: int = 0
    outbox_count: int = 0
    outbox_bytes: int = 0
    acked_count: int = 0
    registry_keys: int | None = None

    @property
    def done(self) -> bool:
        return self.next_index >= self.end

    @property
    def pending_count(self) -> int:
        """Outbox lines appended but not yet acknowledged by the service."""
        return self.outbox_count - self.acked_count

    def advanced(self, **changes) -> CrawlState:
        """A copy with ``changes`` applied (thin :func:`dataclasses.replace`)."""
        return replace(self, **changes)


class CrawlCursor:
    """Load/commit :class:`CrawlState` snapshots at ``state_dir/cursor.json``.

    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as d:
    ...     cursor = CrawlCursor(d)
    ...     print(cursor.load())
    ...     cursor.commit(CrawlState("http://log", 0, 10, next_index=4))
    ...     cursor.load().next_index
    None
    4
    """

    def __init__(self, state_dir: str | Path) -> None:
        self._dir = Path(state_dir)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._path = self._dir / "cursor.json"

    @property
    def path(self) -> Path:
        return self._path

    def exists(self) -> bool:
        return self._path.exists()

    def load(self) -> CrawlState | None:
        """The last committed state, or ``None`` for a fresh state dir."""
        try:
            raw = json.loads(self._path.read_text())
        except FileNotFoundError:
            return None
        except ValueError as exc:
            raise ValueError(f"corrupt crawl cursor {self._path}: {exc}") from None
        if raw.get("format") != _FORMAT:
            raise ValueError(
                f"{self._path} is not a {_FORMAT} cursor (format={raw.get('format')!r})"
            )
        fields = {k: v for k, v in raw.items() if k != "format"}
        try:
            return CrawlState(**fields)
        except TypeError as exc:
            raise ValueError(f"corrupt crawl cursor {self._path}: {exc}") from None

    def commit(self, state: CrawlState) -> None:
        """Durably replace the checkpoint with ``state`` (atomic rename)."""
        faults.fire("ct.cursor.commit")
        payload = {"format": _FORMAT, **asdict(state)}
        body = (json.dumps(payload, indent=2) + "\n").encode()
        _, sha256 = atomic_write(self._path, [body])
        faults.corrupt_file("ct.cursor.commit", self._path)
        write_sidecar(self._path, sha256)
