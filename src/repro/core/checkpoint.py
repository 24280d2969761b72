"""Checkpoint manifests: what the pipeline has finished, verifiably.

A pipeline run owns a *spool directory*; alongside the level blobs
(:mod:`repro.core.spool`) lives ``manifest.json``, rewritten atomically
after every completed stage.  The manifest records the run configuration
(for provenance — so a stats dump or post-mortem can say what parameters
produced these blobs) and, per completed stage, the blob file name,
record count, byte size, SHA-256 and wall time.

Resume semantics (see ``docs/BATCH_PIPELINE.md``):

* a missing or unparsable manifest means "start from scratch";
* the stored config is *not* compared on resume: no current config field
  (``memory_budget``, ``workers``, ``backend``) affects blob contents,
  so resuming with different parameters is safe and keeps the checkpoint.
  What pins the checkpoint to its input is the ingest blob's SHA-256, and
  the stage plan is rederived from the ingest record's count alone.  If a
  future config field ever changes blob contents, resume must start
  comparing it here;
* completed stages are re-verified by re-hashing their blobs; the first
  corrupt or missing blob truncates the completed prefix there, so the
  affected stage (and everything after it) re-runs cleanly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.core.spool import BlobInfo, atomic_write, blob_sha256, write_sidecar
from repro.resilience import faults

__all__ = ["StageRecord", "Manifest", "CheckpointStore", "MANIFEST_NAME", "MANIFEST_VERSION"]

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class StageRecord:
    """One completed stage: its output blob and integrity pin.

    >>> r = StageRecord(name="product.1", blob="product-001.bin",
    ...                 count=4, nbytes=100, sha256="ab" * 32, seconds=0.5)
    >>> r.name, r.count
    ('product.1', 4)
    """

    name: str
    blob: str
    count: int
    nbytes: int
    sha256: str
    seconds: float

    @classmethod
    def from_blob(cls, name: str, info: BlobInfo, seconds: float = 0.0) -> StageRecord:
        """The record pinning the blob that one :func:`write_blob` produced.

        >>> from pathlib import Path
        >>> info = BlobInfo(path=Path("s/keys-000000.bin"), count=2, nbytes=14,
        ...                 sha256="cd" * 32)
        >>> StageRecord.from_blob("keys.0", info).blob
        'keys-000000.bin'
        """
        return cls(
            name=name, blob=info.path.name, count=info.count,
            nbytes=info.nbytes, sha256=info.sha256, seconds=seconds,
        )


@dataclass
class Manifest:
    """The run's durable state: configuration plus completed stages.

    >>> m = Manifest(config={"n_moduli": 8, "memory_budget": 4096})
    >>> m.stage("ingest") is None
    True
    """

    version: int = MANIFEST_VERSION
    config: dict = field(default_factory=dict)
    stages: list[StageRecord] = field(default_factory=list)

    def stage(self, name: str) -> StageRecord | None:
        """The record for ``name``, or None if that stage never completed."""
        for record in self.stages:
            if record.name == name:
                return record
        return None

    def truncate_at(self, name: str) -> None:
        """Drop ``name`` and every stage recorded after it (corrupt fallback)."""
        for pos, record in enumerate(self.stages):
            if record.name == name:
                del self.stages[pos:]
                return


class CheckpointStore:
    """Loads, saves and verifies the manifest of one spool directory.

    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as d:
    ...     store = CheckpointStore(d)
    ...     store.load() is None
    True
    """

    def __init__(self, spool_dir: str | Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.path = self.spool_dir / MANIFEST_NAME

    def load(self) -> Manifest | None:
        """The stored manifest, or ``None`` when missing or unparsable.

        A corrupt manifest is *not* an error: the pipeline's fallback is a
        clean restart, so this layer only distinguishes "usable" from not.
        """
        try:
            raw = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return None
        try:
            if raw["version"] != MANIFEST_VERSION:
                return None
            stages = [StageRecord(**record) for record in raw["stages"]]
            return Manifest(version=raw["version"], config=dict(raw["config"]), stages=stages)
        except (KeyError, TypeError, ValueError):
            return None

    def save(self, manifest: Manifest) -> None:
        """Durably persist the manifest via :func:`repro.core.spool.atomic_write`.

        Also drops a ``manifest.json.sha256`` sidecar with the digest of
        the committed bytes, so the integrity layer can deep-verify the
        manifest itself — the blobs are pinned by the manifest, but
        nothing else pins the manifest.
        """
        faults.fire("manifest.commit")
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": manifest.version,
            "config": manifest.config,
            "stages": [asdict(record) for record in manifest.stages],
        }
        body = (json.dumps(payload, indent=2) + "\n").encode()
        _, sha256 = atomic_write(self.path, [body])
        faults.corrupt_file("manifest.commit", self.path)
        write_sidecar(self.path, sha256)

    def verify(self, record: StageRecord) -> bool:
        """True iff the stage's blob exists and still matches its SHA-256."""
        path = self.spool_dir / record.blob
        try:
            return blob_sha256(path) == record.sha256
        except OSError:
            return False

    def verified_prefix(self, manifest: Manifest, expected: list[str]) -> list[StageRecord]:
        """The longest run of completed stages that is still trustworthy.

        Walks ``expected`` (the stage plan, in order); a stage counts only
        if it is the next one recorded *and* its blob verifies.  The first
        gap, mismatch or corrupt blob ends the prefix — resuming re-runs
        everything from there.
        """
        prefix: list[StageRecord] = []
        for pos, name in enumerate(expected):
            if pos >= len(manifest.stages):
                break
            record = manifest.stages[pos]
            if record.name != name or not self.verify(record):
                break
            prefix.append(record)
        return prefix
