"""Offline check-and-repair for one state directory: ``repro fsck``.

The repair ladder (full narrative in ``docs/INTEGRITY.md``), in the
order the steps run — ordering matters because later rungs consume
redundancy that earlier rungs must read first:

1. **Registry keys blobs** are rebuilt from redundancy: the persistent
   product tree's leaves hold every registered modulus in global-index
   order, and shard snapshots hold ``(indices, moduli)`` pairs.  A
   rebuilt blob is accepted only if its SHA-256 matches the manifest
   pin — the pin is the authority, never the rebuild.
2. **Registry hits blobs** are recomputed by a pairwise GCD rescan of
   the (now complete) moduli, again accepted only on pin match.
3. **Derived data is rebuilt, damaged originals quarantined**: corrupt
   ptree segments/manifest are quarantined wholesale and the tree is
   regrown from registry moduli; corrupt shard snapshots are quarantined
   (workers rebuild from the registry at next start); dedup buckets are
   rebuilt from ``seen.log``.
4. **Torn tails are truncated to the committed watermark**: ``seen.log``
   is cut back to a whole number of records (never below the cursor's
   watermark — losing committed dedup records is refused, see below).
5. **Crash residue is quarantined**: interrupted ``.tmp`` writes and
   checksum sidecars whose artifact is gone.
6. **Stale checksum sidecars are refreshed** — but only when the
   artifact's whole family otherwise verifies, so a refresh can never
   launder real corruption into a valid checksum.

``fsck`` **refuses loudly** — reports, repairs nothing dependent, exits
nonzero — when the damaged party is the root of truth itself: a corrupt
registry manifest, a corrupt ingest cursor, a registry blob with no
intact redundancy, or a ``seen.log`` that lost committed records.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.ptree import PersistentProductTree, parse_segment
from repro.core.spool import (
    SpoolError,
    atomic_write,
    blob_sha256,
    read_blob,
    write_blob,
    write_sidecar,
)
from repro.ingest.dedup import DIGEST_SIZE
from repro.integrity.catalog import (
    QUARANTINE_DIR,
    ArtifactCatalog,
    CatalogReport,
    Finding,
    SEVERITY_CORRUPT,
)

__all__ = ["FsckError", "FsckReport", "run_fsck"]


class FsckError(RuntimeError):
    """A repair attempt that must not proceed (never raised on check-only runs)."""


@dataclass
class FsckReport:
    """What one fsck pass found and (optionally) fixed.

    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as d:
    ...     r = run_fsck(d)
    ...     (r.clean, r.repairs, r.refusals)
    (True, [], [])
    """

    state_dir: Path
    scan: CatalogReport
    repairs: list[dict] = field(default_factory=list)
    refusals: list[dict] = field(default_factory=list)
    post_scan: CatalogReport | None = None

    @property
    def clean(self) -> bool:
        """No corruption found (pre-repair)."""
        return self.scan.clean

    @property
    def healed(self) -> bool:
        """A repair ran, refused nothing, and the re-scan came back clean."""
        return (
            self.post_scan is not None
            and not self.refusals
            and self.post_scan.clean
        )

    def to_json(self) -> dict:
        out = {
            "state_dir": str(self.state_dir),
            "clean": self.clean,
            "scan": self.scan.to_json(),
            "repairs": self.repairs,
            "refusals": self.refusals,
        }
        if self.post_scan is not None:
            out["post_scan"] = self.post_scan.to_json()
            out["healed"] = self.healed
        return out


def run_fsck(state_dir: str | Path, *, repair: bool = False) -> FsckReport:
    """Deep-verify ``state_dir``; with ``repair`` walk the repair ladder.

    Read-only unless ``repair`` is set.  Callers racing a live service
    must hold the :class:`repro.integrity.lock.StateLock` first — the
    CLI does this for you.
    """
    state_dir = Path(state_dir)
    catalog = ArtifactCatalog(state_dir)
    scan = catalog.scan()
    report = FsckReport(state_dir=state_dir, scan=scan)
    if not repair:
        return report
    _Repairer(state_dir, report).run()
    report.post_scan = ArtifactCatalog(state_dir).scan()
    return report


class _Repairer:
    """One repair pass over a scanned state directory."""

    def __init__(self, state_dir: Path, report: FsckReport) -> None:
        self.state_dir = state_dir
        self.report = report
        self.quarantine_dir = state_dir / QUARANTINE_DIR

    # -- bookkeeping -----------------------------------------------------------

    def _did(self, action: str, artifact: str, detail: str = "") -> None:
        self.report.repairs.append(
            {"action": action, "artifact": artifact, "detail": detail}
        )

    def _refuse(self, artifact: str, reason: str) -> None:
        self.report.refusals.append({"artifact": artifact, "reason": reason})

    def _quarantine(self, path: Path) -> None:
        """Move ``path`` under ``quarantine/`` preserving its relative path."""
        rel = path.relative_to(self.state_dir)
        dest = self.quarantine_dir / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        serial = 0
        while dest.exists():
            serial += 1
            dest = self.quarantine_dir / rel.parent / f"{rel.name}.{serial}"
        path.rename(dest)
        self._did("quarantine", str(rel), f"moved to {dest.relative_to(self.state_dir)}")

    # -- the ladder ------------------------------------------------------------

    def run(self) -> None:
        corrupt = {f.artifact: f for f in self.report.scan.corrupt}
        registry = self._load_registry_manifest(corrupt)
        moduli: dict[int, int] = {}
        if registry is not None:
            moduli = self._repair_registry(registry, corrupt)
        self._repair_ptree(corrupt, moduli, registry)
        self._repair_spools(corrupt)
        self._repair_shards(corrupt)
        self._repair_ingest(corrupt)
        self._sweep_residue()
        self._refresh_sidecars()

    # -- registry --------------------------------------------------------------

    def _load_registry_manifest(self, corrupt: dict[str, Finding]) -> dict | None:
        path = self.state_dir / "manifest.json"
        if not path.exists():
            return None
        finding = corrupt.get("manifest.json")
        if finding is not None:
            self._refuse(
                "manifest.json",
                f"registry manifest is the damaged party ({finding.verdict}); "
                "refusing to repair anything that depends on it",
            )
            return None
        try:
            payload = json.loads(path.read_bytes())
        except ValueError:
            self._refuse("manifest.json", "registry manifest unreadable")
            return None
        if payload.get("config", {}).get("format") != "weak-key-registry/1":
            return None  # a batchscan spool root: blobs have no redundancy
        return payload

    def _registry_stages(self, payload: dict) -> list[dict]:
        return [r for r in payload.get("stages", []) if isinstance(r, dict)]

    def _repair_registry(
        self, payload: dict, corrupt: dict[str, Finding]
    ) -> dict[int, int]:
        """Rebuild damaged registry blobs; returns global index → modulus."""
        stages = self._registry_stages(payload)
        keys_stages = [r for r in stages if str(r.get("name", "")).startswith("keys.")]
        hits_stages = [r for r in stages if str(r.get("name", "")).startswith("hits.")]

        # global layout from the (verified) manifest alone
        bases: dict[str, int] = {}
        base = 0
        for record in keys_stages:
            bases[str(record["blob"])] = base
            base += int(record["count"])

        moduli: dict[int, int] = {}
        damaged_keys = []
        for record in keys_stages:
            blob = str(record["blob"])
            path = self.state_dir / blob
            if blob in corrupt:
                damaged_keys.append(record)
                continue
            try:
                for offset, n in enumerate(read_blob(path)):
                    moduli[bases[blob] + offset] = n
            except (OSError, SpoolError):
                damaged_keys.append(record)

        if damaged_keys:
            redundancy = self._redundant_moduli()
            for record in damaged_keys:
                self._rebuild_keys_blob(record, bases, redundancy, moduli)

        total = sum(int(r["count"]) for r in keys_stages)
        complete = len(moduli) == total
        for record in hits_stages:
            blob = str(record["blob"])
            if blob not in corrupt:
                continue
            if not complete:
                self._refuse(
                    blob,
                    "cannot rescan hits: the registry's moduli are incomplete",
                )
                continue
            self._rebuild_hits_blob(record, keys_stages, moduli)
        return moduli

    def _redundant_moduli(self) -> dict[int, int]:
        """Global index → modulus, from every intact redundancy source."""
        out: dict[int, int] = {}
        # ptree leaves: every registered modulus, in global order
        ptree_dir = self.state_dir / "ptree"
        manifest = ptree_dir / "manifest.json"
        if manifest.exists():
            try:
                payload = json.loads(manifest.read_bytes())
                for record in payload.get("stages", []):
                    path = ptree_dir / str(record["blob"])
                    if blob_sha256(path) != record.get("sha256"):
                        continue
                    seg = parse_segment(str(record.get("name", "")), read_blob(path))
                    for offset, n in enumerate(seg.levels[0]):
                        out[seg.start + offset] = n
            except (OSError, ValueError, SpoolError, KeyError):
                pass
        # shard snapshots: each owns (indices, moduli) for its slice
        for snapshot in sorted(self.state_dir.glob("shards/*/shard.json")):
            try:
                payload = json.loads(snapshot.read_bytes())
                scanner = payload.get("scanner") or {}
                indices = payload.get("indices") or []
                mods = scanner.get("moduli") or []
                if len(indices) != len(mods):
                    continue
                for gidx, n in zip(indices, mods):
                    out.setdefault(int(gidx), int(n))
            except (OSError, ValueError):
                continue
        return out

    def _rebuild_keys_blob(
        self,
        record: dict,
        bases: dict[str, int],
        redundancy: dict[int, int],
        moduli: dict[int, int],
    ) -> None:
        blob = str(record["blob"])
        base, count = bases[blob], int(record["count"])
        values = []
        for gidx in range(base, base + count):
            n = redundancy.get(gidx)
            if n is None:
                self._refuse(
                    blob,
                    f"no intact redundancy (ptree leaf / shard snapshot) holds "
                    f"modulus {gidx}",
                )
                return
            values.append(n)
        self._replace_blob(record, values, "rebuilt from ptree/shard redundancy")
        for offset, n in enumerate(values):
            moduli[base + offset] = n

    def _rebuild_hits_blob(
        self, record: dict, keys_stages: list[dict], moduli: dict[int, int]
    ) -> None:
        blob = str(record["blob"])
        batch = int(str(record["name"]).split(".")[1])
        base = sum(int(r["count"]) for r in keys_stages[:batch])
        count = int(keys_stages[batch]["count"])
        hits = []
        for j in range(base, base + count):
            for i in range(j):
                g = math.gcd(moduli[i], moduli[j])
                if g > 1 and g != moduli[i]:
                    hits.append((i, j, g))
        # the commit path's emission order is not pinned by the format, so
        # try the plausible orderings; only a pin match is ever accepted
        for ordering in (
            sorted(hits, key=lambda h: (h[0], h[1])),
            sorted(hits, key=lambda h: (h[1], h[0])),
        ):
            flat = [x for hit in ordering for x in hit]
            if self._replace_blob(record, flat, "recomputed by GCD rescan",
                                  dry_run=True):
                self._replace_blob(record, flat, "recomputed by GCD rescan")
                return
        self._refuse(
            blob,
            "GCD rescan produced hits whose serialisation does not match the "
            "manifest pin",
        )

    def _replace_blob(
        self, record: dict, values: list[int], detail: str, *, dry_run: bool = False
    ) -> bool:
        """Write ``values`` as the stage's blob iff the result matches the pin."""
        blob = str(record["blob"])
        path = self.state_dir / blob
        candidate = path.with_name(path.name + ".fsck")
        try:
            info = write_blob(candidate, values)
            if info.sha256 != record.get("sha256"):
                if not dry_run:
                    self._refuse(
                        blob,
                        f"rebuild hashes {info.sha256[:12]}…, manifest pins "
                        f"{str(record.get('sha256'))[:12]}… — redundancy disagrees "
                        "with the registry",
                    )
                return False
            if dry_run:
                return True
            if path.exists():
                self._quarantine(path)
            atomic_write(path, [candidate.read_bytes()])
            self._did("rebuild", blob, detail)
            return True
        finally:
            candidate.unlink(missing_ok=True)

    # -- ptree -----------------------------------------------------------------

    def _repair_ptree(
        self,
        corrupt: dict[str, Finding],
        moduli: dict[int, int],
        registry: dict | None,
    ) -> None:
        if not any(f.family == "ptree" for f in corrupt.values()):
            return
        ptree_dir = self.state_dir / "ptree"
        registry_complete = registry is not None and len(moduli) == sum(
            int(r["count"])
            for r in self._registry_stages(registry)
            if str(r.get("name", "")).startswith("keys.")
        )
        if not ptree_dir.is_dir() or not registry_complete:
            self._refuse(
                "ptree",
                "cannot rebuild the product tree: no fully recovered registry "
                "in this state directory to regrow it from",
            )
            return
        for item in sorted(ptree_dir.iterdir()):
            if item.is_file():
                self._quarantine(item)
        # regrow from registry truth — the tree is derived data
        tree = PersistentProductTree(spool_dir=ptree_dir)
        ordered = [moduli[g] for g in sorted(moduli)]
        tree.append(ordered)
        self._did(
            "rebuild", "ptree", f"regrown from {len(ordered)} registry moduli"
        )

    # -- batchscan spools -------------------------------------------------------

    def _repair_spools(self, corrupt: dict[str, Finding]) -> None:
        """Truncate a damaged spool checkpoint to its intact stage prefix.

        Batchscan blobs have no redundancy; the pipeline's own resume
        contract re-runs any stage whose record is gone, so the honest
        repair is exactly what ``verified_prefix`` would do at load time:
        quarantine the damaged blobs and cut the manifest back to the
        stages that still verify.
        """
        spool_dirs = {
            (self.state_dir / a).parent
            for a, f in corrupt.items()
            if f.family == "spool"
        }
        for directory in sorted(spool_dirs):
            manifest_path = directory / "manifest.json"
            rel_manifest = str(manifest_path.relative_to(self.state_dir))
            if rel_manifest in corrupt:
                self._refuse(
                    rel_manifest,
                    "spool manifest is itself damaged; the pipeline restarts "
                    "this run from scratch",
                )
                continue
            from repro.core.checkpoint import CheckpointStore

            store = CheckpointStore(directory)
            manifest = store.load()
            if manifest is None:
                continue
            keep: list = []
            for record in manifest.stages:
                if store.verify(record):
                    keep.append(record)
                else:
                    break
            dropped = manifest.stages[len(keep):]
            for record in dropped:
                path = directory / record.blob
                if path.exists():
                    self._quarantine(path)
            manifest.stages = keep
            store.save(manifest)
            self._did(
                "truncate", rel_manifest,
                f"kept {len(keep)} verified stages, dropped {len(dropped)} "
                "(the pipeline re-runs them on resume)",
            )

    # -- shard snapshots --------------------------------------------------------

    def _repair_shards(self, corrupt: dict[str, Finding]) -> None:
        for artifact, finding in corrupt.items():
            if finding.family != "shard-snapshot":
                continue
            path = self.state_dir / artifact
            if path.exists():
                self._quarantine(path)
            side = path.with_name(path.name + ".sha256")
            if side.exists():
                self._quarantine(side)
            self._did(
                "drop-derived", artifact,
                "shard snapshots are derived; the worker rebuilds from the "
                "registry at next start",
            )

    # -- ingest ----------------------------------------------------------------

    def _repair_ingest(self, corrupt: dict[str, Finding]) -> None:
        ingest = {a: f for a, f in corrupt.items() if f.family == "ingest"}
        if not ingest:
            return
        cursor_path = self.state_dir / "cursor.json"
        if "cursor.json" in ingest:
            self._refuse(
                "cursor.json",
                "the crawl cursor is the root of ingest exactly-once; a damaged "
                "cursor cannot be reconstructed — restart the crawl from scratch",
            )
            return
        watermark = 0
        try:
            state = json.loads(cursor_path.read_bytes())
            watermark = int(state.get("dedup_watermark", 0))
        except (OSError, ValueError):
            pass

        seen = self.state_dir / "dedup" / "seen.log"
        rebuild_buckets = False
        for artifact, finding in ingest.items():
            if artifact.endswith("seen.log"):
                size = seen.stat().st_size if seen.exists() else 0
                whole = (size // DIGEST_SIZE) * DIGEST_SIZE
                if whole < watermark * DIGEST_SIZE:
                    self._refuse(
                        artifact,
                        f"seen.log holds {whole // DIGEST_SIZE} whole records but "
                        f"the cursor committed {watermark}; committed dedup state "
                        "is lost (the registry's own dedup is the backstop)",
                    )
                    continue
                if size != whole:
                    with seen.open("ab") as fh:
                        fh.truncate(whole)
                    self._did(
                        "truncate", artifact,
                        f"cut torn tail to {whole // DIGEST_SIZE} whole records",
                    )
                rebuild_buckets = True
            elif "bucket-" in artifact:
                rebuild_buckets = True
            elif artifact.endswith("outbox.txt"):
                self._repair_outbox(artifact)
        if rebuild_buckets and seen.exists():
            self._rebuild_buckets(seen, watermark)

    def _rebuild_buckets(self, seen: Path, watermark: int) -> None:
        partitions: dict[int, set[bytes]] = {}
        limit = watermark * DIGEST_SIZE
        with seen.open("rb") as fh:
            raw = fh.read(limit) if limit else fh.read()
        for pos in range(0, len(raw) - len(raw) % DIGEST_SIZE, DIGEST_SIZE):
            digest = raw[pos : pos + DIGEST_SIZE]
            partitions.setdefault(digest[0], set()).add(digest)
        for old in seen.parent.glob("bucket-*.bin"):
            old.unlink()
        for prefix, digests in partitions.items():
            (seen.parent / f"bucket-{prefix:02x}.bin").write_bytes(
                b"".join(sorted(digests))
            )
        self._did(
            "rebuild", "dedup/bucket-*.bin",
            f"repartitioned from the first {watermark or len(raw) // DIGEST_SIZE} "
            "seen.log records",
        )

    def _repair_outbox(self, artifact: str) -> None:
        path = self.state_dir / "outbox.txt"
        try:
            state = json.loads((self.state_dir / "cursor.json").read_bytes())
            committed = int(state.get("outbox_bytes", 0))
        except (OSError, ValueError):
            self._refuse(artifact, "no readable cursor to recover the outbox against")
            return
        size = path.stat().st_size if path.exists() else 0
        if size < committed:
            self._refuse(
                artifact,
                f"outbox holds {size} bytes but the cursor committed {committed}; "
                "committed submissions are lost",
            )
            return
        with path.open("ab") as fh:
            fh.truncate(committed)
        self._did("truncate", artifact, f"cut to the committed {committed} bytes")

    # -- residue and sidecars ---------------------------------------------------

    def _sweep_residue(self) -> None:
        for finding in self.report.scan.warnings:
            if finding.family != "residue":
                continue
            path = self.state_dir / finding.artifact
            if path.exists():
                self._quarantine(path)

    def _refresh_sidecars(self) -> None:
        """Re-record checksums for stale sidecars — only on otherwise-clean families.

        Runs against a *post-repair* scan: a family that still carries
        corruption (a refused rebuild, say a bit-flipped manifest pin)
        keeps its stale sidecar, so a refresh can never launder damage
        into a valid checksum.
        """
        import hashlib

        interim = ArtifactCatalog(self.state_dir).scan()
        dirty_families = {f.family for f in interim.corrupt}
        for finding in interim.findings:
            if finding.verdict != "stale-checksum" or finding.family in dirty_families:
                continue
            path = self.state_dir / finding.artifact
            try:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
            except OSError:
                continue
            write_sidecar(path, digest)
            self._did("refresh-checksum", finding.artifact, "sidecar re-recorded")
