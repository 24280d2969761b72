"""Build the preloaded registry state dir that ``stream`` and ``lookup`` serve.

Only public APIs: one :meth:`WeakKeyRegistry.commit_batch` with the
ground-truth hits of the preload's planted groups, then
:meth:`PersistentProductTree.append` into ``state/ptree`` so that a starting
``repro serve`` reloads the tree instead of rebuilding it.  The dir must pass
:func:`run_fsck` before any timing starts.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.attack import WeakHit
from repro.core.ptree import PersistentProductTree
from repro.integrity import run_fsck
from repro.service.registry import WeakKeyRegistry


def build_state(state_dir: Path, moduli: list[int], hits: dict[tuple[int, int], int]) -> None:
    registry = WeakKeyRegistry(state_dir)
    registry.load()
    registry.commit_batch(
        moduli, [WeakHit(i, j, prime) for (i, j), prime in sorted(hits.items())]
    )
    PersistentProductTree(spool_dir=state_dir / "ptree").append(moduli)
    require_clean(state_dir)


def require_clean(state_dir: Path) -> None:
    report = run_fsck(state_dir)
    if not report.clean:
        bad = [f"{f.family}/{f.artifact}: {f.verdict}" for f in report.scan.corrupt]
        raise RuntimeError(f"fsck found {state_dir} corrupt: {bad}")
