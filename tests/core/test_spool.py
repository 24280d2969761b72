"""Tests for the length-prefixed spool blob format and the durable-write primitive."""

import os
import stat
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spool import (
    MAGIC,
    BlobInfo,
    SpoolError,
    atomic_write,
    blob_sha256,
    iter_blob,
    read_blob,
    record_nbytes,
    write_blob,
)


class TestRoundTrip:
    @given(values=st.lists(st.integers(min_value=0, max_value=1 << 2048), max_size=50))
    @settings(max_examples=100)
    def test_write_then_read(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("spool") / "blob.bin"
        info = write_blob(path, values)
        assert read_blob(path) == values
        assert info.count == len(values)

    def test_lazy_write_consumes_iterator(self, tmp_path):
        path = tmp_path / "b.bin"
        info = write_blob(path, iter([1, 2, 3]))
        assert info.count == 3
        assert read_blob(path) == [1, 2, 3]

    def test_zero_encodes_as_empty_body(self, tmp_path):
        path = tmp_path / "z.bin"
        write_blob(path, [0])
        assert path.stat().st_size == len(MAGIC) + 4
        assert read_blob(path) == [0]

    def test_empty_blob(self, tmp_path):
        path = tmp_path / "e.bin"
        info = write_blob(path, [])
        assert info.count == 0
        assert read_blob(path) == []


class TestAccounting:
    @given(value=st.integers(min_value=0, max_value=1 << 512))
    @settings(max_examples=100)
    def test_record_nbytes_matches_disk(self, tmp_path_factory, value):
        path = tmp_path_factory.mktemp("spool") / "one.bin"
        info = write_blob(path, [value])
        assert info.nbytes == len(MAGIC) + record_nbytes(value)
        assert path.stat().st_size == info.nbytes

    def test_info_hash_matches_file(self, tmp_path):
        path = tmp_path / "h.bin"
        info = write_blob(path, [7, 11])
        assert blob_sha256(path) == info.sha256
        assert isinstance(info, BlobInfo)


class TestCorruption:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTSPOOL" + b"\x00" * 8)
        with pytest.raises(SpoolError, match="bad magic"):
            list(iter_blob(path))

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(MAGIC + b"\x01\x02")  # dangling partial length field
        with pytest.raises(SpoolError, match="truncated record header"):
            list(iter_blob(path))

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "t2.bin"
        write_blob(path, [1 << 64])
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(SpoolError, match="truncated record body"):
            list(iter_blob(path))

    def test_negative_rejected(self, tmp_path):
        with pytest.raises(SpoolError):
            write_blob(tmp_path / "n.bin", [-1])

    def test_failed_write_leaves_no_blob(self, tmp_path):
        path = tmp_path / "crash.bin"

        def explode():
            yield 5
            raise RuntimeError("mid-write crash")

        with pytest.raises(RuntimeError):
            write_blob(path, explode())
        assert not path.exists()  # only the .tmp sibling, never the real name

    def test_bitflip_changes_hash(self, tmp_path):
        path = tmp_path / "f.bin"
        info = write_blob(path, [12345])
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        assert blob_sha256(path) != info.sha256


class TestAtomicWrite:
    def test_returns_size_and_digest_of_the_file(self, tmp_path):
        path = tmp_path / "a.json"
        nbytes, sha256 = atomic_write(path, [b'{"a": ', b"", b"1}\n"])
        assert (nbytes, sha256) == (path.stat().st_size, blob_sha256(path))

    @pytest.mark.parametrize(
        ("write", "item"), [(write_blob, 5), (atomic_write, b"partial")],
        ids=["write_blob", "atomic_write"],
    )
    def test_failed_write_keeps_the_old_file(self, tmp_path, write, item):
        path = tmp_path / "state.bin"
        write_blob(path, [1, 2])
        old = path.read_bytes()

        def explode():
            yield item
            raise RuntimeError("mid-write crash")

        with pytest.raises(RuntimeError):
            write(path, explode())
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.bin", "state.bin.tmp"]


# -- every durable writer fsyncs the directory of each rename -------------------


def _dir_id(st) -> tuple[int, int]:
    return st.st_dev, st.st_ino


def assert_renames_reach_disk(monkeypatch, action) -> None:
    """Run ``action`` and check every rename is followed by an fsync of its directory."""
    events = []
    real_replace, real_fsync = os.replace, os.fsync

    def replace(src, dst, *args, **kwargs):
        real_replace(src, dst, *args, **kwargs)
        parent = os.path.dirname(os.path.abspath(dst))
        events.append(("rename", _dir_id(os.stat(parent)), str(dst)))

    def fsync(fd):
        st = os.fstat(fd)
        real_fsync(fd)
        if stat.S_ISDIR(st.st_mode):
            events.append(("dir-fsync", _dir_id(st), None))

    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "fsync", fsync)
    try:
        action()
    finally:
        monkeypatch.undo()
    assert any(kind == "rename" for kind, _, _ in events), "the writer renamed nothing"
    for pos, (kind, directory, name) in enumerate(events):
        if kind == "rename":
            assert ("dir-fsync", directory, None) in events[pos + 1 :], (
                f"{name} was renamed into place but its directory was never fsynced"
            )


def _moduli():
    from repro.rsa.corpus import generate_weak_corpus

    return generate_weak_corpus(8, 64, shared_groups=(2,), seed=13).moduli


def _registry_commit(tmp_path):
    from repro.service.registry import WeakKeyRegistry

    registry = WeakKeyRegistry(tmp_path)
    registry.load()
    return lambda: registry.commit_batch(_moduli(), [])


def _ptree_append(tmp_path):
    from repro.core.ptree import PersistentProductTree

    tree = PersistentProductTree(spool_dir=tmp_path / "ptree")
    return lambda: tree.append(_moduli())


def _checkpoint_save(tmp_path):
    from repro.core.checkpoint import CheckpointStore, Manifest

    return lambda: CheckpointStore(tmp_path).save(Manifest(config={"n_moduli": 0}))


def _pipeline_run(tmp_path):
    from repro.core.pipeline import PipelineConfig, run_pipeline

    return lambda: run_pipeline(_moduli(), PipelineConfig(spool_dir=tmp_path))


def _shard_persist(tmp_path):
    from repro.service.shard import _ShardWorker

    worker = _ShardWorker(0, 2, 1, str(tmp_path), "auto", None)
    return worker._persist


def _cursor_commit(tmp_path):
    from repro.ingest.cursor import CrawlCursor, CrawlState

    cursor = CrawlCursor(tmp_path)
    return lambda: cursor.commit(CrawlState("http://log", 0, 10, next_index=4))


def _fsck_rebuild(tmp_path):
    from repro.core.attack import find_shared_primes
    from repro.integrity.fsck import run_fsck
    from tests.integrity.conftest import build_state, flip_byte

    moduli = _moduli()
    build_state(tmp_path, SimpleNamespace(moduli=moduli), find_shared_primes(moduli).hits)
    flip_byte(tmp_path / "keys-000000.bin")

    def repair():
        report = run_fsck(tmp_path, repair=True)
        assert [r["action"] for r in report.repairs].count("rebuild") == 1, report.repairs

    return repair


@pytest.mark.parametrize(
    "setup",
    [
        _registry_commit,
        _ptree_append,
        _checkpoint_save,
        _pipeline_run,
        _shard_persist,
        _cursor_commit,
        _fsck_rebuild,
    ],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_every_rename_is_followed_by_a_directory_fsync(tmp_path, monkeypatch, setup):
    assert_renames_reach_disk(monkeypatch, setup(tmp_path))
