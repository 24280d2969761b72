"""Tests for the incremental (streamed) weak-key scanner."""

import math

import pytest

from repro.core.attack import find_shared_primes
from repro.core import incremental
from repro.core.incremental import ENGINES, IncrementalScanner
from repro.rsa.corpus import generate_weak_corpus

BITS = 64


@pytest.fixture(scope="module")
def corpus():
    # one pair inside the first batch, one triple spanning batches
    return generate_weak_corpus(18, BITS, shared_groups=(2, 3), seed=31)


class TestIncrementalScanner:
    def test_streamed_equals_snapshot(self, corpus):
        snapshot = find_shared_primes(corpus.moduli, backend="bulk", group_size=6)
        scanner = IncrementalScanner(bits=BITS)
        for start in range(0, corpus.n_keys, 5):
            scanner.add_batch(corpus.moduli[start : start + 5])
        assert {(h.i, h.j) for h in scanner.all_hits} == snapshot.hit_pairs
        assert scanner.coverage_is_complete()

    def test_cross_batch_hits_found_at_arrival(self, corpus):
        weak = corpus.weak_pair_set()
        scanner = IncrementalScanner(bits=BITS)
        found: set[tuple[int, int]] = set()
        for start in range(0, corpus.n_keys, 4):
            rep = scanner.add_batch(corpus.moduli[start : start + 4])
            for i, j in rep.hit_pairs:
                # a hit appears exactly when its *second* member arrives
                assert j >= start
                found.add((i, j))
        assert found == weak

    def test_pairs_tested_is_exactly_all_pairs(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        total = 0
        for start in range(0, corpus.n_keys, 7):
            rep = scanner.add_batch(corpus.moduli[start : start + 7])
            total += rep.pairs_tested
        m = corpus.n_keys
        assert total == m * (m - 1) // 2

    def test_chunking_does_not_change_results(self, corpus):
        a = IncrementalScanner(bits=BITS, chunk_pairs=3)
        b = IncrementalScanner(bits=BITS, chunk_pairs=10_000)
        a.add_batch(corpus.moduli)
        b.add_batch(corpus.moduli)
        assert {(h.i, h.j) for h in a.all_hits} == {(h.i, h.j) for h in b.all_hits}

    def test_hit_primes_divide_moduli(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        scanner.add_batch(corpus.moduli)
        for h in scanner.all_hits:
            assert corpus.moduli[h.i] % h.prime == 0
            assert corpus.moduli[h.j] % h.prime == 0
            assert math.gcd(corpus.moduli[h.i], corpus.moduli[h.j]) == h.prime

    def test_single_key_batch(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        scanner.add_batch(corpus.moduli[:1])
        rep = scanner.add_batch(corpus.moduli[1:2])
        assert rep.pairs_tested == 1

    def test_empty_batch(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        scanner.add_batch(corpus.moduli[:3])
        rep = scanner.add_batch([])
        assert rep.pairs_tested == 0
        assert rep.new_keys == 0

    def test_wrong_size_rejected(self):
        scanner = IncrementalScanner(bits=BITS)
        with pytest.raises(ValueError):
            scanner.add_batch([(1 << 90) + 1])

    def test_even_rejected(self):
        scanner = IncrementalScanner(bits=BITS)
        with pytest.raises(ValueError):
            scanner.add_batch([1 << 63])

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            IncrementalScanner(bits=15)
        with pytest.raises(ValueError):
            IncrementalScanner(bits=64, chunk_pairs=0)

    def test_no_early_terminate_mode(self, corpus):
        scanner = IncrementalScanner(bits=BITS, early_terminate=False)
        scanner.add_batch(corpus.moduli[:8])
        expected = {
            (i, j) for (i, j) in corpus.weak_pair_set() if i < 8 and j < 8
        }
        assert {(h.i, h.j) for h in scanner.all_hits} == expected


class TestSnapshotRestore:
    def test_roundtrip_equals_uninterrupted_run(self, corpus):
        straight = IncrementalScanner(bits=BITS)
        for start in range(0, corpus.n_keys, 6):
            straight.add_batch(corpus.moduli[start : start + 6])

        interrupted = IncrementalScanner(bits=BITS)
        interrupted.add_batch(corpus.moduli[:6])
        resumed = IncrementalScanner.restore(interrupted.snapshot())
        for start in range(6, corpus.n_keys, 6):
            resumed.add_batch(corpus.moduli[start : start + 6])

        assert resumed.moduli == straight.moduli
        assert resumed.all_hits == straight.all_hits
        assert resumed.total_pairs_tested == straight.total_pairs_tested
        assert resumed.coverage_is_complete()

    def test_restore_never_rescans_or_rereports(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        scanner.add_batch(corpus.moduli[:10])
        old_hits = set(scanner.all_hits)
        resumed = IncrementalScanner.restore(scanner.snapshot())
        rep = resumed.add_batch(corpus.moduli[10:])
        k, m = corpus.n_keys - 10, 10
        assert rep.pairs_tested == k * m + k * (k - 1) // 2
        # batch reports only ever carry hits touching the new batch
        assert all(h.j >= 10 for h in rep.hits)
        assert not old_hits & set(rep.hits)

    def test_snapshot_is_json_ready(self, corpus):
        import json

        scanner = IncrementalScanner(bits=BITS)
        scanner.add_batch(corpus.moduli[:5])
        back = IncrementalScanner.restore(json.loads(json.dumps(scanner.snapshot())))
        assert back.moduli == scanner.moduli

    def test_restore_config_overrides(self, corpus):
        scanner = IncrementalScanner(bits=BITS, chunk_pairs=7)
        scanner.add_batch(corpus.moduli[:5])
        resumed = IncrementalScanner.restore(
            scanner.snapshot(), engine="native", chunk_pairs=100
        )
        assert resumed.engine_name == "native" and resumed.chunk_pairs == 100
        with pytest.raises(ValueError, match="unknown restore overrides"):
            IncrementalScanner.restore(scanner.snapshot(), bits=128)

    def test_restore_rejects_corrupt_snapshots(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        scanner.add_batch(corpus.moduli[:4])
        good = scanner.snapshot()
        for version in (1, 99):
            with pytest.raises(ValueError, match="unsupported scanner snapshot version"):
                IncrementalScanner.restore({**good, "version": version})
        with pytest.raises(ValueError, match="invalid"):
            IncrementalScanner.restore({**good, "moduli": [6]})
        with pytest.raises(ValueError, match="out of range"):
            IncrementalScanner.restore({**good, "hits": [[0, 9, 3]]})
        with pytest.raises(ValueError, match="impossible"):
            IncrementalScanner.restore({**good, "total_pairs_tested": 1000})
        with pytest.raises(ValueError, match="dict"):
            IncrementalScanner.restore("nope")

    def test_native_engine_matches_bulk(self, corpus):
        bulk = IncrementalScanner(bits=BITS, engine="bulk")
        native = IncrementalScanner(bits=BITS, engine="native")
        for start in range(0, corpus.n_keys, 5):
            bulk.add_batch(corpus.moduli[start : start + 5])
            native.add_batch(corpus.moduli[start : start + 5])
        assert bulk.all_hits == native.all_hits

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            IncrementalScanner(bits=BITS, engine="quantum")


class TestEngineTiers:
    def test_all_engines_report_identical_streams(self, corpus, tmp_path):
        scanners = {
            name: IncrementalScanner(
                bits=BITS, engine=name,
                spool_dir=tmp_path / name if tier.ptree else None,
            )
            for name, tier in ENGINES.items()
        }
        for start in range(0, corpus.n_keys, 5):
            batch = corpus.moduli[start : start + 5]
            reports = {k: s.add_batch(list(batch)) for k, s in scanners.items()}
            hit_sets = {k: [(h.i, h.j, h.prime) for h in r.hits] for k, r in reports.items()}
            assert len({str(v) for v in hit_sets.values()}) == 1, hit_sets
        reference = scanners["bulk"]
        for scanner in scanners.values():
            assert scanner.all_hits == reference.all_hits
            assert scanner.total_pairs_tested == reference.total_pairs_tested
            assert scanner.coverage_is_complete()

    @staticmethod
    def _auto_picks(corpus, monkeypatch, threshold):
        monkeypatch.setattr(incremental, "AUTO_MIN_CROSS_PAIRS", threshold)
        scanner = IncrementalScanner(bits=BITS, engine="auto")
        # 4 keys after none: 0 cross pairs; 14 keys after 4: 56 cross pairs
        reports = [scanner.add_batch(corpus.moduli[:4]), scanner.add_batch(corpus.moduli[4:])]
        expected = {(h.i, h.j) for h in IncrementalScanner(bits=BITS).add_batch(corpus.moduli).hits}
        assert {(h.i, h.j) for h in scanner.all_hits} == expected
        return [r.engine for r in reports]

    def test_auto_picks_by_measured_crossover(self, corpus, monkeypatch):
        assert self._auto_picks(corpus, monkeypatch, 20) == ["native", "ptree"]

    def test_auto_threshold_env_flips_the_choice(self, corpus, monkeypatch):
        # the threshold is a module constant now, not an environment knob
        assert self._auto_picks(corpus, monkeypatch, 10**6) == ["native", "native"]

    def test_all_hits_stays_sorted_across_merges(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        for start in range(0, corpus.n_keys, 3):
            scanner.add_batch(corpus.moduli[start : start + 3])
        keys = [(h.i, h.j) for h in scanner.all_hits]
        assert keys == sorted(keys)
        assert len(scanner.all_hits) >= 2  # the merge path actually merged


class TestSnapshotVersioning:
    def test_snapshot_records_resolved_backend(self, corpus):
        scanner = IncrementalScanner(bits=BITS, engine="native")
        scanner.add_batch(corpus.moduli[:4])
        assert scanner.snapshot()["int_backend"] == scanner.backend.name

    def test_restore_pins_the_recorded_backend(self, corpus):
        scanner = IncrementalScanner(bits=BITS, engine="native")
        scanner.add_batch(corpus.moduli[:4])
        snap = scanner.snapshot()
        # a host missing the recorded backend must fail loudly, not
        # silently switch arithmetic
        snap["int_backend"] = "gmpy2"
        if "gmpy2" in __import__("repro.util.intops", fromlist=["available_backends"]).available_backends():
            pytest.skip("gmpy2 present; the loud-failure path needs it absent")
        with pytest.raises(ValueError, match="gmpy2"):
            IncrementalScanner.restore(snap)
        # an explicit caller choice still overrides the pin
        back = IncrementalScanner.restore(snap, int_backend="python")
        assert back.backend.name == "python"

    def test_restored_ptree_loads_from_spool(self, corpus, tmp_path):
        from repro.telemetry import Telemetry

        scanner = IncrementalScanner(
            bits=BITS, engine="ptree", spool_dir=tmp_path / "pt"
        )
        scanner.add_batch(corpus.moduli[:10])
        telemetry = Telemetry.create()
        resumed = IncrementalScanner.restore(
            scanner.snapshot(), spool_dir=tmp_path / "pt", telemetry=telemetry
        )
        assert telemetry.registry.counter("ptree.rebuilds").value == 0
        assert resumed._ptree.n_leaves == 10
        resumed.add_batch(corpus.moduli[10:])
        assert resumed.coverage_is_complete()


class TestIncrementalTelemetry:
    def test_batch_reports_carry_metrics(self):
        from repro.rsa.corpus import generate_weak_corpus

        corpus = generate_weak_corpus(20, 64, shared_groups=(2,), seed="inc-tel")
        scanner = IncrementalScanner(bits=64)
        first = scanner.add_batch(corpus.moduli[:10])
        second = scanner.add_batch(corpus.moduli[10:])
        # counters are scanner-lifetime: the second snapshot covers both batches
        assert second.metrics["counters"]["incremental.batches"] == 2
        assert (
            second.metrics["counters"]["scan.pairs_tested"]
            == first.pairs_tested + second.pairs_tested
            == 20 * 19 // 2
        )
        assert second.metrics["stages"]["batch"]["count"] == 2
        assert first.elapsed_seconds > 0 and second.elapsed_seconds > 0

    def test_elapsed_is_per_batch_even_under_enclosing_spans(self):
        from repro.telemetry import Telemetry

        corpus = generate_weak_corpus(12, 64, shared_groups=(2,), seed="inc-span")
        telemetry = Telemetry.create()
        scanner = IncrementalScanner(bits=64, telemetry=telemetry)
        # under an enclosing span the scanner's "batch" span nests to
        # "outer/batch", so deriving elapsed from the shared "batch" total
        # (the old implementation) reports 0 here; each batch must carry
        # its own clock measurement instead
        with telemetry.timer.span("outer"):
            rep = scanner.add_batch(corpus.moduli)
        assert rep.elapsed_seconds > 0


class TestCrossScanAdopt:
    """The shard-fleet primitives: scan-without-adopting, adopt-without-scanning."""

    def _scanner(self, engine, tmp_path):
        spool_dir = tmp_path / f"pt-{engine}" if ENGINES[engine].ptree else None
        return IncrementalScanner(bits=BITS, engine=engine, spool_dir=spool_dir)

    @pytest.mark.parametrize("engine", tuple(ENGINES))
    def test_cross_plus_adopt_equals_add_batch(self, corpus, tmp_path, engine):
        reference = IncrementalScanner(bits=BITS)
        split = self._scanner(engine, tmp_path)
        for start in range(0, corpus.n_keys, 5):
            batch = corpus.moduli[start : start + 5]
            ref = reference.add_batch(list(batch))
            rep = split.cross_scan(list(batch), include_internal=True)
            split.adopt(list(batch))
            assert [(h.i, h.j, h.prime) for h in rep.hits] == [
                (h.i, h.j, h.prime) for h in ref.hits
            ]
            assert rep.pairs_tested == ref.pairs_tested
        assert split.moduli == reference.moduli

    def test_cross_scan_does_not_mutate_state(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        scanner.add_batch(corpus.moduli[:9])
        before = (list(scanner.moduli), scanner.total_pairs_tested, list(scanner.all_hits))
        scanner.cross_scan(corpus.moduli[9:], include_internal=True)
        after = (list(scanner.moduli), scanner.total_pairs_tested, list(scanner.all_hits))
        assert before == after

    def test_internal_pairs_are_opt_in(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        scanner.add_batch(corpus.moduli[:9])
        fresh = corpus.moduli[9:]
        without = scanner.cross_scan(list(fresh))
        with_internal = scanner.cross_scan(list(fresh), include_internal=True)
        k = len(fresh)
        assert without.pairs_tested == 9 * k
        assert with_internal.pairs_tested == 9 * k + k * (k - 1) // 2
        # every hit excluded by the flag is an internal (new, new) pair
        dropped = set((h.i, h.j) for h in with_internal.hits) - set(
            (h.i, h.j) for h in without.hits
        )
        assert all(i >= 9 and j >= 9 for i, j in dropped)

    def test_adopt_alone_tests_no_pairs(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        scanner.adopt(corpus.moduli[:6])
        assert scanner.moduli == corpus.moduli[:6]
        assert scanner.total_pairs_tested == 0 and scanner.all_hits == []
        # the adopted corpus is live: the next batch scans against it
        rep = scanner.add_batch(corpus.moduli[6:])
        expected = 6 * 12 + 12 * 11 // 2
        assert rep.pairs_tested == expected

    def test_adopted_corpus_snapshots_and_restores(self, corpus, tmp_path):
        scanner = self._scanner("ptree", tmp_path)
        scanner.adopt(corpus.moduli[:10])
        scanner.cross_scan(corpus.moduli[10:])
        restored = IncrementalScanner.restore(
            scanner.snapshot(), spool_dir=tmp_path / "pt-ptree"
        )
        assert restored.moduli == corpus.moduli[:10]
        rep = restored.cross_scan(corpus.moduli[10:], include_internal=True)
        full = IncrementalScanner(bits=BITS)
        full.add_batch(corpus.moduli[:10])
        ref = full.cross_scan(corpus.moduli[10:], include_internal=True)
        assert [(h.i, h.j) for h in rep.hits] == [(h.i, h.j) for h in ref.hits]
