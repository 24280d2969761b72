"""Tests for the sharded, checkpointed batch-GCD pipeline.

The load-bearing property: however a run is interrupted, resumed, chunked
or parallelised, the final hit set equals the in-memory ``batch_gcd``
oracle on the same moduli — and, for planted corpora, the ground truth.
"""

import io
import json
import random

import pytest

from repro.core import pipeline
from repro.core.attack import find_shared_primes
from repro.core.checkpoint import MANIFEST_NAME, CheckpointStore
from repro.core.pipeline import (
    PipelineConfig,
    level_sizes,
    quick_check,
    run_pipeline,
    stage_plan,
)
from repro.core.spool import read_blob
from repro.rsa.corpus import generate_weak_corpus
from repro.telemetry import Telemetry


class _Kill(RuntimeError):
    """Injected crash: simulates the process dying between stages."""


def _kill_after(stage_name):
    def hook(stage):
        if stage == stage_name:
            raise _Kill(stage)

    return hook


@pytest.fixture(scope="module")
def corpus():
    return generate_weak_corpus(
        12, 64, shared_groups=(2, 3), duplicates=1, seed=3
    )


@pytest.fixture(scope="module")
def oracle_hits(corpus):
    report = find_shared_primes(
        corpus.moduli, backend="batch", early_terminate=False
    )
    return {(h.i, h.j, h.prime) for h in report.hits}


def _hit_triples(result):
    return {(h.i, h.j, h.prime) for h in result.hits}


ALL_STAGES = [name for name, _ in stage_plan(12)]


class TestPlan:
    def test_level_sizes_halve_with_carry(self):
        assert level_sizes(12) == [12, 6, 3, 2, 1]
        assert level_sizes(2) == [2, 1]

    @pytest.mark.parametrize("n", [2, 3, 7, 12, 100])
    def test_plan_shape(self, n):
        plan = stage_plan(n)
        top = len(level_sizes(n)) - 1
        assert plan[0] == ("ingest", "product-000.bin")
        assert plan[-2:] == [("leaf", "gcds.bin"), ("pairing", "hits.json")]
        assert len(plan) == 2 * top + 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            level_sizes(0)


class TestFullRun:
    def test_matches_oracle_and_ground_truth(self, corpus, oracle_hits, tmp_path):
        result = run_pipeline(
            corpus.moduli, PipelineConfig(spool_dir=tmp_path)
        )
        assert _hit_triples(result) == oracle_hits
        assert result.hit_pairs == corpus.weak_pair_set()
        assert result.n_moduli == 12
        assert result.levels == 4
        assert result.stages_run == ALL_STAGES
        assert not result.resumed

    def test_all_stage_blobs_on_disk(self, corpus, tmp_path):
        run_pipeline(corpus.moduli, PipelineConfig(spool_dir=tmp_path))
        for _, blob in stage_plan(12):
            assert (tmp_path / blob).exists()
        manifest = CheckpointStore(tmp_path).load()
        assert [r.name for r in manifest.stages] == ALL_STAGES
        assert manifest.config["n_moduli"] == 12

    def test_workers_equivalent_to_inline(self, corpus, oracle_hits, tmp_path):
        result = run_pipeline(
            corpus.moduli,
            PipelineConfig(spool_dir=tmp_path, workers=2, memory_budget=4096),
        )
        assert _hit_triples(result) == oracle_hits

    def test_two_workers_split_every_level(self, tmp_path, monkeypatch):
        # the default budget dwarfs these levels; the 1/workers cap must
        # still hand each worker a chunk of every level of >= 2 sibling pairs
        rng = random.Random(5)
        moduli = [rng.getrandbits(1024) | (1 << 1023) | 1 for _ in range(8)]
        run_pipeline(moduli, PipelineConfig(spool_dir=tmp_path / "w0"))

        chunk_counts = []
        real = pipeline.run_chunked

        def spy(fn, chunks, **kwargs):
            chunks = list(chunks)
            items = [c[1] if fn.func.__name__ == "remainder_chunk" else c for c in chunks]
            chunk_counts.append((fn.func.__name__, sum(map(len, items)), len(chunks)))
            return real(fn, iter(chunks), **kwargs)

        monkeypatch.setattr(pipeline, "run_chunked", spy)
        run_pipeline(moduli, PipelineConfig(spool_dir=tmp_path / "w2", workers=2))

        split = [(name, count) for name, items, count in chunk_counts if items >= 4]
        assert [name for name, _ in split] == [
            "product_chunk", "product_chunk", "remainder_chunk", "remainder_chunk",
            "leaf_gcd_chunk",
        ]
        assert all(count >= 2 for _, count in split)
        for _, blob in stage_plan(len(moduli)):
            assert (tmp_path / "w2" / blob).read_bytes() == (tmp_path / "w0" / blob).read_bytes()

    def test_tiny_budget_forces_chunking(self, corpus, oracle_hits, tmp_path):
        result = run_pipeline(
            corpus.moduli,
            PipelineConfig(spool_dir=tmp_path, memory_budget=1),
        )
        assert _hit_triples(result) == oracle_hits
        counters = result.metrics["counters"]
        assert counters["pipeline.chunks"] > len(ALL_STAGES)  # min chunk = 256 B
        assert counters["pipeline.bytes_spilled"] > 0

    def test_clean_corpus_has_no_hits(self, tmp_path):
        clean = generate_weak_corpus(6, 64, shared_groups=(2,), seed=9)
        moduli = [n for i, n in enumerate(clean.moduli) if i not in
                  {w for p in clean.weak_pairs for w in (p.i, p.j)}]
        assert len(moduli) >= 4
        result = run_pipeline(moduli, PipelineConfig(spool_dir=tmp_path))
        assert result.hits == []
        hits_doc = json.loads((tmp_path / "hits.json").read_text())
        assert hits_doc == {"hits": [], "flagged": 0}

    def test_rejects_even_modulus(self, tmp_path):
        with pytest.raises(ValueError, match="odd"):
            run_pipeline(
                [33, 34, 35], PipelineConfig(spool_dir=tmp_path, retries=0)
            )

    def test_rejects_single_modulus(self, tmp_path):
        with pytest.raises(ValueError, match="at least two"):
            run_pipeline([33], PipelineConfig(spool_dir=tmp_path, retries=0))


class TestCrashResume:
    @pytest.mark.parametrize("killed_at", ALL_STAGES[:-1])
    def test_resume_after_kill_matches_uninterrupted(
        self, corpus, oracle_hits, tmp_path, killed_at
    ):
        config = PipelineConfig(spool_dir=tmp_path)
        with pytest.raises(_Kill):
            run_pipeline(corpus.moduli, config, _stage_hook=_kill_after(killed_at))

        resumed = run_pipeline(
            corpus.moduli,
            PipelineConfig(spool_dir=tmp_path, resume=True),
        )
        assert _hit_triples(resumed) == oracle_hits
        assert resumed.resumed
        done = ALL_STAGES[: ALL_STAGES.index(killed_at) + 1]
        assert resumed.stages_skipped == done
        assert resumed.stages_run == ALL_STAGES[len(done):]

    def test_kill_after_pairing_resumes_to_noop(self, corpus, oracle_hits, tmp_path):
        config = PipelineConfig(spool_dir=tmp_path)
        with pytest.raises(_Kill):
            run_pipeline(corpus.moduli, config, _stage_hook=_kill_after("pairing"))
        resumed = run_pipeline(
            corpus.moduli, PipelineConfig(spool_dir=tmp_path, resume=True)
        )
        assert resumed.stages_run == []
        assert resumed.stages_skipped == ALL_STAGES
        # hits come back from hits.json, not recomputation
        assert _hit_triples(resumed) == oracle_hits

    def test_resume_without_flag_restarts(self, corpus, tmp_path):
        config = PipelineConfig(spool_dir=tmp_path)
        with pytest.raises(_Kill):
            run_pipeline(corpus.moduli, config, _stage_hook=_kill_after("product.2"))
        fresh = run_pipeline(corpus.moduli, config)  # resume=False
        assert not fresh.resumed
        assert fresh.stages_run == ALL_STAGES

    def test_resume_on_empty_dir_is_fresh_run(self, corpus, oracle_hits, tmp_path):
        result = run_pipeline(
            corpus.moduli, PipelineConfig(spool_dir=tmp_path, resume=True)
        )
        assert not result.resumed
        assert _hit_triples(result) == oracle_hits

    def test_corrupt_blob_invalidates_suffix(self, corpus, oracle_hits, tmp_path):
        config = PipelineConfig(spool_dir=tmp_path)
        with pytest.raises(_Kill):
            run_pipeline(corpus.moduli, config, _stage_hook=_kill_after("remainder.2"))
        target = tmp_path / "product-002.bin"
        target.write_bytes(target.read_bytes()[:-1])  # truncate: hash mismatch

        resumed = run_pipeline(
            corpus.moduli, PipelineConfig(spool_dir=tmp_path, resume=True)
        )
        assert _hit_triples(resumed) == oracle_hits
        assert "product.2" in resumed.stages_run  # re-ran from the corruption
        assert resumed.stages_skipped == ["ingest", "product.1"]

    def test_corrupt_manifest_restarts_cleanly(self, corpus, oracle_hits, tmp_path):
        config = PipelineConfig(spool_dir=tmp_path)
        with pytest.raises(_Kill):
            run_pipeline(corpus.moduli, config, _stage_hook=_kill_after("leaf"))
        (tmp_path / MANIFEST_NAME).write_text("{corrupt")

        resumed = run_pipeline(
            corpus.moduli, PipelineConfig(spool_dir=tmp_path, resume=True)
        )
        assert not resumed.resumed
        assert resumed.stages_run == ALL_STAGES
        assert _hit_triples(resumed) == oracle_hits

    def test_corrupt_ingest_blob_restarts_and_rereads_source(
        self, corpus, oracle_hits, tmp_path
    ):
        config = PipelineConfig(spool_dir=tmp_path)
        with pytest.raises(_Kill):
            run_pipeline(corpus.moduli, config, _stage_hook=_kill_after("product.1"))
        (tmp_path / "product-000.bin").write_bytes(b"RGSPOOL1")

        resumed = run_pipeline(
            corpus.moduli, PipelineConfig(spool_dir=tmp_path, resume=True)
        )
        assert not resumed.resumed  # nothing trustworthy survived
        assert _hit_triples(resumed) == oracle_hits

    def test_retry_recovers_from_transient_failure(self, corpus, oracle_hits, tmp_path):
        calls = {"n": 0}
        real_moduli = corpus.moduli

        class FlakyOnce:
            def __iter__(self):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise OSError("transient read failure")
                return iter(real_moduli)

        result = run_pipeline(
            FlakyOnce(), PipelineConfig(spool_dir=tmp_path, retries=1)
        )
        assert _hit_triples(result) == oracle_hits
        assert result.metrics["counters"]["pipeline.stage_retries"] == 1

    def test_retries_exhausted_raises_last_error(self, tmp_path):
        class AlwaysBroken:
            def __iter__(self):
                raise OSError("disk on fire")

        with pytest.raises(OSError, match="disk on fire"):
            run_pipeline(
                AlwaysBroken(), PipelineConfig(spool_dir=tmp_path, retries=2)
            )

    def test_one_shot_source_works_when_ingest_succeeds(
        self, corpus, oracle_hits, tmp_path
    ):
        result = run_pipeline(
            iter(corpus.moduli), PipelineConfig(spool_dir=tmp_path)
        )
        assert _hit_triples(result) == oracle_hits

    def test_one_shot_source_failure_is_not_retried(self, corpus, tmp_path):
        # Retrying a partially consumed generator would re-read only the
        # unconsumed tail and commit a silently truncated corpus.
        def flaky_gen():
            yield from corpus.moduli[:5]
            raise OSError("transient read failure")

        with pytest.raises(OSError, match="transient"):
            run_pipeline(
                flaky_gen(), PipelineConfig(spool_dir=tmp_path, retries=3)
            )
        # nothing was committed: no truncated ingest blob to resume from
        assert CheckpointStore(tmp_path).load() is None

    def test_retry_does_not_double_count_stage_metrics(self, corpus, tmp_path):
        calls = {"n": 0}
        real_moduli = corpus.moduli

        class FlakyMidway:
            def __iter__(self):
                calls["n"] += 1
                if calls["n"] == 1:
                    def gen():
                        yield from real_moduli[:7]  # partway, then die
                        raise OSError("transient read failure")

                    return gen()
                return iter(real_moduli)

        result = run_pipeline(
            FlakyMidway(),
            PipelineConfig(spool_dir=tmp_path, retries=1),
        )
        counters = result.metrics["counters"]
        assert counters["pipeline.stage_retries"] == 1
        # only the successful attempt's records are counted
        assert counters["pipeline.moduli"] == 12


class TestTelemetry:
    def test_events_and_metrics(self, corpus, tmp_path):
        stream = io.StringIO()
        tel = Telemetry.create(event_stream=stream)
        result = run_pipeline(
            corpus.moduli, PipelineConfig(spool_dir=tmp_path), telemetry=tel
        )
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [e["seq"] for e in events] == list(range(len(events)))
        names = [e["event"] for e in events]
        assert names[0] == "pipeline.stage.start"
        assert names[-1] == "pipeline.done"
        assert names.count("pipeline.stage.done") == len(ALL_STAGES)
        assert result.metrics["counters"]["pipeline.moduli"] == 12
        assert "pipeline" in result.metrics["stages"]


class TestQuickCheck:
    def test_against_corpus_moduli(self):
        # 91 = 7 * 13; only 7 divides the corpus product
        assert quick_check([91, 13], corpus_moduli=[33, 35, 55]) == [7, 1]

    def test_member_modulus_flags_as_duplicate(self):
        assert quick_check([33], corpus_moduli=[33, 35, 55]) == [33]

    def test_against_finished_spool(self, corpus, tmp_path):
        run_pipeline(corpus.moduli, PipelineConfig(spool_dir=tmp_path))
        root = read_blob(tmp_path / "product-004.bin")[0]
        probe = corpus.moduli[0]
        got = quick_check([probe], spool_dir=tmp_path)
        assert got == [probe]  # member of the corpus
        assert root % probe == 0

    def test_spool_without_tree_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            quick_check([7], spool_dir=tmp_path)

    @pytest.mark.parametrize("killed_at", ["ingest", "product.1", "product.3"])
    def test_partial_tree_spool_rejected(self, corpus, tmp_path, killed_at):
        # A run killed mid-tree has partial-level blobs whose first value is
        # NOT the corpus product; GCD-ing against it gives false negatives.
        with pytest.raises(_Kill):
            run_pipeline(
                corpus.moduli,
                PipelineConfig(spool_dir=tmp_path),
                _stage_hook=_kill_after(killed_at),
            )
        with pytest.raises(ValueError, match="root"):
            quick_check([corpus.moduli[0]], spool_dir=tmp_path)

    def test_exactly_one_source_required(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one"):
            quick_check([7])
        with pytest.raises(ValueError, match="exactly one"):
            quick_check([7], spool_dir=tmp_path, corpus_moduli=[15])
