"""Tests for the multiprocessing attack backend and chunked stage runner."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attack import find_shared_primes
from repro.core.parallel import (
    find_shared_primes_parallel,
    leaf_gcd_chunk,
    product_chunk,
    remainder_chunk,
    run_chunked,
)
from repro.rsa.corpus import generate_weak_corpus

BITS = 64


@pytest.fixture(scope="module")
def corpus():
    return generate_weak_corpus(20, BITS, shared_groups=(2, 2), seed=21)


class TestParallelBackend:
    def test_matches_serial_results(self, corpus):
        serial = find_shared_primes(corpus.moduli, backend="bulk", group_size=8)
        parallel = find_shared_primes_parallel(corpus.moduli, processes=2, group_size=8)
        assert parallel.hit_pairs == serial.hit_pairs == corpus.weak_pair_set()
        assert parallel.pairs_tested == serial.pairs_tested
        assert [h.prime for h in parallel.hits] == [h.prime for h in serial.hits]

    def test_single_process(self, corpus):
        rep = find_shared_primes_parallel(corpus.moduli, processes=1, group_size=8)
        assert rep.hit_pairs == corpus.weak_pair_set()

    def test_group_size_invariance(self, corpus):
        a = find_shared_primes_parallel(corpus.moduli, processes=2, group_size=3)
        b = find_shared_primes_parallel(corpus.moduli, processes=2, group_size=20)
        assert a.hit_pairs == b.hit_pairs

    def test_no_early_terminate(self, corpus):
        rep = find_shared_primes_parallel(
            corpus.moduli, processes=2, group_size=8, early_terminate=False
        )
        assert rep.hit_pairs == corpus.weak_pair_set()

    def test_accounting(self, corpus):
        rep = find_shared_primes_parallel(corpus.moduli, processes=2, group_size=8)
        m = corpus.n_keys
        assert rep.m == m
        assert rep.pairs_tested == m * (m - 1) // 2
        assert rep.backend == "parallel"
        assert rep.blocks > 0
        assert rep.loop_trips > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            find_shared_primes_parallel([15])
        with pytest.raises(ValueError):
            find_shared_primes_parallel([15, 22])


class TestChunkFunctions:
    def test_product_chunk_pairs_and_singleton(self):
        assert product_chunk([3, 5, 7]) == [15, 7]

    def test_remainder_chunk_mod_square(self):
        assert remainder_chunk(([1000], [7, 11])) == [1000 % 49, 1000 % 121]

    def test_leaf_gcd_chunk_recovers_shared_prime(self):
        moduli = [7 * 11, 7 * 13, 17 * 19]
        n_total = math.prod(moduli)
        items = [(n, n_total % (n * n)) for n in moduli]
        assert leaf_gcd_chunk(items) == [7, 7, 1]


class TestRunChunked:
    @given(
        chunks=st.lists(st.lists(st.integers(0, 100), max_size=5), max_size=8),
        workers=st.sampled_from([0, 1, 2]),
    )
    @settings(max_examples=20, deadline=None)
    def test_order_preserved(self, chunks, workers):
        double = lambda chunk: [2 * x for x in chunk]
        got = list(run_chunked(_double, iter(chunks), workers=workers))
        assert got == [double(chunk) for chunk in chunks]

    def test_inline_when_single_worker(self):
        # workers<=1 never touches a process pool: a non-picklable closure works
        flag = []
        fn = lambda chunk: (flag.append(1), chunk)[1]  # noqa: E731
        assert list(run_chunked(fn, iter([[1], [2]]), workers=1)) == [[1], [2]]
        assert flag == [1, 1]

    def test_pool_matches_inline(self):
        chunks = [[i, i + 1] for i in range(0, 40, 2)]
        inline = list(run_chunked(_double, iter(chunks), workers=0))
        pooled = list(run_chunked(_double, iter(chunks), workers=3))
        assert pooled == inline

    def test_lazy_input_consumption(self):
        consumed = []

        def chunks():
            for i in range(100):
                consumed.append(i)
                yield [i]

        out = run_chunked(_double, chunks(), workers=2, max_in_flight=2)
        next(iter_out := iter(out))
        # bounded window: far fewer than all 100 chunks were pulled to
        # produce the first result
        assert len(consumed) < 20
        assert len(list(iter_out)) == 99

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            list(run_chunked(_explode, iter([[1]]), workers=2))


def _double(chunk):
    return [2 * x for x in chunk]


def _explode(chunk):
    raise ValueError("boom")
