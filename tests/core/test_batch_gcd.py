"""Tests for the product/remainder-tree batch GCD baseline."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch_gcd import batch_gcd, product_tree, remainder_tree
from repro.telemetry import Telemetry


class TestProductTree:
    @given(st.lists(st.integers(min_value=1, max_value=1 << 64), min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_root_is_total_product(self, values):
        levels = product_tree(values)
        assert levels[-1][0] == math.prod(values)
        assert levels[0] == values

    def test_odd_level_carries_last(self):
        levels = product_tree([2, 3, 5])
        assert levels[1] == [6, 5]
        assert levels[2] == [30]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            product_tree([])

    def test_keep_levels_false_returns_root_only(self):
        values = [3, 5, 7, 11]
        assert product_tree(values, keep_levels=False) == [[3 * 5 * 7 * 11]]
        # the level gauge reports the tree's height, not the retained levels
        tel = Telemetry.create()
        product_tree([3, 5, 7, 11, 13], keep_levels=False, telemetry=tel)
        assert tel.registry.gauge("batch.levels").value == 4

    @given(st.lists(st.integers(min_value=1, max_value=1 << 32), min_size=1, max_size=25))
    @settings(max_examples=50)
    def test_keep_levels_false_same_root(self, values):
        full = product_tree(values)
        assert product_tree(values, keep_levels=False) == [full[-1]]

    @pytest.mark.parametrize("m", [4, 8, 16, 64])
    def test_peak_retained_nodes_regression(self, m):
        # keep_levels=True retains the whole tree: 2m-1 nodes for power-of-two
        # m.  The root-only path holds only the current level plus the one
        # being built: m + m/2 at its peak — the regression this guards.
        tel_full = Telemetry.create()
        product_tree([3] * m, telemetry=tel_full)
        tel_lean = Telemetry.create()
        product_tree([3] * m, keep_levels=False, telemetry=tel_lean)
        peak = lambda t: t.registry.gauge("batch.peak_retained_nodes").value
        assert peak(tel_full) == 2 * m - 1
        assert peak(tel_lean) == m + m // 2
        assert peak(tel_lean) < peak(tel_full)


class TestRemainderTree:
    @given(st.lists(st.integers(min_value=2, max_value=1 << 48), min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_leaves_are_root_mod_square(self, values):
        levels = product_tree(values)
        n = levels[-1][0]
        rems = remainder_tree(levels)
        assert rems == [n % (v * v) for v in values]

    def test_unsquared_variant(self):
        values = [7, 11, 13]
        levels = product_tree(values)
        rems = remainder_tree(levels, square=False)
        assert rems == [0, 0, 0]  # every leaf divides the product


class TestBatchGcd:
    def test_disjoint_moduli_all_one(self):
        ns = [7 * 11, 13 * 17, 19 * 23]
        assert batch_gcd(ns) == [1, 1, 1]

    def test_single_shared_prime(self):
        p, q1, q2, r1, r2 = 101, 103, 107, 109, 113
        ns = [p * q1, p * q2, r1 * r2]
        assert batch_gcd(ns) == [p, p, 1]

    def test_three_way_share(self):
        p = 1009
        ns = [p * 1013, p * 1019, p * 1021]
        assert batch_gcd(ns) == [p, p, p]

    def test_duplicate_modulus_returns_itself(self):
        n = 101 * 103
        out = batch_gcd([n, n, 107 * 109])
        assert out[0] == n and out[1] == n and out[2] == 1

    def test_matches_pairwise_definition(self):
        rng = random.Random(0)
        primes = [1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049]
        ns = [rng.choice(primes) * rng.choice(primes) for _ in range(10)]
        got = batch_gcd(ns)
        for i, n in enumerate(ns):
            others = math.prod(ns[:i] + ns[i + 1 :])
            assert got[i] == math.gcd(n, (others % n)) or got[i] == math.gcd(n, others)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_agrees_with_allpairs_on_random_weak_corpora(self, data):
        primes = [10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079, 10091, 10093]
        k = data.draw(st.integers(min_value=2, max_value=8))
        pairs = [
            tuple(data.draw(st.sampled_from(primes)) for _ in range(2)) for _ in range(k)
        ]
        ns = [a * b for a, b in pairs if a != b]
        if len(ns) < 2:
            return
        got = batch_gcd(ns)
        for i, n in enumerate(ns):
            expect = 1
            for j, m in enumerate(ns):
                if i != j:
                    expect = math.lcm(expect, math.gcd(n, m)) if expect else math.gcd(n, m)
            # batch value divides n and is divisible by every pairwise gcd
            assert got[i] % expect == 0
            assert n % got[i] == 0

    def test_too_few_moduli(self):
        with pytest.raises(ValueError):
            batch_gcd([15])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            batch_gcd([15, 0])
