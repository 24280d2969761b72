"""Differential test: the ``batchscan`` spool holds the in-memory tree.

Every product blob must equal the in-memory :func:`product_tree` level,
every remainder blob the level of a hand-written square-and-reduce
descent (which reduces the full root, so a wrong root step shows), and
no pipeline chunk may split a sibling pair or pick up the wrong parents.
Both trees are also checked against hand-written references, so a wrong
pairing or parent rule fails here whichever path it is in.
"""

import math
import random

import pytest

from repro.core import pipeline
from repro.core.batch_gcd import product_tree, remainder_tree
from repro.core.pipeline import DEFAULT_MEMORY_BUDGET, PipelineConfig, run_pipeline
from repro.core.spool import read_blob


def _moduli(n):
    # odd 256-bit composites drawn from a small factor pool, so some share
    # factors and several leaves fill a minimum-size chunk
    rng = random.Random(n)
    pool = [rng.getrandbits(128) | (1 << 127) | 1 for _ in range(n)]
    return [rng.choice(pool) * rng.choice(pool) for _ in range(n)]


def _hand_product_tree(values):
    levels = [list(values)]
    while len(levels[-1]) > 1:
        prev = levels[-1]
        levels.append([math.prod(prev[i : i + 2]) for i in range(0, len(prev), 2)])
    return levels


def _hand_descent(levels):
    """``N mod node²`` for every node below the root, level by level."""
    rems = {len(levels) - 1: levels[-1]}
    for k in range(len(levels) - 2, -1, -1):
        above = rems[k + 1]
        rems[k] = [above[i // 2] % (node * node) for i, node in enumerate(levels[k])]
    return rems


def _spy_chunks(monkeypatch):
    """Record each chunked stage's chunk stream as the pipeline cuts it."""
    calls = []
    real = pipeline.run_chunked

    def spy(fn, chunks, **kwargs):
        seen = []
        calls.append((fn.func.__name__, seen))

        def recorded():
            for chunk in chunks:
                seen.append(chunk)
                yield chunk

        return real(fn, recorded(), **kwargs)

    monkeypatch.setattr(pipeline, "run_chunked", spy)
    return calls


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("budget", [1, DEFAULT_MEMORY_BUDGET], ids=["min-chunk", "default"])
@pytest.mark.parametrize("n", [2, 3, 5, 12, 33])
def test_spool_equals_in_memory_tree(n, budget, workers, tmp_path, monkeypatch):
    moduli = _moduli(n)
    levels = product_tree(moduli)
    assert levels == _hand_product_tree(moduli)
    descent = _hand_descent(levels)
    assert remainder_tree(levels) == descent[0]

    calls = _spy_chunks(monkeypatch)
    run_pipeline(
        moduli, PipelineConfig(spool_dir=tmp_path, memory_budget=budget, workers=workers)
    )
    top = len(levels) - 1
    for k in range(top + 1):
        assert read_blob(tmp_path / f"product-{k:03d}.bin") == levels[k]
    for k in range(top):
        assert read_blob(tmp_path / f"remainder-{k:03d}.bin") == descent[k]

    products = [chunks for name, chunks in calls if name == "product_chunk"]
    remainders = [chunks for name, chunks in calls if name == "remainder_chunk"]
    # product.1 … product.top read levels 0 … top-1; the root's remainder
    # stage runs unchunked, so remainder stages cover levels top-2 … 0
    assert len(products) == top and len(remainders) == max(top - 1, 0)
    for k, chunks in enumerate(products):
        _assert_whole_pairs([len(c) for c in chunks], levels[k])
        assert [v for c in chunks for v in c] == levels[k]
    for k, chunks in zip(range(top - 2, -1, -1), remainders):
        _assert_whole_pairs([len(nodes) for _, nodes in chunks], levels[k])
        offset = 0
        for parents, nodes in chunks:
            assert nodes == levels[k][offset : offset + len(nodes)]
            first = offset // 2
            assert parents == descent[k + 1][first : first + math.ceil(len(nodes) / 2)]
            offset += len(nodes)
        assert offset == len(levels[k])


def _assert_whole_pairs(lengths, level):
    assert sum(lengths) == len(level)
    # every chunk but the level's last holds whole sibling pairs
    assert all(length % 2 == 0 for length in lengths[:-1])
