"""Bernstein-style batch GCD: product tree + remainder tree.

The modern way to scan ``m`` moduli for shared primes (used by Heninger et
al.'s "Mining your Ps and Qs" and the ``fastgcd`` tool the paper competes
with) computes, for every modulus ``n_i``,

    ``g_i = gcd(n_i, (N / n_i) mod n_i)``   where ``N = Π n_j``,

in ``O(m · polylog)`` big-integer time instead of ``O(m²)`` GCDs:

1. a *product tree* over the moduli gives ``N`` and all subtree products;
2. a *remainder tree* pushes ``N`` down: each node holds
   ``N mod (subtree product)²``; at a leaf that is ``N mod n_i²``;
3. then ``(N/n_i) mod n_i = (N mod n_i²) / n_i`` (exact division), and one
   final GCD per modulus.

The in-memory tree here, the ``batchscan`` stages (:mod:`repro.core.pipeline`)
and the incremental forest (:mod:`repro.core.ptree`) share one shape rule,
:func:`level_sizes`, and three level steps; a step applied to a slice of a
level cut between sibling pairs yields the matching slice of its result.

All big-integer arithmetic routes through a pluggable backend
(:mod:`repro.util.intops`): plain Python ints by default, GMP via gmpy2
when installed (``pip install -e .[fast]``).  Tree nodes stay
backend-native *between* levels — the product tree hands ``mpz`` values
straight to the remainder tree, which hands leaf remainders straight to
the exact-division leaf formula — so an accelerated run never round-trips
through ``int`` mid-tree.  The trade-off against the paper's all-pairs
approach (giant multiplications and memory vs embarrassing parallelism) is
measured in ``benchmarks/bench_ablation_batch_vs_pairwise.py`` and
``benchmarks/bench_e2e_scaling.py``.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.telemetry import Telemetry
from repro.util.intops import IntBackend, resolve_backend

__all__ = ["level_sizes", "product_level", "remainder_level", "root_remainders",
           "product_tree", "remainder_tree", "batch_gcd"]


def level_sizes(n_leaves: int) -> list[int]:
    """Node counts per tree level, leaves first (odd levels carry one up).

    >>> level_sizes(5)
    [5, 3, 2, 1]
    """
    if n_leaves < 1:
        raise ValueError("need at least one modulus")
    sizes = [n_leaves]
    while sizes[-1] > 1:
        sizes.append((sizes[-1] + 1) // 2)
    return sizes


def product_level(nodes: list, B: IntBackend) -> list:
    """One level up: siblings ``2k`` and ``2k+1`` multiply into parent
    ``k``; an odd level's last node is carried up unmultiplied.

    >>> product_level([3, 5, 7], resolve_backend("python"))
    [15, 7]
    """
    mul = B.mul
    out = [mul(nodes[k], nodes[k + 1]) for k in range(0, len(nodes) - 1, 2)]
    if len(nodes) % 2:
        out.append(nodes[-1])
    return out


def remainder_level(parents: list, nodes: list, B: IntBackend, *, square=True) -> list:
    """One level down: child ``k`` reduces ``parents[k // 2]`` by its node
    squared (or, with ``square=False``, by the node itself).

    >>> remainder_level([1000], [7, 11], resolve_backend("python"))
    [20, 32]
    """
    mod, sqr = B.mod, B.sqr
    return [mod(parents[k // 2], sqr(n) if square else n) for k, n in enumerate(nodes)]


def root_remainders(children: list, B: IntBackend) -> list:
    """The squared descent's first level, from the root's two children alone.

    The root is ``N = a·b``, so ``N mod a² = a·(b mod a)`` (and likewise
    for ``b``): a half-size ``mod`` and ``mul`` reusing the sibling, in
    place of squaring the child and reducing the full root by it.

    >>> root_remainders([15, 7], resolve_backend("python"))  # 105 mod {225, 49}
    [105, 7]
    """
    a, b = children
    return [B.mul(a, B.mod(b, a)), B.mul(b, B.mod(a, b))]


def product_tree(
    values: list[int],
    *,
    keep_levels: bool = True,
    telemetry: Telemetry | None = None,
    backend: str | IntBackend | None = None,
    native: bool = False,
) -> list[list[int]]:
    """Bottom-up product tree: ``levels[0]`` is the input, the last level
    holds the single total product.

    Each level is one :func:`product_level` step.  With ``telemetry``, the
    gauge ``batch.levels`` records the tree's height and each level's build
    time lands in the ``batch.product_level_seconds`` histogram — the upper
    levels multiply ever-larger integers, and that skew is exactly what the
    all-pairs-vs-batch trade-off hinges on.

    ``keep_levels=False`` is the root-only path: each level is dropped as
    soon as its parent level exists, so the peak retained node count is
    ``~1.5·m`` instead of the full tree's ``2·m − 1`` (every level's bytes
    roughly equal the input's, so the full tree costs ``height ×`` the
    input in RAM).  The return value is then a single-level list holding
    only the root.  Callers that need the remainder-tree descent (i.e.
    :func:`batch_gcd`) must keep the levels; callers that only need
    ``N = Π n_i`` — e.g. the pipeline's single-modulus
    :func:`repro.core.pipeline.quick_check` — should not pay for them.
    Either way the gauge ``batch.peak_retained_nodes`` records the peak.

    ``backend`` selects the big-integer implementation (default: the
    ``auto`` resolution of :func:`repro.util.intops.resolve_backend`);
    ``native=True`` skips the final ``int`` conversion and returns
    backend-native nodes — the contract :func:`batch_gcd` uses to keep the
    whole tree in ``mpz`` form.

    >>> product_tree([3, 5, 7])
    [[3, 5, 7], [15, 7], [105]]
    >>> product_tree([3, 5, 7], keep_levels=False)
    [[105]]
    """
    if not values:
        raise ValueError("product tree needs at least one value")
    B = resolve_backend(backend)
    clock = telemetry.timer.clock if telemetry else None
    levels = [[B.from_int(v) for v in values]]
    retained = len(levels[0])
    peak = retained
    while len(levels[-1]) > 1:
        t0 = clock() if clock else 0.0
        nxt = product_level(levels[-1], B)
        peak = max(peak, retained + len(nxt))  # the child level is still referenced here
        if keep_levels:
            levels.append(nxt)
            retained += len(nxt)
        else:
            levels = [nxt]
            retained = len(nxt)
        if telemetry is not None:
            telemetry.registry.histogram("batch.product_level_seconds").observe(
                clock() - t0
            )
            telemetry.advance(1)
    if telemetry is not None:
        telemetry.registry.gauge("batch.levels").set(len(level_sizes(len(values))))
        telemetry.registry.gauge("batch.peak_retained_nodes").max_of(peak)
    if native:
        return levels
    to_int = B.to_int
    return [[to_int(v) for v in level] for level in levels]


def remainder_tree(
    levels: list[list[int]],
    *,
    square: bool = True,
    telemetry: Telemetry | None = None,
    backend: str | IntBackend | None = None,
    native: bool = False,
) -> list[int]:
    """Push the root product down: leaf ``i`` receives ``N mod n_i²``.

    ``square=False`` yields plain ``N mod n_i`` (useful for divisibility
    scans); batch GCD needs the squared form so the cofactor survives the
    reduction.  With ``telemetry``, per-level descent times land in the
    ``batch.remainder_level_seconds`` histogram.  ``backend``/``native``
    behave as in :func:`product_tree`; levels may hold plain ints or
    backend-native nodes (a native tree from ``product_tree(...,
    native=True)`` descends without any conversion).

    The squared descent starts with :func:`root_remainders`, which needs
    only the root's two children; every deeper level (whose parent value
    is already a reduced remainder, not a multiple of the child) is one
    :func:`remainder_level` step.

    >>> remainder_tree(product_tree([3, 5, 7]))  # 105 mod {9, 25, 49}
    [6, 5, 7]
    """
    B = resolve_backend(backend)
    from_int = B.from_int
    clock = telemetry.timer.clock if telemetry else None
    rems = [from_int(levels[-1][0])]
    for depth, level in enumerate(reversed(levels[:-1])):
        t0 = clock() if clock else 0.0
        nodes = [from_int(v) for v in level]
        if square and depth == 0:
            rems = root_remainders(nodes, B)
        else:
            rems = remainder_level(rems, nodes, B, square=square)
        if telemetry is not None:
            telemetry.registry.histogram("batch.remainder_level_seconds").observe(
                clock() - t0
            )
            telemetry.advance(1)
    if native:
        return rems
    to_int = B.to_int
    return [to_int(r) for r in rems]


def batch_gcd(
    moduli: list[int],
    *,
    telemetry: Telemetry | None = None,
    backend: str | IntBackend | None = None,
) -> list[int]:
    """For each modulus, its GCD with the product of all the others.

    Returns one value per input: 1 (shares nothing), a proper factor (shares
    one prime), or the modulus itself (both primes shared elsewhere — e.g. a
    duplicated key).  Pairing the hits back to partners needs one extra
    pairwise pass over the (few) flagged moduli; :mod:`repro.core.attack`
    does that.

    ``backend`` selects the big-integer implementation; results are plain
    ``int`` and identical across backends (property-tested in
    ``tests/core/test_backend_parity.py``).  With ``telemetry``, the three
    phases are timed as ``product_tree``, ``remainder_tree`` and
    ``final_gcds`` stage spans, with per-tree-level histograms recorded by
    the tree builders themselves.

    >>> batch_gcd([33, 35, 55])  # 55 = 5 * 11 shares both its primes
    [11, 5, 55]
    """
    if len(moduli) < 2:
        raise ValueError("batch GCD needs at least two moduli")
    if any(n <= 0 for n in moduli):
        raise ValueError("moduli must be positive")
    B = resolve_backend(backend)
    span = telemetry.timer.span if telemetry else (lambda name: nullcontext())
    with span("product_tree"):
        levels = product_tree(moduli, telemetry=telemetry, backend=B, native=True)
    with span("remainder_tree"):
        rems = remainder_tree(levels, telemetry=telemetry, backend=B, native=True)
    with span("final_gcds"):
        leaf_gcd, to_int = B.leaf_gcd, B.to_int
        # levels[0] holds the backend-native moduli — reuse them so the
        # leaf pass converts each result exactly once, on the way out
        out = [to_int(leaf_gcd(n, r)) for n, r in zip(levels[0], rems)]
    if telemetry is not None:
        telemetry.registry.counter("batch.moduli").inc(len(moduli))
        telemetry.advance(1)
    return out
