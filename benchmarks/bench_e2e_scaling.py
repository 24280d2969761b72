"""End-to-end scaling harness: corpus size x key size x int backend x mode.

Every other benchmark in this directory regenerates one table or figure of
the paper.  This one measures *us*: the same weak-key corpus is swept
through the three attack entry points —

* ``pairwise``  — the paper's all-pairs bulk engine (word-level arithmetic;
  deliberately untouched by the int-backend seam, so it doubles as the
  constant across backends),
* ``batch``     — in-memory Bernstein batch GCD (:func:`find_shared_primes`
  with ``backend="batch"``),
* ``batchscan`` — the sharded, checkpointed pipeline
  (:func:`repro.core.pipeline.run_pipeline`),

once per requested big-integer backend (``python``, ``gmpy2``), and the
timings land in a machine-readable ``BENCH_e2e.json`` whose schema is
documented in ``docs/PERFORMANCE.md``.  Hit lists are digested and compared
across every backend and mode for the same corpus: a digest mismatch is a
correctness bug and fails the run, so the perf numbers can never drift away
from the parity guarantee.

Runs standalone (CI uses this form)::

    PYTHONPATH=src python benchmarks/bench_e2e_scaling.py --quick \
        --backends python --out BENCH_e2e.json

and is also collected by pytest as a quick smoke test.  ``--synthetic``
swaps the RSA corpus for random odd semiprime-shaped moduli so the tree
kernel can be timed at sizes where honest prime generation would dominate
(4096 x 2048-bit in seconds, not hours); synthetic runs time ``batch_gcd``
alone and skip hit parity, and are marked as such in the JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.core.attack import find_shared_primes
from repro.core.batch_gcd import batch_gcd
from repro.core.incremental import IncrementalScanner
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.rsa.corpus import generate_weak_corpus
from repro.util.intops import available_backends, backend_info, resolve_backend

SCHEMA = "repro.bench_e2e/2"
MODES = ("pairwise", "batch", "batchscan")

#: incremental-flush sweep: engines raced on identical seeded registries
INCR_ENGINES = ("native", "ptree")
QUICK_INCR_REGISTRY = (192,)
QUICK_INCR_FLUSH = (24,)
FULL_INCR_REGISTRY = (1_000, 10_000)
FULL_INCR_FLUSH = (10, 100)
INCR_BITS = 96

#: pairwise work is O(m^2) in pure Python; above this many moduli it is
#: skipped unless the user raises the cap explicitly
DEFAULT_PAIRWISE_MAX = 128

QUICK_SIZES = (48,)
QUICK_BITS = (96,)
FULL_SIZES = (128, 512)
FULL_BITS = (256, 512)


@dataclass
class CaseResult:
    """One (mode, backend, corpus) measurement — a row of ``runs``."""

    mode: str
    int_backend: str
    n_moduli: int
    bits: int
    synthetic: bool
    seconds: float
    all_seconds: list[float] = field(default_factory=list)
    hits: int | None = None
    hits_digest: str | None = None
    pairs_covered: int = 0
    microseconds_per_pair: float | None = None


def hits_digest(hits) -> str:
    """Stable content digest of a hit list: sorted ``i,j,prime`` lines.

    Two runs produce the same digest iff they found byte-identical hits,
    which is exactly the cross-backend acceptance bar.
    """
    lines = sorted(f"{h.i},{h.j},{h.prime}" for h in hits)
    h = hashlib.sha256("\n".join(lines).encode())
    return f"sha256:{h.hexdigest()}"


def synthetic_moduli(n: int, bits: int, seed: str) -> list[int]:
    """``n`` random odd ``bits``-bit semiprime-shaped values (NOT prime
    factors — for tree-kernel timing only, never for hit accounting)."""
    rng = random.Random((seed, n, bits).__repr__())
    half = bits // 2
    top_two = 0b11 << (half - 2)
    out = []
    for _ in range(n):
        p = rng.getrandbits(half) | top_two | 1
        q = rng.getrandbits(half) | top_two | 1
        out.append(p * q)
    return out


def _time_repeated(fn, repeat: int) -> tuple[float, list[float], object]:
    """Run ``fn`` ``repeat`` times; return (best, all, last result)."""
    times, result = [], None
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return min(times), times, result


def run_case(
    mode: str,
    backend_name: str,
    moduli: list[int],
    bits: int,
    *,
    synthetic: bool,
    repeat: int,
    workers: int,
    spool_root: Path,
) -> CaseResult:
    """Execute one cell of the sweep and package its measurement."""
    n = len(moduli)
    pairs = n * (n - 1) // 2

    if synthetic:
        # kernel-only timing: batch_gcd over backend-native trees
        best, times, _ = _time_repeated(
            lambda: batch_gcd(moduli, backend=backend_name), repeat
        )
        return CaseResult(
            mode="batch", int_backend=backend_name, n_moduli=n, bits=bits,
            synthetic=True, seconds=best, all_seconds=times,
            pairs_covered=pairs,
            microseconds_per_pair=best / pairs * 1e6,
        )

    if mode == "pairwise":
        fn = lambda: find_shared_primes(  # noqa: E731
            moduli, backend="bulk", int_backend=backend_name
        )
    elif mode == "batch":
        fn = lambda: find_shared_primes(  # noqa: E731
            moduli, backend="batch", int_backend=backend_name
        )
    elif mode == "batchscan":
        def fn():
            with tempfile.TemporaryDirectory(dir=spool_root) as d:
                return run_pipeline(
                    moduli,
                    PipelineConfig(
                        spool_dir=d, backend=backend_name, workers=workers
                    ),
                )
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown mode {mode!r}")

    best, times, result = _time_repeated(fn, repeat)
    return CaseResult(
        mode=mode, int_backend=backend_name, n_moduli=n, bits=bits,
        synthetic=False, seconds=best, all_seconds=times,
        hits=len(result.hits), hits_digest=hits_digest(result.hits),
        pairs_covered=pairs,
        microseconds_per_pair=best / pairs * 1e6,
    )


@dataclass
class IncrementalResult:
    """One (engine, registry, flush) flush measurement — a row of
    ``incremental.runs``."""

    engine: str
    registry_size: int
    flush_size: int
    bits: int
    cross_pairs: int
    pairs_covered: int
    seconds: float
    all_seconds: list[float] = field(default_factory=list)
    hits: int = 0
    hits_digest: str | None = None
    microseconds_per_pair: float | None = None


def _incremental_corpus(
    base: int, k: int, bits: int, seed: str
) -> tuple[list[int], list[int]]:
    """An honest seed registry plus a flush batch with one planted cross
    hit spanning the boundary (so attribution paths are exercised, not
    just flagging)."""
    corpus = generate_weak_corpus(
        base + k, bits, shared_groups=(2,), seed=(seed, "incr", base, k, bits)
    )
    moduli = list(corpus.moduli)
    i, j = sorted(corpus.weak_pair_set())[0]
    moduli[0], moduli[i] = moduli[i], moduli[0]
    moduli[-1], moduli[j] = moduli[j], moduli[-1]
    return moduli[:base], moduli[base:]


def _seeded_scanner(seed_moduli: list[int], bits: int, engine: str) -> IncrementalScanner:
    """A scanner holding the seed registry without scanning it (the
    ``ptree`` tier builds its tree here), so only the flush is timed."""
    scanner = IncrementalScanner(bits=bits, engine=engine)
    scanner.adopt(seed_moduli)
    return scanner


def run_incremental_case(
    engine: str,
    seed_moduli: list[int],
    batch: list[int],
    bits: int,
    *,
    repeat: int,
) -> IncrementalResult:
    """Time one flush of ``batch`` against a pre-seeded registry.

    Scanner seeding (including the ptree tier's tree build) happens
    outside the timed region — a long-lived service pays it once, not per
    flush — but the flush itself includes everything a flush does:
    scanning *and* the tree append that keeps the next flush amortized.
    """
    base, k = len(seed_moduli), len(batch)
    times, report = [], None
    for _ in range(max(1, repeat)):
        scanner = _seeded_scanner(seed_moduli, bits, engine)
        t0 = time.perf_counter()
        report = scanner.add_batch(list(batch))
        times.append(time.perf_counter() - t0)
    best = min(times)
    pairs = report.pairs_tested
    return IncrementalResult(
        engine=engine, registry_size=base, flush_size=k, bits=bits,
        cross_pairs=base * k, pairs_covered=pairs,
        seconds=best, all_seconds=times,
        hits=len(report.hits), hits_digest=hits_digest(report.hits),
        microseconds_per_pair=best / pairs * 1e6 if pairs else None,
    )


def _incremental_parity_failures(runs: list[IncrementalResult]) -> list[dict]:
    """Flush-report digest mismatches across engines for the same cell."""
    by_cell: dict[tuple[int, int], list[IncrementalResult]] = {}
    for r in runs:
        by_cell.setdefault((r.registry_size, r.flush_size), []).append(r)
    failures = []
    for (base, k), group in by_cell.items():
        if len({r.hits_digest for r in group}) > 1:
            failures.append({
                "registry_size": base, "flush_size": k,
                "digests": {r.engine: r.hits_digest for r in group},
            })
    return failures


def _incremental_speedups(runs: list[IncrementalResult]) -> list[dict]:
    """Per-cell speedup of every engine against the pairwise ``native``
    baseline, plus the measured ptree crossover in cross pairs."""
    base = {
        (r.registry_size, r.flush_size): r.seconds
        for r in runs
        if r.engine == "native"
    }
    out = []
    for r in runs:
        if r.engine == "native":
            continue
        key = (r.registry_size, r.flush_size)
        if key in base and r.seconds > 0:
            out.append({
                "engine": r.engine,
                "registry_size": r.registry_size, "flush_size": r.flush_size,
                "cross_pairs": r.cross_pairs,
                "baseline": "native",
                "speedup": round(base[key] / r.seconds, 3),
            })
    return out


def _measured_crossover(speedups: list[dict]) -> int | None:
    """Smallest cross-pair count at which ``ptree`` beat ``native`` — the
    value ``AUTO_MIN_CROSS_PAIRS`` encodes."""
    winning = [
        s["cross_pairs"]
        for s in speedups
        if s["engine"] == "ptree" and s["speedup"] > 1.0
    ]
    return min(winning) if winning else None


def _parity_failures(runs: list[CaseResult]) -> list[dict]:
    """Digest mismatches across backends/modes for the same real corpus."""
    by_corpus: dict[tuple[int, int], list[CaseResult]] = {}
    for r in runs:
        if not r.synthetic and r.hits_digest is not None:
            by_corpus.setdefault((r.n_moduli, r.bits), []).append(r)
    failures = []
    for (n, bits), group in by_corpus.items():
        digests = {r.hits_digest for r in group}
        if len(digests) > 1:
            failures.append({
                "n_moduli": n,
                "bits": bits,
                "digests": {
                    f"{r.mode}/{r.int_backend}": r.hits_digest for r in group
                },
            })
    return failures


def _comparisons(runs: list[CaseResult]) -> list[dict]:
    """Per-cell speedup of every backend against the ``python`` baseline."""
    base = {
        (r.mode, r.n_moduli, r.bits): r.seconds
        for r in runs
        if r.int_backend == "python"
    }
    out = []
    for r in runs:
        if r.int_backend == "python":
            continue
        key = (r.mode, r.n_moduli, r.bits)
        if key in base and r.seconds > 0:
            out.append({
                "mode": r.mode, "n_moduli": r.n_moduli, "bits": r.bits,
                "backend": r.int_backend, "baseline": "python",
                "speedup": round(base[key] / r.seconds, 3),
            })
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        description="end-to-end scaling benchmark across int backends"
    )
    p.add_argument("--quick", action="store_true",
                   help="tiny sweep for CI smoke (48 moduli x 96 bits)")
    p.add_argument("--sizes", type=lambda s: tuple(int(x) for x in s.split(",")),
                   default=None, help="comma-separated corpus sizes")
    p.add_argument("--bits", type=lambda s: tuple(int(x) for x in s.split(",")),
                   default=None, help="comma-separated modulus bit sizes")
    p.add_argument("--modes", type=lambda s: tuple(s.split(",")), default=MODES,
                   help=f"comma-separated subset of {','.join(MODES)}")
    p.add_argument("--backends", default="available",
                   help='comma-separated int backends, or "available" '
                        "(every importable one)")
    p.add_argument("--repeat", type=int, default=1,
                   help="timing repeats per cell (best-of-k is reported)")
    p.add_argument("--workers", type=int, default=0,
                   help="batchscan worker processes (0 = inline)")
    p.add_argument("--pairwise-max", type=int, default=DEFAULT_PAIRWISE_MAX,
                   help="skip pairwise mode above this many moduli "
                        f"(default {DEFAULT_PAIRWISE_MAX}; it is O(m^2))")
    p.add_argument("--synthetic", action="store_true",
                   help="random semiprime-shaped moduli; times the "
                        "batch_gcd kernel only (no hit parity)")
    p.add_argument("--incremental", action="store_true",
                   help="also sweep incremental flushes: registry size x "
                        "batch size x engine on seeded scanners")
    p.add_argument("--incr-registry",
                   type=lambda s: tuple(int(x) for x in s.split(",")),
                   default=None,
                   help="comma-separated seeded registry sizes for the "
                        "incremental sweep")
    p.add_argument("--incr-flush",
                   type=lambda s: tuple(int(x) for x in s.split(",")),
                   default=None,
                   help="comma-separated flush batch sizes for the "
                        "incremental sweep")
    p.add_argument("--incr-engines", type=lambda s: tuple(s.split(",")),
                   default=INCR_ENGINES,
                   help=f"comma-separated engines (default "
                        f"{','.join(INCR_ENGINES)})")
    p.add_argument("--min-incr-speedup", type=float,
                   default=float(os.environ.get(
                       "REPRO_BENCH_INCR_MIN_SPEEDUP", "0")),
                   help="fail unless the largest cell's ptree-vs-native "
                        "speedup reaches this floor (default: "
                        "$REPRO_BENCH_INCR_MIN_SPEEDUP or 0 = off)")
    p.add_argument("--seed", default="bench-e2e")
    p.add_argument("--out", default="BENCH_e2e.json",
                   help='output path ("-" for stdout)')
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    sizes = args.sizes or (QUICK_SIZES if args.quick else FULL_SIZES)
    bits_list = args.bits or (QUICK_BITS if args.quick else FULL_BITS)
    for mode in args.modes:
        if mode not in MODES:
            print(f"unknown mode {mode!r} (choose from {MODES})", file=sys.stderr)
            return 2

    if args.backends == "available":
        backends = list(available_backends())
    else:
        try:
            backends = [resolve_backend(b).name for b in args.backends.split(",")]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    runs: list[CaseResult] = []
    corpora_meta: list[dict] = []
    spool_root = Path(tempfile.mkdtemp(prefix="bench_e2e_"))

    for bits in bits_list:
        for n in sizes:
            if args.synthetic:
                moduli = synthetic_moduli(n, bits, args.seed)
                corpus_seconds, weak_pairs = 0.0, None
            else:
                t0 = time.perf_counter()
                corpus = generate_weak_corpus(
                    n, bits, shared_groups=(2, 3), seed=(args.seed, n, bits)
                )
                corpus_seconds = time.perf_counter() - t0
                moduli = corpus.moduli
                weak_pairs = len(corpus.weak_pair_set())
            corpora_meta.append({
                "n_moduli": n, "bits": bits, "synthetic": args.synthetic,
                "generation_seconds": round(corpus_seconds, 4),
                "planted_weak_pairs": weak_pairs,
            })
            for backend_name in backends:
                modes = ("batch",) if args.synthetic else args.modes
                for mode in modes:
                    if mode == "pairwise" and n > args.pairwise_max:
                        # progress goes to stderr so `--out -` leaves
                        # stdout machine-parseable
                        print(f"  skip pairwise at m={n} "
                              f"(> --pairwise-max {args.pairwise_max})",
                              file=sys.stderr)
                        continue
                    r = run_case(
                        mode, backend_name, moduli, bits,
                        synthetic=args.synthetic, repeat=args.repeat,
                        workers=args.workers, spool_root=spool_root,
                    )
                    runs.append(r)
                    hits = "-" if r.hits is None else r.hits
                    print(f"  {r.mode:<9} backend={r.int_backend:<7} "
                          f"m={r.n_moduli:<5} bits={r.bits:<5} "
                          f"{r.seconds:8.3f}s  hits={hits}", file=sys.stderr)

    incr_runs: list[IncrementalResult] = []
    incremental_doc = None
    floor_failure = None
    if args.incremental:
        registry_sizes = args.incr_registry or (
            QUICK_INCR_REGISTRY if args.quick else FULL_INCR_REGISTRY
        )
        flush_sizes = args.incr_flush or (
            QUICK_INCR_FLUSH if args.quick else FULL_INCR_FLUSH
        )
        for base in registry_sizes:
            for k in flush_sizes:
                seed_moduli, batch = _incremental_corpus(
                    base, k, INCR_BITS, args.seed
                )
                for engine in args.incr_engines:
                    r = run_incremental_case(
                        engine, seed_moduli, batch, INCR_BITS,
                        repeat=args.repeat,
                    )
                    incr_runs.append(r)
                    print(f"  flush     engine={r.engine:<8} "
                          f"registry={r.registry_size:<6} k={r.flush_size:<4} "
                          f"{r.seconds:8.3f}s  hits={r.hits}", file=sys.stderr)
        incr_speedups = _incremental_speedups(incr_runs)
        largest = max(
            (s for s in incr_speedups if s["engine"] == "ptree"),
            key=lambda s: s["cross_pairs"],
            default=None,
        )
        if args.min_incr_speedup > 0 and largest is not None:
            if largest["speedup"] < args.min_incr_speedup:
                floor_failure = {
                    "floor": args.min_incr_speedup,
                    "measured": largest["speedup"],
                    "cell": largest,
                }
        incremental_doc = {
            "engines": list(args.incr_engines),
            "bits": INCR_BITS,
            "registry_sizes": list(registry_sizes),
            "flush_sizes": list(flush_sizes),
            "runs": [asdict(r) for r in incr_runs],
            "speedups": incr_speedups,
            "crossover_pairs": _measured_crossover(incr_speedups),
            "min_speedup_floor": args.min_incr_speedup or None,
            "floor_failure": floor_failure,
        }

    failures = _parity_failures(runs)
    incr_failures = _incremental_parity_failures(incr_runs)
    doc = {
        "schema": SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": {
            "quick": args.quick, "synthetic": args.synthetic,
            "sizes": list(sizes), "bits": list(bits_list),
            "modes": list(args.modes), "backends": backends,
            "repeat": args.repeat, "workers": args.workers,
            "pairwise_max": args.pairwise_max, "seed": args.seed,
            "incremental": args.incremental,
        },
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "int_backends": backend_info(),
        },
        "corpora": corpora_meta,
        "runs": [asdict(r) for r in runs],
        "comparisons": _comparisons(runs),
        "parity_failures": failures,
        "incremental": incremental_doc,
        "incremental_parity_failures": incr_failures,
    }
    payload = json.dumps(doc, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        Path(args.out).write_text(payload)
        print(f"wrote {args.out} ({len(runs) + len(incr_runs)} runs)",
              file=sys.stderr)

    if failures:
        print("HIT-LIST PARITY FAILURE across backends/modes:", file=sys.stderr)
        print(json.dumps(failures, indent=2), file=sys.stderr)
        return 1
    if incr_failures:
        print("FLUSH HIT-LIST PARITY FAILURE across engines:", file=sys.stderr)
        print(json.dumps(incr_failures, indent=2), file=sys.stderr)
        return 1
    if floor_failure is not None:
        print(f"INCREMENTAL SPEEDUP FLOOR FAILURE: ptree-vs-native "
              f"{floor_failure['measured']}x < required "
              f"{floor_failure['floor']}x", file=sys.stderr)
        return 1
    return 0


def test_bench_e2e_quick(tmp_path, report):
    """Smoke: the quick sweep runs, parities hold, and the schema is stable."""
    out = tmp_path / "BENCH_e2e.json"
    rc = main(["--quick", "--backends", "available", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == SCHEMA
    assert doc["parity_failures"] == []
    assert {r["mode"] for r in doc["runs"]} == set(MODES)
    for r in doc["runs"]:
        assert r["seconds"] > 0
        assert r["hits_digest"].startswith("sha256:")
    digests = {r["hits_digest"] for r in doc["runs"]}
    assert len(digests) == 1  # every mode/backend found identical hits
    lines = ["", "== e2e quick sweep =="]
    for r in doc["runs"]:
        lines.append(
            f"  {r['mode']:<9} {r['int_backend']:<7} m={r['n_moduli']} "
            f"bits={r['bits']} {r['seconds']:.3f}s hits={r['hits']}"
        )
    report(*lines)


def test_bench_incremental_quick(tmp_path, report):
    """Smoke: the incremental-flush sweep runs and engines agree per flush."""
    out = tmp_path / "BENCH_e2e.json"
    rc = main([
        "--quick", "--backends", "python", "--modes", "batch",
        "--incremental", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    incr = doc["incremental"]
    assert doc["incremental_parity_failures"] == []
    assert {r["engine"] for r in incr["runs"]} == set(INCR_ENGINES)
    for r in incr["runs"]:
        assert r["seconds"] > 0
        assert r["hits"] >= 1  # the planted cross hit was found
        assert r["pairs_covered"] == r["cross_pairs"] + (
            r["flush_size"] * (r["flush_size"] - 1) // 2
        )
    lines = ["", "== incremental flush sweep =="]
    for r in incr["runs"]:
        lines.append(
            f"  {r['engine']:<8} registry={r['registry_size']} "
            f"k={r['flush_size']} {r['seconds']:.3f}s hits={r['hits']}"
        )
    for s in incr["speedups"]:
        lines.append(
            f"  {s['engine']:<8} vs native @ {s['cross_pairs']} cross pairs: "
            f"{s['speedup']}x"
        )
    report(*lines)


if __name__ == "__main__":
    raise SystemExit(main())
