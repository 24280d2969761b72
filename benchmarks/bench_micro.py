"""Hot-path micro benchmarks: GCD kernels and the submit wire formats.

``bench_e2e_scaling`` times whole attacks and ``bench_service`` times the
service under concurrent load; this harness isolates the four innermost
costs those numbers are made of, so a regression shows up *named* instead
of as a vague end-to-end slowdown:

* ``leaf_gcd``       — the one batch-GCD leaf formula
  (:meth:`repro.util.intops.IntBackend.leaf_gcd`) over honest tree
  remainders, in operations/second;
* ``remainder_tree`` — one full remainder-tree descent over a prebuilt
  product tree (the dominant cost of a batch scan), in keys/second;
* ``ptree_flush``    — one incremental flush at real key size: the
  2048-bit product of a ``k``-key batch reduced down an ``m``-key
  :class:`~repro.core.ptree.PersistentProductTree`
  (``batch_remainders``), in batch keys/second, its flagged leaves
  checked against a per-leaf ``math.gcd`` brute force;
* ``parse``          — decoding a bulk ``POST /submit`` body: the JSON
  path (``json.loads`` + ``parse_submission``) against the ``RGWIRE1``
  binary path (:func:`repro.service.wire.decode_moduli`), same moduli,
  keys/second each plus the speedup and body-size ratio;
* ``submit``         — full submit-to-verdict round trips against an
  in-process :class:`~repro.service.http.HttpServer`, single keys with
  ``?wait=1`` over one keep-alive connection, once per wire format on
  identical fresh registries — RPS, p50/p99 latency, and a hit-digest
  parity check between the formats.

Results land in ``BENCH_micro.json`` (schema ``repro.bench_micro/1``).
Each ``REPRO_BENCH_MICRO_MIN_*`` environment variable (or the matching
``--min-*`` flag) turns one number into a hard CI floor; unset floors are
off, so the committed JSON records honest numbers for whatever host ran
it.

Runs standalone (CI uses this form, once per int backend)::

    PYTHONPATH=src REPRO_BENCH_MICRO_MIN_WIRE_SPEEDUP=2 \
        python benchmarks/bench_micro.py --quick --out BENCH_micro.json

and is also collected by pytest as a quick smoke test.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import math
import os
import platform
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.core.batch_gcd import product_tree, remainder_tree
from repro.core.ptree import PersistentProductTree
from repro.service import wire
from repro.service.http import (
    HttpServer,
    ServiceConfig,
    WeakKeyService,
    parse_submission,
)
from repro.util.intops import backend_info, resolve_backend

SCHEMA = "repro.bench_micro/1"

QUICK_TREE_KEYS, QUICK_TREE_BITS = 192, 256
FULL_TREE_KEYS, FULL_TREE_BITS = 768, 512
QUICK_PARSE_KEYS, QUICK_PARSE_BITS = 1500, 1024
FULL_PARSE_KEYS, FULL_PARSE_BITS = 4000, 2048
QUICK_SUBMIT_KEYS, FULL_SUBMIT_KEYS = 120, 400
#: (tree keys m, batch keys k) of the ptree_flush section, at FLUSH_BITS
QUICK_FLUSH, FULL_FLUSH = (1024, 64), (4096, 256)
FLUSH_BITS = 2048
SUBMIT_BITS = 64

#: (flag/env suffix, path into the sections doc) for every optional floor
FLOORS = (
    ("leaf_ops", ("leaf_gcd", "ops_per_second")),
    ("remtree_keys", ("remainder_tree", "keys_per_second")),
    ("flush_keys", ("ptree_flush", "keys_per_second")),
    ("parse_keys", ("parse", "json", "keys_per_second")),
    ("wire_keys", ("parse", "wire", "keys_per_second")),
    ("wire_speedup", ("parse", "speedup")),
    ("submit_rps", ("submit", "wire", "submissions_per_second")),
)


def synthetic_moduli(n: int, bits: int, seed: str) -> list[int]:
    """``n`` random odd semiprime-shaped ``bits``-bit values.

    Kernel and parser timings only need realistic operand sizes, not
    honest prime factors (the ``submit`` section, whose registry counts
    real hits, uses ``bench_service.synthetic_moduli`` instead).
    """
    rng = random.Random((seed, n, bits).__repr__())
    half = bits // 2
    top_two = 0b11 << (half - 2)
    out = []
    for _ in range(n):
        p = rng.getrandbits(half) | top_two | 1
        q = rng.getrandbits(half) | top_two | 1
        out.append(p * q)
    return out


def _best_of(fn, repeat: int) -> tuple[float, object]:
    """Best-of-``repeat`` wall time and the last result."""
    best, result = None, None
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def bench_leaf_gcd(backend, moduli: list[int], bits: int, repeat: int) -> dict:
    """Time the leaf formula over honest ``N mod n_i²`` remainders."""
    levels = product_tree(moduli, backend=backend, native=True)
    rems = remainder_tree(levels, backend=backend, native=True)
    pairs = list(zip(levels[0], rems))
    leaf = backend.leaf_gcd

    def run():
        for n, r in pairs:
            leaf(n, r)

    seconds, _ = _best_of(run, repeat)
    return {
        "n_moduli": len(moduli),
        "bits": bits,
        "seconds": round(seconds, 6),
        "ops_per_second": round(len(moduli) / seconds, 1),
    }


def bench_remainder_tree(backend, moduli: list[int], bits: int, repeat: int) -> dict:
    """Time one remainder-tree descent over a prebuilt product tree."""
    levels = product_tree(moduli, backend=backend, native=True)
    seconds, _ = _best_of(
        lambda: remainder_tree(levels, backend=backend, native=True), repeat
    )
    return {
        "n_moduli": len(moduli),
        "bits": bits,
        "seconds": round(seconds, 6),
        "keys_per_second": round(len(moduli) / seconds, 1),
    }


def flush_moduli(m: int, k: int, bits: int, seed: str) -> tuple[list[int], list[int]]:
    """``m`` tree and ``k`` batch semiprime-shaped ``bits``-bit values.

    Halves carry no prime factor below 2^12, so shared factors are rare
    (about 2% of tree values share one with the full run's batch, which
    the brute force flags too); every 16th batch value reuses the first
    half of a tree value, so the flush flags known leaves.
    """
    rng = random.Random((seed, m, k, bits).__repr__())
    half = bits // 2
    sieve = bytearray([1]) * (1 << 12)
    for p in range(3, 1 << 6, 2):
        if sieve[p]:
            sieve[p * p :: 2 * p] = bytes(len(sieve[p * p :: 2 * p]))
    small_primes = math.prod(p for p in range(3, 1 << 12, 2) if sieve[p])

    def rough():
        while True:
            p = rng.getrandbits(half) | 0b11 << (half - 2) | 1
            if math.gcd(p, small_primes) == 1:
                return p

    pairs = [(rough(), rough()) for _ in range(m)]
    tree = [p * q for p, q in pairs]
    batch = [
        (pairs[rng.randrange(m)][0] if i % 16 == 15 else rough()) * rough()
        for i in range(k)
    ]
    return tree, batch


def bench_ptree_flush(backend, tree_moduli: list[int], batch: list[int], repeat: int) -> dict:
    """Time one ``batch_remainders`` of the batch product down the tree."""
    tree = PersistentProductTree(backend=backend)
    tree.append(tree_moduli)
    value = math.prod(batch)
    seconds, rems = _best_of(lambda: tree.batch_remainders(value), repeat)
    flagged = [
        i for i, (n, r) in enumerate(zip(tree_moduli, rems))
        if math.gcd(n, backend.to_int(r)) > 1
    ]
    brute = [i for i, n in enumerate(tree_moduli) if math.gcd(n, value) > 1]
    return {
        "tree_keys": len(tree_moduli),
        "batch_keys": len(batch),
        "bits": FLUSH_BITS,
        "seconds": round(seconds, 6),
        "keys_per_second": round(len(batch) / seconds, 1),
        "flagged": len(flagged),
        "flagged_parity": flagged == brute,
    }


def bench_parse(backend, moduli: list[int], bits: int, repeat: int) -> dict:
    """JSON vs RGWIRE1 decoding of one bulk submission, same moduli.

    Each timed path covers everything the server does between "body bytes
    arrived" and "the batcher's ``(modulus, exponent)`` list exists".  A
    decoded-value parity check runs once before timing — a wire decoder
    that were fast but wrong would be worse than useless.
    """
    json_body = json.dumps({"moduli": [hex(n) for n in moduli]}).encode()
    wire_body = wire.encode_moduli(moduli)

    keys_json, rejected = parse_submission(json.loads(json_body))
    assert not rejected
    assert keys_json == wire.decode_moduli(wire_body), "wire/JSON decode parity"

    n = len(moduli)
    json_s, _ = _best_of(lambda: parse_submission(json.loads(json_body)), repeat)
    wire_s, _ = _best_of(lambda: wire.decode_moduli(wire_body), repeat)
    doc = {
        "n_keys": n,
        "bits": bits,
        "json": {
            "seconds": round(json_s, 6),
            "keys_per_second": round(n / json_s, 1),
            "body_bytes": len(json_body),
        },
        "wire": {
            "seconds": round(wire_s, 6),
            "keys_per_second": round(n / wire_s, 1),
            "body_bytes": len(wire_body),
        },
        "speedup": round(json_s / wire_s, 3),
        "body_bytes_ratio": round(len(json_body) / len(wire_body), 3),
    }
    if backend.name != "python":
        # the pipeline-consumer path: decode straight to backend-native
        native_s, _ = _best_of(
            lambda: wire.decode_moduli(wire_body, backend=backend), repeat
        )
        doc["wire_native"] = {
            "int_backend": backend.name,
            "seconds": round(native_s, 6),
            "keys_per_second": round(n / native_s, 1),
        }
    return doc


class _Client:
    """One keep-alive HTTP/1.1 connection that can post either format."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader = self.writer = None

    async def __aenter__(self):
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )
        return self

    async def __aexit__(self, *exc):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass

    async def post(self, path: str, body: bytes, content_type: str):
        self.writer.write(
            (
                f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            + body
        )
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, json.loads(await self.reader.readexactly(length))


async def _submit_run(moduli: list[int], binary: bool, state_dir: Path) -> dict:
    """Submit every modulus as its own waited request; fresh registry."""
    service = WeakKeyService(
        ServiceConfig(state_dir=state_dir, bits=SUBMIT_BITS, linger_ms=0.0)
    )
    server = HttpServer(service, port=0)
    await server.start()
    latencies: list[float] = []
    try:
        async with _Client(server.port) as client:
            t0 = time.perf_counter()
            for n in moduli:
                if binary:
                    body, ctype = wire.encode_moduli([n]), wire.CONTENT_TYPE
                else:
                    body = json.dumps({"moduli": [hex(n)]}).encode()
                    ctype = "application/json"
                t1 = time.perf_counter()
                status, doc = await client.post("/submit?wait=1", body, ctype)
                latencies.append(time.perf_counter() - t1)
                assert status == 200, doc
            elapsed = time.perf_counter() - t0
        rows = sorted((h.i, h.j, h.prime) for h in service.registry.hits)
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
        keys = len(service.registry.moduli)
    finally:
        await server.close()
    lat_ms = sorted(x * 1000 for x in latencies)
    q = statistics.quantiles(lat_ms, n=100, method="inclusive")
    return {
        "format": "wire" if binary else "json",
        "keys": len(moduli),
        "registered": keys,
        "seconds": round(elapsed, 4),
        "submissions_per_second": round(len(moduli) / elapsed, 1),
        "p50_ms": round(q[49], 3),
        "p99_ms": round(q[98], 3),
        "hits": len(rows),
        "hit_digest": digest,
    }


def bench_submit(n_keys: int, seed: str) -> dict:
    """Submit-to-verdict latency, JSON vs binary, identical fresh registries."""
    from bench_service import synthetic_moduli as honest_moduli

    moduli = honest_moduli(n_keys, SUBMIT_BITS, seed)
    out = {"keys": n_keys, "bits": SUBMIT_BITS}
    for binary in (False, True):
        with tempfile.TemporaryDirectory(prefix="bench_micro_") as d:
            out["wire" if binary else "json"] = asyncio.run(
                _submit_run(moduli, binary, Path(d) / "state")
            )
    out["hit_digest_parity"] = (
        out["json"]["hit_digest"] == out["wire"]["hit_digest"]
    )
    return out


def _floor_value(sections: dict, path: tuple[str, ...]):
    node = sections
    for part in path:
        node = node[part]
    return node


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        description="hot-path micro benchmarks: GCD kernels and wire formats"
    )
    p.add_argument("--quick", action="store_true",
                   help="CI smoke scale (smaller corpora, fewer repeats)")
    p.add_argument("--int-backend", default="auto",
                   help='big-integer backend for the kernel sections '
                        '(default "auto")')
    p.add_argument("--tree-keys", type=int, default=None,
                   help="moduli in the tree-kernel sections "
                        f"(default {QUICK_TREE_KEYS} quick / {FULL_TREE_KEYS})")
    p.add_argument("--tree-bits", type=int, default=None,
                   help="modulus size in the tree-kernel sections "
                        f"(default {QUICK_TREE_BITS} quick / {FULL_TREE_BITS})")
    p.add_argument("--parse-keys", type=int, default=None,
                   help="moduli in the parse section "
                        f"(default {QUICK_PARSE_KEYS} quick / {FULL_PARSE_KEYS})")
    p.add_argument("--parse-bits", type=int, default=None,
                   help="modulus size in the parse section "
                        f"(default {QUICK_PARSE_BITS} quick / {FULL_PARSE_BITS})")
    p.add_argument("--submit-keys", type=int, default=None,
                   help="waited single-key submissions per wire format "
                        f"(default {QUICK_SUBMIT_KEYS} quick / {FULL_SUBMIT_KEYS})")
    p.add_argument("--repeat", type=int, default=None,
                   help="timing repeats per section (best-of-k; "
                        "default 3 quick / 5)")
    for suffix, path in FLOORS:
        env = f"REPRO_BENCH_MICRO_MIN_{suffix.upper()}"
        p.add_argument(f"--min-{suffix.replace('_', '-')}", type=float,
                       dest=f"min_{suffix}",
                       default=float(os.environ.get(env, "0")),
                       help=f"fail unless {'.'.join(path)} reaches this floor "
                            f"(default: ${env} or 0 = off)")
    p.add_argument("--seed", default="bench-micro")
    p.add_argument("--out", default="BENCH_micro.json",
                   help='output path ("-" for stdout)')
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        backend = resolve_backend(args.int_backend)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    repeat = args.repeat or (3 if args.quick else 5)
    tree_keys = args.tree_keys or (QUICK_TREE_KEYS if args.quick else FULL_TREE_KEYS)
    tree_bits = args.tree_bits or (QUICK_TREE_BITS if args.quick else FULL_TREE_BITS)
    parse_keys = args.parse_keys or (QUICK_PARSE_KEYS if args.quick else FULL_PARSE_KEYS)
    parse_bits = args.parse_bits or (QUICK_PARSE_BITS if args.quick else FULL_PARSE_BITS)
    submit_keys = args.submit_keys or (QUICK_SUBMIT_KEYS if args.quick else FULL_SUBMIT_KEYS)

    tree_moduli = synthetic_moduli(tree_keys, tree_bits, args.seed)
    parse_moduli = synthetic_moduli(parse_keys, parse_bits, args.seed + "-parse")

    sections = {}
    sections["leaf_gcd"] = bench_leaf_gcd(backend, tree_moduli, tree_bits, repeat)
    print(f"  leaf_gcd        {sections['leaf_gcd']['ops_per_second']:>12.1f} ops/s"
          f"  ({tree_keys} x {tree_bits}-bit, backend={backend.name})",
          file=sys.stderr)
    sections["remainder_tree"] = bench_remainder_tree(
        backend, tree_moduli, tree_bits, repeat
    )
    print(f"  remainder_tree  {sections['remainder_tree']['keys_per_second']:>12.1f} keys/s",
          file=sys.stderr)
    flush_m, flush_k = QUICK_FLUSH if args.quick else FULL_FLUSH
    sections["ptree_flush"] = bench_ptree_flush(
        backend, *flush_moduli(flush_m, flush_k, FLUSH_BITS, args.seed + "-flush"), repeat
    )
    pf = sections["ptree_flush"]
    print(f"  ptree_flush     {pf['keys_per_second']:>12.1f} keys/s"
          f"  ({flush_k} into {flush_m} x {FLUSH_BITS}-bit, {pf['flagged']} flagged)",
          file=sys.stderr)
    sections["parse"] = bench_parse(backend, parse_moduli, parse_bits, repeat)
    pj, pw = sections["parse"]["json"], sections["parse"]["wire"]
    print(f"  parse json      {pj['keys_per_second']:>12.1f} keys/s"
          f"  ({parse_keys} x {parse_bits}-bit, {pj['body_bytes']} B)",
          file=sys.stderr)
    print(f"  parse wire      {pw['keys_per_second']:>12.1f} keys/s"
          f"  ({pw['body_bytes']} B, {sections['parse']['speedup']}x)",
          file=sys.stderr)
    sections["submit"] = bench_submit(submit_keys, args.seed + "-submit")
    for fmt in ("json", "wire"):
        r = sections["submit"][fmt]
        print(f"  submit {fmt:<5}    {r['submissions_per_second']:>12.1f} subs/s"
              f"  p50={r['p50_ms']:.2f}ms p99={r['p99_ms']:.2f}ms"
              f"  hits={r['hits']}", file=sys.stderr)

    floors = {}
    failures = []
    for suffix, path in FLOORS:
        floor = getattr(args, f"min_{suffix}")
        floors[suffix] = floor or None
        if floor:
            measured = _floor_value(sections, path)
            if measured < floor:
                failures.append({
                    "metric": ".".join(path), "floor": floor,
                    "measured": measured,
                })
    for section, check in (("submit", "hit_digest_parity"), ("ptree_flush", "flagged_parity")):
        if not sections[section][check]:
            failures.append({
                "metric": f"{section}.{check}",
                "floor": True,
                "measured": False,
            })

    doc = {
        "schema": SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": {
            "quick": args.quick, "int_backend": backend.name,
            "tree_keys": tree_keys, "tree_bits": tree_bits,
            "parse_keys": parse_keys, "parse_bits": parse_bits,
            "submit_keys": submit_keys, "flush_tree_keys": flush_m,
            "flush_batch_keys": flush_k, "repeat": repeat, "seed": args.seed,
        },
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "int_backends": backend_info(),
        },
        "sections": sections,
        "floors": floors,
        "floor_failures": failures,
    }
    payload = json.dumps(doc, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        Path(args.out).write_text(payload)
        print(f"wrote {args.out}", file=sys.stderr)

    if failures:
        print("MICRO-BENCH FLOOR FAILURES:", file=sys.stderr)
        print(json.dumps(failures, indent=2), file=sys.stderr)
        return 1
    return 0


def test_bench_micro_quick(tmp_path, report):
    """Smoke: every section runs, wire beats JSON parsing, digests agree."""
    out = tmp_path / "BENCH_micro.json"
    rc = main([
        "--quick", "--int-backend", "python",
        "--tree-keys", "64", "--parse-keys", "400", "--submit-keys", "40",
        "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == SCHEMA
    assert doc["floor_failures"] == []
    s = doc["sections"]
    assert s["leaf_gcd"]["ops_per_second"] > 0
    assert s["remainder_tree"]["keys_per_second"] > 0
    assert s["ptree_flush"]["flagged_parity"] is True
    assert s["ptree_flush"]["flagged"] >= QUICK_FLUSH[1] // 16
    # binary decoding must beat hex-in-JSON, and by a wide margin
    assert s["parse"]["speedup"] > 1.0
    assert s["parse"]["wire"]["body_bytes"] < s["parse"]["json"]["body_bytes"]
    assert s["submit"]["hit_digest_parity"] is True
    for fmt in ("json", "wire"):
        assert s["submit"][fmt]["registered"] == s["submit"][fmt]["keys"]
    report(
        "",
        "== micro benchmarks ==",
        f"  leaf_gcd {s['leaf_gcd']['ops_per_second']:.0f} ops/s, "
        f"remtree {s['remainder_tree']['keys_per_second']:.0f} keys/s",
        f"  parse: json {s['parse']['json']['keys_per_second']:.0f} keys/s, "
        f"wire {s['parse']['wire']['keys_per_second']:.0f} keys/s "
        f"({s['parse']['speedup']}x)",
        f"  submit: json {s['submit']['json']['submissions_per_second']:.0f}, "
        f"wire {s['submit']['wire']['submissions_per_second']:.0f} subs/s",
    )


if __name__ == "__main__":
    raise SystemExit(main())
