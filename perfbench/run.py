"""The repo benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload {oneshot,stream,lookup} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root.  It drives the real CLI processes
(``repro scan``, ``repro batchscan``, ``repro serve``) on inputs generated
from ``--seed`` (see ``gen.py``), checks every output against the planted
ground truth, prints each metric by name with its unit, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
same workload runs untraced and then traced (``launch.py``), each for half
of ``--seconds``, and the metrics are the per-layer ones.  A failed output check exits 1.
``perfbench/README.md`` documents every workload and metric.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
BITS = 2048
NPROC = len(os.sched_getaffinity(0))  # what ``nproc`` prints

ONESHOT_KEYS = 768
ONESHOT_GROUPS = (2, 2, 3, 3)
PRELOAD_KEYS = 4096
#: the preload is the same on every run, so its state dir is built once per
#: checkout; the seed drives the traffic
PRELOAD_SEED = "registry"
PRELOAD_GROUPS = (2, 2, 3, 3)
STREAM_CHUNK = 4
STREAM_CHUNKS = 1500
STREAM_SHARE_EVERY = 64  # about 1 fresh key in 64 shares a prime
LOOKUP_CHUNK = 256
#: set-up samples are taken in rounds spread over the run, so that their
#: median sees the same machine as the measured work; every run first makes
#: one uncounted start to warm the page cache
SETUP_PER_ROUND = 4
REQUEST_TIMEOUT = 60.0

END_TO_END = {
    "setup_s": "s",
    "verdict_keys_per_s": "keys/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    """A program output disagreed with the planted ground truth."""


# -- processes -----------------------------------------------------------------


class Run:
    """One benchmark invocation: its work dir, environment and tallies."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.args = args
        self.seed = str(args.seed)
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.notes: dict[str, tuple[float, str]] = {}
        #: the measured intervals, on the clock the tracer uses
        self.windows: list[tuple[float, float]] = []
        self.metrics: dict[str, float] = {}
        (work / "tmp").mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work / "tmp"))
        self.env.pop("REPRO_FAULTS", None)
        self.env.pop("REPRO_INT_BACKEND", None)
        self.env.pop("REPRO_INCR_AUTO_MIN_PAIRS", None)
        #: the traced launcher, or the plain CLI entry point
        self.entry = ["-m", "repro"]

    def traced(self, trace_dir: Path) -> None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        self.env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        self.entry = [str(BENCH / "launch.py")]

    def spawn(self, argv: list[str], log: str) -> subprocess.Popen:
        with open(self.work / log, "ab") as out:
            return subprocess.Popen(
                [sys.executable, *self.entry, *argv], cwd=ROOT, env=self.env,
                stdout=out, stderr=subprocess.STDOUT, start_new_session=True,
            )


def reap(proc: subprocess.Popen, timeout: float | None = None) -> int:
    """Wait for ``proc`` (killing it after ``timeout`` seconds); returns its
    exit code."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        pid, status = os.waitpid(proc.pid, 0 if deadline is None else os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            os.kill(proc.pid, signal.SIGKILL)
            deadline = None
        else:
            time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode


def _hwm_kib(pid: int) -> int:
    """Peak RSS (VmHWM) of a live process in KiB, 0 once it has exited.

    Not ``wait4``'s ``ru_maxrss``: a child starts that figure from its
    parent's peak RSS (Linux carries it across ``exec``), so it would read
    this benchmark's own peak whenever that is the larger.
    """
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _worker_hwm_kib(root_pid: int) -> dict[int, int]:
    """Peak RSS (VmHWM) of each live child of ``root_pid``, by pid (pool
    workers are younger than the CLI, so only higher pids are read)."""
    out: dict[int, int] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit() or int(entry.name) <= root_pid:
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                if int(fh.read().rsplit(")", 1)[1].split()[1]) != root_pid:
                    continue
        except OSError:
            continue
        out[int(entry.name)] = _hwm_kib(int(entry.name))
    return out


def run_cli(
    run: Run, argv: list[str], log: str, *, pool: int = 0, measured: bool = False
) -> tuple[int, float, float]:
    """Run one CLI process to completion: ``(exit code, wall s, peak MB)``.

    Peak memory is the CLI's own peak RSS plus, for a CLI with a ``pool`` of
    worker processes, the ``pool`` largest worker peaks: high-water marks
    read every 50 ms while they run.
    Only a ``measured`` run is sampled, and its interval is recorded in
    ``run.windows``.
    """
    window_start = time.monotonic()
    started = time.perf_counter()
    proc = run.spawn(argv, log)
    own = [0]
    workers: dict[int, int] = {}
    done = threading.Event()

    def sample() -> None:
        while not done.wait(0.05):
            own[0] = max(own[0], _hwm_kib(proc.pid))
            for pid, kib in _worker_hwm_kib(proc.pid).items() if pool else ():
                workers[pid] = max(workers.get(pid, 0), kib)

    sampler = threading.Thread(target=sample, daemon=True)
    if measured:
        sampler.start()
    try:
        code = reap(proc)
    finally:
        done.set()
        if measured:
            sampler.join()
    wall = time.perf_counter() - started
    if measured:
        run.windows.append((window_start, time.monotonic()))
    pool_kib = sum(sorted(workers.values(), reverse=True)[:pool])
    return code, wall, (own[0] + pool_kib) / 1024


def stop_server(proc: subprocess.Popen) -> tuple[int, int]:
    """SIGTERM the server; ``(exit code, its peak RSS in KiB before the
    signal)``."""
    peak_kib = _hwm_kib(proc.pid)
    # os.kill, not Popen.send_signal: that would reap an exited server first
    os.kill(proc.pid, signal.SIGTERM)
    return reap(proc, timeout=60), peak_kib


# -- statistics ------------------------------------------------------------------


def p50(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


# -- oneshot ---------------------------------------------------------------------


def _write_corpus(path: Path, moduli: list[int], pairs: dict, seed: str) -> None:
    path.write_text(json.dumps({
        "bits": BITS, "seed": seed,
        "keys": [{"n": str(n), "e": 65537, "p": None} for n in moduli],
        "weak_pairs": [
            {"i": i, "j": j, "prime": str(g)} for (i, j), g in sorted(pairs.items())
        ],
    }))


def oneshot(run: Run) -> dict:
    import gen

    pool, truth, rng = gen.PrimePool(run.seed), gen.Truth(), random.Random(run.seed)
    moduli = gen.corpus(pool, truth, ONESHOT_KEYS, ONESHOT_GROUPS, 1, rng)
    expected = {(i, j, g) for (i, j), g in truth.pairs(moduli).items()}
    corpus = run.work / "corpus.json"
    _write_corpus(corpus, moduli, truth.pairs(moduli), run.seed)
    tiny = run.work / "tiny.json"
    _write_corpus(tiny, [pool.modulus(), pool.modulus()], {}, run.seed)

    setups: list[float] = []

    def setup_round(count: int = SETUP_PER_ROUND) -> None:
        for _ in range(count):
            code, wall, _ = run_cli(
                run, ["scan", "--corpus", str(tiny), "--backend", "batch"], "setup.log"
            )
            run.attempted += 1
            if code:
                run.failed += 1
            setups.append(wall)

    setup_round(1)
    setups.clear()  # the warm-up start

    walls: dict[str, list[float]] = {"batch": [], "batchscan": []}
    peak = 0.0
    cycle, cycle_s = 0, 0.0

    def measured_s() -> float:
        return sum(b - a for a, b in run.windows)

    # the window is the time in measured CLI runs (set-up samples pause it);
    # at least two cycles, so each path has two runs whatever the machine's
    # speed, and another only if it should end inside the window
    while cycle < 2 or measured_s() + cycle_s <= run.args.seconds:
        cycle_started = measured_s()
        for path in walls:
            setup_round()
            stats = run.work / f"{path}-{cycle}.json"
            argv = (
                ["scan", "--corpus", str(corpus), "--backend", "batch"]
                if path == "batch"
                else ["batchscan", "--corpus", str(corpus), "--workers", str(NPROC),
                      "--spool-dir", str(run.work / f"spool-{cycle}")]
            )
            code, wall, mb = run_cli(
                run, argv + ["--stats-json", str(stats)], f"{path}.log",
                pool=NPROC if path == "batchscan" else 0, measured=True,
            )
            run.attempted += 1
            if code not in (0, 1) or not stats.exists():
                run.failed += 1  # crashed: no verdicts at all
                continue
            found = {
                (h["i"], h["j"], int(h["prime"]))
                for h in json.loads(stats.read_text())["hits"]
            }
            if code or found != expected:
                raise CheckFailed(
                    f"{path}: exit {code}; missing {sorted(expected - found)}, "
                    f"extra {sorted(found - expected)}"
                )
            walls[path].append(wall)
            peak = max(peak, mb)
        cycle += 1
        cycle_s = measured_s() - cycle_started

    setup_round()
    if not all(walls.values()):
        raise RuntimeError("a scan path never completed; see its log")
    per_key = [w for ws in walls.values() for w in ws for _ in range(ONESHOT_KEYS)]
    for path, ws in walls.items():
        run.notes[f"{path}_keys_per_s"] = (ONESHOT_KEYS * len(ws) / sum(ws), "keys/s")
    return {
        "setup_s": p50(setups),
        "verdict_keys_per_s": len(per_key) / sum(w for ws in walls.values() for w in ws),
        "verdict_p50_ms": p50(per_key) * 1e3,
        "verdict_p90_ms": p90(per_key) * 1e3,
        "peak_rss_mb": peak,
    }


# -- the service workloads -------------------------------------------------------


class Inputs:
    """The preload plus the traffic of one service workload."""

    def __init__(self, workload: str, seed: str) -> None:
        import gen

        self.pool, self.truth = gen.PrimePool(PRELOAD_SEED), gen.Truth()
        self.preload = gen.corpus(
            self.pool, self.truth, PRELOAD_KEYS, PRELOAD_GROUPS, 0,
            random.Random(PRELOAD_SEED),
        )
        self.preload_hits = self.truth.pairs(self.preload)
        self.pool.reseed(seed)
        rng = random.Random(f"{workload}:{seed}")
        self.chunks = (
            self._fresh_chunks(rng) if workload == "stream" else self._lookup_chunks(rng)
        )

    def _fresh_chunks(self, rng: random.Random) -> list[list[int]]:
        """Fresh keys; about 1 in ``STREAM_SHARE_EVERY`` shares a prime with
        a preloaded key, an earlier streamed key or an earlier key of its
        own chunk."""
        earlier: list[int] = []
        chunks = []
        for _ in range(STREAM_CHUNKS):
            chunk: list[int] = []
            for _ in range(STREAM_CHUNK):
                if rng.randrange(STREAM_SHARE_EVERY):
                    chunk.append(self.pool.modulus())
                    continue
                source = rng.choice(
                    ["preload", "streamed", "chunk"] if chunk and earlier else ["preload"]
                )
                partner = rng.choice(
                    {"preload": self.preload, "streamed": earlier, "chunk": chunk}[source]
                )
                chunk.append(self.share(partner))
            earlier.extend(chunk)
            chunks.append(chunk)
        return chunks

    def share(self, partner: int) -> int:
        """A fresh modulus sharing ``partner``'s planted prime, or planting
        one of ``partner``'s own factors when it has none yet."""
        prime = self.truth.prime_of.get(partner) or self.pool.factor_of(partner)
        if partner not in self.truth.prime_of:
            self.truth.plant(partner, prime)
        n = self.pool.modulus(prime)
        self.truth.plant(n, prime)
        return n

    def _lookup_chunks(self, rng: random.Random) -> list[list[int]]:
        chunks = []
        for _ in range(2):
            order = list(self.preload)
            rng.shuffle(order)
            chunks += [order[k : k + LOOKUP_CHUNK] for k in range(0, len(order), LOOKUP_CHUNK)]
        return chunks


def _source_digest() -> bytes:
    """Every ``src/repro`` source file, by path and content: the preload is
    rebuilt whenever the program that writes and reads it changes."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.digest()


def preloaded_state(inputs: Inputs) -> Path:
    """The preloaded state dir, built on first use in this checkout for these
    sources and checked clean by ``run_fsck`` on every run before timing."""
    import state as state_mod

    digest = hashlib.sha256(_source_digest())
    for n in inputs.preload:
        digest.update(n.to_bytes(BITS // 8, "big"))
    base = ROOT / ".perfbench" / f"preload-{digest.hexdigest()[:16]}"
    if not base.exists():
        tmp = base.with_name(f"{base.name}.{os.getpid()}.tmp")
        state_mod.build_state(tmp, inputs.preload, inputs.preload_hits)
        tmp.rename(base)
    state_mod.require_clean(base)
    return base


def _start_server(run: Run, state: Path) -> tuple[subprocess.Popen, int, float]:
    """Spawn ``repro serve`` with its defaults; ``(proc, port, setup s)``
    where set-up runs from the spawn until ``/healthz`` answers 200."""
    from client import fetch

    port_file = state.parent / f"{state.name}.port"
    started = time.perf_counter()
    proc = run.spawn(
        ["serve", "--state-dir", str(state), "--port", "0", "--port-file", str(port_file)],
        "serve.log",
    )
    try:
        while time.perf_counter() < started + 120:
            if proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {proc.returncode}; see serve.log")
            if port_file.exists() and port_file.read_text().endswith("\n"):
                port = int(port_file.read_text())
                if asyncio.run(fetch(port, "/healthz", 5.0)).status == 200:
                    setup = time.perf_counter() - started
                    _require_reload(port)
                    return proc, port, setup
            time.sleep(0.005)
        raise RuntimeError("repro serve did not answer /healthz within 120 s")
    except BaseException:
        if proc.returncode is None:
            stop_server(proc)
        raise


def _require_reload(port: int) -> None:
    """The server took its product tree from the preload's spool: a rebuild
    (the spool missing or unreadable to this program) would time the wrong
    thing."""
    from client import fetch

    reply = asyncio.run(fetch(port, "/metricsz", REQUEST_TIMEOUT))
    counters = json.loads(reply.body)["counters"] if reply.status == 200 else None
    if counters is None or counters.get("ptree.rebuilds", 0):
        raise RuntimeError(f"repro serve rebuilt its product tree (/metricsz: {reply.status})")


def _fresh_copy(base: Path, state: Path) -> Path:
    """Copy ``base`` to ``state`` and write the copy out, so the server's own
    fsyncs do not wait on this benchmark's dirty pages."""
    shutil.copytree(base, state)
    os.sync()
    return state


def _setup_samples(run: Run, base: Path, count: int) -> list[float]:
    """Start and stop ``count`` servers, each on a fresh copy of ``base``."""
    samples = []
    for _ in range(count):
        state = _fresh_copy(base, run.work / "setup")
        proc, _, setup = _start_server(run, state)
        code, _ = stop_server(proc)
        if code:
            raise RuntimeError(f"repro serve exited with {code} on SIGTERM; see serve.log")
        shutil.rmtree(state)
        state.with_name("setup.port").unlink()
        samples.append(setup)
    return samples


def service(run: Run, workload: str) -> dict:
    import client
    import state as state_mod

    inputs = Inputs(workload, run.seed)
    base = preloaded_state(inputs)
    bodies = client.submit_bodies(inputs.chunks)

    _setup_samples(run, base, 1)  # the warm-up start
    setups = _setup_samples(run, base, 2 * SETUP_PER_ROUND)
    state = _fresh_copy(base, run.work / "state")
    proc, port, setup = _start_server(run, state)
    setups.append(setup)
    try:
        drive = client.drive_stream if workload == "stream" else client.drive_lookup
        window_start = time.monotonic()
        log, window = asyncio.run(drive(port, bodies, run.args.seconds, REQUEST_TIMEOUT))
        run.windows.append((window_start, time.monotonic()))
        final_hits = asyncio.run(client.fetch(port, "/hits", REQUEST_TIMEOUT))
        _require_reload(port)
    finally:
        code, peak_kib = stop_server(proc)
    if code:
        raise RuntimeError(f"repro serve exited with {code} on SIGTERM; see serve.log")
    setups += _setup_samples(run, base, 2 * SETUP_PER_ROUND)

    run.attempted += len(log)
    run.failed += sum(1 for x in log if x.status != 200)
    check_service(workload, inputs, log, final_hits)
    state_mod.require_clean(state)

    submits = [x for x in log if x.kind == "submit" and x.status == 200]
    per_key = [x.ms for x in submits for _ in x.keys]
    scrapes = [x.ms for x in log if x.kind == "metricsz" and x.status == 200]
    if scrapes:
        run.notes["scrape_p50_ms"] = (p50(scrapes), "ms")
    run.notes["requests"] = (float(len(submits)), "count")
    return {
        "setup_s": p50(setups),
        "verdict_keys_per_s": len(per_key) / window,
        "verdict_p50_ms": p50(per_key),
        "verdict_p90_ms": p90(per_key),
        "peak_rss_mb": peak_kib / 1024,
    }


def check_service(workload: str, inputs: Inputs, log: list, final_hits) -> None:
    """Every verdict matches the truth; the final ``/hits`` is the planted set."""
    truth = inputs.truth
    index = {n: i for i, n in enumerate(inputs.preload)}
    submits = [x for x in log if x.kind == "submit" and x.status == 200]
    status = "registered" if workload == "stream" else "duplicate"
    rows = [json.loads(x.body)["results"] for x in submits]
    # first pass: the index the service gave every key
    for x, results in zip(submits, rows):
        if len(results) != len(x.keys):
            raise CheckFailed(f"{len(results)} verdicts for {len(x.keys)} keys")
        for n, row in zip(x.keys, results):
            if row["status"] != status:
                raise CheckFailed(f"key verdict {row['status']!r}, expected {status!r}")
            if index.setdefault(n, row["index"]) != row["index"]:
                raise CheckFailed(f"key moved from index {index[n]} to {row['index']}")
    if sorted(index.values()) != list(range(len(index))):
        raise CheckFailed("registered indices are not contiguous")
    # second pass: a verdict names the partners registered by the end of its
    # flush, and one submitter's chunks (at most ``max_batch`` keys, so one
    # flush each) register in order
    for x, results in zip(submits, rows):
        cut = max(PRELOAD_KEYS - 1, *(row["index"] for row in results))
        for n, row in zip(x.keys, results):
            want = sorted(
                (index[m], hex(truth.prime_of[n]))
                for m in truth.partners(n)
                if m in index and index[m] <= cut
            )
            got = sorted((h["partner"], h["prime"]) for h in row["hits"])
            if got != want or row["weak"] != bool(want):
                raise CheckFailed(f"verdict for index {row['index']}: {got} != {want}")
    order = sorted(index, key=index.get)
    want_hits = {(i, j, hex(g)) for (i, j), g in truth.pairs(order).items()}
    if final_hits.status != 200:
        raise CheckFailed(f"GET /hits answered {final_hits.status}")
    got_hits = {(h["i"], h["j"], h["prime"]) for h in json.loads(final_hits.body)["hits"]}
    if got_hits != want_hits:
        raise CheckFailed(
            f"/hits missing {sorted(want_hits - got_hits)}, extra {sorted(got_hits - want_hits)}"
        )


# -- main ------------------------------------------------------------------------

WORKLOADS = {
    "oneshot": oneshot,
    "stream": lambda run: service(run, "stream"),
    "lookup": lambda run: service(run, "lookup"),
}


def provenance(args: argparse.Namespace) -> str:
    """Where the figures come from: machine, interpreter, backend, the
    ``serve`` defaults in force and the seed."""
    import platform

    from repro.cli import build_parser
    from repro.util.intops import resolve_backend

    serve = vars(build_parser().parse_args(["serve", "--state-dir", "."]))
    defaults = {
        k: serve[k] for k in (
            "scan_engine", "shards", "linger_ms", "max_batch", "max_pending",
            "scrub_interval", "scrub_max_bytes",
        )
    }
    return "provenance " + json.dumps({
        "nproc": NPROC,
        "python": platform.python_version(),
        "int_backend": resolve_backend("auto").name,
        "serve_defaults": defaults,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    })


def measure(args: argparse.Namespace, work: Path, trace_dir: Path | None) -> Run:
    run = Run(args, work)
    if trace_dir is not None:
        run.traced(trace_dir)
    run.metrics = WORKLOADS[args.workload](run)
    return run


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its servers (the ``finally`` blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    # the build step: bytecode is compiled once per checkout, not in a timed run
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH)], check=True
    )

    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    if args.trace:
        # the untraced and the traced half share the run's time
        args.seconds /= 2
    try:
        plain = measure(args, workdir / "plain", None)
        metrics = {k: (v, END_TO_END[k]) for k, v in plain.metrics.items()}
        runs = [plain]
        if args.trace:
            import report

            traced = measure(args, workdir / "traced", workdir / "spans")
            runs.append(traced)
            metrics = report.per_layer(workdir / "spans", plain, traced)
    except CheckFailed as exc:
        print(f"OUTPUT CHECK FAILED ({args.workload}): {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(provenance(args))
    for name, (value, unit) in sorted(plain.notes.items()):
        print(f"  {name:<28} {value:14.4f} {unit}")
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(f"  {'failed_ratio':<28} {failed / attempted:14.4f} failed/attempted")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
