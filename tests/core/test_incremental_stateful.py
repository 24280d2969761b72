"""Stateful property tests: engine tiers differentially, and vs an oracle.

Hypothesis drives an arbitrary interleaving of key-batch arrivals (weak
and healthy keys mixed) and snapshot/restore round-trips across every
engine in :data:`~repro.core.incremental.ENGINES` at once — ``bulk``,
``native``, and the spool-backed ``ptree`` and ``auto``.  After every
step the tiers must agree on everything
observable: identical hit triples ``(i, j, prime)``, identical
``pairs_tested`` accounting, and ``coverage_is_complete()`` — and the
shared hit set must equal the brute-force all-pairs oracle over
everything ingested so far.  This is the proof that the amortized engines
are drop-in replacements for the paper's pairwise scan.
"""

import math
import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.incremental import ENGINES, IncrementalScanner

BITS = 32  # tiny "moduli" keep the oracle cheap; scanner logic is size-blind

# 16-bit primes with the top two bits set, so every product has 32 bits
_PRIMES = [49157, 49169, 49171, 49177, 49193, 49199, 49201, 49207, 49211, 49223]


def _modulus(i: int, j: int) -> int:
    return _PRIMES[i] * _PRIMES[j]


def _picks():
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=len(_PRIMES) - 1),
            st.integers(min_value=0, max_value=len(_PRIMES) - 1),
        ).filter(lambda t: t[0] != t[1] and _modulus(*t).bit_length() == BITS),
        min_size=0,
        max_size=4,
    )


class EngineDifferentialMachine(RuleBasedStateMachine):
    """Every engine fed the same stream must stay indistinguishable."""

    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="ptree-stateful-"))
        self.scanners = {
            engine: IncrementalScanner(
                bits=BITS, d=8, chunk_pairs=7, engine=engine,
                spool_dir=self.tmp / engine if tier.ptree else None,
            )
            for engine, tier in ENGINES.items()
        }
        self.ingested: list[int] = []

    def teardown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    @rule(picks=_picks())
    def add_batch(self, picks):
        batch = [_modulus(i, j) for i, j in picks]
        base = len(self.ingested)
        reports = {
            engine: scanner.add_batch(list(batch))
            for engine, scanner in self.scanners.items()
        }
        self.ingested.extend(batch)
        observable = {
            engine: (
                r.pairs_tested,
                r.new_keys,
                r.total_keys,
                [(h.i, h.j, h.prime) for h in r.hits],
            )
            for engine, r in reports.items()
        }
        assert len(set(map(str, observable.values()))) == 1, observable
        for h in reports["bulk"].hits:
            assert h.j >= base  # every hit involves at least one new key
            assert math.gcd(self.ingested[h.i], self.ingested[h.j]) % h.prime == 0
            assert h.prime > 1

    @rule(engine=st.sampled_from(tuple(ENGINES)))
    def snapshot_restore(self, engine):
        """Round-trip one engine through its snapshot; nothing may change."""
        scanner = self.scanners[engine]
        snap = scanner.snapshot()
        restored = IncrementalScanner.restore(
            snap, spool_dir=scanner.spool_dir,
        )
        assert restored.engine_name == engine
        assert restored.moduli == scanner.moduli
        assert restored.all_hits == scanner.all_hits
        assert restored.total_pairs_tested == scanner.total_pairs_tested
        self.scanners[engine] = restored

    @rule(source=st.sampled_from(tuple(ENGINES)), dest=st.sampled_from(tuple(ENGINES)))
    def restore_cross_engine(self, source, dest):
        """A snapshot from any tier restores into any other tier."""
        snap = self.scanners[source].snapshot()
        restored = IncrementalScanner.restore(
            snap, engine=dest,
            spool_dir=self.scanners[dest].spool_dir,
        )
        assert restored.all_hits == self.scanners[source].all_hits
        self.scanners[dest] = restored

    @invariant()
    def engines_agree(self):
        states = {
            engine: (
                [(h.i, h.j, h.prime) for h in s.all_hits],
                s.total_pairs_tested,
                s.n_keys,
            )
            for engine, s in self.scanners.items()
        }
        assert len(set(map(str, states.values()))) == 1, states

    @invariant()
    def matches_oracle(self):
        oracle = set()
        for i in range(len(self.ingested)):
            for j in range(i + 1, len(self.ingested)):
                if math.gcd(self.ingested[i], self.ingested[j]) > 1:
                    oracle.add((i, j))
        scanner = self.scanners["native"]
        assert {(h.i, h.j) for h in scanner.all_hits} == oracle

    @invariant()
    def coverage_complete(self):
        for scanner in self.scanners.values():
            assert scanner.coverage_is_complete()


EngineDifferentialMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=8, deadline=None
)
TestEngineDifferentialMachine = EngineDifferentialMachine.TestCase
