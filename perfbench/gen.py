"""Seeded 2048-bit moduli with ground truth that holds by construction.

Every modulus is the product of ``FACTORS`` distinct primes drawn without
replacement from one pool: the primes of ``[2**32 - POOL_WIDTH, 2**32)``,
found with a sieve and shuffled by the seed.  Any product of 64 primes from
that window has exactly 2048 bits, since ``(1 - POOL_WIDTH / 2**32)**64 >
1/2``.  A prime enters a second modulus only where a planted group puts it
there, and each modulus holds at most one planted prime, so:

* two moduli share a factor exactly when they are in the same planted
  group (or are the same duplicated modulus), and
* the gcd of any such pair is that group's prime (or the whole modulus).

No brute-force pass is needed to know the hit set, and every factor is far
above 2**16, so no admission-side trial division can fire.
``python3 perfbench/gen.py`` checks the construction against a
``math.gcd`` brute force on a small instance.
"""

from __future__ import annotations

import math
import random
import sys
from itertools import combinations

BITS = 2048
FACTORS = 64
POOL_TOP = 1 << 32
#: ~720k primes, enough for 11000 moduli; products stay at exactly 2048 bits
POOL_WIDTH = 16_000_000


def _small_primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if sieve[p]]


def prime_window(lo: int, hi: int) -> list[int]:
    """Every prime in ``[lo, hi)`` (``lo`` odd, ``lo > sqrt(hi)``)."""
    # index k stands for the odd number lo + 2k
    size = (hi - lo + 1) // 2
    sieve = bytearray([1]) * size
    for p in _small_primes(math.isqrt(hi))[1:]:
        first = -(-lo // p) * p
        if first % 2 == 0:
            first += p
        start = (first - lo) // 2
        if start < size:
            sieve[start::p] = bytes(len(range(start, size, p)))
    return [lo + 2 * k for k in range(size) if sieve[k]]


class PrimePool:
    """Distinct ~32-bit primes in a seed-determined order."""

    def __init__(self, seed: str) -> None:
        self.rng = random.Random(f"perfbench:{seed}")
        primes = prime_window(POOL_TOP - POOL_WIDTH + 1, POOL_TOP)
        self.rng.shuffle(primes)
        self._primes = primes
        self._next = 0
        #: modulus -> one of its unshared factors, for planting shares later
        self._factor: dict[int, int] = {}

    def reseed(self, seed: str) -> None:
        """Reshuffle the primes not taken yet, so later moduli follow
        ``seed`` while earlier ones stay fixed."""
        rest = self._primes[self._next :]
        random.Random(f"perfbench:{seed}").shuffle(rest)
        self._primes[self._next :] = rest

    def take(self, count: int) -> list[int]:
        end = self._next + count
        if end > len(self._primes):
            raise ValueError(f"prime pool exhausted ({len(self._primes)} primes)")
        out = self._primes[self._next : end]
        self._next = end
        return out

    def modulus(self, shared: int | None = None) -> int:
        """A fresh modulus; with ``shared``, one of its factors is that prime."""
        factors = self.take(FACTORS - (shared is not None))
        if shared is not None:
            factors.append(shared)
        n = math.prod(factors)
        if n.bit_length() != BITS:
            raise AssertionError(f"modulus of {n.bit_length()} bits")
        self._factor[n] = factors[0]
        return n

    def factor_of(self, n: int) -> int:
        """A factor of ``n`` that no other modulus holds yet."""
        return self._factor[n]


class Truth:
    """Which moduli share which planted prime."""

    def __init__(self) -> None:
        #: modulus -> its planted prime (absent for moduli with none)
        self.prime_of: dict[int, int] = {}
        #: planted prime -> the moduli that hold it, in creation order
        self.members: dict[int, list[int]] = {}

    def plant(self, n: int, prime: int) -> None:
        self.prime_of[n] = prime
        self.members.setdefault(prime, []).append(n)

    def partners(self, n: int) -> list[int]:
        prime = self.prime_of.get(n)
        return [] if prime is None else [m for m in self.members[prime] if m != n]

    def pairs(self, moduli: list[int]) -> dict[tuple[int, int], int]:
        """``{(i, j): shared factor}`` over the index order of ``moduli``.

        A modulus listed twice pairs with itself with the whole modulus as
        the shared factor, as the one-shot scans report duplicates.
        """
        where: dict[int, list[int]] = {}
        for idx, n in enumerate(moduli):
            where.setdefault(n, []).append(idx)
        out: dict[tuple[int, int], int] = {}
        for n, idxs in where.items():
            for i, j in combinations(idxs, 2):
                out[(i, j)] = n
        for prime, members in self.members.items():
            idxs = sorted(i for m in members for i in where.get(m, ()))
            for i, j in combinations(idxs, 2):
                if moduli[i] != moduli[j]:
                    out[(i, j)] = prime
        return out


def corpus(
    pool: PrimePool, truth: Truth, n_keys: int, groups: tuple[int, ...],
    duplicates: int, rng: random.Random,
) -> list[int]:
    """``n_keys`` moduli: planted groups of the given sizes, ``duplicates``
    moduli listed twice, the rest fresh; positions shuffled by ``rng``."""
    moduli: list[int] = []
    for size in groups:
        prime = pool.take(1)[0]
        for _ in range(size):
            n = pool.modulus(prime)
            truth.plant(n, prime)
            moduli.append(n)
    singles = [pool.modulus() for _ in range(n_keys - len(moduli) - duplicates)]
    moduli.extend(singles)
    moduli.extend(singles[:duplicates])
    rng.shuffle(moduli)
    return moduli


def self_test() -> None:
    """Planted truth equals a ``math.gcd`` brute force over every pair."""
    pool = PrimePool("self-test")
    truth = Truth()
    moduli = corpus(pool, truth, 60, (2, 3, 2), 2, random.Random(7))
    # a later key joining an existing group, as streamed keys do
    prime = truth.prime_of[next(n for n in moduli if n in truth.prime_of)]
    moduli.append(pool.modulus(prime))
    truth.plant(moduli[-1], prime)
    brute = {
        (i, j): math.gcd(a, b)
        for (i, a), (j, b) in combinations(enumerate(moduli), 2)
        if math.gcd(a, b) > 1
    }
    planted = truth.pairs(moduli)
    if brute != planted:
        raise AssertionError(f"planted {planted} != brute force {brute}")
    if any(n.bit_length() != BITS or n % 2 == 0 for n in moduli):
        raise AssertionError("modulus size or parity off")
    print(f"gen self-test ok: {len(moduli)} moduli, {len(planted)} hit pairs")


if __name__ == "__main__":
    self_test()
    sys.exit(0)
