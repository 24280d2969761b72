"""Pluggable big-integer operation backends for every GCD hot path.

The reproduction's asymptotically fast paths — the Bernstein
product/remainder trees (:mod:`repro.core.batch_gcd`), the sharded
pipeline's chunk functions (:mod:`repro.core.parallel`), and Miller–Rabin
prime generation (:mod:`repro.rsa.primes`) — all reduce to a handful of
arbitrary-precision operations: multiply, square, reduce, exact-divide,
GCD, modular exponentiation.  CPython's generic ``int`` implements them
correctly but 5–20× slower than GMP at the 2048–65536-bit operand sizes
the trees reach; ``fastgcd`` (the tool behind Heninger et al.'s "Mining
your Ps and Qs") and Pelofske's all-to-all GCD scans both close that gap
by building on GMP.  This module is the seam that lets us do the same
without a hard dependency:

* ``python``  — plain ``int`` operators, always available, zero deps;
* ``gmpy2``   — GMP via `gmpy2 <https://pypi.org/project/gmpy2/>`_
  (``pip install -e .[fast]``), auto-detected at import time.

Backend selection (:func:`resolve_backend`) checks, in order: an explicit
name argument, the ``REPRO_INT_BACKEND`` environment variable, then
``auto`` (gmpy2 when importable, else python).  Values flowing *between*
tree levels stay backend-native (``mpz`` under gmpy2) — callers convert at
API boundaries with ``to_int`` so public results are always plain ``int``
and therefore byte-identical across backends.

The deliberately SIMT-unfriendly word-level algorithms A–E
(:mod:`repro.gcd`, :mod:`repro.mp`) are *not* routed through this seam:
they are the paper's measurement subject, and replacing their arithmetic
would change what is being measured.
"""

from __future__ import annotations

import math
import operator
import os

__all__ = [
    "BACKEND_CHOICES",
    "BACKEND_ENV",
    "Gmpy2Backend",
    "IntBackend",
    "PythonBackend",
    "available_backends",
    "backend_info",
    "resolve_backend",
]

#: environment variable consulted when no explicit backend name is given
BACKEND_ENV = "REPRO_INT_BACKEND"

#: the names :func:`resolve_backend` accepts
BACKEND_CHOICES = ("auto", "python", "gmpy2")


class IntBackend:
    """One big-integer implementation: a bundle of arithmetic callables.

    Concrete backends bind the operations as cheap attributes so hot loops
    can hoist them into locals (``mul = backend.mul``) and pay only the
    call, never a lookup.  All operations accept both plain ``int`` and the
    backend's native type; outputs are backend-native unless noted.

    ========== =========================================================
    ``mul``     ``a * b``
    ``sqr``     ``a * a`` (GMP squares ~1.5× faster than a generic mul)
    ``mod``     ``a % m`` for non-negative operands
    ``gcd``     greatest common divisor
    ``divexact`` ``a // b`` where ``b`` is known to divide ``a`` exactly
    ``powmod``  ``pow(b, e, m)``
    ``prod``    product of an iterable (empty → 1)
    ``from_int``/``to_int``  convert at API boundaries (both idempotent)
    ``from_bytes``  little-endian unsigned bytes → native value (the
                spool-blob record codec, so disk reads skip the
                ``int`` round-trip)
    ``from_bytes_be``  big-endian unsigned bytes → native value (the
                RGWIRE1 wire codec, :mod:`repro.service.wire`; network
                order is canonical on the wire, little-endian on disk)
    ``leaf_gcd``  the batch-GCD leaf formula, see below
    ========== =========================================================
    """

    name: str

    def leaf_gcd(self, n, r_mod_n2):
        """The one batch-GCD leaf formula: ``gcd(n, (N/n) mod n)``.

        ``r_mod_n2`` is ``N mod n²`` from the remainder tree, where ``N``
        is the product of all moduli.  Since ``n | N`` and ``N − r`` is a
        multiple of ``n²``, ``n`` divides ``r`` too, so ``r / n`` is exact
        — which is why the historical floor-division form
        ``gcd(n, (r // n) % n)`` and this exact-division form agree:
        floor division of an exact multiple *is* exact division.  Exact
        division is the form GMP can do without computing a remainder.

        Every leaf-stage call site (in-memory tree, pipeline chunk
        function, parity tests) routes through here so the hot formula
        lives in exactly one place.

        >>> resolve_backend("python").leaf_gcd(15, 315 % (15 * 15))
        3
        """
        return self.gcd(n, self.mod(self.divexact(r_mod_n2, n), n))


#: Bit length from which :func:`_mod` divides recursively: below it, in the
#: divisor or in the quotient, builtin ``%`` is as fast or faster.  It is
#: also the recursion's base case, where a subproblem goes to ``divmod``.
#: ``%`` time ÷ ``_bz_mod(a, b, 8192)`` time for a ``2s``-bit dividend over
#: an ``s``-bit divisor, CPython 3.11.7, median of 5 on 2 cores (below the
#: cutoff ``_bz_mod`` is ``divmod`` plus its call overhead):
#:
#: ===== ==== ==== ==== ==== ==== ==== ==== ==== ==== ====
#: s     2K   4K   8K   16K  32K  64K  128K 256K 512K 1M
#: ratio 0.86 0.88 1.02 1.35 1.86 2.27 2.47 3.18 4.61 5.82
#: ===== ==== ==== ==== ==== ==== ==== ==== ==== ==== ====
_BZ_CUTOFF = 8192


def _mod(a, b):
    """``a % b``, by Burnikel–Ziegler division once divisor and quotient
    both reach :data:`_BZ_CUTOFF` bits (CPython 3.11's ``%`` is quadratic,
    its ``*`` Karatsuba).

    >>> b = 3**20000 + 2
    >>> _mod(b * b + 12345, b) == 12345
    True
    """
    n = b.bit_length()
    if n < _BZ_CUTOFF or a.bit_length() - n < _BZ_CUTOFF or a < 0 or b < 0:
        return a % b
    return _bz_mod(a, b, _BZ_CUTOFF)


def _bz_mod(a: int, b: int, cutoff: int) -> int:
    """``a % b`` for ``a ≥ 0`` and ``b > 0``: long division in base
    ``2**n`` (``n`` is ``b``'s bit length), each digit step one 2n/1n
    recursive divide whose subproblems below ``cutoff`` bits go to
    ``divmod``.

    C. Burnikel and J. Ziegler, "Fast Recursive Division", MPI-I-98-1-022,
    1998.  This function and its helpers follow ``int_divmod``,
    ``_int2digits``, ``_div2n1n`` and ``_div3n2n`` in CPython 3.12's
    ``Lib/_pylong.py``, Copyright (c) Python Software Foundation, used
    under the PSF License Agreement; here only the remainder is kept.
    """
    n = b.bit_length()
    r = 0
    for digit in _digits(a, n, -(-a.bit_length() // n)):
        r = _div2n1n(r << n | digit, b, n, cutoff)[1]
    return r


def _digits(a: int, n: int, k: int) -> list:
    """The ``k`` base-``2**n`` digits of ``a``, most significant first
    (split in halves, so each level of the split shifts ``a`` once)."""
    if k <= 1:
        return [a]
    low = k >> 1
    high = a >> (low * n)
    return _digits(high, n, k - low) + _digits(a ^ (high << (low * n)), n, low)


def _div2n1n(a: int, b: int, n: int, cutoff: int) -> tuple:
    """``divmod(a, b)`` for an ``n``-bit ``b`` and ``0 ≤ a < b·2**n``."""
    if n < cutoff or a.bit_length() - n < cutoff:
        return divmod(a, b)
    pad = n & 1
    if pad:
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _div3n2n(a >> n, (a >> half) & mask, b, b1, b2, half, cutoff)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half, cutoff)
    return q1 << half | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int, cutoff: int) -> tuple:
    """``divmod(a12·2**n + a3, b)`` for ``b = b1·2**n + b2`` with ``b1``
    of ``n`` bits and a quotient below ``2**n``: estimate the quotient
    from ``a12 / b1``, then correct it down (at most twice)."""
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n, cutoff)
    r = (r << n | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


class PythonBackend(IntBackend):
    """Plain CPython ``int`` arithmetic — the always-available reference.

    The operation attributes are the raw builtins/operators themselves
    (``mod`` adds a recursive divide for large operands), so routing
    through this backend costs one extra function call per operation.
    """

    name = "python"

    mul = staticmethod(operator.mul)
    mod = staticmethod(_mod)
    gcd = staticmethod(math.gcd)
    # exact by precondition (the caller guarantees b | a), so floor
    # division returns the same value the true quotient would
    divexact = staticmethod(operator.floordiv)
    powmod = staticmethod(pow)
    prod = staticmethod(math.prod)
    to_int = staticmethod(int)

    @staticmethod
    def sqr(x):
        return x * x

    @staticmethod
    def from_int(x):
        return x

    @staticmethod
    def from_bytes(data: bytes) -> int:
        return int.from_bytes(data, "little")

    @staticmethod
    def from_bytes_be(data: bytes) -> int:
        return int.from_bytes(data, "big")


class Gmpy2Backend(IntBackend):
    """GMP arithmetic through ``gmpy2`` — the accelerated path.

    Instantiation imports ``gmpy2`` and raises ``ImportError`` when it is
    absent; use :func:`resolve_backend` for graceful detection.  ``mpz``
    values pickle (gmpy2 registers a ``__reduce__``), so chunk payloads
    cross the pipeline's ``ProcessPoolExecutor`` boundary natively.
    """

    name = "gmpy2"

    def __init__(self) -> None:
        import gmpy2

        self._gmpy2 = gmpy2
        self._mpz = gmpy2.mpz
        self.mul = gmpy2.mul
        self.gcd = gmpy2.gcd
        self.divexact = gmpy2.divexact
        self.powmod = gmpy2.powmod
        # f_mod == % for the non-negative operands every hot path uses
        self.mod = gmpy2.f_mod
        # gmpy2 >= 2.1 exposes a dedicated squaring entry point
        square = getattr(gmpy2, "square", None)
        self.sqr = square if square is not None else (lambda x: x * x)
        # mpz.from_bytes (gmpy2 >= 2.2) decodes without an int round-trip
        native_from_bytes = getattr(self._mpz, "from_bytes", None)
        if native_from_bytes is not None:
            self.from_bytes = lambda data: native_from_bytes(data, byteorder="little")
            self.from_bytes_be = lambda data: native_from_bytes(data, byteorder="big")
        else:
            self.from_bytes = lambda data: self._mpz(
                int.from_bytes(data, "little")
            )
            self.from_bytes_be = lambda data: self._mpz(
                int.from_bytes(data, "big")
            )

    def from_int(self, x):
        # mpz is immutable; skip the copy when the value is already native
        return x if isinstance(x, self._mpz) else self._mpz(x)

    @staticmethod
    def to_int(x) -> int:
        return int(x)

    def prod(self, values):
        result = self._mpz(1)
        mul = self.mul
        for value in values:
            result = mul(result, value)
        return result

    def versions(self) -> dict:
        """gmpy2 and underlying GMP/MPIR versions (for ``repro backends``)."""
        return {
            "gmpy2": self._gmpy2.version(),
            "mp": self._gmpy2.mp_version(),
        }


_PYTHON = PythonBackend()
_GMPY2: Gmpy2Backend | None = None
_GMPY2_ERROR: str | None = None
_GMPY2_PROBED = False


def _load_gmpy2() -> Gmpy2Backend | None:
    """Import gmpy2 once; remember the failure reason for diagnostics."""
    global _GMPY2, _GMPY2_ERROR, _GMPY2_PROBED
    if not _GMPY2_PROBED:
        _GMPY2_PROBED = True
        try:
            _GMPY2 = Gmpy2Backend()
        except ImportError as exc:
            _GMPY2_ERROR = str(exc)
    return _GMPY2


def available_backends() -> tuple[str, ...]:
    """Names of the backends importable in this interpreter.

    >>> "python" in available_backends()
    True
    """
    names = ["python"]
    if _load_gmpy2() is not None:
        names.append("gmpy2")
    return tuple(names)


def resolve_backend(name: str | IntBackend | None = None) -> IntBackend:
    """Resolve a backend name to a live backend instance.

    ``name`` may be a backend instance (returned unchanged — lets threaded
    APIs accept either), an explicit name, ``"auto"``, or ``None`` /
    ``""`` meaning "consult ``REPRO_INT_BACKEND``, default ``auto``".
    ``auto`` picks gmpy2 when importable, else python.  An explicit
    ``"gmpy2"`` request raises ``ValueError`` when gmpy2 is missing —
    silently degrading a requested accelerated run would invalidate its
    benchmark numbers.

    >>> resolve_backend("python").name
    'python'
    >>> resolve_backend(resolve_backend("python")).name  # passthrough
    'python'
    """
    if isinstance(name, IntBackend):
        return name
    if not name:
        name = os.environ.get(BACKEND_ENV) or "auto"
    name = name.lower()
    if name == "auto":
        backend = _load_gmpy2()
        return backend if backend is not None else _PYTHON
    if name == "python":
        return _PYTHON
    if name == "gmpy2":
        backend = _load_gmpy2()
        if backend is None:
            raise ValueError(
                f"gmpy2 backend requested but gmpy2 is not importable "
                f"({_GMPY2_ERROR}); install it with: pip install -e '.[fast]'"
            )
        return backend
    raise ValueError(
        f"unknown int backend {name!r}; expected one of {BACKEND_CHOICES}"
    )


def backend_info() -> dict:
    """A JSON-ready report of what is installed and what ``auto`` picks.

    The ``repro backends`` CLI subcommand prints this, and benchmark
    artifacts embed it so every measurement is self-describing.

    >>> info = backend_info()
    >>> info["auto"] in info["available"]
    True
    """
    gmpy2_backend = _load_gmpy2()
    info: dict = {
        "available": list(available_backends()),
        "auto": resolve_backend("auto").name,
        "env": os.environ.get(BACKEND_ENV),
        "gmpy2": {"installed": gmpy2_backend is not None},
    }
    if gmpy2_backend is not None:
        info["gmpy2"].update(gmpy2_backend.versions())
    elif _GMPY2_ERROR is not None:
        info["gmpy2"]["error"] = _GMPY2_ERROR
    return info
