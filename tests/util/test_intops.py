"""Unit tests for the pluggable big-integer backend seam.

Backend *parity* over the attack entry points lives in
``tests/core/test_backend_parity.py``; this module covers the seam itself:
resolution precedence, operation semantics, and the unified leaf formula.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import intops
from repro.util.intops import (
    BACKEND_CHOICES,
    BACKEND_ENV,
    IntBackend,
    PythonBackend,
    available_backends,
    backend_info,
    resolve_backend,
)

GMPY2_AVAILABLE = "gmpy2" in available_backends()
needs_gmpy2 = pytest.mark.skipif(not GMPY2_AVAILABLE, reason="gmpy2 not installed")


# ---------------------------------------------------------------- resolution


def test_python_always_available():
    assert "python" in available_backends()
    assert resolve_backend("python").name == "python"


def test_resolution_precedence(monkeypatch):
    # explicit name beats the environment variable
    monkeypatch.setenv(BACKEND_ENV, "python")
    assert resolve_backend("auto").name == resolve_backend("auto").name
    assert resolve_backend("python").name == "python"
    # no explicit name: the environment variable decides
    assert resolve_backend(None).name == "python"
    assert resolve_backend("").name == "python"
    # no name, no env: auto
    monkeypatch.delenv(BACKEND_ENV)
    auto = resolve_backend("auto").name
    assert resolve_backend(None).name == auto
    assert auto in available_backends()


def test_env_var_garbage_raises(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "riscv")
    with pytest.raises(ValueError, match="riscv"):
        resolve_backend(None)


def test_instance_passthrough():
    b = resolve_backend("python")
    assert resolve_backend(b) is b


def test_unknown_name_raises():
    with pytest.raises(ValueError, match="unknown int backend"):
        resolve_backend("bignum")


@pytest.mark.skipif(GMPY2_AVAILABLE, reason="gmpy2 IS installed here")
def test_explicit_gmpy2_raises_when_missing():
    # silent degradation would invalidate benchmark numbers: explicit
    # requests for an absent backend must fail loudly, while auto degrades
    with pytest.raises(ValueError, match="gmpy2"):
        resolve_backend("gmpy2")
    assert resolve_backend("auto").name == "python"


def test_names_are_case_insensitive():
    assert resolve_backend("PYTHON").name == "python"


def test_backend_info_shape():
    info = backend_info()
    assert set(info["available"]) <= set(BACKEND_CHOICES)
    assert info["auto"] in info["available"]
    assert info["gmpy2"]["installed"] == GMPY2_AVAILABLE
    if not GMPY2_AVAILABLE:
        assert "error" in info["gmpy2"]


# ---------------------------------------------------------- op semantics


def _backend_params():
    params = [pytest.param("python", id="python")]
    params.append(pytest.param("gmpy2", id="gmpy2", marks=needs_gmpy2))
    return params


@pytest.fixture(params=_backend_params())
def backend(request) -> IntBackend:
    return resolve_backend(request.param)


def test_core_ops(backend):
    a, b = 2**521 - 1, 3**200 + 7
    assert backend.mul(a, b) == a * b
    assert backend.sqr(a) == a * a
    assert backend.mod(a, b) == a % b
    assert backend.gcd(a * 15, b * 15) == math.gcd(a * 15, b * 15)
    assert backend.divexact(a * b, b) == a
    assert backend.powmod(2, a, b) == pow(2, a, b)
    assert backend.prod([a, b, 7]) == a * b * 7
    assert backend.prod([]) == 1


def test_int_boundary_round_trips(backend):
    v = 2**300 + 12345
    native = backend.from_int(v)
    assert backend.to_int(native) == v
    # idempotent in both directions
    assert backend.to_int(backend.from_int(native)) == v
    assert type(backend.to_int(native)) is int
    data = v.to_bytes((v.bit_length() + 7) // 8, "little")
    assert backend.to_int(backend.from_bytes(data)) == v


def test_python_backend_is_zero_copy():
    v = 2**100
    assert PythonBackend().from_int(v) is v


def test_leaf_gcd_matches_historical_floor_division_form(backend):
    # the three call sites this formula unified used gcd(n, (r//n) % n);
    # exact division agrees because n | r whenever r = N mod n^2 with n | N
    rng = random.Random(7)
    primes = [7919, 104729, 1299709, 15485863, 32452843]
    for _ in range(50):
        shared = rng.choice(primes)
        n = shared * rng.choice(primes)
        others = math.prod(rng.choice(primes) for _ in range(4))
        N = n * others
        r = N % (n * n)
        expected = math.gcd(n, (r // n) % n)
        assert backend.to_int(backend.leaf_gcd(n, r)) == expected


def test_leaf_gcd_accepts_native_operands(backend):
    n, N = 15, 15 * 21
    r = backend.from_int(N % (15 * 15))
    assert backend.to_int(backend.leaf_gcd(backend.from_int(n), r)) == 3


# ------------------------------------------- recursive division behind mod

GATE = intops._BZ_CUTOFF
py_mod = PythonBackend.mod


def _bits(rng, n):
    """A random integer of exactly ``n`` bits."""
    return rng.getrandbits(n) | 1 << (n - 1) if n else 0


@settings(max_examples=60, deadline=None)
@given(
    divisor_bits=st.sampled_from([GATE - 1, GATE, GATE + 1, GATE + 7, 2 * GATE + 3]),
    quotient_bits=st.sampled_from([GATE - 1, GATE, GATE + 1, 3 * GATE + 5]),
    seed=st.integers(0, 2**32),
)
def test_mod_matches_builtin_around_the_gate(divisor_bits, quotient_bits, seed):
    rng = random.Random(seed)
    b = _bits(rng, divisor_bits)
    a = _bits(rng, divisor_bits + quotient_bits)
    assert py_mod(a, b) == a % b


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(GATE, 3 * GATE),
    offset=st.sampled_from([-1, 1]),
    extra=st.integers(GATE, 2 * GATE),
    seed=st.integers(0, 2**32),
)
def test_mod_by_power_of_two_neighbours(k, offset, extra, seed):
    b = (1 << k) + offset
    a = _bits(random.Random(seed), k + extra)
    assert py_mod(a, b) == a % b


@settings(max_examples=30, deadline=None)
@given(divisor_bits=st.integers(GATE, 3 * GATE), seed=st.integers(0, 2**32))
def test_mod_of_small_multiples_and_quotient_edge(divisor_bits, seed):
    rng = random.Random(seed)
    b = _bits(rng, divisor_bits)
    assert py_mod(b - 1, b) == b - 1  # a < b
    assert py_mod(b * _bits(rng, divisor_bits), b) == 0  # exact multiple
    # a = b·2^n − 1: the 3n/2n step's quotient estimate saturates at 2^n − 1
    a = (b << divisor_bits) - 1
    assert py_mod(a, b) == a % b


def test_mod_one_mbit_by_half_mbit():
    rng = random.Random(11)
    b = _bits(rng, 1 << 19)
    a = _bits(rng, 1 << 20)
    assert py_mod(a, b) == a % b


@settings(max_examples=300, deadline=None)
@given(
    divisor_bits=st.integers(1, 300),
    dividend_bits=st.integers(0, 1200),
    cutoff=st.integers(1, 40),
    shape=st.sampled_from(["random", "pow2-1", "pow2+1", "b*2^n-1", "multiple"]),
    seed=st.integers(0, 2**32),
)
def test_recursive_divide_below_the_gate(divisor_bits, dividend_bits, cutoff, shape, seed):
    # called directly with a small cutoff, so the recursion (and its pad
    # and correction paths) runs at sizes where mod itself would use %
    rng = random.Random(seed)
    b = {
        "pow2-1": (1 << divisor_bits) - 1 or 1,
        "pow2+1": (1 << divisor_bits) + 1,
    }.get(shape) or _bits(rng, divisor_bits)
    a = {
        "b*2^n-1": (b << b.bit_length()) - 1,
        "multiple": b * _bits(rng, dividend_bits),
    }.get(shape, _bits(rng, dividend_bits))
    assert intops._bz_mod(a, b, cutoff) == a % b


def test_mod_stays_one_traceable_call():
    # tracers wrap the class attribute; the recursion must not re-enter it
    calls = []
    real = PythonBackend.mod
    assert isinstance(vars(PythonBackend)["mod"], staticmethod)
    try:
        PythonBackend.mod = staticmethod(lambda a, b: calls.append(1) or real(a, b))
        b = _bits(random.Random(3), 4 * GATE)
        assert resolve_backend("python").mod(b * b + 5, b) == 5
    finally:
        PythonBackend.mod = staticmethod(real)
    assert len(calls) == 1


# ------------------------------------------------------------ gmpy2 extras


@needs_gmpy2
def test_gmpy2_versions_reported():
    info = backend_info()
    assert info["gmpy2"]["installed"]
    assert "gmpy2" in info["gmpy2"] and "mp" in info["gmpy2"]


@needs_gmpy2
def test_mpz_pickles_for_process_pool():
    import pickle

    b = resolve_backend("gmpy2")
    v = b.from_int(2**4096 + 1)
    assert pickle.loads(pickle.dumps(v)) == v
