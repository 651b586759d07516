"""Unit tests for exact quadratic-irrational arithmetic."""

import json
import math
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from decimal import Decimal, localcontext
from hypothesis import given, settings, strategies as st

from quivex import QuadraticSurd
from quivex.cli import run
from quivex.kronecker import KroneckerContext, c_d_exact
from quivex.surd import (
    _GUARD, _icbrt, _primes, _square_free, _square_free_split, _surd_texts,
)


def _square_free_reference(n):
    """Trial division up to the square root: the slow path, kept as the oracle."""
    s, k, f = 1, n, 2
    while f * f <= k:
        ff = f * f
        while k % ff == 0:
            k //= ff
            s *= f
        f += 1
    return s, k


def _decimal_reference(surd, digits=12):
    """decimal's Decimal evaluation, kept apart from the code: the oracle."""
    with localcontext() as ctx:
        ctx.prec = digits + 25
        value = (Decimal(surd.p) + Decimal(surd.q) * Decimal(surd.n).sqrt()) / Decimal(surd.r)
        ctx.prec = digits
        value = +value
    return str(value)


def test_normalization_extracts_square_factors():
    # (4 + sqrt(12)) / 2 == 2 + sqrt(3)
    assert QuadraticSurd(4, 1, 12, 2) == QuadraticSurd(2, 1, 3, 1)


def test_normalization_collapses_perfect_squares():
    assert QuadraticSurd(1, 1, 9, 2) == 2
    assert QuadraticSurd(0, 2, 4, 4) == 1
    assert QuadraticSurd(3, 0, 7, 3) == 1  # q = 0 drops the radicand
    assert not QuadraticSurd(3, -1, 9, 1) and QuadraticSurd.sqrt(2)  # 3 - sqrt(9) is zero


def test_normalization_gcd_and_sign():
    s = QuadraticSurd(6, -2, 5, 4)
    assert (s.p, s.q, s.n, s.r) == (3, -1, 5, 2)
    t = QuadraticSurd(3, 1, 5, -2)  # negative denominator moves into p, q
    assert (t.p, t.q, t.n, t.r) == (-3, -1, 5, 2)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        QuadraticSurd(1, 0, 0, 0)


def test_negative_radicand_rejected():
    with pytest.raises(ValueError):
        QuadraticSurd(0, 1, -2, 1)


def test_comparisons_against_rationals():
    golden = QuadraticSurd(3, -1, 5, 2)  # (3 - sqrt(5)) / 2 = 0.38196...
    assert golden < Fraction(2, 5)
    assert golden > Fraction(38, 100)
    assert Fraction(38, 100) < golden
    assert golden <= golden
    assert not golden == Fraction(2, 5)


def test_comparisons_same_radicand():
    a = QuadraticSurd(3, -1, 5, 2)
    b = QuadraticSurd(3, 1, 5, 2)
    assert a < b
    assert b > 1


def test_mixed_radicands_equality_false_and_order_raises():
    r2 = QuadraticSurd.sqrt(2)
    r3 = QuadraticSurd.sqrt(3)
    assert not (r2 == r3)
    assert r2 != r3
    with pytest.raises(ValueError):
        r2 < r3


def test_arithmetic_same_radicand():
    phi_ish = QuadraticSurd(1, 1, 5, 1)
    conj = QuadraticSurd(1, -1, 5, 1)
    assert phi_ish * conj == -4
    assert phi_ish + conj == 2
    assert phi_ish - conj == QuadraticSurd(0, 2, 5, 1)


def test_arithmetic_with_rationals():
    s = QuadraticSurd(0, 1, 5, 1)
    assert (s + 1) - 1 == s
    assert s * Fraction(1, 2) == QuadraticSurd(0, 1, 5, 2)
    assert (Fraction(3, 2) - s / 2) == QuadraticSurd(3, -1, 5, 2)
    assert 2 * s / 2 == s


def test_division_rules():
    s = QuadraticSurd(3, -1, 5, 2)
    assert s / Fraction(1, 2) == QuadraticSurd(3, -1, 5, 1)
    with pytest.raises(ZeroDivisionError):
        s / 0
    assert s / QuadraticSurd(2) == s / 2
    with pytest.raises(ValueError):
        s / QuadraticSurd.sqrt(5)
    with pytest.raises(TypeError):
        s / 1.5


def test_bools_floats_and_strings_are_not_operands():
    s = QuadraticSurd(3, -1, 5, 2)
    for bad in (1.5, True):
        with pytest.raises(TypeError):
            QuadraticSurd(bad)
    for op in (lambda: s + 1.5, lambda: 1.5 - s, lambda: s < True):
        with pytest.raises(TypeError):
            op()
    assert (s == "x") is False and (s == True) is False  # noqa: E712


def test_sqrt_rational():
    assert QuadraticSurd.sqrt_rational(Fraction(5, 4)) == QuadraticSurd(0, 1, 5, 2)
    assert QuadraticSurd.sqrt_rational(Fraction(9, 4)) == Fraction(3, 2)
    with pytest.raises(ValueError):
        QuadraticSurd.sqrt_rational(Fraction(-1, 2))


def test_floor_and_ceil():
    assert math.floor(QuadraticSurd(3, 1, 5, 2)) == 2  # 2.618...
    assert math.ceil(QuadraticSurd(3, 1, 5, 2)) == 3
    assert math.ceil(QuadraticSurd(5, -1, 5, 2)) == 2  # 1.381...
    assert math.floor(QuadraticSurd(0, -1, 2, 1)) == -2  # -1.414...
    assert math.ceil(QuadraticSurd(0, -1, 2, 1)) == -1
    assert math.floor(QuadraticSurd(-7, 0, 0, 2)) == -4
    assert math.ceil(QuadraticSurd(-7, 0, 0, 2)) == -3
    assert math.ceil(QuadraticSurd(6, 0, 0, 3)) == 2


def test_decimal_rendering():
    assert QuadraticSurd(3, -1, 5, 2).decimal(12) == "0.381966011250"
    assert QuadraticSurd(2, 0, 0, 1).decimal(12) == "2"
    assert QuadraticSurd(0, 0, 0, 1).decimal(12) == "0"


def test_decimal_agrees_with_float():
    for surd in [QuadraticSurd(3, -1, 5, 2), QuadraticSurd(11, -1, 85, 2), QuadraticSurd(7, 2, 3, 5)]:
        assert abs(float(surd) - float(surd.decimal(12))) < 1e-9


def test_hash_matches_rational_values():
    assert hash(QuadraticSurd(4, 0, 0, 2)) == hash(Fraction(2))
    assert QuadraticSurd(4, 0, 0, 2) == 2
    assert QuadraticSurd(4, 0, 0, 2).as_fraction() == 2
    with pytest.raises(ValueError, match="irrational"):
        QuadraticSurd.sqrt(5).as_fraction()
    d = {QuadraticSurd(0, 1, 5, 1): "root5"}
    assert d[QuadraticSurd(0, 2, 5, 2)] == "root5"


def test_str_forms():
    assert str(QuadraticSurd(3, -1, 5, 2)) == "(3-sqrt(5))/2"
    assert str(QuadraticSurd(0, 1, 5, 1)) == "sqrt(5)"
    assert str(QuadraticSurd(0, -2, 3, 1)) == "-2*sqrt(3)"
    assert str(QuadraticSurd(2, -1, 2, 1)) == "2-sqrt(2)"
    assert str(QuadraticSurd(3, 0, 0, 2)) == "3/2"
    assert repr(QuadraticSurd(3, -1, 5, 2)) == "QuadraticSurd(p=3, q=-1, n=5, r=2)"


small_ints = st.integers(min_value=-30, max_value=30)


@given(small_ints, small_ints, st.integers(min_value=0, max_value=60), st.integers(min_value=1, max_value=12))
def test_normalization_idempotent(p, q, n, r):
    s = QuadraticSurd(p, q, n, r)
    t = QuadraticSurd(s.p, s.q, s.n, s.r)
    assert (s.p, s.q, s.n, s.r) == (t.p, t.q, t.n, t.r)


@given(
    small_ints, small_ints, small_ints, small_ints,
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9),
)
def test_trichotomy_and_float_agreement(p1, q1, p2, q2, n, r1, r2):
    a = QuadraticSurd(p1, q1, n, r1)
    b = QuadraticSurd(p2, q2, n, r2)
    if a.n and b.n and a.n != b.n:
        return  # normalization may split radicand classes; out of contract
    outcomes = [a < b, a == b, b < a]
    assert sum(outcomes) == 1
    gap = float(a) - float(b)
    if abs(gap) > 1e-9:
        assert (a < b) == (gap < 0)
        assert (a > b) == (gap > 0)


@given(small_ints, small_ints, st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=9))
def test_sign_matches_float(p, q, n, r):
    s = QuadraticSurd(p, q, n, r)
    value = float(s)
    if abs(value) > 1e-9:
        assert s.sign() == (1 if value > 0 else -1)


@given(small_ints, small_ints, st.integers(min_value=0, max_value=60), st.integers(min_value=1, max_value=12))
def test_floor_ceil_bracket_exactly(p, q, n, r):
    s = QuadraticSurd(p, q, n, r)
    lo = math.floor(s)
    hi = math.ceil(s)
    assert Fraction(lo) <= s < Fraction(lo + 1)
    assert Fraction(hi - 1) < s <= Fraction(hi)
    is_integer = s.is_rational and s.as_fraction().denominator == 1
    assert (lo == hi) == is_integer


def test_square_free_matches_reference_small():
    bad = [n for n in range(1, 10**5 + 1) if _square_free(n) != _square_free_reference(n)]
    assert bad == []


def test_square_free_matches_reference_40_bit():
    rng = random.Random(40)
    for _ in range(5):
        n = rng.getrandbits(40) | 1 << 39
        assert _square_free(n) == _square_free_reference(n), n


LARGE_PRIMES = (999983, 1000003, 10**9 + 7, 10**9 + 9)


def test_square_free_crafted():
    for q1 in LARGE_PRIMES:
        for s in (1, 6, 999983):
            assert _square_free(s * s * q1) == (s, q1)
            assert _square_free(s * s * q1 * q1) == (s * q1, 1)
        for f in (2, 30, 97):
            assert _square_free(f**3 * q1) == (f, f * q1)
    for q1, q2 in [(999983, 1000003), (10**9 + 7, 10**9 + 9)]:
        for s in (1, 12):
            assert _square_free(s * s * q1 * q2) == (s, q1 * q2)
    assert _square_free((10**9 + 7) ** 2) == (10**9 + 7, 1)
    # a perfect-square cofactor ends the search long before the cube root
    big = 10**12 + 39
    assert _square_free(big**2) == (big, 1)
    assert _square_free(12 * big**2) == (2 * big, 3)
    assert _square_free(0) == (0, 1)
    assert _square_free(1) == (1, 1)


def _parts(x):
    return (x.p, x.q, x.n, x.r)


surd_ints = st.integers(min_value=-10**6, max_value=10**6)
surd_dens = st.integers(min_value=1, max_value=10**4)
rationals = st.fractions(min_value=-100, max_value=100, max_denominator=1000)


@given(
    surd_ints, surd_ints, surd_dens, surd_ints, surd_ints, surd_dens,
    st.sampled_from([0, 2, 3, 5, 12, 18, 45, 72, 999983 * 4]), rationals,
)
def test_arithmetic_matches_public_constructor(p1, q1, r1, p2, q2, r2, n, c):
    a = QuadraticSurd(p1, q1, n, r1)
    b = QuadraticSurd(p2, q2, n, r2)
    m = a.n or b.n
    # the same formulas fed to the public constructor, which re-factors m
    expected = {
        "neg": QuadraticSurd(-a.p, -a.q, a.n, a.r),
        "add": QuadraticSurd(a.p * b.r + b.p * a.r, a.q * b.r + b.q * a.r, m, a.r * b.r),
        "mul": QuadraticSurd(a.p * b.p + a.q * b.q * m, a.p * b.q + a.q * b.p, m, a.r * b.r),
    }
    results = {"neg": -a, "add": a + b, "mul": a * b, "sub": a - b, "radd": c + a,
               "rsub": c - a, "rmul": c * a}
    if c != 0:
        expected["div"] = QuadraticSurd(
            a.p * c.denominator, a.q * c.denominator, a.n, a.r * c.numerator
        )
        results["div"] = a / c
    for name, value in expected.items():
        assert _parts(results[name]) == _parts(value), name
    for name, value in results.items():
        rebuilt = QuadraticSurd(value.p, value.q, value.n, value.r)
        assert _parts(value) == _parts(rebuilt), name


@given(st.integers(min_value=0, max_value=10**7), st.integers(min_value=1, max_value=10**7))
def test_sqrt_rational_matches_public_constructor(num, den):
    fr = Fraction(num, den)
    value = QuadraticSurd.sqrt_rational(fr)
    expected = QuadraticSurd(0, 1, fr.numerator * fr.denominator, fr.denominator)
    assert _parts(value) == _parts(expected)


def test_epsilon_large_delta_denominator(capsys):
    start = time.perf_counter()
    code = run(["epsilon", "--m", "3", "--alpha", "1", "--delta", "1/1000000007"])
    assert time.perf_counter() - start < 10
    assert code == 0
    assert json.loads(capsys.readouterr().out)["exact"]["n"] == 250000003000000010


def test_epsilon_square_delta_denominator(capsys):
    # the radicand's denominator is Q**2 with Q = 10**12 + 39 prime
    start = time.perf_counter()
    code = run(["epsilon", "--m", "3", "--alpha", "1", "--delta", "1/1000000000039"])
    assert time.perf_counter() - start < 10
    assert code == 0
    assert json.loads(capsys.readouterr().out)["exact"] == {
        "p": 500000000020,
        "q": -1,
        "n": 250000000019000000000362,
        "r": 1,
    }


def test_c_d_exact_large_dimension_vector():
    ctx = KroneckerContext(3, (10**6, 10**6))
    # components recorded with the square-root trial division
    expected = {
        1: (1000003, -1, 999998000005, 2),
        3: (1000009, -1, 999994000045, 2),
        499999: (2499997, -1, 1249997000005, 2),
        999999: (3999997, -1, 3999992000005, 2),
    }
    for x, parts in expected.items():
        assert _parts(c_d_exact(ctx, x)) == parts


def _split_pairs(values, dtype, limit=None):
    # primes up to the cube root of the values' maximum, or up to limit
    primes = _primes(_icbrt(max(values)) if limit is None else limit)
    s, k = _square_free_split(np.array(values, dtype=dtype), primes)
    return list(zip(s.tolist(), k.tolist()))


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=40))
def test_square_free_split_matches_scalar(values):
    assert _split_pairs(values, np.int64) == [_square_free(n) for n in values]


def test_square_free_split_crafted():
    rng = random.Random(62)
    seeded = [rng.getrandbits(rng.randint(1, 48)) for _ in range(1000)]
    seeded += [rng.getrandbits(61) for _ in range(20)]
    crafted = [0, 1, 2, 4, 8, 9, 12, 2**61, 3**38, 10**18]
    for q1 in LARGE_PRIMES:
        for s in (1, 6, 999983):
            crafted += [s * s * q1, s * s * q1 * q1]
    for s in (2, 97, 10**6 + 3, 2**30 - 35):
        crafted += [s * s, s * s * 7, s * s * 10007]
    values = seeded + [n for n in crafted if n < 2**62]
    assert _split_pairs(values, np.int64) == [_square_free(n) for n in values]
    # primes just below and above the cube-root cut of the array's maximum
    top = 10**12
    assert _icbrt(top) == 10**4 and _icbrt(top - 1) == 10**4 - 1
    values = [top, 9973**2 * 7, 9973**3, 9973 * 10007, 10007**2, 10007**2 * 3,
              10007 * 10009, 10009**2 * 9973, 99991 * 10007, 999983 * 10007]
    assert max(values) == top
    assert _split_pairs(values, np.int64) == [_square_free(n) for n in values]
    # primes sieved for a larger bound, as a curve shares them among its chunks
    assert _split_pairs(values, np.int64, 10**6) == [_square_free(n) for n in values]
    assert _split_pairs([0, 1], np.int64, 0) == [(0, 1), (1, 1)]


def test_square_free_split_at_and_above_2_62():
    # Python ints in an object array: the same passes, past int64
    values = [2**62, 2**62 + 1, 2**62 + 27, 3 * (2**30 + 3) ** 2, (10**6 + 3) ** 3,
              (2**31 - 1) * (2**31 + 11), 7 * (2**30 + 3) ** 2, 0, 1, 2**62 - 1]
    assert max(values) < 2**63
    assert _split_pairs(values, object) == [_square_free(n) for n in values]


surd_parts = st.tuples(
    st.integers(min_value=-10**15, max_value=10**15),
    st.integers(min_value=-10**6, max_value=10**6).filter(bool),
    st.integers(min_value=2, max_value=10**12),
    st.integers(min_value=1, max_value=10**9),
)


def _spy_normal(monkeypatch):
    # the parts of every surd built by QuadraticSurd._normal from now on
    built = []
    normal = QuadraticSurd._normal.__func__
    monkeypatch.setattr(QuadraticSurd, "_normal",
                        classmethod(lambda cls, *parts: built.append(parts) or normal(cls, *parts)))
    return built


def _texts_decimals(surds, dtype):
    # _surd_texts's decimal(12) of surds of one denominator, from dtype arrays
    columns = [[getattr(s, name) for s in surds] for name in "pqn"]
    p, q, n = (np.array(column, dtype=dtype) for column in columns)
    return _surd_texts(p, q, n, surds[0].r)[1]


def _in_guard_band(text):
    # figures 13-16 of a 16-figure decimal lie within _GUARD of 5000
    return abs(int("".join(map(str, Decimal(text).as_tuple().digits[12:16]))) - 5000) < _GUARD


@settings(max_examples=1000)
@given(surd_parts, st.sampled_from([1, 6, 12, 13]))
def test_decimal_matches_decimal_oracle(parts, digits):
    surd = QuadraticSurd(*parts)
    assert surd.decimal(digits) == _decimal_reference(surd, digits)
    for dtype in (np.int64, object):
        assert _texts_decimals([surd], dtype) == [_decimal_reference(surd)], dtype


def test_decimal_refuses_digits_that_are_not_a_positive_int():
    surd = QuadraticSurd(3, -1, 5, 2)
    for digits in (11.9, 1.5, True, Fraction(12)):
        with pytest.raises(TypeError):
            surd.decimal(digits)
    for digits in (0, -3):
        with pytest.raises(ValueError):
            surd.decimal(digits)
    assert surd.decimal(1) == "0.4" and surd.decimal(5) == "0.38197"


def test_decimal_float_path_edge_values(monkeypatch):
    cases = [
        QuadraticSurd(3, -1, 5, 2),  # 0.381966011250: a kept trailing zero
        QuadraticSurd(-3, 1, 5, 2),  # negative
        QuadraticSurd(0, -7, 2, 3),
        QuadraticSurd(7, 0, 0, 8),  # rational: always Decimal's
        QuadraticSurd(10**15, 0, 0, 3),
        QuadraticSurd(1, 1, 2, 10**7),  # tiny: 2.41421356237E-7
        QuadraticSurd(1, 1, 2, 10**6),  # 0.00000241421356237
        QuadraticSurd(10**14, 1, 2, 1),  # huge: 1.00000000000E+14
        QuadraticSurd(10**11, 1, 2, 1),  # 100000000001
        QuadraticSurd(10**12, -1, 2, 1),  # 999999999999: rounds to 10**12
        QuadraticSurd(10**12, 1, 2, 1),
    ]
    for k, sign, den in product(range(-8, 14), (1, -1), (10**15, 10**30)):
        # 10**k +- sqrt(2) / den: int64 rows below 2**63, else Python ints
        cases.append(QuadraticSurd._normal(10**k * den if k >= 0 else den // 10**-k,
                                           sign, 2, den))
    # guard digits next to the midpoint: 1.234567890125 + sqrt(2) / 10**20
    cases.append(QuadraticSurd._normal(1234567890125 * 10**8, 1, 2, 10**20))
    cases.append(QuadraticSurd._normal(1234567890125 * 10**8, -1, 2, 10**20))
    # p and q sqrt(n) cancel in more than 20 digits
    cases.append(QuadraticSurd._normal(10**21 + 7, -1, 10**42 + 3, 1))
    # the same two kinds as int64 rows with r < 2**52: figures 13-20 of
    # sqrt(5831) = 7 sqrt(119) read 50000880 and of sqrt(6184) 49999878;
    # x - y sqrt(2) = 1 / (x + y sqrt(2)) for x*x - 2*y*y = 1, x > 7.1 * 10**9
    midpoints = [QuadraticSurd(0, sign, n) for n, sign in product((5831, 6184), (1, -1))]
    midpoints += [QuadraticSurd._normal(1234567890125 * 10**2, sign, 2, 10**14) for sign in (1, -1)]
    cancelling = [QuadraticSurd._normal(26102926097, -18457556052, 2, r) for r in (1, 10**6)]
    cases += midpoints + cancelling
    built = _spy_normal(monkeypatch)
    by_r = {}
    for surd in cases:
        by_r.setdefault(surd.r, []).append(surd)
    for r, surds in by_r.items():
        small = [s for s in surds if max(abs(s.p), abs(s.q), s.n) < 2**63]
        for dtype, rows in [(np.int64, small), (object, surds)]:
            if rows:
                expected = [_decimal_reference(s) for s in rows]
                assert _texts_decimals(rows, dtype) == expected, (r, dtype)
    assert QuadraticSurd(1, 1, 2, 10**7).decimal(12) == "2.41421356237E-7"
    assert QuadraticSurd(10**12, -1, 2, 1).decimal(12) == "999999999999"
    assert [_texts_decimals([s], np.int64) for s in midpoints[:4]] == [
        ["76.3609848025"], ["-76.3609848025"], ["78.6384130053"], ["-78.6384130053"]]
    # the arrays answer a plain value and refuse the midpoint and cancellation
    for surd, refused in [(QuadraticSurd(5, -1, 5, 2), False), (QuadraticSurd(3, -1, 5, 2), False),
                          *((s, True) for s in midpoints + cancelling)]:
        built.clear()
        assert _texts_decimals([surd], np.int64) == [_decimal_reference(surd)]
        assert built == ([(surd.p, surd.q, surd.n, surd.r)] if refused else []), surd
    assert all(_in_guard_band(_decimal_reference(s, 16)) for s in midpoints[:4])


def _texts_grid(r):
    # (p, q, n) rows fixed before the run, for one denominator r
    rows = []
    for k, sign in product(range(-7, 13), (1, -1)):  # 10**k +- sqrt(2)/r, rounded to ints
        p = 10**k * r if k >= 0 else r // 10**-k
        rows += [(p + j, sign * q, 2) for j in (-1, 0, 1) for q in (1, 7)]
    # 10**k + sqrt(a*a + 1) - a, within 10**-9 of 10**k for a = 60000001 and k >= 1
    for a, k in product((60000001, 10000000, 999), (0, 1, 2)):
        rows += [((10**k - a) * r, r, a * a + 1), ((-(10**k) - a) * r, r, a * a + 1)]
    rows += [(p, q, n) for p, q, n in product(range(-40, 41, 7), (-3, -1, 1, 5), (2, 3, 5, 999983))]
    rows += [(0, 1, 2), (0, -2, 3), (5, 0, 0), (7, 3, 1), (6, 0, 0)]  # p = 0 and rationals
    rows += [(3 * x + 1000, -1, n) for x, n in product(range(2000), (5, 17))]  # guard bands
    rows += [(2**40, -1, 2), (1, 2**30, 3), (2**27, -1, 2**53 - 111)]  # ints past 2**52
    return [(p, q, n) for p, q, n in rows if n < 2 or _square_free(n)[0] == 1]


@pytest.mark.parametrize("r", [1, 2, 3, 10, 10**6, 2**51 + 1])
def test_surd_texts_match_str_and_decimal(monkeypatch, r):
    rows = _texts_grid(r)
    surds = [QuadraticSurd._normal(p, q, n, r) for p, q, n in rows]
    expected = ([str(s) for s in surds], [_decimal_reference(s) for s in surds])
    built = _spy_normal(monkeypatch)
    columns = list(zip(*rows))
    dtypes = [object] if max(map(abs, columns[0])) >= 2**63 else [np.int64, object]
    for dtype in dtypes:
        built.clear()
        p, q, n = (np.array(column, dtype=dtype) for column in columns)
        assert _surd_texts(p, q, n, r) == expected, (r, dtype)
        # object rows are rendered from their surds, int64 rows mostly by the arrays
        assert len(built) == len(rows) if dtype is object else len(built) < len(rows) / 10
    # the grid reaches the guard band, and values within 10**-9 of a power of 10
    assert any(s.q and _in_guard_band(_decimal_reference(s, 16)) for s in surds)
    assert any(s.q and 0 < abs(float(s) / 10 - 1) < 1e-9 for s in surds)
