"""Unit tests for the K(m) closed-form boundary theory."""

import math
from fractions import Fraction
from itertools import product

import pytest

from quivex import (
    ClosedFormInapplicableError,
    KroneckerContext,
    QuadraticSurd,
    beta,
    c_d_ceil,
    c_d_exact,
    embeds,
    embeds_closed_form,
    euler_form,
    make_kronecker,
)


def _contexts(ms, dmax, require_nonpositive=True):
    for m in ms:
        for d1, d2 in product(range(dmax + 1), repeat=2):
            if (d1, d2) == (0, 0):
                continue
            if require_nonpositive and d1 * d1 + d2 * d2 - m * d1 * d2 > 0:
                continue
            yield KroneckerContext(m, (d1, d2))


def test_beta_values():
    assert beta(2) == 1
    assert beta(3) == QuadraticSurd(3, 1, 5, 2)
    assert beta(4) == QuadraticSurd(2, 1, 3, 1)
    with pytest.raises(ValueError):
        beta(1)


def test_beta_satisfies_its_quadratic():
    for m in range(2, 13):
        b = beta(m)
        assert b * b - m * b + 1 == 0


def test_context_validation():
    with pytest.raises(ValueError):
        KroneckerContext(1, (2, 2))
    with pytest.raises(ValueError):
        KroneckerContext(3, (0, 0))
    with pytest.raises(ValueError):
        KroneckerContext(3, (1, 2, 3))


def test_c_d_exact_examples():
    ctx = KroneckerContext(3, (2, 2))
    assert c_d_exact(ctx, 1) == QuadraticSurd(5, -1, 5, 2)
    assert abs(float(c_d_exact(ctx, 1)) - 1.381966) < 1e-6
    assert c_d_exact(ctx, 0) == 0
    assert c_d_exact(ctx, 2) == 2
    with pytest.raises(ValueError):
        c_d_exact(ctx, 3)
    with pytest.raises(ValueError):
        c_d_exact(ctx, -1)


def test_c_d_ceil_examples():
    assert c_d_ceil(KroneckerContext(3, (2, 2)), 1) == 2
    assert c_d_ceil(KroneckerContext(3, (10, 10)), 5) == 7
    assert c_d_ceil(KroneckerContext(3, (10, 10)), 0) == 0


def test_c_d_ceil_requires_nonpositive_form():
    ctx = KroneckerContext(3, (5, 1))
    with pytest.raises(ClosedFormInapplicableError):
        c_d_ceil(ctx, 1)


def _c_d_ceil_by_scan(ctx, x):
    """Reference: the first y in [0, d2] where the quadratic is non-negative
    or y has passed the apex, decided by the integer sign predicate."""
    d1, d2 = ctx.d
    form = make_kronecker(ctx.m).form_evaluator
    for y in range(d2 + 1):
        if form((x, y), (d1 - x, d2 - y)) >= 0 or 2 * y >= ctx.m * x + d2:
            return y
    raise AssertionError("unreachable: y = d2 always satisfies the predicate")


def test_c_d_ceil_matches_scan():
    for ctx in _contexts((2, 3, 4, 5), 24):
        for x in range(ctx.d[0] + 1):
            assert c_d_ceil(ctx, x) == _c_d_ceil_by_scan(ctx, x), (ctx, x)


def test_c_d_ceil_large_entries():
    # minimal admissible at the documented entry bound, where a scan is too slow
    ctx = KroneckerContext(3, (10**6, 10**6))
    for x in (1, 3, 499_999, 10**6 - 1):
        y = c_d_ceil(ctx, x)
        assert embeds_closed_form(ctx, (x, y)), x
        assert not embeds_closed_form(ctx, (x, y - 1)), x


def test_c_d_ceil_equals_ceiling_of_exact_value():
    for ctx in _contexts((2, 3, 4, 5), 10):
        for x in range(ctx.d[0] + 1):
            assert c_d_ceil(ctx, x) == math.ceil(c_d_exact(ctx, x)), (ctx, x)


def test_c_d_ceil_is_minimal_admissible_second_coordinate():
    for ctx in _contexts((2, 3, 4), 8):
        for x in range(ctx.d[0] + 1):
            y_min = c_d_ceil(ctx, x)
            assert embeds_closed_form(ctx, (x, y_min))
            if y_min > 0:
                assert not embeds_closed_form(ctx, (x, y_min - 1))


def test_embeds_closed_form_examples():
    ctx = KroneckerContext(3, (2, 2))
    assert embeds_closed_form(ctx, (1, 2))
    assert not embeds_closed_form(ctx, (1, 1))
    assert embeds_closed_form(ctx, (0, 0))
    assert not embeds_closed_form(ctx, (3, 1))  # outside the partial order


def test_embeds_closed_form_refuses_positive_form():
    with pytest.raises(ClosedFormInapplicableError):
        embeds_closed_form(KroneckerContext(2, (3, 1)), (1, 1))


def test_estimate_bounds_exact():
    # (d2 / d1) * x <= c_d(x) <= min(m x, d2), all comparisons exact
    for ctx in _contexts((2, 3, 4, 5), 12):
        d1, d2 = ctx.d
        for x in range(d1 + 1):
            value = c_d_exact(ctx, x)
            assert Fraction(d2 * x, d1) <= value, (ctx, x)
            assert value <= min(ctx.m * x, d2), (ctx, x)


def test_sign_pattern_on_integer_grid():
    # the quadratic is non-negative exactly between its two zeroes
    for ctx in _contexts((2, 3), 6):
        d1, d2 = ctx.d
        for x in range(d1 + 1):
            lower = c_d_exact(ctx, x)
            upper = (ctx.m * x + d2) - lower
            for y in range(d2 + 1):
                inside = lower <= Fraction(y) <= upper
                form = euler_form(make_kronecker(ctx.m), (x, y), (d1 - x, d2 - y))
                assert (form >= 0) == inside, (ctx, x, y)


def test_concavity_float_tolerance():
    for ctx in _contexts((3, 4, 5), 12):
        if ctx.euler_dd >= 0:
            continue
        d1 = ctx.d[0]
        values = [float(c_d_exact(ctx, x)) for x in range(d1 + 1)]
        for x in range(1, d1):
            assert values[x - 1] + values[x + 1] <= 2 * values[x] + 1e-9, (ctx, x)


def test_closed_form_matches_recursion_small_grid():
    for ctx in _contexts((2, 3), 6):
        d = ctx.d
        for e1, e2 in product(range(d[0] + 1), range(d[1] + 1)):
            assert embeds_closed_form(ctx, (e1, e2)) == embeds(
                make_kronecker(ctx.m), (e1, e2), d
            ), (ctx, (e1, e2))
