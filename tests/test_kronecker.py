"""Unit tests for the K(m) closed-form boundary theory."""

import math
import random
from decimal import Decimal
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from quivex.surd import _GUARD


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
    with pytest.raises(ValueError, match="length 2"):
        embeds_closed_form(KroneckerContext(3, (5, 5)), (1, 2, 3))


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


def _parts(surd):
    return (surd.p, surd.q, surd.n, surd.r)


def test_boundary_rows_match_the_scalar_helpers():
    # int64 rows, and Python-int rows where D passes 2**62 (m = 10**6)
    from quivex.kronecker import _boundary, _boundary_rows

    contexts = list(_contexts((2, 3, 4, 5, 6), 12))
    contexts += [KroneckerContext(3, (10**6, 10**6)), KroneckerContext(10**6, (10**6, 10**6)),
                 KroneckerContext(10**6, (3000, 2)), KroneckerContext(2, (10**6, 10**6))]
    for ctx in contexts:
        d1 = ctx.d[0]
        for start, stop in {(0, d1 + 1), (d1 // 2, d1 + 1), (max(0, d1 - 2100), d1 + 1)}:
            if stop - start > 5000:
                continue
            rows = [a.tolist() for a in _boundary_rows(ctx, np.arange(start, stop))]
            for x, b, dd, r, c in zip(range(start, stop), *rows):
                assert (b, dd) == _boundary(ctx, x), (ctx, x)
                assert (r, c) == (math.isqrt(dd), c_d_ceil(ctx, x)), (ctx, x)


def test_curve_rows_match_c_d_exact_and_c_d_ceil():
    from quivex.kronecker import _ROW_CHUNK, _curve_rows

    contexts = list(_contexts((2, 3, 4, 5), 16))
    # rows across chunk boundaries, with radicands up to 3.6 * 10**11
    contexts += [KroneckerContext(3, (2 * _ROW_CHUNK + 5, 3 * _ROW_CHUNK)),
                 KroneckerContext(4, (300, 200)), KroneckerContext(1000, (150, 1))]
    for ctx in contexts:
        rows = list(_curve_rows(ctx))
        values = [c_d_exact(ctx, x) for x in range(ctx.d[0] + 1)]
        expected = [(x, str(v), v.decimal(12), c_d_ceil(ctx, x)) for x, v in enumerate(values)]
        assert rows == expected, ctx


# curves fixed before the run: rational rows at x = 0, x = d1 and where D is
# a square between them, rows in the array renderer's guard band (figures
# 13-16 within _GUARD of 5000), values next to 1, 10 and 100, blocks of
# _TEXT_ROWS and chunks of _ROW_CHUNK, m up to 100
RENDER_GRID = [(3, (1000, 1000)), (3, (4100, 5000)), (4, (600, 300)), (4, (6, 3)),
               (5, (200, 900)), (7, (150, 40)), (10, (300, 1000)), (30, (90, 2000)),
               (100, (3000, 40)), (100, (40, 3000)), (2, (500, 500)), (6, (100, 500))]


def test_curve_rows_render_as_their_surds_do():
    from quivex.kronecker import _curve_rows

    rational = guarded = 0
    near = set()
    for m, d in RENDER_GRID:
        ctx = KroneckerContext(m, d)
        for (x, text, approx, c), expected in zip(_curve_rows(ctx), range(d[0] + 1)):
            v = c_d_exact(ctx, x)
            assert x == expected
            assert (text, approx, c) == (str(v), v.decimal(12), c_d_ceil(ctx, x)), (m, d, x)
            rational += v.is_rational and 0 < x < d[0]
            guard = Decimal(v.decimal(16)).as_tuple().digits[12:16]
            guarded += not v.is_rational and abs(int("".join(map(str, guard))) - 5000) < _GUARD
            near.update(k for k in (1, 10, 100) if abs(float(v) / k - 1) < 1e-2)
        assert x == d[0]
    assert rational and guarded and near == {1, 10, 100}


# -- the one K(m) rule: _ext_vanishes and the column floors it gives ---------


def _walk_rows(m, dmax):
    # one walk of box(dmax) holds Sub(v) for every v <= dmax, row by row
    from quivex.schofield import _walk

    box, member = _walk(make_kronecker(m), dmax)
    vectors = [tuple(v) for v in box.tolist()]
    return vectors, {v: member[k] for k, v in enumerate(vectors)}


def test_ext_rule_matches_the_walk_on_every_small_pair():
    # embeds on K(m) is the rule alone; the walk is its oracle on all 41,405
    # pairs e <= d <= (12, 12) of K(1)..K(5)
    pairs = 0
    for m in range(1, 6):
        K = make_kronecker(m)
        vectors, rows = _walk_rows(m, (12, 12))
        for d in vectors:
            for k, e in enumerate(vectors):
                if e[0] <= d[0] and e[1] <= d[1]:
                    pairs += 1
                    assert embeds(K, e, d) == rows[d][k], (m, e, d)
    assert pairs == 41405


@settings(max_examples=40)
@given(st.integers(1, 6), st.integers(0, 40), st.integers(0, 40))
def test_ext_rule_matches_the_walk_up_to_40(m, d1, d2):
    from quivex.kronecker import _column_floors
    from quivex.schofield import _walk

    K = make_kronecker(m)
    box, member = _walk(K, (d1, d2))
    for e, hit in zip(box.tolist(), member[-1].tolist()):
        assert embeds(K, e, (d1, d2)) == hit, (m, e, (d1, d2))
    floors = _column_floors(m, (d1, d2), np.arange(d1 + 1)).tolist()
    subs = {tuple(e) for e in box[member[-1]].tolist()}
    assert floors == [min(y for y in range(d2 + 1) if (x, y) in subs) for x in range(d1 + 1)]


def _ext_vanishes_stepwise(m, a, b):
    # the rule with one reflection per pass, as stated: no run is jumped
    (a1, a2), (b1, b2) = a, b
    while True:
        b1, a2 = min(b1, m * b2), min(a2, m * a1)
        if a1 > m * a2:
            if m * b2 > b1:
                return False
            a1 = m * a2
        if b2 > m * b1:
            if m * a1 > a2:
                return False
            b2 = m * b1
        if not (a1 or a2) or not (b1 or b2):
            return True
        s1, s2 = a1 + b1, a2 + b2
        if s1 * s1 + s2 * s2 <= m * s1 * s2:
            return a1 * b1 + a2 * b2 - m * a1 * b2 >= 0
        if m * s2 < 2 * s1:
            a1, a2, b1, b2 = a2, m * a2 - a1, b2, m * b2 - b1
        else:
            a1, a2, b1, b2 = m * a1 - a2, a1, m * b1 - b2, b1


def test_k2_jump_matches_single_reflections():
    # K(2) jumps each run of reflections to its first split; stepping one
    # reflection at a time must give the same answer, near the diagonal too
    from quivex.kronecker import _ext_vanishes

    rng = random.Random(0)
    for _ in range(3000):
        if rng.random() < 0.5:  # near the diagonal, where runs are longest
            a, b = [(x, max(0, x + rng.randint(-3, 3))) for x in rng.sample(range(401), 2)]
        else:
            a, b = [(rng.randint(0, 400), rng.randint(0, 400)) for _ in range(2)]
        assert _ext_vanishes(2, a, b) == _ext_vanishes_stepwise(2, a, b), (a, b)
    for m in (1, 3, 4):
        for _ in range(300):
            a, b = [(rng.randint(0, 400), rng.randint(0, 400)) for _ in range(2)]
            assert _ext_vanishes(m, a, b) == _ext_vanishes_stepwise(m, a, b), (m, a, b)


def test_column_floors_never_fall_and_carry_across_chunks():
    # Sub(d) is closed under lowering e1, so the least e2 per column never
    # falls as e1 grows (checked on the walk for every d <= (24, 24)); the
    # floor sweep may thus start each chunk at the last chunk's floor
    from quivex.kronecker import _column_floors

    for m in range(1, 6):
        vectors, rows = _walk_rows(m, (24, 24))
        for d in vectors:
            subs = {e for e, hit in zip(vectors, rows[d].tolist()) if hit}
            floors = [min(y for y in range(d[1] + 1) if (x, y) in subs) for x in range(d[0] + 1)]
            assert floors == sorted(floors), (m, d)
            x = np.arange(d[0] + 1)
            head = _column_floors(m, d, x[:5])
            tail = _column_floors(m, d, x[5:], int(head[-1])) if d[0] >= 5 else head[:0]
            assert head.tolist() + tail.tolist() == floors, (m, d)
