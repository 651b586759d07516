"""Unit tests for expansion coefficients and expander existence decisions."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quivex import (
    BudgetExceededError,
    ExpanderDecision,
    ExpanderParams,
    KroneckerContext,
    QuadraticSurd,
    Quiver,
    QuiverError,
    beta,
    SlopeParams,
    StabilityFunction,
    SubdimCache,
    epsilon_k,
    generic_subdims,
    epsilon_m_alpha_delta,
    expander_exists,
    expander_exists_uniform,
    make_kronecker,
    theta_epsilon_supremum,
    theta_expander_exists,
)

HALF = Fraction(1, 2)


def test_epsilon_k_values():
    assert epsilon_k(2) == QuadraticSurd(3, -1, 5, 2)
    assert epsilon_k(3) == QuadraticSurd(2, -1, 2, 1)
    assert epsilon_k(10) == QuadraticSurd(11, -1, 85, 2)
    assert abs(float(epsilon_k(2)) - 0.381966) < 1e-6
    assert abs(float(epsilon_k(3)) - 0.585786) < 1e-6
    with pytest.raises(ValueError):
        epsilon_k(1)


def test_epsilon_k_lies_in_unit_interval():
    for k in range(2, 21):
        value = epsilon_k(k)
        assert Fraction(0) < value < Fraction(1)


def test_epsilon_m_alpha_delta_values():
    assert epsilon_m_alpha_delta(3, 1, HALF) == epsilon_k(2)
    assert epsilon_m_alpha_delta(4, 2, HALF) == HALF


def test_epsilon_m_alpha_delta_distinct_precondition_errors():
    with pytest.raises(ValueError, match="alpha"):
        epsilon_m_alpha_delta(2, 1, HALF)  # alpha^2 - m alpha + 1 = 0, not < 0
    with pytest.raises(ValueError, match="delta"):
        epsilon_m_alpha_delta(3, 1, Fraction(3, 2))
    # valid alpha never violates positivity on 0 < delta < 1, so only an
    # alpha that is itself out of range can reach this branch
    with pytest.raises(ValueError, match="positive"):
        epsilon_m_alpha_delta(3, Fraction(-7, 2), Fraction(1, 10))


def test_epsilon_specialization_identity():
    for k in range(2, 21):
        assert epsilon_m_alpha_delta(k + 1, 1, HALF) == epsilon_k(k)


def test_epsilon_positive_under_preconditions():
    for m in (3, 4, 5, 7):
        for alpha in (1, 2, Fraction(3, 2)):
            if alpha * alpha - m * alpha + 1 >= 0:
                continue
            for delta in (Fraction(1, 4), HALF, Fraction(3, 4)):
                if m * delta + alpha - 2 * alpha * delta <= 0:
                    continue
                assert epsilon_m_alpha_delta(m, alpha, delta) > 0


def test_expander_params_validation():
    with pytest.raises(ValueError):
        ExpanderParams(Fraction(0), Fraction(1, 10))
    with pytest.raises(ValueError):
        ExpanderParams(Fraction(1), Fraction(1, 10))
    with pytest.raises(ValueError):
        ExpanderParams(HALF, Fraction(0))
    params = ExpanderParams(HALF, Fraction(38, 100))
    assert params.epsilon == Fraction(19, 50)


def test_slope_params_validation():
    with pytest.raises(ValueError):
        SlopeParams(0, Fraction(1))
    assert SlopeParams(3, 1).alpha == Fraction(1)


def test_expander_exists_examples():
    assert expander_exists(3, (2, 2), ExpanderParams(HALF, Fraction(38, 100))).exists
    decision = expander_exists(3, (10, 10), ExpanderParams(HALF, HALF))
    assert decision == ExpanderDecision(False, (5, 7))
    assert expander_exists(3, (10, 10), ExpanderParams(HALF, Fraction(38, 100))).exists


def test_expander_exists_boundary_is_inclusive():
    # minimal pair at (10,10) is (5,7): 7 == (1 + 2/5) * 5 exactly, so
    # epsilon = 2/5 still admits an expander and anything above does not
    assert expander_exists(3, (10, 10), ExpanderParams(HALF, Fraction(2, 5))).exists
    assert not expander_exists(3, (10, 10), ExpanderParams(HALF, Fraction(41, 100))).exists


def test_expander_exists_recursive_fallback_consistency():
    # off the cone (<d, d> > 0) and on it, the column floors expander_exists
    # reads must agree with a linear scan of Sub(d) from the walk
    from quivex.kronecker import _column_floors
    from quivex.schofield import _walk

    m, d = 3, (12, 1)
    decision = expander_exists(m, d, ExpanderParams(HALF, Fraction(1, 100)))
    assert decision.exists in (True, False)
    for m in (1, 2, 3, 4):
        quiver = make_kronecker(m)
        for d in [(12, 1), (9, 2), (2, 9), (5, 5), (10, 7), (7, 10)]:
            box, member = _walk(quiver, d)
            subs = set(map(tuple, box[member[-1]].tolist()))
            floors = _column_floors(m, d, np.arange(d[0] + 1)).tolist()
            for e1 in range(d[0] + 1):
                scan = [e2 for e2 in range(d[1] + 1) if (e1, e2) in subs]
                assert floors[e1] == scan[0], (m, d, e1)


def test_dimension_cap_in_context_and_expander_exists():
    # entries above 10**6 are refused on and off the cone, and also where
    # floor(delta * d1) = 0 leaves no e1 to decide
    assert KroneckerContext(3, (10**6, 10**6)).d == (10**6, 10**6)
    with pytest.raises(ValueError, match="must not exceed 1000000"):
        KroneckerContext(3, (10**6 + 1, 10**6))
    params = ExpanderParams(HALF, Fraction(1, 10))
    for m, d in product((1, 3), [(2 * 10**6, 2 * 10**6), (10**6 + 1, 1), (1, 10**6 + 1)]):
        with pytest.raises(ValueError, match="must not exceed 1000000"):
            expander_exists(m, d, params)
    assert expander_exists(1, (1, 10**6), params).exists
    assert expander_exists(3, (1, 10**6), params).exists


def test_expander_exists_monotone_in_epsilon_and_delta():
    for n in (4, 6, 10):
        for eps_big, eps_small in [(HALF, Fraction(38, 100)), (Fraction(2, 5), Fraction(1, 5))]:
            if expander_exists(3, (n, n), ExpanderParams(HALF, eps_big)).exists:
                assert expander_exists(3, (n, n), ExpanderParams(HALF, eps_small)).exists
        for delta_big, delta_small in [(HALF, Fraction(1, 4))]:
            if expander_exists(3, (n, n), ExpanderParams(delta_big, Fraction(2, 5))).exists:
                assert expander_exists(3, (n, n), ExpanderParams(delta_small, Fraction(2, 5))).exists


def test_expander_exists_input_validation():
    with pytest.raises(ValueError):
        expander_exists(0, (2, 2), ExpanderParams(HALF, HALF))
    with pytest.raises(ValueError):
        expander_exists(3, (0, 2), ExpanderParams(HALF, HALF))


def test_uniform_and_theta_deciders_check_delta_and_epsilon():
    slope = SlopeParams(3, Fraction(1))
    for eps in (0, -1):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            expander_exists_uniform(slope, HALF, eps)
    K3, theta = make_kronecker(3), StabilityFunction((1, -1))
    for delta in (1, 0, -1):
        with pytest.raises(ValueError, match="delta must satisfy"):
            theta_epsilon_supremum(K3, theta, (2, 2), delta)


def test_levels_leave_out_only_levels_that_cannot_fail_first():
    # s_j is the largest integer below (1 + eps) * (d2 / d1) * j; a level is
    # listed iff s_j > s_{j-1}, with s_0 = -1, and expander_exists over the
    # listed levels agrees with a scan of every e1 <= delta * d1
    from quivex.expander import _levels
    from quivex.kronecker import _column_floors

    grid = product((Fraction(1, 3), HALF, Fraction(9, 10)), (Fraction(1, 10), Fraction(2)))
    for (delta, eps), d1, d2 in product(grid, range(1, 9), range(0, 9)):
        params = ExpanderParams(delta, eps)
        rhs = [(1 + eps) * Fraction(d2 * j, d1) for j in range(int(delta * d1) + 1)]
        bounds = [-1] + [math.ceil(r) - 1 for r in rhs[1:]]
        expected = [(j, bounds[j]) for j in range(1, len(bounds)) if bounds[j] > bounds[j - 1]]
        assert list(_levels(params, d1, d2)) == expected, (d1, d2, delta, eps)
        if d2 == 0:
            continue
        floors = _column_floors(3, (d1, d2), np.arange(d1 + 1)).tolist()
        first = next(
            ((e1, e2) for e1 in range(1, len(rhs)) if (e2 := floors[e1]) < rhs[e1]),
            None,
        )
        decision = expander_exists(3, (d1, d2), params)
        assert decision == ExpanderDecision(first is None, first), (d1, d2, delta, eps)


def test_expander_exists_uniform_examples():
    slope = SlopeParams(3, Fraction(1))
    assert expander_exists_uniform(slope, HALF, Fraction(38, 100))
    assert not expander_exists_uniform(slope, HALF, Fraction(2, 5))
    # rational threshold hit exactly: inclusive boundary
    assert expander_exists_uniform(SlopeParams(4, Fraction(2)), HALF, HALF)
    assert not expander_exists_uniform(SlopeParams(4, Fraction(2)), HALF, HALF + Fraction(1, 1000))


def test_uniform_true_implies_pointwise_true():
    eps = Fraction(38, 100)
    assert expander_exists_uniform(SlopeParams(3, Fraction(1)), HALF, eps)
    for n in range(1, 13):
        assert expander_exists(3, (n, n), ExpanderParams(HALF, eps)).exists


def test_pointwise_failure_above_threshold():
    # strictly above the uniform threshold a desk-scale witness exists
    assert not expander_exists_uniform(SlopeParams(3, Fraction(1)), HALF, HALF)
    failures = [
        n
        for n in range(1, 13)
        if not expander_exists(3, (n, n), ExpanderParams(HALF, HALF)).exists
    ]
    assert failures == [10]


def test_kronecker_reduction_tracks_coefficient_threshold():
    # operator-count reduction: K(k+1) on balanced vectors at delta = 1/2
    # stays positive for eps below the sharp coefficient, all the way up to
    # the integer frontier of the desk grid, and fails just above it
    for k, frontier in [(2, Fraction(2, 5)), (3, Fraction(3, 5))]:
        m = k + 1
        threshold = epsilon_k(k)
        assert threshold < frontier
        for n in range(1, 13):
            for eps in (Fraction(38, 100), frontier):
                assert expander_exists(m, (n, n), ExpanderParams(HALF, eps)).exists
        bumped = frontier + Fraction(1, 100)
        failing = [
            n
            for n in range(1, 13)
            if not expander_exists(m, (n, n), ExpanderParams(HALF, bumped)).exists
        ]
        assert failing == [10], (k, failing)


def test_stability_function():
    theta = StabilityFunction((1, -1))
    assert theta((2, 2)) == 0
    assert theta((0, 1)) == -1
    with pytest.raises(ValueError):
        theta((1, 2, 3))


def test_theta_expander_examples():
    K3 = make_kronecker(3)
    theta = StabilityFunction((1, -1))
    assert theta_expander_exists(K3, theta, (2, 2), ExpanderParams(HALF, Fraction(1))).exists
    decision = theta_expander_exists(K3, theta, (2, 2), ExpanderParams(HALF, Fraction(3, 2)))
    assert decision == ExpanderDecision(False, (0, 1))


def test_theta_expander_rejects_nonzero_theta_d():
    bipartite_theta = StabilityFunction((1, 0, -1))
    from quivex import parse_quiver

    quiver = parse_quiver("vertices 3\n1 -> 2\n1 -> 2\n3 -> 2\n3 -> 2\n")
    with pytest.raises(ValueError):
        theta_expander_exists(
            quiver, bipartite_theta, (3, 6, 5), ExpanderParams(HALF, Fraction(1))
        )
    K3, theta = make_kronecker(3), StabilityFunction((1, -1))
    with pytest.raises(ValueError, match="theta\\(d\\) = -1 != 0"):
        theta_expander_exists(K3, theta, (2, 3), ExpanderParams(HALF, Fraction(1)))
    with pytest.raises(ValueError, match="theta\\(d\\) = -1 != 0"):
        theta_epsilon_supremum(K3, theta, (2, 3), HALF)


def test_theta_epsilon_supremum_matches_decision():
    K3 = make_kronecker(3)
    theta = StabilityFunction((1, -1))
    cache = SubdimCache()
    for n in (1, 2, 3, 4):
        sup = theta_epsilon_supremum(K3, theta, (n, n), HALF, cache)
        assert sup is not None
        assert theta_expander_exists(K3, theta, (n, n), ExpanderParams(HALF, sup), cache).exists
        bumped = sup + Fraction(1, 1000)
        assert not theta_expander_exists(
            K3, theta, (n, n), ExpanderParams(HALF, bumped), cache
        ).exists


def test_theta_epsilon_supremum_frozen_values():
    K3 = make_kronecker(3)
    theta = StabilityFunction((1, -1))
    sups = [theta_epsilon_supremum(K3, theta, (n, n), HALF) for n in (1, 2, 3, 4)]
    assert sups == [Fraction(1), Fraction(1), Fraction(1, 3), Fraction(1, 3)]


def test_integer_arguments_refuse_bool_and_float():
    # int() would take 1.9 as 1 and True as 1, and answer for another input
    K3 = make_kronecker(3)
    for bad in (1.9, True, "1"):
        with pytest.raises(QuiverError, match="theta weight must be an integer"):
            StabilityFunction((bad, -1))
        with pytest.raises(QuiverError, match="m must be an integer"):
            SlopeParams(bad, HALF)
        with pytest.raises(QuiverError, match="m must be an integer"):
            epsilon_m_alpha_delta(bad, 1, HALF)
        with pytest.raises(QuiverError, match="k must be an integer"):
            epsilon_k(bad)
        with pytest.raises(QuiverError, match="m must be an integer"):
            beta(bad)
    with pytest.raises(QuiverError):
        theta_epsilon_supremum(K3, StabilityFunction((1.9, -1)), (2, 2), HALF)
    # numpy integers are integers, and come back as Python ints
    theta = StabilityFunction((np.int64(1), np.int32(-1)))
    assert theta.weights == (1, -1) and all(type(w) is int for w in theta.weights)
    assert theta_epsilon_supremum(K3, theta, (2, 2), HALF) == 1
    slope = SlopeParams(np.int64(3), 1)
    assert slope == SlopeParams(3, 1) and type(slope.m) is int
    assert epsilon_k(np.int64(2)) == epsilon_k(2)
    assert beta(np.int64(3)) == beta(3)
    assert epsilon_m_alpha_delta(np.int16(4), 2, HALF) == epsilon_m_alpha_delta(4, 2, HALF)
    with pytest.raises(ValueError, match="m must be a positive integer"):
        SlopeParams(np.int64(0), 1)


def _first_violation_by_levels(m, d, params):
    # expander_exists on the cone as one c_d_ceil per level of _levels: the oracle
    from quivex.expander import _levels
    from quivex.kronecker import c_d_ceil, cone_context

    ctx = cone_context(m, d)
    for e1, s in _levels(params, *d):
        if (e2 := c_d_ceil(ctx, e1)) <= s:
            return ExpanderDecision(False, (e1, e2))
    return ExpanderDecision(True, None)


@settings(max_examples=400)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=400),
    st.fractions(min_value=0, max_value=1, max_denominator=50).filter(lambda f: 0 < f < 1),
    st.fractions(min_value=0, max_value=3, max_denominator=50).filter(lambda f: f > 0),
)
def test_cone_levels_match_one_c_d_ceil_per_level(m, d1, d2, delta, eps):
    if d1 * d1 + d2 * d2 - m * d1 * d2 > 0:
        return
    params = ExpanderParams(delta, eps)
    decision = expander_exists(m, (d1, d2), params)
    assert decision == _first_violation_by_levels(m, (d1, d2), params)
    assert all(type(x) is int for x in decision.violating_e or ())


def test_cone_levels_match_at_large_sizes():
    # chunks of levels, Python-int boundaries at m = 10**6, Python-int
    # thresholds from an epsilon with 30-digit parts, and from a tiny
    # epsilon where rate * j stays below 2**62 but scale does not
    eps30 = Fraction(123456789012345678901234567891, 987654321098765432109876543211)
    cases = [
        (3, (10**6, 10**6), HALF, HALF),
        (10**6, (20_000, 20_000), HALF, Fraction(1, 10)),
        (10**6, (10**6, 3), Fraction(99, 100), eps30),
        (4, (70_001, 30_000), Fraction(2, 3), Fraction(1, 5)),
        (3, (50_000, 49_999), Fraction(99, 100), eps30),
        (10, (9, 1), Fraction(1, 9), Fraction(1, 2**60)),
    ]
    for m, d, delta, eps in cases:
        params = ExpanderParams(delta, eps)
        assert expander_exists(m, d, params) == _first_violation_by_levels(m, d, params), (m, d)


def test_expander_exists_builds_k_m_only_off_the_cone(monkeypatch):
    # no quiver with an arrow is built, on the cone or off it: the pair is
    # checked on an arrowless quiver, and the floors need no K(m)
    from quivex.kronecker import cone_context

    built = []
    real_init = Quiver.__post_init__
    monkeypatch.setattr(Quiver, "__post_init__", lambda q: built.append(q.arrows) or real_init(q))
    params = ExpanderParams(HALF, Fraction(1, 10))
    cone = [(3, (10, 10)), (2, (1, 1)), (10**6, (20_000, 3)), (4, (70, 30))]
    off = [(1, (5, 5)), (3, (12, 1)), (4, (9, 2)), (3, (2, 9)), (1, (1, 1)), (10**6, (10**6, 1))]
    for m, d in cone + off:
        assert (cone_context(m, d) is not None) == ((m, d) in cone)
        expander_exists(m, d, params)
    assert built and not any(built)


def test_cone_supremum_matches_the_listing():
    # the columns' ends against the minimum over the listed Sub(d), on the
    # cone and off it, with the same charge: one budget per vector, the box
    # size at d
    from quivex.expander import _kronecker_supremum
    from quivex.schofield import _kronecker_subdims

    for m, d1, d2 in product((1, 2, 3, 4, 5), range(0, 16), range(0, 16)):
        members = _kronecker_subdims(m, (d1, d2))
        for t1, t2 in [(1, -1), (2, -1), (1, -2), (-3, 1), (0, 1), (5, 5), (3, -2)]:
            for delta in (Fraction(1, 3), HALF, Fraction(2, 3), Fraction(99, 100)):
                bound = delta * (d1 + d2)
                ratios = [Fraction(-t1 * x - t2 * y, x + y) for x, y in members
                          if 0 < x + y <= bound]
                sup = _kronecker_supremum(m, (d1, d2), StabilityFunction((t1, t2)), delta)
                assert sup == min(ratios, default=None), (m, (d1, d2), (t1, t2), delta)
    for m, d in [(3, (4000, 4000)), (3, (10**6, 10))]:
        with pytest.raises(BudgetExceededError) as listing:
            _kronecker_subdims(m, d)
        with pytest.raises(BudgetExceededError) as ends:
            _kronecker_supremum(m, d, StabilityFunction((1, -1)), HALF)
        assert str(ends.value) == str(listing.value)


def test_cone_suprema_skip_the_listing_unless_cached():
    # a K(m) vector is answered from its columns' ends, held in the cache or not,
    # and is never listed into the cache
    K3, theta = make_kronecker(3), StabilityFunction((1, -1))
    cache = SubdimCache()
    expected = theta_epsilon_supremum(K3, theta, (40, 40), HALF)
    assert theta_epsilon_supremum(K3, theta, (40, 40), HALF, cache) == expected
    assert (K3, (40, 40)) not in cache
    generic_subdims(K3, (40, 40), cache)
    assert theta_epsilon_supremum(K3, theta, (40, 40), HALF, cache) == expected


def test_epsilon_and_arrow_counts_are_capped():
    # k, and m of the slope coefficients, at most 10**6, refused at once
    with pytest.raises(ValueError, match="k must not exceed 1000000"):
        epsilon_k(10**20)
    assert epsilon_k(10**6) == QuadraticSurd(10**6 + 1, -1, 10**12 - 2 * 10**6 + 5, 2)
    with pytest.raises(ValueError, match="m must not exceed 1000000"):
        epsilon_m_alpha_delta(10**20, 1, HALF)
    with pytest.raises(ValueError, match="m must not exceed 1000000"):
        SlopeParams(10**6 + 1, 1)
