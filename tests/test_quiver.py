"""Unit tests for quivers, the Euler form, and the quiver file format."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quivex import (
    CycleError,
    ExpanderParams,
    KroneckerContext,
    Quiver,
    QuiverError,
    QuiverParseError,
    Subspace,
    dominates,
    embeds,
    embeds_closed_form,
    enumerate_subspaces,
    euler_form,
    expander_exists,
    gaussian_binomial,
    has_subrep_of_dim,
    in_fundamental_domain,
    make_kronecker,
    parse_quiver,
    random_rep,
    symmetrized_form,
    unit_vector,
)

BIPARTITE_TEXT = "vertices 3\n1 -> 2\n1 -> 2\n3 -> 2\n3 -> 2\n"


@pytest.fixture
def bipartite():
    return parse_quiver(BIPARTITE_TEXT)


def test_make_kronecker():
    assert make_kronecker(3).arrows == ((1, 2), (1, 2), (1, 2))
    assert make_kronecker(1).arrows == ((1, 2),)
    assert make_kronecker(2) == Quiver(2, ((1, 2), (1, 2)))
    with pytest.raises(QuiverError):
        make_kronecker(0)


def test_kronecker_m_recognizes_exactly_k_m(bipartite):
    for m in range(1, 5):
        assert make_kronecker(m).kronecker_m == m
    assert Quiver(2, ((2, 1), (2, 1))).kronecker_m == 0  # K(2) reversed
    assert Quiver(2, ()).kronecker_m == 0
    assert bipartite.kronecker_m == 0


def test_one_sink_names_the_vertex_every_arrow_ends_at(bipartite):
    # the opposite keeps the vertex numbers and reverses every arrow, so it
    # is one-sink exactly when every arrow starts at one vertex
    assert make_kronecker(3).opposite == Quiver(2, ((2, 1),) * 3)
    assert Quiver(3, ((1, 2), (2, 3))).opposite.arrows == ((2, 1), (3, 2))
    sinks = [
        (make_kronecker(3), 2, 1),
        (Quiver(2, ((2, 1), (2, 1))), 1, 2),
        (bipartite, 2, 0),  # two sources
        (Quiver(4, ((1, 4), (2, 4), (3, 4))), 4, 0),
        (Quiver(3, ((1, 2),)), 2, 1),  # vertex 3 has no arrows
        (Quiver(3, ((1, 2), (2, 3))), 0, 0),  # the length-2 path
        (Quiver(3, ((1, 2), (1, 3))), 0, 1),  # two sinks
        (Quiver(4, ((1, 3), (2, 3), (2, 4))), 0, 0),
        (Quiver(2, ()), 0, 0),
    ]
    for quiver, sink, source in sinks:
        assert (quiver.one_sink, quiver.opposite.one_sink) == (sink, source), quiver
        assert quiver.opposite.opposite == quiver


def test_constructor_rejects_cycles():
    with pytest.raises(CycleError):
        Quiver(2, ((1, 2), (2, 1)))
    with pytest.raises(CycleError):
        Quiver(1, ((1, 1),))
    with pytest.raises(CycleError):
        Quiver(3, ((1, 2), (2, 3), (3, 1)))


def test_constructor_rejects_bad_indices():
    with pytest.raises(QuiverError):
        Quiver(2, ((1, 3),))
    with pytest.raises(QuiverError):
        Quiver(2, ((0, 1),))
    with pytest.raises(QuiverError):
        Quiver(0, ())


def test_one_integer_rule_refuses_bools_and_floats():
    # int() would read True as 1 and truncate 2.7 to 2, so each of these
    # used to answer for other inputs than it was given
    k2, params = make_kronecker(2), ExpanderParams(Fraction(1, 2), Fraction(1, 2))
    rep = random_rep(k2, (3, 3), 5, 0)
    ctx = KroneckerContext(3, (3, 3))
    calls = [
        lambda: Quiver(2, ((1, 2.7),)),
        lambda: Quiver(True, ()),
        lambda: make_kronecker(True),
        lambda: k2.check_dim((True, 2)),
        lambda: has_subrep_of_dim(rep, (1.5, 1)),
        lambda: embeds(k2, (1.5, 1), (3, 3)),
        lambda: KroneckerContext(3, (2.9, 3)),
        lambda: expander_exists(3, (10.7, 10), params),
        lambda: embeds_closed_form(ctx, (False, 2)),
        lambda: gaussian_binomial(3.5, 1, 2),
        lambda: gaussian_binomial(True, 1, 2),
        lambda: gaussian_binomial(3, 1.0, 2),
        lambda: gaussian_binomial(3, 1, 2.5),
        lambda: gaussian_binomial(3, 1, True),
        lambda: enumerate_subspaces(5, 3.0, 1),
        lambda: enumerate_subspaces(5, 3, True),
        lambda: Subspace(5, 2.0, [[1, 0]]),
    ]
    for call in calls:
        with pytest.raises(QuiverError, match="must be an integer"):
            call()
    # numpy integers are integers, and come back as Python ints
    n = np.int64
    assert Quiver(n(2), ((n(1), np.int32(2)),)) == Quiver(2, ((1, 2),))
    assert type(k2.check_dim((n(2), np.uint8(1)))[0]) is int
    assert KroneckerContext(n(3), np.array([3, 3])) == ctx
    assert has_subrep_of_dim(rep, np.array([0, 1]))
    assert expander_exists(3, np.array([10, 10]), params) == expander_exists(3, (10, 10), params)
    assert gaussian_binomial(n(3), np.int32(1), 2) == 7
    assert Subspace(5, n(2), [[1, 0]]).ambient_dim == 2


def test_euler_form_examples(bipartite):
    K3 = make_kronecker(3)
    assert euler_form(K3, (1, 0), (0, 1)) == -3
    assert euler_form(K3, (2, 2), (2, 2)) == -4
    assert euler_form(bipartite, (3, 5, 1), (0, 1, 4)) == 1


def test_euler_form_length_mismatch():
    with pytest.raises(QuiverError):
        euler_form(make_kronecker(2), (1, 0, 0), (0, 1))
    with pytest.raises(QuiverError):
        euler_form(make_kronecker(2), (1, -1), (0, 1))


def test_symmetrized_form_examples(bipartite):
    K2 = make_kronecker(2)
    assert symmetrized_form(K2, (1, 1), (1, 0)) == 0
    assert symmetrized_form(K2, (5, 7), (0, 0)) == 0
    assert symmetrized_form(bipartite, (3, 6, 5), (0, 1, 0)) == -4


def test_symmetrized_form_is_symmetric(bipartite):
    for d, e in [((3, 6, 5), (1, 2, 0)), ((1, 1, 1), (0, 2, 5))]:
        assert symmetrized_form(bipartite, d, e) == symmetrized_form(bipartite, e, d)


def test_fundamental_domain(bipartite):
    assert in_fundamental_domain(bipartite, (3, 6, 5))
    # per-vertex symmetrized values for the example above
    values = [symmetrized_form(bipartite, (3, 6, 5), unit_vector(3, v)) for v in (1, 2, 3)]
    assert values == [-6, -4, -2]
    assert not in_fundamental_domain(Quiver(1, ()), (1,))
    assert in_fundamental_domain(make_kronecker(2), (1, 1))


def test_fundamental_domain_needs_connected_support():
    two_isolated = Quiver(2, ())
    assert not in_fundamental_domain(two_isolated, (1, 1))


def test_fundamental_domain_rejects_zero(bipartite):
    with pytest.raises(QuiverError):
        in_fundamental_domain(bipartite, (0, 0, 0))


def test_parse_quiver_roundtrip():
    assert parse_quiver("vertices 2\n1 -> 2\n1 -> 2\n") == make_kronecker(2)
    q = parse_quiver(BIPARTITE_TEXT)
    assert q.vertex_count == 3
    assert q.arrow_counts == {(1, 2): 2, (3, 2): 2}


def test_parse_quiver_comments_and_blanks():
    text = "# a comment\n\nvertices 2  # trailing\n1 -> 2\n  \n1->2\n"
    assert parse_quiver(text) == make_kronecker(2)


def test_parse_quiver_errors_carry_line_numbers():
    with pytest.raises(QuiverParseError) as err:
        parse_quiver("vertices 2\n1 => 2\n")
    assert err.value.line == 2
    with pytest.raises(QuiverParseError) as err:
        parse_quiver("arrows 2\n")
    assert err.value.line == 1
    with pytest.raises(QuiverParseError) as err:
        parse_quiver("vertices 2\n1 -> 5\n")
    assert err.value.line == 2
    with pytest.raises(QuiverParseError):
        parse_quiver("# only comments\n")
    with pytest.raises(QuiverParseError, match="vertex count must be positive") as err:
        parse_quiver("vertices 0\n")
    assert err.value.line == 1


def test_parse_quiver_cycle_detected():
    with pytest.raises(CycleError):
        parse_quiver("vertices 2\n1 -> 2\n2 -> 1\n")


def test_dominates():
    assert dominates((0, 1), (1, 1))
    assert not dominates((2, 0), (1, 1))
    with pytest.raises(QuiverError):
        dominates((1,), (1, 2))


arrow_pairs = st.lists(
    st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4)),
    max_size=6,
)
vectors = st.tuples(*([st.integers(min_value=0, max_value=5)] * 4))


def _dag_from(pairs):
    arrows = tuple((min(a, b), max(a, b)) for a, b in pairs if a != b)
    return Quiver(4, arrows)


def _sorted_list_kahn(quiver):
    # reference: re-sort the ready vertices after each one is taken
    indeg = [0] * (quiver.vertex_count + 1)
    for _, t in quiver.arrows:
        indeg[t] += 1
    ready = [v for v in range(1, quiver.vertex_count + 1) if indeg[v] == 0]
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for s, t in quiver.arrows:
            if s == v:
                indeg[t] -= 1
                if indeg[t] == 0:
                    ready.append(t)
        ready.sort()
    return tuple(order)


@st.composite
def _acyclic_quivers(draw):
    # arrows run forward along a drawn relabelling, so a vertex's index says
    # nothing about its place in the order
    n = draw(st.integers(1, 7))
    label = draw(st.permutations(range(1, n + 1)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    return Quiver(n, tuple((label[min(a, b)], label[max(a, b)]) for a, b in pairs if a != b))


def test_topological_order_takes_the_smallest_ready_vertex():
    # 2 is freed after 4 and 5 are ready, and still comes before them
    assert Quiver(5, ((5, 1), (3, 2))).topological_order() == (3, 2, 4, 5, 1)


@settings(derandomize=True, max_examples=300)
@given(_acyclic_quivers())
def test_topological_order_matches_sorted_list_kahn(quiver):
    assert quiver.topological_order() == _sorted_list_kahn(quiver)


@given(arrow_pairs, vectors, vectors, vectors)
def test_euler_form_bilinear(pairs, a, b, c):
    q = _dag_from(pairs)
    ab = tuple(x + y for x, y in zip(a, b))
    assert euler_form(q, ab, c) == euler_form(q, a, c) + euler_form(q, b, c)
    assert euler_form(q, c, ab) == euler_form(q, c, a) + euler_form(q, c, b)


@given(arrow_pairs)
def test_euler_form_unit_vector_identity(pairs):
    q = _dag_from(pairs)
    for i in range(1, 5):
        for j in range(1, 5):
            expected = (1 if i == j else 0) - q.arrow_counts.get((i, j), 0)
            assert euler_form(q, unit_vector(4, i), unit_vector(4, j)) == expected
