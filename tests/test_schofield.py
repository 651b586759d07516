"""Unit tests for the generic-subrepresentation decision.

``_subdims_reference`` is the memoised top-down recursion the bottom-up
engine replaced, and ``_walk_reference`` the column walk that took the least
form value over Sub(e) at every cell before the two bounds decided most of
them; the differential tests below hold the engine to both.
"""

import json
import math
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quivex import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    ExpanderParams,
    KroneckerContext,
    Quiver,
    StabilityFunction,
    SubdimCache,
    beta,
    embeds,
    embeds_closed_form,
    expander_exists,
    generic_subdims,
    make_kronecker,
    parse_quiver,
    theta_epsilon_supremum,
)
from quivex.cli import run
from quivex.expander import _theta_suprema, _theta_zeros
from quivex.schofield import _bounds, _subdims, _walk

BIPARTITE_TEXT = "vertices 3\n1 -> 2\n1 -> 2\n3 -> 2\n3 -> 2\n"
BIPARTITE = parse_quiver(BIPARTITE_TEXT)
# a path 1 -> 2 -> 3 plus a double arrow 1 -> 3
PATH_DOUBLE = parse_quiver("vertices 3\n1 -> 2\n2 -> 3\n1 -> 3\n1 -> 3\n")


def _subdims_reference(weights, d, table: dict) -> frozenset:
    cached = table.get(d)
    if cached is not None:
        return cached
    zero = (0,) * len(d)
    members = {zero, d}
    for e in product(*(range(x + 1) for x in d)):
        if e == zero or e == d:
            continue
        w = weights(tuple(a - b for a, b in zip(d, e)))
        subs_e = _subdims_reference(weights, e, table)  # e is strictly smaller, terminates
        if all(sum(x * y for x, y in zip(ep, w)) >= 0 for ep in subs_e):
            members.add(e)
    result = frozenset(members)
    table[d] = result
    return result


def _walk_reference(quiver, d, top=None):
    # every walked column e in lexicographic order, each v >= e by one int64
    # product over the whole row Sub(e); no bound decides a cell first
    shape = [x + 1 for x in d]
    size = math.prod(shape)
    box = np.indices(shape).reshape(len(d), -1).T
    weights = box @ np.array([quiver.form_weights(u) for u in np.eye(len(d), dtype=np.int64)]).T
    index = np.arange(size).reshape(shape)
    member = np.eye(size, dtype=bool)
    rows = box.tolist()
    walked = range(size) if top is None else np.flatnonzero(box.sum(axis=1) <= top).tolist()
    for k in walked:
        up = index[tuple(slice(x, None) for x in rows[k])].ravel()
        values = weights[member[k]] @ box[up - k].T  # box[up - k] = up-box - e
        member[up, k] = values.min(axis=0) >= 0
    return box, member


def _assert_walk_matches_reference(quiver, d, top=None):
    box, member = _walk(quiver, d, top)
    ref_box, ref_member = _walk_reference(quiver, d, top)
    assert (box == ref_box).all() and (member == ref_member).all(), (quiver.arrows, d, top)


def _open_cells(quiver, d):
    # per column of the box, its cells (v, e), v >= e, that neither bound decides
    box = np.indices([x + 1 for x in d]).reshape(len(d), -1).T
    counts = []
    for e in box.tolist():
        cells = [tuple(a - b for a, b in zip(v, e)) for v in _box(d) if all(map(int.__le__, e, v))]
        counts.append(sum(not any(_bounds(e, quiver.form_weights(x))) for x in cells))
    return counts


def _embeds_reference(quiver, e, d, table: dict) -> bool:
    w = quiver.form_weights(tuple(a - b for a, b in zip(d, e)))
    subs = _subdims_reference(quiver.form_weights, e, table)
    return all(sum(x * y for x, y in zip(ep, w)) >= 0 for ep in subs)


def _box(d):
    return product(*(range(x + 1) for x in d))


def _on_cone(m, d):
    return any(d) and d[0] * d[0] + d[1] * d[1] - m * d[0] * d[1] <= 0


GRIDS = [(make_kronecker(m), (10, 10)) for m in range(1, 6)]
GRIDS += [(BIPARTITE, (4, 6, 4)), (PATH_DOUBLE, (4, 4, 4))]
GRID_IDS = [f"K{m}" for m in range(1, 6)] + ["bipartite", "path_double"]


@pytest.mark.parametrize("quiver, dmax", GRIDS, ids=GRID_IDS)
def test_generic_subdims_matches_reference(quiver, dmax):
    table: dict = {}
    for d in _box(dmax):
        assert generic_subdims(quiver, d) == _subdims_reference(quiver.form_weights, d, table), d


@pytest.mark.parametrize("quiver, dmax", GRIDS, ids=GRID_IDS)
def test_embeds_matches_reference(quiver, dmax):
    # every pair e <= d of the grid twice: e first, with a fresh cache per e,
    # then d first, with one cache for the whole grid
    table: dict = {}
    expected = {}
    for e in _box(dmax):
        cold = SubdimCache()
        for d in product(*(range(a, b + 1) for a, b in zip(e, dmax))):
            expected[e, d] = _embeds_reference(quiver, e, d, table)
            assert embeds(quiver, e, d, cold) == expected[e, d], (e, d)
    warm = SubdimCache()
    for d in _box(dmax):
        for e in _box(d):
            assert embeds(quiver, e, d, warm) == expected[e, d], (e, d)


# quivers off K(m), with every d <= (3, 3, 3), or (3, 3, 3, 3) for FOUR
ONE_SOURCE = Quiver(3, ((1, 2), (1, 2), (1, 3), (1, 3)))
PATH_3 = parse_quiver("vertices 3\n1 -> 2\n2 -> 3\n2 -> 3\n2 -> 3\n")
FOUR = parse_quiver("vertices 4\n1 -> 2\n1 -> 3\n2 -> 4\n3 -> 4\n1 -> 4\n1 -> 4\n")
BOUND_GRIDS = [(BIPARTITE, (3, 3, 3)), (PATH_DOUBLE, (3, 3, 3)), (ONE_SOURCE, (3, 3, 3)),
               (PATH_3, (3, 3, 3)), (FOUR, (3, 3, 3, 3))]


def _bound(quiver, e, d):
    # embeds' answer from its two bounds, or None: e lies in Sub(e), so
    # <e, d - e> < 0 refuses, and Sub(e) lies in box(e), so a weight of d - e
    # that is >= 0 wherever e is nonzero admits
    w = quiver.form_weights(tuple(a - b for a, b in zip(d, e)))
    if sum(x * y for x, y in zip(e, w)) < 0:
        return False
    return True if all(y >= 0 for x, y in zip(e, w) if x) else None


@pytest.mark.parametrize(
    "quiver, dmax", BOUND_GRIDS, ids=["bipartite", "path_double", "one_source", "path_3", "four"]
)
def test_embeds_bounds_match_the_walk_and_skip_it(monkeypatch, quiver, dmax):
    # every pair e <= d of the grid against the walk's last row, Sub(d);
    # a pair a bound decides walks nothing, even with no cache
    import quivex.schofield

    walked = []
    real_walk = quivex.schofield._walk
    monkeypatch.setattr(
        quivex.schofield, "_walk", lambda q, d, top=None: walked.append(d) or real_walk(q, d, top)
    )
    cache, decided, pairs = SubdimCache(), 0, 0
    for d in _box(dmax):
        subs = _subdims(quiver, d)
        for e in _box(d):
            pairs += 1
            assert embeds(quiver, e, d, cache) == (e in subs), (e, d)
            if any(e) and e != d and (bound := _bound(quiver, e, d)) is not None:
                decided += 1
                walked.clear()
                assert embeds(quiver, e, d) == bound, (e, d)
                assert walked == [], (e, d)
    assert pairs == (10**4 if len(dmax) == 4 else 10**3)
    assert 0 < decided < pairs


@st.composite
def _acyclic_quivers(draw):
    n = draw(st.integers(2, 4))
    pairs = [(s, t) for s in range(1, n + 1) for t in range(s + 1, n + 1)]
    arrows = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6))
    return Quiver(n, tuple(arrows))


@st.composite
def _acyclic_vectors(draw):
    quiver = draw(_acyclic_quivers())
    return quiver, draw(st.tuples(*[st.integers(0, 2)] * quiver.vertex_count))


@settings(max_examples=60)
@given(_acyclic_vectors())
def test_walk_rows_and_embeds_match_reference_on_random_acyclic_quivers(quiver_and_d):
    # arrows s -> t with s < t, K(m) included: every row of the walk of box(d)
    # is Sub(v) by the top-down recursion, and embeds(e, v) reads it
    quiver, d = quiver_and_d
    table: dict = {}
    box, member = _walk(quiver, d)
    for k, v in enumerate(map(tuple, box.tolist())):
        row = frozenset(map(tuple, box[member[k]].tolist()))
        assert row == _subdims_reference(quiver.form_weights, v, table), (quiver.arrows, v)
        for e in _box(v):
            assert embeds(quiver, e, v) == (e in row), (quiver.arrows, e, v)


@settings(max_examples=60)
@given(_acyclic_vectors())
def test_walk_matches_the_column_walk_on_random_acyclic_quivers(quiver_and_d):
    # the same box and every cell of the table, whole and cut at every total
    quiver, d = quiver_and_d
    for top in [None, *range(sum(d) + 1)]:
        _assert_walk_matches_reference(quiver, d, top)


BIPARTITE_WALKS = [(k, 2 * k, k) for k in range(7)]
BIPARTITE_WALKS += [(6, 12, 1), (1, 12, 6), (6, 3, 6), (0, 12, 0), (6, 0, 6), (5, 7, 2)]


@pytest.mark.parametrize("d", BIPARTITE_WALKS, ids=map(str, BIPARTITE_WALKS))
def test_walk_matches_the_column_walk_on_the_bipartite_grid(d):
    for top in (None, sum(d) // 3, sum(d) // 2, sum(d)):
        _assert_walk_matches_reference(BIPARTITE, d, top)


def test_walk_matches_the_column_walk_at_8_16_8():
    # 309,825 cells in about thirty chunks
    _assert_walk_matches_reference(BIPARTITE, (8, 16, 8))


@pytest.mark.parametrize("entries", [1, 7, 64, 1000])
def test_walk_matches_the_column_walk_in_small_chunks(monkeypatch, entries):
    # a chunk of one column, chunks that split between columns, and a
    # column of more cells than a chunk holds (its chunk boundary repeats)
    monkeypatch.setattr("quivex.schofield._CHUNK_ENTRIES", entries)
    for quiver, d in [(BIPARTITE, (2, 5, 3)), (PATH_DOUBLE, (3, 2, 3)), (FOUR, (2, 1, 2, 2))]:
        for top in (None, sum(d) // 2):
            _assert_walk_matches_reference(quiver, d, top)


def test_walk_with_no_open_cell_and_with_a_column_all_open():
    # bipartite (0, k, 0): e and x lie at vertex 2, whose weight x_2 is >= 0,
    # so the bounds admit every cell and no column is walked
    for k in range(6):
        assert _open_cells(BIPARTITE, (0, k, 0)) == [0] * (k + 1)
        _assert_walk_matches_reference(BIPARTITE, (0, k, 0))
    # K(1) at d = (1, k): above e = (1, 1) every x = (0, j), j > 0, has
    # <e, x> = 0 and weight -j at vertex 1, so each cell but the diagonal is
    # open; _walk is called directly, since K(m) questions never walk
    K1 = make_kronecker(1)
    for k in range(1, 6):
        column = (k + 1) + 1  # (1, 1) in box(1, k)
        assert _open_cells(K1, (1, k))[column] == k - 1
        _assert_walk_matches_reference(K1, (1, k))


@pytest.mark.parametrize(
    "quiver, d",
    [(BIPARTITE, (3, 6, 3)), (BIPARTITE, (4, 4, 2)), (PATH_DOUBLE, (3, 4, 3)),
     (ONE_SOURCE, (4, 3, 3)), (FOUR, (2, 2, 3, 2))],
)
def test_walk_cut_at_a_total_matches_the_full_walk(quiver, d):
    # theta-scan walks only the columns e with |e| <= floor(delta |d|); they
    # hold every cell _row_suprema reads, 1 <= |e| <= floor(delta |v|) for
    # each v <= d, and equal the full walk's; the others are not walked
    box, full = _walk(quiver, d)
    sizes = box.sum(axis=1)
    for delta in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
        top = delta.numerator * sum(d) // delta.denominator
        cut_box, cut = _walk(quiver, d, top)
        assert (cut_box == box).all()
        for k, v in enumerate(box.tolist()):
            read = (sizes >= 1) & (sizes <= delta.numerator * sum(v) // delta.denominator)
            assert (cut[k, read] == full[k, read]).all(), (d, delta, v)
        kept = sizes <= top
        assert (cut[:, kept] == full[:, kept]).all(), (d, delta)
        assert (cut[:, ~kept] == np.eye(len(box), dtype=bool)[:, ~kept]).all(), (d, delta)


def test_walk_matches_reference_on_the_cone():
    # where the closed form answers, the bottom-up walk must still agree
    for m in range(2, 6):
        K = make_kronecker(m)
        table: dict = {}
        for d in _box((10, 10)):
            if _on_cone(m, d):
                assert _subdims(K, d) == _subdims_reference(K.form_weights, d, table), (m, d)


def test_closed_form_matches_reference_on_the_cone():
    # the cone theorem itself: closed form against the old recursion
    pairs = 0
    for m in (2, 3, 4):
        K = make_kronecker(m)
        table: dict = {}
        for d in _box((12, 12)):
            if not _on_cone(m, d):
                continue
            ctx = KroneckerContext(m, d)
            for e in _box(d):
                pairs += 1
                assert embeds_closed_form(ctx, e) == _embeds_reference(K, e, d, table), (m, d, e)
    assert pairs == 14810


def test_cone_listing_is_charged_the_box_before_it_is_built():
    # on the cone Sub(d) is listed column by column, charged the box size
    # first: a box over the budget is refused with nothing allocated
    K3 = make_kronecker(3)
    tracemalloc.start()
    with pytest.raises(BudgetExceededError) as info:
        generic_subdims(K3, (3162, 3162))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert (info.value.phase, info.value.spent) == ("subdims", 3163 * 3163)
    assert info.value.spent == 10004569 > DEFAULT_BUDGET
    assert peak < 2**20
    assert len(generic_subdims(K3, (1000, 1000))) == 373191


def test_bipartite_8_16_8_speed_and_reference():
    start = time.monotonic()
    subs = generic_subdims(BIPARTITE, (8, 16, 8))
    elapsed = time.monotonic() - start
    assert elapsed < 2, f"{elapsed:.2f}s"
    assert len(subs) == 452
    assert subs == _subdims_reference(BIPARTITE.form_weights, (8, 16, 8), {})


def test_embeds_examples():
    K2 = make_kronecker(2)
    assert embeds(K2, (0, 1), (1, 1))
    assert not embeds(K2, (1, 0), (1, 1))
    assert not embeds(BIPARTITE, (3, 5, 1), (3, 6, 5))


def test_embeds_outside_partial_order_is_false_not_error():
    K2 = make_kronecker(2)
    assert not embeds(K2, (2, 0), (1, 1))


def test_embeds_base_cases():
    K3 = make_kronecker(3)
    assert embeds(K3, (0, 0), (4, 7))
    assert embeds(K3, (4, 7), (4, 7))


def test_generic_subdims_examples():
    K2 = make_kronecker(2)
    assert generic_subdims(K2, (1, 1)) == frozenset({(0, 0), (0, 1), (1, 1)})
    assert generic_subdims(K2, (0, 0)) == frozenset({(0, 0)})
    subs = generic_subdims(make_kronecker(3), (2, 2))
    assert (1, 2) in subs
    assert (1, 1) not in subs


def test_generic_subdims_kronecker_grid_values():
    # independently derived via the quadratic form <e, d-e> for <d, d> <= 0
    subs = generic_subdims(make_kronecker(3), (2, 2))
    assert subs == frozenset({(0, 0), (0, 1), (0, 2), (1, 2), (2, 2)})


def test_reflexivity_and_zero_membership():
    for quiver, dmax in [(make_kronecker(2), 4), (BIPARTITE, 2)]:
        n = quiver.vertex_count
        for d in product(range(dmax + 1), repeat=n):
            subs = generic_subdims(quiver, d)
            assert (0,) * n in subs
            assert tuple(d) in subs


def test_cache_determinism_cold_vs_warm():
    # embeds' cache, on the bipartite quiver (K(m) never reads it): one warm
    # cache answers every pair e <= d <= (3, 6, 3) as a fresh one does, while
    # it fills and again once full
    cold = {
        (e, d): embeds(BIPARTITE, e, d, SubdimCache()) for d in _box((3, 6, 3)) for e in _box(d)
    }
    warm = SubdimCache()
    for _ in range(2):
        assert {pair: embeds(BIPARTITE, *pair, warm) for pair in cold} == cold
    assert len(warm) == 33


def test_cache_is_shared_between_equal_quivers(monkeypatch):
    # an equal quiver built apart reads the entry the first one's walk made
    import quivex.schofield

    cache = SubdimCache()
    assert embeds(BIPARTITE, (0, 1, 1), (0, 2, 2), cache)
    assert list(cache) == [(BIPARTITE, (0, 1, 1))]
    twin = Quiver(3, ((1, 2), (1, 2), (3, 2), (3, 2)))
    assert twin is not BIPARTITE
    monkeypatch.setattr(quivex.schofield, "_walk", None)  # a walk would raise
    assert embeds(twin, (0, 1, 1), (0, 2, 2), cache)
    assert list(cache) == [(BIPARTITE, (0, 1, 1))]


def test_kronecker_duality_small_grid():
    for m in (2, 3):
        K = make_kronecker(m)
        for d1, d2 in product(range(6), repeat=2):
            subs = generic_subdims(K, (d1, d2))
            reversed_subs = generic_subdims(K, (d2, d1))
            image = {(d2 - e2, d1 - e1) for e1, e2 in subs}
            assert image == set(reversed_subs), (m, d1, d2)


def test_preprojective_bound_exact():
    # d2 > beta * d1 forces e2 > beta * e1 for every nonzero subdimension pair
    for m in (2, 3, 4):
        b = beta(m)
        K = make_kronecker(m)
        for d1, d2 in product(range(9), repeat=2):
            if (d1, d2) == (0, 0) or not Fraction(d2) > b * d1:
                continue
            for e1, e2 in generic_subdims(K, (d1, d2)):
                if (e1, e2) == (0, 0):
                    continue  # the zero vector sits on the strict boundary
                assert Fraction(e2) > b * e1, (m, (d1, d2), (e1, e2))


def test_subdims_independent_of_candidate_order():
    # reference computation with reversed candidate enumeration: the sets
    # are mathematical facts and cannot depend on traversal order
    from itertools import product as iproduct

    from quivex import euler_form

    def reference_subdims(quiver, d, memo):
        d = tuple(d)
        if d in memo:
            return memo[d]
        zero = (0,) * len(d)
        members = {zero, d}
        candidates = sorted(
            iproduct(*(range(x + 1) for x in d)), reverse=True
        )
        for e in candidates:
            if e == zero or e == d:
                continue
            diff = tuple(a - b for a, b in zip(d, e))
            if all(euler_form(quiver, ep, diff) >= 0 for ep in reference_subdims(quiver, e, memo)):
                members.add(e)
        memo[d] = frozenset(members)
        return memo[d]

    for quiver, dmax in [(make_kronecker(3), 4), (BIPARTITE, 2)]:
        memo = {}
        for d in product(range(dmax + 1), repeat=quiver.vertex_count):
            assert generic_subdims(quiver, d) == reference_subdims(quiver, d, memo)


def test_bipartite_counterexample_witness():
    # the one-shot form value is positive yet a deeper subdimension vector
    # violates the criterion: (3,5,0) embeds into (3,5,1) and pairs to -1
    assert embeds(BIPARTITE, (3, 5, 0), (3, 5, 1))
    from quivex import euler_form

    assert euler_form(BIPARTITE, (3, 5, 0), (0, 1, 4)) == -1


def test_length_mismatch_errors():
    with pytest.raises(Exception):
        embeds(make_kronecker(2), (1, 0, 0), (1, 1, 1))


@pytest.mark.parametrize(
    "quiver, dmax",
    [(BIPARTITE, (2, 4, 2)), (make_kronecker(2), (4, 5)), (make_kronecker(3), (3, 4))],
    ids=["bipartite", "K2", "K3"],
)
def test_walk_rows_are_sub_of_every_vector_of_the_box(quiver, dmax):
    # one walk of box(d) gives Sub(v) for every v <= d, not only for d
    table: dict = {}
    for d in _box(dmax):
        box, member = _walk(quiver, d)
        assert [tuple(v) for v in box.tolist()] == list(_box(d))
        for k, v in enumerate(box.tolist()):
            row = frozenset(map(tuple, box[member[k]].tolist()))
            assert row == _subdims_reference(quiver.form_weights, tuple(v), table), (d, v)
            # every total 0..|v| occurs in Sub(v), as theta-scan's row reading assumes
            assert {sum(e) for e in row} == set(range(sum(v) + 1)), (d, v)


def _supremum_reference(quiver, theta, d, delta, table):
    # the per-d definition: the least -theta(e) / |e| over 0 < |e| <= delta |d|
    subs = _subdims_reference(quiver.form_weights, d, table)
    constraints = [e for e in subs if 0 < sum(e) <= delta * sum(d)]
    ratios = [Fraction(-sum(w * x for w, x in zip(theta, e)), sum(e)) for e in constraints]
    return min(ratios, default=None)


def _maximal(vectors):
    def below(d, v):
        return v != d and all(a <= b for a, b in zip(d, v))

    return [d for d in vectors if not any(below(d, v) for v in vectors)]


def _spy_walks(monkeypatch) -> list:
    # every vector theta-scan walks, recorded before the walk is charged
    import quivex.expander

    walked = []
    real_walk = quivex.expander._walk
    monkeypatch.setattr(
        quivex.expander, "_walk", lambda q, d, top=None: walked.append(d) or real_walk(q, d, top)
    )
    return walked


def _scan_against_reference(monkeypatch, capsys, quiver, source, thetas, dmax, walks):
    walked = _spy_walks(monkeypatch)
    table: dict = {}
    for theta, delta in product(thetas, (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))):
        walked.clear()
        argv = ["theta-scan", *source, "--theta", ",".join(map(str, theta)),
                "--delta", str(delta), "--dmax", str(dmax)]
        assert run(argv) == 0, argv
        rows = json.loads(capsys.readouterr().out)["result"]["rows"]
        zeros = [d for d in _box((dmax,) * len(theta))
                 if any(d) and sum(w * x for w, x in zip(theta, d)) == 0]
        assert [tuple(row["d"]) for row in rows] == zeros, argv
        for row, d in zip(rows, zeros):
            sup = _supremum_reference(quiver, theta, d, delta, table)
            assert row["epsilon_sup"] == (None if sup is None else str(sup)), (argv, d)
        # only the maximal vectors that walk are walked, each once, largest first
        expected = sorted(_maximal([d for d in zeros if walks]), reverse=True)
        assert walked == expected, argv


@pytest.mark.parametrize("m", [2, 3, 4])
def test_theta_scan_matches_per_vector_reference_kronecker(monkeypatch, capsys, m):
    # (2, -1) on K(2), (3, -1) and (1, -3) on K(3) are rays off the cone, and
    # K(m) walks no vector, on the cone or off it
    thetas = [(1, -1), (2, -1), (1, -2), (3, -1), (1, -3), (2, -3)]
    assert any(not _on_cone(m, (a, b)) for b, a in thetas[1:])
    _scan_against_reference(monkeypatch, capsys, make_kronecker(m), ["--kronecker", str(m)],
                            thetas, 12, walks=False)


def test_theta_scan_matches_per_vector_reference_bipartite(monkeypatch, capsys, tmp_path):
    path = tmp_path / "bipartite.quiver"
    path.write_text(BIPARTITE_TEXT, encoding="utf-8")
    # weights past int64 are read off the rows in exact Python ints
    thetas = [(1, -1, 0), (1, -1, 1), (2, -1, 1), (1, -2, 1), (0, -1, 2)]
    thetas.append((2**62, -(2**62), 2**62))
    _scan_against_reference(monkeypatch, capsys, BIPARTITE, ["--quiver", str(path)],
                            thetas, 6, walks=True)


@st.composite
def _acyclic_theta_scans(draw):
    quiver = draw(_acyclic_quivers())
    theta = draw(st.tuples(*[st.integers(-3, 3)] * quiver.vertex_count))
    delta = draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]))
    return quiver, theta, delta, draw(st.integers(1, 3))


@settings(max_examples=200)
@given(_acyclic_theta_scans())
def test_theta_suprema_match_per_vector_reference_on_random_acyclic_quivers(scan):
    # every theta-zero of the cube, read off the walk rows of its maximal
    # vectors (or off K(m)'s columns), against the least -theta(e) / |e| over
    # the top-down Sub(d) at 0 < |e| <= floor(delta |d|)
    quiver, theta, delta, dmax = scan
    function = StabilityFunction(theta)
    zeros = _theta_zeros(function, dmax)
    sups = _theta_suprema(quiver, function, zeros, delta)
    assert sorted(sups) == sorted(zeros)
    table: dict = {}
    for d in zeros:
        expected = _supremum_reference(quiver, theta, d, delta, table)
        assert sups[d] == expected, (quiver.arrows, theta, delta, d)


def test_no_k_m_question_reaches_the_walk(monkeypatch, capsys):
    # every K(m) entry point, on the cone and off it: embeds, generic_subdims,
    # theta-scan, theta_epsilon_supremum and expander_exists never walk
    import quivex.schofield

    walked = _spy_walks(monkeypatch)
    real_walk = quivex.schofield._walk
    monkeypatch.setattr(
        quivex.schofield, "_walk", lambda q, d, top=None: walked.append(d) or real_walk(q, d, top)
    )
    for m in (1, 2, 3, 5):
        K = make_kronecker(m)
        for d in product(range(7), repeat=2):
            generic_subdims(K, d)
            for e in _box(d):
                embeds(K, e, d, SubdimCache())
            if all(d):
                expander_exists(m, d, ExpanderParams(Fraction(1, 2), Fraction(1, 10)))
                theta = StabilityFunction((d[1], -d[0]))
                theta_epsilon_supremum(K, theta, d, Fraction(1, 2))
        argv = ["theta-scan", "--kronecker", str(m), "--theta", "1,-2", "--delta", "1/2"]
        assert run(argv + ["--dmax", "30"]) == 0
    capsys.readouterr()
    assert walked == []
    generic_subdims(BIPARTITE, (1, 1, 1))
    assert walked == [(1, 1, 1)]


def test_theta_scan_walk_count_and_budget(monkeypatch, capsys, tmp_path):
    path = tmp_path / "bipartite.quiver"
    path.write_text(BIPARTITE_TEXT, encoding="utf-8")
    walked = _spy_walks(monkeypatch)

    def scan(theta, dmax):
        walked.clear()
        return run(["theta-scan", "--quiver", str(path), "--theta", theta,
                    "--delta", "1/2", "--dmax", str(dmax)])

    assert scan("1,-1,0", 4) == 0
    assert walked == [(4, 4, 4)]
    assert scan("1,-1,1", 4) == 0
    assert walked == [(a, 4, 4 - a) for a in range(4, -1, -1)]
    capsys.readouterr()
    # the largest vector comes first: its box is over the budget, and no
    # other box is walked before the scan exits 3
    assert scan("1,-1,0", 14) == 3
    assert walked == [(14, 14, 14)]
    assert capsys.readouterr().err == (
        f"error: subdims budget exceeded at (14, 14, 14): "
        f"spent {15**6} > limit {DEFAULT_BUDGET}\n"
    )
