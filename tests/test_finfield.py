"""Unit tests for the finite-field oracle: subspaces, enumeration, verification."""

import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, islice, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quivex import (
    BudgetExceededError,
    ExpanderParams,
    FiniteFieldRep,
    Quiver,
    SubdimCache,
    Subspace,
    embeds,
    enumerate_subspaces,
    gaussian_binomial,
    has_subrep_of_dim,
    image_sum_dim,
    is_expander_rep,
    make_kronecker,
    parse_quiver,
    random_rep,
)
from quivex.expander import _levels
from quivex.finfield import (
    _PENCIL_MIN_LINES,
    _backtrack,
    batch_rank,
    batch_rank_le,
    rank_mod,
    rref_mod,
)
from quivex.quiver import _Budget

HALF = Fraction(1, 2)
BIPARTITE = parse_quiver("vertices 3\n1 -> 2\n1 -> 2\n3 -> 2\n3 -> 2\n")


def _transposed(rep):
    # the K(m) dual: dim reversed and every matrix transposed
    return FiniteFieldRep(rep.p, rep.quiver, rep.dim[::-1], tuple(f.T for f in rep.matrices))


def _contains(a, b):
    # a contains b: stacking b's basis under a's keeps a's rank
    return rank_mod(np.concatenate([a.basis, b.basis]), a.p) == a.dim


def _companion_rep():
    # f1 = identity, f2 = companion matrix of x^2 + x + 1 over F_2
    return FiniteFieldRep(
        2,
        make_kronecker(2),
        (2, 2),
        (np.eye(2, dtype=np.int64), np.array([[0, 1], [1, 1]])),
    )


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(5, 0, 3) == 1
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 5, 2) == 0
    for n in range(6):
        for k in range(n + 1):
            assert gaussian_binomial(n, k, 3) == gaussian_binomial(n, n - k, 3)


def test_gaussian_binomial_refuses_p_below_2():
    for p in (0, 1, -3):
        with pytest.raises(ValueError, match="at least 2"):
            gaussian_binomial(3, 1, p)


def test_enumerate_subspaces_counts_and_uniqueness():
    for p in (2, 3):
        for n in range(5):
            for k in range(n + 1):
                seen = set()
                for sub in enumerate_subspaces(p, n, k):
                    assert sub.dim == k
                    seen.add(sub)
                assert len(seen) == gaussian_binomial(n, k, p)


def test_enumerate_subspaces_bases_are_canonical():
    for sub in enumerate_subspaces(3, 4, 2):
        recanon = Subspace(3, 4, sub.basis)
        assert recanon == sub


def test_enumerate_subspaces_order_matches_keys():
    keys = [
        (sub.pivots, tuple(sub.basis.reshape(-1).tolist())) for sub in enumerate_subspaces(3, 4, 2)
    ]
    assert keys == sorted(keys)


def test_enumerate_subspaces_zero_dimension():
    subs = list(enumerate_subspaces(5, 3, 0))
    assert len(subs) == 1
    assert subs[0].dim == 0


def _product_echelon_bases(p, n, k):
    # the test oracle for the chunked enumeration: every RREF basis, one
    # itertools.product over each pivot set's free entries, last varying
    # fastest, stacked in one (count, k, n) array
    out = [np.zeros((0, k, n), dtype=np.int64)]
    for pivots in combinations(range(n), k):
        free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n) if j not in pivots]
        values = np.array(list(product(range(p), repeat=len(free))), dtype=np.int64)
        bases = np.zeros((p ** len(free), k, n), dtype=np.int64)
        bases[:, range(k), pivots] = 1
        for f, (i, j) in enumerate(free):
            bases[:, i, j] = values[:, f]
        out.append(bases)
    return np.concatenate(out)


def test_chunked_enumeration_matches_the_product_oracle(monkeypatch):
    # every k-subspace of F_p^n, p in {2, 3, 5, 7}, n <= 5, in the product
    # oracle's order, whether the chunks are at their default cap (F_7^5
    # has pivot sets of 7**6 bases, past it) or cut to 1 or 64 entries;
    # each Subspace owns its own read-only basis, so none pins a chunk or
    # shares memory with another
    import quivex.finfield as ff

    for p in (2, 3, 5, 7):
        for n in range(6):
            for k in range(n + 1):
                want = _product_echelon_bases(p, n, k)
                got = list(ff._iter_echelon_bases(p, n, k))
                assert len(want) == gaussian_binomial(n, k, p), (p, n, k)
                assert np.array_equal(np.array(got).reshape(want.shape), want), (p, n, k)
                assert not any(b.flags.writeable for b in got), (p, n, k)
    for entries in (1, 64):
        monkeypatch.setattr(ff, "_BATCH_ENTRIES", entries)
        for p, n in [(2, 5), (3, 4), (5, 3)]:
            for k in range(n + 1):
                subs = list(enumerate_subspaces(p, n, k))
                assert [u.basis.tolist() for u in subs] == _product_echelon_bases(p, n, k).tolist()
                for u in subs:
                    assert u.basis.base is None and u.basis.flags.owndata
                    assert not u.basis.flags.writeable
                for u, v in zip(subs, subs[1:]):
                    assert not np.shares_memory(u.basis, v.basis)
    # pivot sets of more than 2**63 bases, in F_101^14 and F_1048573^6:
    # their first 600 bases (chunks of 1, 8, 64 and 512 at the default
    # cap) still hold the base-p digits of their index
    monkeypatch.undo()
    for p, n, k in [(101, 14, 1), (1048573, 6, 2)]:
        free = [(i, j) for i in range(k) for j in range(k, n)]
        for index, basis in enumerate(islice(ff._iter_echelon_bases(p, n, k), 600)):
            want = np.zeros((k, n), dtype=np.int64)
            want[range(k), range(k)] = 1
            for (i, j), e in zip(free, reversed(range(len(free)))):
                want[i, j] = index // p**e % p
            assert np.array_equal(basis, want), (p, n, k, index)


def test_canonical_line_ranges_are_slices_of_the_listing():
    # a full line listing is every line's generator once, in enumeration
    # order, and _canonical_lines(p, n, lo, hi), which _line_ranks builds
    # its chunks from, is exactly rows lo..hi - 1 of it, within a leading
    # column or across several
    import quivex.finfield as ff

    for p in (2, 3, 5):
        for n in range(1, 5):
            full = ff._canonical_lines(p, n)
            assert full.tolist() == [u.basis[0].tolist() for u in enumerate_subspaces(p, n, 1)]
            cuts = range(0, len(full) + 1, max(1, len(full) // 7))
            for lo in cuts:
                for hi in range(lo, len(full) + 1):
                    assert np.array_equal(ff._canonical_lines(p, n, lo, hi), full[lo:hi])


def test_enumerate_subspaces_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_subspaces(101, 4, 2)  # ~1.05e8 subspaces
    with pytest.raises(ValueError):
        enumerate_subspaces(4, 3, 1)  # 4 is not prime
    with pytest.raises(ValueError, match="need 0 <= k <= n"):
        enumerate_subspaces(5, 2, 3)


def test_rref_properties():
    R, piv = rref_mod([[2, 4], [1, 2]], 5)
    assert piv == (0,)
    assert R[0].tolist() == [1, 2]
    R, piv = rref_mod(np.eye(3, dtype=np.int64)[::-1], 7)
    assert piv == (0, 1, 2)
    assert rank_mod([[0, 0], [0, 0]], 3) == 0
    assert rank_mod(np.zeros((0, 4), dtype=np.int64), 3) == 0


def test_rref_matches_sympy():
    domain = pytest.importorskip("sympy.polys.matrices")
    from sympy import GF

    rng = np.random.Generator(np.random.PCG64(5))
    for p in (2, 3, 101, 1048573):
        field = GF(p)
        for rows, cols, rank in [(3, 5, 3), (5, 3, 2), (4, 4, 1), (6, 6, 4), (1, 7, 0)]:
            for _ in range(6):
                left = rng.integers(0, p, size=(rows, rank), dtype=np.int64)
                right = rng.integers(0, p, size=(rank, cols), dtype=np.int64)
                mat = (left @ right) % p
                expected, expected_piv = domain.DomainMatrix.from_list(
                    mat.tolist(), field
                ).rref()
                R, piv = rref_mod(mat, p)
                assert piv == expected_piv, (p, mat.tolist())
                assert R.shape == mat.shape
                assert R.tolist() == [
                    [int(x) % p for x in row] for row in expected.to_list()
                ], (p, mat.tolist())


def test_rank_mod_matches_rref_and_sympy():
    # the canonical RREF's pivot count is the oracle; sympy checks both
    try:
        from sympy import GF
        from sympy.polys.matrices import DomainMatrix
    except ImportError:
        DomainMatrix = None
    rng = np.random.Generator(np.random.PCG64(23))
    shapes = [(0, 4), (4, 0), (1, 5), (12, 4), (4, 12), (5, 5), (9, 3)]
    for p in (2, 3, 5, 181, 46349, 1048573):
        for rows, cols in shapes:
            mats = []
            for rank in range(min(rows, cols) + 1):
                left = rng.integers(0, p, size=(rows, rank), dtype=np.int64)
                right = rng.integers(0, p, size=(rank, cols), dtype=np.int64)
                mats.append((left @ right) % p)
            if rows > cols > 1:
                # the first cols rows span a line, the rest span the whole row
                # space: the rank reaches cols only after more than cols rows
                tall = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
                tall[:cols] = np.outer(rng.integers(0, p, cols), tall[0]) % p
                tall[cols:2 * cols] = np.eye(cols, dtype=np.int64)
                mats.append(tall)
            for mat in mats:
                # entries negative or at least p, each congruent to mat's
                shifted = mat + p * rng.integers(-3, 4, size=mat.shape)
                R, piv = rref_mod(mat, p)
                expected = len(piv)
                assert rank_mod(shifted, p) == expected, (p, mat.tolist())
                assert rank_mod(shifted.tolist(), p) == expected
                assert len(rref_mod(shifted, p)[1]) == expected
                assert np.array_equal(Subspace(p, cols, shifted).basis, R[:expected])
                if DomainMatrix is not None and rows and cols:
                    dm = DomainMatrix.from_list(mat.tolist(), GF(p))
                    assert dm.rank() == expected, (p, mat.tolist())
    assert rank_mod([[5, 10], [-5, 0]], 5) == 0
    assert rank_mod([[7, 0, 0, 0]] * 3 + [[0, 1, 0, 0]], 7) == 1


def _plain_rank(rows: list[list[int]], p: int) -> int:
    """Gauss-Jordan by columns on plain ints: the image_sum_dim oracle."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for i, row in enumerate(rows):
            if i != rank and row[c]:
                f = row[c] * inv
                rows[i] = [(a - f * b) % p for a, b in zip(row, rows[rank])]
        rank += 1
    return rank


def _plain_image_rank(rep, basis) -> int:
    mats = [f.tolist() for f in rep.matrices]
    images = [
        [sum(a * b for a, b in zip(row, u)) for row in f]
        for u in basis.tolist()
        for f in mats
    ]
    return _plain_rank(images, rep.p)


def test_image_sum_dim_matches_plain_int_rank():
    calls = 0
    for m in range(1, 5):
        quiver = make_kronecker(m)
        for p in (2, 3, 5):
            for d1, d2, seed in product(range(5), range(5), range(2)):
                rep = random_rep(quiver, (d1, d2), p, seed)
                for k in range(d1 + 1):
                    for u in enumerate_subspaces(p, d1, k):
                        assert image_sum_dim(rep, u) == _plain_image_rank(rep, u.basis), (
                            m, p, (d1, d2), seed, u.basis.tolist()
                        )
                        calls += 1
    assert calls == 2 * 5 * 4 * sum(
        gaussian_binomial(n, k, p) for p in (2, 3, 5) for n in range(5) for k in range(n + 1)
    )
    # two reps of one shape, called in turn: each reads its own stacked map
    K2 = make_kronecker(2)
    eye = np.eye(3, dtype=np.int64)
    zero = np.zeros((3, 3), dtype=np.int64)
    swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    reps = [
        FiniteFieldRep(5, K2, (3, 3), (eye, swap)),
        FiniteFieldRep(5, K2, (3, 3), (zero, zero)),
        FiniteFieldRep(5, K2, (3, 3), (eye, eye)),
    ]
    line = Subspace(5, 3, [[1, 0, 0]])
    for _ in range(2):
        assert [image_sum_dim(rep, line) for rep in reps] == [2, 0, 1]
    whole = Subspace(5, 3, eye)
    assert [image_sum_dim(rep, whole) for rep in reps] == [3, 0, 3]


def test_prime_bound():
    # 1048573 is the largest prime below 2**20, 1048583 the smallest above
    assert random_rep(make_kronecker(2), (2, 2), 1048573, 0).p == 1048573
    with pytest.raises(ValueError, match="2\\*\\*20"):
        random_rep(make_kronecker(2), (2, 2), 1048583, 0)
    with pytest.raises(ValueError):
        Subspace(1048583, 2, [[1, 0]])
    # below 2, and the composites whose least factor is past the small
    # primes trial division tries first: 41**2 and 41 * 43
    for p in (0, 1, 1681, 1763):
        with pytest.raises(ValueError, match="prime"):
            random_rep(make_kronecker(2), (2, 2), p, 0)


def test_batch_rank_matches_scalar():
    rng = np.random.Generator(np.random.PCG64(7))
    for p in (2, 3, 5, 101):
        mats = rng.integers(0, p, size=(60, 4, 5), dtype=np.int64)
        ranks = batch_rank(mats, p)
        for mat, r in zip(mats, ranks):
            assert rank_mod(mat, p) == r


def test_batch_rank_large_prime_is_fast():
    # inverses are computed per pivot, not from an O(p) table per call
    p = 1048573
    rng = np.random.Generator(np.random.PCG64(13))
    mats = rng.integers(0, p, size=(40, 4, 5), dtype=np.int64)
    mats[0] = 0
    mats[1, 1:] = mats[1, 0]  # rank 1
    mats[2, 3] = (5 * mats[2, 0] + 7 * mats[2, 1]) % p  # rank 3
    mats[3, :, 4] = (p - 1) * mats[3, :, 0] % p  # dependent column
    start = time.perf_counter()
    ranks = batch_rank(mats, p)
    assert time.perf_counter() - start < 1.0
    assert [rank_mod(mat, p) for mat in mats] == ranks.tolist()
    assert ranks[:3].tolist() == [0, 1, 3]


def test_batch_rank_le_matches_batch_rank():
    rng = np.random.Generator(np.random.PCG64(11))
    for p in (2, 5, 101):
        mats = rng.integers(0, p, size=(80, 3, 4), dtype=np.int64)
        # seed in a few degenerate matrices
        mats[0] = 0
        mats[1, 1:] = mats[1, 0]
        ranks = batch_rank(mats, p)
        for s in range(-1, 4):
            expected = ranks <= s
            assert np.array_equal(batch_rank_le(mats, s, p), expected), (p, s)


def test_subspace_canonicalization_and_contains():
    with pytest.raises(ValueError, match="non-negative"):
        Subspace(5, -1, [])
    a = Subspace(5, 3, [[2, 0, 0], [0, 3, 0]])
    b = Subspace(5, 3, [[1, 0, 0], [1, 1, 0]])
    assert a == b
    assert a.dim == 2
    line = Subspace(5, 3, [[4, 4, 0]])
    assert _contains(a, line)
    assert not _contains(line, a)
    assert (a == "x") is False and repr(a) == "Subspace(p=5, ambient_dim=3, dim=2)"
    # rows of another width, or entries that are not integers, are refused
    # rather than reshaped or truncated
    for n, rows in [(2, [[1, 2, 3, 4]]), (0, [[1]]), (3, [[1, 2]]), (2, [1, 2])]:
        with pytest.raises(ValueError, match=f"width {n}"):
            Subspace(5, n, rows)
    for rows in ([[1.7, 2]], [[True, 2]], np.array([[1.5, 2.0]])):
        with pytest.raises(ValueError, match="not an integer"):
            Subspace(5, 2, rows)
    for n, rows in [(2, []), (2, np.zeros((0, 2))), (0, []), (0, [[]])]:
        assert Subspace(5, n, rows).dim == 0
    assert Subspace(5, 2, np.array([[6, 2]], dtype=np.uint8)) == Subspace(5, 2, [[1, 2]])
    assert Subspace(5, 2, [[2**70, 1]]) == Subspace(5, 2, [[4, 1]])  # past int64


def test_rep_validation():
    K2 = make_kronecker(2)
    with pytest.raises(ValueError):
        FiniteFieldRep(4, K2, (2, 2), (np.eye(2, dtype=np.int64),) * 2)
    with pytest.raises(ValueError):
        FiniteFieldRep(2, K2, (2, 2), (np.eye(2, dtype=np.int64),))
    with pytest.raises(ValueError):
        FiniteFieldRep(2, K2, (2, 2), (np.eye(3, dtype=np.int64), np.eye(2, dtype=np.int64)))
    with pytest.raises(ValueError):
        FiniteFieldRep(2, K2, (2, 2), (np.full((2, 2), 2), np.eye(2, dtype=np.int64)))
    # an int64 cast would read 1.7 as 1 and True as 1: floats and bools raise
    ones = [[1, 0], [0, 1]]
    for bad in (
        np.array([[1.7, 0], [0, 1]]),
        np.eye(2),
        np.eye(2, dtype=bool),
        [[1.7, 0], [0, 1]],
        [[True, 0], [0, 1]],
        [[np.True_, 0], [0, 1]],
        [["1", 0], [0, 1]],
        [[2**70, 0], [0, 1]],
    ):
        with pytest.raises(ValueError):
            FiniteFieldRep(5, K2, (2, 2), (bad, ones))
    rep = FiniteFieldRep(5, K2, (2, 2), ([[np.int64(4), 0], [0, 1]], np.eye(2, dtype=np.uint8)))
    assert [f.tolist() for f in rep.matrices] == [[[4, 0], [0, 1]], ones]
    assert all(f.dtype == np.int64 for f in rep.matrices)
    empty = FiniteFieldRep(5, K2, (0, 2), (np.zeros((2, 0)), [[], []]))
    assert [f.shape for f in empty.matrices] == [(2, 0), (2, 0)]


def test_from_dict_names_the_missing_or_ill_typed_field():
    good = random_rep(make_kronecker(2), (1, 2), 5, 0).to_dict()
    assert FiniteFieldRep.from_dict(good).dim == (1, 2)
    for d in ((0, 2), (2, 0), (0, 0)):
        rep = random_rep(make_kronecker(2), d, 5, 0)
        assert FiniteFieldRep.from_dict(rep.to_dict()).dim == d

    def bad(**fields):
        return {**good, **fields}

    cases = [
        ([1], "JSON object"),
        ({"p": 5}, "'quiver'"),
        ({k: v for k, v in good.items() if k != "p"}, "'p'"),
        ({k: v for k, v in good.items() if k != "matrices"}, "'matrices'"),
        (bad(p="5"), "'p'"),
        (bad(p=True), "'p'"),
        (bad(quiver=3), "'quiver'"),
        (bad(quiver={"arrows": [[1, 2]]}), "'quiver.vertices'"),
        (bad(quiver={"vertices": 2, "arrows": [1, 2]}), "'quiver.arrows'"),
        (bad(quiver={"vertices": 2, "arrows": [[1, 2.0]]}), "'quiver.arrows'"),
        (bad(dim=5), "'dim'"),
        (bad(dim=[1.5, 2]), "'dim'"),
        (bad(matrices=5), "'matrices'"),
        (bad(matrices=[[[1], [2]]]), "'matrices'"),
        (bad(matrices=[[[1.7], [2]], [[3], [4]]]), "not an integer"),
        (bad(matrices=[[[1], [True]], [[3], [4]]]), "not an integer"),
        # a matrix written in another shape is refused, not reshaped
        (bad(matrices=[[[1, 2]], [[3], [4]]]), "shape"),
        (bad(matrices=[[[1], [2], [3]], [[3], [4]]]), "shape"),
    ]
    for data, message in cases:
        with pytest.raises(ValueError, match=message):
            FiniteFieldRep.from_dict(data)


def test_image_sum_dim_examples():
    rep = _companion_rep()
    whole = Subspace(2, 2, np.eye(2, dtype=np.int64))
    ident_rep = FiniteFieldRep(
        2, make_kronecker(2), (2, 2), (np.eye(2, dtype=np.int64),) * 2
    )
    for u in enumerate_subspaces(2, 2, 1):
        assert image_sum_dim(ident_rep, u) == u.dim
    assert image_sum_dim(ident_rep, whole) == 2
    assert image_sum_dim(rep, Subspace(2, 2, [[1, 0]])) == 2
    assert image_sum_dim(rep, Subspace(2, 2, np.zeros((0, 2), dtype=np.int64))) == 0
    # only a K(m) source subspace has an image sum
    two_sources = random_rep(Quiver(3, ((1, 2), (3, 2))), (1, 1, 1), 5, 0)
    with pytest.raises(ValueError, match="not over a generalized Kronecker quiver"):
        image_sum_dim(two_sources, Subspace(5, 1, [[1]]))
    with pytest.raises(ValueError, match="source space"):
        image_sum_dim(random_rep(make_kronecker(2), (2, 2), 5, 0), Subspace(5, 3, [[1, 0, 0]]))


def test_is_expander_rep_companion_example():
    rep = _companion_rep()
    assert is_expander_rep(rep, ExpanderParams(HALF, Fraction(38, 100))).ok
    verdict = is_expander_rep(rep, ExpanderParams(HALF, Fraction(101, 100)))
    assert not verdict.ok
    assert verdict.witness.basis.tolist() == [[1, 0]]  # first line in canonical order


def test_is_expander_rep_identity_pair_fails():
    rep = FiniteFieldRep(2, make_kronecker(2), (2, 2), (np.eye(2, dtype=np.int64),) * 2)
    verdict = is_expander_rep(rep, ExpanderParams(HALF, Fraction(1, 100)))
    assert not verdict.ok
    assert verdict.witness.dim == 1


def test_is_expander_rep_budget():
    rep = random_rep(make_kronecker(2), (12, 12), 5, 0)
    with pytest.raises(BudgetExceededError):
        is_expander_rep(rep, ExpanderParams(HALF, HALF), budget=10**6)


def test_budget_error_names_its_phase():
    rep = random_rep(make_kronecker(2), (12, 12), 5, 0)
    calls = [
        ("enumerate", lambda: enumerate_subspaces(101, 4, 2)),
        ("frontier", lambda: is_expander_rep(rep, ExpanderParams(HALF, HALF), budget=10**6)),
        ("subrep", lambda: has_subrep_of_dim(rep, (6, 6), budget=10)),
    ]
    for phase, call in calls:
        with pytest.raises(BudgetExceededError) as info:
            call()
        exc = info.value
        assert exc.phase == phase
        assert exc.spent > exc.limit
        assert f"{phase} budget exceeded" in str(exc)
        assert f"spent {exc.spent} > limit {exc.limit}" in str(exc)
    assert info.value.limit == 10


def test_is_expander_rep_budget_charges_frontier_levels():
    # K(3) F_7: one charge of the 400 lines; no line is a candidate at j = 1;
    # at j = 2 every line is (400 1-planes), then the first batch: it holds
    # the witness and, as batches run across pivot sets, all 2850 2-planes
    # of F_7^4 (the batch takes 2**18 // (2 * 3 * 4) = 10922), so
    # 400 + 400 + 2850 = 3650.
    # K(2) F_59: no line is a candidate at j = 1; at j = 2 every line is and
    # no plane violates, so the 3541 lines, then 3541 1-planes and all 3541
    # 2-planes of F_59^3: each level's subspace count, not lines * lines
    # K(3) F_101 at s = 1, 2, below the 3 arrows: the 10,303 members of
    # the arrow pencil, then the 83 singular members' one kernel line
    # each; those 83 lines are every line of image rank 2, so no candidate
    # at j = 1 and 83 at j = 2, which extend to no plane tested: 10,469
    # where the full listing would charge 1,040,604 lines
    # K(3) (6, 6) F_3 at j = 3: the 364 lines; no candidate at (1, 1); 6
    # candidates and 6 planes at (2, 2); at (3, 4) every line is a
    # candidate, level 2 of 3 tests only the 1,210 planes leading at column
    # 1 or later (the 2-planes of coordinates 1..5), not all 11,011 2-planes
    # of F_3^6, and level 3 tests 873 planes: 364 + 12 + 364 + 1,210 + 873
    cases = [
        (make_kronecker(3), (4, 4), 7, 0, HALF, Fraction(9, 10), 3_650, False),
        (make_kronecker(2), (3, 3), 59, 3, Fraction(2, 3), Fraction(1, 10), 10_623, True),
        (make_kronecker(3), (4, 4), 101, 0, HALF, Fraction(19, 50), 10_469, True),
        (make_kronecker(3), (6, 6), 3, 0, HALF, Fraction(19, 50), 2_823, True),
    ]
    for quiver, d, p, seed, delta, eps, charge, ok in cases:
        rep = random_rep(quiver, d, p, seed)
        params = ExpanderParams(delta, eps)
        verdict = is_expander_rep(rep, params, budget=charge)
        assert verdict.ok == ok and (ok or verdict.witness.dim == 2)
        with pytest.raises(BudgetExceededError):
            is_expander_rep(rep, params, budget=charge - 1)


def test_frontier_batches_do_not_change_verdicts(monkeypatch):
    # the frontier tests image ranks in batches; any batch size must give
    # the same verdict and witness, the first violating plane
    import quivex.finfield as ff

    cases = [
        (make_kronecker(3), (4, 4), 7, Fraction(9, 10)),
        (make_kronecker(3), (6, 6), 2, Fraction(38, 100)),
        (make_kronecker(2), (4, 4), 3, Fraction(1, 2)),
    ]
    reps = [(random_rep(q, d, p, seed), eps) for q, d, p, eps in cases for seed in range(2)]
    expected = [is_expander_rep(rep, ExpanderParams(HALF, eps)) for rep, eps in reps]
    for entries in (1, 100, 5_000):
        monkeypatch.setattr(ff, "_BATCH_ENTRIES", entries)
        for (rep, eps), want in zip(reps, expected):
            got = is_expander_rep(rep, ExpanderParams(HALF, eps))
            assert (got.ok, got.witness) == (want.ok, want.witness), (rep.dim, rep.p, entries)


def test_frontier_eliminates_once_per_level(monkeypatch):
    # with batches wide enough for a whole level, a decision runs both
    # phases of the kernel once on the line images, which every bound
    # shares: a forward pass on every line and a back-substitution on the
    # lines within the largest bound (here all 364, as no line's image rank
    # passes 3 < 4); then, per searched j, one forward pass per frontier
    # level it tests (levels 2..j) and one back-substitution per level that
    # keeps planes for the next (levels 2..j-1), on the kept pairs alone
    import quivex.finfield as ff

    events = []
    forward, back, scan = ff._forward, ff._back_substitute, ff._frontier_scan

    def forward_pass(M, p):
        events.append(("forward", len(M)))
        return forward(M, p)

    def back_substitution(E, pivots, p):
        events.append(("back", len(E)))
        return back(E, pivots, p)

    def recorded(p, lines, s, budget, draws):
        events.append(("scan", len(draws)))
        return scan(p, lines, s, budget, draws)

    def unused(*args):
        raise AssertionError("batch_rank_le is not on the frontier's path")

    monkeypatch.setattr(ff, "_BATCH_ENTRIES", 1 << 30)
    monkeypatch.setattr(ff, "_forward", forward_pass)
    monkeypatch.setattr(ff, "_back_substitute", back_substitution)
    monkeypatch.setattr(ff, "_frontier_scan", recorded)
    monkeypatch.setattr(ff, "batch_rank_le", unused)
    params = ExpanderParams(HALF, Fraction(19, 50))
    lines = gaussian_binomial(6, 1, 3)
    for seed in range(4):
        rep = random_rep(make_kronecker(3), (6, 6), 3, seed)
        events.clear()
        is_expander_rep(rep, params)
        assert events[:2] == [("forward", lines), ("back", lines)], seed
        scans = [j for kind, j in events if kind == "scan"]
        expected = ["forward", "back"]
        for j in scans:
            expected += ["scan"] + ["forward", "back"] * (j - 2) + ["forward"] * (j > 1)
        assert [kind for kind, _ in events] == expected, (seed, events)
        assert scans[-1] == 3, (seed, scans)
        # each back-substitution takes only the pairs its forward pass kept
        frontier = [e for e in events[2:] if e[0] != "scan"]
        for (_, tested), (kind, kept) in zip(frontier, frontier[1:]):
            if kind == "back":
                assert kept <= tested, (seed, events)
        tested = sum(n for kind, n in frontier if kind == "forward")
        assert sum(n for kind, n in frontier if kind == "back") < tested, (seed, events)


def test_has_subrep_examples():
    rep = _companion_rep()
    assert has_subrep_of_dim(rep, (0, 1))
    assert has_subrep_of_dim(rep, (0, 2))
    assert not has_subrep_of_dim(rep, (1, 1))  # no eigenline over F_2
    assert has_subrep_of_dim(rep, (2, 2))
    with pytest.raises(ValueError):
        has_subrep_of_dim(rep, (3, 1))


def test_has_subrep_matches_image_criterion():
    # for two-vertex quivers the search reduces to: some U1 with small image
    for seed in range(3):
        rep = random_rep(make_kronecker(2), (3, 3), 3, seed)
        for e1, e2 in product(range(4), repeat=2):
            expected = any(
                image_sum_dim(rep, u) <= e2 for u in enumerate_subspaces(3, 3, e1)
            )
            assert has_subrep_of_dim(rep, (e1, e2)) == expected, (seed, e1, e2)


def test_kronecker_subrep_matches_backtrack_and_sweep():
    # every e <= d of K(1)-K(4), d <= (4, 4), p in {2, 3, 5}, seeds 0-1: the
    # frontier path agrees with the backtracker it replaced on K(m) and with
    # a sweep of every e1-plane's image rank
    checked = 0
    for m, p, seed in product(range(1, 5), (2, 3, 5), range(2)):
        for d1, d2 in product(range(1, 5), repeat=2):
            rep = random_rep(make_kronecker(m), (d1, d2), p, seed)
            least = [
                min(image_sum_dim(rep, u) for u in enumerate_subspaces(p, d1, e1))
                for e1 in range(d1 + 1)
            ]
            for e in product(range(d1 + 1), range(d2 + 1)):
                got = has_subrep_of_dim(rep, e)
                assert got == _backtrack(rep, e, _Budget(10**7, "subrep")), (m, p, seed, e)
                assert got == (least[e[0]] <= e[1]), (m, p, seed, e)
                checked += 1
    assert checked == 4704


def test_one_sink_quivers_take_the_frontier(monkeypatch):
    # every arrow of reversed K(2) (2 -> 1) and of the bipartite quiver ends
    # at one vertex, so has_subrep_of_dim takes the one-sink rules and the
    # frontier, each level drawing from one source's block of coordinates;
    # reversed K(2) still agrees with K(2) on the same matrices with the
    # vertices swapped.  Every arrow of 1 -> 2, 1 -> 3 starts at one vertex,
    # so it takes the same rules on its opposite at d - e.  The length-2
    # path, 1 -> 3 <- 2 -> 4 and a quiver with no arrows still backtrack.
    import quivex.finfield as ff

    backtracked, sunk, scanned = [], [], []
    backtrack, one_sink, scan = ff._backtrack, ff._one_sink_subrep, ff._frontier_scan

    def spy_backtrack(rep, ev, tracker):
        backtracked.append(ev)
        return backtrack(rep, ev, tracker)

    def spy_one_sink(rep, e, tracker):
        sunk.append((rep.quiver.arrows, e))
        return one_sink(rep, e, tracker)

    def spy_scan(p, lines, s, budget, draws):
        scanned.append(draws)
        return scan(p, lines, s, budget, draws)

    monkeypatch.setattr(ff, "_backtrack", spy_backtrack)
    monkeypatch.setattr(ff, "_one_sink_subrep", spy_one_sink)
    monkeypatch.setattr(ff, "_frontier_scan", spy_scan)
    rep = random_rep(Quiver(2, ((2, 1), (2, 1))), (3, 2), 3, 0)
    swapped = FiniteFieldRep(3, make_kronecker(2), (2, 3), rep.matrices)
    for e in product(range(4), range(3)):
        scanned.clear()
        assert has_subrep_of_dim(rep, e) == backtrack(swapped, e[::-1], _Budget(10**7, "")), e
        # only (1, 1) reaches the frontier: e_2 = 0 drops vertex 2, e_2 = 2
        # forces it, (0, 1) is one rank at bound 0, and at (2, 1) and (3, 1)
        # two arrows from a line span at most e_1
        assert scanned == ([[(0, 2, 2)]] if e == (1, 1) else []), e
    # vertex 1 is coordinates 0-2 and vertex 3 coordinates 3-7: vertex 3's
    # e_3 levels come first
    rep = random_rep(BIPARTITE, (3, 6, 5), 3, 0)
    routes = [((1, 2, 1), [(3, 8, 3), (0, 3, 1)]), ((2, 4, 4), [(3, 8, 3)] * 4 + [(0, 3, 1)] * 2)]
    for e, want in routes:
        scanned.clear()
        assert has_subrep_of_dim(rep, e) == backtrack(rep, e, _Budget(10**7, "")), e
        assert scanned == [want], e
    assert backtracked == []
    # on the opposite 2 -> 1, 3 -> 1, (1, 1, 1) of (2, 2, 2) forces both
    # sources, one rank; (2, 1, 1) of (3, 2, 2) leaves one level at each of
    # vertices 2 and 3, coordinates 0-1 and 2-3, vertex 3's first
    one_source = parse_quiver("vertices 3\n1 -> 2\n1 -> 3\n")
    routes = [((2, 2, 2), (1, 1, 1), []), ((3, 2, 2), (2, 1, 1), [[(2, 4, 3), (0, 2, 2)]])]
    for d, e, want in routes:
        sunk.clear()
        scanned.clear()
        rep = random_rep(one_source, d, 2, 0)
        assert has_subrep_of_dim(rep, e) == backtrack(rep, e, _Budget(10**7, "")), e
        assert (sunk, scanned) == ([(((2, 1), (3, 1)), (1, 1, 1))], want), e
    assert backtracked == []
    others = [
        (parse_quiver("vertices 3\n1 -> 2\n2 -> 3\n"), (2, 2, 2), (1, 1, 1)),
        (parse_quiver("vertices 4\n1 -> 3\n2 -> 3\n2 -> 4\n"), (2, 2, 2, 2), (1, 1, 1, 1)),
        (Quiver(2, ()), (2, 2), (1, 1)),
    ]
    for quiver, d, e in others:
        backtracked.clear()
        sunk.clear()
        scanned.clear()
        assert has_subrep_of_dim(random_rep(quiver, d, 2, 0), e)
        assert (backtracked, sunk, scanned) == ([e], [], []), quiver


def test_kronecker_subrep_searches_the_side_with_fewer_levels(monkeypatch):
    # trivially true cases charge nothing, and one arrow, a full source or
    # a zero target costs one rank; neither runs a frontier.  Otherwise the
    # frontier searches the dual at j = d2 - e2 when that is below e1, else
    # the representation itself at j = e1.
    import quivex.finfield as ff

    budgets, scans = [], []

    class Recorded(_Budget):
        def __init__(self, *args):
            super().__init__(*args)
            budgets.append(self)

    scan = ff._frontier_scan

    def spy(p, lines, s, budget, draws):
        scans.append((lines[0].shape[1], s, len(draws)))
        return scan(p, lines, s, budget, draws)

    monkeypatch.setattr(ff, "_Budget", Recorded)
    monkeypatch.setattr(ff, "_frontier_scan", spy)
    rep = random_rep(make_kronecker(2), (3, 3), 5, 0)
    for e in [(3, 1), (1, 0)]:
        scans.clear()
        assert has_subrep_of_dim(rep, e) == _backtrack(rep, e, _Budget(10**7, "subrep"))
        assert (scans, budgets[-1].spent) == ([], 1), e
    routes = set()
    reps = [(2, (3, 3), 5), (3, (4, 3), 2), (2, (2, 5), 3), (4, (5, 4), 2), (1, (4, 4), 3)]
    for m, d, p in reps:
        rep = random_rep(make_kronecker(m), d, p, 1)
        d1, d2 = d
        for e1, e2 in product(range(d1 + 1), range(d2 + 1)):
            scans.clear()
            got = has_subrep_of_dim(rep, (e1, e2))
            assert got == _backtrack(rep, (e1, e2), _Budget(10**7, "subrep"))
            if e1 == 0 or e2 == d2 or e2 >= m * e1 or d1 - e1 >= m * (d2 - e2):
                route, want = "trivial", ([], 0)
            elif m == 1 or e1 == d1 or e2 == 0:
                route, want = "rank", ([], 1)
            elif d2 - e2 < e1:
                route, want = "dual", ([(d2, d1 - e1, d2 - e2)], None)
            else:
                route, want = "primal", ([(d1, e2, e1)], None)
            assert scans == want[0], (m, d, e1, e2)
            assert want[1] is None or budgets[-1].spent == want[1], (m, d, e1, e2)
            routes.add(route)
    assert routes == {"trivial", "rank", "dual", "primal"}


def test_pencil_lines_match_the_full_listing(monkeypatch):
    # Below the arrow count a, a line's a images are dependent exactly when
    # a member sum c_k f_k of the arrow pencil kills it.  On K(2)-K(4) over
    # F_2-F_7, _pencil_lines returns exactly the full listing's lines of
    # image rank below a.  _line_ranks takes the pencil only for a block of
    # at least _PENCIL_MIN_LINES lines: the draws below that cut are listed
    # and charged in full, the one above it (K(2) (5, 5) over F_7, 2,801
    # lines) is charged the pencil's members and kernel lines, far fewer.
    # Either way every bound s < a gives the full listing's lines of rank
    # at most s, in the same order and with the same reduced image rows
    # and pivots.  With the pencil taken for every block (the cut at
    # 0) is_expander_rep gives the same verdicts and witnesses, and
    # has_subrep_of_dim the same answers for every e, as with the full
    # listing alone.  The draws cover d1 > d2, where every member is
    # singular; d1 <= d2; a kernel of dimension 2 or more; and no singular
    # member, so no candidate.  When the kernel lines, counted once per
    # member, are not fewer than the lines, the block is listed in full
    # after the members' charge.
    import quivex.finfield as ff

    def answers(rep):
        verdicts = [is_expander_rep(rep, params) for params in expanders]
        found = [has_subrep_of_dim(rep, e) for e in product(*(range(x + 1) for x in rep.dim))]
        return [(v.ok, v.witness) for v in verdicts], found

    expanders = [ExpanderParams(HALF, Fraction(19, 50)), ExpanderParams(Fraction(2, 3), HALF)]
    draws = [
        (2, 2, (5, 3), 0),
        (2, 7, (3, 3), 0),
        (3, 2, (6, 5), 0),
        (3, 3, (5, 4), 1),
        (3, 5, (4, 4), 0),
        (3, 7, (4, 6), 0),
        (4, 2, (6, 6), 1),
        (4, 3, (5, 5), 0),
        (2, 7, (5, 5), 0),
    ]
    shapes, cut = set(), ff._PENCIL_MIN_LINES
    for m, p, (d1, d2), seed in draws:
        rep = random_rep(make_kronecker(m), (d1, d2), p, seed)
        maps = [f.T for f in rep.matrices]
        count = gaussian_binomial(d1, 1, p)
        full = ff._line_ranks(p, [maps], _Budget(10**7, ""), m)  # bound m: listed in full
        ranks = (full[2] >= 0).sum(axis=1)
        assert full[0].tolist() == [u.basis[0].tolist() for u in enumerate_subspaces(p, d1, 1)]
        tracker = _Budget(10**7, "")
        gens = ff._pencil_lines(p, maps, tracker)
        assert np.array_equal(gens, full[0][ranks < m])
        # the members are listed in chunks, and a chunk may end inside them
        for entries in (1, 64):
            with monkeypatch.context() as patch:
                patch.setattr(ff, "_BATCH_ENTRIES", entries)
                chunked = _Budget(10**7, "")
                assert np.array_equal(ff._pencil_lines(p, maps, chunked), gens), (m, p, entries)
            assert chunked.spent == tracker.spent, (m, p, d1, d2, entries)
        for s in range(m):
            tracker = _Budget(10**7, "")
            lines = ff._line_ranks(p, [maps], tracker, s)
            if count < cut:
                assert tracker.spent == count, (m, p, d1, d2, s)
            else:
                assert tracker.spent < count, (m, p, d1, d2, s)
            assert len(lines) == 3, (m, p, d1, d2, s)
            for mine, theirs in zip(lines, full):
                assert np.array_equal(mine, theirs[ranks <= s]), (m, p, d1, d2, s)
        kernels = [
            d1 - rank_mod(sum(int(c) * f for c, f in zip(u.basis[0], rep.matrices)), p)
            for u in enumerate_subspaces(p, m, 1)
        ]
        shapes.add("d1 > d2" if d1 > d2 else "d1 <= d2")
        shapes.add("above the cut" if count >= cut else "below the cut")
        shapes.update(
            shape
            for shape, seen in [
                ("every member singular", min(kernels) > 0),
                ("kernel of dim >= 2", max(kernels) >= 2),
                ("no singular member", max(kernels) == 0),
            ]
            if seen
        )
        want = answers(rep)
        with monkeypatch.context() as patch:
            patch.setattr(ff, "_PENCIL_MIN_LINES", 0)
            assert answers(rep) == want, (m, p, d1, d2)
            patch.setattr(ff, "_pencil_lines", lambda *args: None)
            assert answers(rep) == want, (m, p, d1, d2)
    assert shapes == {
        "d1 > d2",
        "d1 <= d2",
        "below the cut",
        "above the cut",
        "every member singular",
        "kernel of dim >= 2",
        "no singular member",
    }
    # above the cut both searches still list their lines from the pencil,
    # and answer as the full listing does: is_expander_rep at delta 1/5,
    # whose one level is j = 1 at bound 1, and has_subrep_of_dim at
    # e = (2, 1), bound 1, both below the 2 arrows
    pencils = []
    pencil_lines = ff._pencil_lines

    def spy(*args):
        gens = pencil_lines(*args)
        pencils.append(gens is not None)
        return gens

    rep, params = random_rep(make_kronecker(2), (5, 5), 7, 0), ExpanderParams(Fraction(1, 5), HALF)
    with monkeypatch.context() as patch:
        patch.setattr(ff, "_pencil_lines", lambda *args: None)
        want = is_expander_rep(rep, params)
        assert has_subrep_of_dim(rep, (2, 1)) is False
    monkeypatch.setattr(ff, "_pencil_lines", spy)
    got = is_expander_rep(rep, params)
    assert (got.ok, got.witness) == (want.ok, want.witness) and not got.ok
    assert has_subrep_of_dim(rep, (2, 1)) is False
    assert pencils == [True, True]
    monkeypatch.setattr(ff, "_pencil_lines", pencil_lines)
    # K(4) (5, 2) over F_2: 15 members, each killing at least 7 lines, and
    # only 31 lines; K(3) (4, 3), seed 3: 7 members that kill 15 lines,
    # counted once per member, as many as there are.  So with the cut at 0
    # both list every line, charged the members and then the lines; at the
    # cut they are charged the lines alone
    for m, d, seed, members, count in [(4, (5, 2), 0, 15, 31), (3, (4, 3), 3, 7, 15)]:
        maps = [f.T for f in random_rep(make_kronecker(m), d, 2, seed).matrices]
        assert ff._pencil_lines(2, maps, _Budget(10**7, "")) is None
        full = ff._line_ranks(2, [maps], _Budget(10**7, ""), m)
        ranks = (full[2] >= 0).sum(axis=1)
        assert len(full[0]) == count, (m, d)
        for cut, charge in [(0, members + count), (ff._PENCIL_MIN_LINES, count)]:
            with monkeypatch.context() as patch:
                patch.setattr(ff, "_PENCIL_MIN_LINES", cut)
                tracker = _Budget(10**7, "")
                lines = ff._line_ranks(2, [maps], tracker, 1)
            assert tracker.spent == charge, (m, d, cut)
            assert np.array_equal(lines[0], full[0][ranks <= 1]), (m, d, cut)


def test_pencil_answers_where_the_lines_pass_the_budget():
    # K(3) (5, 5) over F_101 has 105,101,005 lines, past the default
    # budget, so a full listing refuses at once; its arrow pencil has
    # 10,303 members, and at bounds below 3 both searches answer
    rep = random_rep(make_kronecker(3), (5, 5), 101, 0)
    start = time.perf_counter()
    assert is_expander_rep(rep, ExpanderParams(HALF, Fraction(19, 50))).ok
    assert has_subrep_of_dim(rep, (2, 2)) is False
    assert time.perf_counter() - start < 2.0


def test_full_listing_memory_is_bounded_at_a_large_prime():
    # K(3) (2, 2) over F_1048573: 1,048,574 lines, listed in full (the 3
    # arrows are not below the 2 source coordinates), built and eliminated
    # in chunks of at most _BATCH_ENTRIES image entries that keep only the
    # lines within the bound.  Both searches answer as when every line was
    # eliminated in one array, whose traced peak was 361 MiB; now it stays
    # below 64 MiB.  K(3) (5, 5) over F_1009 lists the 1,019,091 members of
    # its arrow pencil the same way, keeping only those that kill a line:
    # 529 MiB when they were reduced in one array, now below 32 MiB
    for d, p, e, mib in [((2, 2), 1048573, (1, 1), 64), ((5, 5), 1009, (2, 2), 32)]:
        rep = random_rep(make_kronecker(3), d, p, 0)
        tracemalloc.start()
        try:
            assert is_expander_rep(rep, ExpanderParams(HALF, Fraction(19, 50))).ok
            assert has_subrep_of_dim(rep, e) is False
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20, (p, peak)


def _frontier_charge(rep, j, s):
    # what a frontier that finds no j-plane within s charges, counted by
    # enumeration: the lines, or, at s below the arrow count m < n with at
    # least _PENCIL_MIN_LINES lines, the members of the arrow pencil and
    # then each member's kernel lines (the lines, if those are not
    # fewer); the candidate lines; and at
    # each level i >= 2 every i-plane whose first RREF row spans a
    # candidate line and leads at column j - i or later, leaving a column
    # for each row still to come, and whose other rows span a plane
    # within s
    p, n, m = rep.p, rep.dim[0], len(rep.matrices)

    def within(rows):
        return image_sum_dim(rep, Subspace(p, n, rows)) <= s

    lines = list(enumerate_subspaces(p, n, 1))
    total = len(lines)
    if s < m < n and total >= _PENCIL_MIN_LINES:
        members = [
            sum(int(c) * f for c, f in zip(u.basis[0], rep.matrices))
            for u in enumerate_subspaces(p, m, 1)
        ]
        killed = sum(not (f @ v.basis[0] % p).any() for f in members for v in lines)
        total = len(members) + min(killed, total)
    total += sum(within(u.basis) for u in lines)
    for i in range(2, j + 1):
        planes = enumerate_subspaces(p, n, i)
        total += sum(
            w.pivots[0] >= j - i and within(w.basis[:1]) and within(w.basis[1:])
            for w in planes
        )
    return total


def test_kronecker_subrep_budget_charges_frontier():
    # K(3) (6, 6) over F_2, seed 0, has no subrep of dimension (3, 3),
    # searched on the representation at j = 3, s = 3, nor of dimension
    # (4, 3), searched on the dual at j = 3, s = 2.  Each charges its 63
    # lines: the second is below the 3 arrows, but 63 lines are fewer than
    # _PENCIL_MIN_LINES, so it lists them all rather than the 7 members of
    # the arrow pencil and their 8 kernel lines.  Then each charges its
    # candidates and every plane tested at or after its level's floor, and
    # nothing else: 281 and 71.
    rep = random_rep(make_kronecker(3), (6, 6), 2, 0)
    cases = [((3, 3), rep, 3, 3, 281), ((4, 3), _transposed(rep), 3, 2, 71)]
    for e, searched, j, s, charge in cases:
        assert _frontier_charge(searched, j, s) == charge, e
        assert not has_subrep_of_dim(rep, e, budget=charge)
        with pytest.raises(BudgetExceededError) as info:
            has_subrep_of_dim(rep, e, budget=charge - 1)
        assert info.value.phase == "subrep", e


THREE_SOURCES = Quiver(4, ((1, 4), (2, 4), (2, 4), (3, 4), (3, 4), (3, 4)))
REVERSED_K2 = Quiver(2, ((2, 1), (2, 1)))
INTO_1 = Quiver(3, ((2, 1), (3, 1)))  # 2 -> 1 <- 3
OUT_OF_1 = Quiver(3, ((1, 2), (1, 2), (1, 3), (1, 3)))  # 1 => 2, 1 => 3
THREE_SINKS = Quiver(4, ((1, 2), (1, 3), (1, 4)))


def test_one_sink_subrep_matches_backtrack():
    # the one-sink rules and frontier against the backtracker: every e <= d
    # on the bipartite quiver over F_2 and F_3, seeds 0-2; sources with 1, 2
    # and 3 arrows into one sink, whose line images are padded to 3 rows;
    # the benchmark pool's bipartite e at (3, 6, 5), seeds 0-4; every e of
    # bipartite (3, 6, 4) over F_3, seed 0, whose frontiers draw up to 5
    # levels from both sources, each leading at or after its floor; and every
    # e <= d over F_2 and F_3, seeds 0-1, on reversed K(2) and on 2 -> 1 <- 3,
    # where a free source of one arrow is ranked next to a forced one, and
    # on the one-source quivers 1 => 2, 1 => 3 and 1 -> 2, 1 -> 3, 1 -> 4,
    # decided on their opposites
    bipartite = [(2, 3, 2), (3, 4, 2), (2, 4, 3), (3, 6, 3), (1, 3, 3), (3, 3, 0)]
    cases = [
        (BIPARTITE, d, p, seed, product(*(range(x + 1) for x in d)))
        for d, p, seed in product(bipartite, (2, 3), range(3))
    ]
    cases += [
        (THREE_SOURCES, d, p, 0, product(*(range(x + 1) for x in d)))
        for d, p in [((1, 2, 2, 4), 2), ((2, 1, 2, 4), 3), ((2, 2, 1, 5), 2)]
    ]
    pool = {2: [(3, 5, 1), (2, 4, 4), (1, 2, 1), (0, 1, 3), (1, 4, 4), (3, 6, 4)]}
    pool[3] = [(3, 5, 1), (1, 2, 1), (0, 1, 3), (3, 6, 4)]
    cases += [(BIPARTITE, (3, 6, 5), p, seed, es) for p, es in pool.items() for seed in range(5)]
    cases += [(BIPARTITE, (3, 6, 4), 3, 0, product(range(4), range(7), range(5)))]
    small = [(REVERSED_K2, d) for d in [(3, 2), (4, 3), (2, 3)]]
    small += [(INTO_1, d) for d in [(5, 3, 2), (4, 2, 3), (3, 2, 2)]]
    small += [(OUT_OF_1, d) for d in [(3, 2, 2), (4, 3, 2), (2, 2, 3)]]
    small += [(THREE_SINKS, d) for d in [(3, 2, 2, 1), (4, 2, 1, 2), (2, 2, 2, 2)]]
    cases += [
        (quiver, d, p, seed, product(*(range(x + 1) for x in d)))
        for (quiver, d), p, seed in product(small, (2, 3), range(2))
    ]
    checked = admitted = 0
    for quiver, d, p, seed, es in cases:
        rep = random_rep(quiver, d, p, seed)
        for e in es:
            got = has_subrep_of_dim(rep, e)
            assert got == _backtrack(rep, e, _Budget(10**7, "subrep")), (d, p, seed, e)
            checked += 1
            admitted += got
    assert checked == 1896 + 288 + 50 + 140 + 176 + 672 + 528 + 972
    assert 0 < admitted < checked


def test_a_floor_may_empty_a_frontier_level():
    # vertex 3's maps are I and diag(1, C), C irreducible over F_2, so its
    # only line of image rank 1 is (1, 0, 0).  It leads at its block's
    # first column, below level 1's floor at e_3 = 2, so at e_2 = 1 level
    # 1 keeps no plane; at e_2 = 2 the floor keeps the lines that lead
    # later, and the search finds a subrepresentation
    g = np.eye(3, dtype=np.int64)
    g[1:, 1:] = [[0, 1], [1, 1]]
    ones = np.ones((3, 2), dtype=np.int64)
    rep = FiniteFieldRep(2, BIPARTITE, (2, 3, 3), (ones, ones, np.eye(3, dtype=np.int64), g))
    lines = [u.basis for u in enumerate_subspaces(2, 3, 1)]
    assert [u.tolist() for u in lines if rank_mod(np.concatenate([u, u @ g.T]), 2) == 1] == [
        [[1, 0, 0]]
    ]
    for e, want in [((0, 1, 2), False), ((1, 1, 2), False), ((1, 2, 2), True)]:
        assert has_subrep_of_dim(rep, e) == _backtrack(rep, e, _Budget(10**7, "subrep")) == want


def test_one_sink_rules_charge_nothing_or_one_rank_each(monkeypatch):
    # off K(m): e_t >= sum a_s e_s, or d_s - e_s >= a_s (d_t - e_t) at every
    # source with e_s > 0, is true with no rank and no charge.  Otherwise
    # the forced sources' span is one rank, and so is each free source at
    # bound 0 (after forcing) or when one free source of one arrow is left;
    # each rank charges 1, and only the remaining inputs reach the frontier.
    import quivex.finfield as ff

    budgets, ranks, scans = [], [], []

    class Recorded(_Budget):
        def __init__(self, *args):
            super().__init__(*args)
            budgets.append(self)

    rank, basis, scan = ff.rank_mod, ff._rref_rows, ff._frontier_scan

    def spy_rank(mat, p):
        ranks.append(1)
        return rank(mat, p)

    def spy_basis(mat, p):
        ranks.append(1)
        return basis(mat, p)

    def spy_scan(*args):
        scans.append(1)
        return scan(*args)

    monkeypatch.setattr(ff, "_Budget", Recorded)
    monkeypatch.setattr(ff, "rank_mod", spy_rank)
    monkeypatch.setattr(ff, "_rref_rows", spy_basis)
    monkeypatch.setattr(ff, "_frontier_scan", spy_scan)
    reps = [(REVERSED_K2, (3, 2), 3), (INTO_1, (5, 3, 2), 2), (INTO_1, (4, 2, 3), 3)]
    reps += [(BIPARTITE, (2, 4, 3), 2), (THREE_SOURCES, (2, 2, 1, 5), 3)]
    routes = set()
    for quiver, d, p in reps:
        rep, t = random_rep(quiver, d, p, 0), quiver.one_sink
        for e in product(*(range(x + 1) for x in d)):
            ranks.clear()
            scans.clear()
            got = has_subrep_of_dim(rep, e)
            assert got == _backtrack(rep, e, _Budget(10**7, "subrep")), (d, e)
            arrows = {s: a for (s, _), a in quiver.arrow_counts.items() if e[s - 1]}
            forced = [s for s in arrows if e[s - 1] == d[s - 1]]
            free = [s for s in arrows if e[s - 1] < d[s - 1]]
            images = [f.T for (s, _), f in zip(quiver.arrows, rep.matrices) if s in forced]
            bound = e[t - 1] - (rank_mod(np.concatenate(images), p) if forced else 0)
            if sum(a * e[s - 1] for s, a in arrows.items()) <= e[t - 1] or all(
                d[s - 1] - e[s - 1] >= a * (d[t - 1] - e[t - 1]) for s, a in arrows.items()
            ):
                route, want = "no charge", (0, 0, [])
            elif not free or bound < 0:
                route, want = "forced", (1, 1, [])
            elif bound == 0 or (len(free) == 1 and arrows[free[0]] == 1):
                # one rank per free source; False stops at the first one over
                route = "one arrow, forced" if forced and bound else "ranks"
                most = bool(forced) + len(free)
                assert (len(ranks) == most) if got else (bool(forced) < len(ranks) <= most)
                want = (len(ranks), len(ranks), [])
            else:
                route, want = "frontier", (bool(forced), budgets[-1].spent, [1])
            assert (len(ranks), budgets[-1].spent, scans) == want, (d, e, route)
            routes.add(route)
    assert routes == {"no charge", "forced", "ranks", "one arrow, forced", "frontier"}


def _one_sink_charge(rep, e):
    # what the one-sink frontier charges when it finds no subrep, counted by
    # enumeration: 1 for the forced sources' span, every free source's lines
    # and, at level 1, those whose images join the forced ones within e_t;
    # at each level i >= 2, every graded i-plane of that level's shape whose
    # first RREF row spans such a line and whose other rows span a plane
    # within e_t, if that row leads, in its source, at or after the number
    # of that source's rows still to come.  Levels fill the free sources
    # last one first.
    p, dim, t = rep.p, rep.dim, rep.quiver.one_sink
    sources = sorted({s for s, _ in rep.quiver.arrows})
    forced = [s for s in sources if 0 < e[s - 1] == dim[s - 1]]
    free = [s for s in sources if 0 < e[s - 1] < dim[s - 1]]

    def within(rows):
        rows = {**rows, **{s: np.eye(dim[s - 1], dtype=np.int64) for s in forced}}
        images = [np.zeros((0, dim[t - 1]), dtype=np.int64)]
        for (s, _), f in zip(rep.quiver.arrows, rep.matrices):
            if s in rows:
                images.append((rows[s] @ f.T) % p)
        return rank_mod(np.concatenate(images), p) <= e[t - 1]

    total = 1 if forced else 0
    for v in free:
        lines = list(enumerate_subspaces(p, dim[v - 1], 1))
        total += len(lines) + sum(within({v: u.basis}) for u in lines)
    draws = [s for s in reversed(free) for _ in range(e[s - 1])]
    for i in range(2, len(draws) + 1):
        s, shape = draws[i - 1], {v: draws[:i].count(v) for v in free if v in draws[:i]}
        for combo in product(*(enumerate_subspaces(p, dim[v - 1], k) for v, k in shape.items())):
            subspaces = dict(zip(shape, combo))
            if subspaces[s].pivots[0] < e[s - 1] - shape[s]:
                continue
            planes = {v: u.basis for v, u in subspaces.items()}
            total += within({s: planes[s][:1]}) and within({**planes, s: planes[s][1:]})
    return total


def test_one_sink_subrep_budget_charges_frontier():
    # bipartite (3, 6, 4) over F_3, seed 0, has no subrep of dimension
    # (2, 4, 2): levels 1-2 draw from vertex 3, levels 3-4 from vertex 1.
    # The three-source quiver at (2, 3, 3, 7) has none of dimension
    # (2, 2, 1, 5): vertex 1 is forced, and the frontier searches vertices
    # 2 and 3 modulo its images at the bound 5 - 2.  Each charges exactly
    # what enumeration counts, and nothing else.
    cases = [
        (random_rep(BIPARTITE, (3, 6, 4), 3, 0), (2, 4, 2), 782),
        (random_rep(THREE_SOURCES, (2, 3, 3, 7), 3, 0), (2, 2, 1, 5), 112),
    ]
    for rep, e, charge in cases:
        assert _one_sink_charge(rep, e) == charge, e
        assert not has_subrep_of_dim(rep, e, budget=charge)
        with pytest.raises(BudgetExceededError) as info:
            has_subrep_of_dim(rep, e, budget=charge - 1)
        assert info.value.phase == "subrep", e


def test_one_sink_lines_are_charged_before_they_are_built():
    # over F_101, vertex 3 of bipartite (3, 6, 5) has 105,101,005 lines: at
    # e = (1, 3, 2) the line count is refused before a line is built, where
    # listing subspaces one by one would take minutes to reach the budget.
    # Criterion 7's (3, 5, 1) forces vertex 1 and is decided by one rank.
    import tracemalloc

    rep = random_rep(BIPARTITE, (3, 6, 5), 101, 0)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(BudgetExceededError) as info:
            has_subrep_of_dim(rep, (1, 3, 2))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.phase == "subrep"
    assert info.value.spent == gaussian_binomial(3, 1, 101) + gaussian_binomial(5, 1, 101)
    assert elapsed < 1.0 and peak < 1 << 20, (elapsed, peak)
    assert not has_subrep_of_dim(rep, (3, 5, 1), budget=1)


def test_one_source_search_backtracks_when_the_sinks_have_too_many_lines():
    # 1 => 2, 1 => 3 at (3, 5, 2) over F_101 is decided on its opposite,
    # where vertex 2 has 105,101,005 lines, past the budget.  Vertex 1's
    # e_1-planes fit it (10,303 lines), so those are listed by the
    # backtracker, each charged 1, and the search answers instead of
    # raising; bipartite (3, 6, 5) at (1, 3, 2) still raises (see above).
    rep = random_rep(OUT_OF_1, (3, 5, 2), 101, 0)
    for e, want in [((1, 4, 1), True), ((1, 1, 1), False)]:
        start = time.perf_counter()
        got = has_subrep_of_dim(rep, e)
        elapsed = time.perf_counter() - start
        assert got == _backtrack(rep, e, _Budget(10**7, "subrep")) == want, e
        assert elapsed < 1.0, (e, elapsed)


def test_budget_errors_name_the_frontier_level():
    # K(2) (12, 12) over F_5 has 61,035,156 lines, so at 10**6 the line
    # listing trips before any level; K(3) (4, 4) over F_7 one unit short of
    # its 3,650 (see above) trips at level 2 of 2; on a one-sink quiver the
    # level also names the source it draws from.  Over F_101, K(3) at a
    # bound below its 3 arrows lists its arrow pencil: 10,303 members, then
    # 83 kernel lines (see above); either charge trips inside the pencil,
    # and on has_subrep_of_dim the message names the vertex
    k2 = random_rep(make_kronecker(2), (12, 12), 5, 0)
    k3 = random_rep(make_kronecker(3), (4, 4), 7, 0)
    bipartite = random_rep(BIPARTITE, (3, 6, 5), 3, 0)
    k3_101 = random_rep(make_kronecker(3), (4, 4), 101, 0)
    k3_101_5 = random_rep(make_kronecker(3), (5, 5), 101, 0)
    params = ExpanderParams(HALF, Fraction(19, 50))
    pencil = "budget exceeded listing the pencil of F_101^3"
    calls = [
        (
            lambda: is_expander_rep(k3_101, params, budget=10_000),
            f"frontier {pencil}: spent 10303 > limit 10000",
        ),
        (
            lambda: is_expander_rep(k3_101, params, budget=10_350),
            f"frontier {pencil}: spent 10386 > limit 10350",
        ),
        (
            lambda: has_subrep_of_dim(k3_101_5, (2, 2), budget=10_000),
            f"subrep {pencil} at vertex 1: spent 10303 > limit 10000",
        ),
        (
            lambda: is_expander_rep(k2, ExpanderParams(HALF, HALF), budget=10**6),
            "frontier budget exceeded listing the lines of F_5^12: spent 61035156 > limit 1000000",
        ),
        (
            lambda: is_expander_rep(k3, ExpanderParams(HALF, Fraction(9, 10)), budget=3649),
            "frontier budget exceeded at level 2 of 2: spent 3650 > limit 3649",
        ),
        (
            lambda: has_subrep_of_dim(bipartite, (2, 4, 4), budget=300),
            "subrep budget exceeded at level 3 of 6, drawing from vertex 3: "
            "spent 321 > limit 300",
        ),
    ]
    for call, message in calls:
        with pytest.raises(BudgetExceededError) as info:
            call()
        assert str(info.value) == message


def test_random_rep_deterministic():
    a = random_rep(make_kronecker(3), (2, 2), 5, 42)
    b = random_rep(make_kronecker(3), (2, 2), 5, 42)
    for x, y in zip(a.matrices, b.matrices):
        assert np.array_equal(x, y)


def test_random_rep_consecutive_seeds_differ():
    reps = [random_rep(make_kronecker(2), (2, 2), 5, s) for s in range(101)]
    for prev, cur in zip(reps, reps[1:]):
        assert not all(np.array_equal(x, y) for x, y in zip(prev.matrices, cur.matrices))


def test_random_rep_refuses_more_entries_than_the_budget():
    # 1 * 1000 * 10001 entries, one past DEFAULT_BUDGET, refused before any is drawn
    with pytest.raises(ValueError, match="would draw 10001000 matrix entries"):
        random_rep(make_kronecker(1), (1000, 10001), 5, 0)


def test_random_rep_zero_dimension_entries():
    rep = random_rep(make_kronecker(2), (0, 2), 5, 1)
    assert rep.matrices[0].shape == (2, 0)
    assert image_sum_dim(rep, Subspace(5, 0, np.zeros((0, 0), dtype=np.int64))) == 0
    assert has_subrep_of_dim(rep, (0, 1))
    assert is_expander_rep(rep, ExpanderParams(HALF, Fraction(1, 10))).ok


def test_dual_rep_subrep_equivalence_exhaustive():
    # concrete duality: U-subreps of V match kernel subreps of the dual
    for p in (2, 3):
        for seed in range(3):
            rep = random_rep(make_kronecker(3), (2, 2), p, seed)
            dual = _transposed(rep)
            for e1, e2 in product(range(3), repeat=2):
                assert has_subrep_of_dim(rep, (e1, e2)) == has_subrep_of_dim(
                    dual, (2 - e2, 2 - e1)
                ), (p, seed, e1, e2)


def test_rep_json_roundtrip(tmp_path):
    rep = random_rep(make_kronecker(2), (2, 3), 5, 9)
    data = rep.to_dict()
    back = FiniteFieldRep.from_dict(data)
    assert back.p == rep.p and back.dim == rep.dim
    for x, y in zip(back.matrices, rep.matrices):
        assert np.array_equal(x, y)
    path = tmp_path / "rep.json"
    rep.save(path)
    loaded = FiniteFieldRep.load(path)
    assert loaded.dim == rep.dim
    for x, y in zip(loaded.matrices, rep.matrices):
        assert np.array_equal(x, y)


def test_bipartite_subrep_reduces_to_block_rank():
    # admitting (3,5,1) is equivalent to the stacked 6x6 block [f1 | f2]
    # being singular: vertex 1 contributes its full image, and a suitable
    # line at vertex 3 exists exactly when a 5-dim target remains
    for p in (2, 3, 5):
        for seed in range(10):
            rep = random_rep(BIPARTITE, (3, 6, 5), p, seed)
            block = np.concatenate([rep.matrices[0], rep.matrices[1]], axis=1)
            assert has_subrep_of_dim(rep, (3, 5, 1)) == (rank_mod(block, p) <= 5), (
                p,
                seed,
            )


def test_bipartite_counterexample_large_field_no_witnesses():
    # over a larger field the generic behaviour dominates: seeds 0..9 at
    # p = 101 produce no concrete witness for the non-embedding vector
    admits = [
        has_subrep_of_dim(random_rep(BIPARTITE, (3, 6, 5), 101, seed), (3, 5, 1))
        for seed in range(10)
    ]
    assert sum(admits) == 0


def _naive_verdict(rep, params):
    # independent reference: sweep every admissible subspace dimension with
    # the public enumeration and image primitives, no level logic involved
    d1, d2 = rep.dim
    for j in range(1, int(params.delta * d1) + 1):
        threshold = (1 + params.epsilon) * Fraction(d2 * j, d1)
        for u in enumerate_subspaces(rep.p, d1, j):
            if image_sum_dim(rep, u) < threshold:
                return False, u
    return True, None


def test_is_expander_rep_matches_naive_subspace_sweep():
    # K(3) over F_2 at (6, 6) has witnesses of dim 3, past the pair level,
    # and so has K(4) over F_2 at (6, 6), seed 2: levels 1 and 2 of j = 3
    # build only the planes leading at or after their floors; K(3) over
    # F_7 at eps = 9/10 and K(2) over F_59 at delta = 2/3 have levels
    # where every line is a candidate
    K2, K3 = make_kronecker(2), make_kronecker(3)
    eps_grid = (Fraction(1, 10), Fraction(38, 100), Fraction(1, 2), Fraction(9, 10))
    cases = [
        (K2, (4, 4), 2, HALF, eps_grid, None),
        (K2, (4, 4), 3, HALF, eps_grid, None),
        (K3, (6, 6), 2, HALF, (Fraction(38, 100),), 3),
        (make_kronecker(4), (6, 6), 2, HALF, (Fraction(38, 100),), None),
        (K3, (4, 4), 7, HALF, (Fraction(9, 10),), None),
        (K2, (3, 3), 59, Fraction(2, 3), (Fraction(1, 10),), None),
    ]
    for quiver, d, p, delta, eps_values, witness_dim in cases:
        for seed in range(4):
            rep = random_rep(quiver, d, p, seed)
            for eps in eps_values:
                params = ExpanderParams(delta, eps)
                expected_ok, expected_witness = _naive_verdict(rep, params)
                verdict = is_expander_rep(rep, params)
                assert verdict.ok == expected_ok, (d, p, seed, eps)
                if not expected_ok:
                    assert verdict.witness == expected_witness, (d, p, seed, eps)
                if witness_dim is not None:
                    assert verdict.witness.dim == witness_dim, (d, p, seed)


def test_is_expander_rep_matches_naive_sweep_on_seeded_inputs():
    # seeded draws of m, d <= (5, 5), p, delta and epsilon with at least two
    # levels, each kept only if the naive sweep lists at most 2000 subspaces
    rng = np.random.Generator(np.random.PCG64(2024))
    fractions = [Fraction(k, 10) for k in range(1, 10)]
    checked, witness_dims = 0, []
    while checked < 50:
        m, d1, d2 = (int(x) for x in rng.integers((2, 1, 1), (5, 6, 6)))
        p = int(rng.choice([2, 3, 5, 7]))
        delta, eps = (fractions[int(k)] for k in rng.integers(0, 9, size=2))
        jmax = int(delta * d1)
        if jmax < 2 or sum(gaussian_binomial(d1, j, p) for j in range(1, jmax + 1)) > 2000:
            continue
        rep = random_rep(make_kronecker(m), (d1, d2), p, int(rng.integers(1 << 30)))
        params = ExpanderParams(delta, eps)
        verdict = is_expander_rep(rep, params)
        assert (verdict.ok, verdict.witness) == _naive_verdict(rep, params), (
            m, d1, d2, p, delta, eps
        )
        checked += 1
        if not verdict.ok:
            witness_dims.append(verdict.witness.dim)
    # both verdicts, and witnesses past the line level, are exercised
    assert 10 <= len(witness_dims) <= 40, witness_dims
    assert sum(dim >= 2 for dim in witness_dims) >= 5, witness_dims


def test_frontier_floors_fit_k3_8_8_in_a_small_budget():
    # K(3) (8, 8) over F_3, seed 0, at delta 1/2, eps 19/50 searches j = 3
    # and j = 4 with every line a candidate.  Building every plane at every
    # level below j charged 3,166,764; with level i's planes leading at
    # column j - i or later it charges 179,565, so it answers at a budget
    # of 200,000
    rep = random_rep(make_kronecker(3), (8, 8), 3, 0)
    assert is_expander_rep(rep, ExpanderParams(HALF, Fraction(19, 50)), budget=200_000).ok


def test_is_expander_rep_skips_a_repeated_bound(monkeypatch):
    # at d = (5, 2) and (6, 3), eps = 1/10, the bound s_j, the largest image
    # rank below 1.1 * j * d2 / d1, repeats at the last level (s_1 = s_2 = 0
    # and s_2 = s_3 = 1): a level with no violating plane at a bound
    # excludes every larger plane at it, so the repeat is not searched and
    # charges nothing
    import quivex.finfield as ff

    budgets, scans = [], []

    class Recorded(_Budget):
        def __init__(self, *args):
            super().__init__(*args)
            budgets.append(self)

    monkeypatch.setattr(ff, "_Budget", Recorded)
    scan = ff._frontier_scan

    def spy(p, lines, s, budget, draws):
        scans.append((s, len(draws)))
        return scan(p, lines, s, budget, draws)

    monkeypatch.setattr(ff, "_frontier_scan", spy)
    eps = Fraction(1, 10)
    cases = [(3, (5, 2), 2, (0, 0)), (3, (5, 2), 3, (0, 0)), (3, (6, 3), 2, (0, 1, 1))]
    passed = 0
    for m, d, p, bounds in cases:
        params = ExpanderParams(Fraction(len(bounds), d[0]), eps)
        shorter = ExpanderParams(Fraction(len(bounds) - 1, d[0]), eps)
        for seed in range(4):
            rep = random_rep(make_kronecker(m), d, p, seed)
            scans.clear()
            verdict = is_expander_rep(rep, params)
            charge = budgets[-1].spent
            expected = _naive_verdict(rep, params)
            assert (verdict.ok, verdict.witness) == expected, (m, d, p, seed)
            if verdict.ok:
                passed += 1
                # the last level is not searched: stopping short of it charges the same
                assert scans == [(s, j) for j, s in enumerate(bounds[:-1], 1)]
                assert is_expander_rep(rep, shorter).ok
                assert budgets[-1].spent == charge
    assert passed >= 6, passed


def _by_columns(M, p):
    # the batched elimination column by column, in one phase: the row
    # loop's oracle.  In each matrix the first row that is not yet a pivot
    # row and is nonzero in the column becomes one, is scaled to a leading
    # 1 and cleared from every other row; rows stay where they were
    from quivex.finfield import _inverse_mod, _mod

    count, rows, cols = M.shape
    W = np.ascontiguousarray(M.transpose(2, 1, 0))  # (cols, rows, count)
    pivots = np.full((rows, count), -1, dtype=np.intp)
    free = np.ones((rows, count), dtype=bool)
    for col in range(cols):
        cand = (W[col] != 0) & free
        if not cand.any():
            continue
        pick = cand & (np.cumsum(cand, axis=0) == 1)  # each matrix's first candidate
        # the scaled pivot rows from col on (zero where a matrix has none);
        # their columns before col are zero already
        lead = (W[col:] * pick).sum(axis=1, dtype=W.dtype)
        lead = _mod(lead * _inverse_mod(lead[0], p), p)
        # subtracting (v - 1) * lead from the pivot row v * lead leaves lead
        rest = W[col:]
        rest -= lead[:, None, :] * (W[col] - pick)
        _mod(rest, p)
        pivots[pick] = col
        free &= ~pick
    return W.transpose(2, 1, 0), pivots.T


def test_batch_kernel_matches_rank_mod_across_dtypes():
    # primes on both sides of each dtype threshold: int16 holds (p - 1)**2
    # up to p = 181, int32 up to p = 46337; larger entries go to int64
    from quivex.finfield import _back_substitute, _forward, _int_dtype, _inverse_mod

    widths = {2: 2, 3: 2, 181: 2, 191: 4, 46337: 4, 46349: 8, 1048573: 8}
    rng = np.random.Generator(np.random.PCG64(17))
    for p, width in widths.items():
        dtype = _int_dtype((p - 1) ** 2)
        assert np.dtype(dtype).itemsize == width, p
        inverses = _inverse_mod(np.arange(p, dtype=dtype), p)
        assert inverses.dtype == dtype, p
        # x**(p - 2) is x's inverse, the only one: checking every product
        # is checking every power, and a sample is checked as a power too
        assert inverses[0] == pow(0, p - 2, p), p
        assert (inverses[1:].astype(np.int64) * np.arange(1, p) % p == 1).all(), p
        for x in np.random.Generator(np.random.PCG64(p)).integers(0, p, size=200).tolist():
            assert inverses[x] == pow(x, p - 2, p), (p, x)
        stacks = [np.zeros((0, 3, 4), dtype=np.int64), np.zeros((5, 4, 4), dtype=np.int64)]
        for rows, cols in [(3, 8), (4, 6), (12, 8), (1, 5), (6, 1), (5, 5), (1, 1)]:
            mats = rng.integers(0, p, size=(24, rows, cols), dtype=np.int64)
            mats[0] = 0
            mats[1] = np.outer(rng.integers(0, p, rows), rng.integers(1, p, cols)) % p
            if rows > 2:  # dependent rows
                mats[2, -1] = (mats[2, 0] * (p - 1) + mats[2, 1]) % p
            if cols > 2:  # dependent columns
                mats[3, :, -1] = (mats[3, :, 0] * 2 + mats[3, :, 1]) % p
            mats[4] = p - 1  # rank 1, every entry the largest
            # low rank: a product through min(rows, cols) - 1 dimensions
            inner = max(min(rows, cols) - 1, 0)
            left = rng.integers(0, p, size=(rows, inner), dtype=np.int64)
            right = rng.integers(0, p, size=(inner, cols), dtype=np.int64)
            mats[5] = (left @ right) % p if inner else 0
            stacks.append(mats)
        for mats in stacks:
            expected = np.array([rank_mod(mat, p) for mat in mats])
            assert batch_rank(mats, p).tolist() == expected.tolist(), (p, mats.shape)
            for s in range(-1, min(mats.shape[1:]) + 1):
                assert np.array_equal(batch_rank_le(mats, s, p), expected <= s), (p, s)
            # the reduced rows, put in pivot order, are the RREF
            # the forward pass alone already gives every pivot, so every rank
            E, pivots = _forward(mats.astype(dtype), p)
            assert (pivots >= 0).sum(axis=1).tolist() == expected.tolist(), p
            R = _back_substitute(E, pivots, p)
            assert R.shape == mats.shape and R.dtype == dtype, (p, mats.shape)
            # the column loop is the row loop's oracle, bit for bit on
            # tall, square and wide stacks
            oracle_R, oracle_pivots = _by_columns(mats.astype(dtype), p)
            assert np.array_equal(oracle_R, R), (p, mats.shape)
            assert np.array_equal(oracle_pivots, pivots), (p, mats.shape)
            for mat, red, piv in zip(mats, R, pivots):
                order = np.argsort(np.where(piv >= 0, piv, mat.shape[1]), kind="stable")
                want, want_piv = rref_mod(mat, p)
                assert red[order].tolist() == want.tolist(), (p, mat.tolist())
                assert tuple(sorted(piv[piv >= 0])) == want_piv


def test_frontier_narrow_dtypes_match_int64(monkeypatch):
    # the frontier's kernel runs in int16 while (p - 1)**2 fits (p = 151,
    # 181) and in int32 at p = 191; its span products need int32 at both
    # 151 and 181 once they sum two terms.  Verdicts and witnesses must be
    # those of int64 throughout, at the second level too.
    import quivex.finfield as ff

    reps = [random_rep(make_kronecker(m), (3, 4), p, 0) for p in (151, 181, 191) for m in (2, 3)]
    params = [ExpanderParams(Fraction(2, 3), eps) for eps in (Fraction(1, 10), Fraction(2, 5))]

    def verdicts():
        return [
            (v.ok, v.witness) for v in (is_expander_rep(r, q) for r in reps for q in params)
        ]

    narrow = verdicts()
    monkeypatch.setattr(ff, "_int_dtype", lambda bound: np.int64)
    assert narrow == verdicts()
    assert sum(w is not None and w.dim == 2 for _, w in narrow) >= 3
    assert sum(ok for ok, _ in narrow) >= 3


def _naive_subrep(rep, e):
    # independent reference: try every tuple of subspaces and check each
    # arrow containment directly
    choices = [
        list(enumerate_subspaces(rep.p, rep.dim[v], e[v]))
        for v in range(rep.quiver.vertex_count)
    ]
    for combo in product(*choices):
        ok = True
        for (s, t), mat in zip(rep.quiver.arrows, rep.matrices):
            image_rows = (combo[s - 1].basis @ mat.T) % rep.p
            image = Subspace(rep.p, rep.dim[t - 1], image_rows)
            if not _contains(combo[t - 1], image):
                ok = False
                break
        if ok:
            return True
    return False


def test_has_subrep_matches_naive_product_search():
    path_quiver = parse_quiver("vertices 3\n1 -> 2\n2 -> 3\n")
    one_source = parse_quiver("vertices 3\n1 -> 2\n1 -> 2\n1 -> 3\n")
    cases = [(make_kronecker(2), (2, 2)), (path_quiver, (2, 2, 2)), (BIPARTITE, (1, 2, 1))]
    for quiver, d in cases + [(one_source, (2, 2, 2))]:
        for seed in range(3):
            rep = random_rep(quiver, d, 2, seed)
            for e in product(*(range(x + 1) for x in d)):
                assert has_subrep_of_dim(rep, e) == _naive_subrep(rep, e), (d, seed, e)


@st.composite
def _small_acyclic_reps(draw):
    n = draw(st.integers(2, 4))
    pairs = [(s, t) for s in range(1, n + 1) for t in range(s + 1, n + 1)]
    arrows = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=5))
    d = draw(st.tuples(*[st.integers(1, 2)] * n))
    p, seed = draw(st.sampled_from((2, 3))), draw(st.integers(0, 2**16))
    return random_rep(Quiver(n, tuple(arrows)), d, p, seed)


@settings(max_examples=300)
@given(_small_acyclic_reps())
def test_has_subrep_matches_naive_search_on_small_acyclic_quivers(rep):
    # arrows s -> t with s < t: one-sink quivers, one-source quivers decided
    # on their opposite, and quivers the backtracker searches
    for e in product(*(range(x + 1) for x in rep.dim)):
        assert has_subrep_of_dim(rep, e) == _naive_subrep(rep, e), (rep.quiver.arrows, e)


def test_oracle_vs_theory_statistics():
    # fixed-seed cross-validation of the exact criterion against concrete
    # representations over F_5; per-cell and aggregate bounds frozen from
    # the first calibration run of this implementation
    cache = SubdimCache()
    neg_total = neg_admits = pos_total = pos_found = 0
    worst_neg = 0
    worst_pos = 10
    for m in (2, 3):
        quiver = make_kronecker(m)
        for d1, d2 in product(range(1, 5), repeat=2):
            d = (d1, d2)
            for e1, e2 in product(range(d1 + 1), range(d2 + 1)):
                e = (e1, e2)
                generic = embeds(quiver, e, d, cache)
                hits = 0
                for seed in range(10):
                    rep = random_rep(quiver, d, 5, seed)
                    if generic:
                        hits += any(
                            image_sum_dim(rep, u) <= e2
                            for u in enumerate_subspaces(5, d1, e1)
                        )
                    else:
                        hits += has_subrep_of_dim(rep, e)
                if generic:
                    pos_total += 10
                    pos_found += hits
                    worst_pos = min(worst_pos, hits)
                else:
                    neg_total += 10
                    neg_admits += hits
                    worst_neg = max(worst_neg, hits)
    assert worst_neg <= 4, worst_neg
    assert worst_pos >= 6, worst_pos
    assert Fraction(neg_admits, neg_total) <= Fraction(6, 100)
    assert Fraction(pos_found, pos_total) >= Fraction(95, 100)


# -- explicit K(m) representations whose profile is a theorem ---------------

# (p, n, m) cells fixed before the run, each with n prime and m <= n
FIELD_CELLS = [(2, 3, 2), (3, 3, 2), (2, 3, 3), (5, 3, 3), (2, 5, 2), (3, 5, 2), (2, 5, 3),
               (5, 5, 3), (7, 5, 2), (13, 5, 2), (3, 7, 2), (2, 7, 3), (2, 5, 5), (3, 5, 4)]


def _field_rep(p, n, m):
    # K(m) on F_p^n = F_{p^n}, d = (n, n): arrow i multiplies by gamma**i,
    # as C**i for the companion matrix C of the first monic irreducible f
    # of degree n over F_p, its coefficients below x**n read in lexical order
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    tail = next(c for c in product(range(p), repeat=n)
                if sympy.Poly((1, *c), x, modulus=p).is_irreducible)
    C = np.eye(n, k=-1, dtype=np.int64)  # gamma * gamma**k = gamma**(k+1)
    C[:, -1] = [-c % p for c in reversed(tail)]  # gamma**n = -(c_0 + c_1 gamma + ...)
    powers = [np.eye(n, dtype=np.int64)]
    for _ in range(m - 1):
        powers.append(C @ powers[-1] % p)
    return FiniteFieldRep(p, make_kronecker(m), (n, n), tuple(powers))


def test_field_reps_have_the_linear_kneser_profile():
    # Hou, Leung & Xiang (J. Number Theory 97, 2002): for n prime and m <= n,
    # every j-plane U of F_{p^n} has dim U * span(1, ..., gamma**(m-1)) at
    # least min(n, j + m - 1), and U = span(1, ..., gamma**(j-1)) reaches it
    verdicts = set()
    for p, n, m in FIELD_CELLS:
        rep = _field_rep(p, n, m)
        for j, r in product(range(1, n + 1), range(n + 1)):
            assert has_subrep_of_dim(rep, (j, r)) == (r >= min(n, j + m - 1)), (p, n, m, j, r)
        for eps in (Fraction(1, 3), Fraction(1)):
            params = ExpanderParams(HALF, eps)
            expected = all(s < min(n, j + m - 1) for j, s in _levels(params, n, n))
            assert is_expander_rep(rep, params).ok == expected, (p, n, m, eps)
            verdicts.add((eps, expected))
    assert {(Fraction(1), True), (Fraction(1), False)} <= verdicts
