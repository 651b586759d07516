"""Concrete quiver representations over prime fields: the brute-force oracle.

Subspaces are represented by their unique reduced-row-echelon bases, so
every subspace is enumerated exactly once and "first witness" outputs are
reproducible; each pivot set's bases are built in one array, in chunks
that grow from one basis, and each Subspace copies out its own.  All
searches are capped by an explicit work budget
(default 10**7): subspaces listed by enumerate_subspaces and by the
backtracker of has_subrep_of_dim, and lines (or the members of an
arrow pencil and their kernel lines) plus the candidate planes tried by
the frontier of is_expander_rep and of has_subrep_of_dim.
Exceeding it raises, never silently truncates; a frontier error names
the level, the lines or the pencil it tripped at.

Linear algebra mod p runs in two kernels: _eliminate, fraction-free
forward elimination on Python ints that grows a list of (pivot, row)
pairs, takes no inverse, and stops once the rank passes a limit, and
a batched numpy elimination that swaps no rows.  Scalar ranks
(rank_mod, and so image_sum_dim's one product with the representation's
stacked map) and the backtracker's spans are _eliminate's lists.  A canonical basis (rref_mod, Subspace, a one-sink
search's forced span) is such a list sorted by pivot, scaled to a
leading 1 and back-substituted once (_rref_rows).  The batched one is
a forward pass (_forward), row by row, that already gives every rank,
and a back-substitution (_back_substitute), run only on what is kept.
The forward pass takes inverses mod p by square-and-multiply on the
values it scales by (_inverse_mod).  The batched kernels take the
narrowest of int16, int32 and int64 that holds their largest
intermediate value (_int_dtype): (p - 1)**2 in an elimination step, a
sum of such products in a matrix product.
is_expander_rep eliminates the line images once, and every level's bound
reads its candidate lines and their spans off that one elimination.  A
block of n source coordinates and a arrows searched at a bound below a,
with a < n and at least _PENCIL_MIN_LINES lines, lists only the lines
that some member sum_k c_k f_k of its arrow pencil kills, as a line's
images are dependent exactly then: its (p**a - 1)/(p - 1) members are
listed as the lines of F_p^a, then their kernel lines are charged, once
per member.  A block whose kernel lines are not fewer than its lines
lists them all, as every other does; a smaller block lists them all at
once, as eliminating the members would cost it more than it saves.
Lines are built and eliminated in chunks of at most _BATCH_ENTRIES
image entries, each keeping only the lines within the bound, so a
listing's memory is one chunk's and the lines it keeps.
The frontier keeps each plane's image span reduced, so each extension by a
line is tested on that line's images alone, in batches that run across
the level's blocks: about one forward pass per level, and one
back-substitution of the planes it keeps.  has_subrep_of_dim
decides every quiver whose arrows all end at one vertex, K(m) among
them, by one set of rules: two that need no rank, a few single ranks,
and otherwise the same frontier over the sum of the free source spaces,
each level drawing its lines from one source.  An e-subrepresentation
is the annihilator of a (d - e)-one of the dual on the opposite quiver,
so a quiver whose arrows all start at one vertex is decided on its
opposite, and so is K(m) (any quiver whose arrows are all s -> t) when
that needs fewer levels.  Only if neither side is one-sink it backtracks,
or on the opposite, when a one-sink search has more lines than the
budget has left but the subspaces the backtracker lists there fit it.

Genericity statements hold over an algebraically closed field; over F_p a
witness may exist only after a field extension, so cross-checks against
the exact theory are statistical by nature.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .expander import ExpanderParams, _levels
from .quiver import DEFAULT_BUDGET, PRIME_BOUND, BudgetExceededError, Quiver, _Budget, check_int


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for f in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % f == 0:
            return n == f
    f = 41
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _check_prime(p: int) -> int:
    # the bound comes first: trial division on a huge p would not finish
    is_int = isinstance(p, (int, np.integer))
    if not (is_int and p < PRIME_BOUND and _is_prime(int(p))):
        raise ValueError(f"p must be a prime below 2**20, got {p}")
    return int(p)


# ---------------------------------------------------------------------------
# dense linear algebra mod p
# ---------------------------------------------------------------------------


# caps the entries of one batch: of a rank batch in _line_ranks and
# _frontier_scan, and of a chunk of _iter_echelon_bases, and so their memory
_BATCH_ENTRIES = 1 << 18

# the fewest lines a block must have for _line_ranks to list it from its
# arrow pencil: below it the pencil's fixed cost, eliminating its
# members, loses to listing every line
_PENCIL_MIN_LINES = 1000


def _eliminate(span: list[tuple[int, list[int]]], rows, p: int, limit: int) -> bool:
    """Grow span by rows over F_p, in place; False once its rank passes limit.

    The one scalar kernel: forward elimination on Python ints, fraction
    free.  span is a list of (pivot, row) pairs.  Each row is reduced
    against the pairs in the order they were added, a pivot entry v and
    the row's entry f in that column giving v * row - f * pivot row, and
    if it is still nonzero it is added.  Rows are reduced mod p as they
    are read, so their entries may be negative or at least p, and every
    stored row has its entries in [0, p), which keeps products of them
    with other such matrices exact in int64.  No row is scaled or
    back-substituted, so a span's rows lead at distinct pivots but are
    reduced only on the pivots added before them, and their leading
    entries need not be 1; _rref_rows finishes the job when a canonical
    basis is wanted.
    """
    for row in rows:
        row = [a % p for a in row]
        # each pivot row is zero on the pivot columns found before it, so
        # one pass in the order they were found clears them all
        for c, piv in span:
            f = row[c]
            if f:
                v = piv[c]
                row = [(v * a - f * b) % p for a, b in zip(row, piv)]
        for lead, x in enumerate(row):
            if x:
                span.append((lead, row))
                if len(span) > limit:
                    return False
                break
    return True


def _rref_rows(mat, p: int) -> tuple[list[list[int]], list[int]]:
    """The reduced row-echelon basis of mat's row space over F_p, and its
    pivot columns: _eliminate's rows sorted by pivot and scaled to a
    leading 1, then one back-substitution, last pivot first."""
    span: list[tuple[int, list[int]]] = []
    mat = np.asarray(mat, dtype=np.int64).tolist()
    _eliminate(span, mat, p, len(mat))  # the rank never passes the row count
    span.sort(key=lambda pair: pair[0])
    pivots, rows = [], []
    for c, row in span:
        inv = pow(row[c], p - 2, p)
        pivots.append(c)
        rows.append([y * inv % p for y in row])
    for i in reversed(range(len(rows))):
        c, row = pivots[i], rows[i]
        for k in range(i):
            f = rows[k][c]
            if f:
                rows[k] = [(a - f * b) % p for a, b in zip(rows[k], row)]
    return rows, pivots


# no caller in src; kept while bench/spans.py traces it by name
def rref_mod(mat, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row-echelon form over F_p.

    Args:
        mat: 2-d integer array-like (entries are reduced mod p first).
        p: prime modulus.

    Returns:
        (R, pivot_cols): the unique RREF, shaped like ``mat`` with zero
        rows below the basis, and the pivot column indices; the rank is
        ``len(pivot_cols)``.  The basis is _rref_rows's.
    """
    arr = np.asarray(mat, dtype=np.int64)
    rows, pivots = _rref_rows(arr, p)
    R = np.zeros(arr.shape, dtype=np.int64)
    if rows:
        R[: len(rows)] = rows
    return R, tuple(pivots)


def rank_mod(mat, p: int) -> int:
    """Rank of a matrix over F_p: _eliminate on its rows with limit cols - 1,
    so the scan stops once the rank reaches the column count.  Entries may
    be negative or at least p.  ``len(rref_mod(mat, p)[1])`` is the same
    rank.
    """
    arr = np.asarray(mat, dtype=np.int64)
    span: list[tuple[int, list[int]]] = []
    _eliminate(span, arr.tolist(), p, arr.shape[-1] - 1)  # [] is the empty matrix
    return len(span)


def _int_dtype(bound: int):
    """The narrowest of int16, int32 and int64 that holds every integer in
    [-bound, bound]: the one dtype rule of the batched kernels."""
    for dtype in (np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    raise OverflowError(f"no integer dtype holds {bound}")


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, in place: x - p * (x // p).  numpy divides an integer array
    by a scalar many times faster than it takes the remainder."""
    x -= x // p * p
    return x


def _inverse_mod(a: np.ndarray, p: int) -> np.ndarray:
    """a**(p - 2) mod p elementwise, exact in any dtype holding (p - 1)**2:
    each nonzero entry's inverse.  At 0 it is 0, or 1 at p = 2, which only
    ever scales a zero row."""
    out, e = np.ones_like(a), p - 2
    while e:
        if e & 1:
            out = _mod(out * a, p)
        e >>= 1
        if e:
            a = _mod(a * a, p)
    return out


# no caller in src; kept while bench/spans.py traces it by name
def batch_rank_le(mats, s: int, p: int) -> np.ndarray:
    """Boolean mask of matrices with rank <= s over F_p, batched."""
    return batch_rank(mats, p) <= s


# no caller in src; kept while bench/spans.py traces it by name
def batch_rank(mats, p: int) -> np.ndarray:
    """Ranks over F_p for a whole batch of matrices at once.

    Args:
        mats: integer array of shape (count, rows, cols).
        p: prime modulus.

    Returns:
        int array of shape (count,) with the rank of each matrix.
    """
    M = np.mod(np.asarray(mats, dtype=np.int64), p)
    if M.ndim != 3:
        raise ValueError("expected a 3-d array (count, rows, cols)")
    _, pivots = _forward(M.astype(_int_dtype((p - 1) ** 2)), p)
    return (pivots >= 0).sum(axis=1)


def _forward(M: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Row echelon form of a (count, rows, cols) stack M over F_p (entries
    in [0, p), a dtype holding +-(p - 1)**2), rows left in place, and each
    row's pivot column, -1 for a zero row.

    Row by row: each row, reduced already against the pivot rows above
    it, takes its first nonzero column as its pivot, is scaled to a
    leading 1 and cleared from the rows below, on M laid out as (rows,
    cols, count) for long contiguous numpy loops.
    """
    count, rows = M.shape[:2]
    W = np.ascontiguousarray(M.transpose(1, 2, 0))
    pivots = np.full((rows, count), -1, dtype=np.intp)
    at = np.arange(count)
    for r in range(rows):
        row = W[r]
        lead = (row != 0).argmax(axis=0)
        value = row[lead, at]
        if not value.any():
            continue
        pivots[r] = np.where(value != 0, lead, -1)
        row *= _inverse_mod(value, p)
        _mod(row, p)
        if r + 1 < rows:
            below = W[r + 1 :]  # a matrix whose row r is zero subtracts zero
            below -= below[:, lead, at][:, None, :] * row
            _mod(below, p)
    return W.transpose(2, 0, 1), pivots.T


def _back_substitute(E: np.ndarray, pivots: np.ndarray, p: int) -> np.ndarray:
    """Reduced echelon form from _forward's output or some of its matrices:
    each pivot, last row first, cleared from the rows above it."""
    count, rows = E.shape[:2]
    W = np.ascontiguousarray(E.transpose(1, 2, 0))  # (rows, cols, count)
    at = np.arange(count)
    for r in range(rows - 1, 0, -1):
        piv = pivots[:, r]
        if (piv < 0).all():
            continue
        # a zero row r (pivot -1) subtracts zero from the rows above
        above = W[:r]
        above -= above[:, piv, at][:, None, :] * W[r]
        _mod(above, p)
    return W.transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# subspaces and their canonical enumeration
# ---------------------------------------------------------------------------


class Subspace:
    """A subspace of F_p^n stored as its unique RREF basis (no zero rows).

    The canonical form makes equality, hashing, and the enumeration order
    well defined: subspaces sort by pivot-column set (lexicographically),
    then by their basis entries in row-major order.
    """

    __slots__ = ("p", "ambient_dim", "basis")

    def __init__(self, p: int, ambient_dim: int, rows):
        p = _check_prime(p)
        ambient_dim = check_int(ambient_dim, "ambient_dim")
        if ambient_dim < 0:
            raise ValueError("ambient dimension must be non-negative")
        # an int64 cast would truncate 1.7 to 1 and take True for 1
        arr = rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object)
        if arr.shape == (0,):  # no rows, as []
            arr = arr.reshape((0, ambient_dim))
        if arr.ndim != 2 or arr.shape[1] != ambient_dim:
            raise ValueError(f"rows must be a 2-D array of width {ambient_dim}, got {arr.shape}")
        if arr.size and not _integer_entries(arr):
            raise ValueError("rows have an entry that is not an integer")
        if ambient_dim == 0:
            basis = np.zeros((0, 0), dtype=np.int64)
        else:
            basis = np.array(_rref_rows(arr % p, p)[0], dtype=np.int64).reshape((-1, ambient_dim))
        basis.setflags(write=False)
        self.p = p
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def _from_echelon(cls, p: int, ambient_dim: int, basis: np.ndarray) -> "Subspace":
        """The subspace whose RREF basis is basis, an int64 array that no
        one else holds: it is made read-only and kept, not copied."""
        obj = object.__new__(cls)
        basis.setflags(write=False)
        obj.p = p
        obj.ambient_dim = ambient_dim
        obj.basis = basis
        return obj

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(int(np.argmax(row != 0)) for row in self.basis)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.p == other.p
            and self.ambient_dim == other.ambient_dim
            and self.basis.shape == other.basis.shape
            and bool(np.array_equal(self.basis, other.basis))
        )

    def __hash__(self) -> int:
        return hash((self.p, self.ambient_dim, self.basis.tobytes()))

    def __repr__(self) -> str:
        return f"Subspace(p={self.p}, ambient_dim={self.ambient_dim}, dim={self.dim})"


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n (p is not tested for primality)."""
    n, k, p = check_int(n, "n"), check_int(k, "k"), check_int(p, "p")
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _iter_echelon_bases(p: int, n: int, k: int) -> Iterator[np.ndarray]:
    """Yield the RREF basis of every k-dim subspace of F_p^n exactly once.

    Order: pivot-column sets lexicographically; within a pivot set, free
    entries run through all values with the last (row-major) free position
    varying fastest, so basis i of a pivot set holds i's base-p digits.
    Each pivot set's bases are built in one int64 array, in chunks of 1,
    then 8 times as many each time, up to _BATCH_ENTRIES entries: a
    search that stops at its first subspace builds one basis, and a long
    one a few arrays.  Each yielded basis is a read-only view into its
    chunk; a caller that keeps one copies it.
    """
    cap = max(1, _BATCH_ENTRIES // max(1, k * n))
    for pivots in combinations(range(n), k):
        free = [
            i * n + j
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivots
        ]
        # the first chunk, basis 0, is the pivots' rows alone
        chunk = np.zeros(k * n, dtype=np.int64)
        chunk[[i * n + c for i, c in enumerate(pivots)]] = 1
        chunk.setflags(write=False)
        yield chunk.reshape(k, n)
        base, total, lo, step = chunk, p ** len(free), 1, 8
        while lo < total:
            hi = min(total, lo + step)
            # the base-p digits of hi - 1: the free entries before the last
            # `digits` are 0 in this chunk, and their weights may not fit int64
            digits, x = 0, hi - 1
            while x:
                digits, x = digits + 1, x // p
            chunk = np.empty((hi - lo, k * n), dtype=np.int64)
            chunk[:] = base
            weights = p ** np.arange(digits - 1, -1, -1)
            chunk[:, free[len(free) - digits :]] = np.arange(lo, hi)[:, None] // weights % p
            chunk.setflags(write=False)
            yield from chunk.reshape(hi - lo, k, n)
            lo, step = hi, min(cap, 8 * step)


def enumerate_subspaces(
    p: int, n: int, k: int, budget: int = DEFAULT_BUDGET
) -> Iterator[Subspace]:
    """Stream every k-dimensional subspace of F_p^n exactly once.

    The total count (a Gaussian binomial) is checked against the budget
    before anything is produced.
    """
    p = _check_prime(p)
    n, k = check_int(n, "n"), check_int(k, "k")
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    total = gaussian_binomial(n, k, p)
    if total > budget:
        raise BudgetExceededError("enumerate", total, budget, f" at k = {k} in F_{p}^{n}")

    def generate():
        for basis in _iter_echelon_bases(p, n, k):
            yield Subspace._from_echelon(p, n, basis.copy())

    return generate()


def _canonical_lines(p: int, n: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Generators of the lines of F_p^n, one per line, in enumeration order:
    by leading column, each followed by every tail in lexicographic order,
    the base-p digits of its index in the column's p**t lines for a tail
    of length t.  lo and hi pick the lines [lo, hi) of that order.

    The digits of a run of tail indices are computed once, and each later
    column whose tails lie in that run reads its digits off the same
    table: a whole listing computes one table, and a range that starts
    inside a column two, neither longer than the range.
    """
    hi = (p**n - 1) // (p - 1) if hi is None else hi
    weights = p ** np.arange(n - 2, -1, -1)
    blocks, start, first, table = [], 0, 0, None
    for c in range(n):
        size = p ** (n - c - 1)
        a, b = max(lo - start, 0), min(hi - start, size)
        if a < b:
            if table is None or not first <= a < b <= first + len(table):
                first, table = a, np.arange(a, b)[:, None] // weights % p
            block = np.zeros((b - a, n), dtype=np.int64)
            block[:, c] = 1
            block[:, c + 1 :] = table[a - first : b - first, c:]
            blocks.append(block)
        start += size
    return np.concatenate(blocks) if blocks else np.zeros((0, n), dtype=np.int64)


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FiniteFieldRep:
    """A representation over F_p: one (d_target x d_source) matrix per arrow."""

    p: int
    quiver: Quiver
    dim: tuple[int, ...]
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        p = _check_prime(self.p)
        dim = self.quiver.check_dim(self.dim)
        if len(self.matrices) != len(self.quiver.arrows):
            raise ValueError("one matrix per arrow required")
        mats = []
        for (s, t), mat in zip(self.quiver.arrows, self.matrices):
            # an int64 cast would truncate 1.7 to 1 and take True for 1
            arr = mat if isinstance(mat, np.ndarray) else np.array(mat, dtype=object)
            expected = (dim[t - 1], dim[s - 1])
            if arr.shape != expected:
                raise ValueError(
                    f"matrix for arrow {s}->{t} has shape {arr.shape}, expected {expected}"
                )
            if arr.size and not _integer_entries(arr):
                raise ValueError(
                    f"matrix for arrow {s}->{t} has an entry that is not an integer"
                )
            if arr.size and (arr.min() < 0 or arr.max() >= p):
                raise ValueError("matrix entries must lie in [0, p)")
            arr = arr.astype(np.int64)
            arr.setflags(write=False)
            mats.append(arr)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrices", tuple(mats))

    @cached_property
    def _maps_from(self) -> dict[int, list[np.ndarray]]:
        """Each source vertex's arrow matrices, in arrow order."""
        maps: dict[int, list[np.ndarray]] = {}
        for (s, _), f in zip(self.quiver.arrows, self.matrices):
            maps.setdefault(s, []).append(f)
        return maps

    @cached_property
    def _stacked(self) -> np.ndarray:
        """[f_1^T | ... | f_m^T], (d1 x m * d2), on K(m): row i holds the
        images of the i-th source basis vector, arrow by arrow."""
        return np.concatenate([f.T for f in self.matrices], axis=1)

    @cached_property
    def _opposite(self) -> "FiniteFieldRep":
        """The dual on the opposite quiver: the same dim, every matrix
        transposed.  Its subrepresentations of dimension d - e are the
        annihilators of this one's of dimension e."""
        mats = tuple(np.ascontiguousarray(f.T) for f in self.matrices)
        return FiniteFieldRep(self.p, self.quiver.opposite, self.dim, mats)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "quiver": {
                "vertices": self.quiver.vertex_count,
                "arrows": [list(a) for a in self.quiver.arrows],
            },
            "dim": list(self.dim),
            "matrices": [m.tolist() for m in self.matrices],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteFieldRep":
        """The inverse of to_dict; a missing or ill-typed field raises
        ValueError naming it."""
        if not isinstance(data, dict):
            raise ValueError("a representation must be a JSON object")
        p = _field(data, "p", _is_int, "an integer")
        spec = _field(data, "quiver", lambda x: isinstance(x, dict), "an object")
        vertices = _field(spec, "quiver.vertices", _is_int, "an integer")
        arrows = _field(
            spec,
            "quiver.arrows",
            lambda x: isinstance(x, list) and all(_is_ints(a) and len(a) == 2 for a in x),
            "a list of [source, target] pairs",
        )
        dim = _field(data, "dim", _is_ints, "a list of integers")
        entries = _field(
            data,
            "matrices",
            lambda x: isinstance(x, list) and all(isinstance(m, list) for m in x),
            "a list of matrices",
        )
        quiver = Quiver(vertices, tuple(tuple(a) for a in arrows))
        dim = quiver.check_dim(dim)
        if len(entries) != len(quiver.arrows):
            raise ValueError("representation field 'matrices' must hold one matrix per arrow")
        # entries stay Python objects, and nested as given: __post_init__
        # refuses floats, bools and a wrong shape; only an empty matrix,
        # which to_dict writes as [], takes its shape from dim
        mats = []
        for (s, t), m in zip(quiver.arrows, entries):
            arr = np.array(m, dtype=object)
            mats.append(arr if arr.size else arr.reshape(dim[t - 1], dim[s - 1]))
        return cls(p, quiver, dim, tuple(mats))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "FiniteFieldRep":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_ints(x) -> bool:
    return isinstance(x, list) and all(_is_int(v) for v in x)


def _integer_entries(arr: np.ndarray) -> bool:
    """Whether every entry of arr is an integer: an integer dtype, or an
    object array of Python or numpy ints, booleans not counted."""
    if arr.dtype == object:
        return all(_is_int(x) or isinstance(x, np.integer) for x in arr.flat)
    return arr.dtype.kind in "iu"


def _field(data: dict, name: str, ok, kind: str):
    """data's field name (dotted for a nested field), checked by ok."""
    key = name.rsplit(".", 1)[-1]
    if key not in data:
        raise ValueError(f"representation has no field '{name}'")
    if not ok(data[key]):
        raise ValueError(f"representation field '{name}' must be {kind}")
    return data[key]


def _require_kronecker(rep: FiniteFieldRep):
    if not rep.quiver.kronecker_m:
        raise ValueError("representation is not over a generalized Kronecker quiver")


def random_rep(quiver: Quiver, d: Sequence[int], p: int, seed: int) -> FiniteFieldRep:
    """Uniform random representation from a reproducible named generator.

    Entries are drawn i.i.d. uniform on [0, p) from numpy's PCG64 stream
    seeded with ``seed``, matrix by matrix in arrow order, row-major.
    Identical (quiver, d, p, seed) give bit-identical output everywhere.
    More than DEFAULT_BUDGET entries in all are refused before any is drawn.
    """
    p = _check_prime(p)
    dim = quiver.check_dim(d)
    entries = sum(c * dim[s - 1] * dim[t - 1] for (s, t), c in quiver.arrow_counts.items())
    if entries > DEFAULT_BUDGET:
        raise ValueError(
            f"random_rep would draw {entries} matrix entries, more than {DEFAULT_BUDGET}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    mats = tuple(
        rng.integers(0, p, size=(dim[t - 1], dim[s - 1]), dtype=np.int64)
        for s, t in quiver.arrows
    )
    return FiniteFieldRep(p, quiver, dim, mats)


def image_sum_dim(rep: FiniteFieldRep, subspace: Subspace) -> int:
    """dim (f_1(U) + ... + f_m(U)) for a subspace U of the source space.

    One product with the representation's stacked map, ``U.basis @
    [f_1^T | ... | f_m^T]``, read as the k * m image rows of width d2
    (k = dim U), and rank_mod of those rows, which reduces them mod p.
    """
    _require_kronecker(rep)
    d1, d2 = rep.dim
    if subspace.p != rep.p or subspace.ambient_dim != d1:
        raise ValueError("subspace does not live in the representation's source space")
    if subspace.dim == 0 or d2 == 0:
        return 0
    return rank_mod((subspace.basis @ rep._stacked).reshape(-1, d2), rep.p)


# ---------------------------------------------------------------------------
# expander verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpanderVerdict:
    ok: bool
    witness: Subspace | None = None


def _pencil_lines(
    p: int, maps: Sequence[np.ndarray], tracker: _Budget, name: str = ""
) -> np.ndarray | None:
    """The lines of F_p^n that a member of a block's arrow pencil kills, one
    generator each, in _canonical_lines order; None if, counted once per
    member, they are not fewer than the block's lines.

    maps are the block's a (n x d_t) matrices, rows the images of its basis
    vectors.  A line v whose a images are dependent, every line of image
    rank below a among them, has v (sum_k c_k f_k) = 0 for a point [c] of
    P^{a-1}(F_p): it lies in the left kernel of that member of the pencil.
    Member [c] is the line c of F_p^a, its image rows those of (sum_k c_k
    f_k)^T, so _line_ranks lists the members at bound n - 1, keeping those
    that kill a line; each one's kernel basis is read off its free columns.
    The kernel lines, counted once per member, are charged before any is
    built, and then scaled to a leading 1 and deduplicated.
    """
    n, a = maps[0].shape[0], len(maps)
    members = [np.stack([f[:, r] for f in maps]) for r in range(maps[0].shape[1])]
    coef, R, piv = _line_ranks(p, [members], tracker, n - 1, [name], "pencil")
    free = np.ones((len(coef), n + 1), dtype=bool)  # column n takes the zero rows
    free[np.arange(len(coef))[:, None], np.where(piv >= 0, piv, n)] = False
    free = free[:, :n]
    dims = free.sum(axis=1)
    kinds = np.bincount(dims, minlength=n + 1).tolist()  # members by kernel dimension
    total = sum(count * gaussian_binomial(k, 1, p) for k, count in enumerate(kinds))
    if total >= gaussian_binomial(n, 1, p):
        return None
    tracker.charge(total, f" listing the pencil of F_{p}^{a}{name}")
    lines = [np.zeros((0, n), dtype=np.int64)]
    for k in (k for k, count in enumerate(kinds) if k and count):
        sel = np.flatnonzero(dims == k)
        cols = np.nonzero(free[sel])[1].reshape(-1, k)  # each member's free columns
        # kernel basis row i: 1 at free column i, and at each pivot column
        # minus the entry of free column i in that pivot's row of R
        basis = np.zeros((len(sel), k, n), dtype=np.int64)
        basis[np.arange(len(sel))[:, None], np.arange(k), cols] = 1
        entries = np.take_along_axis(R[sel].astype(np.int64), cols[:, None, :], axis=2)
        g, r = np.nonzero(piv[sel] >= 0)
        basis[g, :, piv[sel][g, r]] = -entries[g, r]
        lines.append((_canonical_lines(p, k) @ basis).reshape(-1, n) % p)
    vecs = np.concatenate(lines)
    lead = np.argmax(vecs != 0, axis=1)
    vecs = vecs * _inverse_mod(vecs[np.arange(len(vecs)), lead], p)[:, None] % p
    vecs = vecs[np.lexsort([*vecs.T[::-1], lead])]  # by leading column, then entries
    first = np.ones(len(vecs), dtype=bool)
    first[1:] = (vecs[1:] != vecs[:-1]).any(axis=1)
    return vecs[first]


def _line_ranks(
    p: int,
    blocks: Sequence[Sequence[np.ndarray]],
    tracker: _Budget,
    bound: int,
    names: Sequence[str] | None = None,
    listing: str = "lines",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lines of every block of source coordinates whose image rank is
    at most bound, eliminated once for every bound up to it.

    Each block is a list of (d_s x d_t) matrices, one per arrow, whose rows
    are the images of the block's basis vectors.  A block's lines lie at its
    coordinates of the sum of the blocks, taken in order, and their images
    are padded with zero rows up to the largest arrow count.  A block of n
    coordinates and a arrows with bound < a < n, and at least
    _PENCIL_MIN_LINES lines, lists the lines its arrow pencil kills
    (_pencil_lines), charged as it says; every other block, or one whose
    kernel lines are not fewer than its lines, is listed in full, its line
    count charged first.  Lines are built and eliminated in chunks of at
    most _BATCH_ENTRIES image entries, and only those within bound are
    back-substituted and kept.  listing names them ("lines" or "pencil")
    and names[b], if given, ends block b's budget message.  Returns the
    line generators in canonical order, their reduced (arrows x d_t) image
    rows and each row's pivot column, so a line's image rank is its pivot
    count.  The lines are the same either way.
    """
    sizes = [maps[0].shape[0] for maps in blocks]
    listed = []
    for n, maps, name in zip(sizes, blocks, names or [""] * len(blocks)):
        count = gaussian_binomial(n, 1, p)
        pencil = bound < len(maps) < n and count >= _PENCIL_MIN_LINES
        gens = _pencil_lines(p, maps, tracker, name) if pencil else None
        if gens is None:
            tracker.charge(count, f" listing the {listing} of F_{p}^{n}{name}")
        listed.append((count if gens is None else len(gens), gens))
    m, d2 = max(len(maps) for maps in blocks), blocks[0][0].shape[1]
    step = max(1, _BATCH_ENTRIES // max(1, m * d2))
    parts, off = [], 0
    for n, maps, (total, gens) in zip(sizes, blocks, listed):
        # the narrowest dtype the matmul cannot overflow: less memory traffic
        dtype = _int_dtype((p - 1) ** 2 * max(n, 1))
        a = len(maps)
        stacked = np.concatenate(maps, axis=1).astype(dtype)  # (n x a * d_t)
        for lo in range(0, total or 1, step):  # an empty block still gives its empty part
            hi = min(total, lo + step)
            chunk = _canonical_lines(p, n, lo, hi) if gens is None else gens[lo:hi]
            img = np.zeros((hi - lo, m, d2), dtype=_int_dtype((p - 1) ** 2))
            img[:, :a] = (chunk.astype(dtype) @ stacked % p).reshape(hi - lo, a, d2)
            E, rpiv = _forward(img, p)  # back-substituted on the kept lines alone
            keep = (rpiv >= 0).sum(axis=1) <= bound
            if not keep.all():
                chunk, E, rpiv = chunk[keep], E[keep], rpiv[keep]
            vec = np.zeros((len(chunk), sum(sizes)), dtype=np.int64)
            vec[:, off : off + n] = chunk
            parts.append((vec, _back_substitute(E, rpiv, p), rpiv))
        off += n
    if len(parts) > 1:
        parts = [[np.concatenate(part) for part in zip(*parts)]]
    return tuple(parts[0])


def _reduced(X: np.ndarray, rows: np.ndarray, pivots: np.ndarray, p: int) -> np.ndarray:
    """X's rows reduced against reduced echelon spans: X - X[:, pivots] @ rows.

    X is (count, k, n) and each span is (rows[i], pivots[i]).  A pivot n
    pads a zero row, so it adds nothing.
    """
    at = np.arange(len(X))[:, None]
    coef = X.transpose(0, 2, 1)[at, np.minimum(pivots, X.shape[2] - 1)].transpose(0, 2, 1)
    dtype = _int_dtype(rows.shape[1] * (p - 1) ** 2 + p)
    return _mod(X - np.matmul(coef, rows, dtype=dtype), p).astype(X.dtype, copy=False)


def _grown_spans(rows, pivots, R, rpiv, p: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Spans (rows, pivots) joined with the rows R reduced against them.

    R and its pivot columns rpiv are _forward's, back-substituted.  The
    join is the span's rows cleared on R's pivot columns, then both sets
    of rows in pivot order, cut to width rows, which the rank must not pass.
    """
    rpiv = np.where(rpiv >= 0, rpiv, rows.shape[2])
    keys = np.concatenate([pivots, rpiv], axis=1)
    order = np.argsort(keys, axis=1, kind="stable")[:, :width]
    joined = np.concatenate([_reduced(rows, R, rpiv, p), R], axis=1)
    at = np.arange(len(keys))[:, None]
    return joined[at, order], keys[at, order]


def _pair_batches(blocks, step: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The (new, old) pairs of a sequence of (ext, planes) blocks, in batches.

    Each block lists ext x planes row-major; the blocks follow one another
    and a batch of step pairs may cross from one into the next.  A batch
    is gathered from arange slices of the blocks it covers, so no block is
    ever built whole.
    """
    news, olds, size = [], [], 0
    for ext, planes in blocks:
        total, lo = len(ext) * len(planes), 0
        while lo < total:
            hi = min(total, lo + step - size)
            k = np.arange(lo, hi)
            news.append(ext[k // len(planes)])
            olds.append(planes[k % len(planes)])
            size, lo = size + hi - lo, hi
            if size == step:
                yield np.concatenate(news), np.concatenate(olds)
                news, olds, size = [], [], 0
    if size:
        yield np.concatenate(news), np.concatenate(olds)


def _frontier_scan(
    p: int,
    lines: tuple[np.ndarray, np.ndarray, np.ndarray],
    s: int,
    budget: _Budget,
    draws: Sequence[tuple[int, int, int]],
) -> Subspace | None:
    """First violating j-plane among the spans of candidate lines, the
    lines of _line_ranks whose image rank is at most s.

    draws holds one (lo, hi, vertex) per level 1..j: level i's planes take
    their first RREF row from the candidates that lead in columns [lo, hi),
    a block of coordinates of that vertex (0 for none).  Blocks run last
    block first, so lines of different blocks share no column.  A plane is
    kept as the candidates whose generators are its RREF rows.  Level i
    holds, once each, every i-plane whose image rank is at most s and whose
    first RREF row leads at or after the level's floor.  Each level's new
    row leads before the last level's, so level j's floor is the first
    column it draws from, and level i's the larger of its own first
    column and one past level i + 1's floor.  A plane leading before its
    floor lies in no j-plane's RREF, so it is neither built nor tested.  An
    (i+1)-plane W is built only from the span S of all its RREF rows but
    the first, and a candidate that leads before S's pivots and is zero
    on them, so [row; S] is W's RREF as it stands.  Complete, because S and
    that line lie in W.  Built by leading column, then S's pivots, then
    row-major, each level is in canonical order, so the first violating
    j-plane found is the witness.

    Each i-plane carries its image span in reduced echelon form: min(s,
    i * m) rows and their pivot columns, padded with zero rows and pivot
    d2 past its rank r.  W = [row; S] is tested on the new line's reduced
    rows alone, reduced against S's span: W stays within s iff they have
    rank <= s - r, which the forward pass gives.  Only the planes kept for
    the next level are back-substituted and get their span rebuilt.  A
    level's planes are tested in canonical order, in numpy batches of
    _BATCH_ENTRIES // ((i + 1) * m * d2) planes.  Every candidate is
    charged at level 1, floor or not, and each plane tested once at its
    level; a budget error names that level.
    """
    vecs, line_rows, line_pivs = lines
    n, (m, d2), j = vecs.shape[1], line_rows.shape[1:], len(draws)
    floors = [draws[-1][0]] * j  # floors[i - 1]: level i's first column
    for i in reversed(range(j - 1)):
        floors[i] = max(draws[i][0], floors[i + 1] + 1)
    cand = np.flatnonzero((line_pivs >= 0).sum(axis=1) <= s)
    gens, gimgs = vecs[cand], line_rows[cand]
    leads = np.argmax(gens != 0, axis=1)  # ascending: lines are in canonical order
    zero = gens == 0

    def where(i: int) -> str:
        vertex = draws[i - 1][2]
        return f" at level {i} of {j}" + (f", drawing from vertex {vertex}" if vertex else "")

    budget.charge(len(cand), where(1))
    level = np.arange(*np.searchsorted(leads, (floors[0], draws[0][1])))[:, None]
    if not len(level):
        return None
    if j == 1:
        return Subspace._from_echelon(p, n, gens[level[:1, 0]])
    # level 1's spans: each candidate's images joined to the zero span
    first = cand[level[:, 0]]
    zero_rows = np.zeros((len(first), 0, d2), dtype=gimgs.dtype)
    zero_pivs = np.zeros((len(first), 0), dtype=np.intp)
    span_rows, span_pivs = _grown_spans(
        zero_rows, zero_pivs, line_rows[first], line_pivs[first], p, min(s, m)
    )
    for i in range(1, j):
        hi = draws[i][1]
        # the level is in canonical order, so each pivot set is one run
        sets = leads[level]
        starts = np.flatnonzero(np.r_[True, (sets[1:] != sets[:-1]).any(axis=1)])
        pivsets = sets[starts]
        members = [np.arange(a, b) for a, b in zip(starts, [*starts[1:], len(level)])]
        # the lines that may extend each pivot set, cut by leading column
        exts = [np.flatnonzero(zero[:, piv].all(axis=1) & (leads < piv[0])) for piv in pivsets]
        cuts = [np.searchsorted(leads[ext], np.arange(n + 1)).tolist() for ext in exts]
        blocks = (
            (ext[cut[lead] : cut[lead + 1]], planes)
            for lead in range(floors[i], hi)
            for ext, cut, planes in zip(exts, cuts, members)
        )
        room = s - (span_pivs < d2).sum(axis=1)  # rank the new images may add
        step = max(1, _BATCH_ENTRIES // ((i + 1) * m * d2))
        width = min(s, (i + 1) * m)  # span rows kept per (i+1)-plane
        grown = []
        for new, old in _pair_batches(blocks, step):
            budget.charge(len(new), where(i + 1))
            X = _reduced(gimgs[new], span_rows[old], span_pivs[old], p)
            E, rpiv = _forward(X, p)
            keep = (rpiv >= 0).sum(axis=1) <= room[old]
            new, old = new[keep], old[keep]
            if i + 1 == j:
                if len(new):
                    basis = gens[[new[0], *level[old[0]]]]
                    return Subspace._from_echelon(p, n, basis)
                continue
            if not len(new):
                continue
            rpiv = rpiv[keep]
            R = _back_substitute(E[keep], rpiv, p)
            rows, pivs = _grown_spans(span_rows[old], span_pivs[old], R, rpiv, p, width)
            grown.append((np.column_stack([new, level[old]]), rows, pivs))
        if not grown:  # always so at level j, whose planes are not kept
            return None
        level, span_rows, span_pivs = (np.concatenate(part) for part in zip(*grown))


def is_expander_rep(
    rep: FiniteFieldRep, params: ExpanderParams, budget: int = DEFAULT_BUDGET
) -> ExpanderVerdict:
    """Verify the expander property of one concrete K(m) representation.

    ok is True iff every nonzero U with dim U / d1 <= delta satisfies
    image_sum_dim(U) >= (1 + eps) * (d2 / d1) * dim U, the right-hand side
    compared exactly.  When False, the witness is the first violating
    subspace in enumeration order (dimensions ascending, canonical order
    within each dimension).

    The levels (j, s) are expander._levels: U of dimension j violates iff
    its image rank is at most s, and a level that can never be the first
    to fail is left out.  A level with s >= d2 is answered at once with
    its first subspace.  Every other level is searched through candidate
    lines, the lines whose image rank stays within s: a violating j-plane
    has only candidate lines, so the frontier of their spans finds it.
    The line images are eliminated once, when first needed, and every
    level reads its candidates off their pivots.  The lines are listed
    once per call for the largest bound s below d2 that a level searches:
    if s < m < d1 and F_p^d1 has at least _PENCIL_MIN_LINES lines, only
    the lines the arrow pencil kills (_pencil_lines), which hold every
    line of image rank at most s, else every line.  The
    budget is charged the pencil's members and then its kernel lines, or
    the line count, once; then each candidate line and each plane the
    frontier tries, which at level i < j is only a plane whose first row
    leads at column j - i or later, as no other lies in a j-plane.
    """
    _require_kronecker(rep)
    p = rep.p
    d1, d2 = rep.dim
    tracker = _Budget(budget, "frontier")
    levels = list(_levels(params, d1, d2))
    top = max((s for _, s in levels if s < d2), default=0)  # the largest bound searched
    lines = None
    for j, s in levels:
        if s >= d2:
            # every dim-j subspace violates; report the first one
            tracker.charge(1)
            first = np.eye(j, d1, dtype=np.int64)
            return ExpanderVerdict(False, Subspace._from_echelon(p, d1, first))
        if lines is None:
            lines = _line_ranks(p, [[f.T for f in rep.matrices]], tracker, top)
        witness = _frontier_scan(p, lines, s, tracker, [(0, d1, 0)] * j)
        if witness is not None:
            return ExpanderVerdict(False, witness)
    return ExpanderVerdict(True, None)


# ---------------------------------------------------------------------------
# subrepresentation search
# ---------------------------------------------------------------------------


def _subspaces_containing(
    span: list[tuple[int, list[int]]], p: int, n: int, k: int, budget: _Budget
) -> Iterator[np.ndarray]:
    """Every dim-k subspace U of F_p^n containing span, as rows that extend
    span's basis to a basis of U.

    They correspond to (k - dim span)-dim subspaces of the quotient,
    realized on the non-pivot coordinates of span.
    """
    pivots = {c for c, _ in span}
    nonpiv = [c for c in range(n) if c not in pivots]
    extra = k - len(span)
    for t_basis in _iter_echelon_bases(p, len(nonpiv), extra):
        budget.charge(1)
        lifted = np.zeros((extra, n), dtype=np.int64)
        if nonpiv:
            lifted[:, nonpiv] = t_basis
        yield lifted


def has_subrep_of_dim(
    rep: FiniteFieldRep, e: Sequence[int], budget: int = DEFAULT_BUDGET
) -> bool:
    """Existence (over F_p itself) of a subrepresentation of dimension vector e.

    A subrepresentation of dimension e and its annihilator, one of
    dimension d - e of rep._opposite, determine each other.  So a quiver
    whose arrows all end at one vertex goes to _one_sink_subrep, one whose
    arrows all start at one vertex goes there as its opposite at d - e,
    and only a quiver where neither holds is searched by _backtrack.  The
    budget (phase "subrep") is charged as each of those says.
    """
    ev = rep.quiver.check_dim(e)
    if any(a > b for a, b in zip(ev, rep.dim)):
        raise ValueError("e must be componentwise <= the representation's dimension")
    tracker = _Budget(budget, "subrep")
    if rep.quiver.one_sink:
        return _one_sink_subrep(rep, ev, tracker)
    if rep.quiver.opposite.one_sink:
        return _one_sink_subrep(rep._opposite, tuple(x - y for x, y in zip(rep.dim, ev)), tracker)
    return _backtrack(rep, ev, tracker)


def _one_sink_subrep(rep: FiniteFieldRep, e: tuple[int, ...], tracker: _Budget) -> bool:
    """Whether subspaces U_s of dimension e_s at the sources s have images
    that span at most e_t dimensions at t, where every arrow ends.

    a_s is the arrow count s -> t; a source with e_s = 0 drops out.  In turn:
    - e_t >= sum a_s e_s: True, charged 0, as no images span more;
    - d_s - e_s >= a_s (d_t - e_t) at every source: True, charged 0, as
      that many vectors of V_s map into one fixed e_t-space by every arrow;
    - sources with e_s = d_s are forced, and their images span one space
      F at t: one rank, charged 1.  False if dim F > e_t, True if no other
      source is left; else the others are searched modulo F, at bound
      e_t - dim F;
    - at bound 0, or for one free source (0 < e_s < d_s) with one arrow,
      one rank per free source, charged 1 each: rank [f_a ...] <= d_s -
      e_s + bound, as U_s lies in the maps' common kernel at bound 0, and
      one map takes an e_s-plane to rank e_s - dim ker at least;
    - when every arrow is s -> t (K(m) among them), so the opposite quiver
      has one sink too, and d_t - e_t < e_s: the answer on rep._opposite
      at d - e, which needs fewer levels.  There each no-charge rule is
      the other's dual, so it reaches its frontier at no charge, drawing
      d_t - e_t levels from t at bound d_s - e_s;
    - when the free sources' lines number more than the budget has left
      and the (d_t - e_t)-subspaces of V_t do not: the answer of
      _backtrack on rep._opposite at d - e.  Every arrow there starts at
      t, so it lists only those subspaces, each charged 1;
    - otherwise the frontier, with j the sum of the free e_s, draws e_s
      levels from each free source's block of coordinates, the last block
      first: a graded plane's RREF is its blocks' RREFs stacked, so each
      is built once.  Line images are padded with zero rows up to the
      largest arrow count.
    The frontier lists each block's lines for the bound as _line_ranks
    says, from the arrow pencil below the block's arrow count if the
    block has at least _PENCIL_MIN_LINES lines, charging them before it
    builds a line; then the candidates and each plane
    tested, as in is_expander_rep: a level's planes lead at or after its
    floor, one column past the next level's floor, or the first column
    of its own block if that is later.  Its budget errors name the
    vertex it draws from.
    """
    p, dim, t = rep.p, rep.dim, rep.quiver.one_sink
    bound, gap = e[t - 1], dim[t - 1] - e[t - 1]
    spanned, slack, free, forced = 0, True, [], []
    for (s, _), a in rep.quiver.arrow_counts.items():
        if x := e[s - 1]:
            spanned += a * x
            slack = slack and dim[s - 1] - x >= a * gap
            (free if x < dim[s - 1] else forced).append(s)
    if spanned <= bound or slack:
        return True
    maps = rep._maps_from
    free.sort()
    if forced:
        tracker.charge(1)
        images = np.concatenate([f.T for s in forced for f in maps[s]])
        if not free:
            return rank_mod(images, p) <= bound
        rows, piv = _rref_rows(images, p)
        bound -= len(piv)
        if bound < 0:
            return False
        if rows:
            # each image column reduced modulo F, on the coordinates off its pivots
            rows = np.array(rows, dtype=np.int64)
            rest = [c for c in range(dim[t - 1]) if c not in piv]
            maps = {s: [((f - rows.T @ f[piv]) % p)[rest] for f in maps[s]] for s in free}
    if bound == 0 or (len(free) == 1 and len(maps[free[0]]) == 1):
        for s in free:
            tracker.charge(1)
            if rank_mod(np.concatenate(maps[s]), p) > dim[s - 1] - e[s - 1] + bound:
                return False
        return True
    blocks, levels = [[f.T for f in maps[s]] for s in free], [e[s - 1] for s in free]
    dual_e = tuple(x - y for x, y in zip(dim, e))
    if gap < sum(levels) and rep.quiver.opposite.one_sink:
        return _one_sink_subrep(rep._opposite, dual_e, tracker)
    room = tracker.limit - tracker.spent
    listed = sum(gaussian_binomial(dim[s - 1], 1, p) for s in free)
    if listed > room >= gaussian_binomial(dim[t - 1], gap, p):
        return _backtrack(rep._opposite, dual_e, tracker)
    lines = _line_ranks(p, blocks, tracker, bound, [f" at vertex {s}" for s in free])
    offsets = np.cumsum([0] + [dim[s - 1] for s in free]).tolist()
    spans = reversed(list(zip(offsets, offsets[1:], free, levels)))
    draws = [(lo, hi, s) for lo, hi, s, k in spans for _ in range(k)]
    return _frontier_scan(p, lines, bound, tracker, draws) is not None


def _backtrack(rep: FiniteFieldRep, ev: tuple[int, ...], tracker: _Budget) -> bool:
    """has_subrep_of_dim on any acyclic quiver, by backtracking.

    has_subrep_of_dim sends here only the quivers where neither side is
    one-sink (a path of length 2, 1 -> 3 <- 2 -> 4, no arrows), and
    _one_sink_subrep the opposite of a one-sink search with too many
    lines; on the others it is the tests' oracle for _one_sink_subrep.
    Vertices are taken in topological order.  Each vertex carries the
    span of the images arriving from its chosen predecessors, as
    _eliminate's (pivot, row) list; a branch copies the lists at its
    arrows' targets and extends them by the new images with the limit
    e_t, stopping as soon as one passes it.
    Subspaces are chosen at vertices with outgoing arrows only, and each
    one listed is charged 1.
    """
    quiver = rep.quiver
    dim = rep.dim
    p = rep.p
    order = quiver.topological_order()
    out_arrows: dict[int, list[tuple[np.ndarray, int]]] = {v: [] for v in order}
    for (s, t), mat in zip(quiver.arrows, rep.matrices):
        out_arrows[s].append((mat.T, t))

    def extended(spans: dict, rows: np.ndarray, v: int) -> dict | None:
        """spans with the images of rows at v added; None once one is too big."""
        grown = dict(spans)
        for t in {t for _, t in out_arrows[v]}:
            grown[t] = list(spans[t])
        for mat_t, t in out_arrows[v]:
            if not _eliminate(grown[t], (rows @ mat_t).tolist(), p, ev[t - 1]):
                return None
        return grown

    def place(pos: int, spans: dict) -> bool:
        if pos == len(order):
            return True
        v = order[pos]
        if not out_arrows[v]:
            return place(pos + 1, spans)
        span = spans[v]
        if span:
            # every choice at v contains span, so its images are forced
            spans = extended(spans, np.array([row for _, row in span], dtype=np.int64), v)
            if spans is None:
                return False
        for rows in _subspaces_containing(span, p, dim[v - 1], ev[v - 1], tracker):
            grown = extended(spans, rows, v)
            if grown is not None and place(pos + 1, grown):
                return True
        return False

    return place(0, {v: [] for v in order})
