"""Expansion coefficients and existence tests for expander representations.

A representation f_1, ..., f_m : V -> W of K(m) is a (delta, eps)-expander
if every nonzero subspace U of V with dim U / dim V <= delta satisfies
dim(f_1(U) + ... + f_m(U)) >= (1 + eps) * (dim W / dim V) * dim U: iff it has
no subrepresentation of dimension (j, s_j) at any level of _level_arrays,
the one rule of expander_exists (for a general representation) and of
finfield.is_expander_rep.  Over K(m) the least embeddable e2 of a level,
on the cone or off it, is read off kronecker._column_floors, so no K(m)
question walks a box.  Uniform existence along a fixed slope reduces to
one exact comparison against a closed-form coefficient.  The
theta-relative supremum of d reads Sub(v), for each v <= d, only at totals
1..floor(delta |v|), so a walk of box(d) for it stops at total
floor(delta |d|).

All thresholds are compared inclusively and exactly (Fraction against
QuadraticSurd); no floating point enters any decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .kronecker import _ROW_CHUNK, _column_floors
from .quiver import DimVector, Quiver, check_count, check_int
from .schofield import SubdimCache, _charge_box, _walk, generic_subdims
from .surd import QuadraticSurd, _exact_dtype


def _check_delta(delta) -> Fraction:
    """delta as a Fraction, refused unless 0 < delta < 1."""
    delta = Fraction(delta)
    if not (0 < delta < 1):
        raise ValueError("delta must satisfy 0 < delta < 1")
    return delta


def _check_epsilon(epsilon) -> Fraction:
    """epsilon as a Fraction, refused unless positive."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return epsilon


@dataclass(frozen=True)
class ExpanderParams:
    """Relative size bound 0 < delta < 1 and expansion margin eps > 0."""

    delta: Fraction
    epsilon: Fraction

    def __post_init__(self):
        object.__setattr__(self, "delta", _check_delta(self.delta))
        object.__setattr__(self, "epsilon", _check_epsilon(self.epsilon))


def _level_arrays(
    params: ExpanderParams, d1: int, d2: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The levels (j, s_j) of a (delta, eps)-expander of dimension vector
    (d1, d2), as arrays of j and of s_j, from _ROW_CHUNK values of j at a
    time: it must have no subrepresentation of dimension (j, s_j) for
    1 <= j <= delta * d1, where s_j = (rate * j - 1) // scale is the largest
    integer below (1 + eps) * (d2 / d1) * j.  A level with s_j < 0 or
    s_j = s_{j-1} never fails first and is left out: a j-plane whose image
    spans at most s holds a (j-1)-plane that does too, and generically
    (j, e2) in Sub(d) gives (j-1, e2) in Sub(d).  j is int64, and s_j is
    int64 or Python ints as rate * j and scale allow (_exact_dtype)."""
    eps = params.epsilon
    rate, scale = (eps.numerator + eps.denominator) * d2, eps.denominator * d1
    top = params.delta.numerator * d1 // params.delta.denominator
    dtype = _exact_dtype(max(rate * top, scale))
    for start in range(1, top + 1, _ROW_CHUNK):
        j = np.arange(start - 1, min(start + _ROW_CHUNK, top + 1))
        s = (rate * j.astype(dtype, copy=False) - 1) // scale  # s_0 = -1
        level = np.flatnonzero(s[1:] > s[:-1]) + 1
        if level.size:
            yield j[level], s[level]


def _levels(params: ExpanderParams, d1: int, d2: int) -> Iterator[tuple[int, int]]:
    """The levels of _level_arrays, one pair (j, s_j) of Python ints at a time."""
    for j, s in _level_arrays(params, d1, d2):
        yield from zip(j.tolist(), s.tolist())


@dataclass(frozen=True)
class SlopeParams:
    """Arrow count m >= 1 and a rational slope alpha = d2/d1."""

    m: int
    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "m", check_count(self.m, "m"))
        object.__setattr__(self, "alpha", Fraction(self.alpha))


@dataclass(frozen=True)
class StabilityFunction:
    """Integer weight per vertex; evaluates as the dot product with a vector."""

    weights: tuple[int, ...]

    def __post_init__(self):
        weights = tuple(check_int(w, "theta weight") for w in self.weights)
        object.__setattr__(self, "weights", weights)

    def __call__(self, vec: Sequence[int]) -> int:
        if len(vec) != len(self.weights):
            raise ValueError("vector length does not match weight count")
        return sum(w * x for w, x in zip(self.weights, vec))


def _theta_zeros(theta: StabilityFunction, dmax: int) -> list[DimVector]:
    """The nonzero d in the cube [0, dmax]^n with theta(d) = 0, in
    lexicographic order: theta of every prefix of n - 1 coordinates in one
    array, in C order, then the last coordinate solved for, or every value
    of it where its weight is 0."""
    *head, last = theta.weights
    dtype = _exact_dtype(sum(map(abs, theta.weights)) * dmax)
    axis = np.arange(dmax + 1, dtype=dtype)
    prefix = np.zeros((), dtype=dtype)
    for weight in head:
        prefix = np.add.outer(prefix, weight * axis)
    if last == 0:
        hits = np.flatnonzero(prefix == 0)
        tails = np.tile(axis, hits.size)
        hits = np.repeat(hits, dmax + 1)
    else:
        tails = -prefix.ravel() // last
        hits = np.flatnonzero((-prefix.ravel() % last == 0) & (0 <= tails) & (tails <= dmax))
        tails = tails[hits]
    heads = np.unravel_index(hits, prefix.shape) if head else ()
    rows = np.column_stack([*heads, tails]).tolist()
    return [tuple(d) for d in rows if any(d)]


@dataclass(frozen=True)
class ExpanderDecision:
    exists: bool
    violating_e: DimVector | None = None


def epsilon_k(k: int) -> QuadraticSurd:
    """Sharp expansion coefficient for k operators in equal dimensions:
    (k + 1 - sqrt(k*k - 2k + 5)) / 2, which lies strictly in (0, 1)."""
    k = check_count(k, "k", low=2)
    return QuadraticSurd(k + 1, -1, k * k - 2 * k + 5, 2)


def epsilon_m_alpha_delta(m: int, alpha, delta) -> QuadraticSurd:
    """Sharp coefficient along slope alpha at size bound delta:
    (m d + a - 2 a d - sqrt((m d - a)^2 + 4 d (1 - d))) / (2 a d).

    Preconditions (each reported distinctly, all checked exactly):
    alpha^2 - m*alpha + 1 < 0;  m*delta + alpha - 2*alpha*delta > 0;
    0 < delta < 1.
    """
    m = check_count(m, "m")
    alpha = Fraction(alpha)
    delta = _check_delta(delta)
    numerator = m * delta + alpha - 2 * alpha * delta
    if numerator <= 0:
        raise ValueError("m*delta + alpha - 2*alpha*delta must be positive")
    if alpha * alpha - m * alpha + 1 >= 0:
        raise ValueError("alpha must satisfy alpha^2 - m*alpha + 1 < 0")
    radicand = (m * delta - alpha) ** 2 + 4 * delta * (1 - delta)
    return (numerator - QuadraticSurd.sqrt_rational(radicand)) / (2 * alpha * delta)


def expander_exists(m: int, d: Sequence[int], params: ExpanderParams) -> ExpanderDecision:
    """Generic existence of a (delta, eps)-expander representation of K(m)
    with dimension vector d = (d1, d2), each entry at most MAX_DIM_ENTRY.

    At each level (e1, s) of _level_arrays the minimal embeddable e2 must
    exceed s, that is, clear (1 + eps) * (d2 / d1) * e1; the first
    (lexicographically smallest) failing pair is reported.  The minimal e2
    of each batch of levels is one kronecker._column_floors call, on the
    cone or off it, its sweep carried from the last batch's floor; K(m)
    itself is never built.
    """
    check_count(m, "m")
    dv = Quiver(2, ()).check_dim(d)  # as K(m) would check it, with no arrow built
    if 0 in dv:
        raise ValueError("d must be a pair of positive integers")
    low = 0
    for j, s in _level_arrays(params, *dv):
        floors = _column_floors(m, dv, j, low)
        fails = np.flatnonzero(floors <= s)
        if fails.size:
            return ExpanderDecision(False, (int(j[fails[0]]), int(floors[fails[0]])))
        low = int(floors[-1])
    return ExpanderDecision(True, None)


def _uniform_decision(slope: SlopeParams, delta, epsilon) -> tuple[bool, QuadraticSurd]:
    """expander_exists_uniform's answer and the threshold eps_m(alpha, delta)."""
    threshold = epsilon_m_alpha_delta(slope.m, slope.alpha, delta)
    return _check_epsilon(epsilon) <= threshold, threshold


def expander_exists_uniform(slope: SlopeParams, delta, epsilon) -> bool:
    """Existence for every dimension vector along slope alpha: exactly the
    inclusive comparison eps <= eps_m(alpha, delta), for eps > 0."""
    return _uniform_decision(slope, delta, epsilon)[0]


def theta_expander_exists(
    quiver: Quiver,
    theta: StabilityFunction,
    d: Sequence[int],
    params: ExpanderParams,
    cache: SubdimCache | None = None,
) -> ExpanderDecision:
    """Generic existence of expanders relative to a stability function.

    Requires theta(d) = 0.  Exists iff every generic subdimension vector e
    with total dimension at most delta * (total of d) satisfies
    theta(e) <= -eps * (total of e); the lexicographically smallest
    violating e is reported otherwise.
    """
    dv = quiver.check_dim(d)
    if theta(dv) != 0:
        raise ValueError(f"theta(d) = {theta(dv)} != 0")
    bound = params.delta * sum(dv)
    violating = [
        e
        for e in generic_subdims(quiver, dv, cache)
        if 0 < sum(e) <= bound and theta(e) > -params.epsilon * sum(e)
    ]
    return ExpanderDecision(False, min(violating)) if violating else ExpanderDecision(True, None)


def _row_suprema(
    theta: StabilityFunction, delta: Fraction, d: DimVector, targets, box, member
) -> dict[DimVector, Fraction | None]:
    """The supremum of each target v <= d, read off row v of the walk of
    box(d), whose columns are walked up to total floor(delta |d|) at least:
    per total s, the largest theta(e) over e in Sub(v) with |e| = s,
    then the least -theta(e) / s over 0 < s <= delta * |v|.  Every total
    0..|v| occurs in Sub(v): a subrepresentation U of dimension e != 0 stays
    one when U loses a vector at a vertex of e's support that no arrow from
    the support enters, and an acyclic quiver has such a vertex."""
    bound = sum(abs(w) * x for w, x in zip(theta.weights, d))
    values = box @ np.array(theta.weights, dtype=_exact_dtype(bound))
    sizes = box.sum(axis=1)
    order = np.argsort(sizes, kind="stable")
    starts = np.searchsorted(sizes[order], np.arange(sum(d) + 2))  # of each total 0..|d|+1
    floor = values.min()  # no larger than a member's value
    shape = [x + 1 for x in d]
    sups = {}
    for v in targets:
        bound = delta.numerator * sum(v) // delta.denominator
        if bound == 0:
            sups[v] = None
            continue
        cells = order[starts[1] : starts[bound + 1]]
        row = np.where(member[np.ravel_multi_index(v, shape), cells], values[cells], floor)
        best = np.maximum.reduceat(row, starts[1 : bound + 1] - starts[1]).tolist()
        sups[v] = min(Fraction(-t, s) for s, t in enumerate(best, 1))
    return sups


def _kronecker_supremum(
    m: int, d: DimVector, theta: StabilityFunction, delta: Fraction
) -> Fraction | None:
    """The supremum of a K(m) vector d, charged as _kronecker_subdims charges
    the listing of Sub(d) it needs no more.  Column x of Sub(d) is
    floor(x) <= y <= d2 (kronecker._column_floors), and a constraining member
    also has 0 < x + y <= bound = floor(delta * |d|).  Along a column
    -theta(x, y) / (x + y) = -t2 - (t1 - t2) x / (x + y) is monotone in y,
    so its least value sits at the low end if t1 > t2, else the high end;
    the least of those is found by cross-multiplying."""
    d1, d2 = d
    _charge_box(d)
    bound = delta.numerator * (d1 + d2) // delta.denominator
    t1, t2 = theta.weights
    best = None  # (numerator, total) of the least ratio so far
    for x, low in enumerate(_column_floors(m, d, np.arange(min(d1, bound) + 1)).tolist()):
        low, high = max(low, int(x == 0)), min(d2, bound - x)  # (0, 0) is not constraining
        if low <= high:
            y = low if t1 > t2 else high
            ratio = (-t1 * x - t2 * y, x + y)
            if best is None or ratio[0] * best[1] < best[0] * ratio[1]:
                best = ratio
    return None if best is None else Fraction(*best)


def _theta_suprema(
    quiver: Quiver, theta: StabilityFunction, vectors: Iterable[Sequence[int]], delta
) -> dict[DimVector, Fraction | None]:
    """theta_epsilon_supremum of every vector of vectors, each with
    theta(d) = 0, one vector at a time in descending lexicographic order.

    A K(m) vector is answered from its columns' ends (_kronecker_supremum).
    On any other quiver a d still unanswered gets one walk of its box,
    charged as generic_subdims charges it, and every unanswered vector
    v <= d is answered from row v; the table is then dropped.  Row v is
    read only at totals 1..floor(delta |v|) <= floor(delta |d|), so the walk
    stops at that total (_walk's top).  So only the maximal vectors are
    walked, one table at a time."""
    delta = _check_delta(delta)
    pending = sorted({quiver.check_dim(d) for d in vectors}, reverse=True)
    for d in pending:
        if theta(d) != 0:
            raise ValueError(f"theta(d) = {theta(d)} != 0")
    if m := quiver.kronecker_m:
        return {d: _kronecker_supremum(m, d, theta, delta) for d in pending}
    sups: dict[DimVector, Fraction | None] = {}
    for d in pending:
        if d not in sups:
            below = [v for v in pending if v not in sups and all(a <= b for a, b in zip(v, d))]
            top = delta.numerator * sum(d) // delta.denominator
            sups.update(_row_suprema(theta, delta, d, below, *_walk(quiver, d, top)))
    return sups


def theta_epsilon_supremum(
    quiver: Quiver, theta: StabilityFunction, d: Sequence[int], delta
) -> Fraction | None:
    """Largest eps for which d carries a theta-relative expander: the minimum
    of -theta(e) / (total of e) over constraining nonzero e, or None when no
    subdimension vector constrains the decision.  Requires theta(d) = 0 and
    0 < delta < 1.  Answered by _theta_suprema: from the columns' ends over
    K(m), else from one walk of box(d) up to total floor(delta |d|)."""
    dv = quiver.check_dim(d)
    return _theta_suprema(quiver, theta, [dv], delta)[dv]
