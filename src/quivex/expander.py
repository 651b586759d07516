"""Expansion coefficients and existence tests for expander representations.

A representation f_1, ..., f_m : V -> W of K(m) is a (delta, eps)-expander
if every nonzero subspace U of V with dim U / dim V <= delta satisfies
dim(f_1(U) + ... + f_m(U)) >= (1 + eps) * (dim W / dim V) * dim U: iff it has
no subrepresentation of dimension (j, s_j) at any level of _levels, the one
rule of expander_exists (for a general representation) and of
finfield.is_expander_rep.  Uniform existence along a fixed slope reduces to
one exact comparison against a closed-form coefficient.

All thresholds are compared inclusively and exactly (Fraction against
QuadraticSurd); no floating point enters any decision.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .kronecker import c_d_ceil, cone_context
from .quiver import DimVector, Quiver, check_int, make_kronecker
from .schofield import SubdimCache, _walk, embeds, generic_subdims
from .surd import QuadraticSurd


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


def _levels(params: ExpanderParams, d1: int, d2: int) -> Iterator[tuple[int, int]]:
    """The levels (j, s_j) of a (delta, eps)-expander of dimension vector
    (d1, d2), which must have no subrepresentation of dimension (j, s_j)
    for 1 <= j <= delta * d1, s_j the largest integer below
    (1 + eps) * (d2 / d1) * j.  A level with s_j < 0 or s_j = s_{j-1} never
    fails first and is left out: a j-plane whose image spans at most s
    holds a (j-1)-plane that does too, and generically (j, e2) in Sub(d)
    gives (j-1, e2) in Sub(d)."""
    eps = params.epsilon
    rate, scale = (eps.numerator + eps.denominator) * d2, eps.denominator * d1
    last = -1  # s_0
    for j in range(1, params.delta.numerator * d1 // params.delta.denominator + 1):
        s = (rate * j - 1) // scale
        if s > last:
            yield j, s
            last = s


def _check_positive_m(m) -> int:
    """The arrow count m as a Python int, refused unless an integer >= 1."""
    m = check_int(m, "m")
    if m < 1:
        raise ValueError("m must be a positive integer")
    return m


@dataclass(frozen=True)
class SlopeParams:
    """Arrow count m >= 1 and a rational slope alpha = d2/d1."""

    m: int
    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "m", _check_positive_m(self.m))
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


@dataclass(frozen=True)
class ExpanderDecision:
    exists: bool
    violating_e: DimVector | None = None


def epsilon_k(k: int) -> QuadraticSurd:
    """Sharp expansion coefficient for k operators in equal dimensions:
    (k + 1 - sqrt(k*k - 2k + 5)) / 2, which lies strictly in (0, 1)."""
    k = check_int(k, "k")
    if k < 2:
        raise ValueError("k must be an integer >= 2")
    return QuadraticSurd(k + 1, -1, k * k - 2 * k + 5, 2)


def epsilon_m_alpha_delta(m: int, alpha, delta) -> QuadraticSurd:
    """Sharp coefficient along slope alpha at size bound delta:
    (m d + a - 2 a d - sqrt((m d - a)^2 + 4 d (1 - d))) / (2 a d).

    Preconditions (each reported distinctly, all checked exactly):
    alpha^2 - m*alpha + 1 < 0;  m*delta + alpha - 2*alpha*delta > 0;
    0 < delta < 1.
    """
    m = _check_positive_m(m)
    alpha = Fraction(alpha)
    delta = _check_delta(delta)
    numerator = m * delta + alpha - 2 * alpha * delta
    if numerator <= 0:
        raise ValueError("m*delta + alpha - 2*alpha*delta must be positive")
    if alpha * alpha - m * alpha + 1 >= 0:
        raise ValueError("alpha must satisfy alpha^2 - m*alpha + 1 < 0")
    radicand = (m * delta - alpha) ** 2 + 4 * delta * (1 - delta)
    return (numerator - QuadraticSurd.sqrt_rational(radicand)) / (2 * alpha * delta)


def _minimal_second_coordinates(
    m: int, d: DimVector, cache: SubdimCache | None
) -> Callable[[int], int]:
    """e1 |-> the least e2 with (e1, e2) embedding generically into d over K(m):
    c_d_ceil on the cone, else a binary search of embeds, which is total as
    embedding is upward closed in e2 (any vectors can join U_2) and (e1, d2) embeds."""
    ctx = cone_context(m, d)
    if ctx is not None:
        return partial(c_d_ceil, ctx)
    quiver = make_kronecker(m)
    return lambda e1: bisect_left(
        range(d[1]), True, key=lambda e2: embeds(quiver, (e1, e2), d, cache)
    )


def expander_exists(
    m: int,
    d: Sequence[int],
    params: ExpanderParams,
    cache: SubdimCache | None = None,
) -> ExpanderDecision:
    """Generic existence of a (delta, eps)-expander representation of K(m)
    with dimension vector d = (d1, d2), each entry at most MAX_DIM_ENTRY.

    At each level (e1, s) of _levels the minimal embeddable e2 must
    exceed s, that is, clear (1 + eps) * (d2 / d1) * e1; the first
    (lexicographically smallest) failing pair is reported.
    """
    dv = make_kronecker(m).check_dim(d)  # checks m >= 1, integers and the entry cap
    if 0 in dv:
        raise ValueError("d must be a pair of positive integers")
    minimal = _minimal_second_coordinates(m, dv, cache)
    for e1, s in _levels(params, *dv):
        if (e2 := minimal(e1)) <= s:
            return ExpanderDecision(False, (e1, e2))
    return ExpanderDecision(True, None)


def _uniform_decision(slope: SlopeParams, delta, epsilon) -> tuple[bool, QuadraticSurd]:
    """expander_exists_uniform's answer and the threshold eps_m(alpha, delta)."""
    threshold = epsilon_m_alpha_delta(slope.m, slope.alpha, delta)
    return _check_epsilon(epsilon) <= threshold, threshold


def expander_exists_uniform(slope: SlopeParams, delta, epsilon) -> bool:
    """Existence for every dimension vector along slope alpha: exactly the
    inclusive comparison eps <= eps_m(alpha, delta), for eps > 0."""
    return _uniform_decision(slope, delta, epsilon)[0]


def _theta_constraints(
    quiver: Quiver, theta: StabilityFunction, d: Sequence[int], delta: Fraction, cache
) -> list[DimVector]:
    """The nonzero generic subdimension vectors e of d with total dimension
    at most delta * (total of d): the vectors that constrain a
    theta-relative expander.  Requires theta(d) = 0."""
    dv = quiver.check_dim(d)
    if theta(dv) != 0:
        raise ValueError(f"theta(d) = {theta(dv)} != 0")
    bound = delta * sum(dv)
    subs = generic_subdims(quiver, dv, cache)
    return [e for e in subs if 0 < sum(e) <= bound]


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
    constraints = _theta_constraints(quiver, theta, d, params.delta, cache)
    violating = [e for e in constraints if theta(e) > -params.epsilon * sum(e)]
    return ExpanderDecision(False, min(violating)) if violating else ExpanderDecision(True, None)


def _row_suprema(
    theta: StabilityFunction, delta: Fraction, d: DimVector, targets, box, member
) -> dict[DimVector, Fraction | None]:
    """The supremum of each target v <= d, read off row v of the walk of
    box(d): per total s, the largest theta(e) over e in Sub(v) with |e| = s,
    then the least -theta(e) / s over 0 < s <= delta * |v|.  Every total
    0..|v| occurs in Sub(v): a subrepresentation U of dimension e != 0 stays
    one when U loses a vector at a vertex of e's support that no arrow from
    the support enters, and an acyclic quiver has such a vertex."""
    exact = sum(abs(w) * x for w, x in zip(theta.weights, d)) < 2**62
    values = box @ np.array(theta.weights, dtype=np.int64 if exact else object)
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


def _theta_suprema(
    quiver: Quiver,
    theta: StabilityFunction,
    vectors: Iterable[Sequence[int]],
    delta,
    cache: SubdimCache | None = None,
) -> dict[DimVector, Fraction | None]:
    """theta_epsilon_supremum of every vector of vectors, each with
    theta(d) = 0, one vector at a time in descending lexicographic order.

    A K(m) cone vector, or one the cache holds, is answered from
    generic_subdims.  Any other d still unanswered gets one walk of its box,
    charged as generic_subdims charges it, and every unanswered off-cone
    vector v <= d is answered from row v; the table is then dropped.  So only
    the maximal off-cone vectors are walked, one table at a time."""
    delta = _check_delta(delta)
    pending = sorted({quiver.check_dim(d) for d in vectors}, reverse=True)
    for d in pending:
        if theta(d) != 0:
            raise ValueError(f"theta(d) = {theta(d)} != 0")
    held = {} if cache is None else cache
    m = quiver.kronecker_m
    from_rows = {d for d in pending if (quiver, d) not in held and cone_context(m, d) is None}
    sups: dict[DimVector, Fraction | None] = {}
    for d in pending:
        if d in sups:
            continue
        if d not in from_rows:
            constraints = _theta_constraints(quiver, theta, d, delta, cache)
            sups[d] = min((Fraction(-theta(e), sum(e)) for e in constraints), default=None)
            continue
        below = [v for v in from_rows if v not in sups and all(a <= b for a, b in zip(v, d))]
        sups.update(_row_suprema(theta, delta, d, below, *_walk(quiver, d)))
    return sups


def theta_epsilon_supremum(
    quiver: Quiver,
    theta: StabilityFunction,
    d: Sequence[int],
    delta,
    cache: SubdimCache | None = None,
) -> Fraction | None:
    """Largest eps for which d carries a theta-relative expander: the minimum
    of -theta(e) / (total of e) over constraining nonzero e, or None when no
    subdimension vector constrains the decision.  Requires theta(d) = 0 and
    0 < delta < 1."""
    dv = quiver.check_dim(d)
    return _theta_suprema(quiver, theta, [dv], delta, cache)[dv]
