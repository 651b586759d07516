"""Subdimension theory for the generalized Kronecker quiver K(m), m >= 1.

For m >= 2 and a nonzero d = (d1, d2) with <d, d> <= 0 (the cone), e embeds
generically into d iff <e, d - e> >= 0, i.e. e2 >= c_d(e1), where c_d(x) is
the smaller zero of y |-> <(x, y), d - (x, y)>.  One rule decides every K(m)
pair, on the cone or off it (_ext_vanishes), and _column_floors reads the
least e2 of each column of Sub(d) off it; the cone test lives here alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from typing import Iterator, Sequence

import numpy as np

from .quiver import MAX_DIM_ENTRY, check_count, check_int
from .surd import (
    QuadraticSurd,
    _exact_dtype,
    _icbrt,
    _isqrt_array,
    _primes,
    _square_free_split,
    _surd_texts,
)


# x values per chunk of _boundary_rows where a range is scanned (curve, the
# cone levels of expander_exists): about eight int64 arrays of this length
# are alive at once, 256 KB, so a scan of 10**6 levels reads the same max
# RSS as one of 10**2 (2**18 per chunk read 15 MB more)
_ROW_CHUNK = 1 << 12
# curve rows rendered at once (surd._surd_texts): their Python ints and
# strings stay near 100 KB, so curve's max RSS does not grow with d1
_TEXT_ROWS = 1 << 9


class ClosedFormInapplicableError(ValueError):
    """Raised when <d, d> > 0, where the single-inequality test is not valid."""


@dataclass(frozen=True)
class KroneckerContext:
    """K(m) data for the boundary function: arrow count m >= 2 and d = (d1, d2)."""

    m: int
    d: tuple[int, int]

    def __post_init__(self):
        m = check_count(self.m, "m", low=2)
        d = tuple(check_int(x, "d entry") for x in self.d)
        if len(d) != 2 or any(x < 0 for x in d):
            raise ValueError("d must be a pair of non-negative integers")
        if d == (0, 0):
            raise ValueError("d must be nonzero")
        if max(d) > MAX_DIM_ENTRY:
            raise ValueError(f"dimension vector entries must not exceed {MAX_DIM_ENTRY}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "d", d)

    @cached_property
    def euler_dd(self) -> int:
        d1, d2 = self.d
        return d1 * d1 + d2 * d2 - self.m * d1 * d2


def cone_context(m: int, d: Sequence[int]) -> KroneckerContext | None:
    """The context of d over K(m) when the closed form decides embedding
    into d: m >= 2, d nonzero and <d, d> <= 0; None otherwise."""
    if m < 2 or not any(d):
        return None
    ctx = KroneckerContext(m, d)
    return ctx if ctx.euler_dd <= 0 else None


def beta(m: int) -> QuadraticSurd:
    """(m + sqrt(m*m - 4)) / 2, the larger root of t^2 - m t + 1."""
    m = check_count(m, "m", low=2)
    return QuadraticSurd(m, 1, m * m - 4, 2)


def _require_negative_form(ctx: KroneckerContext):
    if ctx.euler_dd > 0:
        raise ClosedFormInapplicableError(
            "closed form inapplicable: <d, d> > 0; use the recursive engine"
        )


def _boundary(ctx: KroneckerContext, x: int) -> tuple[int, int]:
    """(B, D) with c_d(x) = (B - sqrt(D)) / 2: y |-> <(x, y), d - (x, y)> is
    concave and x (d1 - x) >= 0 at y = d2, so it is >= 0 on [c_d(x), d2] alone."""
    d1, d2 = ctx.d
    if not (0 <= x <= d1):
        raise ValueError(f"x must lie in [0, {d1}]")
    return ctx.m * x + d2, (ctx.m * x - d2) ** 2 + 4 * x * (d1 - x)


def c_d_exact(ctx: KroneckerContext, x: int) -> QuadraticSurd:
    """The smaller zero of y |-> <(x, y), d - (x, y)>, as an exact surd."""
    apex_doubled, radicand = _boundary(ctx, x)
    return QuadraticSurd(apex_doubled, -1, radicand, 2)


def c_d_ceil(ctx: KroneckerContext, x: int) -> int:
    """Minimal integer y in [0, d2] admissible at x, for <d, d> <= 0.

    The ceiling of the smaller zero (B - sqrt(D)) / 2 in integer arithmetic:
    with r = isqrt(D), it is (B - r + 1) // 2 whether or not D is a square,
    so nothing is rounded, and 0 <= c_d(x) <= d2 on the cone (see
    _boundary_rows).  The tests compare it with a scan for the first y at
    which the integer sign predicate holds.
    """
    apex_doubled, radicand = _boundary(ctx, x)
    _require_negative_form(ctx)
    return (apex_doubled - isqrt(radicand) + 1) // 2


def _boundary_rows(ctx: KroneckerContext, x: np.ndarray):
    """B, D, isqrt(D) and c_d_ceil at every x of a nonempty ascending int64
    array, as arrays: _boundary and c_d_ceil in one pass, for <d, d> <= 0.
    D = (m*m - 4) x**2 + (4 d1 - 2 m d2) x + d2**2 is convex in x, so its
    values at the first and last x bound it, and pick the arrays' dtype
    (_exact_dtype).  c_d_ceil needs no clamp:
    B**2 - D = 4x (m d2 - d1 + x) >= 0 on the cone, so 0 <= c_d(x) <= d2
    (see _boundary), and B - isqrt(D) + 1 > 0 halves by a shift."""
    _require_negative_form(ctx)
    (d1, d2), m = ctx.d, ctx.m
    bound = max(_boundary(ctx, int(x[0]))[1], _boundary(ctx, int(x[-1]))[1])
    x = x.astype(_exact_dtype(bound), copy=False)
    apex_doubled = m * x + d2
    radicand = ((m * m - 4) * x + (4 * d1 - 2 * m * d2)) * x + d2 * d2
    root = _isqrt_array(radicand)
    return apex_doubled, radicand, root, (apex_doubled - root + 1) >> 1


def _curve_rows(ctx: KroneckerContext) -> Iterator[tuple[int, str, str, int]]:
    """(x, str(c_d_exact(x)), c_d_exact(x).decimal(12), c_d_ceil(x)) for
    x = 0..d1, for <d, d> <= 0: _boundary_rows in chunks of _ROW_CHUNK, each
    chunk's radicands split in one pass (surd._square_free_split) and its
    surds (B - s sqrt(k)) / 2 rendered _TEXT_ROWS at a time
    (surd._surd_texts), so no surd is factored again, and each block is
    written before the next is rendered.  The primes are sieved once, up
    to the cube root of the larger end value of the convex D (see
    _boundary_rows)."""
    d1 = ctx.d[0]
    primes = _primes(_icbrt(max(_boundary(ctx, 0)[1], _boundary(ctx, d1)[1])))
    for start in range(0, d1 + 1, _ROW_CHUNK):
        stop = min(start + _ROW_CHUNK, d1 + 1)
        apex_doubled, radicand, _, ceil = _boundary_rows(ctx, np.arange(start, stop))
        square, free = _square_free_split(radicand, primes)
        for at in range(0, stop - start, _TEXT_ROWS):
            block = slice(at, at + _TEXT_ROWS)
            texts, decimals = _surd_texts(apex_doubled[block], -square[block], free[block], 2)
            yield from zip(range(start + at, stop), texts, decimals, ceil[block].tolist())


def _ext_vanishes(m: int, a: tuple[int, int], b: tuple[int, int]) -> bool:
    """True iff the generic ext(a, b) over K(m) is 0, that is, a embeds
    generically in a + b (Schofield), on exact ints in a loop.  Each pass
    splits off the simple summands: S_1 is injective and S_2 projective,
    so S_1 in b and S_2 in a drop out, and ext(S_1, b) = m b2 - b1,
    ext(a, S_2) = m a1 - a2 for b, a free of them.  A pair whose sum lies
    on the cone is decided by <a, b> >= 0; any other is reflected (Bernstein,
    Gelfand & Ponomarev), which keeps ext, at the vertex that shrinks a + b:
    x -> (x2, m x2 - x1) at the source, (m x1 - x2, x1) at the sink.  On K(2)
    such a run moves each x by its gap along (1, 1) and keeps the gap of
    a + b, so the run jumps at once to the first step that splits a simple."""
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
        if m == 2:  # x -> x - k g (1, 1): x splits once k = min(x) // g, if g > 0
            ga, gb = (a1 - a2, b1 - b2) if s1 > s2 else (a2 - a1, b2 - b1)
            k = min(min(x) // g for x, g in (((a1, a2), ga), ((b1, b2), gb)) if g > 0)
            a1, a2, b1, b2 = a1 - k * ga, a2 - k * ga, b1 - k * gb, b2 - k * gb
        elif m * s2 < 2 * s1:
            a1, a2, b1, b2 = a2, m * a2 - a1, b2, m * b2 - b1
        else:
            a1, a2, b1, b2 = m * a1 - a2, a1, m * b1 - b2, b1


def _column_floors(m: int, d: tuple[int, int], x: np.ndarray, low: int = 0) -> np.ndarray:
    """The least y with (x, y) in Sub(d) over K(m), at every x of a nonempty
    ascending int64 array of values <= d1, as an array.  On the cone it is
    c_d_ceil (_boundary_rows).  Off it, y is swept upward from low, a floor
    at or below the first x's: Sub(d) is closed under lowering e1, so the
    floors never fall along x, and under raising e2 up to d2, so the sweep
    stops by d2 and makes at most len(x) + d2 + 1 calls of _ext_vanishes."""
    ctx = cone_context(m, d)
    if ctx is not None:
        return _boundary_rows(ctx, x)[3]
    (d1, d2), floors = d, []
    for e1 in x.tolist():
        while not _ext_vanishes(m, (e1, low), (d1 - e1, d2 - low)):
            low += 1
        floors.append(low)
    return np.array(floors, dtype=np.int64)


def embeds_closed_form(ctx: KroneckerContext, e: Sequence[int]) -> bool:
    """Non-recursive embedding test, valid when <d, d> <= 0: e <= d and
    <e, d - e> >= 0, that is e2 >= c_d(e1) (see _boundary)."""
    _require_negative_form(ctx)
    ev = tuple(check_int(v, "e entry") for v in e)
    if len(ev) != 2:
        raise ValueError("e must have length 2")
    d1, d2 = ctx.d
    if not (0 <= ev[0] <= d1 and 0 <= ev[1] <= d2):
        return False
    return ev[1] >= c_d_ceil(ctx, ev[0])
