"""Closed-form subdimension theory for the generalized Kronecker quiver K(m).

For m >= 2 and a nonzero dimension vector d = (d1, d2) with <d, d> <= 0,
generic embedding of e into d is equivalent to the single inequality
<e, d - e> >= 0, i.e. to e2 >= c_d(e1) where c_d(x) is the smaller zero of
y |-> <(x, y), d - (x, y)>.  Outside that regime the closed form refuses
and callers must fall back to the Schofield engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from typing import Sequence

from .quiver import MAX_DIM_ENTRY, check_int
from .surd import QuadraticSurd


class ClosedFormInapplicableError(ValueError):
    """Raised when <d, d> > 0, where the single-inequality test is not valid."""


@dataclass(frozen=True)
class KroneckerContext:
    """K(m) data for the boundary function: arrow count m >= 2 and d = (d1, d2)."""

    m: int
    d: tuple[int, int]

    def __post_init__(self):
        m = check_int(self.m, "m")
        if m < 2:
            raise ValueError("m must be an integer >= 2")
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
    m = check_int(m, "m")
    if m < 2:
        raise ValueError("m must be an integer >= 2")
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
    so nothing is rounded.  The tests compare it with a scan for the first
    y at which the integer sign predicate holds.
    """
    apex_doubled, radicand = _boundary(ctx, x)
    _require_negative_form(ctx)
    return min(ctx.d[1], max(0, (apex_doubled - isqrt(radicand) + 1) // 2))


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
