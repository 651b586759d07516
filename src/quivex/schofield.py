"""Generic subrepresentation dimension vectors, by Schofield's criterion.

``e`` embeds generically into ``d`` iff <e', d - e> >= 0 for every e' in
Sub(e), the vectors that embed generically into e.  One bottom-up walk of
the box {e : e <= d} in lexicographic order gives Sub(v) for every v of the
box, not only for d: Sub(e) is complete when e is reached, and one int64
product (Sub(e) F)(V - e)^T, with <a, b> = a F b and V the up-box
{v : e <= v <= d}, decides e in Sub(v) for all v in V at once.  The walk's
boolean table of (box size)^2 cells is charged to the work budget (phase
"subdims") before it is allocated, so it stays under 10 MB; a form value
stays under (box size)^2 times the largest arrow multiplicity, so int64 is
exact.  For K(m), m >= 2, d nonzero and <d, d> <= 0, the closed form
e2 >= c_d(e1) decides and no box is walked: Sub(d) is listed column by
column, charged the box size first.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .kronecker import KroneckerContext, c_d_ceil, cone_context, embeds_closed_form
from .quiver import DEFAULT_BUDGET, DimVector, Quiver, _Budget


class SubdimCache(dict):
    """Complete generic-subdimension sets, keyed by (quiver, vector).

    A vector it holds is answered without a walk; the sets are facts and are
    never invalidated.  Not synchronized: confine an instance to one thread
    of control, or guard it externally.  Warm and cold caches agree.
    """


def _walk(quiver: Quiver, d: DimVector) -> tuple[np.ndarray, np.ndarray]:
    """The box of d, every e <= d as a row in lexicographic order, and the
    walk's table member[v, e]: e lies in Sub(v), for every v and e of the
    box.  Rows are weighed by e F with <e, x> = (e F) @ x: F's columns are the
    form weights of the unit vectors.  The up-box of e is a slice of one
    index grid."""
    shape = [x + 1 for x in d]
    size = math.prod(shape)
    _Budget(DEFAULT_BUDGET, "subdims").charge(size * size, f" at {d}")
    box = np.indices(shape).reshape(len(d), -1).T
    weights = box @ np.array([quiver.form_weights(u) for u in np.eye(len(d), dtype=np.int64)]).T
    index = np.arange(size).reshape(shape)
    member = np.eye(size, dtype=bool)
    for k, e in enumerate(box.tolist()):
        up = index[tuple(slice(x, None) for x in e)].ravel()
        values = weights[member[k]] @ box[up - k].T  # box[up - k] = up-box - e
        member[up, k] = values.min(axis=0) >= 0
    return box, member


def _subdims(quiver: Quiver, d: DimVector) -> frozenset:
    """Sub(d): the last row of the walk of box(d)."""
    box, member = _walk(quiver, d)
    return frozenset(map(tuple, box[member[-1]].tolist()))


def _cone_subdims(ctx: KroneckerContext) -> frozenset:
    """Sub(d) on the cone: the columns {(x, y) : c_d(x) <= y <= d2}."""
    d1, d2 = ctx.d
    _Budget(DEFAULT_BUDGET, "subdims").charge((d1 + 1) * (d2 + 1), f" at {ctx.d}")
    return frozenset((x, y) for x in range(d1 + 1) for y in range(c_d_ceil(ctx, x), d2 + 1))


def _cached_subdims(quiver: Quiver, d: DimVector, cache: SubdimCache | None) -> frozenset:
    cache = {} if cache is None else cache
    subs = cache.get((quiver, d))
    if subs is None:
        ctx = cone_context(quiver.kronecker_m, d)
        subs = _subdims(quiver, d) if ctx is None else _cone_subdims(ctx)
        cache[quiver, d] = subs
    return subs


def embeds(
    quiver: Quiver,
    e: Sequence[int],
    d: Sequence[int],
    cache: SubdimCache | None = None,
) -> bool:
    """True iff a general representation of dimension vector d has a
    subrepresentation of dimension vector e.

    Returns False (not an error) when e is not componentwise <= d.  Exits
    at the first witness against the numerical criterion.
    """
    ev = quiver.check_dim(e)
    dv = quiver.check_dim(d)
    if any(a > b for a, b in zip(ev, dv)):
        return False
    if ev == dv or not any(ev):
        return True
    ctx = cone_context(quiver.kronecker_m, dv)
    if ctx is not None:
        return embeds_closed_form(ctx, ev)
    w = quiver.form_weights(tuple(a - b for a, b in zip(dv, ev)))
    subs = _cached_subdims(quiver, ev, cache)
    return all(sum(x * y for x, y in zip(ep, w)) >= 0 for ep in subs)


def generic_subdims(
    quiver: Quiver,
    d: Sequence[int],
    cache: SubdimCache | None = None,
) -> frozenset:
    """The complete set { e <= d : e embeds generically into d }.

    Always contains the zero vector and d itself.  No early exit: the full
    set is needed by callers.
    """
    return _cached_subdims(quiver, quiver.check_dim(d), cache)
