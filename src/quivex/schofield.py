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
exact.  K(m) walks no box: one rule, kronecker._ext_vanishes, decides
every pair, reflecting it onto the cone where the closed form decides,
and Sub(d) is listed column by column from its floors
(kronecker._column_floors), charged the box size first.

embeds(e, d) on any other quiver tries two exact bounds on the least
<e', d - e> = e' . w over Sub(e), w the form weights of d - e, before it
walks box(e): e lies in Sub(e), so e . w < 0 answers False, and Sub(e)
lies in box(e), so w_i >= 0 wherever e_i > 0 answers True.  A pair either
bound decides is charged nothing.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .kronecker import _column_floors, _ext_vanishes
from .quiver import DEFAULT_BUDGET, DimVector, Quiver, _Budget


class SubdimCache(dict):
    """Complete generic-subdimension sets, keyed by (quiver, vector).

    A vector it holds is answered without a walk; the sets are facts and are
    never invalidated.  Not synchronized: confine an instance to one thread
    of control, or guard it externally.  Warm and cold caches agree.
    """


def _walk(
    quiver: Quiver, d: DimVector, top: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The box of d, every e <= d as a row in lexicographic order, and the
    walk's table member[v, e]: e lies in Sub(v), for every v and e of the
    box.  Rows are weighed by e F with <e, x> = (e F) @ x: F's columns are the
    form weights of the unit vectors.  The up-box of e is a slice of one
    index grid.  Given top, only the columns e with |e| <= top are walked,
    and the others hold False off the diagonal: walking column e reads row e,
    whose members e' <= e have |e'| <= |e|, so every walked column is
    complete."""
    shape = [x + 1 for x in d]
    size = math.prod(shape)
    _Budget(DEFAULT_BUDGET, "subdims").charge(size * size, f" at {d}")
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


def _subdims(quiver: Quiver, d: DimVector) -> frozenset:
    """Sub(d): the last row of the walk of box(d)."""
    box, member = _walk(quiver, d)
    return frozenset(map(tuple, box[member[-1]].tolist()))


def _charge_box(d: DimVector) -> None:
    """Charge the listing of Sub(d) over K(m): the (d1 + 1) * (d2 + 1)
    cells of box(d), also where a caller reads Sub(d) without listing it."""
    _Budget(DEFAULT_BUDGET, "subdims").charge(math.prod(x + 1 for x in d), f" at {d}")


def _kronecker_subdims(m: int, d: DimVector) -> frozenset:
    """Sub(d) over K(m): the columns {(x, y) : floor(x) <= y <= d2}, their
    floors from one _column_floors pass."""
    d1, d2 = d
    _charge_box(d)
    floors = _column_floors(m, d, np.arange(d1 + 1)).tolist()
    return frozenset((x, y) for x, low in enumerate(floors) for y in range(low, d2 + 1))


def _cached_subdims(quiver: Quiver, d: DimVector, cache: SubdimCache | None) -> frozenset:
    cache = {} if cache is None else cache
    subs = cache.get((quiver, d))
    if subs is None:
        m = quiver.kronecker_m
        subs = _kronecker_subdims(m, d) if m else _subdims(quiver, d)
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
    if m := quiver.kronecker_m:
        return _ext_vanishes(m, ev, (dv[0] - ev[0], dv[1] - ev[1]))
    w = quiver.form_weights(tuple(a - b for a, b in zip(dv, ev)))
    if sum(x * y for x, y in zip(ev, w)) < 0:  # e itself lies in Sub(e)
        return False
    if all(y >= 0 for x, y in zip(ev, w) if x):  # Sub(e) lies in box(e)
        return True
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
