"""Generic subrepresentation dimension vectors, by Schofield's criterion.

``e`` embeds generically into ``d`` iff <e', d - e> >= 0 for every e' in
Sub(e), the vectors that embed generically into e.  One bottom-up walk of
the box {e : e <= d} in lexicographic order gives Sub(v) for every v of the
box, not only for d: its table holds "e in Sub(v)" at every cell (v, e),
v >= e.  Two exact bounds on the least <e', v - e> = e' . w over Sub(e), w
the form weights of v - e, decide most cells in array passes (_bounds): e
lies in Sub(e), so e . w < 0 refuses, and Sub(e) lies in box(e), so
w_i >= 0 wherever e_i > 0 admits.  They decide 83% of the 10,125 cells of
bipartite box (4, 8, 4), and leave 135 of its 225 columns with nothing to
walk.  A column with open cells takes, when the walk reaches e and Sub(e) is
complete, one int64 product of the rows e' F of Sub(e) (<a, b> = a F b)
with its open offsets v - e.  The walk's boolean table of (box size)^2
cells is charged to the work budget (phase "subdims") before it is
allocated, so it stays under 10 MB; a form value stays under (box size)^2
times the largest arrow multiplicity, so int64 is exact.  On a 2-vCPU VM
(Python 3.11, numpy 2.4) bipartite (4, 8, 4) walks in 1.1-1.9 ms and
(10, 20, 10) in 0.11-0.14 s, against 2.7-3.5 ms and 0.25-0.27 s when
every cell took the product.  K(m) walks no box: one rule,
kronecker._ext_vanishes, decides every pair, reflecting it onto the cone
where the closed form decides, and Sub(d) is listed column by column from
its floors (kronecker._column_floors), charged the box size first.

embeds(e, d) on any other quiver asks _bounds at its one cell (d, e) before
it walks box(e); a pair either bound decides is charged nothing.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .kronecker import _column_floors, _ext_vanishes
from .quiver import DEFAULT_BUDGET, DimVector, Quiver, _Budget


# cell entries (cells times vertices) per chunk of _walk's bounds pass: about
# 100 bytes a cell are alive at once, so a chunk holds about 1 MB; chunks of
# 2**18 entries took subdims of bipartite (10, 20, 10) from 38 to 48 MB max RSS
_CHUNK_ENTRIES = 1 << 15


class SubdimCache(dict):
    """Complete generic-subdimension sets, keyed by (quiver, vector).

    A vector it holds is answered without a walk; the sets are facts and are
    never invalidated.  Not synchronized: confine an instance to one thread
    of control, or guard it externally.  Warm and cold caches agree.
    """


def _bounds(e, w):
    """Schofield's rule at cells (v, e) from two exact bounds on the least
    <e', x> = e' . w over Sub(e), x = v - e and w its form weights: e lies in
    Sub(e), so e . w < 0 refuses the cell, and Sub(e) lies in box(e), so
    w_i >= 0 wherever e_i > 0 admits it.  e and w hold coordinate i at index
    i, as ints for one cell or as arrays with an entry per cell.  Returns
    (admitted, refused); a cell in neither is open."""
    admitted = True
    for a, b in zip(e, w):
        admitted = admitted & ((b >= 0) | (a == 0))
    return admitted, sum(a * b for a, b in zip(e, w)) < 0


def _up_cells(shape: list[int], coordinates: np.ndarray, columns: np.ndarray):
    """Index arrays (cols, rows) of the cells (v, e) with v >= e, for each
    column k of columns in turn, its rows v in lexicographic order; e and v
    are columns of coordinates, the box of shape in lexicographic order."""
    cols = rows = columns
    stride = math.prod(shape)
    for end, coordinate in zip(shape, coordinates):
        stride //= end
        room = end - coordinate[cols]  # v_i runs over e_i..d_i
        starts = np.cumsum(room) - room
        cols, rows = np.repeat(cols, room), np.repeat(rows - starts * stride, room)
        rows += np.arange(len(cols)) * stride
    return cols, rows


def _walk(
    quiver: Quiver, d: DimVector, top: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The box of d, every e <= d as a row in lexicographic order, and the
    walk's table member[v, e]: e lies in Sub(v), for every v and e of the
    box.  Rows are weighed by e F with <e, x> = (e F) @ x: F's columns are the
    form weights of the unit vectors.  Columns are taken in lexicographic
    chunks of about _CHUNK_ENTRIES cell entries; _bounds decides every cell
    of a chunk in one pass, and then each column with an open cell, in order,
    takes the least <e', x> over its row Sub(e) at those cells alone.  Walking
    column e reads row e, whose members e' <= e come no later in lexicographic
    order, so their columns are complete.  Given top, only the columns e with
    |e| <= top are walked, and the others hold False off the diagonal: the
    members e' of a walked row have |e'| <= |e|, so are walked too."""
    shape = [x + 1 for x in d]
    size = math.prod(shape)
    _Budget(DEFAULT_BUDGET, "subdims").charge(size * size, f" at {d}")
    coordinates = np.indices(shape).reshape(len(d), -1)
    box = coordinates.T
    form = np.array([quiver.form_weights(u) for u in np.eye(len(d), dtype=np.int64)])
    weights, offsets = box @ form.T, form.T @ coordinates  # offsets[:, x]: x's form weights
    member = np.eye(size, dtype=bool)
    walked = np.arange(size) if top is None else np.flatnonzero(box.sum(axis=1) <= top)
    cells = max(1, _CHUNK_ENTRIES // len(d))
    ends = np.cumsum((np.array(shape) - box[walked]).prod(axis=1))  # cells up to each column
    for chunk in np.split(walked, np.searchsorted(ends, range(cells, ends[-1], cells), "right")):
        cols, rows = _up_cells(shape, coordinates, chunk)
        e, w = coordinates.take(cols, axis=1), offsets.take(rows - cols, axis=1)
        admitted, refused = _bounds(e, w)
        member[rows[admitted], cols[admitted]] = True
        unsettled = ~(admitted | refused)
        columns, starts = np.unique(cols[unsettled], return_index=True)
        for k, up in zip(columns.tolist(), np.split(rows[unsettled], starts[1:])):
            values = weights.compress(member[k], axis=0) @ coordinates.take(up - k, axis=1)
            member[up, k] = values.min(axis=0) >= 0  # columns up - k: up - e
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
    admitted, refused = _bounds(ev, w)
    if admitted or refused:
        return admitted
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
