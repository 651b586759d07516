"""Recursive decision procedure for generic subrepresentation dimension vectors.

``e`` embeds generically into ``d`` iff <e', d - e> >= 0 for every e' that
itself embeds generically into e.  The complete sets Sub(e) are computed by
recursion over componentwise-smaller vectors and memoized per quiver; the
cached sets are mathematical facts and are never invalidated.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from .quiver import DimVector, Quiver


class SubdimCache:
    """Memo of complete generic-subdimension sets, keyed per quiver.

    Not synchronized: confine an instance to one thread of control, or
    guard it externally.  Warm and cold caches give identical answers.
    """

    def __init__(self):
        self._tables: dict[Quiver, dict[DimVector, frozenset]] = {}

    def table(self, quiver: Quiver) -> dict[DimVector, frozenset]:
        table = self._tables.get(quiver)
        if table is None:
            table = self._tables[quiver] = {}
        return table

    def __len__(self) -> int:
        return sum(len(t) for t in self._tables.values())


def _subdims(weights, d: DimVector, table: dict) -> frozenset:
    cached = table.get(d)
    if cached is not None:
        return cached
    zero = (0,) * len(d)
    members = {zero, d}
    for e in product(*(range(x + 1) for x in d)):
        if e == zero or e == d:
            continue
        w = weights(tuple(a - b for a, b in zip(d, e)))
        subs_e = _subdims(weights, e, table)  # e is strictly smaller, terminates
        if all(sum(x * y for x, y in zip(ep, w)) >= 0 for ep in subs_e):
            members.add(e)
    result = frozenset(members)
    table[d] = result
    return result


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
    cache = cache if cache is not None else SubdimCache()
    weights = quiver.form_weights
    w = weights(tuple(a - b for a, b in zip(dv, ev)))
    subs = _subdims(weights, ev, cache.table(quiver))
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
    dv = quiver.check_dim(d)
    cache = cache if cache is not None else SubdimCache()
    return _subdims(quiver.form_weights, dv, cache.table(quiver))
