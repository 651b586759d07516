"""Acyclic quivers, dimension vectors, and the Euler form.

A quiver is a finite directed multigraph with 1-based vertex indices;
parallel arrows are stored by repetition.  Dimension vectors are plain
tuples of non-negative integers.  All functions here are pure and all
values immutable, so everything is safe to share across threads.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import Sequence

DimVector = tuple[int, ...]

# documented contract bound on dimension-vector entries, vertex counts and
# K(m) arrow counts; all integer arithmetic is arbitrary precision, so this
# only guards against a few bytes of input asking for astronomically large
# coordinates, vertex lists or arrow tuples before anything is built
MAX_DIM_ENTRY = 10**6

# finite-field representations take primes p < PRIME_BOUND: the oracle's
# batched arithmetic stays exact in int64, the widest dtype its kernels pick,
# because a product of MAX_DIM_ENTRY-long rows is under
# MAX_DIM_ENTRY * p**2 < 2**60
PRIME_BOUND = 2**20


# default work budget of every bounded search
DEFAULT_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """A search would exceed its work budget: ``phase`` names the search
    ("subdims", "frontier", "subrep" or "enumerate"), ``spent`` is the work
    it would reach and ``limit`` the budget."""

    def __init__(self, phase: str, spent: int, limit: int, where: str = ""):
        shown = spent
        if spent >= 10**30:  # str() refuses ints of over 4,300 digits
            # a true lower bound: 10**k <= 2**(bits - 1) <= spent, as log10(2) > 0.3010
            shown = f"more than 10**{(spent.bit_length() - 1) * 3010 // 10000}"
        super().__init__(f"{phase} budget exceeded{where}: spent {shown} > limit {limit}")
        self.phase, self.spent, self.limit = phase, spent, limit


class _Budget:
    def __init__(self, limit: int, phase: str):
        self.limit, self.phase, self.spent = limit, phase, 0

    def charge(self, amount: int, where: str = ""):
        self.spent += amount
        if self.spent > self.limit:
            raise BudgetExceededError(self.phase, self.spent, self.limit, where)


class QuiverError(ValueError):
    """Invalid quiver data."""


class CycleError(QuiverError):
    """The arrow set contains a directed cycle."""


def check_int(x, what: str) -> int:
    """x as a Python int if it is a Python or numpy integer; a bool, a float
    or anything else raises QuiverError, where int() takes True as 1 and 2.7 as 2."""
    if type(x) is int:
        return x
    if isinstance(x, Integral) and not isinstance(x, bool):
        return int(x)
    raise QuiverError(f"{what} must be an integer, got {x!r}")


def check_count(x, what: str, low: int = 1) -> int:
    """x as a Python int (check_int), refused unless low <= x <= MAX_DIM_ENTRY:
    the one check of every vertex, arrow, operator and sample count."""
    x = check_int(x, what)
    if x < low:
        floor = {0: f"non-negative, got {x}", 1: "a positive integer"}.get(low)
        raise QuiverError(f"{what} must be {floor or f'an integer >= {low}'}")
    if x > MAX_DIM_ENTRY:
        raise QuiverError(f"{what} must not exceed {MAX_DIM_ENTRY}")
    return x


class QuiverParseError(QuiverError):
    """Malformed quiver file; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Quiver:
    """A finite acyclic quiver: vertex count plus an ordered arrow list."""

    vertex_count: int
    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        vertex_count = check_count(self.vertex_count, "vertex_count")
        arrows = self.arrows
        # a tuple of pairs of exact ints is kept as it is: K(m) repeats one
        # pair m times, and check_int would build m new ones.  The scan stops
        # at the first entry check_int must see, and raises on an arrow that
        # is not a pair where the rebuild would have raised.
        exact = (
            type(arrows) is tuple
            and set(map(type, arrows)) <= {tuple}
            and all(type(s) is int and type(t) is int for s, t in arrows)
        )
        if not exact:
            arrows = tuple((check_int(s, "arrow"), check_int(t, "arrow")) for s, t in arrows)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "arrows", arrows)
        for s, t in dict.fromkeys(arrows):  # each distinct arrow once, in arrow order
            if not (1 <= s <= vertex_count and 1 <= t <= vertex_count):
                raise QuiverError(f"arrow {s} -> {t} out of range [1, {vertex_count}]")
        self._check_acyclic()

    def _check_acyclic(self):
        if len(self.topological_order()) != self.vertex_count:
            raise CycleError("cycle detected")

    @cached_property
    def arrow_counts(self) -> Counter[tuple[int, int]]:
        """Arrow multiplicities, {(source, target): count}, in first-arrow order."""
        return Counter(self.arrows)

    @cached_property
    def kronecker_m(self) -> int:
        """m when this is K(m), m >= 1 (two vertices, every arrow 1 -> 2), else 0."""
        return len(self.arrows) if self.vertex_count == 2 and set(self.arrows) == {(1, 2)} else 0

    @cached_property
    def one_sink(self) -> int:
        """t when every arrow ends at vertex t (at least one arrow), else 0."""
        targets = {t for _, t in self.arrows}
        return targets.pop() if len(targets) == 1 else 0

    @cached_property
    def opposite(self) -> "Quiver":
        """The same vertices with every arrow reversed, in arrow order."""
        return Quiver(self.vertex_count, tuple((t, s) for s, t in self.arrows))

    def form_weights(self, b: DimVector) -> list[int]:
        """w with <a, b> = sum_i a_i w_i for every a (no checks).

        <a, b> is linear in a: w_i = b_i - sum over arrows i -> j of b_j.
        """
        w = list(b)
        for (i, j), c in self.arrow_counts.items():
            w[i - 1] -= c * b[j - 1]
        return w

    def form_evaluator(self, a: DimVector, b: DimVector) -> int:
        """Euler form <a, b> over pre-validated tuples (no checks)."""
        return sum(x * y for x, y in zip(a, self.form_weights(b)))

    def topological_order(self) -> tuple[int, ...]:
        """Vertices in a topological order, smallest index first among ties."""
        indeg = [0] * (self.vertex_count + 1)
        targets: list[list[int]] = [[] for _ in indeg]  # per source, in first-arrow order
        # a parallel arrow adds no constraint, so each distinct arrow counts once
        for s, t in dict.fromkeys(self.arrows):
            indeg[t] += 1
            targets[s].append(t)
        order: list[int] = []
        ready = [v for v in range(1, self.vertex_count + 1) if indeg[v] == 0]  # a min-heap
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for t in targets[v]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    heapq.heappush(ready, t)
        return tuple(order)

    def check_dim(self, vec: Sequence[int]) -> DimVector:
        """Validate a dimension vector for this quiver and return it as a tuple."""
        entries = tuple(check_int(x, "dimension vector entry") for x in vec)
        if len(entries) != self.vertex_count:
            raise QuiverError(
                f"dimension vector has length {len(entries)}, expected {self.vertex_count}"
            )
        if any(x < 0 for x in entries):
            raise QuiverError("dimension vector entries must be non-negative")
        if any(x > MAX_DIM_ENTRY for x in entries):
            raise QuiverError(f"dimension vector entries must not exceed {MAX_DIM_ENTRY}")
        return entries


def make_kronecker(m: int) -> Quiver:
    """The generalized Kronecker quiver K(m): two vertices, m arrows 1 -> 2."""
    return Quiver(2, ((1, 2),) * check_count(m, "m"))


def euler_form(quiver: Quiver, d: Sequence[int], e: Sequence[int]) -> int:
    """Euler form <d, e> = sum_i d_i e_i - sum_{arrows i->j} d_i e_j."""
    return quiver.form_evaluator(quiver.check_dim(d), quiver.check_dim(e))


def symmetrized_form(quiver: Quiver, d: Sequence[int], e: Sequence[int]) -> int:
    """<d, e> + <e, d>; symmetric in its two arguments."""
    dv, ev = quiver.check_dim(d), quiver.check_dim(e)
    ev_form = quiver.form_evaluator
    return ev_form(dv, ev) + ev_form(ev, dv)


def dominates(e: Sequence[int], d: Sequence[int]) -> bool:
    """Componentwise partial order: True iff e <= d in every coordinate."""
    if len(e) != len(d):
        raise QuiverError("vectors have different lengths")
    return all(a <= b for a, b in zip(e, d))


def unit_vector(length: int, vertex: int) -> DimVector:
    """Unit dimension vector supported at a 1-based vertex index."""
    return tuple(1 if i == vertex - 1 else 0 for i in range(length))


def in_fundamental_domain(quiver: Quiver, d: Sequence[int]) -> bool:
    """Connected support and symmetrized form <= 0 against every supported unit."""
    dv = quiver.check_dim(d)
    support = {i + 1 for i, x in enumerate(dv) if x > 0}
    if not support:
        raise QuiverError("dimension vector must be nonzero")
    reached, size = {min(support)}, 0
    while size != len(reached):  # grow along supported arrows to a fixpoint
        size = len(reached)
        for s, t in quiver.arrows:
            if {s, t} <= support and {s, t} & reached:
                reached |= {s, t}
    if reached != support:
        return False

    n = quiver.vertex_count
    return all(
        symmetrized_form(quiver, dv, unit_vector(n, v)) <= 0 for v in sorted(support)
    )


_VERTICES_RE = re.compile(r"^vertices\s+(\d+)$")
_ARROW_RE = re.compile(r"^(\d+)\s*->\s*(\d+)$")


def parse_quiver(text: str) -> Quiver:
    """Parse the quiver file format.

    First meaningful line is ``vertices N``; every further line is
    ``i -> j`` (one arrow each, repeats accumulate multiplicity).  ``#``
    starts a comment, blank lines are skipped.  Raises QuiverParseError
    with a line number on bad syntax and CycleError on cyclic input.
    """
    vertex_count: int | None = None
    arrows: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if vertex_count is None:
            m = _VERTICES_RE.match(line)
            if not m:
                raise QuiverParseError(lineno, "expected 'vertices N'")
            vertex_count = int(m.group(1))
            if vertex_count < 1:
                raise QuiverParseError(lineno, "vertex count must be positive")
            continue
        m = _ARROW_RE.match(line)
        if not m:
            raise QuiverParseError(lineno, "expected 'i -> j'")
        s, t = int(m.group(1)), int(m.group(2))
        if not (1 <= s <= vertex_count and 1 <= t <= vertex_count):
            raise QuiverParseError(
                lineno, f"arrow {s} -> {t} out of range [1, {vertex_count}]"
            )
        arrows.append((s, t))
    if vertex_count is None:
        raise QuiverParseError(1, "missing 'vertices N' header")
    return Quiver(vertex_count, tuple(arrows))


def load_quiver(path) -> Quiver:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_quiver(fh.read())
