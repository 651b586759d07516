"""The benchmark's three workloads and the reference pools they draw from.

Every workload is an endless sequence of passes; a pass is a list of
decisions in a seeded order.  Inputs come from a fixed pool per cell (an
oracle representation seed, or one CLI command per pool index).  The
reference file holds a digest of every pool item's output, recorded at the
commit that defined the benchmark, so any ``--seed`` draws inputs whose
expected output is known.

A workload's ``inputs(seed)`` is its set-up: it builds every pool input
(``random_rep`` included) and the seeded order in which passes deal them,
a fixed amount of work whatever the run's length.  ``passes(inputs)`` then
yields passes for as long as the caller asks, dealing each slot's pool in
its seeded order and starting it again when spent; the same seed gives the
same passes.  Any ``cycle_passes`` passes in a row deal every pool item
exactly once, so runs of whole cycles time the same inputs whatever the
seed, and the seed moves only how they are grouped and ordered.
``cycle_seconds`` is a cycle's nominal time at the reference speed of
``speed.py`` (its median at the commit that defined the benchmark); it
fixes how many cycles a run of ``--seconds`` does.

Import this module only after ``src`` is on ``sys.path`` (``run.py`` does
that and checks the import resolved to the checkout's own library).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, product
from typing import Callable, Iterator

import quivex as qx
from quivex import cli


@dataclass(frozen=True)
class Decision:
    """One timed unit: a library call or CLI invocation returning a verdict.

    ``call`` is timed; ``judge`` runs untimed on its result and gives the
    canonical output bytes, whose digest must equal the reference entry
    ``ref`` = (key, pool index), and the problems an independent re-check
    found (empty when the result holds).
    """

    cell: str
    ref: tuple[str, int]
    call: Callable[[], object]
    judge: Callable[[object], tuple[bytes, list[str]]]


@dataclass(frozen=True)
class Inputs:
    """A workload's set-up: pool inputs by key, and the seeded deal."""

    pools: dict
    orders: list[list[int]]  # one seeded order of pool indices per slot
    rng: random.Random  # shuffles the decisions of each pass


def _orders(rng: random.Random, sizes: list[int]) -> list[list[int]]:
    orders = []
    for size in sizes:
        order = list(range(size))
        rng.shuffle(order)
        orders.append(order)
    return orders


def _dealt(order: list[int], per_pass: int, k: int) -> list[int]:
    """Pool indices of a slot in pass k: ``per_pass`` at a time, wrapping round."""
    return [order[(k * per_pass + j) % len(order)] for j in range(per_pass)]


def digest(output: bytes) -> str:
    return hashlib.sha256(output).hexdigest()[:12]


def _canonical(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()


# ---------------------------------------------------------------------------
# independent re-check of oracle witnesses, in plain Python ints
# ---------------------------------------------------------------------------


def _rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank over F_p by Gaussian elimination on Python ints (no numpy)."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _image_rank(basis: list[list[int]], matrices: list[list[list[int]]], p: int) -> int:
    """dim(f_1(U) + ... + f_m(U)) for U spanned by ``basis``, f_i given row-major."""
    images = [
        [sum(f[i][k] * u[k] for k in range(len(u))) % p for i in range(len(f))]
        for f in matrices
        for u in basis
    ]
    return _rank_mod(images, p) if images and images[0] else 0


# ---------------------------------------------------------------------------
# oracle_verify: is_expander_rep on seeded random K(m) representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyCell:
    m: int
    d: tuple[int, int]
    p: int
    delta: Fraction
    epsilon: Fraction
    weight: int  # decisions of this cell per pass

    @property
    def name(self) -> str:
        return (
            f"K{self.m}_d{self.d[0]}x{self.d[1]}_p{self.p}"
            f"_delta{self.delta.numerator}/{self.delta.denominator}"
            f"_eps{self.epsilon.numerator}/{self.epsilon.denominator}"
        )

    @property
    def pool_size(self) -> int:
        return VERIFY_POOL_PASSES * self.weight


VERIFY_POOL_PASSES = 4  # representation seeds per decision slot: passes per cycle
F = Fraction
# Weights put the median decision inside the one steady mid-cost cell
# (K3 5x5 over F_5): 4 cheaper decisions, 5 of it, 4 dearer ones per pass.
VERIFY_CELLS = (
    VerifyCell(3, (6, 6), 2, F(1, 2), F(19, 50), 1),
    VerifyCell(3, (6, 6), 3, F(1, 2), F(19, 50), 1),
    VerifyCell(3, (5, 5), 5, F(1, 2), F(19, 50), 5),
    VerifyCell(4, (6, 6), 2, F(1, 2), F(1, 2), 1),
    VerifyCell(3, (7, 7), 2, F(1, 2), F(19, 50), 1),
    VerifyCell(3, (8, 8), 3, F(1, 4), F(19, 50), 2),  # pair scan
    VerifyCell(3, (9, 5), 2, F(4, 9), F(1, 5), 1),  # candidate-line DFS
    VerifyCell(3, (9, 6), 2, F(4, 9), F(1, 10), 1),  # DFS plus direct scan
)


def _verify_decision(cell: VerifyCell, index: int, rep) -> Decision:
    params = qx.ExpanderParams(cell.delta, cell.epsilon)

    def judge(verdict):
        witness = None if verdict.witness is None else verdict.witness.basis.tolist()
        problems = []
        if verdict.ok != (witness is None):
            problems.append("verdict and witness disagree")
        if witness is not None:
            d1, d2 = rep.dim
            j = len(witness)
            r = _image_rank(witness, [f.tolist() for f in rep.matrices], rep.p)
            if _rank_mod(witness, rep.p) != j or j == 0:
                problems.append("witness basis is not independent")
            if Fraction(j, d1) > cell.delta:
                problems.append(f"witness dim {j} exceeds delta * d1")
            if r >= (1 + cell.epsilon) * Fraction(d2 * j, d1):
                problems.append(f"witness image rank {r} does not break the bound")
        return _canonical({"ok": verdict.ok, "witness": witness}), problems

    return Decision(cell.name, (cell.name, index), lambda: qx.is_expander_rep(rep, params), judge)


def _verify_reps(cell: VerifyCell) -> list:
    quiver = qx.make_kronecker(cell.m)
    return [qx.random_rep(quiver, cell.d, cell.p, i) for i in range(cell.pool_size)]


class OracleVerify:
    name = "oracle_verify"
    cycle_passes = VERIFY_POOL_PASSES
    cycle_seconds = 14.0

    def pool(self) -> Iterator[Decision]:
        for cell in VERIFY_CELLS:
            for index, rep in enumerate(_verify_reps(cell)):
                yield _verify_decision(cell, index, rep)

    def inputs(self, seed: int) -> Inputs:
        rng = random.Random(seed)
        pools = {cell.name: _verify_reps(cell) for cell in VERIFY_CELLS}
        return Inputs(pools, _orders(rng, [c.pool_size for c in VERIFY_CELLS]), rng)

    def passes(self, inputs: Inputs) -> Iterator[list[Decision]]:
        for k in count():
            decisions = [
                _verify_decision(cell, i, inputs.pools[cell.name][i])
                for cell, order in zip(VERIFY_CELLS, inputs.orders)
                for i in _dealt(order, cell.weight, k)
            ]
            inputs.rng.shuffle(decisions)
            yield decisions


# ---------------------------------------------------------------------------
# oracle_subrep: the oracle-vs-theory cross-validation sweep
# ---------------------------------------------------------------------------

QUIVER_FILE = "bench/bipartite.quiver"  # quivex counterexample's quiver, from the root
BIPARTITE_D = (3, 6, 5)
# e vectors whose has_subrep_of_dim cost stays within a small factor
# across seeds; (3,5,1) is the counterexample command's vector
BIPARTITE_E = {
    2: ((3, 5, 1), (2, 4, 4), (1, 2, 1), (0, 1, 3), (1, 4, 4), (3, 6, 4)),
    3: ((3, 5, 1), (1, 2, 1), (0, 1, 3), (3, 6, 4)),
}
SUBREP_POOL = 5  # representation seeds per (family, d)
SUBREP_REPS = 5  # representations each case is checked on per pass


@dataclass(frozen=True)
class SubrepCase:
    family: str  # "K2", "K3", "B_F2", "B_F3"
    quiver: object
    d: tuple[int, ...]
    e: tuple[int, ...]
    p: int

    @property
    def key(self) -> str:
        return f"{self.family}:d={self.d}:e={self.e}".replace(" ", "")

    @property
    def reps_key(self) -> str:
        return f"{self.family}:d={self.d}".replace(" ", "")


def subrep_cases() -> list[SubrepCase]:
    cases = []
    for m in (2, 3):
        quiver = qx.make_kronecker(m)
        for d in product(range(1, 5), repeat=2):
            for e in product(range(d[0] + 1), range(d[1] + 1)):
                cases.append(SubrepCase(f"K{m}", quiver, d, e, 5))
    bipartite = qx.load_quiver(QUIVER_FILE)
    for p, es in BIPARTITE_E.items():
        for e in es:
            cases.append(SubrepCase(f"B_F{p}", bipartite, BIPARTITE_D, e, p))
    return cases


def _subrep_reps(cases: list[SubrepCase]) -> dict[str, list]:
    """SUBREP_POOL representations per (family, d), shared by that d's cases."""
    reps = {}
    for case in cases:
        if case.reps_key not in reps:
            reps[case.reps_key] = [
                qx.random_rep(case.quiver, case.d, case.p, i) for i in range(SUBREP_POOL)
            ]
    return reps


def _embeds_decision(case: SubrepCase, cache, verdict: dict) -> Decision:
    """schofield.embeds once per case, as the test does; its verdict picks the check."""

    def call():
        verdict["generic"] = qx.embeds(case.quiver, case.e, case.d, cache)
        return verdict["generic"]

    def judge(generic):
        return _canonical({"generic": generic}), []

    return Decision(f"{case.family}.embeds", ("embeds:" + case.key, 0), call, judge)


def _subrep_decision(case: SubrepCase, index: int, rep, verdict: dict) -> Decision:
    """If e embeds: the first subspace with small image; if not: the search."""
    by_subspace = case.family.startswith("K")  # image_sum_dim is K(m) only

    def call():
        generic = verdict["generic"]
        if generic and by_subspace:
            subspaces = qx.enumerate_subspaces(case.p, case.d[0], case.e[0])
            hit = next((u for u in subspaces if qx.image_sum_dim(rep, u) <= case.e[1]), None)
            return generic, hit
        return generic, qx.has_subrep_of_dim(rep, case.e)

    def judge(result):
        generic, found = result
        problems = []
        if generic and by_subspace and found is not None:
            found = found.basis.tolist()
            e1, e2 = case.e
            r = _image_rank(found, [f.tolist() for f in rep.matrices], case.p)
            if len(found) != e1 or (e1 and _rank_mod(found, case.p) != e1):
                problems.append("witness has the wrong dimension")
            if r > e2:
                problems.append(f"witness image rank {r} exceeds {e2}")
        return _canonical({"generic": generic, "found": found}), problems

    return Decision(case.family, (case.key, index), call, judge)


class OracleSubrep:
    name = "oracle_subrep"
    cycle_passes = SUBREP_POOL // SUBREP_REPS
    cycle_seconds = 12.5

    def pool(self) -> Iterator[Decision]:
        cases = subrep_cases()
        reps = _subrep_reps(cases)
        cache = qx.SubdimCache()
        for case in cases:
            verdict: dict = {}
            yield _embeds_decision(case, cache, verdict)
            for index, rep in enumerate(reps[case.reps_key]):
                yield _subrep_decision(case, index, rep, verdict)

    def inputs(self, seed: int) -> Inputs:
        rng = random.Random(seed)
        cases = subrep_cases()
        pools = {"cases": cases, "reps": _subrep_reps(cases)}
        return Inputs(pools, _orders(rng, [SUBREP_POOL]), rng)

    def passes(self, inputs: Inputs) -> Iterator[list[Decision]]:
        """One sweep per pass, sharing one cache: cases in a seeded order, each
        an embeds decision followed by one decision per representation."""
        cases = list(inputs.pools["cases"])
        reps = inputs.pools["reps"]
        for k in count():
            indices = _dealt(inputs.orders[0], SUBREP_REPS, k)
            cache = qx.SubdimCache()
            inputs.rng.shuffle(cases)
            decisions = []
            for case in cases:
                verdict: dict = {}
                decisions.append(_embeds_decision(case, cache, verdict))
                decisions.extend(
                    _subrep_decision(case, i, reps[case.reps_key][i], verdict) for i in indices
                )
            yield decisions


# ---------------------------------------------------------------------------
# exact_sweep: in-process `quivex` CLI calls on the exact layers
# ---------------------------------------------------------------------------


def _on_cone(m: int, d1: int, d2: int) -> bool:
    return d1 * d1 + d2 * d2 - m * d1 * d2 <= 0


def _cone_d2(rng: random.Random, m: int, d1: int, lo: int, hi: int) -> int:
    choices = [d2 for d2 in range(lo, hi + 1) if _on_cone(m, d1, d2)]
    return rng.choice(choices)


def _rational(rng: random.Random, den_lo: int, den_hi: int) -> Fraction:
    q = rng.randrange(den_lo, den_hi)
    return Fraction(rng.randrange(1, q), q)


def _text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _slope_delta(rng: random.Random, den_lo: int, den_hi: int):
    """(m, alpha, delta) meeting epsilon_m_alpha_delta's preconditions."""
    while True:
        m = rng.choice((3, 4, 5))
        alpha = rng.choice((F(1), F(3, 2), F(2, 3), F(2), F(1, 2), F(5, 4)))
        delta = _rational(rng, den_lo, den_hi)
        if alpha * alpha - m * alpha + 1 < 0 and m * delta + alpha - 2 * alpha * delta > 0:
            return m, alpha, delta


def _vec(d) -> str:
    return ",".join(str(x) for x in d)


def _sub_vec(rng: random.Random, d) -> tuple[int, ...]:
    while True:
        e = tuple(rng.randint(0, x) for x in d)
        if any(e) and e != tuple(d):
            return e


def _subdims_k(rng):
    m = rng.choice((3, 4, 5))
    return ["subdims", "--kronecker", str(m), "--d", _vec((rng.randint(3, 10), rng.randint(3, 10)))]


def _subdims_b(rng):
    d = (rng.randint(1, 4), rng.randint(2, 8), rng.randint(1, 4))
    return ["subdims", "--quiver", QUIVER_FILE, "--d", _vec(d)]


def _embed_k(rng):
    m = rng.choice((3, 4, 5))
    d = (rng.randint(4, 12), rng.randint(4, 12))
    return ["embed", "--kronecker", str(m), "--e", _vec(_sub_vec(rng, d)), "--d", _vec(d)]


def _embed_b(rng):
    d = (rng.randint(1, 6), rng.randint(2, 12), rng.randint(1, 6))
    return ["embed", "--quiver", QUIVER_FILE, "--e", _vec(_sub_vec(rng, d)), "--d", _vec(d)]


def _theta_k(rng):
    m = rng.choice((3, 4, 5))
    theta = (rng.randint(1, 3), -rng.randint(1, 3))
    delta = rng.choice(("1/3", "1/2", "2/3"))
    return ["theta-scan", "--kronecker", str(m), "--theta", _vec(theta),
            "--delta", delta, "--dmax", str(rng.randint(6, 10))]


def _theta_b(rng):
    theta = (rng.randint(1, 3), -rng.randint(1, 3), rng.randint(0, 3))
    delta = rng.choice(("1/3", "1/2", "2/3"))
    return ["theta-scan", "--quiver", QUIVER_FILE, "--theta", _vec(theta),
            "--delta", delta, "--dmax", str(rng.randint(3, 5))]


def _exists(rng):
    m = rng.choice((3, 4))
    d1 = rng.randint(300, 1500)
    d2 = _cone_d2(rng, m, d1, d1 // 2, 3 * d1 // 2)
    delta = rng.choice(("1/3", "2/5", "1/2", "3/5"))
    eps = rng.choice(("1/10", "1/5", "1/3", "1/2"))
    return ["exists", "--m", str(m), "--d", _vec((d1, d2)), "--delta", delta, "--epsilon", eps]


def _curve(rng):
    m = rng.choice((3, 4))
    d1 = rng.randint(150, 300)
    return ["curve", "--m", str(m), "--d", _vec((d1, _cone_d2(rng, m, d1, 150, 300)))]


def _epsilon(den_lo, den_hi):
    def make(rng):
        m, alpha, delta = _slope_delta(rng, den_lo, den_hi)
        return ["epsilon", "--m", str(m), "--alpha", _text(alpha), "--delta", _text(delta)]

    return make


def _uniform(den_lo, den_hi):
    def make(rng):
        m, alpha, delta = _slope_delta(rng, den_lo, den_hi)
        eps = rng.choice(("1/10", "1/5", "1/3"))
        return ["exists-uniform", "--m", str(m), "--alpha", _text(alpha),
                "--delta", _text(delta), "--epsilon", eps]

    return make


# (stratum, commands per pass, generator); a stratum's pool holds
# EXACT_POOL_PASSES passes' worth of commands, each generated from
# (stratum, index) alone
EXACT_STRATA = (
    ("subdims_kronecker", 12, _subdims_k),
    ("subdims_bipartite", 8, _subdims_b),
    ("embed_kronecker", 20, _embed_k),
    ("embed_bipartite", 12, _embed_b),
    ("theta_kronecker", 8, _theta_k),
    ("theta_bipartite", 6, _theta_b),
    ("exists", 10, _exists),
    ("curve", 10, _curve),
    ("epsilon_den1e3", 8, _epsilon(10**3, 2 * 10**3)),
    ("epsilon_den1e4", 6, _epsilon(10**4, 2 * 10**4)),
    ("epsilon_den1e5", 3, _epsilon(10**5, 12 * 10**4)),
    ("uniform_den1e3", 6, _uniform(10**3, 2 * 10**3)),
    ("uniform_den1e4", 4, _uniform(10**4, 2 * 10**4)),
    ("uniform_den1e5", 2, _uniform(10**5, 12 * 10**4)),
)
EXACT_POOL_PASSES = 3


def exact_command(stratum: str, make, index: int) -> list[str]:
    return make(random.Random(f"{stratum}:{index}"))


def _cli_decision(stratum: str, index: int, argv: list[str]) -> Decision:
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue(), err.getvalue()

    def judge(result):
        code, out, err = result
        problems = [] if code == 0 else [f"exit code {code}: {err.strip()}"]
        return f"exit={code}\n{out}".encode(), problems

    return Decision(stratum, (stratum, index), call, judge)


def _exact_commands() -> dict[str, list[list[str]]]:
    return {
        stratum: [exact_command(stratum, make, i) for i in range(EXACT_POOL_PASSES * n)]
        for stratum, n, make in EXACT_STRATA
    }


class ExactSweep:
    name = "exact_sweep"
    cycle_passes = EXACT_POOL_PASSES
    cycle_seconds = 13.5

    def pool(self) -> Iterator[Decision]:
        for stratum, commands in _exact_commands().items():
            for index, argv in enumerate(commands):
                yield _cli_decision(stratum, index, argv)

    def inputs(self, seed: int) -> Inputs:
        rng = random.Random(seed)
        sizes = [EXACT_POOL_PASSES * n for _, n, _ in EXACT_STRATA]
        return Inputs(_exact_commands(), _orders(rng, sizes), rng)

    def passes(self, inputs: Inputs) -> Iterator[list[Decision]]:
        for k in count():
            decisions = [
                _cli_decision(stratum, i, inputs.pools[stratum][i])
                for (stratum, n, _), order in zip(EXACT_STRATA, inputs.orders)
                for i in _dealt(order, n, k)
            ]
            inputs.rng.shuffle(decisions)
            yield decisions


WORKLOADS = {w.name: w for w in (OracleVerify(), OracleSubrep(), ExactSweep())}
