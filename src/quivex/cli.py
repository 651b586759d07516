"""Command-line front end with machine-readable JSON/CSV output.

Rationals are entered as ``P/Q`` (or plain integers), never as decimals,
so exactness is preserved end to end.  Every command prints one JSON
envelope {command, inputs, result, exact, approx} on stdout; ``curve``
can emit CSV instead.  Exit codes: 0 for a computed decision (true or
false alike), 2 for input errors, 3 for an exceeded work budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from itertools import product

from .expander import (
    ExpanderParams,
    SlopeParams,
    StabilityFunction,
    _check_delta,
    _theta_suprema,
    _uniform_decision,
    epsilon_k,
    epsilon_m_alpha_delta,
    expander_exists,
)
from .finfield import FiniteFieldRep, is_expander_rep, random_rep
from .kronecker import KroneckerContext, c_d_ceil, c_d_exact
from .quiver import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    _Budget,
    euler_form,
    in_fundamental_domain,
    load_quiver,
    make_kronecker,
    parse_quiver,
)
from .schofield import embeds, generic_subdims
from .surd import QuadraticSurd

_COUNTEREXAMPLE_QUIVER = "vertices 3\n1 -> 2\n1 -> 2\n3 -> 2\n3 -> 2\n"


def _parse_rational(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}: expected P/Q or integer") from exc


def _parse_int_csv(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed integer list {text!r}") from exc


def _parse_rational_csv(text: str) -> tuple[Fraction, ...]:
    return tuple(_parse_rational(part) for part in text.split(","))


def _resolve_quiver(args):
    has_kronecker = getattr(args, "kronecker", None) is not None
    has_file = bool(getattr(args, "quiver", None))
    if has_kronecker and has_file:
        raise ValueError("--quiver and --kronecker are mutually exclusive")
    if has_kronecker:
        if args.kronecker < 1:
            raise ValueError("--kronecker takes a positive arrow count")
        return make_kronecker(args.kronecker), {"kronecker": args.kronecker}
    if has_file:
        return load_quiver(args.quiver), {"quiver": args.quiver}
    raise ValueError("one of --quiver FILE or --kronecker M is required")


def _envelope(command: str, inputs: dict, result, exact=None, approx=None) -> dict:
    payload = {"command": command, "inputs": inputs, "result": result}
    payload["exact"] = exact
    payload["approx"] = approx
    return payload


def _emit(payload: dict):
    sys.stdout.write(json.dumps(payload) + "\n")


def _surd_fields(value: QuadraticSurd) -> tuple[dict, str]:
    return value.exact_parts(), value.decimal(12)


# -- subcommand handlers -----------------------------------------------------


def _cmd_embed(args) -> int:
    quiver, qinput = _resolve_quiver(args)
    e = _parse_int_csv(args.e)
    d = _parse_int_csv(args.d)
    answer = embeds(quiver, e, d)
    inputs = dict(qinput, e=list(e), d=list(d))
    _emit(_envelope("embed", inputs, {"embeds": answer}))
    return 0


def _cmd_subdims(args) -> int:
    quiver, qinput = _resolve_quiver(args)
    d = _parse_int_csv(args.d)
    subs = sorted(generic_subdims(quiver, d))
    inputs = dict(qinput, d=list(d))
    _emit(_envelope("subdims", inputs, {"subdims": [list(e) for e in subs]}))
    return 0


def _cmd_epsilon(args) -> int:
    if args.k is not None:
        if args.m is not None or args.alpha is not None or args.delta is not None:
            raise ValueError("--k cannot be combined with --m/--alpha/--delta")
        value = epsilon_k(args.k)
        inputs = {"k": args.k}
    else:
        if args.m is None or args.alpha is None or args.delta is None:
            raise ValueError("epsilon needs --k K, or all of --m --alpha --delta")
        alpha = _parse_rational(args.alpha)
        delta = _parse_rational(args.delta)
        value = epsilon_m_alpha_delta(args.m, alpha, delta)
        inputs = {"m": args.m, "alpha": str(alpha), "delta": str(delta)}
    exact, approx = _surd_fields(value)
    _emit(_envelope("epsilon", inputs, {"epsilon": str(value)}, exact, approx))
    return 0


def _cmd_exists(args) -> int:
    d = _parse_int_csv(args.d)
    delta = _parse_rational(args.delta)
    epsilon = _parse_rational(args.epsilon)
    decision = expander_exists(args.m, d, ExpanderParams(delta, epsilon))
    inputs = {"m": args.m, "d": list(d), "delta": str(delta), "epsilon": str(epsilon)}
    result = {
        "exists": decision.exists,
        "violating_e": list(decision.violating_e) if decision.violating_e else None,
    }
    _emit(_envelope("exists", inputs, result))
    return 0


def _cmd_exists_uniform(args) -> int:
    alpha = _parse_rational(args.alpha)
    delta = _parse_rational(args.delta)
    epsilon = _parse_rational(args.epsilon)
    answer, threshold = _uniform_decision(SlopeParams(args.m, alpha), delta, epsilon)
    inputs = {
        "m": args.m,
        "alpha": str(alpha),
        "delta": str(delta),
        "epsilon": str(epsilon),
    }
    exact, approx = _surd_fields(threshold)
    _emit(_envelope("exists-uniform", inputs, {"exists": answer}, exact, approx))
    return 0


def _witness_payload(verdict):
    if verdict.witness is None:
        return None
    return {
        "dim": verdict.witness.dim,
        "basis": verdict.witness.basis.tolist(),
    }


def _cmd_verify(args) -> int:
    rep = FiniteFieldRep.load(args.rep)
    delta = _parse_rational(args.delta)
    epsilon = _parse_rational(args.epsilon)
    verdict = is_expander_rep(rep, ExpanderParams(delta, epsilon))
    inputs = {"rep": args.rep, "delta": str(delta), "epsilon": str(epsilon)}
    result = {"ok": verdict.ok, "witness": _witness_payload(verdict)}
    _emit(_envelope("verify", inputs, result))
    return 0


def _cmd_sample(args) -> int:
    if (args.delta is None) != (args.epsilon is None):
        raise ValueError("--delta and --epsilon must be given together")
    if args.count < 0:
        raise ValueError(f"--count must be non-negative, got {args.count}")
    d = _parse_int_csv(args.d)
    quiver = make_kronecker(args.kronecker)
    inputs = {
        "kronecker": args.kronecker,
        "d": list(d),
        "p": args.p,
        "seed": args.seed,
        "count": args.count,
    }
    params = None
    if args.delta is not None:
        delta = _parse_rational(args.delta)
        epsilon = _parse_rational(args.epsilon)
        params = ExpanderParams(delta, epsilon)
        inputs["delta"] = str(delta)
        inputs["epsilon"] = str(epsilon)
    samples = []
    for seed in range(args.seed, args.seed + args.count):
        rep = random_rep(quiver, d, args.p, seed)
        record = {"seed": seed}
        if params is not None:
            verdict = is_expander_rep(rep, params)
            record["ok"] = verdict.ok
            record["witness"] = _witness_payload(verdict)
        samples.append(record)
    _emit(_envelope("sample", inputs, {"samples": samples}))
    return 0


def _cmd_counterexample(args) -> int:
    quiver = parse_quiver(_COUNTEREXAMPLE_QUIVER)
    d = (3, 6, 5)
    e = (3, 5, 1)
    diff = tuple(a - b for a, b in zip(d, e))
    result = {
        "euler": euler_form(quiver, e, diff),
        "embeds": embeds(quiver, e, d),
        "fundamental_domain": in_fundamental_domain(quiver, d),
    }
    inputs = {"d": list(d), "e": list(e)}
    _emit(_envelope("counterexample", inputs, result))
    return 0


def _cmd_theta_scan(args) -> int:
    quiver, qinput = _resolve_quiver(args)
    weights = _parse_rational_csv(args.theta)
    if len(weights) != quiver.vertex_count:
        raise ValueError("theta weight count does not match the quiver")
    delta = _check_delta(_parse_rational(args.delta))
    if args.dmax < 1:
        raise ValueError("--dmax must be positive")
    # every d of the cube is visited, so the cube is charged before the scan
    n = quiver.vertex_count
    cube = (args.dmax + 1) ** n
    _Budget(DEFAULT_BUDGET, "subdims").charge(cube, f" on the cube [0, {args.dmax}]^{n}")
    # clear denominators jointly: scaling theta by L scales every reported
    # epsilon bound by L, so divide the scaled results back out
    scale = 1
    for w in weights:
        scale = scale * w.denominator // math.gcd(scale, w.denominator)
    theta = StabilityFunction(tuple(int(w * scale) for w in weights))
    # one call for the whole scan, so one walk answers every vector of its box
    zeros = [d for d in product(range(args.dmax + 1), repeat=n) if any(d) and theta(d) == 0]
    sups = _theta_suprema(quiver, theta, zeros, delta)
    rows = [
        {"d": list(d), "epsilon_sup": str(sups[d] / scale) if sups[d] is not None else None}
        for d in zeros
    ]
    inputs = dict(
        qinput,
        theta=[str(w) for w in weights],
        delta=str(delta),
        dmax=args.dmax,
    )
    _emit(_envelope("theta-scan", inputs, {"rows": rows}))
    return 0


def _cmd_curve(args) -> int:
    d = _parse_int_csv(args.d)
    if len(d) != 2:
        raise ValueError("--d must be a pair D1,D2")
    ctx = KroneckerContext(args.m, (d[0], d[1]))
    rows = []
    for x in range(d[0] + 1):
        value = c_d_exact(ctx, x)
        rows.append(
            {
                "x": x,
                "c_exact": str(value),
                "c_approx": value.decimal(12),
                "c_ceil": c_d_ceil(ctx, x),
            }
        )
    inputs = {"m": args.m, "d": list(d), "format": args.format}
    if args.format == "csv":
        sys.stdout.write("x,c_exact,c_approx,c_ceil\n")
        for row in rows:
            sys.stdout.write(
                f"{row['x']},{row['c_exact']},{row['c_approx']},{row['c_ceil']}\n"
            )
    else:
        _emit(_envelope("curve", inputs, {"rows": rows}))
    return 0


# -- parser ------------------------------------------------------------------


# one parser per process: argparse looks up sys.stdout/stderr when it prints
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivex",
        description="Exact decisions for quiver subrepresentations and dimension expanders.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_quiver_source(p):
        p.add_argument("--quiver", help="quiver file (vertices N / i -> j lines)")
        p.add_argument("--kronecker", type=int, help="use K(M): two vertices, M arrows")

    p = sub.add_parser("embed", help="does e embed generically into d?")
    add_quiver_source(p)
    p.add_argument("--e", required=True, help="dimension vector, comma separated")
    p.add_argument("--d", required=True, help="dimension vector, comma separated")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("subdims", help="all generic subdimension vectors of d")
    add_quiver_source(p)
    p.add_argument("--d", required=True)
    p.set_defaults(func=_cmd_subdims)

    p = sub.add_parser("epsilon", help="sharp expansion coefficients")
    p.add_argument("--k", type=int, help="operator count (equal dimensions)")
    p.add_argument("--m", type=int, help="arrow count")
    p.add_argument("--alpha", help="slope as P/Q")
    p.add_argument("--delta", help="size bound as P/Q")
    p.set_defaults(func=_cmd_epsilon)

    p = sub.add_parser("exists", help="expander existence for one dimension vector")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", required=True, help="D1,D2")
    p.add_argument("--delta", required=True)
    p.add_argument("--epsilon", required=True)
    p.set_defaults(func=_cmd_exists)

    p = sub.add_parser(
        "exists-uniform", help="expander existence for all vectors along a slope"
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--epsilon", required=True)
    p.set_defaults(func=_cmd_exists_uniform)

    p = sub.add_parser("verify", help="check one stored representation")
    p.add_argument("--rep", required=True, help="representation JSON file")
    p.add_argument("--delta", required=True)
    p.add_argument("--epsilon", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sample", help="verify seeded random representations")
    p.add_argument("--kronecker", type=int, required=True)
    p.add_argument("--d", required=True, help="D1,D2")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--delta")
    p.add_argument("--epsilon")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser(
        "counterexample",
        help="bipartite quiver where the one-shot form test disagrees with the recursion",
    )
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser(
        "theta-scan", help="per-d supremum of the stability-relative expansion margin"
    )
    add_quiver_source(p)
    p.add_argument("--theta", required=True, help="weights, comma separated (P/Q allowed)")
    p.add_argument("--delta", required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.set_defaults(func=_cmd_theta_scan)

    p = sub.add_parser("curve", help="boundary values c_d(x) for x = 0..D1")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", required=True, help="D1,D2")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(func=_cmd_curve)

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
