"""Command-line front end with machine-readable JSON/CSV output.

Rationals are entered as ``P/Q`` (or plain integers), never as decimals,
so exactness is preserved end to end.  Each command and option is one
entry of the option table ``_COMMANDS``, and the argparse parsers are
built from it.  Well-formed argv, ``COMMAND (--flag VALUE |
--flag=VALUE)...`` with exact flags each given once, is read straight
from the table, each value through the type function argparse would call.
Any other argv (no words, -h, an unknown command or flag, an
abbreviation, a doubled flag, a value argparse refuses) goes to argparse,
so help, usage lines and every refusal are argparse's own: a malformed
value, or a missing or doubled quiver source, gets a usage line and exit
2.  argparse parses a command's words once, by that command's parser
alone, and a word it leaves over is refused by the top-level parser, as
argparse's own two passes (top-level parser, then the command's) would
refuse it.

Every command prints one JSON envelope {command, inputs, result, exact,
approx}, whose inputs echo the parsed arguments; ``curve`` streams its
rows into that envelope, or emits CSV instead.  Exit codes: 0 for a
computed decision (true or false alike), 2 for input errors, 3 for an
exceeded work budget.  Vertex, arrow and sample counts and dimension
entries are capped at 10**6, and a sampled representation at 10**7
matrix entries, before anything is built.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .expander import (
    ExpanderParams,
    SlopeParams,
    StabilityFunction,
    _check_delta,
    _theta_suprema,
    _theta_zeros,
    _uniform_decision,
    epsilon_k,
    epsilon_m_alpha_delta,
    expander_exists,
)
from .finfield import FiniteFieldRep, is_expander_rep, random_rep
from .kronecker import KroneckerContext, _curve_rows, _require_negative_form
from .quiver import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    _Budget,
    check_count,
    euler_form,
    in_fundamental_domain,
    load_quiver,
    make_kronecker,
    parse_quiver,
)
from .schofield import embeds, generic_subdims
from .surd import QuadraticSurd

_COUNTEREXAMPLE_QUIVER = "vertices 3\n1 -> 2\n1 -> 2\n3 -> 2\n3 -> 2\n"
# json.dumps of {"x": x, "c_exact": text, "c_approx": decimal, "c_ceil": ceil}
_CURVE_ROW = '{"x": %d, "c_exact": "%s", "c_approx": "%s", "c_ceil": %d}'


# -- argument types: argparse reports their errors and exits 2 ---------------


def _rational(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        message = f"malformed rational {text!r}: expected P/Q or integer"
        raise argparse.ArgumentTypeError(message) from None


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed integer list {text!r}") from None


def _rationals(text: str) -> tuple[Fraction, ...]:
    return tuple(_rational(part) for part in text.split(","))


def _resolve_quiver(args):
    if args.kronecker is None:
        return load_quiver(args.quiver)
    return make_kronecker(check_count(args.kronecker, "--kronecker"))


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(x) for x in value]
    return str(value) if isinstance(value, Fraction) else value


def _head(args) -> dict:
    """The envelope's command and inputs: the parsed arguments, in parse order."""
    inputs = {
        key: _plain(value)
        for key, value in vars(args).items()
        if value is not None and key not in ("subcommand", "func")
    }
    return {"command": args.subcommand, "inputs": inputs}


def _emit(args, result, surd: QuadraticSurd | None = None) -> int:
    """Print the envelope of one decision."""
    exact, approx = (None, None) if surd is None else (surd.exact_parts(), surd.decimal(12))
    payload = dict(_head(args), result=result, exact=exact, approx=approx)
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


def _verdict(rep, params) -> dict:
    verdict = is_expander_rep(rep, params)
    witness = verdict.witness
    if witness is not None:
        witness = {"dim": witness.dim, "basis": witness.basis.tolist()}
    return {"ok": verdict.ok, "witness": witness}


# -- subcommand handlers -----------------------------------------------------


def _cmd_embed(args) -> int:
    return _emit(args, {"embeds": embeds(_resolve_quiver(args), args.e, args.d)})


def _cmd_subdims(args) -> int:
    subs = sorted(generic_subdims(_resolve_quiver(args), args.d))
    return _emit(args, {"subdims": [list(e) for e in subs]})


def _cmd_epsilon(args) -> int:
    if args.k is not None:
        if args.m is not None or args.alpha is not None or args.delta is not None:
            raise ValueError("--k cannot be combined with --m/--alpha/--delta")
        value = epsilon_k(args.k)
    else:
        if args.m is None or args.alpha is None or args.delta is None:
            raise ValueError("epsilon needs --k K, or all of --m --alpha --delta")
        value = epsilon_m_alpha_delta(args.m, args.alpha, args.delta)
    return _emit(args, {"epsilon": str(value)}, value)


def _cmd_exists(args) -> int:
    decision = expander_exists(args.m, args.d, ExpanderParams(args.delta, args.epsilon))
    violating = list(decision.violating_e) if decision.violating_e else None
    return _emit(args, {"exists": decision.exists, "violating_e": violating})


def _cmd_exists_uniform(args) -> int:
    slope = SlopeParams(args.m, args.alpha)
    answer, threshold = _uniform_decision(slope, args.delta, args.epsilon)
    return _emit(args, {"exists": answer}, threshold)


def _cmd_verify(args) -> int:
    rep = FiniteFieldRep.load(args.rep)
    return _emit(args, _verdict(rep, ExpanderParams(args.delta, args.epsilon)))


def _cmd_sample(args) -> int:
    if (args.delta is None) != (args.epsilon is None):
        raise ValueError("--delta and --epsilon must be given together")
    check_count(args.count, "--count", low=0)
    quiver = make_kronecker(check_count(args.kronecker, "--kronecker"))
    params = None if args.delta is None else ExpanderParams(args.delta, args.epsilon)
    samples = []
    for seed in range(args.seed, args.seed + args.count):
        rep = random_rep(quiver, args.d, args.p, seed)
        verdict = {} if params is None else _verdict(rep, params)
        samples.append({"seed": seed, **verdict})
    return _emit(args, {"samples": samples})


def _cmd_counterexample(args) -> int:
    quiver = parse_quiver(_COUNTEREXAMPLE_QUIVER)
    diff = tuple(a - b for a, b in zip(args.d, args.e))
    result = {
        "euler": euler_form(quiver, args.e, diff),
        "embeds": embeds(quiver, args.e, args.d),
        "fundamental_domain": in_fundamental_domain(quiver, args.d),
    }
    return _emit(args, result)


def _cmd_theta_scan(args) -> int:
    quiver = _resolve_quiver(args)
    if len(args.theta) != quiver.vertex_count:
        raise ValueError("theta weight count does not match the quiver")
    delta = _check_delta(args.delta)
    check_count(args.dmax, "--dmax")
    # every d of the cube is visited, so the cube is charged before the scan
    n = quiver.vertex_count
    cube = (args.dmax + 1) ** n
    _Budget(DEFAULT_BUDGET, "subdims").charge(cube, f" on the cube [0, {args.dmax}]^{n}")
    # clear denominators jointly: scaling theta by L scales every reported
    # epsilon bound by L, so divide the scaled results back out
    scale = math.lcm(*(w.denominator for w in args.theta))
    theta = StabilityFunction(tuple(int(w * scale) for w in args.theta))
    # one call for the whole scan, so one walk answers every vector of its box
    zeros = _theta_zeros(theta, args.dmax)
    sups = _theta_suprema(quiver, theta, zeros, delta)
    rows = [
        {"d": list(d), "epsilon_sup": str(sups[d] / scale) if sups[d] is not None else None}
        for d in zeros
    ]
    return _emit(args, {"rows": rows})


def _cmd_curve(args) -> int:
    if len(args.d) != 2:
        raise ValueError("--d must be a pair D1,D2")
    ctx = KroneckerContext(args.m, args.d)
    _require_negative_form(ctx)  # refused before the first row is printed
    rows = _curve_rows(ctx)
    if args.format == "csv":
        sys.stdout.write("x,c_exact,c_approx,c_ceil\n")
        sys.stdout.writelines("%d,%s,%s,%d\n" % row for row in rows)
        return 0
    # the envelope _emit prints, written a row at a time: the row texts hold
    # no quote, backslash, control or non-ASCII character for JSON to escape
    head = json.dumps(_head(args))[:-1]
    sys.stdout.write(head + ', "result": {"rows": [' + _CURVE_ROW % next(rows))
    sys.stdout.writelines(", " + _CURVE_ROW % row for row in rows)
    sys.stdout.write(']}, "exact": null, "approx": null}\n')
    return 0


# -- option table ------------------------------------------------------------


class _Option(NamedTuple):
    """One ``--flag VALUE`` option: add_argument's keywords for it, and
    whether it is one of its command's required --quiver/--kronecker pair."""

    flag: str
    type: Callable[[str], object] | None = None
    required: bool = False
    help: str | None = None
    choices: tuple[str, ...] | None = None
    default: object = None
    source: bool = False


class _Command(NamedTuple):
    """A command: its handler, its help line, its options in declaration
    order (the namespace's key order) and the keys no option sets, which
    follow func in the namespace."""

    func: Callable[[argparse.Namespace], int]
    summary: str
    options: tuple[_Option, ...] = ()
    defaults: dict = {}


_SOURCE = (
    _Option("--quiver", help="quiver file (vertices N / i -> j lines)", source=True),
    _Option("--kronecker", int, help="use K(M): two vertices, M arrows", source=True),
)

_COMMANDS = {
    "embed": _Command(_cmd_embed, "does e embed generically into d?", (
        *_SOURCE,
        _Option("--e", _ints, True, "dimension vector, comma separated"),
        _Option("--d", _ints, True, "dimension vector, comma separated"),
    )),
    "subdims": _Command(_cmd_subdims, "all generic subdimension vectors of d", (
        *_SOURCE,
        _Option("--d", _ints, True),
    )),
    "epsilon": _Command(_cmd_epsilon, "sharp expansion coefficients", (
        _Option("--k", int, help="operator count (equal dimensions)"),
        _Option("--m", int, help="arrow count"),
        _Option("--alpha", _rational, help="slope as P/Q"),
        _Option("--delta", _rational, help="size bound as P/Q"),
    )),
    "exists": _Command(_cmd_exists, "expander existence for one dimension vector", (
        _Option("--m", int, True),
        _Option("--d", _ints, True, "D1,D2"),
        _Option("--delta", _rational, True),
        _Option("--epsilon", _rational, True),
    )),
    "exists-uniform": _Command(
        _cmd_exists_uniform, "expander existence for all vectors along a slope", (
            _Option("--m", int, True),
            _Option("--alpha", _rational, True),
            _Option("--delta", _rational, True),
            _Option("--epsilon", _rational, True),
        ),
    ),
    "verify": _Command(_cmd_verify, "check one stored representation", (
        _Option("--rep", required=True, help="representation JSON file"),
        _Option("--delta", _rational, True),
        _Option("--epsilon", _rational, True),
    )),
    "sample": _Command(_cmd_sample, "verify seeded random representations", (
        _Option("--kronecker", int, True),
        _Option("--d", _ints, True, "D1,D2"),
        _Option("--p", int, True),
        _Option("--seed", int, True),
        _Option("--count", int, True),
        _Option("--delta", _rational),
        _Option("--epsilon", _rational),
    )),
    "counterexample": _Command(
        _cmd_counterexample,
        "bipartite quiver where the one-shot form test disagrees with the recursion",
        defaults={"d": (3, 6, 5), "e": (3, 5, 1)},
    ),
    "theta-scan": _Command(
        _cmd_theta_scan, "per-d supremum of the stability-relative expansion margin", (
            *_SOURCE,
            _Option(
                "--theta",
                _rationals,
                True,
                "weights, comma separated (P/Q allowed), as in --theta -1,1 or --theta=-1,1",
            ),
            _Option("--delta", _rational, True),
            _Option("--dmax", int, True),
        ),
    ),
    "curve": _Command(_cmd_curve, "boundary values c_d(x) for x = 0..D1", (
        _Option("--m", int, True),
        _Option("--d", _ints, True, "D1,D2"),
        _Option("--format", choices=("csv", "json"), default="json"),
    )),
}

# each command's options by flag, with the namespace key argparse derives from it
_FLAGS = {
    name: {o.flag: (o.flag[2:].replace("-", "_"), o) for o in command.options}
    for name, command in _COMMANDS.items()
}


# -- parser ------------------------------------------------------------------


# one parser per process: argparse looks up sys.stdout/stderr when it prints
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivex",
        description="Exact decisions for quiver subrepresentations and dimension expanders. "
        "A value may start with '-' (--theta -1,1 or --theta=-1,1).",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # each subcommand's parser by name, so _parse parses a command's words once
    parser.commands = {}
    for name, command in _COMMANDS.items():
        p = parser.commands[name] = sub.add_parser(name, help=command.summary)
        p.set_defaults(func=command.func, **command.defaults)
        source = None
        for o in command.options:
            if o.source and source is None:
                source = p.add_mutually_exclusive_group(required=True)
            (source if o.source else p).add_argument(
                o.flag, type=o.type, required=o.required, choices=o.choices,
                default=o.default, help=o.help,
            )
    return parser


def _joined(argv: list[str]) -> list[str]:
    """argv with each option followed by a word such as -1,1 or -1/2 joined
    into one word, --theta=-1,1: argparse takes a word that starts with '-'
    for an option unless it reads as a plain negative number."""
    words: list[str] = []
    for word in argv:
        if word[:1] == "-" and word[1:2].isdigit() and words and (
            words[-1].startswith("--") and "=" not in words[-1]
        ):
            words[-1] += "=" + word
        else:
            words.append(word)
    return words


def _read(words: list[str]) -> argparse.Namespace | None:
    """The namespace argparse builds from words of the shape COMMAND
    (--flag VALUE | --flag=VALUE)..., read straight from the option table:
    exact flags, each given once, a value starting with '-' only after '='.
    None for words of any other shape, and for words argparse refuses."""
    flags = _FLAGS.get(words[0]) if words else None
    if flags is None:
        return None
    given = {}
    i, n = 1, len(words)
    while i < n:
        flag, joined, value = words[i].partition("=")
        if flag not in flags or flag in given:
            return None
        if not joined:
            i += 1
            if i == n or words[i][:1] == "-":
                return None
            value = words[i]
        i += 1
        option = flags[flag][1]
        if value == "--":  # argparse strips it from the value, leaving []
            return None
        if option.type is not None:
            try:
                value = option.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if option.choices is not None and value not in option.choices:
            return None
        given[flag] = value
    command = _COMMANDS[words[0]]
    sources = [o.flag in given for o in command.options if o.source]
    if sources and sum(sources) != 1:
        return None
    if any(o.required and o.flag not in given for o in command.options):
        return None
    args = argparse.Namespace(subcommand=words[0])
    for flag, (dest, option) in flags.items():
        setattr(args, dest, given.get(flag, option.default))
    args.func = command.func
    for key, value in command.defaults.items():
        setattr(args, key, value)
    return args


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv: well-formed words from the option table, any other words
    by argparse, once: a command's words by its own parser alone, where the
    top-level parser would hand them to that parser after parsing them too."""
    words = _joined(argv)
    args = _read(words)
    if args is not None:
        return args
    parser = _build_parser()
    command = parser.commands.get(words[0]) if words else None
    if command is None:  # no words, -h, or an unknown command
        return parser.parse_args(words)
    args, extras = command.parse_known_args(words[1:], argparse.Namespace(subcommand=words[0]))
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    return args


def run(argv: list[str]) -> int:
    try:
        args = _parse(argv)
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
