"""End-to-end tests of the command-line interface."""

import contextlib
import io
import json
import math
import numbers
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from quivex import (
    DEFAULT_BUDGET,
    ExpanderParams,
    FiniteFieldRep,
    KroneckerContext,
    Quiver,
    SlopeParams,
    beta,
    epsilon_k,
    epsilon_m_alpha_delta,
    expander_exists,
    make_kronecker,
)
from quivex.cli import (
    _COMMANDS,
    _build_parser,
    _emit,
    _ints,
    _joined,
    _parse,
    _rational,
    _rationals,
    run,
)
from quivex.kronecker import _curve_rows
from test_kronecker import RENDER_GRID

K3_TEXT = "vertices 2\n1 -> 2\n1 -> 2\n1 -> 2\n"
BIPARTITE_TEXT = "vertices 3\n1 -> 2\n1 -> 2\n3 -> 2\n3 -> 2\n"


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_epsilon_k(capsys):
    code, payload = _run_json(capsys, ["epsilon", "--k", "2"])
    assert code == 0
    assert payload["command"] == "epsilon"
    assert payload["exact"] == {"p": 3, "q": -1, "n": 5, "r": 2}
    assert payload["approx"] == "0.381966011250"
    exact = payload["exact"]
    value = (exact["p"] + exact["q"] * math.sqrt(exact["n"])) / exact["r"]
    assert abs(value - float(payload["approx"])) < 1e-9


def test_epsilon_m_alpha_delta(capsys):
    code, payload = _run_json(
        capsys, ["epsilon", "--m", "4", "--alpha", "2", "--delta", "1/2"]
    )
    assert code == 0
    assert payload["exact"] == {"p": 1, "q": 0, "n": 0, "r": 2}


def test_epsilon_precondition_exit_2(capsys):
    code = run(["epsilon", "--m", "2", "--alpha", "1", "--delta", "1/2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "alpha" in captured.err


def test_epsilon_flag_conflicts(capsys):
    assert run(["epsilon", "--k", "2", "--m", "3"]) == 2
    assert run(["epsilon", "--m", "3"]) == 2
    capsys.readouterr()


def test_embed_kronecker(capsys):
    code, payload = _run_json(
        capsys, ["embed", "--kronecker", "2", "--e", "1,0", "--d", "1,1"]
    )
    assert code == 0
    assert payload["result"] == {"embeds": False}


def test_embed_quiver_file(capsys, tmp_path):
    path = tmp_path / "k3.quiver"
    path.write_text(K3_TEXT, encoding="utf-8")
    code, payload = _run_json(
        capsys, ["embed", "--quiver", str(path), "--e", "1,2", "--d", "2,2"]
    )
    assert code == 0
    assert payload["result"] == {"embeds": True}


def test_subdims(capsys):
    code, payload = _run_json(capsys, ["subdims", "--kronecker", "2", "--d", "1,1"])
    assert code == 0
    assert payload["result"]["subdims"] == [[0, 0], [0, 1], [1, 1]]


def test_exists_and_violating_vector(capsys):
    code, payload = _run_json(
        capsys,
        ["exists", "--m", "3", "--d", "10,10", "--delta", "1/2", "--epsilon", "1/2"],
    )
    assert code == 0
    assert payload["result"] == {"exists": False, "violating_e": [5, 7]}
    code, payload = _run_json(
        capsys,
        ["exists", "--m", "3", "--d", "2,2", "--delta", "1/2", "--epsilon", "38/100"],
    )
    assert code == 0
    assert payload["result"] == {"exists": True, "violating_e": None}


def test_exists_uniform(capsys):
    code, payload = _run_json(
        capsys,
        ["exists-uniform", "--m", "3", "--alpha", "1", "--delta", "1/2", "--epsilon", "2/5"],
    )
    assert code == 0
    assert payload["result"] == {"exists": False}


def test_counterexample(capsys):
    code, payload = _run_json(capsys, ["counterexample"])
    assert code == 0
    assert payload["result"] == {
        "euler": 1,
        "embeds": False,
        "fundamental_domain": True,
    }


def test_verify(capsys, tmp_path):
    rep = FiniteFieldRep(
        2, make_kronecker(2), (2, 2), (np.eye(2, dtype=np.int64),) * 2
    )
    path = tmp_path / "rep.json"
    rep.save(path)
    code, payload = _run_json(
        capsys, ["verify", "--rep", str(path), "--delta", "1/2", "--epsilon", "1/10"]
    )
    assert code == 0
    assert payload["result"]["ok"] is False
    assert payload["result"]["witness"] == {"dim": 1, "basis": [[1, 0]]}


def test_verify_malformed_rep_exit_2(capsys, tmp_path):
    # a fractional or boolean entry is refused, not cast to the integer below it
    rep = {
        "p": 5,
        "quiver": {"vertices": 2, "arrows": [[1, 2], [1, 2]]},
        "dim": [1, 1],
        "matrices": [[[1]], [[1]]],
    }
    cases = [
        ({**rep, "matrices": [[[1.7]], [[1]]]}, "not an integer"),
        ({**rep, "matrices": [[[1]], [[True]]]}, "not an integer"),
        ([1], "JSON object"),
        ({"p": 5}, "no field 'quiver'"),
    ]
    argv = ["verify", "--rep", str(tmp_path / "rep.json"), "--delta", "1/2", "--epsilon", "1/2"]
    for data, message in cases:
        (tmp_path / "rep.json").write_text(json.dumps(data))
        assert run(argv) == 2, data
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, captured.err
    (tmp_path / "rep.json").write_text(json.dumps(rep))
    code, payload = _run_json(capsys, argv)
    assert code == 0 and payload["result"] == {"ok": True, "witness": None}


def test_verify_budget_exit_3(capsys, tmp_path):
    from quivex import random_rep

    rep = random_rep(make_kronecker(2), (12, 12), 5, 0)
    path = tmp_path / "big.json"
    rep.save(path)
    code = run(["verify", "--rep", str(path), "--delta", "1/2", "--epsilon", "1/2"])
    captured = capsys.readouterr()
    assert code == 3
    assert "budget" in captured.err


def test_verify_prime_above_bound_exit_2(capsys, tmp_path):
    # 1048583 is the first prime past 2**20, where int64 ranks stop being exact
    data = {
        "p": 1048583,
        "quiver": {"vertices": 2, "arrows": [[1, 2], [1, 2]]},
        "dim": [1, 1],
        "matrices": [[[1]], [[2]]],
    }
    path = tmp_path / "large_p.json"
    path.write_text(json.dumps(data))
    code = run(["verify", "--rep", str(path), "--delta", "1/2", "--epsilon", "1/10"])
    captured = capsys.readouterr()
    assert code == 2
    assert "2**20" in captured.err


def test_sample_deterministic_output(capsys):
    argv = [
        "sample", "--kronecker", "3", "--d", "2,2", "--p", "101",
        "--seed", "0", "--count", "5", "--delta", "1/2", "--epsilon", "38/100",
    ]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert [s["seed"] for s in payload["result"]["samples"]] == [0, 1, 2, 3, 4]
    assert all("ok" in s for s in payload["result"]["samples"])


def test_sample_all_lines_candidate_within_default_budget(capsys):
    # at j = 2 every line of F_59^3 is a candidate: 3541 lines, 3541 planes
    code, payload = _run_json(
        capsys,
        ["sample", "--kronecker", "2", "--d", "3,3", "--p", "59", "--seed", "0",
         "--count", "4", "--delta", "2/3", "--epsilon", "1/10"],
    )
    assert code == 0
    assert payload["result"]["samples"] == [
        {"seed": 0, "ok": False, "witness": {"dim": 1, "basis": [[1, 29, 8]]}},
        {"seed": 1, "ok": False, "witness": {"dim": 1, "basis": [[1, 4, 58]]}},
        {"seed": 2, "ok": False, "witness": {"dim": 1, "basis": [[1, 2, 0]]}},
        {"seed": 3, "ok": True, "witness": None},
    ]


def test_sample_without_params(capsys):
    code, payload = _run_json(
        capsys,
        ["sample", "--kronecker", "2", "--d", "2,2", "--p", "5", "--seed", "3", "--count", "2"],
    )
    assert code == 0
    assert payload["result"]["samples"] == [{"seed": 3}, {"seed": 4}]
    assert run(["sample", "--kronecker", "2", "--d", "2,2", "--p", "5",
                "--seed", "0", "--count", "1", "--delta", "1/2"]) == 2
    capsys.readouterr()


def test_theta_scan(capsys, tmp_path):
    path = tmp_path / "k3.quiver"
    path.write_text(K3_TEXT, encoding="utf-8")
    code, payload = _run_json(
        capsys,
        ["theta-scan", "--quiver", str(path), "--theta", "1,-1", "--delta", "1/2", "--dmax", "4"],
    )
    assert code == 0
    assert payload["result"]["rows"] == [
        {"d": [1, 1], "epsilon_sup": "1"},
        {"d": [2, 2], "epsilon_sup": "1"},
        {"d": [3, 3], "epsilon_sup": "1/3"},
        {"d": [4, 4], "epsilon_sup": "1/3"},
    ]


def test_theta_scan_rational_weights_scale_jointly(capsys):
    code, payload = _run_json(
        capsys,
        ["theta-scan", "--kronecker", "3", "--theta", "1/2,-1/2", "--delta", "1/2", "--dmax", "2"],
    )
    assert code == 0
    assert payload["result"]["rows"] == [
        {"d": [1, 1], "epsilon_sup": "1/2"},
        {"d": [2, 2], "epsilon_sup": "1/2"},
    ]


def test_curve_csv_equals_json_rows(capsys):
    assert run(["curve", "--m", "3", "--d", "2,2", "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    lines = csv_out.strip().splitlines()
    assert lines[0] == "x,c_exact,c_approx,c_ceil"
    code, payload = _run_json(capsys, ["curve", "--m", "3", "--d", "2,2"])
    assert code == 0
    rows = payload["result"]["rows"]
    assert len(rows) == len(lines) - 1
    for row, line in zip(rows, lines[1:]):
        assert line == f"{row['x']},{row['c_exact']},{row['c_approx']},{row['c_ceil']}"
    assert rows[1] == {
        "x": 1,
        "c_exact": "(5-sqrt(5))/2",
        "c_approx": "1.38196601125",
        "c_ceil": 2,
    }


# the exact_sweep benchmark pool's 30 curves, (m, (D1, D2))
POOL_CURVES = [
    (3, (272, 193)), (4, (244, 247)), (4, (181, 202)), (4, (174, 181)), (4, (151, 266)),
    (4, (186, 256)), (4, (196, 275)), (4, (278, 283)), (4, (258, 207)), (4, (245, 289)),
    (3, (154, 291)), (4, (158, 155)), (3, (155, 293)), (3, (281, 188)), (3, (265, 181)),
    (3, (246, 265)), (3, (228, 258)), (4, (297, 212)), (4, (252, 299)), (4, (224, 180)),
    (3, (241, 288)), (4, (168, 234)), (3, (273, 280)), (3, (209, 262)), (3, (223, 221)),
    (4, (269, 217)), (4, (282, 162)), (3, (184, 243)), (3, (180, 239)), (3, (295, 241)),
]


@pytest.mark.parametrize("m, d", RENDER_GRID + [(2, (3, 3))] + POOL_CURVES, ids=str)
def test_curve_json_rows_match_the_dict_writer_and_csv(capsys, m, d):
    # the oracle is the writer the JSON rows had before they were streamed:
    # one dict per row, the whole list encoded by _emit; K(2) (3, 3) has the
    # rational row 0, "0"
    argv = ["curve", "--m", str(m), "--d", f"{d[0]},{d[1]}"]
    assert run(argv) == 0
    streamed = capsys.readouterr()
    rows = [{"x": x, "c_exact": e, "c_approx": a, "c_ceil": c}
            for x, e, a, c in _curve_rows(KroneckerContext(m, d))]
    _emit(_parse(argv), {"rows": rows})
    # row by row, so that a failure is reported without diffing one long line
    assert streamed.out.split("}, {") == capsys.readouterr().out.split("}, {")
    assert streamed.err == ""
    assert run(argv + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,c_exact,c_approx,c_ceil"
    assert lines[1:] == [f"{r['x']},{r['c_exact']},{r['c_approx']},{r['c_ceil']}" for r in rows]


def test_curve_refuses_positive_form(capsys):
    assert run(["curve", "--m", "3", "--d", "5,1"]) == 2
    capsys.readouterr()


def test_input_errors_exit_2(capsys, tmp_path):
    assert run(["exists", "--m", "3", "--d", "2,2", "--delta", "0.5", "--epsilon", "1/2"]) == 2
    assert run(["embed", "--kronecker", "2", "--e", "1,x", "--d", "1,1"]) == 2
    assert run(["embed", "--e", "1,0", "--d", "1,1"]) == 2
    assert run(["embed", "--quiver", "/nonexistent.quiver", "--e", "1", "--d", "1"]) == 2
    assert run(["embed", "--quiver", "x", "--kronecker", "2", "--e", "1,0", "--d", "1,1"]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["epsilon", "--k", "2", "--bogus"]) == 2
    capsys.readouterr()
    sample = ["sample", "--kronecker", "2", "--d", "2,2", "--p", "5", "--seed", "0"]
    assert run(sample + ["--count", "-2"]) == 2
    assert capsys.readouterr().err == "error: --count must be non-negative, got -2\n"
    # the (delta, eps) contract of exists holds for exists-uniform and theta-scan
    uniform = ["exists-uniform", "--m", "3", "--alpha", "1", "--delta", "1/2", "--epsilon"]
    for eps in ("0", "-1"):
        assert run(uniform + [eps]) == 2
        assert capsys.readouterr().err == "error: epsilon must be positive\n"
    scan = ["theta-scan", "--kronecker", "3", "--theta", "1,-1", "--dmax", "2", "--delta"]
    for delta in ("1", "0", "-1"):
        assert run(scan + [delta]) == 2
        assert capsys.readouterr().err == "error: delta must satisfy 0 < delta < 1\n"
    # refused before the scan: no d of the cube has theta(d) = 0 here
    assert run(["theta-scan", "--kronecker", "3", "--theta", "1,1", "--dmax", "2",
                "--delta", "1"]) == 2
    assert capsys.readouterr().err == "error: delta must satisfy 0 < delta < 1\n"
    scan = ["theta-scan", "--kronecker", "3", "--delta", "1/2"]
    for argv, message in [
        (["embed", "--kronecker", "0", "--e", "1,1", "--d", "2,2"],
         "--kronecker must be a positive integer"),
        (["sample", "--kronecker", "0", "--d", "2,2", "--p", "5", "--seed", "0", "--count", "1"],
         "--kronecker must be a positive integer"),
        (scan + ["--theta", "1,-1,2", "--dmax", "2"],
         "theta weight count does not match the quiver"),
        (scan + ["--theta", "1,-1", "--dmax", "0"], "--dmax must be a positive integer"),
        (scan + ["--theta", "1,-1", "--dmax", "1000001"], "--dmax must not exceed 1000000"),
        (["curve", "--m", "3", "--d", "5"], "--d must be a pair D1,D2"),
    ]:
        assert run(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n"
    # a few bytes of input asking for 10**9 vertices, 10**9 arrows or 3 * 10**12
    # matrix entries are refused before anything of that size is built
    huge = tmp_path / "huge.quiver"
    huge.write_text("vertices 1000000000\n", encoding="utf-8")
    for argv, message in [
        (["subdims", "--quiver", str(huge), "--d", "1,1"], "vertex_count must not exceed 1000000"),
        (["exists", "--m", "1000000000", "--d", "10,10", "--delta", "1/2", "--epsilon", "1/2"],
         "m must not exceed 1000000"),
        (["sample", "--kronecker", "3", "--d", "1000000,1000000", "--p", "2", "--seed", "0",
          "--count", "1"],
         "random_rep would draw 3000000000000 matrix entries, more than 10000000"),
    ]:
        start = time.monotonic()
        assert run(argv) == 2, argv
        assert time.monotonic() - start < 1, argv
        assert capsys.readouterr().err == f"error: {message}\n"


# each subcommand's whole stdout, as recorded before the argument layer moved
# into argparse; {quiver} and {rep} stand for files written under tmp_path
GOLDEN = [
    (
        ["embed", "--quiver", "{quiver}", "--e", "1,2", "--d", "2,2"],
        '{"command": "embed", "inputs": {"quiver": "{quiver}", "e": [1, 2], "d": [2, 2]}, '
        '"result": {"embeds": true}, "exact": null, "approx": null}\n',
    ),
    (
        ["subdims", "--kronecker", "3", "--d", "2,2"],
        '{"command": "subdims", "inputs": {"kronecker": 3, "d": [2, 2]}, '
        '"result": {"subdims": [[0, 0], [0, 1], [0, 2], [1, 2], [2, 2]]}, '
        '"exact": null, "approx": null}\n',
    ),
    (
        ["epsilon", "--k", "2"],
        '{"command": "epsilon", "inputs": {"k": 2}, "result": {"epsilon": "(3-sqrt(5))/2"}, '
        '"exact": {"p": 3, "q": -1, "n": 5, "r": 2}, "approx": "0.381966011250"}\n',
    ),
    (
        ["epsilon", "--m", "4", "--alpha", "2", "--delta", "1/2"],
        '{"command": "epsilon", "inputs": {"m": 4, "alpha": "2", "delta": "1/2"}, '
        '"result": {"epsilon": "1/2"}, "exact": {"p": 1, "q": 0, "n": 0, "r": 2}, '
        '"approx": "0.5"}\n',
    ),
    (
        ["exists", "--m", "3", "--d", "2,2", "--delta", "1/2", "--epsilon", "38/100"],
        '{"command": "exists", "inputs": {"m": 3, "d": [2, 2], "delta": "1/2", '
        '"epsilon": "19/50"}, "result": {"exists": true, "violating_e": null}, '
        '"exact": null, "approx": null}\n',
    ),
    (
        ["exists-uniform", "--m", "3", "--alpha", "1", "--delta", "1/2", "--epsilon", "2/5"],
        '{"command": "exists-uniform", "inputs": {"m": 3, "alpha": "1", "delta": "1/2", '
        '"epsilon": "2/5"}, "result": {"exists": false}, '
        '"exact": {"p": 3, "q": -1, "n": 5, "r": 2}, "approx": "0.381966011250"}\n',
    ),
    (
        ["counterexample"],
        '{"command": "counterexample", "inputs": {"d": [3, 6, 5], "e": [3, 5, 1]}, '
        '"result": {"euler": 1, "embeds": false, "fundamental_domain": true}, '
        '"exact": null, "approx": null}\n',
    ),
    (
        ["verify", "--rep", "{rep}", "--delta", "1/2", "--epsilon", "1/10"],
        '{"command": "verify", "inputs": {"rep": "{rep}", "delta": "1/2", "epsilon": "1/10"}, '
        '"result": {"ok": false, "witness": {"dim": 1, "basis": [[1, 0]]}}, '
        '"exact": null, "approx": null}\n',
    ),
    (
        ["sample", "--kronecker", "2", "--d", "2,2", "--p", "5", "--seed", "0", "--count", "3",
         "--delta", "1/2", "--epsilon", "1/10"],
        '{"command": "sample", "inputs": {"kronecker": 2, "d": [2, 2], "p": 5, "seed": 0, '
        '"count": 3, "delta": "1/2", "epsilon": "1/10"}, "result": {"samples": ['
        '{"seed": 0, "ok": false, "witness": {"dim": 1, "basis": [[1, 3]]}}, '
        '{"seed": 1, "ok": false, "witness": {"dim": 1, "basis": [[1, 4]]}}, '
        '{"seed": 2, "ok": true, "witness": null}]}, "exact": null, "approx": null}\n',
    ),
    (
        ["sample", "--kronecker", "2", "--d", "2,2", "--p", "5", "--seed", "3", "--count", "2"],
        '{"command": "sample", "inputs": {"kronecker": 2, "d": [2, 2], "p": 5, "seed": 3, '
        '"count": 2}, "result": {"samples": [{"seed": 3}, {"seed": 4}]}, '
        '"exact": null, "approx": null}\n',
    ),
    (
        ["theta-scan", "--kronecker", "3", "--theta", "1/2,-1/3", "--delta", "1/2", "--dmax", "4"],
        '{"command": "theta-scan", "inputs": {"kronecker": 3, "theta": ["1/2", "-1/3"], '
        '"delta": "1/2", "dmax": 4}, "result": {"rows": [{"d": [2, 3], "epsilon_sup": "1/3"}]}, '
        '"exact": null, "approx": null}\n',
    ),
    (
        ["curve", "--m", "3", "--d", "2,2"],
        '{"command": "curve", "inputs": {"m": 3, "d": [2, 2], "format": "json"}, '
        '"result": {"rows": [{"x": 0, "c_exact": "0", "c_approx": "0", "c_ceil": 0}, '
        '{"x": 1, "c_exact": "(5-sqrt(5))/2", "c_approx": "1.38196601125", "c_ceil": 2}, '
        '{"x": 2, "c_exact": "2", "c_approx": "2", "c_ceil": 2}]}, '
        '"exact": null, "approx": null}\n',
    ),
    (
        ["curve", "--m", "3", "--d", "2,2", "--format", "csv"],
        "x,c_exact,c_approx,c_ceil\n0,0,0,0\n1,(5-sqrt(5))/2,1.38196601125,2\n2,2,2,2\n",
    ),
    # recorded before curve, exists and theta-scan became array passes; a
    # --theta value starting with '-' was then accepted only as --theta=-1,2
    (
        ["theta-scan", "--kronecker", "3", "--theta", "-1,2", "--delta", "1/2", "--dmax", "4"],
        '{"command": "theta-scan", "inputs": {"kronecker": 3, "theta": ["-1", "2"], '
        '"delta": "1/2", "dmax": 4}, "result": {"rows": [{"d": [2, 1], "epsilon_sup": "-2"}, '
        '{"d": [4, 2], "epsilon_sup": "-2"}]}, "exact": null, "approx": null}\n',
    ),
    (
        ["theta-scan", "--kronecker", "2", "--theta", "-2/3,1/2", "--delta", "2/3", "--dmax", "8"],
        '{"command": "theta-scan", "inputs": {"kronecker": 2, "theta": ["-2/3", "1/2"], '
        '"delta": "2/3", "dmax": 8}, "result": {"rows": [{"d": [3, 4], "epsilon_sup": "-1/2"}, '
        '{"d": [6, 8], "epsilon_sup": "-1/2"}]}, "exact": null, "approx": null}\n',
    ),
    (
        ["exists", "--m", "3", "--d", "10,10", "--delta", "1/2", "--epsilon", "1/2"],
        '{"command": "exists", "inputs": {"m": 3, "d": [10, 10], "delta": "1/2", '
        '"epsilon": "1/2"}, "result": {"exists": false, "violating_e": [5, 7]}, '
        '"exact": null, "approx": null}\n',
    ),
    (
        ["exists", "--m", "4", "--d", "300,200", "--delta", "2/3", "--epsilon", "1/5"],
        '{"command": "exists", "inputs": {"m": 4, "d": [300, 200], "delta": "2/3", '
        '"epsilon": "1/5"}, "result": {"exists": true, "violating_e": null}, '
        '"exact": null, "approx": null}\n',
    ),
    (
        ["epsilon", "--m", "3", "--alpha", "1", "--delta", "1/3"],
        '{"command": "epsilon", "inputs": {"m": 3, "alpha": "1", "delta": "1/3"}, '
        '"result": {"epsilon": "2-sqrt(2)"}, "exact": {"p": 2, "q": -1, "n": 2, "r": 1}, '
        '"approx": "0.585786437627"}\n',
    ),
    (
        ["curve", "--m", "4", "--d", "6,3", "--format", "csv"],
        "x,c_exact,c_approx,c_ceil\n0,0,0,0\n1,(7-sqrt(21))/2,1.20871215252,2\n"
        "2,(11-sqrt(57))/2,1.72508278236,2\n3,(15-3*sqrt(13))/2,2.09167308680,3\n"
        "4,(19-sqrt(201))/2,2.41127656062,3\n5,(23-sqrt(309))/2,2.71080208438,3\n6,3,3,3\n",
    ),
    # an exit 3 while every bipartite pair walked box(e); recorded from that
    # walk under a raised budget.  e itself pairs to -192 with d - e
    (
        ["embed", "--quiver", "{bipartite}", "--e", "14,20,14", "--d", "20,30,20"],
        '{"command": "embed", "inputs": {"quiver": "{bipartite}", "e": [14, 20, 14], '
        '"d": [20, 30, 20]}, "result": {"embeds": false}, "exact": null, "approx": null}\n',
    ),
    # K(m) off the cone, each an exit 3 while it walked a box of box**2 cells;
    # all but the second were recorded from that walk under a raised budget
    (
        ["embed", "--kronecker", "2", "--e", "40,80", "--d", "100,200"],
        '{"command": "embed", "inputs": {"kronecker": 2, "e": [40, 80], "d": [100, 200]}, '
        '"result": {"embeds": true}, "exact": null, "approx": null}\n',
    ),
    (
        # e carries S_1^120, and ext(S_1, d - e) = 3 * 240 - 700 = 20 > 0
        ["embed", "--kronecker", "3", "--e", "300,60", "--d", "1000,300"],
        '{"command": "embed", "inputs": {"kronecker": 3, "e": [300, 60], "d": [1000, 300]}, '
        '"result": {"embeds": false}, "exact": null, "approx": null}\n',
    ),
    (
        ["exists", "--m", "2", "--d", "60,59", "--delta", "99/100", "--epsilon", "1/1000000"],
        '{"command": "exists", "inputs": {"m": 2, "d": [60, 59], "delta": "99/100", '
        '"epsilon": "1/1000000"}, "result": {"exists": true, "violating_e": null}, '
        '"exact": null, "approx": null}\n',
    ),
    (
        ["theta-scan", "--kronecker", "2", "--theta", "19,-45", "--delta", "1/2", "--dmax", "95"],
        '{"command": "theta-scan", "inputs": {"kronecker": 2, "theta": ["19", "-45"], '
        '"delta": "1/2", "dmax": 95}, "result": {"rows": [{"d": [45, 19], "epsilon_sup": "-19"}, '
        '{"d": [90, 38], "epsilon_sup": "-19"}]}, "exact": null, "approx": null}\n',
    ),
]


@pytest.mark.parametrize("argv, expected", GOLDEN, ids=[" ".join(argv) for argv, _ in GOLDEN])
def test_golden_stdout(capsys, tmp_path, argv, expected):
    files = {"{quiver}": tmp_path / "k3.quiver", "{rep}": tmp_path / "rep.json",
             "{bipartite}": tmp_path / "bipartite.quiver"}
    files["{quiver}"].write_text(K3_TEXT, encoding="utf-8")
    files["{bipartite}"].write_text(BIPARTITE_TEXT, encoding="utf-8")
    rep = FiniteFieldRep(2, make_kronecker(2), (2, 2), (np.eye(2, dtype=np.int64),) * 2)
    rep.save(files["{rep}"])
    for key, path in files.items():
        argv = [str(path) if a == key else a for a in argv]
        expected = expected.replace(key, json.dumps(str(path))[1:-1])
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


def test_values_starting_with_minus_may_be_separate_words(capsys):
    # --theta -1,1 reads as --theta=-1,1, and so does every option's value
    scan = ["theta-scan", "--kronecker", "3", "--delta", "1/2", "--dmax", "3"]
    outputs = []
    for theta in (["--theta", "-1,1"], ["--theta=-1,1"]):
        assert run(scan + theta) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["inputs"]["theta"] == ["-1", "1"]
    assert run(["epsilon", "--m", "3", "--alpha", "-1/2", "--delta", "1/2"]) == 2
    assert capsys.readouterr().err == "error: alpha must satisfy alpha^2 - m*alpha + 1 < 0\n"
    # an option name after an option is still an error, as before
    assert run(["epsilon", "--k", "--m", "3"]) == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["epsilon", "--k", str(10**20)], "k must not exceed 1000000"),
        (["epsilon", "--m", str(10**20), "--alpha", "1", "--delta", "1/2"],
         "m must not exceed 1000000"),
        (["exists-uniform", "--m", str(10**20), "--alpha", "1", "--delta", "1/2",
          "--epsilon", "1/2"], "m must not exceed 1000000"),
        (["curve", "--m", str(10**20), "--d", "2,1"], "m must not exceed 1000000"),
    ],
)
def test_coefficient_arguments_are_capped(capsys, argv, message):
    # epsilon --k 10**20 and curve --m 10**20 hung in the surd layer before
    # their caps
    start = time.monotonic()
    assert run(argv) == 2
    assert time.monotonic() - start < 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _sample(count):
    """sample --count as a call that raises its error line as a ValueError.
    A sampled d of 3 * 10**12 matrix entries refuses the first draw, so a
    count that the count rule passes stops there at once."""
    argv = ["sample", "--kronecker", "3", "--d", "1000000,1000000", "--p", "2", "--seed", "0",
            "--count", str(count)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    if code:
        raise ValueError(err.getvalue().splitlines()[-1].split("error: ", 1)[1])


_DRAW = "random_rep would draw 3000000000000 matrix entries, more than 10000000"
_ALPHA = "alpha must satisfy alpha^2 - m*alpha + 1 < 0"

# entry point: (call, the count's name, its least value, the message that a
# value the count rule passes still gets, if any)
COUNT_ENTRY_POINTS = {
    "Quiver": (lambda x: Quiver(x, ()), "vertex_count", 1, None),
    "make_kronecker": (make_kronecker, "m", 1, None),
    "KroneckerContext": (lambda x: KroneckerContext(x, (1, 1)), "m", 2, None),
    "beta": (beta, "m", 2, None),
    "epsilon_k": (epsilon_k, "k", 2, None),
    "epsilon_m_alpha_delta": (
        lambda x: epsilon_m_alpha_delta(x, 1, Fraction(1, 2)), "m", 1,
        lambda x: _ALPHA if x < 3 else None,
    ),
    "SlopeParams": (lambda x: SlopeParams(x, 1), "m", 1, None),
    "expander_exists": (
        lambda x: expander_exists(x, (1, 1), ExpanderParams(Fraction(1, 2), Fraction(1, 2))),
        "m", 1, None,
    ),
    "sample --count": (_sample, "--count", 0, lambda x: _DRAW if x else None),
}


def _count_refusal(x, what, low):
    """The message a count x is refused with, None if it passes."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        if what.startswith("--"):  # argparse refuses the word
            return f"argument {what}: invalid int value: '{x}'"
        return f"{what} must be an integer, got {x!r}"
    if x < low:
        floors = {0: f"non-negative, got {x}", 1: "a positive integer"}
        return f"{what} must be {floors.get(low, f'an integer >= {low}')}"
    return f"{what} must not exceed 1000000" if x > 10**6 else None


@pytest.mark.parametrize("value", [0, 1, 2, 10**6, 10**6 + 1, 10**20, True, 1.5, np.int64(3)],
                         ids=repr)
@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_every_count_is_checked_by_the_one_count_rule(entry, value):
    # beta(10**20) and sample --count 10**9 ran without end before the cap;
    # a refusal is immediate, while an accepted count at the cap may list
    # 10**6 vertices or arrows (Quiver, make_kronecker: 0.5-0.7 s on 2 vCPUs)
    call, what, low, after = COUNT_ENTRY_POINTS[entry]
    message = _count_refusal(value, what, low) or (after and after(value))
    start = time.monotonic()
    if message is None:
        call(value)
    else:
        with pytest.raises(ValueError) as refusal:
            call(value)
        assert str(refusal.value) == message
    assert time.monotonic() - start < (1 if message else 5)


def test_curve_off_the_cone_prints_nothing(capsys):
    for fmt in ("csv", "json"):
        assert run(["curve", "--m", "3", "--d", "5,1", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: closed form inapplicable: <d, d> > 0; use the recursive engine\n"
        )


def test_output_reparses_as_json(capsys):
    for argv in (
        ["epsilon", "--k", "3"],
        ["counterexample"],
        ["subdims", "--kronecker", "3", "--d", "2,2"],
    ):
        assert run(argv) == 0
        json.loads(capsys.readouterr().out)


def test_cached_parser_matches_fresh_parser(capsys):
    from quivex.cli import _build_parser

    assert run(["epsilon", "--no-such-flag"]) == 2
    assert "usage: quivex" in capsys.readouterr().err
    assert run(["--help"]) == 0
    assert "usage: quivex" in capsys.readouterr().out
    argv = ["epsilon", "--m", "3", "--alpha", "1", "--delta", "1/3"]
    assert run(argv) == 0
    cached = capsys.readouterr().out
    args = _build_parser.__wrapped__().parse_args(argv)
    assert args.func(args) == 0
    assert capsys.readouterr().out == cached
    assert _build_parser() is _build_parser()


# one exact_sweep-shaped argv per benchmark stratum
SWEEP_ARGV = [
    ["subdims", "--kronecker", "4", "--d", "7,3"],
    ["subdims", "--quiver", "bipartite.quiver", "--d", "2,5,1"],
    ["embed", "--kronecker", "5", "--e", "3,1", "--d", "9,4"],
    ["embed", "--quiver", "bipartite.quiver", "--e", "1,3,0", "--d", "4,9,2"],
    ["theta-scan", "--kronecker", "3", "--theta", "2,-1", "--delta", "1/3", "--dmax", "8"],
    ["theta-scan", "--quiver", "bipartite.quiver", "--theta", "1,-3,2", "--delta", "2/3",
     "--dmax", "4"],
    ["exists", "--m", "3", "--d", "812,905", "--delta", "2/5", "--epsilon", "1/5"],
    ["curve", "--m", "4", "--d", "231,288"],
    *(["epsilon", "--m", "3", "--alpha", alpha, "--delta", delta]
      for alpha, delta in [("1234/1567", "987/1999"), ("12345/16789", "5432/19999"),
                           ("123456/119999", "65432/119993")]),
    *(["exists-uniform", "--m", "4", "--alpha", alpha, "--delta", delta, "--epsilon", "1/3"]
      for alpha, delta in [("1234/1567", "987/1999"), ("12345/16789", "5432/19999"),
                           ("123456/119999", "65432/119993")]),
]


def test_well_formed_argv_never_builds_the_parser():
    # the option table reads every well-formed GOLDEN argv and every
    # exact_sweep shape, so argparse's parser is built only for a refusal
    # or for help
    _build_parser.cache_clear()
    for argv in [argv for argv, _ in GOLDEN] + SWEEP_ARGV:
        _parse(argv)
    assert _build_parser.cache_info().misses == 0
    for argv in (["epsilon", "extra", "--k", "2"], ["-h"]):
        _build_parser.cache_clear()
        with pytest.raises(SystemExit):
            _parse(argv)
        assert _build_parser.cache_info().misses == 1


def _parsed(capsys, parse, argv):
    """(exit code, stdout, stderr, the namespace's items in order) of one parse."""
    try:
        code, items = None, list(vars(parse(argv)).items())
    except SystemExit as exc:
        code, items = exc.code, None
    captured = capsys.readouterr()
    return code, captured.out, captured.err, items


def _two_passes(argv):
    # the top-level parser parses every word, then hands them to the command's
    return _build_parser().parse_args(_joined(argv))


PARSE_CASES = [argv for argv, _ in GOLDEN] + [
    [],
    ["-h"],
    ["embed", "-h"],
    ["no-such-command"],
    ["epsilon", "--k", "2", "--bogus"],
    ["exists", "--m", "3", "--d", "2,2", "--delta", "1/2"],
    ["embed", "--quiver", "x", "--kronecker", "2", "--e", "1,0", "--d", "1,1"],
    ["embed", "--kron", "3", "--e", "1,1", "--d", "2,2"],
    ["theta-scan", "--kronecker", "3", "--theta", "-1,1", "--delta", "1/2", "--dmax", "3"],
    ["epsilon", "extra", "--k", "2"],
    ["embed", "--", "--kronecker", "2"],
    # every command's help, as rebuilt from the option table (embed's is above)
    *([name, "-h"] for name in _COMMANDS if name != "embed"),
    # one argv per class of words the table leaves to argparse: a doubled
    # flag (argparse keeps the last), an abbreviation, a value outside the
    # choices, a flag where a value belongs, and a value its type refuses
    ["exists", "--m", "4", "--m", "3", "--d", "10,10", "--delta", "1/2", "--epsilon", "1/2"],
    ["embed", "--kron=3", "--e", "1,1", "--d", "2,2"],
    ["curve", "--m", "3", "--d", "2,2", "--format", "xml"],
    ["exists", "--d", "--m", "3", "--delta", "1/2", "--epsilon", "1/2"],
    ["embed", "--kronecker", "3", "--e", "1,1", "--d", ""],
    # an ambiguous abbreviation, and a '--' value, which argparse reads as []
    ["theta-scan", "--kronecker", "3", "--theta", "1,-1", "--d", "1/2", "--dmax", "3"],
    ["embed", "--quiver=--", "--e", "1,1", "--d", "2,2"],
    # the '=' forms the table reads
    ["exists", "--m=3", "--d", "10,10", "--delta", "1/2", "--epsilon", "1/2"],
    ["theta-scan", "--kronecker", "3", "--delta", "1/2", "--dmax", "3", "--theta=-1,1"],
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda argv: " ".join(argv) or "no words")
def test_one_parse_matches_two(capsys, argv):
    # words the option table reads parse as argparse parses them, which is
    # the oracle, down to the order of the namespace's keys, which the JSON
    # inputs follow
    once = _parsed(capsys, _parse, argv)
    assert once == _parsed(capsys, _two_passes, argv)
    assert once[0] in (None, 0, 2)


# -- the parse fuzzer: argv drawn from the option table ----------------------

_DIGITS = st.integers(1, 30).flatmap(lambda n: st.integers(10 ** (n - 1), 10**n - 1))
_INT = st.one_of(
    st.sampled_from([0, -1, 10**6 - 1, 10**6, 10**6 + 1, 10**20]), st.integers(-9, 9)
).map(str)
_RATIONAL = st.one_of(
    _INT,
    st.builds("{}{}/{}".format, st.sampled_from(["", "-"]), _DIGITS, _DIGITS),
)
_MALFORMED = st.sampled_from(
    ["", "x", "1,x", "1/0", "1/", "/2", "0.5", "1e3", "1,,2", " 1", "1 2", "٣",
     "=", "-", "--", "-x", "-h", "--m", "--bogus", "xml"]
)


def _comma_list(part):
    return st.lists(part, min_size=1, max_size=3).map(",".join)


# well-formed values by type function; a value of another type is malformed
_VALUES = {
    int: _INT,
    _ints: _comma_list(_INT),
    _rational: _RATIONAL,
    _rationals: _comma_list(_RATIONAL),
    None: st.sampled_from(["k3.quiver", "rep.json", "a b", "x=y"]),
}


@st.composite
def _table_argv(draw):
    """A command, then its options in any order.  A well-formed draw gives
    each required option (and one quiver source) once, any other option at
    most once, plain or '='-joined, each value of its type.  A noisy draw
    may also drop an option, double or abbreviate it, give a malformed value
    and put -h anywhere."""
    name = draw(st.sampled_from(list(_COMMANDS)))
    options = _COMMANDS[name].options
    noisy = draw(st.booleans())
    source = draw(st.sampled_from([o.flag for o in options if o.source] or [None]))
    groups = []
    for option in options:
        forms = ("absent", "given", "joined")
        if option.required or option.flag == source:
            forms = forms[1:]
        elif option.source:
            forms = forms[:1]
        values = st.sampled_from(option.choices) if option.choices else _VALUES[option.type]
        if noisy:
            forms = forms * 4 + ("absent", "doubled", "abbreviated")
            values = st.one_of(values, values, values, _MALFORMED)
        form = draw(st.sampled_from(forms))
        if form == "absent":
            continue
        flag = option.flag
        if form == "abbreviated":  # "--" itself when the name has one letter
            flag = flag[: draw(st.integers(2, len(flag) - 1))]
        for _ in range(2 if form == "doubled" else 1):
            value = draw(values)
            groups.append([f"{flag}={value}"] if form == "joined" else [flag, value])
    argv = [name] + [word for group in draw(st.permutations(groups)) for word in group]
    if noisy and draw(st.integers(0, 7)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["-h", "--help"])))
    return argv


@settings(max_examples=1000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_table_argv())
def test_table_parse_matches_two_passes(capsys, argv):
    # argv read from the option table must parse as argparse parses it, and
    # every argv the table leaves to argparse must be argparse's alone; this
    # only parses, so no command runs
    once = _parsed(capsys, _parse, argv)
    assert once == _parsed(capsys, _two_passes, argv)
    assert once[0] in (None, 0, 2)


@pytest.mark.parametrize(
    "argv, vector, box",
    [
        (["subdims", "--d", "20,30,20"], "(20, 30, 20)", 21 * 31 * 21),
        # neither bound of embeds decides it: e pairs to 66 with d - e, whose
        # weight at vertex 1 is -4, so box(e) is walked
        (["embed", "--e", "10,23,11", "--d", "20,30,20"], "(10, 23, 11)", 11 * 24 * 12),
    ],
)
def test_schofield_budget_exit_3(capsys, tmp_path, argv, vector, box):
    # the bipartite quiver 1 => 2 <= 3 is walked: the member table would hold
    # box**2 cells, which is charged, and refused, before anything is allocated
    path = tmp_path / "bipartite.quiver"
    path.write_text(BIPARTITE_TEXT, encoding="utf-8")
    tracemalloc.start()
    start = time.monotonic()
    code = run([argv[0], "--quiver", str(path), *argv[1:]])
    elapsed = time.monotonic() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 3
    assert elapsed < 5
    assert peak < 2**20
    assert err == (
        f"error: subdims budget exceeded at {vector}: "
        f"spent {box * box} > limit {DEFAULT_BUDGET}\n"
    )


OFF_THE_CONE = [
    (["subdims", "--kronecker", "2", "--d", "200,300"], None),
    (["embed", "--kronecker", "2", "--e", "100,150", "--d", "200,300"], None),
    (["subdims", "--kronecker", "3", "--d", "120,40"], 2_501),
    (["embed", "--kronecker", "3", "--e", "300,60", "--d", "1000,300"], None),
]


@pytest.mark.parametrize(
    "argv, members", OFF_THE_CONE, ids=[" ".join(argv) for argv, _ in OFF_THE_CONE]
)
def test_k_m_off_the_cone_walks_no_box(capsys, argv, members):
    # these exited 3 when K(m) off the cone walked box(d)**2 cells; the
    # reflection rule answers them, a listing charged only the box size
    start = time.monotonic()
    assert run(argv) == 0
    assert time.monotonic() - start < 5
    result = json.loads(capsys.readouterr().out)["result"]
    if members is not None:
        assert len(result["subdims"]) == members


def test_theta_scan_cube_budget_exit_3(capsys):
    # the scan visits every d of the cube [0, dmax]^n, charged before it starts
    start = time.monotonic()
    code = run(["theta-scan", "--kronecker", "3", "--theta", "1,-1", "--delta", "1/2",
                "--dmax", "1000000"])
    elapsed = time.monotonic() - start
    assert code == 3
    assert elapsed < 1
    assert capsys.readouterr().err == (
        "error: subdims budget exceeded on the cube [0, 1000000]^2: "
        f"spent {1000001**2} > limit {DEFAULT_BUDGET}\n"
    )


def test_sample_refusal_of_a_count_past_the_str_digit_limit_exit_3(capsys):
    # about 10**12,035 lines of F_1048573^2000: the message prints a lower bound, so
    # the refusal exits 3 where formatting the count raised ValueError (exit 2)
    argv = ["sample", "--kronecker", "3", "--d", "2000,10", "--p", "1048573", "--seed", "0",
            "--count", "1", "--delta", "1/2", "--epsilon", "1000"]
    assert run(argv) == 3
    assert capsys.readouterr().err == (
        "error: frontier budget exceeded listing the lines of F_1048573^2000: "
        f"spent more than 10**12033 > limit {DEFAULT_BUDGET}\n"
    )


def test_main_exit_status():
    # python -m quivex.cli passes run's code to the process exit status
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)

    def main(*argv):
        command = [sys.executable, "-m", "quivex.cli", *argv]
        return subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)

    done = main("epsilon", "--k", "2")
    assert done.returncode == 0
    assert len(done.stdout.splitlines()) == 1 and json.loads(done.stdout)["command"] == "epsilon"
    assert main("epsilon", "--k", "x").returncode == 2
    cube = ("--kronecker", "3", "--theta", "1,-1", "--delta", "1/2", "--dmax", "1000000")
    done = main("theta-scan", *cube)
    assert done.returncode == 3 and "subdims budget exceeded" in done.stderr


def test_curve_memory_does_not_grow_with_its_rows():
    # rows are rendered 512 at a time and written before the next block: on a
    # 2-vCPU VM (Python 3.11, numpy 2.4) the 200,001 rows below raised max RSS
    # by 0.15 MB over a 21-row curve, to 33.3 MB, where rendering every row
    # through its own surd raised it by 0.26 MB, to 33.2 MB, and rendering
    # 4,096 rows at a time by 1.8 MB; as JSON they reached 151 MB while
    # every row was collected as a dict and the list encoded at once
    # VmHWM is this process's own max RSS; ru_maxrss would also count the
    # forked copy of the test process that ran before exec
    if not Path("/proc/self/status").exists():
        pytest.skip("reads VmHWM from /proc")
    script = """if True:
        import os, re, sys
        from quivex.cli import run
        sys.stdout = open(os.devnull, "w")
        status = lambda: open("/proc/self/status").read()
        peak = lambda: int(re.search(r"VmHWM:\\s+(\\d+) kB", status())[1])
        assert run(["curve", "--m", "3", "--d", "20,20", "--format", "csv"]) == 0
        small = peak()
        for fmt in ("csv", "json"):
            assert run(["curve", "--m", "3", "--d", "200000,200000", "--format", fmt]) == 0
        print(small, peak(), file=sys.stderr)
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    small, large = map(int, done.stderr.split())  # kB
    assert large - small < 1024, (small, large)
    assert large < 44 * 1024, large


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "--m", "3", "--d", "2000000,2000000"],
        ["exists", "--m", "3", "--d", "2000000,2000000", "--delta", "1/2", "--epsilon", "1/10"],
    ],
)
def test_dimension_cap_exit_2(capsys, argv):
    # entries above MAX_DIM_ENTRY are refused before any boundary is computed
    start = time.monotonic()
    code = run(argv)
    elapsed = time.monotonic() - start
    assert code == 2
    assert elapsed < 1
    assert capsys.readouterr().err == "error: dimension vector entries must not exceed 1000000\n"


def test_subdims_kronecker_2_20_30_speed(capsys):
    start = time.monotonic()
    code, payload = _run_json(capsys, ["subdims", "--kronecker", "2", "--d", "20,30"])
    elapsed = time.monotonic() - start
    assert code == 0
    assert elapsed < 1, f"{elapsed:.2f}s"
    subs = payload["result"]["subdims"]
    assert len(subs) == 331
    assert [0, 0] in subs and [20, 30] in subs


def test_embed_kronecker_3_on_the_cone_speed(capsys):
    start = time.monotonic()
    code, payload = _run_json(
        capsys, ["embed", "--kronecker", "3", "--e", "30,30", "--d", "60,60"]
    )
    elapsed = time.monotonic() - start
    assert code == 0
    assert elapsed < 0.1, f"{elapsed:.3f}s"
    # <(30, 30), (30, 30)> = -900; the old recursion took ~10 s to agree
    assert payload["result"] == {"embeds": False}
