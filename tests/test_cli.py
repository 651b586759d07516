"""End-to-end tests of the command-line interface."""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quivex import DEFAULT_BUDGET, FiniteFieldRep, make_kronecker
from quivex.cli import run

K3_TEXT = "vertices 2\n1 -> 2\n1 -> 2\n1 -> 2\n"


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


def test_curve_refuses_positive_form(capsys):
    assert run(["curve", "--m", "3", "--d", "5,1"]) == 2
    capsys.readouterr()


def test_input_errors_exit_2(capsys):
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
         "--kronecker takes a positive arrow count"),
        (scan + ["--theta", "1,-1,2", "--dmax", "2"],
         "theta weight count does not match the quiver"),
        (scan + ["--theta", "1,-1", "--dmax", "0"], "--dmax must be positive"),
        (["curve", "--m", "3", "--d", "5"], "--d must be a pair D1,D2"),
    ]:
        assert run(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n"


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


@pytest.mark.parametrize(
    "argv, vector, box",
    [
        (["subdims", "--kronecker", "2", "--d", "200,300"], "(200, 300)", 201 * 301),
        (
            ["embed", "--kronecker", "2", "--e", "100,150", "--d", "200,300"],
            "(100, 150)",
            101 * 151,
        ),
    ],
)
def test_schofield_budget_exit_3(capsys, argv, vector, box):
    # off the cone of K(2): the member table would hold box**2 cells, which
    # is charged, and refused, before anything is allocated
    tracemalloc.start()
    start = time.monotonic()
    code = run(argv)
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
