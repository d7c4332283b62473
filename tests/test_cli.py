import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fastproj.cli as cli
from fastproj.cli import main, random_quadratic_instance
from fastproj.model import eval_constraints, problem_from_json


def power_iteration_norm(A, iters=500):
    v = np.ones(A.shape[0]) / np.sqrt(A.shape[0])
    for _ in range(iters):
        v = A @ v
        v /= np.linalg.norm(v)
    return float(v @ (A @ v))


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--n", "6", "--m", "2", "--seed", "11", "--out", str(a)]) == 0
    assert main(["gen", "--n", "6", "--m", "2", "--seed", "11", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (
        main(["gen", "--n", "6", "--m", "2", "--seed", "12", "--out", str(b)]) == 0
    )
    assert a.read_bytes() != b.read_bytes()


def test_gen_unit_spectral_norm(tmp_path):
    out = tmp_path / "inst.json"
    assert main(["gen", "--n", "10", "--m", "2", "--seed", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 10 and doc["m"] == 2
    for entry in doc["constraints"]:
        A = np.asarray(entry["A"])
        assert power_iteration_norm(A) == pytest.approx(1.0, abs=1e-10)
        assert entry["c"] > 0


def test_gen_exterior_query_point(tmp_path):
    out = tmp_path / "inst.json"
    assert main(["gen", "--n", "8", "--m", "2", "--seed", "3", "--out", str(out)]) == 0
    prob = problem_from_json(out.read_text())
    assert np.max(eval_constraints(prob, prob.x0)) > 0.0


def test_gen_ball_flag(tmp_path):
    out = tmp_path / "ball.json"
    assert main(["gen", "--n", "4", "--m", "1", "--seed", "5", "--ball", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["m"] == 1
    assert_allclose(np.asarray(doc["constraints"][0]["A"]), np.eye(4))
    assert doc["constraints"][0]["c"] == 1.0
    assert np.linalg.norm(doc["x0"]) > 1.0


def test_solve_exit_codes_and_output(tmp_path):
    inst = tmp_path / "inst.json"
    res = tmp_path / "res.json"
    main(["gen", "--n", "4", "--m", "1", "--seed", "5", "--ball", "--out", str(inst)])
    assert main(["solve", str(inst), "--eps", "1e-4", "--out", str(res)]) == 0
    doc = json.loads(res.read_text())
    assert doc["max_violation"] <= 1e-4
    prob = problem_from_json(inst.read_text())
    x_star = np.asarray(doc["x_hat"])
    assert np.linalg.norm(x_star) == pytest.approx(1.0, abs=1e-3)
    assert doc["doubling_rounds"] == 0


def test_solve_interior_point_identity(tmp_path):
    inst = tmp_path / "inst.json"
    doc = {
        "n": 2,
        "m": 1,
        "x0": [0.2, 0.1],
        "R": 1.0,
        "constraints": [
            {"type": "quadratic", "A": [[1.0, 0.0], [0.0, 1.0]], "center": [0.0, 0.0], "c": 1.0}
        ],
    }
    inst.write_text(json.dumps(doc))
    res = tmp_path / "res.json"
    assert main(["solve", str(inst), "--eps", "1e-5", "--out", str(res)]) == 0
    out = json.loads(res.read_text())
    assert_allclose(out["x_hat"], [0.2, 0.1], atol=1e-5)


def test_solve_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad), "--eps", "1e-3"]) == 1
    assert "error" in capsys.readouterr().err


def test_solve_refuses_a_quadratic_whose_dimension_differs_from_x0(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["gen", "--n", "3", "--m", "1", "--ball", "--seed", "0", "--out", str(inst)])
    doc = json.loads(inst.read_text())
    doc.update(n=2, x0=doc["x0"][:2])
    inst.write_text(json.dumps(doc))
    assert main(["solve", str(inst)]) == 1
    assert "error:" in capsys.readouterr().err


def test_solve_missing_file_is_input_error(tmp_path):
    assert main(["solve", str(tmp_path / "nope.json"), "--eps", "1e-3"]) == 1


def test_verify_ball_instance(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["gen", "--n", "4", "--m", "1", "--seed", "2", "--ball", "--out", str(inst)])
    assert main(["verify", str(inst), "--eps", "1e-3", "--grid-resolution", "60"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_verify_m2_seed7_instance(tmp_path):
    inst = tmp_path / "inst.json"
    main(["gen", "--n", "20", "--m", "2", "--seed", "7", "--out", str(inst)])
    assert main(["verify", str(inst), "--eps", "1e-3", "--grid-resolution", "120"]) == 0


def test_verify_truncated_budget_fails(tmp_path):
    inst = tmp_path / "inst.json"
    main(["gen", "--n", "6", "--m", "2", "--seed", "7", "--out", str(inst)])
    code = main(
        [
            "verify",
            str(inst),
            "--eps",
            "1e-4",
            "--grid-resolution",
            "80",
            "--max-outer",
            "1",
        ]
    )
    assert code == 2


def test_solve_determinism_byte_identical(tmp_path):
    inst = tmp_path / "inst.json"
    main(["gen", "--n", "6", "--m", "2", "--seed", "9", "--out", str(inst)])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["solve", str(inst), "--eps", "1e-3", "--out", str(r1)])
    main(["solve", str(inst), "--eps", "1e-3", "--out", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()


def test_solve_exits_2_on_uncertified_answer_with_same_output(tmp_path, monkeypatch, capsys):
    inst = tmp_path / "inst.json"
    main(["gen", "--n", "6", "--m", "2", "--seed", "9", "--out", str(inst)])
    assert main(["solve", str(inst), "--eps", "1e-3"]) == 0
    certified_out = capsys.readouterr().out
    real = cli.project
    monkeypatch.setattr(
        cli,
        "project",
        lambda problem, config: dataclasses.replace(real(problem, config), certified=False),
    )
    assert main(["solve", str(inst), "--eps", "1e-3"]) == 2
    assert capsys.readouterr().out == certified_out
    assert json.loads(certified_out)["max_violation"] <= 1e-3  # feasible, yet refused


def test_trace_csv(tmp_path):
    inst = tmp_path / "inst.json"
    main(["gen", "--n", "4", "--m", "2", "--seed", "4", "--out", str(inst)])
    out = tmp_path / "trace.csv"
    assert main(["trace", str(inst), "--eps", "1e-3", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,in_box,lambda_0,lambda_1,v,grad_norm,log_volume"
    assert len(lines) >= 3
    rows = [line.split(",") for line in lines[1:]]
    # round 1 queries lam = 0 and makes no cut; every later round cuts
    assert float(rows[0][2]) == float(rows[0][3]) == 0.0
    log_vol = [float(r[-1]) for r in rows[1:]]
    assert all(b < a for a, b in zip(log_vol, log_vol[1:]))
    best = -np.inf
    for r in rows:
        if r[1] == "1":
            best = max(best, float(r[4]))
    assert np.isfinite(best)


def test_bench_single_row(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(
        ["bench", "--n-list", "64", "--m", "2", "--eps", "1e-3", "--repeats", "1", "--seed", "0", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("n,m,eps,wall_time_seconds")
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0] == "64"
    assert float(row[3]) >= 0.0


def test_bench_non_time_columns_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bench", "--n-list", "32", "--m", "2", "--eps", "1e-3", "--repeats", "2", "--seed", "1"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    strip = lambda p: [
        ",".join(c for i, c in enumerate(line.split(",")) if i != 3)
        for line in p.read_text().strip().splitlines()
    ]
    assert strip(a) == strip(b)


def test_bench_reports_steps_and_step_cost_per_size(tmp_path, capsys):
    # each size's summary line splits its median time into the median inner
    # gradient evals per solve and the median time per eval, read off the
    # same runs as the CSV
    out = tmp_path / "bench.csv"
    args = ["bench", "--n-list", "32,64", "--m", "2", "--repeats", "3", "--seed", "2"]
    assert main(args + ["--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("n=")]
    assert len(lines) == 2
    for line, n in zip(lines, (32, 64)):
        runs = [row for row in rows if int(row[0]) == n]
        evals = np.median([int(row[5]) for row in runs])
        per_eval = np.median([1e6 * float(row[3]) / int(row[5]) for row in runs])
        assert line.split()[:2] == ["n=", str(n)]
        assert f"{evals:.1f} evals per solve" in line
        assert f"{per_eval:.1f} us per eval" in line


def test_a_reader_closing_the_pipe_early_gets_no_traceback(tmp_path):
    # the trace is written after the solve, by which time the reader has
    # closed its end: the write fails with EPIPE, which must end the
    # command with exit code 1 and nothing on stderr
    inst = tmp_path / "m3.json"
    assert main(["gen", "--n", "40", "--m", "3", "--seed", "3", "--out", str(inst)]) == 0
    proc = subprocess.Popen(
        [sys.executable, "-m", "fastproj", "trace", str(inst), "--eps", "1e-3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err and err == ""


def test_bench_refuses_fewer_than_one_repeat(monkeypatch, capsys):
    # no repeat leaves no time to take a median of: an input error, raised
    # before the warm-up solve
    monkeypatch.setattr(cli, "project", lambda *a: pytest.fail("bench solved"))
    for repeats in ("0", "-2"):
        assert main(["bench", "--n-list", "8,16", "--repeats", repeats]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "repeats" in captured.err
        assert captured.out == ""


def test_project_norm_cli(capsys):
    assert main(["project-norm", "--norm", "l1", "--x0", "1,1", "--via-dual"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert_allclose(doc["x_via_dual"], [0.5, 0.5], atol=1e-6)
    assert doc["distance"] <= 1e-6


def test_project_norm_rejects_too_small_R(capsys):
    # the l2 projection of (30, 40) needs multiplier 2 (50 - 1) = 98 > 8
    args = ["project-norm", "--norm", "l2", "--x0", "30,40", "--via-dual", "--R", "8"]
    assert main(args) == 1
    assert "exceeds R" in capsys.readouterr().err


def test_non_finite_R_is_an_input_error_and_a_huge_R_never_a_traceback(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    main(["gen", "--n", "6", "--m", "2", "--seed", "9", "--out", str(inst)])
    norm = ["project-norm", "--norm", "l1", "--x0", "3,1,-2", "--via-dual", "--R"]
    # the m >= 2 engines refuse an R whose m (R/2)^2 overflows
    refused = [["solve", str(inst), "--R", R] for R in ("inf", "1e300", "1e200")]
    for args in refused + [norm + ["inf"]]:
        capsys.readouterr()
        assert main(args) == 1, args
        assert capsys.readouterr().err.startswith("error:"), args
    assert main(norm + ["1e300"]) == 0


def test_solve_a_constraint_with_zero_gradient(tmp_path, capsys):
    # A = 0 makes the Lipschitz bound G = 0, whose logarithm the budgets take
    # as its limit instead of raising
    from fastproj.model import problem_to_json, quadratic_constraint, quadratic_problem

    q = quadratic_constraint(np.zeros((3, 3)), np.zeros(3), 1.0)
    for m in (1, 2):
        inst = tmp_path / f"zero{m}.json"
        problem = quadratic_problem(np.array([2.0, 0.0, 0.0]), [q] * m, R=4.0)
        inst.write_text(problem_to_json(problem))
        capsys.readouterr()
        assert main(["solve", str(inst)]) == 0, m
        out, err = capsys.readouterr()
        assert err == ""
        doc = json.loads(out)
        assert doc["x_hat"] == [2.0, 0.0, 0.0]
        assert doc["lambda_bar"] == [0.0] * m and doc["oracle_calls"] == 1


def test_project_norm_rejects_bad_x0(tmp_path, capsys):
    not_json = tmp_path / "not.json"
    not_json.write_text("[1, 2")
    ragged = tmp_path / "ragged.json"
    ragged.write_text("[[1, 2], [3]]")
    matrix = tmp_path / "matrix.json"
    matrix.write_text("[[1, 2], [3, 4]]")
    mixed = tmp_path / "mixed.json"
    mixed.write_text('["1.5", true]')
    strings = tmp_path / "strings.json"
    strings.write_text('["1", "2"]')
    bad = [
        f"@{tmp_path / 'missing.json'}",
        f"@{not_json}",
        f"@{ragged}",
        f"@{matrix}",
        f"@{mixed}",
        f"@{strings}",
        "1,nan",
    ]
    for x0 in bad:
        assert main(["project-norm", "--norm", "l1", "--x0", x0]) == 1, x0
        assert "error:" in capsys.readouterr().err


def test_project_norm_direct_only(capsys):
    assert main(["project-norm", "--norm", "linf", "--x0", "2,0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert_allclose(doc["x_direct"], [1.0, 0.5])
    assert "x_via_dual" not in doc


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fastproj", "project-norm", "--norm", "l2", "--x0", "3,4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert_allclose(doc["x_direct"], [0.6, 0.8])


def test_generator_factored_mode_consistency():
    dense = random_quadratic_instance(12, 2, seed=5)
    fact = random_quadratic_instance(12, 2, seed=5, factored=True)
    # same family: unit spectral norm, positive levels, exterior query point
    for prob in (dense, fact):
        assert prob.m == 2
        assert np.max(eval_constraints(prob, prob.x0)) > 0
        for c in prob.constraints:
            assert c.spectral_norm == pytest.approx(1.0)


def test_project_norm_vector_from_file(tmp_path, capsys):
    vec = tmp_path / "x0.json"
    vec.write_text("[2.0, 0.0]")
    assert main(["project-norm", "--norm", "l2", "--x0", f"@{vec}"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert_allclose(doc["x_direct"], [1.0, 0.0])
