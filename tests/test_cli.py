import json
import math
import shutil

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sumrate import channel, cli
from sumrate.scenario import generate_instance, save_scenario, verify_report
from conftest import DATA

E1_PATH = f"{DATA}/e1.json"


@pytest.fixture
def e1_file(tmp_path):
    target = tmp_path / "e1.json"
    shutil.copy(E1_PATH, target)
    return str(target)


def run(args):
    return cli.main(args)


def test_solve_gradient_golden(e1_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["solve", "--scenario", e1_file, "--algorithm", "gradient",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert_allclose(doc["objective_nats"], math.log(6.0), atol=1e-9)
    assert doc["power"] == [1.0, 1.0]
    assert doc["kkt"]["satisfied"] is True
    assert doc["termination"] == "kkt_satisfied"
    assert_allclose(doc["radii"], [1.0, 1.0], atol=1e-9)


def test_emitted_reports_self_verify(e1_file, tmp_path):
    import sumrate as sr

    sc = sr.load_scenario(e1_file)
    for algorithm in ("gradient", "linearized", "lp"):
        out = tmp_path / f"{algorithm}.json"
        assert run(["solve", "--scenario", e1_file, "--algorithm", algorithm,
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["scenario_sha256"] == sc.sha256()
        sr.verify_report(sc, doc)  # objective and radii recompute exactly


@pytest.mark.parametrize("algorithm", ["linearized", "lp"])
def test_solve_other_algorithms(e1_file, tmp_path, algorithm):
    out = tmp_path / "report.json"
    assert run(["solve", "--scenario", e1_file, "--algorithm", algorithm,
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert_allclose(doc["objective_nats"], math.log(6.0), atol=1e-9)
    assert doc["lp_bound_nats"] is not None


def test_solve_oracle_check(e1_file, tmp_path):
    out = tmp_path / "report.json"
    assert run(["solve", "--scenario", e1_file, "--algorithm", "gradient",
                "--oracle-check", "--resolution", "101", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert_allclose(doc["oracle"]["best_value_nats"], math.log(6.0), atol=1e-9)
    assert abs(doc["oracle"]["gap_nats"]) <= 1e-9


def test_bounds_golden(e1_file, capsys):
    assert run(["bounds", "--scenario", e1_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert_allclose(doc["lower_nats"], 1.791759, atol=1e-6)
    assert_allclose(doc["upper_nats"], 2.397895, atol=1e-6)
    assert_allclose(doc["max_radius"], 0.2, atol=1e-12)


def test_relax_tilde(e1_file, capsys):
    assert run(["relax", "--scenario", e1_file, "--variant", "tilde"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert_allclose(doc["gamma_star"], [5.0, 5.0], atol=1e-8)
    assert doc["certified_global"] is True
    assert_allclose(doc["lifted_objective_nats"], math.log(6.0), atol=1e-9)


def test_relax_majorization_failure_exits_2(tmp_path, capsys):
    raw = json.loads(open(E1_PATH).read())
    raw["weights"] = [0.7, 0.3]
    path = tmp_path / "w73.json"
    path.write_text(json.dumps(raw))
    code = run(["relax", "--scenario", str(path), "--variant", "noiseless"])
    assert code == 2
    assert "majorization" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["tilde", "noiseless", "cap"])
def test_relax_zero_weight_exits_2_naming_the_index(tmp_path, capsys, variant):
    # a zero weight is a valid scenario but never a Perron product
    raw = {"version": 1, "users": 3,
           "gains": [[1.0, 0.2, 0.2], [0.2, 1.0, 0.2], [0.2, 0.2, 1.0]],
           "noise": [0.1, 0.1, 0.1], "caps": [1.0, 1.0, 1.0],
           "weights": [0.6, 0.4, 0.0]}
    path = tmp_path / "zero_weight.json"
    path.write_text(json.dumps(raw))
    assert run(["relax", "--scenario", str(path), "--variant", variant]) == 2
    err = capsys.readouterr().err
    assert err.startswith("infeasible: ") and "index 2" in err


def test_relax_cap_variant(tmp_path, capsys):
    raw = json.loads(open(E1_PATH).read())
    raw["weights"] = [0.7, 0.3]
    path = tmp_path / "w73.json"
    path.write_text(json.dumps(raw))
    assert run(["relax", "--scenario", str(path), "--variant", "cap:0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert_allclose(doc["lifted_power"][0], 1.0, atol=1e-9)


def test_oracle_command(e1_file, capsys):
    assert run(["oracle", "--scenario", e1_file, "--resolution", "101"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["best_power"] == [1.0, 1.0]
    assert_allclose(doc["best_value_nats"], math.log(6.0), atol=1e-12)


def test_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "gen.json"
    assert run(["gen", "--users", "3", "--seed", "11", "--out", str(out)]) == 0
    assert run(["solve", "--scenario", str(out), "--algorithm", "gradient",
                "--multistart", "4"]) == 0
    json.loads(capsys.readouterr().out)


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["gen", "--users", "2", "--seed", "3", "--out", str(a)])
    run(["gen", "--users", "2", "--seed", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "lo, hi", [("nan", "0.3"), ("-0.5", "0.3"), ("0.5", "0.2"), ("0.1", "inf")]
)
def test_gen_bad_cross_range_exits_1(capsys, lo, hi):
    # a scenario that every other command would reject is never written
    assert run(["gen", "--users", "3", "--seed", "0",
                "--cross-lo", lo, "--cross-hi", hi]) == 1
    assert capsys.readouterr().err.startswith("error: cross_range: ")


def test_gen_negative_seed_names_the_flag(capsys):
    assert run(["gen", "--users", "3", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: --seed: must be an integer >= 0\n"


def test_gen_equal_cross_bounds_accepted(capsys):
    assert run(["gen", "--users", "3", "--seed", "0",
                "--cross-lo", "0.2", "--cross-hi", "0.2"]) == 0
    gains = np.array(json.loads(capsys.readouterr().out)["gains"])
    assert np.all(gains[~np.eye(3, dtype=bool)] == 0.2)


def test_usage_errors_exit_1(e1_file, capsys):
    assert run(["solve", "--scenario", e1_file, "--algorithm", "newton"]) == 1
    assert "invalid choice" in capsys.readouterr().err
    assert run(["relax", "--scenario", e1_file, "--variant", "bogus"]) == 1
    assert "variant" in capsys.readouterr().err
    assert run(["solve", "--scenario", "/does/not/exist.json",
                "--algorithm", "gradient"]) == 1


def test_unreadable_scenario_exits_1(tmp_path, capsys):
    assert run(["bounds", "--scenario", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(tmp_path) in err


def test_unwritable_out_exits_1(e1_file, tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert run(["bounds", "--scenario", e1_file, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(out) in err


def test_algorithm_from_scenario_solver_block(tmp_path, capsys):
    raw = json.loads(open(E1_PATH).read())
    raw["solver"] = {"algorithm": "gradient", "seed": 0, "multistart": 4}
    path = tmp_path / "with_algo.json"
    path.write_text(json.dumps(raw))
    assert run(["solve", "--scenario", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["algorithm"] == "gradient"
    # no flag and no file default is a usage error listing the valid values
    raw["solver"] = {}
    path.write_text(json.dumps(raw))
    assert run(["solve", "--scenario", str(path)]) == 1
    assert "gradient" in capsys.readouterr().err


def test_multitone_solve_unsupported(tmp_path, capsys):
    raw = json.loads(open(E1_PATH).read())
    raw.update(tones=2, gains=[raw["gains"]] * 2, noise=[raw["noise"]] * 2)
    path = tmp_path / "mt.json"
    path.write_text(json.dumps(raw))
    code = run(["solve", "--scenario", str(path), "--algorithm", "gradient"])
    assert code == 1
    assert "tones" in capsys.readouterr().err


@pytest.mark.parametrize("solver", [{"multistart": 0}, {"seed": 1.5}, {"algorithm": 5}])
def test_invalid_solver_block_exits_1(tmp_path, capsys, solver):
    raw = json.loads(open(E1_PATH).read())
    raw["solver"] = solver
    path = tmp_path / "bad_solver.json"
    path.write_text(json.dumps(raw))
    code = run(["solve", "--scenario", str(path), "--algorithm", "gradient"])
    assert code == 1
    assert f"solver.{next(iter(solver))}" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def _gen(tmp_path, users, seed, cross):
    path = tmp_path / f"gen_{users}_{seed}.json"
    assert run(["gen", "--users", str(users), "--seed", str(seed),
                "--cross-lo", str(cross[0]), "--cross-hi", str(cross[1]),
                "--out", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("variant", ["cap", "cap:0"])
@pytest.mark.parametrize(
    "users, seed, cross", [(4, 2, (1e-4, 1e-3)), (3, 0, (1e-6, 1e-5))]
)
def test_relax_cap_weak_coupling_certified(tmp_path, capsys, users, seed, cross,
                                           variant):
    # weakly coupled channels once stalled the Perron pair computation
    path = _gen(tmp_path, users, seed, cross)
    assert run(["relax", "--scenario", path, "--variant", variant]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["certificate"]["rho"] - 1.0) <= 1e-8
    assert doc["certificate"]["weight_residual"] <= 1e-7


def test_solve_lp_near_zero_noise(tmp_path):
    # noise 1e-16 is a slow case of the fixed point (186 steps here)
    sc = generate_instance(3, seed=0, cross_range=(0.1, 1.0))
    sc.noise = np.full(3, 1e-16)
    path = tmp_path / "tiny_noise.json"
    save_scenario(sc, path)
    out = tmp_path / "report.json"
    assert run(["solve", "--scenario", str(path), "--algorithm", "lp",
                "--out", str(out)]) == 0
    verify_report(sc, json.loads(out.read_text()))


def test_solve_lp_at_16_users(tmp_path):
    # the fixed point costs O(L^2) per step, so lp runs at any L
    sc = generate_instance(16, seed=0)
    path = tmp_path / "l16.json"
    save_scenario(sc, path)
    out = tmp_path / "report.json"
    assert run(["solve", "--scenario", str(path), "--algorithm", "lp",
                "--out", str(out)]) == 0
    verify_report(sc, json.loads(out.read_text()))


def test_bounds_near_zero_noise(tmp_path):
    # at noise 1e-16 the uniform SIR 1/R sits within rounding of rho(diag(gamma) F) = 1
    sc = generate_instance(3, seed=1, cross_range=(0.1, 1.0))
    sc.noise = np.full(3, 1e-16)
    path = tmp_path / "tiny_noise.json"
    save_scenario(sc, path)
    out = tmp_path / "report.json"
    assert run(["bounds", "--scenario", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    power = np.asarray(doc["uniform_sir_power"])
    inst = sc.to_instance()
    assert np.all(power <= inst.caps)
    sir = channel.sir_of_power(inst, power)
    assert_allclose(sir * doc["max_radius"], 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "users, seed, cross", [(4, 3, (1e-4, 1e-3)), (3, 6, (1e-6, 1e-5))]
)
def test_relax_noiseless_never_lifts(tmp_path, capsys, users, seed, cross):
    # gamma* lies on rho(diag(gamma*) F) = 1, where no power vector exists
    path = _gen(tmp_path, users, seed, cross)
    assert run(["relax", "--scenario", path, "--variant", "noiseless"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lifted_power"] is None
    assert doc["certified_global"] is False
    assert "lifted_objective_nats" not in doc


@pytest.mark.parametrize("variant", ["cap", "cap:0"])
def test_relax_cap_boundary_weight_exits_2(e1_file, capsys, variant):
    # B[0] of e1 has a zero diagonal entry at index 1, where the weight is 1/2
    assert run(["relax", "--scenario", e1_file, "--variant", variant]) == 2
    err = capsys.readouterr().err
    assert "majorization" in err and "index 1" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--seed", "-1"), ("--multistart", "0")],
)
def test_invalid_solve_flag_exits_1(e1_file, capsys, flag, value):
    code = run(["solve", "--scenario", e1_file, "--algorithm", "gradient",
                flag, value])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")


def _solver_scenario(tmp_path, solver):
    raw = json.loads(open(E1_PATH).read())
    raw["solver"] = solver
    path = tmp_path / "solver_block.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_reused_parser_matches_a_fresh_one(tmp_path, capsys):
    path = _solver_scenario(tmp_path, {"algorithm": "gradient", "seed": 7,
                                       "multistart": 4})
    calls = [
        ["solve", "--scenario", path, "--algorithm", "newton"],
        ["--help"],
        ["solve", "--scenario", path, "--seed", "3"],
        ["solve", "--scenario", path],
    ]

    def outcomes(fresh):
        results = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            code = run(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    cli._build_parser.cache_clear()
    reused = outcomes(fresh=False)
    assert cli._build_parser.cache_info().misses == 1  # one parser, four calls
    assert reused == outcomes(fresh=True)
    assert [code for code, _, _ in reused] == [1, 0, 0, 0]
    assert json.loads(reused[2][1])["seed"] == 3
    assert json.loads(reused[3][1])["seed"] == 7  # the scenario's, not the last flag
