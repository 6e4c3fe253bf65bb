import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sumrate as sr
from sumrate.exceptions import ScenarioError
from conftest import DATA

E1_PATH = f"{DATA}/e1.json"


def e1_dict(**overrides):
    base = {
        "version": 1,
        "users": 2,
        "gains": [[1.0, 0.1], [0.1, 1.0]],
        "noise": [0.1, 0.1],
        "caps": [1.0, 1.0],
        "weights": [0.5, 0.5],
        "snr_gap": 1.0,
    }
    base.update(overrides)
    return base


class TestLoading:
    def test_golden_file_loads_and_solves(self):
        sc = sr.load_scenario(E1_PATH)
        inst = sc.to_instance()
        report = sr.solve_gradient(inst)
        assert_allclose(report.objective_value, math.log(6.0), atol=1e-12)

    def test_db_gains_convert(self):
        sc = sr.parse_scenario(
            e1_dict(gains=[[0.0, -20.0], [-20.0, 0.0]], gains_unit="db")
        )
        assert_allclose(sc.gains, [[1.0, 0.01], [0.01, 1.0]])

    def test_dbm_noise_converts(self):
        sc = sr.parse_scenario(e1_dict(noise=[-10.0, -10.0], noise_unit="dbm"))
        assert_allclose(sc.noise, [0.1, 0.1])

    def test_missing_weights_default_uniform(self):
        raw = e1_dict()
        del raw["weights"]
        sc = sr.parse_scenario(raw)
        assert_allclose(sc.weights, [0.5, 0.5])

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"users": 1}, "users"),
            ({"gains": [[1.0, 0.1]]}, "gains"),
            ({"noise": [0.1, -0.1]}, "noise"),
            ({"caps": [1.0]}, "caps"),
            ({"weights": [0.9, 0.9]}, "weights"),
            ({"snr_gap": 0.2}, "snr_gap"),
            ({"gains_unit": "nepers"}, "gains_unit"),
            ({"bogus": 1}, "scenario"),
            ({"gains": {"x": 1}}, "gains"),
            ({"gains": [["a", 1], [1, 1]]}, "gains"),
            ({"gains": [[1, 2], [1]]}, "gains"),
            ({"snr_gap": math.inf}, "snr_gap"),
            ({"tones": 2}, "tones"),
            ({"tones": 0}, "tones"),
            ({"tones": True}, "tones"),
            ({"gains": [[[1.0, 0.1], [0.1, 1.0]]] * 2}, "gains"),
            ({"solver": {"kkt_tol": -1}}, "solver.kkt_tol"),
            ({"solver": {"kkt_tol": 0}}, "solver.kkt_tol"),
            ({"solver": {"kkt_tol": "nan"}}, "solver.kkt_tol"),
            ({"solver": {"kkt_tol": math.nan}}, "solver.kkt_tol"),
            ({"solver": {"seed": 1.5}}, "solver.seed"),
            ({"solver": {"seed": -1}}, "solver.seed"),
            ({"solver": {"seed": True}}, "solver.seed"),
            ({"solver": {"multistart": True}}, "solver.multistart"),
            ({"solver": {"multistart": 0}}, "solver.multistart"),
            ({"solver": {"polytope_grid": 1}}, "solver.polytope_grid"),
            ({"solver": {"polytope_grid": 3.0}}, "solver.polytope_grid"),
            ({"solver": {"polytope_K": math.inf}}, "solver.polytope_K"),
            ({"solver": {"polytope_K": "5"}}, "solver.polytope_K"),
            ({"solver": {"algorithm": 5}}, "solver.algorithm"),
            ({"solver": {"algorithm": "newton"}}, "solver.algorithm"),
        ],
    )
    def test_schema_violations_name_the_field(self, overrides, field):
        with pytest.raises(ScenarioError, match=field):
            sr.parse_scenario(e1_dict(**overrides))

    @pytest.mark.parametrize("polytope_K", [None, 5, 12.5])
    def test_valid_solver_block_kept(self, polytope_K):
        solver = {"algorithm": "lp", "seed": 0, "multistart": 1,
                  "polytope_grid": 2, "polytope_K": polytope_K, "kkt_tol": 1e-7}
        assert sr.parse_scenario(e1_dict(solver=solver)).solver == solver

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            sr.load_scenario(tmp_path / "nope.json")


class TestCanonicalForm:
    def test_save_load_idempotent(self, tmp_path):
        first = sr.save_scenario(sr.load_scenario(E1_PATH), tmp_path / "a.json")
        second = sr.save_scenario(sr.load_scenario(tmp_path / "a.json"))
        assert first == second

    def test_float_round_trip_is_exact(self):
        sc = sr.parse_scenario(e1_dict(gains=[[1.0, 1e-7 / 3], [0.123456789012345678, 1.0]]))
        text = sr.save_scenario(sc)
        again = sr.parse_scenario(json.loads(text))
        assert np.array_equal(sc.gains, again.gains)

    def test_hash_invariant_to_units_and_defaults(self):
        linear = sr.parse_scenario(e1_dict())
        db = sr.parse_scenario(
            e1_dict(gains=[[0.0, -20.0], [-20.0, 0.0]], gains_unit="db")
        )
        assert linear.sha256() != db.sha256()  # different gains, different hash
        db_same = sr.parse_scenario(
            e1_dict(
                gains=[[0.0, 10 * math.log10(0.1)], [10 * math.log10(0.1), 0.0]],
                gains_unit="db",
            )
        )
        assert linear.sha256() == db_same.sha256()
        no_weights = e1_dict()
        del no_weights["weights"]
        assert sr.parse_scenario(no_weights).sha256() == linear.sha256()

    def test_hash_invariant_to_one_tone_stacking(self):
        flat = sr.parse_scenario(e1_dict())
        stacked = sr.parse_scenario(
            e1_dict(tones=1, gains=[[[1.0, 0.1], [0.1, 1.0]]], noise=[[0.1, 0.1]])
        )
        assert flat.sha256() == stacked.sha256()
        assert sr.save_scenario(flat) == sr.save_scenario(stacked)

    def test_hash_changes_with_content(self):
        a = sr.parse_scenario(e1_dict())
        b = sr.parse_scenario(e1_dict(caps=[1.0, 2.0]))
        assert a.sha256() != b.sha256()

    def test_solver_options_do_not_change_hash(self):
        a = sr.parse_scenario(e1_dict())
        b = sr.parse_scenario(e1_dict(solver={"seed": 99, "multistart": 4}))
        assert a.sha256() == b.sha256()


class TestGeneration:
    def test_deterministic_per_seed(self):
        a = sr.save_scenario(sr.generate_instance(3, seed=7))
        b = sr.save_scenario(sr.generate_instance(3, seed=7))
        assert a == b
        c = sr.save_scenario(sr.generate_instance(3, seed=8))
        assert a != c

    def test_generated_instance_valid(self):
        sc = sr.generate_instance(4, seed=3)
        inst = sc.to_instance()
        assert isinstance(inst, sr.ChannelInstance)
        assert inst.users == 4


class TestVerifyReport:
    def test_round_trip_report_verifies(self):
        sc = sr.load_scenario(E1_PATH)
        inst = sc.to_instance()
        rep = sr.solve_gradient(inst)
        doc = {
            "power": rep.power.tolist(),
            "objective_nats": rep.objective_value,
            "radii": sr.in_achievable_region(inst, rep.sir).radii.tolist(),
        }
        doc = json.loads(sr.canonical_json(doc))
        sr.verify_report(sc, doc)

    def test_tampered_report_rejected(self):
        sc = sr.load_scenario(E1_PATH)
        doc = {"power": [1.0, 1.0], "objective_nats": 1.0}
        with pytest.raises(ScenarioError, match="objective"):
            sr.verify_report(sc, doc)
