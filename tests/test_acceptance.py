"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Instance suites are seeded and deterministic; the solver-equivalence suite
uses moderately diagonally dominant channels (cross gains at most about
-8 dB relative to direct gains, comparable users) so that the local solver
contracts reach the global grid optimum they are compared against.
"""
import functools
import json
import math
import warnings

import numpy as np
import pytest

import sumrate as sr
from sumrate import cli
from sumrate.exceptions import InfeasibleWeightError
from conftest import DATA, log_sir_grid_best, majorization_weights

E1_PATH = f"{DATA}/e1.json"
LOG6 = math.log(6.0)

SUITE_PARAMS = dict(
    cross_range=(0.02, 0.15),
    direct_range=(0.8, 1.25),
    noise_range=(0.08, 0.12),
    cap_range=(0.8, 1.25),
    weight_floor=0.4,
)


def _announce(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number:02d} {name}: PASS")

        return run

    return wrap


def _instances_2_to_8(count, seed0=0):
    for i in range(count):
        users = 2 + i % 7
        yield i, sr.generate_instance(users, seed=seed0 + i).to_instance()


@pytest.fixture(scope="module")
def e1():
    return sr.load_scenario(E1_PATH).to_instance()


@pytest.fixture(scope="module")
def solved_suite():
    """50 seeded 2-user instances with oracle, multistart, and linearized runs."""
    rows = []
    for seed in range(50):
        inst = sr.generate_instance(2, seed=seed, **SUITE_PARAMS).to_instance()
        oracle = sr.oracle_grid(inst, 201, refine=True)
        multi = sr.solve_gradient_multistart(inst, starts=16, seed=seed)
        poly = sr.build_polytope(inst, grid=24)
        lin = sr.solve_linearized(inst, poly)
        rows.append((inst, oracle, multi, lin))
    return rows


@_announce(1, "inverse-map round trip")
def test_c01_inverse_map_round_trip():
    for i, inst in _instances_2_to_8(500):
        rng = np.random.default_rng(1000 + i)
        p = rng.uniform(0.0, 1.0, inst.users) * inst.caps
        back = sr.power_of_sir(inst, sr.sir_of_power(inst, p))
        assert np.max(np.abs(back - p)) <= 1e-9
        gamma = sr.sir_of_power(inst, p) * rng.uniform(0.2, 1.0, inst.users)
        again = sr.sir_of_power(inst, sr.power_of_sir(inst, gamma))
        assert np.max(np.abs(again - gamma)) <= 1e-9


@_announce(2, "box-image characterization")
def test_c02_box_image():
    for i, inst in _instances_2_to_8(500):
        rng = np.random.default_rng(2000 + i)
        p = rng.uniform(0.0, 1.0, inst.users) * inst.caps
        capped = rng.uniform(0.0, 1.0, inst.users) < 0.35
        p[capped] = inst.caps[capped]
        check = sr.in_achievable_region(inst, sr.sir_of_power(inst, p))
        assert np.all(check.radii <= 1.0 + 1e-9)
        active = set(np.flatnonzero(np.abs(check.radii - 1.0) <= 1e-7))
        assert active == set(np.flatnonzero(capped))


@_announce(3, "spectral product bound suites")
def test_c03_spectral_product_bounds():
    for i in range(500):
        rng = np.random.default_rng(3000 + i)
        n = 2 + i % 7
        A = rng.uniform(0.1, 2.0, (n, n))
        if i % 2:
            np.fill_diagonal(A, 0.0)
        gamma = rng.uniform(0.05, 3.0, n)
        lower = sr.fk_scaling_lower_bound(A, gamma)
        assert lower <= sr.spectral_radius(gamma[:, None] * A) + 1e-10
        c = float(rng.uniform(0.2, 2.0))
        tight = sr.fk_scaling_lower_bound(A, np.full(n, c))
        assert abs(tight - sr.spectral_radius(c * A)) <= 1e-10
        z = rng.uniform(0.1, 2.0, n)
        rho = sr.spectral_radius(A)
        assert sr.fk_z_upper_bound(A, z) >= rho - 1e-10
        pair = sr.perron_pair(A)
        assert abs(sr.fk_z_upper_bound(A, pair.right) - rho) <= 1e-10


@_announce(4, "supporting-hyperplane tangency")
def test_c04_hyperplane_tangency():
    anchors_done = 0
    for i in range(20):
        inst = sr.generate_instance(2 + i % 3, seed=4000 + i).to_instance()
        der = sr.derive_matrices(inst)
        rng = np.random.default_rng(4100 + i)
        for _ in range(5):
            p = rng.uniform(0.2, 1.0, inst.users) * inst.caps
            l = int(rng.integers(0, inst.users))
            p[l] = inst.caps[l]
            zeta = np.log(sr.sir_of_power(inst, p))
            hp = sr.supporting_hyperplane(der.B[l], zeta)
            surface_at_anchor = math.log(
                sr.spectral_radius(np.exp(zeta)[:, None] * der.B[l])
            )
            assert abs(hp.evaluate(zeta) - surface_at_anchor) <= 1e-10
            for _ in range(100):
                xi = zeta + rng.normal(0.0, 0.6, inst.users)
                surface = math.log(
                    sr.spectral_radius(np.exp(xi)[:, None] * der.B[l])
                )
                assert hp.evaluate(xi) <= surface + 1e-9
            anchors_done += 1
    assert anchors_done == 100


@_announce(5, "diagonal scaling and inverse weights")
def test_c05_scaling_and_inverse_weights():
    for i in range(60):
        rng = np.random.default_rng(5000 + i)
        n = 2 + i % 7
        A = rng.uniform(0.1, 2.0, (n, n))  # positive diagonal
        u = rng.uniform(0.5, 2.0, n)
        v = rng.uniform(0.5, 2.0, n)
        pair = sr.diagonal_scaling(A, u, v)
        scaled = pair.d1[:, None] * A * pair.d2[None, :]
        assert np.max(np.abs(scaled @ u - u)) <= 1e-8
        assert np.max(np.abs(v @ scaled - v)) <= 1e-8
        w = majorization_weights(rng, n, ceiling=1.0)
        eta, _ = sr.inverse_weight(A, w)
        scaled_eta = np.exp(eta)[:, None] * A
        assert np.max(np.abs(sr.perron_pair(scaled_eta).weights() - w)) <= 1e-8
    with pytest.raises(InfeasibleWeightError):
        sr.inverse_weight(np.array([[0.0, 1.0], [1.0, 0.0]]), [0.6, 0.4])
    rng = np.random.default_rng(5999)
    A3 = rng.uniform(0.2, 2.0, (3, 3))
    np.fill_diagonal(A3, 0.0)
    w3 = np.array([0.4, 0.35, 0.25])
    eta3, _ = sr.inverse_weight(A3, w3)
    scaled3 = np.exp(eta3)[:, None] * A3
    assert np.max(np.abs(sr.perron_pair(scaled3).weights() - w3)) <= 1e-7


@_announce(6, "gradient matches central differences")
def test_c06_gradient_finite_differences():
    done = 0
    for i in range(25):
        inst = sr.generate_instance(2 + i % 4, seed=6000 + i).to_instance()
        rng = np.random.default_rng(6100 + i)
        for _ in range(4):
            p = rng.uniform(0.1, 0.9, inst.users) * inst.caps
            grad = sr.objective_gradient_p(inst, p)
            fd = np.zeros(inst.users)
            for j in range(inst.users):
                h = 1e-6 * inst.caps[j]
                up, dn = p.copy(), p.copy()
                up[j] += h
                dn[j] -= h
                fd[j] = (
                    sr.objective(inst.weights, sr.sir_of_power(inst, up))
                    - sr.objective(inst.weights, sr.sir_of_power(inst, dn))
                ) / (2.0 * h)
            assert np.max(np.abs(grad - fd)) <= 1e-5 * np.max(np.abs(fd))
            done += 1
    assert done == 100


@_announce(7, "solver-oracle equivalence")
def test_c07_oracle_equivalence(solved_suite, e1):
    for inst, oracle, multi, lin in solved_suite:
        assert multi.objective_value >= oracle.best_value - 1e-3
        assert lin.objective_value >= oracle.best_value - 1e-3
    reference = sr.solve_gradient_multistart(e1, starts=16, seed=0)
    assert np.max(np.abs(reference.power - [1.0, 1.0])) <= 1e-9
    assert abs(reference.objective_value - LOG6) <= 1e-9
    lin_ref = sr.solve_linearized(e1)
    assert abs(lin_ref.objective_value - LOG6) <= 1e-9


@_announce(8, "bound sandwich")
def test_c08_bound_sandwich(solved_suite, e1):
    for inst, oracle, multi, lin in solved_suite:
        for report in (multi, lin):
            assert report.bounds.lower - 1e-9 <= report.objective_value
            assert report.objective_value <= report.bounds.upper + 1e-9
        assert oracle.best_value <= multi.bounds.upper + 1e-9
    for report in (
        sr.solve_gradient(e1),
        sr.solve_linearized(e1),
        sr.solve_lp_relax(e1),
    ):
        assert abs(report.bounds.lower - LOG6) <= 1e-12
        assert abs(report.bounds.upper - math.log(11.0)) <= 1e-12
        assert report.bounds.lower - 1e-9 <= report.objective_value
        assert report.objective_value <= report.bounds.upper + 1e-9


@_announce(9, "relaxation chain")
def test_c09_relaxation_chain(e1):
    instances = []
    for i in range(45):
        base = sr.generate_instance(3, seed=9000 + i).to_instance()
        rng = np.random.default_rng(9100 + i)
        instances.append(
            sr.ChannelInstance(
                gains=base.gains, noise=base.noise, caps=base.caps,
                weights=majorization_weights(rng, 3),
            )
        )
    for users, cross in [(2, 0.05), (3, 0.08), (2, 0.12), (3, 0.05), (2, 0.1)]:
        gains = np.full((users, users), cross)
        np.fill_diagonal(gains, 1.0)
        instances.append(
            sr.ChannelInstance(
                gains=gains, noise=np.full(users, 0.1), caps=np.ones(users),
                weights=np.full(users, 1.0 / users),
            )
        )
    assert len(instances) == 50
    for inst in instances:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            noiseless = sr.relaxed_max_noiseless(inst)
        tilde = sr.relaxed_max_tilde(inst)
        assert noiseless.relaxed_value >= tilde.relaxed_value - 1e-9
        oracle_log = log_sir_grid_best(inst, 41 if inst.users == 3 else 201)
        assert tilde.relaxed_value >= oracle_log - 1e-6
        if tilde.certified_global:
            lift = np.clip(tilde.lifted_power, 0.0, inst.caps)
            lift_value = sr.objective(inst.weights, sr.sir_of_power(inst, lift))
            oracle = sr.oracle_grid(
                inst, 61 if inst.users > 2 else 201, refine=True
            )
            assert abs(lift_value - oracle.best_value) <= 1e-3
    # reference instance: lift certified and exactly optimal
    tilde_e1 = sr.relaxed_max_tilde(e1)
    assert tilde_e1.certified_global
    lift_value = sr.objective(e1.weights, sr.sir_of_power(e1, tilde_e1.lifted_power))
    assert abs(lift_value - LOG6) <= 1e-12


@_announce(10, "one-tone scenario reduction")
def test_c10_multitone_reduction(tmp_path):
    raw = json.loads(open(E1_PATH).read())
    flat = dict(raw)
    stacked = dict(raw)
    stacked["tones"] = 1
    stacked["gains"] = [raw["gains"]]
    stacked["noise"] = [raw["noise"]]
    flat_path, stacked_path = tmp_path / "flat.json", tmp_path / "stacked.json"
    flat_path.write_text(json.dumps(flat))
    stacked_path.write_text(json.dumps(stacked))
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["solve", "--scenario", str(flat_path), "--algorithm",
                     "gradient", "--out", str(out_a)]) == 0
    assert cli.main(["solve", "--scenario", str(stacked_path), "--algorithm",
                     "gradient", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


@_announce(11, "cap activity and zero-weight shutoff")
def test_c11_vertex_activity(solved_suite):
    checked = 0
    for inst, oracle, multi, lin in solved_suite:
        for report in (multi, lin):
            if report.termination == "kkt_satisfied":
                assert np.min(inst.caps - report.power) <= 1e-9
                checked += 1
        assert np.any(np.abs(oracle.best_power - inst.caps) <= 1e-12)
    assert checked >= 50  # the suite is overwhelmingly stationarity-terminated
    for seed in range(3):
        base = sr.generate_instance(3, seed=400 + seed).to_instance()
        inst = sr.ChannelInstance(
            gains=base.gains, noise=base.noise, caps=base.caps,
            weights=[0.6, 0.4, 0.0],
        )
        oracle = sr.oracle_grid(inst, 21, refine=True)
        assert oracle.best_power[2] == 0.0
        report = sr.solve_gradient_multistart(inst, starts=8, seed=seed)
        assert report.power[2] <= 1e-9
        assert np.min(inst.caps - report.power) <= 1e-9


@_announce(12, "byte-identical deterministic reports")
def test_c12_determinism(tmp_path):
    gen_a, gen_b = tmp_path / "ga.json", tmp_path / "gb.json"
    assert cli.main(["gen", "--users", "3", "--seed", "21", "--out", str(gen_a)]) == 0
    assert cli.main(["gen", "--users", "3", "--seed", "21", "--out", str(gen_b)]) == 0
    assert gen_a.read_bytes() == gen_b.read_bytes()
    for algorithm in ("gradient", "linearized", "lp"):
        out1, out2 = tmp_path / f"{algorithm}1.json", tmp_path / f"{algorithm}2.json"
        for out in (out1, out2):
            assert cli.main([
                "solve", "--scenario", E1_PATH, "--algorithm", algorithm,
                "--seed", "7", "--out", str(out),
            ]) == 0
        assert out1.read_bytes() == out2.read_bytes()
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert cli.main(["solve", "--scenario", str(gen_a), "--algorithm",
                         "gradient", "--seed", "3", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
