import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sumrate as sr
from conftest import log_sir_grid_best, random_instance

LOG6 = math.log(6.0)


class TestKktClassify:
    def test_caps_corner_satisfied(self, e1):
        report = sr.kkt_classify(e1, [1.0, 1.0])
        assert report.s_max == (0, 1) and report.s_in == () and report.s_0 == ()
        assert report.satisfied and report.residual == 0.0
        assert np.all(report.gradient > 0)

    def test_origin_not_satisfied_with_positive_weights(self, e1):
        report = sr.kkt_classify(e1, [0.0, 0.0])
        assert report.s_0 == (0, 1)
        assert not report.satisfied
        assert report.residual > 0

    def test_partition_is_exhaustive_and_disjoint(self):
        inst = random_instance(3, users=4)
        p = np.array([0.0, 0.3, 1.0, 0.6]) * inst.caps
        report = sr.kkt_classify(inst, p)
        all_idx = sorted(report.s_max + report.s_in + report.s_0)
        assert all_idx == list(range(4))

    def test_out_of_box_rejected(self, e1):
        with pytest.raises(ValueError):
            sr.kkt_classify(e1, [2.0, 0.5])


class TestSolveGradient:
    def test_reference_immediate(self, e1):
        report = sr.solve_gradient(e1)
        assert report.termination == "kkt_satisfied"
        assert report.iterations == 0
        assert_allclose(report.power, [1.0, 1.0])
        assert_allclose(report.objective_value, LOG6, atol=1e-12)
        assert report.bounds.lower - 1e-9 <= report.objective_value

    def test_monotone_objective_trace(self):
        inst = random_instance(8, users=3)
        trace = []
        sr.solve_gradient(
            inst, np.full(3, 0.1) * inst.caps, callback=lambda p, v: trace.append(v)
        )
        assert len(trace) >= 2
        assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_objective_recomputed_from_power(self):
        inst = random_instance(12, users=2)
        report = sr.solve_gradient(inst)
        recomputed = sr.objective(inst.weights, sr.sir_of_power(inst, report.power))
        assert report.objective_value == recomputed

    def test_start_outside_box_rejected(self, e1):
        with pytest.raises(ValueError):
            sr.solve_gradient(e1, [1.5, 0.5])

    @pytest.mark.parametrize("seed", range(6))
    def test_multistart_matches_oracle(self, seed):
        inst = random_instance(seed, users=2)
        oracle = sr.oracle_grid(inst, 201, refine=True)
        report = sr.solve_gradient_multistart(inst, starts=16, seed=seed)
        assert report.objective_value >= oracle.best_value - 1e-3

    @pytest.mark.parametrize("starts", [True, False, 2.0, 0, -1, "3", None])
    def test_multistart_starts_must_be_a_positive_int(self, e1, starts):
        # the rule of the CLI's multistart option: an int >= 1, not a bool
        with pytest.raises(ValueError, match="starts"):
            sr.solve_gradient_multistart(e1, starts=starts)

    def test_multistart_deterministic(self):
        inst = random_instance(23, users=2)
        a = sr.solve_gradient_multistart(inst, starts=8, seed=5)
        b = sr.solve_gradient_multistart(inst, starts=8, seed=5)
        assert np.array_equal(a.power, b.power)
        assert a.objective_value == b.objective_value


class TestPolytope:
    def test_reference_polytope(self, e1):
        poly = sr.build_polytope(e1, grid=2)
        anchors = {h.anchor.tobytes() for h in poly.hyperplanes}
        assert len(anchors) == 3  # grid points not strictly below the caps
        assert len(poly.hyperplanes) == 4  # both caps active at (1,1)
        assert_allclose(poly.box_high, np.log([10.0, 10.0]))
        assert_allclose(poly.box_low, np.full(2, -poly.K))
        corner = np.log(sr.sir_of_power(e1, e1.caps))
        assert any(np.allclose(h.anchor, corner, atol=1e-12) for h in poly.hyperplanes)

    def test_anchors_on_surface_and_inside(self, e1):
        poly = sr.build_polytope(e1, grid=3)
        der = sr.derive_matrices(e1)
        for zeta in (h.anchor for h in poly.hyperplanes):
            radii = [
                sr.spectral_radius(np.exp(zeta)[:, None] * B_l) for B_l in der.B
            ]
            assert abs(max(radii) - 1.0) <= 1e-8
            assert poly.contains(zeta, tol=1e-9)

    def test_contains_region_sample(self):
        inst = random_instance(31, users=2)
        poly = sr.build_polytope(inst, grid=4)
        rng = np.random.default_rng(0)
        floor = np.linalg.solve(
            math.exp(poly.K) * np.eye(2) - sr.derive_matrices(inst).F,
            sr.derive_matrices(inst).v,
        )
        kept = 0
        for _ in range(200):
            p = floor + rng.uniform(0.0, 1.0, 2) * (inst.caps - floor)
            xi = np.log(sr.sir_of_power(inst, p))
            if np.all(xi >= poly.box_low - 1e-12):  # inside the truncated region
                assert poly.contains(xi, tol=1e-9)
                kept += 1
        assert kept > 100

    def test_k_must_exceed_log_radius(self, e1):
        with pytest.raises(ValueError, match="K must exceed"):
            sr.build_polytope(e1, K=math.log(0.2))

    def test_grid_minimum(self, e1):
        with pytest.raises(ValueError, match="at least 2"):
            sr.build_polytope(e1, grid=1)


class TestLpSolve:
    def test_box_only_monotone_objective(self, e1):
        poly = sr.build_polytope(e1, grid=2)
        boxed = sr.Polytope(
            hyperplanes=(), box_low=poly.box_low, box_high=poly.box_high,
            K=poly.K,
        )
        vertex, value = sr.lp_solve([0.5, 0.5], boxed)
        assert_allclose(vertex, poly.box_high, atol=1e-9)

    def test_zero_objective_first_vertex(self, e1):
        poly = sr.build_polytope(e1, grid=2)
        vertex, value = sr.lp_solve([0.0, 0.0], poly)
        assert value == 0.0
        assert_allclose(vertex, poly.box_low, atol=1e-12)

    def test_reference_value_bracketed(self, e1):
        poly = sr.build_polytope(e1, grid=2)
        vertex, value = sr.lp_solve(e1.weights, poly)
        assert math.log(5.0) - 1e-9 <= value <= math.log(10.0) + 1e-9
        assert poly.max_violation(vertex) <= 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_vertices_feasible(self, seed):
        inst = random_instance(seed + 40, users=2)
        poly = sr.build_polytope(inst, grid=4)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            c = rng.uniform(0.0, 1.0, 2)
            vertex, _ = sr.lp_solve(c, poly)
            assert poly.max_violation(vertex) <= 1e-9


def _polytope_vertices(poly):
    """Exact vertex enumeration from constraint intersections (test oracle)."""
    n = poly.dim
    rows = [(h.normal, float(h.normal @ h.anchor)) for h in poly.hyperplanes]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows.append((e, float(poly.box_high[i])))
        rows.append((-e, float(-poly.box_low[i])))
    vertices = []
    for combo in itertools.combinations(rows, n):
        M = np.array([a for a, _ in combo])
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        xi = np.linalg.solve(M, [b for _, b in combo])
        if poly.max_violation(xi) <= 1e-8:
            vertices.append(xi)
    return vertices


@pytest.mark.parametrize("users, seed", [(None, 0), (2, 47), (3, 48)])
def test_lp_solve_matches_vertex_enumeration(users, seed, e1):
    # optimality, not only feasibility: no enumerated vertex beats the LP
    inst = e1 if users is None else random_instance(seed, users=users)
    poly = sr.build_polytope(inst, grid=3)
    vertices = np.array(_polytope_vertices(poly))
    rng = np.random.default_rng(seed)
    objectives = [inst.weights] + [rng.uniform(-1.0, 1.0, inst.users) for _ in range(5)]
    for c in objectives:
        _, value = sr.lp_solve(c, poly)
        assert abs(value - float(np.max(vertices @ c))) <= 1e-9


class TestSolveLinearized:
    def test_reference_converges_to_corner(self, e1):
        report = sr.solve_linearized(e1)
        assert report.termination == "kkt_satisfied"
        assert report.iterations == 1  # one LP step reaches the capped corner
        assert_allclose(report.power, [1.0, 1.0], atol=1e-9)
        assert_allclose(report.objective_value, LOG6, atol=1e-9)
        assert report.lp_bound is not None
        assert report.lp_bound >= report.objective_value  # recorded gap >= 0

    @pytest.mark.parametrize("seed,users", [(s, 2) for s in range(6)] + [(0, 3), (1, 3)])
    def test_polytope_max_dominates_oracle(self, seed, users):
        inst = random_instance(seed + 300, users=users)
        poly = sr.build_polytope(inst, grid=8 if users == 2 else 3)
        oracle = sr.oracle_grid(inst, 101 if users == 2 else 41, refine=True)
        best_vertex_value = max(
            sr.objective(inst.weights, np.exp(v)) for v in _polytope_vertices(poly)
        )
        # containment of the truncated region, up to the log-floor cutoff
        assert best_vertex_value >= oracle.best_value - 1e-4
        report = sr.solve_linearized(inst, poly)
        assert report.lp_bound >= best_vertex_value - 1e-9
        assert report.lp_bound >= report.objective_value - 1e-12

    def test_stationary_reports_have_unit_constraint_radius(self):
        # stationarity implies some binding cap, i.e. a unit constraint radius
        for seed in range(6):
            inst = random_instance(seed + 500, users=2)
            report = sr.solve_gradient_multistart(inst, starts=8, seed=seed)
            if report.termination == "kkt_satisfied":
                radii = sr.in_achievable_region(inst, report.sir).radii
                assert abs(np.max(radii) - 1.0) <= 1e-7


class TestSolveLpRelax:
    def test_reference_exact(self, e1):
        report = sr.solve_lp_relax(e1)
        assert_allclose(report.power, [1.0, 1.0], atol=1e-9)
        assert_allclose(report.objective_value, LOG6, atol=1e-9)
        assert math.log(5.0) - 1e-9 <= report.lp_bound <= math.log(10.0) + 1e-9
        assert report.termination in ("lp_optimal", "stalled")
        assert report.iterations == 1  # the caps are already the fixed point
        assert report.bounds.lower - 1e-9 <= report.objective_value

    def test_single_user_weight_pins_its_cap(self, e1):
        inst = sr.ChannelInstance(
            gains=e1.gains, noise=e1.noise, caps=e1.caps, weights=[1.0, 0.0]
        )
        report = sr.solve_lp_relax(inst)
        assert_allclose(report.power[0], inst.caps[0], atol=1e-9)
        assert report.power[1] == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_feasible_output(self, seed):
        inst = random_instance(seed + 60, users=3)
        report = sr.solve_lp_relax(inst)
        assert np.all(report.power >= 0) and np.all(report.power <= inst.caps)
        assert report.objective_value <= report.bounds.upper + 1e-9

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("cross", [(0.02, 0.3), (0.1, 1.0), (1e-3, 1e-2)])
    @pytest.mark.parametrize("users", [2, 3])
    def test_bound_is_the_exact_log_sir_maximum(self, users, cross, seed):
        # no grid point beats it, and the cap-aware relaxation dominates it
        inst = sr.generate_instance(users, seed=seed, cross_range=cross).to_instance()
        report = sr.solve_lp_relax(inst)
        grid = log_sir_grid_best(inst, 201 if users == 2 else 41)
        assert report.lp_bound >= grid - 1e-12
        assert report.lp_bound <= sr.relaxed_max_tilde(inst).relaxed_value + 1e-12
        assert report.termination in ("lp_optimal", "stalled")

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_weight_user_gets_exactly_zero(self, seed):
        # the zero-weight instances of acceptance criterion 11, on lp and on
        # linearized
        base = sr.generate_instance(3, seed=400 + seed).to_instance()
        inst = sr.ChannelInstance(
            gains=base.gains, noise=base.noise, caps=base.caps,
            weights=[0.6, 0.4, 0.0],
        )
        for solve in (sr.solve_lp_relax, sr.solve_linearized):
            report = solve(inst)
            assert report.power[2] == 0.0
            assert np.all(report.power[:2] > 0)

    def test_builds_no_polytope(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("lp must not build or solve a polytope")

        monkeypatch.setattr(sr.solvers, "build_polytope", refuse)
        monkeypatch.setattr(sr.solvers, "lp_solve", refuse)
        monkeypatch.setattr(sr.solvers, "simplex_max", refuse)
        report = sr.solve_lp_relax(random_instance(61, users=3))
        assert report.termination in ("lp_optimal", "stalled")

    def test_no_projected_label(self):
        assert "projected" not in sr.solvers.TERMINATIONS


@pytest.mark.parametrize("users", [3, 4])
def test_optimal_labels_hold_at_kkt_points(users):
    # both solvers end off KKT on these instances; they must not say optimal
    labels = []
    for seed in range(8):
        inst = sr.generate_instance(users, seed=seed).to_instance()
        poly = sr.build_polytope(inst)
        for report in (sr.solve_linearized(inst, poly), sr.solve_lp_relax(inst)):
            labels.append(report.termination)
            if report.termination in ("kkt_satisfied", "lp_optimal"):
                assert report.kkt_residual <= sr.solvers.KKT_TOL
    assert "stalled" in labels


class TestOracleGrid:
    def test_reference_corner(self, e1):
        result = sr.oracle_grid(e1, 201, refine=True)
        assert_allclose(result.best_power, [1.0, 1.0])
        assert abs(result.best_value - LOG6) <= 1e-12

    def test_some_cap_always_active(self):
        for seed in range(5):
            inst = random_instance(seed + 80, users=2)
            result = sr.oracle_grid(inst, 61, refine=True)
            assert np.any(np.abs(result.best_power - inst.caps) <= 1e-12)

    def test_zero_weight_user_shut_off(self):
        inst = sr.ChannelInstance(
            gains=[[1, 0.2, 0.2], [0.2, 1, 0.2], [0.2, 0.2, 1]],
            noise=[0.1, 0.1, 0.1],
            caps=[1, 1, 1],
            weights=[0.6, 0.4, 0.0],
        )
        result = sr.oracle_grid(inst, 21, refine=True)
        assert result.best_power[2] == 0.0

    def test_guards(self, e1):
        with pytest.raises(ValueError, match="resolution"):
            sr.oracle_grid(e1, 5)
        big = random_instance(1, users=5)
        with pytest.raises(ValueError, match="4 users"):
            sr.oracle_grid(big, 21)

    def test_deterministic(self, e1):
        a = sr.oracle_grid(e1, 51, refine=True)
        b = sr.oracle_grid(e1, 51, refine=True)
        assert np.array_equal(a.best_power, b.best_power)
        assert a.best_value == b.best_value

    def test_refinement_never_worse(self):
        inst = random_instance(90, users=2)
        coarse = sr.oracle_grid(inst, 31, refine=False)
        fine = sr.oracle_grid(inst, 31, refine=True)
        assert fine.best_value >= coarse.best_value
