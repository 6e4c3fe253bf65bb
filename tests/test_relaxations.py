import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sumrate as sr
from sumrate.exceptions import InfeasibleWeightError
from conftest import majorization_weights, random_instance


class TestObjectiveBounds:
    def test_reference_values(self, e1):
        bounds = sr.objective_bounds(e1)
        assert_allclose(bounds.max_radius, 0.2, atol=1e-14)
        assert_allclose(bounds.lower, math.log(6.0), atol=1e-12)
        assert_allclose(bounds.upper, math.log(11.0), atol=1e-12)

    def test_degenerate_weights_still_ordered(self, e1):
        inst = sr.ChannelInstance(
            gains=e1.gains, noise=e1.noise, caps=e1.caps, weights=[1.0, 0.0]
        )
        bounds = sr.objective_bounds(inst)
        assert bounds.lower <= bounds.upper

    def test_uniform_sir_point_is_achievable(self, e1):
        bounds = sr.objective_bounds(e1)
        uniform = np.full(2, 1.0 / bounds.max_radius)
        assert sr.in_achievable_region(e1, uniform).inside
        power = sr.uniform_sir_power(e1)
        assert np.all(power <= e1.caps + 1e-12)
        assert_allclose(
            sr.objective(e1.weights, sr.sir_of_power(e1, power)),
            bounds.lower,
            atol=1e-12,
        )

    def test_constraint_radii_computed_once_per_instance(self, monkeypatch):
        inst = random_instance(5, users=3)
        der = sr.derive_matrices(inst)
        original = sr.spectral.spectral_radius
        calls = []

        def counting(A):
            if any(A is B_l for B_l in der.B):
                calls.append(A)
            return original(A)

        monkeypatch.setattr(sr.spectral, "spectral_radius", counting)
        sr.relaxed_max_tilde(inst)
        assert not calls  # the radii are computed lazily
        sr.objective_bounds(inst)
        sr.uniform_sir_power(inst)
        sr.default_cap_index(inst)
        sr.build_polytope(inst, grid=2)
        assert len(calls) == inst.users
        assert_allclose(der.radii, [original(B_l) for B_l in der.B], rtol=0, atol=0)


class TestTildeRelaxation:
    def test_reference_instance_certified(self, e1):
        sol = sr.relaxed_max_tilde(e1)
        assert_allclose(sol.gamma_star, [5.0, 5.0], atol=1e-9)
        assert_allclose(sol.relaxed_value, math.log(5.0), atol=1e-10)
        assert sol.lifted_power is not None
        assert_allclose(sol.lifted_power, [1.0, 1.0], atol=1e-9)
        assert sol.certified_global
        lifted_value = sr.objective(e1.weights, sr.sir_of_power(e1, sol.lifted_power))
        oracle = sr.oracle_grid(e1, 201, refine=True)
        assert_allclose(lifted_value, oracle.best_value, atol=1e-9)

    def test_certificate_invariants(self, e1):
        sol = sr.relaxed_max_tilde(e1)
        assert abs(sol.certificate.rho - 1.0) <= 1e-8
        assert np.max(np.abs(sol.certificate.weights() - e1.weights)) <= 1e-7

    def test_asymmetric_weights_solvable(self, e1):
        sol = sr.relaxed_max_tilde(e1, weights=[0.7, 0.3])
        scaled = sol.gamma_star[:, None] * sr.derive_matrices(e1).F_tilde
        assert np.max(np.abs(sr.perron_pair(scaled).weights() - [0.7, 0.3])) <= 1e-7

    @pytest.mark.parametrize("seed", range(8))
    def test_dominates_feasible_log_values(self, seed):
        rng = np.random.default_rng(700 + seed)
        inst = random_instance(seed, users=2 + seed % 3)
        der = sr.derive_matrices(inst)
        sol = sr.relaxed_max_tilde(inst)
        for _ in range(20):
            gamma = rng.uniform(0.05, 1.0, inst.users) * der.gamma_bar
            rho = sr.spectral_radius(gamma[:, None] * der.F_tilde)
            gamma = gamma * rng.uniform(0.2, 1.0) / rho  # random feasible point
            assert sr.objective_log(inst.weights, gamma) <= sol.relaxed_value + 1e-9


class TestNoiselessRelaxation:
    def test_reference_instance(self, e1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sol = sr.relaxed_max_noiseless(e1)
        assert_allclose(sol.gamma_star, [10.0, 10.0], atol=1e-8)
        assert_allclose(sol.relaxed_value, math.log(10.0), atol=1e-10)
        assert sol.lifted_power is None  # noise-free point sits on the F surface

    def test_two_user_unbalanced_weights_infeasible(self, e1):
        with pytest.raises(InfeasibleWeightError):
            sr.relaxed_max_noiseless(e1, weights=[0.7, 0.3])

    def test_relaxation_chain_on_reference(self, e1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            noiseless = sr.relaxed_max_noiseless(e1)
        tilde = sr.relaxed_max_tilde(e1)
        oracle_log = sr.objective_log(
            e1.weights, sr.sir_of_power(e1, sr.oracle_grid(e1, 201).best_power)
        )
        assert noiseless.relaxed_value >= tilde.relaxed_value - 1e-9
        assert tilde.relaxed_value >= oracle_log - 1e-9

    def test_cap_variant_pins_nominated_cap(self, e1):
        sol = sr.relaxed_max_noiseless(e1, weights=[0.7, 0.3], cap_index=0)
        assert sol.lifted_power is not None
        assert_allclose(sol.lifted_power[0], e1.caps[0], atol=1e-9)
        scaled = sol.gamma_star[:, None] * sr.derive_matrices(e1).B[0]
        assert abs(sr.spectral_radius(scaled) - 1.0) <= 1e-8

    def test_default_cap_index_is_largest_radius(self):
        inst = random_instance(17, users=3)
        der = sr.derive_matrices(inst)
        radii = [sr.spectral_radius(B_l) for B_l in der.B]
        assert sr.default_cap_index(inst) == int(np.argmax(radii))

    def test_cap_index_range_checked(self, e1):
        with pytest.raises(ValueError):
            sr.relaxed_max_noiseless(e1, cap_index=5)

    @pytest.mark.parametrize("seed", range(8))
    def test_ordering_invariant(self, seed):
        rng = np.random.default_rng(800 + seed)
        users = 2 + seed % 5  # L in 2..6
        inst = random_instance(seed + 30, users=users)
        if users == 2:
            w = np.array([0.5, 0.5])
            ctx = pytest.warns(RuntimeWarning)
        else:
            w = majorization_weights(rng, users)
            ctx = warnings.catch_warnings()
        with ctx:
            if users > 2:
                warnings.simplefilter("ignore", RuntimeWarning)
            noiseless = sr.relaxed_max_noiseless(inst, weights=w)
        tilde = sr.relaxed_max_tilde(inst, weights=w)
        assert noiseless.relaxed_value >= tilde.relaxed_value - 1e-8
        # each value re-verified against its own certificate
        for sol in (noiseless, tilde):
            assert_allclose(
                sol.relaxed_value,
                sr.objective_log(w, sol.gamma_star),
                atol=1e-12,
            )
            assert abs(sol.certificate.rho - 1.0) <= 1e-8
            assert np.max(np.abs(sol.certificate.weights() - w)) <= 1e-7


class TestSandwich:
    @pytest.mark.parametrize("seed", range(5))
    def test_solver_value_between_bounds(self, seed):
        inst = random_instance(seed + 200, users=2)
        bounds = sr.objective_bounds(inst)
        report = sr.solve_gradient_multistart(inst, starts=8, seed=seed)
        assert bounds.lower - 1e-9 <= report.objective_value <= bounds.upper + 1e-9
