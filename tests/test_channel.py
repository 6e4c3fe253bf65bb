import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sumrate as sr
from sumrate.exceptions import InfeasibleSirError
from conftest import random_instance


class TestInstanceValidation:
    def test_single_user_rejected(self):
        with pytest.raises(ValueError, match="two users"):
            sr.ChannelInstance(gains=[[1.0]], noise=[0.1], caps=[1.0], weights=[1.0])

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ValueError):
            sr.ChannelInstance(
                gains=[[1.0, 0.0], [0.1, 1.0]], noise=[0.1, 0.1],
                caps=[1.0, 1.0], weights=[0.5, 0.5],
            )

    def test_weights_must_be_probability(self):
        with pytest.raises(ValueError):
            sr.ChannelInstance(
                gains=[[1, 0.1], [0.1, 1]], noise=[0.1, 0.1],
                caps=[1, 1], weights=[0.5, 0.6],
            )

    def test_snr_gap_below_one_rejected(self):
        with pytest.raises(ValueError):
            sr.ChannelInstance(
                gains=[[1, 0.1], [0.1, 1]], noise=[0.1, 0.1],
                caps=[1, 1], weights=[0.5, 0.5], snr_gap=0.5,
            )

    def test_arrays_frozen(self, e1):
        with pytest.raises(ValueError):
            e1.gains[0, 0] = 2.0


class TestDeriveMatrices:
    def test_reference_instance(self, e1):
        der = sr.derive_matrices(e1)
        assert_allclose(der.F, [[0.0, 0.1], [0.1, 0.0]])
        assert_allclose(der.v, [0.1, 0.1])
        assert_allclose(der.F_tilde, np.full((2, 2), 0.1))
        assert_allclose(der.gamma_bar, [10.0, 10.0])
        assert_allclose(der.B[0], [[0.1, 0.1], [0.2, 0.0]])
        assert_allclose(sr.spectral_radius(der.B[0]), 0.2, atol=1e-14)
        assert_allclose(sr.spectral_radius(der.B[1]), 0.2, atol=1e-14)

    def test_snr_gap_absorption(self, e1):
        gapped = sr.ChannelInstance(
            gains=e1.gains, noise=e1.noise, caps=e1.caps,
            weights=e1.weights, snr_gap=2.0,
        )
        der1 = sr.derive_matrices(e1)
        der2 = sr.derive_matrices(gapped)
        assert_allclose(der2.v, 2.0 * der1.v)
        assert_allclose(der2.gamma_bar, der1.gamma_bar / 2.0)
        off = ~np.eye(2, dtype=bool)
        assert_allclose(der2.F[off], 2.0 * der1.F[off])

    def test_cached_per_instance(self, e1):
        assert sr.derive_matrices(e1) is sr.derive_matrices(e1)


class TestSirPowerMaps:
    def test_zero_power(self, e1):
        assert_allclose(sr.sir_of_power(e1, [0.0, 0.0]), [0.0, 0.0])
        assert_allclose(sr.power_of_sir(e1, [0.0, 0.0]), [0.0, 0.0])

    def test_reference_point(self, e1):
        assert_allclose(sr.sir_of_power(e1, [1.0, 1.0]), [5.0, 5.0])
        assert_allclose(sr.power_of_sir(e1, [5.0, 5.0]), [1.0, 1.0], atol=1e-14)

    def test_single_user_at_cap_meets_ceiling(self, e1):
        der = sr.derive_matrices(e1)
        for l in range(2):
            p = np.zeros(2)
            p[l] = e1.caps[l]
            assert_allclose(sr.sir_of_power(e1, p)[l], der.gamma_bar[l])

    def test_infeasible_sir_carries_radius(self, e1):
        with pytest.raises(InfeasibleSirError) as exc:
            sr.power_of_sir(e1, [11.0, 11.0])
        assert_allclose(exc.value.radius, 1.1, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trips(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(seed, users=2 + seed % 5)
        p = rng.uniform(0.0, 1.0, inst.users) * inst.caps
        assert np.max(np.abs(sr.power_of_sir(inst, sr.sir_of_power(inst, p)) - p)) <= 1e-9
        gamma = sr.sir_of_power(inst, p) * rng.uniform(0.2, 1.0, inst.users)
        back = sr.sir_of_power(inst, sr.power_of_sir(inst, gamma))
        assert np.max(np.abs(back - gamma)) <= 1e-9

    def test_power_map_monotonicity(self):
        rng = np.random.default_rng(11)
        inst = random_instance(3, users=3)
        gamma1 = sr.sir_of_power(inst, rng.uniform(0.2, 1.0, 3) * inst.caps)
        gamma2 = gamma1 * rng.uniform(0.3, 1.0, 3)
        assert np.all(sr.power_of_sir(inst, gamma1) >= sr.power_of_sir(inst, gamma2))

    def test_sir_map_not_monotone(self, e1):
        base = sr.sir_of_power(e1, [0.5, 0.5])
        bumped = sr.sir_of_power(e1, [0.7, 0.5])
        assert bumped[0] > base[0]
        assert bumped[1] < base[1]

    @pytest.mark.parametrize("seed", range(6))
    def test_sir_cap(self, seed):
        rng = np.random.default_rng(40 + seed)
        inst = random_instance(seed + 20, users=2 + seed % 4)
        der = sr.derive_matrices(inst)
        p = rng.uniform(0.0, 1.0, inst.users) * inst.caps
        assert np.all(sr.sir_of_power(inst, p) <= der.gamma_bar + 1e-12)


class TestRegionMembership:
    def test_reference_active_set(self, e1):
        check = sr.in_achievable_region(e1, [5.0, 5.0])
        assert check.inside
        assert check.active == (0, 1)
        assert_allclose(check.radii, [1.0, 1.0], atol=1e-12)

    def test_zero_sir(self, e1):
        check = sr.in_achievable_region(e1, [0.0, 0.0])
        assert check.inside and check.active == ()

    def test_outside(self, e1):
        assert not sr.in_achievable_region(e1, [10.0, 10.0]).inside

    @pytest.mark.parametrize("seed", range(8))
    def test_box_image_equivalence(self, seed):
        rng = np.random.default_rng(60 + seed)
        inst = random_instance(seed + 50, users=2 + seed % 4)
        p = rng.uniform(0.0, 1.0, inst.users) * inst.caps
        capped = rng.uniform(0.0, 1.0, inst.users) < 0.4
        p[capped] = inst.caps[capped]
        check = sr.in_achievable_region(inst, sr.sir_of_power(inst, p))
        assert check.inside
        assert check.active == tuple(np.flatnonzero(capped))


class TestRelaxationContainment:
    @pytest.mark.parametrize("seed", range(6))
    def test_cap_aware_radius_bounded(self, seed):
        rng = np.random.default_rng(80 + seed)
        inst = random_instance(seed + 70, users=2 + seed % 4)
        der = sr.derive_matrices(inst)
        p = rng.uniform(0.0, 1.0, inst.users) * inst.caps
        gamma = sr.sir_of_power(inst, p)
        assert sr.spectral_radius(gamma[:, None] * der.F_tilde) <= 1.0 + 1e-9

    def test_equality_at_full_caps(self, e1):
        der = sr.derive_matrices(e1)
        gamma = sr.sir_of_power(e1, e1.caps)
        assert_allclose(
            sr.spectral_radius(gamma[:, None] * der.F_tilde), 1.0, atol=1e-8
        )


class TestObjectives:
    def test_zero(self):
        assert sr.objective([0.5, 0.5], [0.0, 0.0]) == 0.0

    def test_reference_values(self):
        assert_allclose(sr.objective([0.5, 0.5], [5.0, 5.0]), math.log(6.0))
        assert_allclose(sr.objective_log([0.5, 0.5], [5.0, 5.0]), math.log(5.0))

    def test_log_variant_below(self):
        rng = np.random.default_rng(9)
        w = np.array([0.3, 0.7])
        gamma = rng.uniform(0.1, 8.0, 2)
        assert sr.objective_log(w, gamma) < sr.objective(w, gamma)

    def test_log_variant_requires_positive(self):
        with pytest.raises(ValueError):
            sr.objective_log([0.5, 0.5], [1.0, 0.0])


class TestGradient:
    def test_reference_point(self, e1):
        grad = sr.objective_gradient_p(e1, [1.0, 1.0])
        assert_allclose(grad, [2.5 / 12.0, 2.5 / 12.0], atol=1e-14)

    def test_near_interference_free_limit(self):
        inst = sr.ChannelInstance(
            gains=[[1.0, 1e-12], [1e-12, 1.0]], noise=[0.2, 0.4],
            caps=[1.0, 1.0], weights=[0.5, 0.5],
        )
        p = np.array([0.3, 0.6])
        gamma = p / inst.noise
        expected = inst.weights / (1.0 + gamma) / inst.noise
        assert_allclose(sr.objective_gradient_p(inst, p), expected, rtol=1e-9)

    def test_single_weight_pushes_own_power(self):
        inst = sr.ChannelInstance(
            gains=[[1, 0.2], [0.2, 1]], noise=[0.1, 0.1],
            caps=[1, 1], weights=[0.0, 1.0],
        )
        grad = sr.objective_gradient_p(inst, [0.5, 0.01])
        assert grad[1] > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(120 + seed)
        inst = random_instance(seed + 90, users=2 + seed % 4)
        p = rng.uniform(0.1, 0.9, inst.users) * inst.caps
        grad = sr.objective_gradient_p(inst, p)
        fd = np.zeros_like(p)
        for i in range(inst.users):
            h = 1e-6 * inst.caps[i]
            up, dn = p.copy(), p.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (
                sr.objective(inst.weights, sr.sir_of_power(inst, up))
                - sr.objective(inst.weights, sr.sir_of_power(inst, dn))
            ) / (2 * h)
        assert np.max(np.abs(grad - fd)) <= 1e-5 * max(1e-12, np.max(np.abs(fd)))
