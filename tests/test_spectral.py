import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sumrate as sr
from sumrate.exceptions import (
    ConvergenceError,
    InfeasibleWeightError,
    ReducibleMatrixError,
)
from conftest import random_irreducible

EXCHANGE = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestSpectralRadius:
    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_zero_matrix(self, n):
        assert sr.spectral_radius(np.zeros((n, n))) == 0.0

    def test_two_cycle(self):
        a, b = 0.7, 1.3
        assert_allclose(sr.spectral_radius([[0, a], [b, 0]]), math.sqrt(a * b))

    def test_hand_solved_quadratic(self):
        # char poly x^2 - 0.1 x - 0.02 has roots 0.2 and -0.1
        assert_allclose(sr.spectral_radius([[0.1, 0.1], [0.2, 0.0]]), 0.2, atol=1e-14)

    def test_zero_row_reduction_matches_submatrix(self):
        A = np.array([[0.0, 0.0, 0.0], [0.3, 0.5, 0.2], [0.1, 0.4, 0.6]])
        assert_allclose(sr.spectral_radius(A), sr.spectral_radius(A[1:, 1:]))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sr.spectral_radius(np.ones((2, 3)))
        with pytest.raises(ValueError):
            sr.spectral_radius([[1.0, -0.1], [0.1, 1.0]])


COUPLING_BANDS = [(0.02, 0.3), (1e-4, 1e-3), (1e-6, 1e-5), (0.1, 1.0), (0.5, 2.0)]


def _eigvals_radii(der):
    return np.array([sr.spectral_radius(B_l) for B_l in der.B])


@pytest.fixture
def fallbacks(monkeypatch):
    """Records every spectral_radius call made from inside the module."""
    calls = []
    monkeypatch.setattr(
        sr.spectral,
        "spectral_radius",
        _recording(calls, "fallback", sr.spectral.spectral_radius),
    )
    return calls


class TestConstraintRadii:
    @pytest.mark.parametrize("users", [2, 3, 8, 32, 96])
    @pytest.mark.parametrize("cross", COUPLING_BANDS)
    def test_matches_eigvals_without_fallback(self, fallbacks, users, cross):
        der = sr.derive_matrices(
            sr.generate_instance(users, seed=users, cross_range=cross).to_instance()
        )
        expected = _eigvals_radii(der)
        radii = sr.constraint_radii(der.F, der.v, der.caps)
        assert not fallbacks  # every radius certified by its bracket
        assert_allclose(radii, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", range(3))
    def test_roots_next_to_the_pole_without_fallback(self, fallbacks, seed):
        # near-zero noise puts every root within rounding of rho(F), where
        # Newton leaves the bracket and the bisection steps take over
        sc = sr.generate_instance(4, seed=seed, cross_range=(0.1, 1.0))
        sc.noise[:] = 1e-16
        der = sr.derive_matrices(sc.to_instance())
        expected = _eigvals_radii(der)
        radii = sr.constraint_radii(der.F, der.v, der.caps)
        assert not fallbacks
        assert_allclose(radii, expected, rtol=1e-12, atol=0)

    def test_reference_instance(self, e1):
        der = sr.derive_matrices(e1)
        assert_allclose(sr.constraint_radii(der.F, der.v, der.caps), 0.2, atol=1e-14)

    def test_badly_scaled_against_high_precision_reference(self):
        gains = [[1.0, 1e8, 1e-3], [1e-8, 1.0, 1e-3], [1e-3, 1e-3, 1.0]]
        inst = sr.ChannelInstance(
            gains=gains, noise=[0.1] * 3, caps=[1.0] * 3, weights=[1 / 3] * 3
        )
        der = sr.derive_matrices(inst)
        # 50-digit roots of det(lam I - B[l]), rounded to double
        reference = [3162.3283236855146, 4.7474865163751788, 21.664684440068189]
        assert_allclose(
            sr.constraint_radii(der.F, der.v, der.caps), reference, rtol=1e-12, atol=0
        )

    def test_wrong_eigenvectors_fall_back_to_eigvals(self, monkeypatch, fallbacks):
        der = sr.derive_matrices(sr.generate_instance(5, seed=3).to_instance())
        expected = _eigvals_radii(der)
        eig = np.linalg.eig

        def wrong_vectors(A):
            values, vectors = eig(A)
            return values, vectors[:, ::-1]

        monkeypatch.setattr(np.linalg, "eig", wrong_vectors)
        radii = sr.constraint_radii(der.F, der.v, der.caps)
        assert len(fallbacks) == 5
        assert np.array_equal(radii, expected)

    def test_defective_matrix_falls_back(self):
        # a nilpotent Jordan block has no eigenvector basis
        F = np.array([[0.0, 1.0], [0.0, 0.0]])
        radii = sr.constraint_radii(F, [1.0, 1.0], [1.0, 1.0])
        assert_allclose(radii, [(1 + math.sqrt(5)) / 2, 1.0], rtol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sr.constraint_radii(np.zeros((2, 2)), [1.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            sr.constraint_radii(np.zeros((2, 2)), [1.0, 1.0], [1.0])


class TestPerronPair:
    def test_exchange_matrix(self):
        pair = sr.perron_pair(EXCHANGE)
        assert_allclose(pair.rho, 1.0, atol=1e-12)
        assert_allclose(pair.weights(), [0.5, 0.5], atol=1e-12)

    def test_identity_rejected_as_reducible(self):
        with pytest.raises(ReducibleMatrixError):
            sr.perron_pair(np.eye(2))

    def test_doubly_stochastic(self):
        pair = sr.perron_pair(np.full((2, 2), 0.5))
        assert_allclose(pair.rho, 1.0, atol=1e-12)
        assert_allclose(pair.weights(), [0.5, 0.5], atol=1e-12)

    def test_periodic_asymmetric_converges(self):
        # eigenvalues +2 and -2 share the spectral radius; the Perron root is +2
        pair = sr.perron_pair([[0.0, 4.0], [1.0, 0.0]])
        assert_allclose(pair.rho, 2.0, atol=1e-11)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_residuals_and_radius_consistency(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        A = random_irreducible(rng, n, zero_diagonal=bool(seed % 2))
        _assert_residuals_and_radius(A, sr.perron_pair(A))

    @pytest.mark.parametrize(
        "users, seed, cross", [(4, 2, (1e-4, 1e-3)), (3, 0, (1e-6, 1e-5))]
    )
    def test_weakly_coupled_scaled_constraint_matrix(self, users, seed, cross):
        # diag(gamma*) B[l] at the binding-cap relaxation once stalled the pair
        inst = sr.generate_instance(users, seed=seed, cross_range=cross).to_instance()
        l = sr.default_cap_index(inst)
        sol = sr.relaxed_max_noiseless(inst, cap_index=l)
        A = sol.gamma_star[:, None] * sr.derive_matrices(inst).B[l]
        _assert_residuals_and_radius(A, sr.perron_pair(A))


def _one_matrix_perron(A):
    """``(rho, right, left)`` of a single matrix by one ``eig`` and 1-D
    products, both vectors at unit max entry: the arithmetic every row of
    the stacked kernel must reproduce bit for bit."""
    values, V = np.linalg.eig(A)
    k = int(np.argmax(values.real))
    x = np.abs(V[:, k].real)
    y = np.abs(np.linalg.solve(V.T, np.eye(len(values))[k]).real)
    x /= x.max()
    y /= y.max()
    return float((y @ (A @ x)) / (y @ x)), x, y


class TestPerronRows:
    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_rows_byte_equal_to_one_matrix_pairs(self, n):
        rng = np.random.default_rng(2500 + n)
        A = np.array([random_irreducible(rng, n) for _ in range(32)])
        A[::2] += np.swapaxes(A[::2], 1, 2)  # symmetric: a real spectrum
        real = np.all(np.linalg.eigvals(A).imag == 0, axis=1)
        assert real.any() and not real.all()  # so the stacked eig is complex
        rows = sr.spectral._perron_rows(A)
        assert rows.certified.all()
        for i, A_i in enumerate(A):
            pair = sr.perron_pair(A_i)
            rho, x, y = _one_matrix_perron(A_i)
            assert rows.rho[i] == pair.rho == rho
            assert rows.right[i].tobytes() == pair.right.tobytes() == x.tobytes()
            assert rows.left[i].tobytes() == y.tobytes()
            assert (y / float(x @ y)).tobytes() == pair.left.tobytes()

    def test_failed_certificates_are_flagged_not_raised(self):
        rng = np.random.default_rng(25)
        # irreducible, but the right vector's last two entries round to zero
        weak = np.array([[3.0, 1.0, 1.0], [1e-200, 1.0, 1.0], [0.0, 1.0, 1.0]])
        A = np.array([random_irreducible(rng, 3), weak, random_irreducible(rng, 3)])
        rows = sr.spectral._perron_rows(A)
        assert rows.certified.tolist() == [True, False, True]
        with pytest.raises(ConvergenceError) as failure:
            sr.perron_pair(weak)
        assert failure.value.residual == rows.residual[1]


def _recording(calls, name, fn):
    def wrapper(A):
        calls.append(name)
        return fn(A)

    return wrapper


def _assert_residuals_and_radius(A, pair):
    scale = max(1.0, pair.rho)
    assert np.max(np.abs(A @ pair.right - pair.rho * pair.right)) <= 1e-10 * scale
    assert np.max(np.abs(pair.left @ A - pair.rho * pair.left)) <= 1e-10 * scale
    assert_allclose(pair.weights().sum(), 1.0, atol=1e-12)
    assert abs(pair.rho - sr.spectral_radius(A)) <= 1e-10 * scale
    assert np.all(pair.right > 0) and np.all(pair.left > 0)


class TestScalingLowerBound:
    def test_constant_gamma_is_tight(self):
        rng = np.random.default_rng(0)
        A = random_irreducible(rng, 4)
        for c in (0.3, 1.0, 2.5):
            bound = sr.fk_scaling_lower_bound(A, np.full(4, c))
            assert_allclose(bound, sr.spectral_radius(c * A), atol=1e-10)

    def test_hand_example(self):
        # weights (1/2,1/2): bound = 1 * 4^(1/2) * 1^(1/2) = 2 = rho(diag(4,1)A)
        assert_allclose(sr.fk_scaling_lower_bound(EXCHANGE, [4.0, 1.0]), 2.0)
        assert_allclose(sr.spectral_radius(np.diag([4.0, 1.0]) @ EXCHANGE), 2.0)

    def test_zero_entry_annihilates(self):
        assert sr.fk_scaling_lower_bound(EXCHANGE, [0.0, 5.0]) == 0.0

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            sr.fk_scaling_lower_bound(EXCHANGE, [-1.0, 1.0])

    @pytest.mark.parametrize("seed", range(10))
    def test_never_violated(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 9))
        A = random_irreducible(rng, n, zero_diagonal=bool(seed % 2))
        gamma = rng.uniform(0.05, 3.0, n)
        bound = sr.fk_scaling_lower_bound(A, gamma)
        assert bound <= sr.spectral_radius(gamma[:, None] * A) + 1e-10


class TestZUpperBound:
    def test_eigenvector_is_tight(self):
        rng = np.random.default_rng(1)
        A = random_irreducible(rng, 5)
        pair = sr.perron_pair(A)
        assert_allclose(sr.fk_z_upper_bound(A, pair.right), pair.rho, atol=1e-10)
        assert_allclose(sr.fk_z_upper_bound(A, 3.0 * pair.right), pair.rho, atol=1e-10)

    def test_zero_diagonal_equality_without_eigenvector(self):
        # positive diagonal is required for "equality only at the eigenvector"
        assert_allclose(sr.fk_z_upper_bound(EXCHANGE, [2.0, 1.0]), 1.0, atol=1e-12)

    def test_hand_example_positive_matrix(self):
        value = sr.fk_z_upper_bound(np.ones((2, 2)), [2.0, 1.0])
        assert_allclose(value, math.sqrt(4.5), atol=1e-12)
        assert value > 2.0

    @pytest.mark.parametrize("seed", range(10))
    def test_never_violated_and_strict_off_eigenvector(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 9))
        A = random_irreducible(rng, n)  # positive diagonal
        z = rng.uniform(0.1, 2.0, n)
        rho = sr.spectral_radius(A)
        assert sr.fk_z_upper_bound(A, z) >= rho - 1e-10
        pair = sr.perron_pair(A)
        off = pair.right * (1.0 + rng.uniform(0.3, 0.8, n))
        assert sr.fk_z_upper_bound(A, off) > rho + 1e-8


class TestSupportingHyperplane:
    def test_symmetric_anchor(self):
        hp = sr.supporting_hyperplane(EXCHANGE, [0.0, 0.0])
        assert_allclose(hp.normal, [0.5, 0.5], atol=1e-12)
        assert hp.evaluate([0.0, 0.0]) == 0.0
        assert_allclose(hp.evaluate([1.0, 3.0]), 2.0)

    def test_hand_scaled_anchor(self):
        B = np.array([[0.1, 0.1], [0.2, 0.0]])
        eta = np.log([5.0, 5.0])  # rho(B) = 0.2, so uniform scale 5 anchors it
        hp = sr.supporting_hyperplane(B, eta)
        assert_allclose(hp.normal.sum(), 1.0, atol=1e-12)
        assert_allclose(hp.normal, [2.0 / 3.0, 1.0 / 3.0], atol=1e-10)
        assert abs(hp.evaluate(eta)) <= 1e-15

    def test_off_surface_anchor_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            sr.supporting_hyperplane(EXCHANGE, [0.5, 0.0])

    def test_one_perron_pair_and_no_radius(self, monkeypatch):
        calls = []
        for name in ("perron_pair", "spectral_radius"):
            monkeypatch.setattr(
                sr.spectral, name, _recording(calls, name, getattr(sr.spectral, name))
            )
        sr.supporting_hyperplane([[0.1, 0.1], [0.2, 0.0]], np.log([5.0, 5.0]))
        assert calls == ["perron_pair"]

    @pytest.mark.parametrize("seed", range(6))
    def test_tangency(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 6))
        B = random_irreducible(rng, n, zero_diagonal=True)
        eta = rng.normal(0.0, 0.5, n)
        eta -= math.log(sr.spectral_radius(np.exp(eta)[:, None] * B))
        hp = sr.supporting_hyperplane(B, eta)
        for _ in range(100):
            xi = eta + rng.normal(0.0, 0.7, n)
            surface = math.log(sr.spectral_radius(np.exp(xi)[:, None] * B))
            assert hp.evaluate(xi) <= surface + 1e-9


class TestDiagonalScaling:
    def test_hand_example(self):
        pair = sr.diagonal_scaling(np.ones((2, 2)), [1.0, 1.0], [0.5, 0.5])
        assert_allclose(pair.d1, np.full(2, 1.0 / math.sqrt(2.0)), atol=1e-10)
        assert_allclose(pair.d2, np.full(2, 1.0 / math.sqrt(2.0)), atol=1e-10)

    def test_zero_diagonal_boundary_succeeds_with_warning(self):
        # the 2x2 zero-diagonal pattern attains (1/2, 1/2) exactly, silently
        pair = sr.diagonal_scaling(EXCHANGE, [1.0, 1.0], [0.5, 0.5])
        scaled = pair.d1[:, None] * EXCHANGE * pair.d2[None, :]
        assert_allclose(scaled @ [1.0, 1.0], [1.0, 1.0], atol=1e-9)

    def test_one_zero_diagonal_entry_boundary_infeasible(self):
        # only the 2x2 zero-diagonal pattern attains a weight of exactly 1/2
        with pytest.raises(InfeasibleWeightError) as exc:
            sr.diagonal_scaling([[0.1, 0.1], [0.2, 0.0]], [1.0, 1.0], [0.5, 0.5])
        assert exc.value.index == 1

    def test_unbalanced_weights_infeasible(self):
        with pytest.raises(InfeasibleWeightError) as exc:
            sr.diagonal_scaling(EXCHANGE, [1.0, 1.0], [0.8, 0.2])
        assert exc.value.index == 0

    def test_gauge_is_pinned(self):
        rng = np.random.default_rng(2)
        A = random_irreducible(rng, 4)
        u = rng.uniform(0.5, 2.0, 4)
        v = rng.uniform(0.5, 2.0, 4)
        pair = sr.diagonal_scaling(A, u, v)
        assert_allclose(pair.d1.max(), pair.d2.max(), rtol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_residuals(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(2, 9))
        A = random_irreducible(rng, n)
        u = rng.uniform(0.5, 2.0, n)
        v = rng.uniform(0.5, 2.0, n)
        pair = sr.diagonal_scaling(A, u, v)
        scaled = pair.d1[:, None] * A * pair.d2[None, :]
        assert np.max(np.abs(scaled @ u - u)) <= 1e-8
        assert np.max(np.abs(v @ scaled - v)) <= 1e-8


class TestInverseWeight:
    def test_hand_example(self):
        eta, _ = sr.inverse_weight(np.full((2, 2), 0.1), [0.5, 0.5])
        assert_allclose(eta, np.log([5.0, 5.0]), atol=1e-10)

    def test_exchange_identity(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            eta, _ = sr.inverse_weight(EXCHANGE, [0.5, 0.5])
        assert_allclose(eta, [0.0, 0.0], atol=1e-10)

    def test_exchange_unbalanced_infeasible(self):
        with pytest.raises(InfeasibleWeightError):
            sr.inverse_weight(EXCHANGE, [0.9, 0.1])

    @pytest.mark.parametrize("w", [[0.6, 0.4, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    def test_zero_weight_infeasible_at_first_zero(self, w):
        # Perron products of an irreducible matrix are entrywise positive
        with pytest.raises(InfeasibleWeightError, match="index") as info:
            sr.inverse_weight(np.full((3, 3), 0.2) + np.eye(3), w)
        assert info.value.index == w.index(0.0)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to one"):
            sr.inverse_weight(np.ones((2, 2)), [0.5, 0.6])

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_and_gauge(self, seed):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(2, 9))
        B = random_irreducible(rng, n)
        u = rng.uniform(0.2, 1.0, n)
        w = u / u.sum()
        eta, _ = sr.inverse_weight(B, w)
        scaled = np.exp(eta)[:, None] * B
        assert abs(sr.spectral_radius(scaled) - 1.0) <= 1e-10
        assert np.max(np.abs(sr.perron_pair(scaled).weights() - w)) <= 1e-7


def test_is_irreducible():
    assert sr.is_irreducible(EXCHANGE)
    assert not sr.is_irreducible(np.eye(3))
    assert not sr.is_irreducible(np.triu(np.ones((3, 3))))
    assert sr.is_irreducible([[0.5]])
    assert not sr.is_irreducible([[0.0]])
