import numpy as np
import pytest
from numpy.testing import assert_allclose

from sumrate.simplex import SimplexError, simplex_max


def test_textbook_lp():
    # max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), value 36
    c = [3.0, 5.0]
    A = [[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]]
    b = [4.0, 12.0, 18.0]
    x, value = simplex_max(c, A, b, 0.0, np.inf)
    assert_allclose(x, [2.0, 6.0], atol=1e-9)
    assert_allclose(value, 36.0, atol=1e-9)


def test_zero_objective_returns_origin():
    x, value = simplex_max([0.0, 0.0], [[1.0, 1.0]], [2.0], 0.0, np.inf)
    assert_allclose(x, [0.0, 0.0])
    assert value == 0.0


def test_box_corner():
    x, value = simplex_max([1.0, 2.0, 3.0], np.eye(3), [1.0, 2.0, 3.0], 0.0, np.inf)
    assert_allclose(x, [1.0, 2.0, 3.0], atol=1e-12)
    assert_allclose(value, 14.0)


def test_unbounded_detected():
    with pytest.raises(SimplexError, match="unbounded"):
        simplex_max([1.0, 0.0], [[0.0, 1.0]], [1.0], 0.0, np.inf)


def test_negative_rhs_rejected():
    # b < 0 leaves the lower corner x = 0 infeasible
    with pytest.raises(ValueError, match="lower corner"):
        simplex_max([1.0], [[1.0]], [-1.0], 0.0, np.inf)


def test_degenerate_ties_deterministic():
    # several constraints through the same vertex; Bland keeps it stable
    c = [1.0, 1.0]
    A = [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [0.0, 1.0]]
    b = [1.0, 2.0, 3.0, 1.0]
    results = {tuple(simplex_max(c, A, b, 0.0, np.inf)[0]) for _ in range(5)}
    assert len(results) == 1
    assert_allclose(simplex_max(c, A, b, 0.0, np.inf)[1], 2.0, atol=1e-9)


def test_constraints_respected_on_random_lps():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 8))
        A = rng.uniform(0.0, 1.0, (m, n))
        b = rng.uniform(0.5, 2.0, m)
        c = rng.uniform(-1.0, 1.0, n)
        A_full = np.vstack([A, np.eye(n)])
        b_full = np.concatenate([b, np.full(n, 5.0)])  # box keeps it bounded
        x, value = simplex_max(c, A_full, b_full, 0.0, np.inf)
        assert np.all(x >= -1e-9)
        assert np.all(A_full @ x <= b_full + 1e-9)
        assert_allclose(value, c @ x, atol=1e-9)
