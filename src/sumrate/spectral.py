"""Dense spectral primitives for nonnegative matrices.

Everything in this module operates on small dense square matrices with
nonnegative entries: the spectral radius, Perron eigenvector pairs, the
classical product bounds on the spectral radius of diagonally scaled
matrices, supporting hyperplanes of the log-convex level set
``log rho(diag(exp(xi)) B) <= 0``, and two-sided diagonal scalings with
prescribed fixed vectors (Sinkhorn-style alternating iteration).

Normalization conventions, chosen so outputs are deterministic:

* Perron pairs are scaled so the right vector has unit max entry and the
  elementwise product ``right * left`` sums to one (a probability vector).
* Diagonal scaling pairs fix the ``(t*d1, d2/t)`` gauge by ``max(d1) == max(d2)``.
* Log-scalings returned by :func:`inverse_weight` pin the additive gauge by
  forcing the scaled matrix to have unit spectral radius.

All functions are pure; inputs are never mutated.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, InfeasibleWeightError, ReducibleMatrixError

__all__ = [
    "PerronPair",
    "Hyperplane",
    "ScalingPair",
    "spectral_radius",
    "perron_pair",
    "is_irreducible",
    "fk_scaling_lower_bound",
    "fk_z_upper_bound",
    "supporting_hyperplane",
    "diagonal_scaling",
    "inverse_weight",
]

POWER_TOL = 1e-12
POWER_MAX_ITER = 100_000
SCALING_TOL = 1e-10
SCALING_MAX_SWEEPS = 10_000
MAJORIZATION_SLACK = 1e-12
ANCHOR_TOL = 1e-8
WEIGHT_VERIFY_TOL = 1e-7


def _check_matrix(A, name="matrix") -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be a square 2-D array, got shape {A.shape}")
    if A.shape[0] < 1:
        raise ValueError(f"{name} must have order >= 1")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} must have finite entries")
    if np.any(A < 0):
        raise ValueError(f"{name} must be entrywise nonnegative")
    return A


def _checked(x, shape, name, *, positive=True) -> np.ndarray:
    """``x`` as a finite float array of ``shape``, entrywise positive (or
    nonnegative with ``positive=False``). A vector shape ``(n,)`` accepts any
    input holding n entries."""
    x = np.asarray(x, dtype=float)
    if len(shape) == 1:
        x = x.reshape(-1)
    if x.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got shape {x.shape}")
    if not np.all(np.isfinite(x)) or np.any(x <= 0 if positive else x < 0):
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be entrywise {sign} and finite")
    return x


def _frozen(a) -> np.ndarray:
    """Read-only float copy of ``a``."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _freeze(obj, *fields) -> None:
    """Replace array fields of a frozen dataclass by read-only copies."""
    for field in fields:
        value = getattr(obj, field)
        if value is not None:
            object.__setattr__(obj, field, _frozen(value))


def is_irreducible(A) -> bool:
    """True iff the positivity pattern of ``A`` is strongly connected."""
    A = _check_matrix(A)
    n = A.shape[0]
    if n == 1:
        return bool(A[0, 0] > 0)
    # boolean transitive closure by repeated squaring (0/1 floats keep sums exact)
    reach = ((A > 0) | np.eye(n, dtype=bool)).astype(float)
    for _ in range(int(math.ceil(math.log2(n))) + 1):
        reach = (reach @ reach > 0).astype(float)
    return bool(np.all(reach > 0))


def spectral_radius(A) -> float:
    """Spectral radius of a nonnegative square matrix.

    Identically zero rows or columns (as produced by zeroed diagonal
    scalings) only shed zero eigenvalues, so the value equals the radius of
    the maximal principal submatrix left after deleting them.
    """
    A = _check_matrix(A)
    return float(np.max(np.abs(np.linalg.eigvals(A))))


@dataclass(frozen=True)
class PerronPair:
    """Dominant eigenvalue with positive right/left eigenvectors.

    ``right * left`` sums to one; ``right`` has unit max entry.
    """

    rho: float
    right: np.ndarray
    left: np.ndarray

    def __post_init__(self):
        _freeze(self, "right", "left")

    def weights(self) -> np.ndarray:
        """Elementwise product ``right * left`` (a probability vector)."""
        return self.right * self.left


def perron_pair(A) -> PerronPair:
    """Dominant eigenpair of an irreducible nonnegative matrix.

    Power iteration on ``A + shift*I`` with the all-ones start vector. The
    shift (the max row sum) makes the iteration matrix primitive, so the
    iteration also converges for periodic patterns such as ``[[0,a],[b,0]]``
    where the plain iteration would oscillate. Convergence requires both the
    Rayleigh quotient change (relative, ``POWER_TOL``) and the eigen-residuals
    to fall below tolerance.

    Raises
    ------
    ReducibleMatrixError
        If the positivity pattern is not strongly connected.
    ConvergenceError
        If residuals are still above tolerance after ``POWER_MAX_ITER`` steps.
    """
    A = _check_matrix(A)
    if not is_irreducible(A):
        raise ReducibleMatrixError(
            "matrix is reducible; Perron pair requires a strongly connected "
            "positivity pattern"
        )
    n = A.shape[0]
    AT = A.T.copy()
    shift = float(np.max(A.sum(axis=1)))
    scale = max(1.0, shift)
    res_tol = 1e-12 * scale

    x = np.ones(n)
    y = np.ones(n)
    rho_prev = math.inf
    rho = 0.0
    for _ in range(POWER_MAX_ITER):
        Ax = A @ x
        Ay = AT @ y
        rho = float((y @ Ax) / (y @ x))
        res = max(np.max(np.abs(Ax - rho * x)), np.max(np.abs(Ay - rho * y)))
        if res <= res_tol and abs(rho - rho_prev) <= POWER_TOL * max(1.0, abs(rho)):
            break
        rho_prev = rho
        x = Ax + shift * x
        x /= x.max()
        y = Ay + shift * y
        y /= y.max()
    else:
        raise ConvergenceError(
            f"power iteration did not converge in {POWER_MAX_ITER} iterations "
            f"(residual {res:.3e})",
            iterations=POWER_MAX_ITER,
            residual=float(res),
        )
    x = x / x.max()
    y = y / float(x @ y)
    return PerronPair(rho=rho, right=x, left=y)


def fk_scaling_lower_bound(A, gamma) -> float:
    """Product lower bound on the spectral radius of ``diag(gamma) @ A``.

    Returns ``rho(A) * prod_l gamma_l ** w_l`` with ``w = right*left`` of the
    Perron pair of ``A``; this never exceeds ``rho(diag(gamma) A)``, with
    equality for constant positive ``gamma``.
    """
    A = _check_matrix(A)
    gamma = _checked(gamma, (A.shape[0],), "gamma", positive=False)
    pair = perron_pair(A)
    if np.any(gamma == 0):
        return 0.0
    return float(pair.rho * math.exp(pair.weights() @ np.log(gamma)))


def fk_z_upper_bound(A, z) -> float:
    """Ratio upper bound ``prod_l ((A z)_l / z_l) ** w_l >= rho(A)``.

    For an irreducible matrix with positive diagonal, equality holds exactly
    when ``z`` is a positive multiple of the right Perron vector. A zero
    ``(A z)_l`` component makes the bound vacuous; ``inf`` is returned as the
    documented sentinel in that case.
    """
    A = _check_matrix(A)
    z = _checked(z, (A.shape[0],), "z")
    pair = perron_pair(A)
    Az = A @ z
    if np.any(Az <= 0):
        return math.inf
    return float(math.exp(pair.weights() @ np.log(Az / z)))


@dataclass(frozen=True)
class Hyperplane:
    """Supporting hyperplane of ``log rho(diag(exp(xi)) B) <= 0`` at ``anchor``.

    ``normal`` is the Perron weight vector (nonnegative, sums to one) and
    ``evaluate(xi) = normal @ (xi - anchor)``.
    """

    normal: np.ndarray
    anchor: np.ndarray

    def __post_init__(self):
        _freeze(self, "normal", "anchor")

    def evaluate(self, xi) -> float:
        xi = np.asarray(xi, dtype=float).reshape(-1)
        return float(self.normal @ (xi - self.anchor))


def supporting_hyperplane(B, eta) -> Hyperplane:
    """Tangent hyperplane of the unit-radius level set at anchor ``eta``.

    Requires ``rho(diag(exp(eta)) B)`` to equal one within ``ANCHOR_TOL``.
    The returned functional satisfies ``evaluate(xi) <= log rho(diag(exp(xi)) B)``
    for every ``xi``, with equality at the anchor.
    """
    B = _check_matrix(B, "B")
    eta = np.asarray(eta, dtype=float).reshape(-1)
    if eta.shape != (B.shape[0],):
        raise ValueError(f"eta must have length {B.shape[0]}")
    scaled = np.exp(eta)[:, None] * B
    rho = spectral_radius(scaled)
    if abs(rho - 1.0) > ANCHOR_TOL:
        raise ValueError(
            f"anchor is not on the unit-radius level set: measured radius {rho!r}"
        )
    pair = perron_pair(scaled)
    return Hyperplane(normal=pair.weights(), anchor=eta)


@dataclass(frozen=True)
class ScalingPair:
    """Positive diagonals ``d1, d2`` of a two-sided scaling ``D1 A D2``."""

    d1: np.ndarray
    d2: np.ndarray

    def __post_init__(self):
        _freeze(self, "d1", "d2")


def _majorization_guard(zero_diag_indices, w):
    """Reject weights that cannot be Perron products at zero-diagonal indices.

    Solvability needs the other weights to strictly out-sum ``w_l`` at every
    index ``l`` with a zero diagonal entry, i.e. ``w_l < 1/2``. Boundary
    weights (within slack of 1/2) are allowed with a warning rather than
    silently rejected: the boundary case is attainable for symmetric patterns.
    """
    for l in zero_diag_indices:
        if w[l] > 0.5 + MAJORIZATION_SLACK:
            raise InfeasibleWeightError(
                f"weight {w[l]:.6g} at index {l} violates the majorization "
                "condition (remaining weights must strictly out-sum it at every "
                "zero-diagonal index)",
                index=int(l),
            )
        if w[l] >= 0.5 - MAJORIZATION_SLACK:
            warnings.warn(
                f"weight at index {l} sits on the majorization boundary; the "
                "scaling may converge slowly or not exist",
                RuntimeWarning,
                stacklevel=3,
            )


def diagonal_scaling(A, u, v, *, d2_init=None) -> ScalingPair:
    """Find positive diagonals with ``D1 A D2 u = u`` and ``v^T D1 A D2 = v^T``.

    Alternating update: rescale rows to satisfy the right fixed-vector
    equation, then columns for the left one, until the infinity-norm
    residuals drop below ``SCALING_TOL``. The matrix must be irreducible with either
    a fully positive diagonal or fully positive off-diagonal part; in the
    latter case the normalized products ``u*v`` must satisfy the majorization
    condition at every zero-diagonal index.

    The ``(t*d1, d2/t)`` gauge is fixed by ``max(d1) == max(d2)``.
    """
    A = _check_matrix(A, "A")
    n = A.shape[0]
    u = _checked(u, (n,), "u")
    v = _checked(v, (n,), "v")
    if not is_irreducible(A):
        raise ReducibleMatrixError("diagonal scaling requires an irreducible matrix")
    diag = np.diag(A)
    off_mask = ~np.eye(n, dtype=bool)
    positive_off = bool(np.all(A[off_mask] > 0))
    positive_diag = bool(np.all(diag > 0))
    if not (positive_off or positive_diag):
        raise ValueError(
            "diagonal scaling needs a positive diagonal or positive off-diagonal part"
        )
    w = u * v
    w = w / w.sum()
    _majorization_guard(np.flatnonzero(diag == 0), w)

    if d2_init is None:
        d2 = np.ones(n)
    else:
        d2 = _checked(d2_init, (n,), "d2_init")
    d1 = np.ones(n)
    residual = math.inf
    for _ in range(SCALING_MAX_SWEEPS):
        d1 = u / (A @ (d2 * u))
        d2 = v / (A.T @ (d1 * v))
        r_right = np.max(np.abs(d1 * (A @ (d2 * u)) - u))
        r_left = np.max(np.abs(d2 * (A.T @ (d1 * v)) - v))
        residual = max(float(r_right), float(r_left))
        if residual <= SCALING_TOL:
            break
    else:
        raise ConvergenceError(
            f"alternating scaling did not reach residual {SCALING_TOL:g} in "
            f"{SCALING_MAX_SWEEPS} sweeps (residual {residual:.3e})",
            iterations=SCALING_MAX_SWEEPS,
            residual=residual,
        )
    t = math.sqrt(float(d2.max()) / float(d1.max()))
    return ScalingPair(d1=d1 * t, d2=d2 / t)


def inverse_weight(B, w, *, d2_init=None) -> np.ndarray:
    """Log-scaling ``eta`` whose scaled matrix has Perron products ``w``.

    Returns ``eta`` such that ``diag(exp(eta)) @ B`` has unit spectral radius
    and Perron weight vector ``w``. Built from :func:`diagonal_scaling` with
    ``u = 1`` and ``v = w``: the scaled matrix ``diag(d1*d2) B`` is similar to
    the row-stochastic ``D1 B D2``, and the additive gauge is pinned by
    renormalizing the radius to one. The result is re-verified with an
    independently computed Perron pair.
    """
    B = _check_matrix(B, "B")
    n = B.shape[0]
    w = _checked(w, (n,), "w")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("w must sum to one")
    w = w / w.sum()
    pair = diagonal_scaling(B, np.ones(n), w, d2_init=d2_init)
    eta = np.log(pair.d1 * pair.d2)
    eta -= math.log(spectral_radius(np.exp(eta)[:, None] * B))
    check = perron_pair(np.exp(eta)[:, None] * B)
    drift = float(np.max(np.abs(check.weights() - w)))
    if drift > WEIGHT_VERIFY_TOL:
        raise ConvergenceError(
            f"inverse weight verification failed: Perron products deviate by "
            f"{drift:.3e} from the prescribed weights",
            residual=drift,
        )
    return eta
