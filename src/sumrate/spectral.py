"""Dense spectral primitives for nonnegative matrices.

Everything in this module operates on small dense square matrices with
nonnegative entries: the spectral radius, the radii of all rank-one updates
``F + outer(v, e_l) / cap_l`` from one eigendecomposition of ``F`` (each
accepted only through its Collatz-Wielandt bracket), Perron eigenvector
pairs (one dense eigensolve, accepted only when its eigen-residuals pass), the
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
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, InfeasibleWeightError, ReducibleMatrixError

__all__ = [
    "PerronPair",
    "Hyperplane",
    "ScalingPair",
    "spectral_radius",
    "constraint_radii",
    "perron_pair",
    "is_irreducible",
    "fk_scaling_lower_bound",
    "fk_z_upper_bound",
    "supporting_hyperplane",
    "diagonal_scaling",
    "inverse_weight",
]

SCALING_TOL = 1e-10
SCALING_MAX_SWEEPS = 10_000
MAJORIZATION_SLACK = 1e-12
ANCHOR_TOL = 1e-8
WEIGHT_VERIFY_TOL = 1e-7
RADIUS_BRACKET_TOL = 1e-12
SECULAR_MAX_ITERS = 100


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


def constraint_radii(F, v, caps) -> np.ndarray:
    """Radii ``rho(F + outer(v, e_l) / caps[l])`` for every l, from one ``eig(F)``.

    Each matrix is a rank-one update of ``F``. For ``lam > rho(F)`` its
    radius is the root of the secular equation
    ``g_l(lam) = e_l.(lam I - F)^-1 v = caps[l]``; with ``F = V diag(mu) V^-1``
    and ``c = V * (V^-1 v)`` that is ``g_l(lam) = sum_k c[l, k] / (lam - mu_k)``,
    decreasing and convex. All users run safeguarded Newton on
    ``1/g_l - 1/caps[l]`` at once: started from the dominant pole's term alone,
    kept inside a bracket between ``rho(F)`` and the user's largest row sum,
    bisected whenever a step leaves it, and stopped when a step is at the
    rounding level or stops shrinking near the root.

    The iteration count decides nothing. Each root ``lam`` is accepted only
    through the Collatz-Wielandt bracket of ``x = (lam I - F)^-1 v``, which
    encloses the radius for any positive ``x``: ``x`` must be entrywise
    positive and ``max_i (B x)_i / x_i - min_i (B x)_i / x_i`` at most
    ``RADIUS_BRACKET_TOL`` times the max. The radius is the bracket's
    midpoint. Users that fail the bracket get :func:`spectral_radius` of
    their matrix.

    ``caps`` are taken as given; recovering them from the constraint matrices
    loses digits on badly scaled instances.
    """
    F = _check_matrix(F, "F")
    n = F.shape[0]
    v = _checked(v, (n,), "v")
    caps = _checked(caps, (n,), "caps")
    try:
        with np.errstate(all="ignore"):
            radii = _secular_radii(F, v, caps)
    except np.linalg.LinAlgError:  # defective F: its eigenvectors are singular
        radii = np.full(n, np.nan)
    for l in np.flatnonzero(np.isnan(radii)):
        B_l = F.copy()
        B_l[:, l] += v / caps[l]
        radii[l] = spectral_radius(B_l)
    return radii


def _secular_radii(F, v, caps) -> np.ndarray:
    """Bracket-certified secular roots of :func:`constraint_radii`; NaN where
    the bracket fails."""
    eps = np.finfo(float).eps
    mu, V = np.linalg.eig(F)
    w = np.linalg.solve(V, v.astype(complex))
    c = V * w
    k = int(np.argmax(mu.real))
    lo = np.full(len(v), mu[k].real)
    hi = np.max(F.sum(axis=1) + v / caps[:, None], axis=1)  # row sums of B[l]
    lam = lo + np.maximum(c[:, k].real, 0.0) / caps
    lam = np.where((lam > lo) & (lam < hi), lam, hi)
    last = np.full(len(v), np.inf)
    done = np.zeros(len(v), dtype=bool)
    for _ in range(SECULAR_MAX_ITERS):
        d = 1.0 / (lam[:, None] - mu)
        cd = c * d
        g = cd.sum(axis=1).real
        dg = -(cd * d).sum(axis=1).real
        left = g > caps
        lo = np.where(left, lam, lo)
        hi = np.where(left, hi, lam)
        newton = lam + g * (caps - g) / (caps * dg)
        step = np.abs(newton - lam)
        done |= (step <= 2 * eps * lam) | ((step >= last) & (step <= 1e-8 * lam))
        last = step
        inside = (newton > lo) & (newton < hi)
        lam = np.where(done, lam, np.where(inside, newton, 0.5 * (lo + hi)))
        if done.all():
            break
    X = (V @ (w[:, None] / (lam - mu[:, None]))).real  # column l: x of user l
    ratio = (F @ X + np.outer(v, np.diag(X) / caps)) / X
    top, bottom = ratio.max(axis=0), ratio.min(axis=0)
    certified = np.all(X > 0, axis=0) & (top - bottom <= RADIUS_BRACKET_TOL * top)
    return np.where(certified, 0.5 * (top + bottom), np.nan)


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

    One dense ``eig(A)``: the Perron root is the eigenvalue of largest real
    part, the right vector is its column of ``V`` and the left vector the
    matching row of ``V^-1``, both taken entrywise in absolute value. ``rho``
    is the Rayleigh quotient ``y.Ax / y.x``. The pair is returned only when
    both vectors are entrywise positive and both eigen-residuals (vectors
    scaled to unit max entry) are at most ``1e-12 * max(1, max row sum)``.

    Raises
    ------
    ReducibleMatrixError
        If the positivity pattern is not strongly connected.
    ConvergenceError
        If the eigensolve fails the residual or positivity test.
    """
    A = _check_matrix(A)
    if not is_irreducible(A):
        raise ReducibleMatrixError(
            "matrix is reducible; Perron pair requires a strongly connected "
            "positivity pattern"
        )
    values, V = np.linalg.eig(A)
    k = int(np.argmax(values.real))
    x = np.abs(V[:, k].real)
    y = np.abs(np.linalg.solve(V.T, np.eye(len(values))[k]).real)
    x /= x.max()
    y /= y.max()
    Ax = A @ x
    rho = float((y @ Ax) / (y @ x))
    res = float(max(np.max(np.abs(Ax - rho * x)), np.max(np.abs(A.T @ y - rho * y))))
    if not (res <= 1e-12 * max(1.0, float(np.max(A.sum(axis=1))))
            and np.all(x > 0) and np.all(y > 0)):
        raise ConvergenceError(
            f"Perron pair failed its certificate (residual {res:.3e}, "
            f"min entries {x.min():.3e}, {y.min():.3e})",
            residual=res,
        )
    return PerronPair(rho=rho, right=x, left=y / float(x @ y))


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
    pair = perron_pair(np.exp(eta)[:, None] * B)
    if abs(pair.rho - 1.0) > ANCHOR_TOL:
        raise ValueError(
            f"anchor is not on the unit-radius level set: measured radius {pair.rho!r}"
        )
    return Hyperplane(normal=pair.weights(), anchor=eta)


@dataclass(frozen=True)
class ScalingPair:
    """Positive diagonals ``d1, d2`` of a two-sided scaling ``D1 A D2``."""

    d1: np.ndarray
    d2: np.ndarray

    def __post_init__(self):
        _freeze(self, "d1", "d2")


def _majorization_guard(diag, w):
    """Reject weights that cannot be Perron products at zero-diagonal indices.

    For a matrix with fully positive off-diagonal part, ``w`` is attainable
    iff ``w_l < 1/2`` at every index with a zero diagonal entry. The one
    exception is the 2x2 zero-diagonal pattern, which attains exactly
    ``(1/2, 1/2)``. Both limits carry ``MAJORIZATION_SLACK``.
    """
    zero = np.flatnonzero(diag == 0)
    exchange = len(zero) == len(w) == 2
    for l in zero:
        if (w[l] > 0.5 + MAJORIZATION_SLACK if exchange
                else w[l] >= 0.5 - MAJORIZATION_SLACK):
            raise InfeasibleWeightError(
                f"weight {w[l]:.6g} at index {l} violates the majorization "
                "condition (remaining weights must strictly out-sum it at every "
                "zero-diagonal index)",
                index=int(l),
            )


def diagonal_scaling(A, u, v) -> ScalingPair:
    """Find positive diagonals with ``D1 A D2 u = u`` and ``v^T D1 A D2 = v^T``.

    Alternating update: rescale rows to satisfy the right fixed-vector
    equation, then columns for the left one, until the infinity-norm
    residuals drop below ``SCALING_TOL``. The matrix must be irreducible with either
    a fully positive diagonal or fully positive off-diagonal part; in the
    latter case the normalized products ``w = u*v`` must satisfy
    ``w_l < 1/2`` at every zero-diagonal index ``l`` (the 2x2 zero-diagonal
    pattern attains exactly ``w = (1/2, 1/2)``), else
    :class:`InfeasibleWeightError` names the first violating index.

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
    _majorization_guard(diag, w)

    d2 = np.ones(n)
    Y = A @ (d2 * u)
    residual = math.inf
    for _ in range(SCALING_MAX_SWEEPS):
        # each product serves one update and one residual: 2 per sweep
        d1 = u / Y
        X = A.T @ (d1 * v)
        d2 = v / X
        Y = A @ (d2 * u)
        r_right = np.max(np.abs(d1 * Y - u))
        r_left = np.max(np.abs(d2 * X - v))
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


def inverse_weight(B, w) -> tuple[np.ndarray, PerronPair]:
    """Log-scaling ``eta`` whose scaled matrix has Perron products ``w``.

    Returns ``(eta, pair)``: ``diag(exp(eta)) @ B`` has unit spectral radius
    and Perron weight vector ``w``, and ``pair`` is the Perron pair of that
    scaled matrix. Built from :func:`diagonal_scaling` with ``u = 1`` and
    ``v = w``: the scaled matrix ``diag(d1*d2) B`` is similar to the
    row-stochastic ``D1 B D2``, and the additive gauge is pinned by
    renormalizing the radius to one. ``pair`` is computed from the scaled
    matrix alone, independently of the scaling; it is returned only when its
    radius is one within ``ANCHOR_TOL`` (so ``eta`` is a valid anchor for
    :func:`supporting_hyperplane`) and its products match ``w`` within
    ``WEIGHT_VERIFY_TOL``; else :class:`ConvergenceError` is raised. A zero
    weight is never a Perron product: :class:`InfeasibleWeightError` names
    the first one.
    """
    B = _check_matrix(B, "B")
    n = B.shape[0]
    w = _checked(w, (n,), "w", positive=False)
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("w must sum to one")
    zero = np.flatnonzero(w == 0)
    if zero.size:
        raise InfeasibleWeightError(
            f"weight 0 at index {zero[0]} is not attainable (Perron products "
            "of an irreducible matrix are positive)",
            index=int(zero[0]),
        )
    w = w / w.sum()
    scaling = diagonal_scaling(B, np.ones(n), w)
    eta = np.log(scaling.d1 * scaling.d2)
    eta -= math.log(spectral_radius(np.exp(eta)[:, None] * B))
    pair = perron_pair(np.exp(eta)[:, None] * B)
    if abs(pair.rho - 1.0) > ANCHOR_TOL:
        raise ConvergenceError(
            f"inverse weight verification failed: radius {pair.rho!r} != 1",
            residual=abs(pair.rho - 1.0),
        )
    drift = float(np.max(np.abs(pair.weights() - w)))
    if drift > WEIGHT_VERIFY_TOL:
        raise ConvergenceError(
            f"inverse weight verification failed: Perron products deviate by "
            f"{drift:.3e} from the prescribed weights",
            residual=drift,
        )
    return eta, pair
