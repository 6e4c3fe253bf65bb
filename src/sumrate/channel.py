"""Channel model: the single-carrier instance, derived matrices and SIR/power maps.

An instance has L transmit/receive pairs with positive gain matrix G, noise
powers n, per-user power caps, and a probability weight vector. The SNR gap
is absorbed into the direct gains once at derivation time (``g_ll / gap``)
and never reappears downstream. From the effective gains we build

* ``F``: zero-diagonal normalized interference matrix, ``g_lj / g_ll`` off
  the diagonal,
* ``v``: normalized noise ``n_l / g_ll``,
* ``caps``: the instance's caps, kept exact for the radii,
* ``F_tilde``: ``F`` plus the diagonal ``v_l / cap_l`` (cap-aware relaxation
  matrix),
* ``B[l] = F + outer(v, e_l) / cap_l``: per-user constraint matrices whose
  scaled radii characterize the image of the cap box under the SIR map,
  stacked as one ``(L, L, L)`` array built on first use,
* ``gamma_bar = caps / v``: componentwise SIR ceiling,
* ``radii``: the constraint radii ``rho(B[l])``, computed on first use and
  cached with the rest. Every ``B[l]`` is a rank-one update of ``F``, so all
  L radii come from one eigendecomposition of ``F`` and the secular equation
  (:func:`spectral.constraint_radii`); each is accepted only through its
  Collatz-Wielandt bracket, and a user whose bracket fails gets a dense
  eigensolve of ``B[l]`` instead.

The SIR map is ``sir(p) = p / (F p + v)``; its inverse on the region
``{sir >= 0 : rho(diag(sir) F) < 1}`` is
``P(sir) = (I - diag(sir) F)^{-1} (sir * v)``.

Powers are linear (not dB) throughout; rates are in nats.
"""
from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import spectral
from .spectral import _checked, _frozen
from .exceptions import InfeasibleSirError

__all__ = [
    "ChannelInstance",
    "DerivedMatrices",
    "RegionCheck",
    "derive_matrices",
    "sir_of_power",
    "power_of_sir",
    "in_achievable_region",
    "objective",
    "objective_log",
    "objective_gradient_p",
]

REGION_INSIDE_TOL = 1e-9
REGION_ACTIVE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ChannelInstance:
    """Single-carrier interference channel (immutable after construction)."""

    gains: np.ndarray
    noise: np.ndarray
    caps: np.ndarray
    weights: np.ndarray
    snr_gap: float = 1.0

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=float)
        if gains.ndim != 2 or gains.shape[0] != gains.shape[1]:
            raise ValueError(f"gains must have shape (users, users), got {gains.shape}")
        n = gains.shape[0]
        if n < 2:
            raise ValueError("an interference channel needs at least two users")
        gains = _checked(gains, gains.shape, "gains")
        noise = _checked(self.noise, (n,), "noise")
        caps = _checked(self.caps, (n,), "caps")
        weights = _checked(self.weights, (n,), "weights", positive=False)
        total = weights.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to one (got {total!r})")
        gap = float(self.snr_gap)
        if not np.isfinite(gap) or gap < 1.0:
            raise ValueError("snr_gap must be >= 1")
        weights = weights / total
        for name, value in (
            ("gains", gains), ("noise", noise), ("caps", caps), ("weights", weights)
        ):
            object.__setattr__(self, name, _frozen(value))
        object.__setattr__(self, "snr_gap", gap)

    @property
    def users(self) -> int:
        return self.caps.shape[0]


@dataclass(frozen=True, eq=False)
class DerivedMatrices:
    """Interference matrices derived from a channel instance."""

    F: np.ndarray
    v: np.ndarray
    caps: np.ndarray
    F_tilde: np.ndarray
    gamma_bar: np.ndarray

    @functools.cached_property
    def B(self) -> np.ndarray:
        """Constraint matrices ``B[l] = F + outer(v, e_l) / cap_l``, one per
        user, as a read-only ``(L, L, L)`` stack built on first use."""
        users = np.arange(self.v.shape[0])
        B = np.repeat(self.F[None], users.size, 0)
        B[users, :, users] += self.v / self.caps[:, None]
        B.setflags(write=False)
        return B

    @functools.cached_property
    def radii(self) -> np.ndarray:
        """Constraint radii ``rho(B[l])``, computed on first use.

        One :func:`spectral.constraint_radii` call on ``F``, ``v`` and the
        exact ``caps``: each radius is the midpoint of a Collatz-Wielandt
        bracket at most ``spectral.RADIUS_BRACKET_TOL`` wide (relative), or
        a dense eigensolve of ``B[l]`` where the bracket fails.
        """
        return _frozen(spectral.constraint_radii(self.F, self.v, self.caps))

    @property
    def max_radius(self) -> float:
        """``R = max_l rho(B[l])``, which anchors the sandwich bound."""
        return float(self.radii.max())


_DERIVED_CACHE: "weakref.WeakKeyDictionary[ChannelInstance, DerivedMatrices]"
_DERIVED_CACHE = weakref.WeakKeyDictionary()


def derive_matrices(inst: ChannelInstance) -> DerivedMatrices:
    """All derived matrices for an instance (cached per instance)."""
    cached = _DERIVED_CACHE.get(inst)
    if cached is not None:
        return cached
    direct = np.diag(inst.gains) / inst.snr_gap
    F = inst.gains / direct[:, None]
    np.fill_diagonal(F, 0.0)
    v = inst.noise / direct
    derived = DerivedMatrices(
        F=_frozen(F),
        v=_frozen(v),
        caps=inst.caps,
        F_tilde=_frozen(F + np.diag(v / inst.caps)),
        gamma_bar=_frozen(inst.caps / v),
    )
    _DERIVED_CACHE[inst] = derived
    return derived


def sir_of_power(inst: ChannelInstance, p) -> np.ndarray:
    """SIR vector ``p / (F p + v)`` for a nonnegative power vector.

    The result always lies in the achievable region, so no radius is
    computed: with ``v > 0``, ``diag(sir) F p < p`` holds on the support of
    ``p`` and ``diag(sir) F`` has zero rows off it, so
    ``rho(diag(sir) F) < 1`` by the Collatz-Wielandt bound.
    """
    p = _checked(p, (inst.users,), "p", positive=False)
    return _sir_rows(derive_matrices(inst), p[None])[0]


def power_of_sir(inst: ChannelInstance, gamma) -> np.ndarray:
    """Unique nonnegative power vector realizing an achievable SIR target.

    Solves ``(I - diag(gamma) F) p = gamma * v`` directly. Raises
    :class:`InfeasibleSirError` (carrying the measured radius) when
    ``rho(diag(gamma) F) >= 1``, i.e. the target is outside the region.
    """
    der = derive_matrices(inst)
    gamma = _checked(gamma, (inst.users,), "gamma", positive=False)
    rho = spectral.spectral_radius(gamma[:, None] * der.F)
    if rho >= 1.0:
        raise InfeasibleSirError(
            f"SIR target is infeasible: rho(diag(gamma) F) = {rho!r} >= 1",
            radius=rho,
        )
    p = np.linalg.solve(np.eye(inst.users) - gamma[:, None] * der.F, gamma * der.v)
    return np.maximum(p, 0.0)


class RegionCheck(NamedTuple):
    inside: bool
    active: tuple
    radii: np.ndarray


def in_achievable_region(inst: ChannelInstance, gamma) -> RegionCheck:
    """Membership test for the image of the cap box under the SIR map.

    ``gamma`` is achievable with powers in ``[0, caps]`` iff
    ``rho(diag(gamma) B[l]) <= 1`` for every user l; the radius equals one
    exactly at the users whose cap binds. ``inside`` allows radii up to
    ``1 + REGION_INSIDE_TOL``; ``active`` lists the users whose radius is
    within ``REGION_ACTIVE_TOL`` of one.
    """
    der = derive_matrices(inst)
    gamma = _checked(gamma, (inst.users,), "gamma", positive=False)
    radii = np.array(
        [spectral.spectral_radius(gamma[:, None] * B_l) for B_l in der.B]
    )
    inside = bool(np.all(radii <= 1.0 + REGION_INSIDE_TOL))
    binding = np.abs(radii - 1.0) <= REGION_ACTIVE_TOL
    active = tuple(int(l) for l in np.flatnonzero(binding))
    return RegionCheck(inside=inside, active=active, radii=radii)


def objective(weights, gamma) -> float:
    """Weighted sum rate ``sum_l w_l log(1 + gamma_l)`` in nats."""
    weights = np.asarray(weights, dtype=float).reshape(-1)
    gamma = np.asarray(gamma, dtype=float).reshape(-1)
    if weights.shape != gamma.shape:
        raise ValueError("weights and gamma must have equal length")
    if np.any(gamma < 0):
        raise ValueError("gamma must be entrywise nonnegative")
    return float(weights @ np.log1p(gamma))


def objective_log(weights, gamma) -> float:
    """Log-SIR objective ``sum_l w_l log gamma_l``; needs positive gamma.

    Always strictly below :func:`objective` at the same point.
    """
    weights = np.asarray(weights, dtype=float).reshape(-1)
    gamma = np.asarray(gamma, dtype=float).reshape(-1)
    if weights.shape != gamma.shape:
        raise ValueError("weights and gamma must have equal length")
    if np.any(gamma <= 0):
        raise ValueError("the log-SIR objective requires positive gamma")
    return float(weights @ np.log(gamma))


def objective_gradient_p(inst: ChannelInstance, p) -> np.ndarray:
    """Gradient of the weighted sum rate with respect to powers.

    With ``d = F p + v`` the Jacobian of the SIR map is
    ``J(p) = diag(1/d) (I - diag(sir) F)``, so the gradient
    ``J(p)^T (w / (1 + sir))`` is ``x - F^T (sir * x)`` with
    ``x = (w / (1 + sir)) / d``: two matrix-vector products, no Jacobian.
    """
    der = derive_matrices(inst)
    p = _checked(p, (inst.users,), "p", positive=False)
    return _gradient_rows(der, inst.weights, p[None])[0]


# Row-wise maps for a stack P of power vectors, one per row, unchecked. Every
# product is a stack of matrix-vector products (``F @ P[:, :, None]``,
# ``F.T @ X[:, :, None]``), which keeps the summation order of the one-vector
# product, so each row is bitwise equal to the map applied to that row alone;
# ``P @ F.T`` is not.


def _sir_rows(der: DerivedMatrices, P) -> np.ndarray:
    """:func:`sir_of_power` at every row of ``P``."""
    return P / ((der.F @ P[:, :, None])[:, :, 0] + der.v)


def _objective_rows(der: DerivedMatrices, weights, P) -> np.ndarray:
    """Weighted sum rate at every row of ``P``."""
    gamma = _sir_rows(der, P)
    return (np.log1p(gamma)[:, None, :] @ weights)[:, 0]


def _gradient_rows(der: DerivedMatrices, weights, P) -> np.ndarray:
    """:func:`objective_gradient_p` at every row of ``P``."""
    denom = (der.F @ P[:, :, None])[:, :, 0] + der.v
    gamma = P / denom
    x = weights / (1.0 + gamma) / denom
    return x - (der.F.T @ (gamma * x)[:, :, None])[:, :, 0]
