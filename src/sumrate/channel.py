"""Channel model: problem instances, SIR/power maps, and multi-tone stacking.

An instance has L transmit/receive pairs with positive gain matrix G, noise
powers n, per-user power caps, and a probability weight vector. The SNR gap
is absorbed into the direct gains once at derivation time (``g_ll / gap``)
and never reappears downstream. From the effective gains we build

* ``F``: zero-diagonal normalized interference matrix, ``g_lj / g_ll`` off
  the diagonal,
* ``v``: normalized noise ``n_l / g_ll``,
* ``F_tilde``: ``F`` plus the diagonal ``v_l / cap_l`` (cap-aware relaxation
  matrix),
* ``B[l] = F + outer(v, e_l) / cap_l``: per-user constraint matrices whose
  scaled radii characterize the image of the cap box under the SIR map,
* ``gamma_bar = caps / v``: componentwise SIR ceiling,
* ``radii``: the constraint radii ``rho(B[l])``, computed on first use and
  cached with the rest.

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
from .exceptions import DegenerateInputError, InfeasibleSirError

__all__ = [
    "ChannelInstance",
    "DerivedMatrices",
    "MultiToneInstance",
    "StackedMultiTone",
    "RegionCheck",
    "derive_matrices",
    "sir_of_power",
    "power_of_sir",
    "in_achievable_region",
    "noiseless_sir",
    "objective",
    "objective_log",
    "objective_gradient_p",
    "stack_multitone",
]

REGION_INSIDE_TOL = 1e-9
REGION_ACTIVE_TOL = 1e-8


class _Channel:
    """Validation shared by the single- and multi-tone instances.

    Gains are ``(users, users)``, or ``(tones, users, users)`` when the class
    sets ``_TONE_AXIS``; noise has the shape of gains without its last axis.
    """

    _TONE_AXIS = False

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=float)
        per_tone = gains if self._TONE_AXIS else gains[None]
        if per_tone.ndim != 3 or per_tone.shape[1] != per_tone.shape[2]:
            axes = "(tones, users, users)" if self._TONE_AXIS else "(users, users)"
            raise ValueError(f"gains must have shape {axes}, got {gains.shape}")
        K, n = per_tone.shape[:2]
        if K < 1:
            raise ValueError("need at least one tone")
        if n < 2:
            raise ValueError("an interference channel needs at least two users")
        gains = _checked(gains, gains.shape, "gains")
        noise = _checked(self.noise, gains.shape[:-1], "noise")
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
class ChannelInstance(_Channel):
    """Single-carrier interference channel (immutable after construction)."""

    gains: np.ndarray
    noise: np.ndarray
    caps: np.ndarray
    weights: np.ndarray
    snr_gap: float = 1.0


@dataclass(frozen=True, eq=False)
class DerivedMatrices:
    """Interference matrices derived from a channel instance."""

    F: np.ndarray
    v: np.ndarray
    F_tilde: np.ndarray
    B: tuple
    gamma_bar: np.ndarray

    @functools.cached_property
    def radii(self) -> np.ndarray:
        """Constraint radii ``rho(B[l])``, computed on first use."""
        return _frozen([spectral.spectral_radius(B_l) for B_l in self.B])

    @property
    def max_radius(self) -> float:
        """``R = max_l rho(B[l])``, which anchors the sandwich bound."""
        return float(self.radii.max())


_DERIVED_CACHE: "weakref.WeakKeyDictionary[ChannelInstance, DerivedMatrices]"
_DERIVED_CACHE = weakref.WeakKeyDictionary()


def _stacked_matrices(gains, noise, caps, gap, interference=None):
    """``(F, v, B, gamma_bar)`` for ``(K, L, L)`` gains and ``(K, L)`` noise.

    Slot order is user-major: slot ``l*K + k`` carries user l on tone k, and
    the SNR gap is absorbed into each direct gain. ``interference``, when
    given, replaces the stacked ``F`` before ``B`` is formed. ``B[l]`` adds
    user l's noise terms over its K slots; one tone is the single-carrier
    case.
    """
    K, L = noise.shape
    KL = K * L
    F = np.zeros((KL, KL))
    v = np.zeros(KL)
    for k in range(K):
        slots = np.arange(L) * K + k
        direct = np.diag(gains[k]) / gap
        F_k = gains[k] / direct[:, None]
        np.fill_diagonal(F_k, 0.0)
        F[np.ix_(slots, slots)] = F_k
        v[slots] = noise[k] / direct
    if interference is not None:
        F = interference
    B = []
    for l in range(L):
        indicator = np.zeros(KL)
        indicator[l * K : (l + 1) * K] = 1.0
        B.append(_frozen(F + np.outer(v, indicator) / caps[l]))
    return _frozen(F), _frozen(v), tuple(B), _frozen(np.repeat(caps, K) / v)


def derive_matrices(inst: ChannelInstance) -> DerivedMatrices:
    """All derived matrices for an instance (cached per instance)."""
    cached = _DERIVED_CACHE.get(inst)
    if cached is not None:
        return cached
    F, v, B, gamma_bar = _stacked_matrices(
        inst.gains[None], inst.noise[None], inst.caps, inst.snr_gap
    )
    F_tilde = _frozen(F + np.diag(v / inst.caps))
    derived = DerivedMatrices(F=F, v=v, F_tilde=F_tilde, B=B, gamma_bar=gamma_bar)
    _DERIVED_CACHE[inst] = derived
    return derived


def sir_of_power(inst: ChannelInstance, p, *, check_region=True) -> np.ndarray:
    """SIR vector ``p / (F p + v)`` for a nonnegative power vector."""
    der = derive_matrices(inst)
    p = _checked(p, (inst.users,), "p", positive=False)
    gamma = p / (der.F @ p + der.v)
    if check_region:
        rho = spectral.spectral_radius(gamma[:, None] * der.F)
        if rho >= 1.0:
            raise RuntimeError(
                f"internal invariant violated: sir_of_power left the region "
                f"(radius {rho!r})"
            )
    return gamma


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


def noiseless_sir(inst: ChannelInstance, p) -> np.ndarray:
    """Noise-free SIR ``beta(p) = p / (F p)``.

    Scale invariant; satisfies ``diag(beta) F p = p`` and
    ``rho(diag(beta) F) = 1``. Needs at least two nonzero powers, otherwise
    an interference denominator vanishes.
    """
    der = derive_matrices(inst)
    p = _checked(p, (inst.users,), "p", positive=False)
    if np.count_nonzero(p) < 2:
        raise DegenerateInputError(
            "noiseless SIR needs at least two active users (interference "
            "denominator vanishes otherwise)"
        )
    return p / (der.F @ p)


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

    Uses the Jacobian of the SIR map,
    ``J(p) = diag(1/(F p + v)) (I - diag(sir) F)``, so the gradient is
    ``J(p)^T (w / (1 + sir))``.
    """
    der = derive_matrices(inst)
    p = _checked(p, (inst.users,), "p", positive=False)
    denom = der.F @ p + der.v
    gamma = p / denom
    jac = (np.eye(inst.users) - gamma[:, None] * der.F) / denom[:, None]
    return jac.T @ (inst.weights / (1.0 + gamma))


@dataclass(frozen=True, eq=False)
class MultiToneInstance(_Channel):
    """Synchronous multi-tone channel: per-tone gains/noise, per-user budget.

    Per-slot weights are ``w_l / K`` so the stacked weight vector stays a
    probability vector over all K*L slots.
    """

    _TONE_AXIS = True

    gains: np.ndarray  # (K, L, L)
    noise: np.ndarray  # (K, L)
    caps: np.ndarray  # (L,)
    weights: np.ndarray  # (L,)
    snr_gap: float = 1.0

    @property
    def tones(self) -> int:
        return self.gains.shape[0]


@dataclass(frozen=True, eq=False)
class StackedMultiTone:
    """Stacked (K*L)-dimensional problem data for a multi-tone instance.

    Slot order is user-major: slot ``l*K + k`` carries user l on tone k.
    ``B[l]`` sums the rank-one noise terms over user l's K slots, matching
    the per-user budget constraint ``rho(diag(sir) B[l]) <= 1``.
    """

    users: int
    tones: int
    F: np.ndarray
    v: np.ndarray
    weights: np.ndarray
    caps: np.ndarray
    B: tuple
    gamma_bar: np.ndarray


def stack_multitone(mt: MultiToneInstance, interference=None) -> StackedMultiTone:
    """Stack a multi-tone instance into one (K*L)-dimensional problem.

    With synchronous tones the stacked interference matrix couples only
    same-tone slots (zero cross-tone entries; block diagonal up to the
    tone-grouping permutation). Pass ``interference`` to supply an explicit
    stacked matrix with cross-tone coupling instead; it must be nonnegative
    with a zero diagonal and is substituted before the per-user constraint
    matrices are formed.
    """
    L, K = mt.users, mt.tones
    if interference is not None:
        interference = _checked(
            interference, (K * L, K * L), "interference override", positive=False
        )
        if np.any(np.diag(interference) != 0):
            raise ValueError("interference override must have a zero diagonal")
    F, v, B, gamma_bar = _stacked_matrices(
        mt.gains, mt.noise, mt.caps, mt.snr_gap, interference
    )
    return StackedMultiTone(
        users=L,
        tones=K,
        F=F,
        v=v,
        weights=_frozen(np.repeat(mt.weights / K, K)),
        caps=mt.caps,
        B=B,
        gamma_bar=gamma_bar,
    )
