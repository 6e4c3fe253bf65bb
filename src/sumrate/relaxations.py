"""Analytic bounds and closed-form relaxed maxima.

Two kinds of results:

* :func:`objective_bounds` sandwiches the optimal weighted sum rate between
  the value at the achievable uniform SIR point ``(1/R) * ones`` (with R the
  largest per-user constraint radius) and the value at the componentwise SIR
  ceiling.
* The relaxed problems maximize the log-SIR objective ``sum w_l log gamma_l``
  over ``rho(diag(gamma) M) <= 1`` for a relaxation matrix M. The maximizer
  is closed-form via the inverse-weight scaling: it is the unique positive
  ``gamma*`` with ``rho(diag(gamma*) M) = 1`` whose scaled matrix has Perron
  products equal to the weights. Choices of M:

  - ``F_tilde`` (cap-aware, positive diagonal): always solvable for positive
    weights; its optimum upper-bounds the true log-SIR optimum, and when the
    lifted power ``P(gamma*)`` respects the caps it is a certified global
    maximizer of the original sum-rate problem.
  - ``F`` (noise-free, zero diagonal): solvable when the weights satisfy the
    majorization condition; upper-bounds the cap-aware relaxed value.
  - ``B[l]`` (single binding cap l): for the case where exactly cap l is
    conjectured active at the optimum.

Every returned solution carries an independently recomputed Perron pair as
its certificate; construction fails rather than returning an unverified
solution.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import channel, spectral
from .spectral import _freeze
from .exceptions import ConvergenceError, InfeasibleSirError

__all__ = [
    "BoundsReport",
    "RelaxedSolution",
    "objective_bounds",
    "uniform_sir_power",
    "relaxed_max_tilde",
    "relaxed_max_noiseless",
    "default_cap_index",
]

CERT_RADIUS_TOL = 1e-8
CERT_WEIGHT_TOL = 1e-7
CAP_SLACK = 1e-9


@dataclass(frozen=True)
class BoundsReport:
    """Sandwich on the optimal weighted sum rate (nats)."""

    max_radius: float  # R = max_l rho(B[l])
    lower: float  # value at the achievable uniform SIR point (1/R) * ones
    upper: float  # value at the componentwise SIR ceiling

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("bounds are inverted; instance data is inconsistent")


def objective_bounds(inst: channel.ChannelInstance) -> BoundsReport:
    der = channel.derive_matrices(inst)
    uniform = np.full(inst.users, 1.0 / der.max_radius)
    return BoundsReport(
        max_radius=der.max_radius,
        lower=channel.objective(inst.weights, uniform),
        upper=channel.objective(inst.weights, der.gamma_bar),
    )


def uniform_sir_power(inst: channel.ChannelInstance) -> np.ndarray:
    """Power vector realizing the uniform-SIR lower-bound point."""
    radius = channel.derive_matrices(inst).max_radius
    return channel.power_of_sir(inst, np.full(inst.users, 1.0 / radius))


@dataclass(frozen=True)
class RelaxedSolution:
    """Closed-form maximizer of a relaxed log-SIR problem with certificate."""

    gamma_star: np.ndarray
    certificate: spectral.PerronPair
    relaxed_value: float  # sum_l w_l log gamma*_l, in nats
    lifted_power: Optional[np.ndarray]
    certified_global: bool

    def __post_init__(self):
        _freeze(self, "gamma_star", "lifted_power")


def _solve_relaxation(inst, weights, matrix) -> RelaxedSolution:
    if weights is None:
        weights = inst.weights
    weights = np.asarray(weights, dtype=float).reshape(-1)
    eta = spectral.inverse_weight(matrix, weights)
    gamma_star = np.exp(eta)
    scaled = gamma_star[:, None] * matrix
    certificate = spectral.perron_pair(scaled)
    if abs(certificate.rho - 1.0) > CERT_RADIUS_TOL:
        raise ConvergenceError(
            f"relaxation certificate failed: radius {certificate.rho!r} != 1",
            residual=abs(certificate.rho - 1.0),
        )
    drift = float(np.max(np.abs(certificate.weights() - weights)))
    if drift > CERT_WEIGHT_TOL:
        raise ConvergenceError(
            f"relaxation certificate failed: Perron products deviate by {drift:.3e}",
            residual=drift,
        )
    lifted = None
    certified = False
    try:
        lifted = channel.power_of_sir(inst, gamma_star)
    except InfeasibleSirError:
        lifted = None
    if lifted is not None:
        certified = bool(np.all(lifted <= inst.caps * (1.0 + CAP_SLACK)))
    return RelaxedSolution(
        gamma_star=gamma_star,
        certificate=certificate,
        relaxed_value=channel.objective_log(weights, gamma_star),
        lifted_power=lifted,
        certified_global=certified,
    )


def relaxed_max_tilde(inst: channel.ChannelInstance, weights=None) -> RelaxedSolution:
    """Closed-form maximum over ``rho(diag(gamma) F_tilde) <= 1``.

    The relaxed value dominates the log-SIR value of every achievable SIR
    vector. When ``certified_global`` is set, ``lifted_power`` respects the
    caps and globally maximizes the original weighted sum rate.
    """
    der = channel.derive_matrices(inst)
    return _solve_relaxation(inst, weights, der.F_tilde)


def default_cap_index(inst: channel.ChannelInstance) -> int:
    """Heuristic binding cap: the user with the largest constraint radius."""
    return int(np.argmax(channel.derive_matrices(inst).radii))


def relaxed_max_noiseless(
    inst: channel.ChannelInstance, weights=None, cap_index=None
) -> RelaxedSolution:
    """Closed-form maximum of the noise-free relaxation.

    ``cap_index=None`` uses the zero-diagonal interference matrix F itself
    (all noise dropped); this requires the weights to satisfy the
    majorization condition at every index, and for two users is solvable
    only at equal weights. An integer ``cap_index`` uses ``B[cap_index]``
    instead, modelling the case where exactly that cap binds; the lifted
    power then pins ``p_l = cap_l`` at that user.
    """
    der = channel.derive_matrices(inst)
    if cap_index is None:
        matrix = der.F
    else:
        cap_index = int(cap_index)
        if not 0 <= cap_index < inst.users:
            raise ValueError(f"cap_index must be in [0, {inst.users})")
        matrix = der.B[cap_index]
    return _solve_relaxation(inst, weights, matrix)
