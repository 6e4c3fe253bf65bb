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
  products equal to the instance's weights. Choices of M:

  - ``F_tilde`` (cap-aware, positive diagonal): always solvable for positive
    weights; its optimum upper-bounds the true log-SIR optimum, and when the
    lifted power ``P(gamma*)`` respects the caps it is a certified global
    maximizer of the original sum-rate problem.
  - ``F`` (noise-free, zero diagonal): solvable when the weights satisfy the
    majorization condition; upper-bounds the cap-aware relaxed value. It
    never lifts: ``gamma*`` lies on ``rho(diag(gamma*) F) = 1``, the boundary
    of the achievable region, where no power vector realizes it.
  - ``B[l]`` (single binding cap l): for the case where exactly cap l is
    conjectured active at the optimum.

Every returned solution carries the Perron pair of its scaled matrix
``diag(gamma*) M`` as its certificate, computed and verified by
:func:`spectral.inverse_weight` from that matrix alone, independently of the
scaling that produced ``gamma*``; construction fails rather than returning an
unverified solution.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import channel, spectral
from .spectral import _freeze
from .exceptions import InfeasibleSirError

__all__ = [
    "BoundsReport",
    "RelaxedSolution",
    "objective_bounds",
    "uniform_sir_power",
    "relaxed_max_tilde",
    "relaxed_max_noiseless",
    "default_cap_index",
]

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
    """Power vector realizing the uniform-SIR lower-bound point.

    The right Perron vector ``x`` of ``B[l]``, with ``l`` the user of largest
    constraint radius R, satisfies ``F x + v x_l / cap_l = R x``; scaled until
    the first cap binds it is ``(R I - F)^-1 v``, the power at SIR ``1/R``.
    Taking the eigenvector avoids solving with ``R I - F``, which is nearly
    singular when the noise is tiny.
    """
    der = channel.derive_matrices(inst)
    x = spectral.perron_pair(der.B[default_cap_index(inst)]).right
    return np.minimum(x * np.min(inst.caps / x), inst.caps)


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


def _solve_relaxation(inst, matrix, *, lift=True) -> RelaxedSolution:
    eta, certificate = spectral.inverse_weight(matrix, inst.weights)
    gamma_star = np.exp(eta)
    lifted = None
    if lift:
        try:
            lifted = channel.power_of_sir(inst, gamma_star)
        except InfeasibleSirError:
            pass
    certified = lifted is not None and bool(
        np.all(lifted <= inst.caps * (1.0 + CAP_SLACK))
    )
    return RelaxedSolution(
        gamma_star=gamma_star,
        certificate=certificate,
        relaxed_value=channel.objective_log(inst.weights, gamma_star),
        lifted_power=lifted,
        certified_global=certified,
    )


def relaxed_max_tilde(inst: channel.ChannelInstance) -> RelaxedSolution:
    """Closed-form maximum over ``rho(diag(gamma) F_tilde) <= 1``.

    The relaxed value dominates the log-SIR value of every achievable SIR
    vector. When ``certified_global`` is set, ``lifted_power`` respects the
    caps and globally maximizes the original weighted sum rate.
    """
    der = channel.derive_matrices(inst)
    return _solve_relaxation(inst, der.F_tilde)


def default_cap_index(inst: channel.ChannelInstance) -> int:
    """Heuristic binding cap: the user with the largest constraint radius.

    Radii within ``spectral.RADIUS_BRACKET_TOL`` (relative) of the largest
    count as tied, and the lowest tied index wins, so that near-zero noise,
    where every radius is ``rho(F)`` within rounding, does not leave the
    choice to the last bits.
    """
    radii = channel.derive_matrices(inst).radii
    top = radii.max()
    return int(np.flatnonzero(top - radii <= spectral.RADIUS_BRACKET_TOL * top)[0])


def relaxed_max_noiseless(
    inst: channel.ChannelInstance, cap_index=None
) -> RelaxedSolution:
    """Closed-form maximum of the noise-free relaxation.

    ``cap_index=None`` uses the zero-diagonal interference matrix F itself
    (all noise dropped); this requires the weights to satisfy the
    majorization condition at every index, and for two users is solvable
    only at equal weights. Its maximizer sits where the power map has no
    solution, so ``lifted_power`` is None and ``certified_global`` False.
    An integer ``cap_index`` uses ``B[cap_index]``
    instead, modelling the case where exactly that cap binds; the lifted
    power then pins ``p_l = cap_l`` at that user.
    """
    der = channel.derive_matrices(inst)
    if cap_index is None:
        return _solve_relaxation(inst, der.F, lift=False)
    cap_index = int(cap_index)
    if not 0 <= cap_index < inst.users:
        raise ValueError(f"cap_index must be in [0, {inst.users})")
    return _solve_relaxation(inst, der.B[cap_index])
