"""Solvers: projected gradient ascent, polytope-based linearization, the
exact log-SIR relaxation, stationarity classification, and the brute-force
grid oracle.

The linearization works in log-SIR coordinates, where the achievable
region is the intersection of the convex sets
``log rho(diag(exp(xi)) B[l]) <= 0``. The region is outer-approximated by
the box ``[-K, log gamma_bar]`` plus supporting hyperplanes anchored at
boundary points; boundary anchors come from a power grid on
``[floor, caps]`` restricted to points with at least one cap-coordinate,
with ``floor`` the power image of the uniform SIR ``exp(-K)``.

The relaxation (``solve_lp_relax``, the ``lp`` algorithm) needs no
polytope: it maximizes ``sum_l w_l log sir_l``, which is concave in
log-power, by a fixed-point iteration on the cap box.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import channel, relaxations, spectral
from .simplex import simplex_max
from .spectral import _freeze

__all__ = [
    "KktReport",
    "SolverReport",
    "Polytope",
    "OracleResult",
    "kkt_classify",
    "solve_gradient",
    "solve_gradient_multistart",
    "build_polytope",
    "lp_solve",
    "solve_linearized",
    "solve_lp_relax",
    "oracle_grid",
]

KKT_TOL = 1e-7
BOUNDARY_TOL = 1e-9
GRADIENT_MAX_ITERS = 500
ARMIJO = 1e-4
BACKTRACK_SHRINK = 0.5
BACKTRACK_BLOCK = 8  # backtracking steps tried per lane in one stacked call
MIN_STEP = 1e-12
LINEARIZED_MAX_STEPS = 100
LP_TOL = 1e-12
LP_MAX_ITERS = 10_000

TERMINATIONS = ("kkt_satisfied", "max_iters", "lp_optimal", "stalled")
"""Why a solver stopped, as reported in ``SolverReport.termination``.

* ``kkt_satisfied``: the reported power passes :func:`kkt_classify`.
* ``max_iters``: the iteration or step budget ran out first.
* ``lp_optimal``: the relaxation is solved (the polytope LP could not
  improve on the current vertex, or the log-SIR fixed point converged),
  and the reported power passes :func:`kkt_classify`.
* ``stalled``: no further progress was possible at a point that fails
  :func:`kkt_classify`: no increasing step of at least ``MIN_STEP`` in the
  gradient solver, or a relaxation optimum whose power is not stationary.
"""


class KktReport(NamedTuple):
    s_max: tuple  # indices at their cap
    s_in: tuple  # strictly interior indices
    s_0: tuple  # indices at zero
    satisfied: bool
    residual: float
    gradient: np.ndarray


def _boundary_masks(p, caps):
    at_zero = p <= BOUNDARY_TOL
    at_cap = caps - p <= BOUNDARY_TOL
    return at_zero, at_cap


def _violation(grad, at_zero, at_cap):
    """Entrywise violation of the sign conditions of :func:`kkt_classify`."""
    return np.where(
        at_cap,
        np.maximum(0.0, -grad),
        np.where(at_zero, np.maximum(0.0, grad), np.abs(grad)),
    )


def kkt_classify(inst: channel.ChannelInstance, p) -> KktReport:
    """First-order sign conditions for a local maximum on the cap box.

    The residual is the largest violation of the sign conditions: a
    negative gradient at a capped coordinate, a nonzero one at an interior
    coordinate, a positive one at a zeroed coordinate. The point is
    ``satisfied`` when the residual is at most ``KKT_TOL``. Coordinates
    within ``BOUNDARY_TOL`` of a bound count as on it.
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    caps = inst.caps
    if p.shape != caps.shape or np.any(p < -BOUNDARY_TOL) or np.any(
        p > caps + BOUNDARY_TOL
    ):
        raise ValueError("p must lie in the cap box")
    grad = channel.objective_gradient_p(inst, np.clip(p, 0.0, caps))
    at_zero, at_cap = _boundary_masks(p, caps)
    s_max = tuple(int(i) for i in np.flatnonzero(at_cap))
    s_0 = tuple(int(i) for i in np.flatnonzero(at_zero & ~at_cap))
    s_in = tuple(int(i) for i in np.flatnonzero(~at_cap & ~at_zero))
    residual = float(np.max(_violation(grad, at_zero, at_cap))) if p.size else 0.0
    return KktReport(
        s_max=s_max,
        s_in=s_in,
        s_0=s_0,
        satisfied=bool(residual <= KKT_TOL),
        residual=residual,
        gradient=grad,
    )


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one solver run; the objective is recomputed from power."""

    power: np.ndarray
    sir: np.ndarray
    objective_value: float
    kkt_residual: float
    active_sets: tuple  # (s_max, s_in, s_0)
    iterations: int
    termination: str
    bounds: relaxations.BoundsReport
    # nats; linearized: chordal sum-rate bound over its polytope; lp: the
    # exact log-SIR maximum over the positive-weight users; gradient: None
    lp_bound: Optional[float] = None

    def __post_init__(self):
        if self.termination not in TERMINATIONS:
            raise ValueError(f"unknown termination {self.termination!r}")
        _freeze(self, "power", "sir")


def _report(inst, power, *, iterations, termination, lp_bound=None) -> SolverReport:
    power = np.clip(np.asarray(power, dtype=float).reshape(-1), 0.0, inst.caps)
    sir = channel.sir_of_power(inst, power)
    kkt = kkt_classify(inst, power)
    if termination == "lp_optimal" and not kkt.satisfied:
        termination = "stalled"  # an LP optimum off KKT is not an optimum
    return SolverReport(
        power=power,
        sir=sir,
        objective_value=channel.objective(inst.weights, sir),
        kkt_residual=kkt.residual,
        active_sets=(kkt.s_max, kkt.s_in, kkt.s_0),
        iterations=int(iterations),
        termination=termination,
        bounds=relaxations.objective_bounds(inst),
        lp_bound=lp_bound,
    )


def _phi(inst, p) -> float:
    return channel.objective(inst.weights, channel.sir_of_power(inst, p))


def _snap(p, caps):
    """Snap near-boundary coordinates exactly onto the boundary."""
    eps = 1e-12 * np.maximum(1.0, caps)
    p = np.where(p <= eps, 0.0, p)
    return np.where(caps - p <= eps, caps, p)


class _Lanes(NamedTuple):
    """Per-start outcome of :func:`_ascend`, one row or entry per start."""

    power: np.ndarray  # (S, L) final points
    value: np.ndarray  # (S,) objective at the final points
    iterations: np.ndarray  # (S,)
    termination: list  # S labels


def _ascend(inst, P, callback=None) -> _Lanes:
    """Projected gradient ascent from every row of ``P`` in lockstep.

    Each row (lane) runs the iteration of :func:`solve_gradient` with its
    own step, Armijo test and termination, and leaves the batch once it
    terminates. The maps are evaluated on the stack of live lanes by
    ``channel``'s row-wise kernels, so every lane is bitwise equal to a run
    from its start alone. ``P`` must lie in the cap box; it is not checked.
    """
    der = channel.derive_matrices(inst)
    caps, weights = inst.caps, inst.weights
    P = np.array(P, dtype=float)
    phi = channel._objective_rows(der, weights, P)
    iterations = np.full(P.shape[0], GRADIENT_MAX_ITERS)
    termination = ["max_iters"] * P.shape[0]

    def stop(lanes, label, k):
        iterations[lanes] = k
        for s in lanes:
            termination[s] = label

    def notify(lanes):
        if callback is not None:
            for s in lanes:
                callback(P[s].copy(), float(phi[s]))

    live = np.arange(P.shape[0])
    notify(live)
    for k in range(GRADIENT_MAX_ITERS):
        if not live.size:
            break
        p = P[live]
        a = channel._gradient_rows(der, weights, p)
        at_zero, at_cap = _boundary_masks(p, caps)
        satisfied = np.max(_violation(a, at_zero, at_cap), axis=1) <= KKT_TOL
        b = np.where(at_zero & (a < 0), 0.0, a)
        b = np.where(at_cap & (b > 0), 0.0, b)
        stuck = ~satisfied & ~np.any(b != 0.0, axis=1)
        stop(live[satisfied], "kkt_satisfied", k)
        stop(live[stuck], "stalled", k)
        go = ~(satisfied | stuck)
        live, p, a, b = live[go], p[go], a[go], b[go]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_up = np.where(b > 0, (caps - p) / b, np.inf)
            t_down = np.where(b < 0, p / -b, np.inf)
        t = np.minimum(np.min(t_up, axis=1), np.min(t_down, axis=1))
        # sum of squared gradient entries over free coords, lane by lane
        slope = (a[:, None, :] @ b[:, :, None])[:, 0, 0]
        accepted = np.zeros(live.size, dtype=bool)
        search = np.flatnonzero(t >= MIN_STEP)
        while search.size:
            # the next BACKTRACK_BLOCK steps of every searching lane, halved
            # one after another as the sequential search would, in one stack
            steps = np.empty((search.size, BACKTRACK_BLOCK))
            steps[:, 0] = t[search]
            for j in range(1, BACKTRACK_BLOCK):
                steps[:, j] = steps[:, j - 1] * BACKTRACK_SHRINK
            trial = p[search, None] + steps[:, :, None] * b[search, None]
            candidate = _snap(np.clip(trial, 0.0, caps), caps)
            value = channel._objective_rows(
                der, weights, candidate.reshape(-1, caps.size)
            ).reshape(steps.shape)
            ok = value >= phi[live[search], None] + ARMIJO * steps * slope[search, None]
            ok &= steps >= MIN_STEP
            found = np.any(ok, axis=1)
            first = np.argmax(ok[found], axis=1)
            lanes = live[search[found]]
            P[lanes] = candidate[found, first]
            phi[lanes] = value[found, first]
            notify(lanes)
            accepted[search[found]] = True
            search = search[~found]
            t[search] = steps[~found, -1] * BACKTRACK_SHRINK
            search = search[t[search] >= MIN_STEP]
        stop(live[~accepted], "stalled", k)
        live = live[accepted]
    return _Lanes(P, phi, iterations, termination)


def solve_gradient(
    inst: channel.ChannelInstance,
    p0=None,
    *,
    callback=None,
    _lane=None,
) -> SolverReport:
    """Projected gradient ascent on the cap box.

    The ascent direction copies the gradient but zeroes coordinates that sit
    on a bound and point outward. Backtracking starts from the largest step
    that stays in the box and accepts on a sufficient-increase test, so the
    objective strictly increases at every accepted step (Armijo factor
    ``ARMIJO``, step shrink ``BACKTRACK_SHRINK``). The halved steps are
    tried ``BACKTRACK_BLOCK`` (8) at a time in one stacked evaluation, and
    the first that passes is taken, so the result is the same as trying
    them one by one. Terminates at a
    stationarity-classified point, after ``GRADIENT_MAX_ITERS`` iterations, or
    with a stall when no increasing step of at least ``MIN_STEP`` exists.
    ``callback(p, value)`` runs once at the start and after every accepted
    step. This is the one-lane case of the lockstep kernel behind
    :func:`solve_gradient_multistart`, which passes ``_lane=(lanes, s)``,
    lane ``s`` of its finished lockstep run, to have that lane's report
    built here without ascending again, so every start is still one
    ``solve_gradient`` call.
    """
    if _lane is None:
        caps = inst.caps
        if p0 is None:
            p = caps.copy()
        else:
            p = np.asarray(p0, dtype=float).reshape(-1).copy()
            if p.shape != caps.shape:
                raise ValueError(f"p0 must have length {inst.users}")
            if np.any(p < -BOUNDARY_TOL) or np.any(p > caps + BOUNDARY_TOL):
                raise ValueError("p0 must lie in the cap box")
            p = np.clip(p, 0.0, caps)
        _lane = (_ascend(inst, p[None], callback), 0)
    lanes, s = _lane
    return _report(
        inst,
        lanes.power[s],
        iterations=lanes.iterations[s],
        termination=lanes.termination[s],
    )


def solve_gradient_multistart(
    inst: channel.ChannelInstance, *, starts=16, seed=0
) -> SolverReport:
    """Best of ``starts`` gradient runs: the cap corner plus seeded random
    interior starts. Ties break toward the lexicographically smallest power,
    then toward the earlier start.

    All starts run in lockstep as one ``(starts, L)`` array; each start's
    result is bitwise equal to ``solve_gradient`` from that start alone, and
    its report is built by ``solve_gradient`` from the finished lane.
    ``starts`` must be an ``int`` >= 1 (not a ``bool``), the rule of the
    CLI's ``multistart``.
    """
    if isinstance(starts, bool) or not isinstance(starts, int) or starts < 1:
        raise ValueError(f"starts must be an integer >= 1, got {starts!r}")
    rng = np.random.default_rng(seed)
    random_starts = rng.uniform(0.0, 1.0, (starts - 1, inst.users)) * inst.caps
    lanes = _ascend(inst, np.vstack([inst.caps, random_starts]))
    best = None
    for s in range(starts):
        report = solve_gradient(inst, _lane=(lanes, s))
        if (
            best is None
            or report.objective_value > best.objective_value
            or (
                report.objective_value == best.objective_value
                and tuple(report.power) < tuple(best.power)
            )
        ):
            best = report
    return best


@dataclass(frozen=True)
class Polytope:
    """Outer polyhedral approximation of the log-SIR region.

    Feasible set: ``box_low <= xi <= box_high`` and ``h.evaluate(xi) <= 0``
    for every supporting hyperplane h. Contains every log-SIR vector of the
    region with coordinates above ``-K``. Each hyperplane's ``anchor`` is
    the boundary point it supports the region at.
    """

    hyperplanes: tuple
    box_low: np.ndarray
    box_high: np.ndarray
    K: float

    def __post_init__(self):
        _freeze(self, "box_low", "box_high")

    @property
    def dim(self) -> int:
        return self.box_low.shape[0]

    def max_violation(self, xi) -> float:
        xi = np.asarray(xi, dtype=float).reshape(-1)
        worst = max(
            float(np.max(self.box_low - xi)), float(np.max(xi - self.box_high))
        )
        for h in self.hyperplanes:
            worst = max(worst, h.evaluate(xi))
        return worst

    def contains(self, xi, tol=1e-9) -> bool:
        return self.max_violation(xi) <= tol


def build_polytope(inst: channel.ChannelInstance, K=None, grid=4) -> Polytope:
    """Supporting-hyperplane polytope from a boundary power grid.

    ``grid`` is the number of equidistant points on every power axis;
    anchors are the grid points with at least one coordinate at its cap,
    each contributing one hyperplane per active cap. ``K`` bounds the
    log-SIR box from below and must exceed ``log R``; the default is
    ``log R + 10``.
    """
    der = channel.derive_matrices(inst)
    n = inst.users
    log_r = math.log(der.max_radius)
    if K is None:
        K = log_r + 10.0
    K = float(K)
    if K <= log_r:
        raise ValueError(f"K must exceed log(max radius) = {log_r!r}")
    m = int(grid)
    if m < 2:
        raise ValueError("grid must have at least 2 points per axis")
    floor = np.linalg.solve(math.exp(K) * np.eye(n) - der.F, der.v)
    axes = []
    for i in range(n):
        # j = 0 is exactly the cap; the floor endpoint itself is excluded
        vals = [(j * floor[i] + (m - j) * inst.caps[i]) / m for j in range(m)]
        vals[0] = inst.caps[i]
        axes.append(np.array(vals))
    hyperplanes = []
    for jtuple in itertools.product(range(m), repeat=n):
        if min(jtuple) != 0:
            continue
        p = np.array([axes[i][j] for i, j in enumerate(jtuple)])
        zeta = np.log(channel.sir_of_power(inst, p))
        for l, j in enumerate(jtuple):
            if j == 0:
                hyperplanes.append(spectral.supporting_hyperplane(der.B[l], zeta))
    return Polytope(
        hyperplanes=tuple(hyperplanes),
        box_low=np.full(n, -K),
        box_high=np.log(der.gamma_bar),
        K=K,
    )


def lp_solve(objective, polytope: Polytope):
    """Exact vertex maximizer of a linear objective over the polytope.

    The polytope goes to :func:`simplex_max` as it is: one row
    ``normal @ xi <= normal @ anchor`` per hyperplane, and the box as bounds.
    Returns ``(vertex, value)``. Deterministic under Bland's rule; with a
    zero objective the starting vertex (the lower box corner) is returned.
    Raises ``ValueError`` when that corner violates a hyperplane.
    """
    objective = np.asarray(objective, dtype=float).reshape(-1)
    n = polytope.dim
    if objective.shape != (n,):
        raise ValueError(f"objective must have length {n}")
    A = np.array([h.normal for h in polytope.hyperplanes]).reshape(-1, n)
    b = np.array([h.normal @ h.anchor for h in polytope.hyperplanes])
    return simplex_max(objective, A, b, polytope.box_low, polytope.box_high)


def _lift_to_box(inst, xi):
    """Power candidate for a log-SIR point, clamped into the cap box.

    Returns ``(raw, clamped)``: ``raw`` is the exact lifted power, which is
    nonnegative, when the point lies strictly inside the SIR region, else
    None (the point is first pulled inside along its ray, a defensive branch
    for polytope vertices beyond the region surface). Zero-weight users get
    zero power in both: their power only adds interference, so removing it
    never lowers the sum rate.
    """
    der = channel.derive_matrices(inst)
    gamma = np.exp(np.asarray(xi, dtype=float).reshape(-1))
    rho = spectral.spectral_radius(gamma[:, None] * der.F)
    silent = inst.weights == 0.0
    if rho < 1.0 - 1e-9:
        raw = np.where(silent, 0.0, channel.power_of_sir(inst, gamma))
        return raw, np.clip(raw, 0.0, inst.caps)
    pulled = channel.power_of_sir(inst, gamma * (1.0 - 1e-6) / rho)
    return None, np.clip(np.where(silent, 0.0, pulled), 0.0, inst.caps)


def _chord_bound(inst, polytope: Polytope) -> float:
    """Upper bound on the weighted sum rate over the whole polytope.

    Each coordinate function ``log(1 + exp(xi_l))`` is convex, so its chord
    over the box interval dominates it; maximizing the chordal surrogate is
    one LP.
    """
    lo, hi = polytope.box_low, polytope.box_high
    w = inst.weights
    top = np.log1p(np.exp(hi))
    bottom = np.log1p(np.exp(lo))
    slope = (top - bottom) / (hi - lo)
    coeff = w * slope
    _, value = lp_solve(coeff, polytope)
    return float(w @ bottom - coeff @ lo + value)


def solve_linearized(
    inst: channel.ChannelInstance, polytope: Optional[Polytope] = None
) -> SolverReport:
    """Successive linearization over the supporting-hyperplane polytope.

    From the current vertex, starting at the lower box corner, maximize the
    first-order model of the sum rate (an LP) to reach a strictly better
    vertex, lift it to powers, and stop as soon as the lifted point is in
    the box and stationarity-classified.
    Vertex revisits and non-improving LP steps end the walk; the report then
    carries the best cap-clamped lift seen. ``lp_bound`` is a chordal upper
    bound on the sum rate over the polytope, which contains the truncated
    log-SIR region.
    """
    poly = polytope if polytope is not None else build_polytope(inst)
    w = inst.weights
    xi = poly.box_low
    bound = _chord_bound(inst, poly)

    best_power = None
    best_value = -math.inf

    def consider(p_clamped):
        nonlocal best_power, best_value
        value = _phi(inst, p_clamped)
        if value > best_value:
            best_power, best_value = p_clamped, value

    _, clamped = _lift_to_box(inst, xi)
    consider(clamped)
    visited = {xi.tobytes()}
    steps = 0
    termination = "max_iters"
    for k in range(LINEARIZED_MAX_STEPS):
        gamma_k = np.exp(xi)
        grad = w * gamma_k / (1.0 + gamma_k)
        nxt, value = lp_solve(grad, poly)
        if value <= float(grad @ xi) + 1e-12 * max(1.0, abs(value)):
            termination = "lp_optimal"
            steps = k
            break
        xi = nxt
        steps = k + 1
        raw, clamped = _lift_to_box(inst, xi)
        if raw is not None and np.all(raw <= inst.caps * (1 + 1e-12)):
            p_exact = _snap(np.clip(raw, 0.0, inst.caps), inst.caps)
            if kkt_classify(inst, p_exact).satisfied:
                return _report(
                    inst, p_exact, iterations=steps, termination="kkt_satisfied",
                    lp_bound=bound,
                )
        consider(clamped)
        if xi.tobytes() in visited:
            termination = "lp_optimal"
            break
        visited.add(xi.tobytes())
    return _report(
        inst, best_power, iterations=steps, termination=termination, lp_bound=bound
    )


def solve_lp_relax(inst: channel.ChannelInstance) -> SolverReport:
    """Exact maximizer of the log-SIR objective ``sum_l w_l log sir_l`` on
    the cap box (the high-SIR approximation of the sum rate).

    In log-power ``q = log p`` the objective is concave, and its stationarity
    condition is the fixed point ``p = min(caps, w / ((w / (F p + v)) @ F))``.
    With ``v > 0`` that map is a standard interference function (positive,
    monotone, scalable), so the iteration from ``p = caps`` decreases
    monotonically to the unique maximizer (Yates 1995; Chiang et al. 2007).
    It stops when ``max |dp| / caps <= LP_TOL``, or after ``LP_MAX_ITERS``
    steps of O(L^2) each. Gains are positive, so a zero-weight user's
    target is exactly 0, and a lone positive-weight user's is infinite,
    which gives its cap.

    ``lp_bound`` is the objective's maximum over the positive-weight users,
    in nats; it bounds the log-SIR value of every achievable point from
    above. The power is feasible by construction.
    """
    der = channel.derive_matrices(inst)
    w, caps = inst.weights, inst.caps
    p = caps
    termination = "max_iters"
    for k in range(1, LP_MAX_ITERS + 1):
        with np.errstate(divide="ignore"):  # a lone positive weight: w / 0
            nxt = np.minimum(caps, w / ((w / (der.F @ p + der.v)) @ der.F))
        step = float(np.max(np.abs(nxt - p) / caps))
        p = nxt
        if step <= LP_TOL:
            termination = "lp_optimal"
            break
    sir = channel.sir_of_power(inst, p)
    weighted = w > 0
    return _report(
        inst,
        p,
        iterations=k,
        termination=termination,
        lp_bound=float(w[weighted] @ np.log(sir[weighted])),
    )


@dataclass(frozen=True)
class OracleResult:
    """Best grid point of the brute-force search."""

    best_power: np.ndarray
    best_value: float
    grid_resolution: int
    refined: bool

    def __post_init__(self):
        _freeze(self, "best_power")


def _phi_points(der, weights, points) -> np.ndarray:
    gamma = points / (points @ der.F.T + der.v)
    return np.log1p(gamma) @ weights


def _grid_best(der, weights, axes):
    """Exhaustive max over the cartesian grid, first (lexicographic) winner."""
    n = len(axes)
    tail = axes[-2:] if n >= 2 else axes
    mesh = np.meshgrid(*tail, indexing="ij")
    block_tail = np.column_stack([m.reshape(-1) for m in mesh])
    best_value = -math.inf
    best_point = None
    head_axes = axes[:-2] if n >= 2 else []
    for prefix in itertools.product(*(range(len(a)) for a in head_axes)):
        block = np.empty((block_tail.shape[0], n))
        for i, j in enumerate(prefix):
            block[:, i] = head_axes[i][j]
        block[:, n - block_tail.shape[1]:] = block_tail
        values = _phi_points(der, weights, block)
        idx = int(np.argmax(values))
        if values[idx] > best_value:
            best_value = float(values[idx])
            best_point = block[idx].copy()
    return best_point, best_value


def oracle_grid(
    inst: channel.ChannelInstance, resolution=201, refine=True
) -> OracleResult:
    """Brute-force maximization of the sum rate over a uniform power grid.

    Evaluates every point of the per-axis ``resolution``-point grid on
    ``[0, caps]`` (endpoints included) and optionally refines once with a
    tenfold finer grid around the best cell. Deterministic: grids are
    evaluated in lexicographic order and ties keep the first maximizer.
    Guarded to four users.
    """
    if inst.users > 4:
        raise ValueError("grid oracle is cost-guarded to at most 4 users")
    if resolution < 11:
        raise ValueError("resolution must be at least 11")
    der = channel.derive_matrices(inst)
    axes = [np.linspace(0.0, float(c), int(resolution)) for c in inst.caps]
    best_point, best_value = _grid_best(der, inst.weights, axes)
    if refine:
        steps = inst.caps / (resolution - 1)
        fine_axes = []
        for i in range(inst.users):
            offsets = np.arange(-10, 11) * (steps[i] / 10.0)
            fine = np.unique(np.clip(best_point[i] + offsets, 0.0, inst.caps[i]))
            fine_axes.append(fine)
        fine_point, fine_value = _grid_best(der, inst.weights, fine_axes)
        if fine_value > best_value or (
            fine_value == best_value and tuple(fine_point) < tuple(best_point)
        ):
            best_point, best_value = fine_point, fine_value
    return OracleResult(
        best_power=best_point,
        best_value=best_value,
        grid_resolution=int(resolution),
        refined=bool(refine),
    )
