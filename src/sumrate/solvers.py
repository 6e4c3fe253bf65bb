"""Solvers: projected gradient ascent, polytope-based linearization, the LP
relaxation, stationarity classification, and the brute-force grid oracle.

The polytope methods work in log-SIR coordinates, where the achievable
region is the intersection of the convex sets
``log rho(diag(exp(xi)) B[l]) <= 0``. The region is outer-approximated by
the box ``[-K, log gamma_bar]`` plus supporting hyperplanes anchored at
boundary points; boundary anchors come from a power grid on
``[floor, caps]`` restricted to points with at least one cap-coordinate,
with ``floor`` the power image of the uniform SIR ``exp(-K)``.
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
MIN_STEP = 1e-12
LINEARIZED_MAX_STEPS = 100

TERMINATIONS = ("kkt_satisfied", "max_iters", "lp_optimal", "projected", "stalled")
"""Why a solver stopped, as reported in ``SolverReport.termination``.

* ``kkt_satisfied``: the reported power passes :func:`kkt_classify`.
* ``max_iters``: the iteration or step budget ran out first.
* ``lp_optimal``: the polytope LP could not improve on the current vertex,
  and the reported power passes :func:`kkt_classify`.
* ``projected``: the LP vertex lifted outside the cap box and was clamped
  back into it (``solve_lp_relax``).
* ``stalled``: no further progress was possible at a point that fails
  :func:`kkt_classify`: no increasing step of at least ``MIN_STEP`` in the
  gradient solver, or an LP optimum whose power is not stationary.
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


def kkt_classify(inst: channel.ChannelInstance, p, *, tol=KKT_TOL) -> KktReport:
    """First-order sign conditions for a local maximum on the cap box.

    The gradient must be >= -tol at capped coordinates, zero within tol at
    interior coordinates, and <= tol at zeroed coordinates; the residual is
    the largest violation. Coordinates within ``BOUNDARY_TOL`` of a bound
    count as on it.
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
    violation = np.zeros_like(p)
    cap_idx = list(s_max)
    zero_idx = list(s_0)
    in_idx = list(s_in)
    if cap_idx:
        violation[cap_idx] = np.maximum(0.0, -grad[cap_idx])
    if zero_idx:
        violation[zero_idx] = np.maximum(0.0, grad[zero_idx])
    if in_idx:
        violation[in_idx] = np.abs(grad[in_idx])
    residual = float(np.max(violation)) if p.size else 0.0
    return KktReport(
        s_max=s_max,
        s_in=s_in,
        s_0=s_0,
        satisfied=bool(residual <= tol),
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
    lp_bound: Optional[float] = None

    def __post_init__(self):
        if self.termination not in TERMINATIONS:
            raise ValueError(f"unknown termination {self.termination!r}")
        _freeze(self, "power", "sir")


def _report(inst, power, *, iterations, termination, lp_bound=None,
            kkt_tol=KKT_TOL) -> SolverReport:
    power = np.clip(np.asarray(power, dtype=float).reshape(-1), 0.0, inst.caps)
    sir = channel.sir_of_power(inst, power)
    kkt = kkt_classify(inst, power, tol=kkt_tol)
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
    return channel.objective(inst.weights, channel.sir_of_power(inst, p, check_region=False))


def _snap(p, caps):
    """Snap near-boundary coordinates exactly onto the boundary."""
    eps = 1e-12 * np.maximum(1.0, caps)
    p = np.where(p <= eps, 0.0, p)
    return np.where(caps - p <= eps, caps, p)


def solve_gradient(
    inst: channel.ChannelInstance,
    p0=None,
    *,
    kkt_tol=KKT_TOL,
    callback=None,
) -> SolverReport:
    """Projected gradient ascent on the cap box.

    The ascent direction copies the gradient but zeroes coordinates that sit
    on a bound and point outward. Backtracking starts from the largest step
    that stays in the box and accepts on a sufficient-increase test, so the
    objective strictly increases at every accepted step (Armijo factor
    ``ARMIJO``, step shrink ``BACKTRACK_SHRINK``). Terminates at a
    stationarity-classified point, after ``GRADIENT_MAX_ITERS`` iterations, or
    with a stall when no increasing step of at least ``MIN_STEP`` exists.
    ``callback(p, value)`` runs once at the start and after every accepted
    step.
    """
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
    phi = _phi(inst, p)
    if callback is not None:
        callback(p.copy(), phi)
    termination = "max_iters"
    iterations = GRADIENT_MAX_ITERS
    for k in range(GRADIENT_MAX_ITERS):
        kkt = kkt_classify(inst, p, tol=kkt_tol)
        if kkt.satisfied:
            termination = "kkt_satisfied"
            iterations = k
            break
        a = kkt.gradient
        at_zero, at_cap = _boundary_masks(p, caps)
        b = np.where(at_zero & (a < 0), 0.0, a)
        b = np.where(at_cap & (b > 0), 0.0, b)
        if not np.any(b != 0.0):
            termination = "stalled"
            iterations = k
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            t_up = np.where(b > 0, (caps - p) / b, np.inf)
            t_down = np.where(b < 0, p / -b, np.inf)
        t_max = float(min(np.min(t_up), np.min(t_down)))
        slope = float(a @ b)  # sum of squared gradient entries over free coords
        t = t_max
        accepted = False
        while t >= MIN_STEP:
            candidate = _snap(np.clip(p + t * b, 0.0, caps), caps)
            value = _phi(inst, candidate)
            if value >= phi + ARMIJO * t * slope:
                p, phi = candidate, value
                accepted = True
                if callback is not None:
                    callback(p.copy(), phi)
                break
            t *= BACKTRACK_SHRINK
        if not accepted:
            termination = "stalled"
            iterations = k
            break
    return _report(
        inst, p, iterations=iterations, termination=termination, kkt_tol=kkt_tol
    )


def solve_gradient_multistart(
    inst: channel.ChannelInstance, *, starts=16, seed=0, **options
) -> SolverReport:
    """Best of ``starts`` gradient runs: the cap corner plus seeded random
    interior starts. Ties break toward the lexicographically smallest power."""
    if starts < 1:
        raise ValueError("starts must be >= 1")
    rng = np.random.default_rng(seed)
    best = None
    for s in range(starts):
        p0 = inst.caps if s == 0 else rng.uniform(0.0, 1.0, inst.users) * inst.caps
        report = solve_gradient(inst, p0, **options)
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
    region with coordinates above ``-K``.
    """

    hyperplanes: tuple
    box_low: np.ndarray
    box_high: np.ndarray
    K: float
    anchors: tuple

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

    ``grid`` gives the number of equidistant points per power axis (scalar or
    per-axis); anchors are the grid points with at least one coordinate at
    its cap, each contributing one hyperplane per active cap. ``K`` bounds
    the log-SIR box from below and must exceed ``log R``; the default is
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
    counts = np.broadcast_to(np.asarray(grid, dtype=int), (n,))
    if np.any(counts < 2):
        raise ValueError("grid must have at least 2 points per axis")
    floor = np.linalg.solve(math.exp(K) * np.eye(n) - der.F, der.v)
    axes = []
    for i in range(n):
        m_i = int(counts[i])
        # j = 0 is exactly the cap; the floor endpoint itself is excluded
        vals = [(j * floor[i] + (m_i - j) * inst.caps[i]) / m_i for j in range(m_i)]
        vals[0] = inst.caps[i]
        axes.append(np.array(vals))
    anchors = []
    hyperplanes = []
    for jtuple in itertools.product(*(range(int(m)) for m in counts)):
        if min(jtuple) != 0:
            continue
        p = np.array([axes[i][j] for i, j in enumerate(jtuple)])
        zeta = np.log(channel.sir_of_power(inst, p))
        anchors.append(zeta)
        for l, j in enumerate(jtuple):
            if j == 0:
                hyperplanes.append(spectral.supporting_hyperplane(der.B[l], zeta))
    return Polytope(
        hyperplanes=tuple(hyperplanes),
        box_low=np.full(n, -K),
        box_high=np.log(der.gamma_bar),
        K=K,
        anchors=tuple(anchors),
    )


def lp_solve(objective, polytope: Polytope):
    """Exact vertex maximizer of a linear objective over the polytope.

    Returns ``(vertex, value)``. Deterministic under Bland's rule; with a
    zero objective the initial basic feasible vertex (the lower box corner)
    is returned.
    """
    objective = np.asarray(objective, dtype=float).reshape(-1)
    n = polytope.dim
    if objective.shape != (n,):
        raise ValueError(f"objective must have length {n}")
    width = polytope.box_high - polytope.box_low
    rows = [h.normal for h in polytope.hyperplanes]
    rhs = [float(h.normal @ (h.anchor - polytope.box_low)) for h in polytope.hyperplanes]
    if rows:
        A = np.vstack([np.array(rows), np.eye(n)])
        b = np.concatenate([np.array(rhs), width])
    else:
        A = np.eye(n)
        b = width.copy()
    if np.any(b < -1e-9):
        raise RuntimeError("polytope construction bug: lower box corner infeasible")
    x, _ = simplex_max(objective, A, np.maximum(b, 0.0))
    vertex = polytope.box_low + x
    return vertex, float(objective @ vertex)


def _lift_to_box(inst, xi):
    """Power candidate for a log-SIR point, clamped into the cap box.

    Returns ``(raw, clamped, in_region)``: ``raw`` is the exact lifted power
    when the point lies strictly inside the SIR region, else None (the point
    is first pulled inside along its ray, a defensive branch for polytope
    vertices beyond the region surface).
    """
    der = channel.derive_matrices(inst)
    gamma = np.exp(np.asarray(xi, dtype=float).reshape(-1))
    rho = spectral.spectral_radius(gamma[:, None] * der.F)
    if rho < 1.0 - 1e-9:
        raw = channel.power_of_sir(inst, gamma)
        return raw, np.clip(raw, 0.0, inst.caps), True
    pulled = channel.power_of_sir(inst, gamma * (1.0 - 1e-6) / rho)
    return None, np.clip(pulled, 0.0, inst.caps), False


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
    inst: channel.ChannelInstance,
    polytope: Optional[Polytope] = None,
    xi0=None,
    *,
    kkt_tol=KKT_TOL,
) -> SolverReport:
    """Successive linearization over the supporting-hyperplane polytope.

    From the current vertex, maximize the first-order model of the sum rate
    (an LP) to reach a strictly better vertex, lift it to powers, and stop
    as soon as the lifted point is in the box and stationarity-classified.
    Vertex revisits and non-improving LP steps end the walk; the report then
    carries the best cap-clamped lift seen. ``lp_bound`` is a chordal upper
    bound on the sum rate over the polytope, which contains the truncated
    log-SIR region.
    """
    poly = polytope if polytope is not None else build_polytope(inst)
    w = inst.weights
    if xi0 is None:
        xi, _ = lp_solve(np.zeros(poly.dim), poly)
    else:
        xi = np.asarray(xi0, dtype=float).reshape(-1)
        if xi.shape != (poly.dim,):
            raise ValueError(f"xi0 must have length {poly.dim}")
        if not poly.contains(xi, tol=1e-7):
            raise ValueError("xi0 is not a point of the polytope")
    bound = _chord_bound(inst, poly)

    best_power = None
    best_value = -math.inf

    def consider(p_clamped):
        nonlocal best_power, best_value
        value = _phi(inst, p_clamped)
        if value > best_value:
            best_power, best_value = p_clamped, value

    _, clamped, _ = _lift_to_box(inst, xi)
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
        raw, clamped, in_region = _lift_to_box(inst, xi)
        if in_region and np.all(raw >= -1e-12) and np.all(raw <= inst.caps * (1 + 1e-12)):
            p_exact = _snap(np.clip(raw, 0.0, inst.caps), inst.caps)
            kkt = kkt_classify(inst, p_exact, tol=kkt_tol)
            if kkt.satisfied:
                return _report(
                    inst, p_exact, iterations=steps, termination="kkt_satisfied",
                    lp_bound=bound, kkt_tol=kkt_tol,
                )
        consider(clamped)
        if xi.tobytes() in visited:
            termination = "lp_optimal"
            break
        visited.add(xi.tobytes())
    return _report(
        inst, best_power, iterations=steps, termination=termination,
        lp_bound=bound, kkt_tol=kkt_tol,
    )


def solve_lp_relax(
    inst: channel.ChannelInstance,
    polytope: Optional[Polytope] = None,
    *,
    kkt_tol=KKT_TOL,
) -> SolverReport:
    """One-shot LP relaxation: maximize ``w @ xi`` over the polytope.

    The LP value (``lp_bound``, nats) upper-bounds the log-SIR objective over
    the truncated region. The optimal vertex is lifted to powers and
    cap-clamped when needed; the reported objective is always recomputed at
    the final feasible power.
    """
    poly = polytope if polytope is not None else build_polytope(inst)
    xi, lp_value = lp_solve(inst.weights, poly)
    raw, clamped, in_region = _lift_to_box(inst, xi)
    projected = not in_region or raw is None or bool(
        np.any(raw < -1e-12) or np.any(raw > inst.caps * (1 + 1e-12))
    )
    power = _snap(clamped, inst.caps)
    return _report(
        inst,
        power,
        iterations=1,
        termination="projected" if projected else "lp_optimal",
        lp_bound=float(lp_value),
        kkt_tol=kkt_tol,
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
