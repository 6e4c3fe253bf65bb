"""The lockstep gradient kernel against a sequential reference ascent.

``_reference_solve_gradient`` runs projected gradient ascent from one start
at a time, one vector per map call, with its own copies of the gradient, the
stationarity residual and the objective evaluation. Every lane of the kernel
must equal it bit for bit: final power, iteration count, termination label,
KKT residual and the objective the multistart winner is picked by.
"""
import numpy as np
import pytest

import sumrate as sr
from sumrate import channel, solvers

BANDS = [(1e-6, 1e-5), (1e-4, 1e-3), (1e-2, 1e-1), (0.1, 1.0), (0.5, 2.0)]


def _reference_gradient(inst, p):
    # J(p)^T (w / (1 + gamma)) without the Jacobian J(p)
    der = channel.derive_matrices(inst)
    denom = der.F @ p + der.v
    gamma = p / denom
    x = inst.weights / (1.0 + gamma) / denom
    return x - der.F.T @ (gamma * x)


def _reference_kkt(inst, p):
    """``(satisfied, residual, gradient)`` as the sequential kkt_classify had them."""
    caps = inst.caps
    grad = _reference_gradient(inst, np.clip(p, 0.0, caps))
    at_zero = p <= solvers.BOUNDARY_TOL
    at_cap = caps - p <= solvers.BOUNDARY_TOL
    cap_idx = list(np.flatnonzero(at_cap))
    zero_idx = list(np.flatnonzero(at_zero & ~at_cap))
    in_idx = list(np.flatnonzero(~at_cap & ~at_zero))
    violation = np.zeros_like(p)
    if cap_idx:
        violation[cap_idx] = np.maximum(0.0, -grad[cap_idx])
    if zero_idx:
        violation[zero_idx] = np.maximum(0.0, grad[zero_idx])
    if in_idx:
        violation[in_idx] = np.abs(grad[in_idx])
    residual = float(np.max(violation))
    return residual <= solvers.KKT_TOL, residual, grad


def _reference_phi(inst, p):
    return channel.objective(inst.weights, channel.sir_of_power(inst, p))


def _reference_snap(p, caps):
    eps = 1e-12 * np.maximum(1.0, caps)
    p = np.where(p <= eps, 0.0, p)
    return np.where(caps - p <= eps, caps, p)


def _reference_solve_gradient(inst, p0=None, callback=None):
    """Sequential ascent from one start: ``(power, iterations, termination,
    kkt_residual, objective)``."""
    caps = inst.caps
    p = caps.copy() if p0 is None else np.clip(np.asarray(p0, dtype=float), 0.0, caps)
    phi = _reference_phi(inst, p)
    if callback is not None:
        callback(p.copy(), phi)
    termination = "max_iters"
    iterations = solvers.GRADIENT_MAX_ITERS
    for k in range(solvers.GRADIENT_MAX_ITERS):
        satisfied, _, a = _reference_kkt(inst, p)
        if satisfied:
            termination, iterations = "kkt_satisfied", k
            break
        at_zero = p <= solvers.BOUNDARY_TOL
        at_cap = caps - p <= solvers.BOUNDARY_TOL
        b = np.where(at_zero & (a < 0), 0.0, a)
        b = np.where(at_cap & (b > 0), 0.0, b)
        if not np.any(b != 0.0):
            termination, iterations = "stalled", k
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            t_up = np.where(b > 0, (caps - p) / b, np.inf)
            t_down = np.where(b < 0, p / -b, np.inf)
        t = float(min(np.min(t_up), np.min(t_down)))
        slope = float(a @ b)
        accepted = False
        while t >= solvers.MIN_STEP:
            candidate = _reference_snap(np.clip(p + t * b, 0.0, caps), caps)
            value = _reference_phi(inst, candidate)
            if value >= phi + solvers.ARMIJO * t * slope:
                p, phi, accepted = candidate, value, True
                if callback is not None:
                    callback(p.copy(), phi)
                break
            t *= solvers.BACKTRACK_SHRINK
        if not accepted:
            termination, iterations = "stalled", k
            break
    power = np.clip(p, 0.0, caps)
    objective = _reference_phi(inst, power)
    return power, iterations, termination, _reference_kkt(inst, power)[1], objective


def _reference_starts(inst, starts, seed):
    rng = np.random.default_rng(seed)
    return [inst.caps] + [
        rng.uniform(0.0, 1.0, inst.users) * inst.caps for _ in range(starts - 1)
    ]


def _reference_multistart(inst, starts, seed):
    best = None
    for p0 in _reference_starts(inst, starts, seed):
        result = _reference_solve_gradient(inst, p0)
        if (
            best is None
            or result[4] > best[4]
            or (result[4] == best[4] and tuple(result[0]) < tuple(best[0]))
        ):
            best = result
    return best


def _lane(inst, lanes, s):
    power = lanes.power[s]
    return (
        power.tobytes(),
        int(lanes.iterations[s]),
        lanes.termination[s],
        sr.kkt_classify(inst, power).residual,
        float(lanes.value[s]),  # the objective at the final point
    )


def _as_lane(result):
    power, iterations, termination, residual, objective = result
    return power.tobytes(), iterations, termination, residual, objective


def _assert_lanes_match_reference(inst, starts=16, seed=0):
    P = np.array(_reference_starts(inst, starts, seed))
    lanes = solvers._ascend(inst, P)
    for s, p0 in enumerate(P):
        assert _lane(inst, lanes, s) == _as_lane(_reference_solve_gradient(inst, p0))
    report = sr.solve_gradient_multistart(inst, starts=starts, seed=seed)
    reference = _reference_multistart(inst, starts, seed)
    assert (
        report.power.tobytes(), report.iterations, report.termination,
        report.kkt_residual, report.objective_value,
    ) == _as_lane(reference)
    return lanes


def _scaled(users, seed, cross, scale):
    # caps and noise scaled together: same SIRs, gradients 1/scale larger,
    # so the absolute stationarity tolerance is out of reach and lanes stall
    sc = sr.generate_instance(users, seed=seed, cross_range=cross)
    sc.caps = np.asarray(sc.caps) * scale
    sc.noise = np.asarray(sc.noise) * scale
    return sc.to_instance()


@pytest.mark.parametrize("cross", BANDS)
@pytest.mark.parametrize("users", [2, 3, 8, 32])
def test_lanes_equal_sequential_runs(users, cross):
    inst = sr.generate_instance(users, seed=users, cross_range=cross).to_instance()
    _assert_lanes_match_reference(inst)


def test_reference_instance_lanes(e1):
    _assert_lanes_match_reference(e1)


@pytest.mark.parametrize("seed", [0, 4])
def test_multimodal_instance_lanes(seed):
    # gen --users 3 --seed 210 --cross-lo 0.1 --cross-hi 1, which has several
    # local maxima; multistart seeds 0 and 4 miss the global one
    inst = sr.generate_instance(3, seed=210, cross_range=(0.1, 1.0)).to_instance()
    _assert_lanes_match_reference(inst, seed=seed)


@pytest.mark.parametrize("scale", [1e-6, 1e-10])
def test_stalled_lanes_equal_sequential_runs(scale):
    # at 1e-10 every cap is below BOUNDARY_TOL, so no coordinate is free
    inst = _scaled(3, 1, (0.5, 2.0), scale)
    lanes = _assert_lanes_match_reference(inst)
    assert {"stalled", "kkt_satisfied"} <= set(lanes.termination)


def test_max_iters_lanes_equal_sequential_runs(monkeypatch):
    monkeypatch.setattr(solvers, "GRADIENT_MAX_ITERS", 16)
    inst = sr.generate_instance(8, seed=8, cross_range=(0.02, 0.3)).to_instance()
    lanes = _assert_lanes_match_reference(inst)
    assert {"max_iters", "kkt_satisfied"} <= set(lanes.termination)


def _reference_search(inst, p):
    """Steps the reference's line search at ``p`` tries, ignoring ``MIN_STEP``:
    ``t_max`` halved until the Armijo test passes, the passing step last."""
    caps = inst.caps
    phi = _reference_phi(inst, p)
    _, _, a = _reference_kkt(inst, p)
    b = np.where((p <= solvers.BOUNDARY_TOL) & (a < 0), 0.0, a)
    b = np.where((caps - p <= solvers.BOUNDARY_TOL) & (b > 0), 0.0, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_up = np.where(b > 0, (caps - p) / b, np.inf)
        t_down = np.where(b < 0, p / -b, np.inf)
    steps = [float(min(np.min(t_up), np.min(t_down)))]
    while True:
        t = steps[-1]
        candidate = _reference_snap(np.clip(p + t * b, 0.0, caps), caps)
        if _reference_phi(inst, candidate) >= phi + solvers.ARMIJO * t * float(a @ b):
            return steps
        steps.append(t * solvers.BACKTRACK_SHRINK)


def _iterates(inst, p0):
    """Every point the reference ascent from ``p0`` steps from."""
    trace = []
    _reference_solve_gradient(inst, p0, callback=lambda p, v: trace.append(p))
    return trace[:-1]


def test_lanes_needing_more_than_one_block_of_halvings():
    # from the cap corner the line searches need up to 18 halvings, so an
    # iteration runs into a second and a third block
    inst = sr.generate_instance(3, seed=1, cross_range=(0.02, 0.3)).to_instance()
    halvings = [len(_reference_search(inst, p)) - 1 for p in _iterates(inst, inst.caps)]
    assert max(halvings) > 2 * solvers.BACKTRACK_BLOCK
    _assert_lanes_match_reference(inst)


@pytest.mark.parametrize("users, seed, block", [(3, 2, 0), (3, 1, 1)])
def test_min_step_crossed_inside_a_block(monkeypatch, users, seed, block):
    # start at the first iterate whose search passes Armijo inside block
    # ``block`` but not at a block's first step; put MIN_STEP between that
    # step and the one before, so the step that passes is too small and the
    # lane stalls at once, as the reference does
    inst = sr.generate_instance(users, seed=seed, cross_range=(0.02, 0.3)).to_instance()
    size = solvers.BACKTRACK_BLOCK
    p, steps = next(
        (p, steps)
        for p in _iterates(inst, inst.caps)
        for steps in [_reference_search(inst, p)]
        if (len(steps) - 1) // size == block and (len(steps) - 1) % size
    )
    monkeypatch.setattr(solvers, "MIN_STEP", 1.5 * steps[-1])
    lanes = solvers._ascend(inst, p[None])
    assert _lane(inst, lanes, 0) == _as_lane(_reference_solve_gradient(inst, p))
    assert (lanes.termination[0], lanes.iterations[0]) == ("stalled", 0)
    assert lanes.power[0].tobytes() == p.tobytes()
    _assert_lanes_match_reference(inst)


class TestLaneIndependence:
    @pytest.fixture
    def mixed(self):
        """An instance whose lanes stall and converge after differing counts."""
        inst = _scaled(3, 1, (0.5, 2.0), 1e-6)
        P = np.array(_reference_starts(inst, 8, 3))
        lanes = solvers._ascend(inst, P)
        assert len(set(lanes.termination)) > 1 and len(set(lanes.iterations.tolist())) > 1
        return inst, P

    def test_reordered_lanes_unchanged(self, mixed):
        inst, P = mixed
        lanes = solvers._ascend(inst, P)
        order = np.array([5, 0, 7, 2, 6, 1, 4, 3])
        shuffled = solvers._ascend(inst, P[order])
        for i, s in enumerate(order):
            assert _lane(inst, shuffled, i) == _lane(inst, lanes, s)

    @pytest.mark.parametrize("keep", [[6], [1, 4], [7, 0, 3]])
    def test_dropped_lanes_unchanged(self, mixed, keep):
        inst, P = mixed
        lanes = solvers._ascend(inst, P)
        kept = solvers._ascend(inst, P[keep])
        for i, s in enumerate(keep):
            assert _lane(inst, kept, i) == _lane(inst, lanes, s)

    @pytest.mark.parametrize("users, seed", [(2, 0), (3, 210), (8, 1)])
    def test_one_start_is_solve_gradient(self, users, seed):
        inst = sr.generate_instance(users, seed=seed, cross_range=(0.1, 1.0)).to_instance()
        multi = sr.solve_gradient_multistart(inst, starts=1, seed=seed)
        single = sr.solve_gradient(inst)
        assert multi.power.tobytes() == single.power.tobytes()
        assert multi.sir.tobytes() == single.sir.tobytes()
        assert (
            multi.objective_value, multi.kkt_residual, multi.active_sets,
            multi.iterations, multi.termination, multi.bounds,
        ) == (
            single.objective_value, single.kkt_residual, single.active_sets,
            single.iterations, single.termination, single.bounds,
        )

    def test_every_start_is_one_solve_gradient_call(self, monkeypatch):
        inst = sr.generate_instance(8, seed=1).to_instance()
        reports = []

        def recording(*args, **kwargs):
            reports.append(solve_gradient(*args, **kwargs))
            return reports[-1]

        solve_gradient = solvers.solve_gradient
        monkeypatch.setattr(solvers, "solve_gradient", recording)
        best = sr.solve_gradient_multistart(inst, starts=5, seed=2)
        P = np.array(_reference_starts(inst, 5, 2))
        assert [
            (r.power.tobytes(), r.iterations, r.termination, r.kkt_residual,
             r.objective_value)
            for r in reports
        ] == [_as_lane(_reference_solve_gradient(inst, p0)) for p0 in P]
        assert any(best is r for r in reports)

    def test_callback_trace_unchanged(self):
        # the start and instance of test_solvers' monotone-trace test
        inst = sr.generate_instance(3, seed=8).to_instance()
        p0 = np.full(3, 0.1) * inst.caps
        trace, expected = [], []
        sr.solve_gradient(inst, p0, callback=lambda p, v: trace.append((p, v)))
        _reference_solve_gradient(
            inst, p0, callback=lambda p, v: expected.append((p, v))
        )
        assert len(trace) == len(expected) >= 2
        for (p, v), (q, u) in zip(trace, expected):
            assert p.tobytes() == q.tobytes() and v == u and type(v) is float
