"""Command-line driver.

Commands write canonical JSON reports to stdout (or ``--out``). Exit codes:
0 success, 1 usage, schema or file errors, 2 infeasibility (majorization
violations or zero weights in a relaxation, SIR region violations).
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import channel, relaxations, scenario, solvers
from .exceptions import (
    InfeasibleSirError,
    InfeasibleWeightError,
    ScenarioError,
    SumrateError,
)

DEFAULT_MULTISTART = 16
DEFAULT_SEED = 0
DEFAULT_GRID = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumrate",
        description="Weighted sum-rate power allocation: solve, bound, relax.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one of the three solvers")
    solve.add_argument("--scenario", required=True)
    solve.add_argument("--algorithm", choices=scenario.ALGORITHMS, default=None,
                       help="defaults to the scenario's solver.algorithm")
    solve.add_argument("--oracle-check", action="store_true")
    solve.add_argument("--resolution", type=int, default=201,
                       help="oracle grid resolution for --oracle-check")
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--multistart", type=int, default=None)
    solve.add_argument("--polytope-grid", type=int, default=None)
    solve.add_argument("--polytope-K", type=float, default=None)
    solve.add_argument("--out", default=None)

    bounds = sub.add_parser("bounds", help="sandwich bounds on the optimum")
    bounds.add_argument("--scenario", required=True)
    bounds.add_argument("--out", default=None)

    relax = sub.add_parser("relax", help="closed-form relaxed maxima")
    relax.add_argument("--scenario", required=True)
    relax.add_argument("--variant", required=True,
                       help="tilde | noiseless | cap:<l>")
    relax.add_argument("--out", default=None)

    oracle = sub.add_parser("oracle", help="brute-force grid search")
    oracle.add_argument("--scenario", required=True)
    oracle.add_argument("--resolution", type=int, default=201)
    oracle.add_argument("--no-refine", action="store_true")
    oracle.add_argument("--out", default=None)

    gen = sub.add_parser("gen", help="generate a seeded random scenario")
    gen.add_argument("--users", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--cross-lo", type=float, default=0.02)
    gen.add_argument("--cross-hi", type=float, default=0.3)
    gen.add_argument("--out", default=None)
    return parser


def _emit(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_report(doc: dict, out) -> None:
    if out is None:
        sys.stdout.write(scenario.save_report(doc))
    else:
        scenario.save_report(doc, out)


def _solver_report_dict(sc, inst, algorithm, rep, *, seed=None, multistart=None):
    region = channel.in_achievable_region(inst, rep.sir)
    doc = {
        "version": scenario.SCHEMA_VERSION,
        "command": "solve",
        "algorithm": algorithm,
        "scenario_sha256": sc.sha256(),
        "power": rep.power.tolist(),
        "sir": rep.sir.tolist(),
        "objective_nats": rep.objective_value,
        "kkt": {
            "satisfied": bool(rep.kkt_residual <= solvers.KKT_TOL),
            "residual": rep.kkt_residual,
            "s_max": list(rep.active_sets[0]),
            "s_in": list(rep.active_sets[1]),
            "s_0": list(rep.active_sets[2]),
        },
        "iterations": rep.iterations,
        "termination": rep.termination,
        "radii": region.radii.tolist(),
        "bounds": {
            "max_radius": rep.bounds.max_radius,
            "lower_nats": rep.bounds.lower,
            "upper_nats": rep.bounds.upper,
        },
        "lp_bound_nats": rep.lp_bound,
    }
    if seed is not None:
        doc["seed"] = seed
    if multistart is not None:
        doc["multistart"] = multistart
    return doc


def _cmd_solve(args) -> int:
    sc = scenario.load_scenario(args.scenario)
    inst = sc.to_instance()
    opts = {"seed": DEFAULT_SEED, "multistart": DEFAULT_MULTISTART,
            "polytope_grid": DEFAULT_GRID, "polytope_K": None, **sc.solver}
    for key in ("seed", "multistart", "polytope_grid", "polytope_K"):
        value = getattr(args, key)
        if value is not None:
            scenario.check_solver_option(key, value, "--" + key.replace("_", "-"))
            opts[key] = value
    algorithm = args.algorithm or opts.get("algorithm")
    if algorithm is None:
        raise ScenarioError(
            "algorithm: pass --algorithm or set solver.algorithm to one of "
            f"{', '.join(scenario.ALGORITHMS)}"
        )
    seed, multistart = opts["seed"], opts["multistart"]
    grid, poly_K = opts["polytope_grid"], opts["polytope_K"]
    if algorithm == "gradient":
        rep = solvers.solve_gradient_multistart(inst, starts=multistart, seed=seed)
        doc = _solver_report_dict(sc, inst, "gradient", rep, seed=seed,
                                  multistart=multistart)
    elif algorithm == "linearized":
        poly = solvers.build_polytope(inst, K=poly_K, grid=grid)
        rep = solvers.solve_linearized(inst, poly)
        doc = _solver_report_dict(sc, inst, "linearized", rep)
    else:
        rep = solvers.solve_lp_relax(inst)
        doc = _solver_report_dict(sc, inst, "lp", rep)
    if args.oracle_check:
        oracle = solvers.oracle_grid(inst, resolution=args.resolution)
        doc["oracle"] = {
            "resolution": oracle.grid_resolution,
            "refined": oracle.refined,
            "best_power": oracle.best_power.tolist(),
            "best_value_nats": oracle.best_value,
            "gap_nats": rep.objective_value - oracle.best_value,
        }
    _emit_report(doc, args.out)
    return 0


def _cmd_bounds(args) -> int:
    sc = scenario.load_scenario(args.scenario)
    inst = sc.to_instance()
    bounds = relaxations.objective_bounds(inst)
    doc = {
        "version": scenario.SCHEMA_VERSION,
        "command": "bounds",
        "scenario_sha256": sc.sha256(),
        "max_radius": bounds.max_radius,
        "lower_nats": bounds.lower,
        "upper_nats": bounds.upper,
        "uniform_sir_power": relaxations.uniform_sir_power(inst).tolist(),
    }
    _emit_report(doc, args.out)
    return 0


def _cmd_relax(args) -> int:
    sc = scenario.load_scenario(args.scenario)
    inst = sc.to_instance()
    variant = args.variant
    if variant == "tilde":
        sol = relaxations.relaxed_max_tilde(inst)
    elif variant == "noiseless":
        sol = relaxations.relaxed_max_noiseless(inst)
    elif variant == "cap" or variant.startswith("cap:"):
        if variant == "cap":
            cap_index = relaxations.default_cap_index(inst)
        else:
            try:
                cap_index = int(variant.split(":", 1)[1])
            except ValueError:
                raise ScenarioError(
                    f"variant: cap index in {variant!r} must be an integer"
                ) from None
        sol = relaxations.relaxed_max_noiseless(inst, cap_index=cap_index)
    else:
        raise ScenarioError(
            f"variant: unknown value {variant!r}; expected tilde, noiseless, "
            "or cap:<l>"
        )
    doc = {
        "version": scenario.SCHEMA_VERSION,
        "command": "relax",
        "variant": variant,
        "scenario_sha256": sc.sha256(),
        "gamma_star": sol.gamma_star.tolist(),
        "relaxed_value_nats": sol.relaxed_value,
        "certificate": {
            "rho": sol.certificate.rho,
            "weight_residual": float(
                np.max(np.abs(sol.certificate.weights() - inst.weights))
            ),
        },
        "lifted_power": None if sol.lifted_power is None else sol.lifted_power.tolist(),
        "certified_global": sol.certified_global,
    }
    if sol.lifted_power is not None:
        lift = np.clip(sol.lifted_power, 0.0, inst.caps)
        doc["lifted_objective_nats"] = channel.objective(
            inst.weights, channel.sir_of_power(inst, lift)
        )
    _emit_report(doc, args.out)
    return 0


def _cmd_oracle(args) -> int:
    sc = scenario.load_scenario(args.scenario)
    inst = sc.to_instance()
    result = solvers.oracle_grid(
        inst, resolution=args.resolution, refine=not args.no_refine
    )
    doc = {
        "version": scenario.SCHEMA_VERSION,
        "command": "oracle",
        "scenario_sha256": sc.sha256(),
        "resolution": result.grid_resolution,
        "refined": result.refined,
        "best_power": result.best_power.tolist(),
        "best_value_nats": result.best_value,
    }
    _emit_report(doc, args.out)
    return 0


def _cmd_gen(args) -> int:
    sc = scenario.generate_instance(
        args.users,
        seed=args.seed,
        cross_range=(args.cross_lo, args.cross_hi),
    )
    _emit(scenario.save_scenario(sc), args.out)
    return 0


_DISPATCH = {
    "solve": _cmd_solve,
    "bounds": _cmd_bounds,
    "relax": _cmd_relax,
    "oracle": _cmd_oracle,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap to 1
        return 0 if exc.code == 0 else 1
    try:
        return _DISPATCH[args.command](args)
    except (InfeasibleWeightError, InfeasibleSirError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (SumrateError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
