"""Weighted sum-rate power allocation in Gaussian interference channels.

The model is one carrier shared by L transmit/receive pairs (a CDMA cell
or one tone of a DSL binder). Spectral machinery for the achievable SIR
region, analytic bounds and closed-form relaxations, three solvers
(projected gradient, successive linearization over a supporting-hyperplane
polytope, and the exact log-SIR relaxation by a fixed-point iteration), a
brute-force grid oracle, and a scenario/report file layer with a CLI.
"""

from .channel import (
    ChannelInstance,
    DerivedMatrices,
    derive_matrices,
    in_achievable_region,
    objective,
    objective_gradient_p,
    objective_log,
    power_of_sir,
    sir_of_power,
)
from .exceptions import (
    ConvergenceError,
    InfeasibleSirError,
    InfeasibleWeightError,
    ReducibleMatrixError,
    ScenarioError,
    SumrateError,
)
from .relaxations import (
    BoundsReport,
    RelaxedSolution,
    default_cap_index,
    objective_bounds,
    relaxed_max_noiseless,
    relaxed_max_tilde,
    uniform_sir_power,
)
from .scenario import (
    Scenario,
    canonical_json,
    generate_instance,
    load_scenario,
    parse_scenario,
    save_report,
    save_scenario,
    verify_report,
)
from .solvers import (
    KktReport,
    OracleResult,
    Polytope,
    SolverReport,
    build_polytope,
    kkt_classify,
    lp_solve,
    oracle_grid,
    solve_gradient,
    solve_gradient_multistart,
    solve_linearized,
    solve_lp_relax,
)
from .spectral import (
    Hyperplane,
    PerronPair,
    ScalingPair,
    constraint_radii,
    diagonal_scaling,
    fk_scaling_lower_bound,
    fk_z_upper_bound,
    inverse_weight,
    is_irreducible,
    perron_pair,
    spectral_radius,
    supporting_hyperplane,
)

__version__ = "0.1.0"
