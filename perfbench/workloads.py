"""Workloads: seeded scenario files and the ``sumrate`` calls made on them.

A pass is a list of CLI calls. It is built from rounds: every round draws
one fresh scenario per entry of ``Workload.users`` and runs every command of
the workload on it, so any prefix of a pass has the same mix of sizes. The
number of rounds is ``seconds * rounds_per_s``, which sizes one pass to about
``seconds`` of wall time on a 2-core AMD EPYC (Python 3.11, numpy 2.4,
OpenBLAS pinned to one thread). Fixed scenarios run once per pass, before
the rounds.

All randomness comes from the workload seed: scenario seeds are drawn from
``random.Random(f"{name}/{seed}")``, and ``sumrate.generate_instance`` is
deterministic in its own seed.

Which end-to-end figures each layer should move, and where:

* ``spectral.spectral_radius``: call times and ``calls_per_s`` on
  ``gradient_scale`` (most of an L=64 call, through ``objective_bounds``)
  and ``certify_large``; barely ``polytope_small``.
* ``spectral.perron_pair`` and ``spectral.is_irreducible``: call times on
  ``polytope_small`` and ``weak_coupling``, and ``failed_frac`` on
  ``weak_coupling``; no calls on ``gradient_scale``.
* ``spectral.diagonal_scaling`` and ``spectral.inverse_weight``: call times
  on ``certify_large`` and ``weak_coupling``.
* ``simplex.simplex_max``, ``build_polytope`` hyperplanes and
  ``solve_linearized`` steps: call times, ``regret_nats.max`` and
  ``mislabeled_frac`` on ``polytope_small`` only.
* ``solve_gradient``, ``kkt_classify`` and the channel maps: call times,
  ``calls_per_s`` and ``kkt_ok_frac`` on ``gradient_scale``.
* ``solvers.oracle_grid``: ``setup_s`` on ``polytope_small``.

``weak_coupling`` always includes ``gen --users 4 --seed 2`` at weak
coupling, on which ``relax --variant cap`` fails with ``ConvergenceError``;
so it is the one workload where failures are expected, and it is left out
of ``BENCHMARK.json``, whose workloads run without failing calls.
"""
from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import sumrate

NORMAL_CROSS = (0.02, 0.3)
WEAK_CROSS = (1e-4, 1e-3)

GRADIENT = ("solve", "--algorithm", "gradient")
LINEARIZED = ("solve", "--algorithm", "linearized")
LP = ("solve", "--algorithm", "lp")
BOUNDS = ("bounds",)
RELAX_TILDE = ("relax", "--variant", "tilde")
RELAX_CAP = ("relax", "--variant", "cap")

# Oracle grid resolution per user count: fine enough that the reference is
# within 1e-6 nats of the gradient optimum, cheap enough to repeat in set-up.
ORACLE_RESOLUTION = {2: 201, 3: 101, 4: 31}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    users: tuple  # one fresh scenario per entry, every round
    commands: tuple  # argv prefixes run on every scenario
    rounds_per_s: float
    cross_range: tuple = NORMAL_CROSS
    fixed: tuple = ()  # names of FIXED_SCENARIOS run once per pass
    oracle: bool = False  # compute oracle_grid references in set-up


@dataclass(frozen=True)
class Call:
    index: int
    label: str  # scenario file stem
    users: int
    scenario: Path
    argv: tuple  # without --out

    @property
    def kind(self) -> str:
        return self.argv[0]

    @property
    def command(self) -> str:
        return " ".join(self.argv[: self.argv.index("--scenario")])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gradient_scale",
            "solve --algorithm gradient at L in {8,16,32,64}: the main user path, "
            "gradient loop plus per-start objective_bounds radii",
            # two L=32 draws per round put the median call inside one size
            users=(8, 16, 32, 32, 64),
            commands=(GRADIENT,),
            rounds_per_s=0.8,
        ),
        Workload(
            "certify_large",
            "bounds and relax tilde/cap at L in {32,64,96}: spectral radii and "
            "the inverse_weight/diagonal_scaling/Perron chain, no solver",
            users=(32, 64, 96),
            commands=(BOUNDS, RELAX_TILDE, RELAX_CAP),
            rounds_per_s=1.55,
        ),
        Workload(
            "polytope_small",
            "solve linearized and lp at L in {3,4} plus e1.json, against "
            "oracle_grid: the only path through build_polytope and simplex",
            users=(3, 4, 4),
            commands=(LINEARIZED, LP),
            rounds_per_s=0.8,
            fixed=("e1",),
            oracle=True,
        ),
        Workload(
            "weak_coupling",
            "relax tilde/cap and gradient with cross gains 1e-4..1e-3 at "
            "L in {4,8,16} plus the known failing L=4 seed-2 case",
            users=(4, 8, 16),
            commands=(RELAX_TILDE, RELAX_CAP, GRADIENT),
            rounds_per_s=1.9,
            cross_range=WEAK_CROSS,
            fixed=("weak4_seed2",),
        ),
    )
}


def _e1(root: Path, path: Path) -> None:
    shutil.copyfile(root / "tests" / "data" / "e1.json", path)


def _weak4_seed2(root: Path, path: Path) -> None:
    # relax --variant cap raises ConvergenceError on this scenario
    sumrate.save_scenario(
        sumrate.generate_instance(4, seed=2, cross_range=WEAK_CROSS), path
    )


FIXED_SCENARIOS = {"e1": _e1, "weak4_seed2": _weak4_seed2}


def rounds_for(workload: Workload, seconds: float) -> int:
    return max(1, round(seconds * workload.rounds_per_s))


def make_plan(workload: Workload, seed: int, rounds: int, scenario_dir: Path,
              root: Path) -> list:
    """Write the pass's scenario files and return its calls in order."""
    scenario_dir.mkdir(parents=True, exist_ok=True)
    files = []  # (label, users, path)
    for name in workload.fixed:
        path = scenario_dir / f"{name}.json"
        FIXED_SCENARIOS[name](root, path)
        files.append((name, sumrate.scenario.load_scenario(path).users, path))
    rng = random.Random(f"{workload.name}/{seed}")
    for r in range(rounds):
        for users in workload.users:
            instance_seed = rng.randrange(2**31)
            label = f"r{r:03d}-L{users}-s{instance_seed}"
            path = scenario_dir / f"{label}.json"
            sumrate.save_scenario(
                sumrate.generate_instance(
                    users, seed=instance_seed, cross_range=workload.cross_range
                ),
                path,
            )
            files.append((label, users, path))
    calls = []
    for label, users, path in files:
        for command in workload.commands:
            argv = (*command, "--scenario", str(path))
            calls.append(Call(len(calls), label, users, path, argv))
    return calls


def warmup_calls(workload: Workload, calls) -> list:
    """A ``bounds`` call on the first scenario of the first round.

    It loads the numpy and LAPACK paths every command uses, at a cost that
    depends on the scenario's size but not on its draw.
    """
    first = calls[len(workload.fixed) * len(workload.commands)]
    return [Call(0, "warmup", first.users, first.scenario,
                 (*BOUNDS, "--scenario", str(first.scenario)))]


def oracle_references(calls) -> dict:
    """Grid-oracle optimum (nats) of every scenario in the pass, by path."""
    refs = {}
    for call in calls:
        if call.scenario in refs:
            continue
        inst = sumrate.scenario.load_scenario(call.scenario).to_instance()
        refs[call.scenario] = sumrate.solvers.oracle_grid(
            inst, resolution=ORACLE_RESOLUTION[call.users]
        ).best_value
    return refs
