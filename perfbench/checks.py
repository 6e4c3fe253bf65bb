"""Output checks and the quality figures read from ``sumrate`` reports.

Every call's report is checked independently of the program's own claims:

* solve reports pass ``scenario.verify_report`` (objective and radii
  recomputed from the stored power), the power lies in the cap box, and
  ``objective_nats <= bounds.upper_nats``; on ``e1.json`` the objective is
  ``log 6`` within 1e-9;
* bounds reports have ``lower_nats <= upper_nats``;
* relax reports carry a certificate with ``|rho - 1| <= 1e-8``.

A call fails when it returns nonzero, raises, or fails a check.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import sumrate

CERT_RHO_TOL = 1e-8
E1_TOL = 1e-9
LOG6 = math.log(6.0)
CLAIMS_OPTIMAL = ("kkt_satisfied", "lp_optimal")


@dataclass(frozen=True)
class Outcome:
    """What one CLI call did: wall time, error text or report bytes."""

    seconds: float
    error: Optional[str]  # nonzero exit or exception, else None
    report: Optional[bytes]


def check_report(call, scenario, report: dict) -> list:
    """Problems found in one report; an empty list means it passed."""
    problems = []
    if call.kind == "solve":
        try:
            sumrate.scenario.verify_report(scenario, report)
        except sumrate.ScenarioError as exc:
            problems.append(f"verify_report: {exc}")
        power = np.asarray(report["power"], dtype=float)
        if np.any(power < 0) or np.any(power > scenario.caps):
            problems.append("power outside the cap box")
        if not report["objective_nats"] <= report["bounds"]["upper_nats"]:
            problems.append("objective_nats above bounds.upper_nats")
        if call.label == "e1" and abs(report["objective_nats"] - LOG6) > E1_TOL:
            problems.append(f"e1 objective {report['objective_nats']!r} != log 6")
    elif call.kind == "bounds":
        if not report["lower_nats"] <= report["upper_nats"]:
            problems.append("bounds: lower_nats above upper_nats")
    elif call.kind == "relax":
        if abs(report["certificate"]["rho"] - 1.0) > CERT_RHO_TOL:
            problems.append(f"certificate rho {report['certificate']['rho']!r} != 1")
    return problems


@dataclass
class Evaluation:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failed the output check (as opposed to erroring)
    solves: int = 0
    kkt_ok: int = 0
    mislabeled: int = 0
    objectives: list = field(default_factory=list)
    regrets: list = field(default_factory=list)
    problems: list = field(default_factory=list)  # (label, command, problem)


def evaluate(calls, passes, references=None) -> Evaluation:
    """Check every outcome of every pass and tally failures and quality.

    ``passes`` is a list of outcome lists aligned with ``calls``. Identical
    report bytes of the same call are checked once. ``references`` maps a
    scenario path to its oracle optimum, for the regret figure.
    """
    ev = Evaluation()
    scenarios = {}
    verdicts = {}
    for outcomes in passes:
        for call, outcome in zip(calls, outcomes):
            ev.attempted += 1
            if call.kind == "solve":
                ev.solves += 1
            if outcome.error is not None:
                ev.failed += 1
                _note(ev, call, outcome.error)
                continue
            key = (call.index, outcome.report)
            if key not in verdicts:
                if call.scenario not in scenarios:
                    scenarios[call.scenario] = sumrate.scenario.load_scenario(
                        call.scenario
                    )
                report = json.loads(outcome.report)
                verdicts[key] = (report, check_report(call, scenarios[call.scenario], report))
            report, problems = verdicts[key]
            if problems:
                ev.failed += 1
                ev.wrong += 1
                for problem in problems:
                    _note(ev, call, problem)
                continue
            if call.kind == "solve":
                satisfied = report["kkt"]["satisfied"]
                ev.kkt_ok += satisfied
                ev.mislabeled += (
                    report["termination"] in CLAIMS_OPTIMAL and not satisfied
                )
                ev.objectives.append(report["objective_nats"])
                if references and call.scenario in references:
                    ev.regrets.append(
                        references[call.scenario] - report["objective_nats"]
                    )
    return ev


def _note(ev, call, problem):
    if len(ev.problems) < 20:
        ev.problems.append((call.label, call.command, problem))
