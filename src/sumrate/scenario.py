"""Scenario and report files: schema, canonical serialization, generation.

Scenario schema (JSON object, version 1)::

    {
      "version": 1,
      "users": <int L >= 2>,
      "tones": 1,                             # optional; must be 1
      "gains": L x L (or 1 x L x L) positive numbers,
      "gains_unit": "linear" | "db",          # optional, default "linear"
      "noise": L (or 1 x L) positive numbers,
      "noise_unit": "linear" | "dbm",         # optional, default "linear"
      "caps": L positive numbers,
      "weights": L nonnegative numbers summing to 1,   # optional, default uniform
      "snr_gap": number >= 1,                 # optional, default 1
      "solver": {                             # optional, every key optional
        "algorithm": "gradient" | "linearized" | "lp",
        "seed": <int >= 0>, "multistart": <int >= 1>,
        "polytope_grid": <int >= 2>, "polytope_K": <finite number> | null,
        "kkt_tol": <finite number > 0>
      }
    }

Loading normalizes to canonical form: units converted to linear once (dB
gains via ``10**(db/10)``, dBm noise likewise), unit flags dropped, weights
made explicit, and the one-tone form (a leading tone axis of length one on
gains and noise) squeezed to the flat form (they are the same problem, and
must hash identically). The channel is single carrier: ``tones`` other than
1 is rejected.
Numbers are serialized with 17 significant digits, so save/load round trips
are bit-stable and canonical output is byte-deterministic.

The scenario hash covers the problem content only (not solver options): it
is the SHA-256 of the canonical serialization of the problem fields.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import channel
from .exceptions import ScenarioError

__all__ = [
    "Scenario",
    "SCHEMA_VERSION",
    "canonical_json",
    "load_scenario",
    "parse_scenario",
    "save_scenario",
    "save_report",
    "generate_instance",
    "verify_report",
]

SCHEMA_VERSION = 1
VERIFY_TOL = 1e-10

ALGORITHMS = ("gradient", "linearized", "lp")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


# solver key -> (valid value test, constraint named in the error)
_SOLVER_RULES = {
    "algorithm": (lambda x: x in ALGORITHMS, f"must be one of {', '.join(ALGORITHMS)}"),
    "seed": (lambda x: _is_int(x) and x >= 0, "must be an integer >= 0"),
    "multistart": (lambda x: _is_int(x) and x >= 1, "must be an integer >= 1"),
    "polytope_grid": (lambda x: _is_int(x) and x >= 2, "must be an integer >= 2"),
    "polytope_K": (
        lambda x: x is None or _is_finite_number(x), "must be a finite number or null"
    ),
    "kkt_tol": (lambda x: _is_finite_number(x) and x > 0, "must be a finite number > 0"),
}
_SOLVER_KEYS = tuple(_SOLVER_RULES)


def _format_number(x) -> str:
    if isinstance(x, bool):
        raise ValueError("unexpected boolean in numeric position")
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("cannot serialize non-finite numbers")
    return format(x, ".17g")


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, no whitespace, 17-digit floats."""

    def emit(v):
        if v is None:
            return "null"
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, str):
            return json.dumps(v)
        if isinstance(v, (int, float, np.integer, np.floating)):
            return _format_number(v)
        if isinstance(v, np.ndarray):
            v = v.tolist()
        if isinstance(v, (list, tuple)):
            return "[" + ",".join(emit(item) for item in v) + "]"
        if isinstance(v, dict):
            items = sorted(v.items())
            return "{" + ",".join(json.dumps(str(k)) + ":" + emit(val) for k, val in items) + "}"
        raise ValueError(f"cannot serialize {type(v).__name__}")

    return emit(value) + "\n"


@dataclass
class Scenario:
    """Canonical in-memory scenario of a single-carrier channel."""

    users: int
    gains: np.ndarray  # (L, L), linear
    noise: np.ndarray  # (L,), linear
    caps: np.ndarray  # (L,)
    weights: np.ndarray  # (L,)
    snr_gap: float = 1.0
    solver: dict = field(default_factory=dict)

    def problem_dict(self) -> dict:
        # "tones": 1 keeps scenario hashes and saved files as they always were
        return {
            "version": SCHEMA_VERSION,
            "users": int(self.users),
            "tones": 1,
            "gains": self.gains.tolist(),
            "noise": self.noise.tolist(),
            "caps": self.caps.tolist(),
            "weights": self.weights.tolist(),
            "snr_gap": float(self.snr_gap),
        }

    def canonical_dict(self) -> dict:
        d = self.problem_dict()
        solver = {k: self.solver[k] for k in _SOLVER_KEYS if k in self.solver}
        if solver:
            d["solver"] = solver
        return d

    def sha256(self) -> str:
        return hashlib.sha256(canonical_json(self.problem_dict()).encode()).hexdigest()

    def to_instance(self) -> channel.ChannelInstance:
        return channel.ChannelInstance(
            gains=self.gains,
            noise=self.noise,
            caps=self.caps,
            weights=self.weights,
            snr_gap=self.snr_gap,
        )


def _require(condition, fieldname, constraint):
    if not condition:
        raise ScenarioError(f"{fieldname}: {constraint}")


def _numeric_array(raw, fieldname, shape, *, tone_axis=False):
    """Finite float array of ``shape``; with ``tone_axis`` a leading axis of
    length one (the one-tone form) is squeezed away."""
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{fieldname}: must be an array of numbers") from None
    if tone_axis and arr.ndim == len(shape) + 1 and arr.shape[0] == 1:
        arr = arr[0]
    _require(arr.shape == shape, fieldname, f"must have shape {shape}, got {arr.shape}")
    _require(bool(np.all(np.isfinite(arr))), fieldname, "must be finite")
    return arr


def parse_scenario(raw: dict) -> Scenario:
    """Validate a raw scenario mapping and normalize it to canonical form."""
    _require(isinstance(raw, dict), "scenario", "must be a JSON object")
    unknown = set(raw) - {
        "version", "users", "tones", "gains", "gains_unit", "noise", "noise_unit",
        "caps", "weights", "snr_gap", "solver",
    }
    _require(not unknown, "scenario", f"unknown fields {sorted(unknown)}")
    version = raw.get("version", SCHEMA_VERSION)
    _require(
        _is_int(version) and version == SCHEMA_VERSION,
        "version",
        f"must be {SCHEMA_VERSION}",
    )
    users = raw.get("users")
    _require(_is_int(users) and users >= 2, "users", "must be an integer >= 2")
    tones = raw.get("tones", 1)
    _require(
        _is_int(tones) and tones == 1,
        "tones",
        "must be 1 (the channel model is single carrier)",
    )

    gains_unit = raw.get("gains_unit", "linear")
    _require(gains_unit in ("linear", "db"), "gains_unit", "must be 'linear' or 'db'")
    noise_unit = raw.get("noise_unit", "linear")
    _require(noise_unit in ("linear", "dbm"), "noise_unit", "must be 'linear' or 'dbm'")

    _require("gains" in raw, "gains", "is required")
    _require("noise" in raw, "noise", "is required")
    _require("caps" in raw, "caps", "is required")

    gains = _numeric_array(raw["gains"], "gains", (users, users), tone_axis=True)
    if gains_unit == "db":
        gains = 10.0 ** (gains / 10.0)
    _require(bool(np.all(gains > 0)), "gains", "must be entrywise positive (linear)")

    noise = _numeric_array(raw["noise"], "noise", (users,), tone_axis=True)
    if noise_unit == "dbm":
        noise = 10.0 ** (noise / 10.0)
    _require(bool(np.all(noise > 0)), "noise", "must be entrywise positive (linear)")

    caps = _numeric_array(raw["caps"], "caps", (users,))
    _require(bool(np.all(caps > 0)), "caps", "must be entrywise positive")

    if "weights" in raw:
        weights = _numeric_array(raw["weights"], "weights", (users,))
        _require(bool(np.all(weights >= 0)), "weights", "must be nonnegative")
        _require(
            abs(float(weights.sum()) - 1.0) <= 1e-9, "weights", "must sum to one"
        )
        weights = weights / weights.sum()
    else:
        weights = np.full(users, 1.0 / users)

    snr_gap = raw.get("snr_gap", 1.0)
    _require(
        isinstance(snr_gap, (int, float)) and not isinstance(snr_gap, bool),
        "snr_gap",
        "must be a number >= 1",
    )
    snr_gap = float(_numeric_array(snr_gap, "snr_gap", ()))
    _require(snr_gap >= 1.0, "snr_gap", "must be a number >= 1")

    solver = raw.get("solver", {})
    _require(isinstance(solver, dict), "solver", "must be an object")
    unknown_solver = set(solver) - set(_SOLVER_KEYS)
    _require(not unknown_solver, "solver", f"unknown keys {sorted(unknown_solver)}")
    for key, value in solver.items():
        valid, constraint = _SOLVER_RULES[key]
        _require(valid(value), f"solver.{key}", constraint)

    return Scenario(
        users=users,
        gains=gains,
        noise=noise,
        caps=caps,
        weights=weights,
        snr_gap=snr_gap,
        solver=dict(solver),
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except OSError as exc:
        raise ScenarioError(
            f"scenario file cannot be read: {path}: {exc.strerror}"
        ) from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from None
    return parse_scenario(raw)


def save_scenario(scenario: Scenario, path=None) -> str:
    text = canonical_json(scenario.canonical_dict())
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def save_report(report: dict, path=None) -> str:
    """Serialize a report mapping to canonical JSON (to ``path`` if given)."""
    text = canonical_json(report)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def generate_instance(
    users,
    seed=0,
    *,
    cross_range=(0.02, 0.3),
    direct_range=(0.5, 2.0),
    noise_range=(0.05, 0.2),
    cap_range=(0.5, 2.0),
    weight_floor=0.2,
    snr_gap=1.0,
) -> Scenario:
    """Seeded random scenario with parameterized diagonal dominance.

    Direct gains are drawn from ``direct_range`` and cross gains from
    ``cross_range`` (relative to one), so smaller ``cross_range`` means a
    more diagonally dominant channel. All randomness flows from the single
    integer seed.
    """
    if users < 2:
        raise ValueError("users must be >= 2")
    rng = np.random.default_rng(int(seed))
    gains = rng.uniform(cross_range[0], cross_range[1], (users, users))
    np.fill_diagonal(gains, rng.uniform(direct_range[0], direct_range[1], users))
    noise = rng.uniform(noise_range[0], noise_range[1], users)
    caps = rng.uniform(cap_range[0], cap_range[1], users)
    weights = rng.uniform(weight_floor, 1.0, users)
    weights = weights / weights.sum()
    return Scenario(
        users=int(users),
        gains=gains,
        noise=noise,
        caps=caps,
        weights=weights,
        snr_gap=float(snr_gap),
        solver={"seed": int(seed)},
    )


def verify_report(scenario: Scenario, report: dict) -> None:
    """Recompute the stored objective and constraint radii from the stored
    power and require agreement within ``VERIFY_TOL``. Raises ScenarioError on
    mismatch; reports are self-verifying by construction."""
    inst = scenario.to_instance()
    if "power" not in report:
        raise ScenarioError("report: missing power field")
    power = np.asarray(report["power"], dtype=float)
    sir = channel.sir_of_power(inst, power)
    objective = channel.objective(inst.weights, sir)
    stored = float(report["objective_nats"])
    if abs(objective - stored) > VERIFY_TOL:
        raise ScenarioError(
            f"report: stored objective {stored!r} deviates from recomputation "
            f"{objective!r}"
        )
    if "radii" in report:
        radii = channel.in_achievable_region(inst, sir).radii
        stored_radii = np.asarray(report["radii"], dtype=float)
        if stored_radii.shape != radii.shape or np.any(
            np.abs(stored_radii - radii) > VERIFY_TOL
        ):
            raise ScenarioError("report: stored constraint radii deviate")
