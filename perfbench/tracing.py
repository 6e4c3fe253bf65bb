"""Per-layer spans recorded from outside the program.

``Tracer.installed()`` replaces each public function listed in ``LAYERS``
with a wrapper, by setting the attribute of the module that callers look it
up in, and puts the originals back on exit. Calls inside a module resolve
through the module's globals, which are those attributes, so nested calls
are caught too. The wrappers only time and count: arguments, results and
exceptions pass through unchanged.

Each wrapper records a span (operation, parent span, start, end, raised,
work count). Spans of one CLI call are folded into per-operation totals when
the call ends: calls, self time (span time minus child spans) and failures,
plus the work counts of ``WORK_COUNTS``.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

# layer name -> (module whose attribute is replaced, function names)
LAYERS = {
    "spectral": ("sumrate.spectral", (
        "spectral_radius", "perron_pair", "is_irreducible",
        "supporting_hyperplane", "diagonal_scaling", "inverse_weight",
    )),
    "channel": ("sumrate.channel", (
        "derive_matrices", "sir_of_power", "power_of_sir", "objective",
        "objective_gradient_p", "in_achievable_region",
    )),
    "relaxations": ("sumrate.relaxations", (
        "objective_bounds", "relaxed_max_tilde", "relaxed_max_noiseless",
        "default_cap_index",
    )),
    "solvers": ("sumrate.solvers", (
        "solve_gradient_multistart", "solve_gradient", "kkt_classify",
        "build_polytope", "lp_solve", "solve_linearized", "solve_lp_relax",
        "oracle_grid",
    )),
    # solvers binds simplex_max by name at import, so its copy is the one used
    "simplex": ("sumrate.solvers", ("simplex_max",)),
    "scenario": ("sumrate.scenario", ("load_scenario", "save_report")),
    "cli": ("sumrate.cli", ("main",)),
}

OPERATIONS = tuple(
    f"{layer}.{name}" for layer, (_, names) in LAYERS.items() for name in names
)

# operation -> (counter name, count from (args, kwargs, result))
WORK_COUNTS = {
    "solvers.solve_gradient": ("iterations", lambda a, k, r: r.iterations),
    "solvers.build_polytope": ("hyperplanes", lambda a, k, r: len(r.hyperplanes)),
    "solvers.solve_linearized": ("steps", lambda a, k, r: r.iterations),
    "simplex.simplex_max": ("rows", lambda a, k, r: len(a[1])),  # simplex_max(c, A, b)
}

# span fields
OP, PARENT, START, END, RAISED, WORK = range(6)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.failed = Counter()
        self.work = Counter()
        self.not_restored = []
        # observations compared with the ROADMAP baseline
        self.hyperplanes = defaultdict(set)  # users -> hyperplane counts
        self.starts_per_multistart = set()
        self.radii_per_bounds = set()  # spectral_radius children minus users
        self.perron_failures = Counter()  # call label -> failed perron_pair spans
        self._spans = []
        self._stack = []

    def _wrap(self, op, fn):
        spans, stack = self._spans, self._stack
        count = WORK_COUNTS.get(op, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [op, stack[-1] if stack else -1, perf_counter(), 0.0, False, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if count is not None:
                span[WORK] = count(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every listed function; restore and verify the originals on exit."""
        originals = []
        try:
            for layer, (module_name, names) in LAYERS.items():
                module = importlib.import_module(module_name)
                for name in names:
                    fn = getattr(module, name)
                    originals.append((module, name, fn))
                    setattr(module, name, self._wrap(f"{layer}.{name}", fn))
            yield self
        finally:
            for module, name, fn in reversed(originals):
                setattr(module, name, fn)
            self.not_restored += [
                f"{module.__name__}.{name}"
                for module, name, fn in originals
                if getattr(module, name) is not fn
            ]

    def fold(self, label=None, users=None):
        """Add the spans recorded since the last fold to the totals."""
        spans = self._spans
        child_s = [0.0] * len(spans)
        child_ops = Counter()  # (parent span, child operation) -> spans
        for span in spans:
            parent = span[PARENT]
            if parent >= 0:
                child_s[parent] += span[END] - span[START]
                child_ops[parent, span[OP]] += 1
        for i, span in enumerate(spans):
            op = span[OP]
            self.calls[op] += 1
            self.self_s[op] += span[END] - span[START] - child_s[i]
            self.failed[op] += span[RAISED]
            if op in WORK_COUNTS:
                self.work[f"{op}.{WORK_COUNTS[op][0]}"] += span[WORK]
            if op == "solvers.build_polytope" and not span[RAISED]:
                self.hyperplanes[users].add(span[WORK])
            elif op == "solvers.solve_gradient_multistart":
                self.starts_per_multistart.add(child_ops[i, "solvers.solve_gradient"])
            elif op == "relaxations.objective_bounds" and users is not None:
                self.radii_per_bounds.add(
                    child_ops[i, "spectral.spectral_radius"] - users
                )
            elif op == "spectral.perron_pair" and span[RAISED]:
                self.perron_failures[label] += 1
        spans.clear()

    def metrics(self) -> dict:
        """Per-operation totals and work counts, every operation included."""
        out = {}
        for op in OPERATIONS:
            out[f"{op}.calls"] = (self.calls[op], "count")
            out[f"{op}.self_s"] = (self.self_s[op], "s")
            out[f"{op}.failed"] = (self.failed[op], "count")
        for op, (counter, _) in WORK_COUNTS.items():
            out[f"{op}.{counter}"] = (self.work[f"{op}.{counter}"], "count")
        return out
