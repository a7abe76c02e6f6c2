"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps the public names that evomin's callers look up at call
time (module attributes and class methods), records one span per call and
puts every original object back when it exits.  A span carries its name,
start, end, parent span, the exception type it ended with (if any) and an
optional number taken from the call (a matrix size, an iteration count).
Spans of one job are taken out with `take()`; the caller keeps them for
as long as it needs them.

A span's self time is its duration minus the time its direct children
cover.  Calls are sequential in one thread, so children never overlap.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "applications", "operator", "potential", "energy", "minimize",
          "oracle", "trajectory", "triple")

ROOT = "cli.main"
CONJUGATE = {"potential.conjugate", "potential.conjugate_argmax"}
ORACLE = {"oracle.implicit_euler_solve"}
MINIMIZE = {"minimize.minimize"}
CHECKERS = {"operator.check_monotonicity", "operator.check_coercivity"}
GROWTH = {"potential.check_growth"}
SERIALIZE = {"cli.json_dump", "trajectory.to_csv", "minimize.trace_to_csv",
             "energy.breakdown_to_csv"}


def _matrix_size(args, result):
    return args[0].shape[0]


def _iterations(args, result):
    return result.iterations


def _samples(args, result):
    return result.samples


# (module, class or None, attribute, span name, note).  The span name's first
# component is the layer.  Names imported into another module are wrapped
# where the caller looks them up, e.g. `evomin.cli.minimize`.
TARGETS = (
    ("evomin.cli", None, "build_problem", "cli.build_problem", None),
    ("evomin.cli", None, "_json_dump", "cli.json_dump", None),
    ("evomin.cli", None, "minimize", "minimize.minimize", _iterations),
    ("evomin.cli", None, "verify_equivalence", "minimize.verify_equivalence", None),
    ("evomin.cli", None, "trace_to_csv", "minimize.trace_to_csv", None),
    ("evomin.cli", None, "implicit_euler_solve", "oracle.implicit_euler_solve", None),
    ("evomin.cli", None, "energy_breakdown", "energy.breakdown", None),
    ("evomin.cli", None, "energy_balance_audit", "energy.balance_audit", None),
    ("evomin.cli", None, "breakdown_to_csv", "energy.breakdown_to_csv", None),
    ("evomin.cli", None, "residual", "trajectory.residual", None),
    ("evomin.cli", None, "trajectory_to_csv", "trajectory.to_csv", None),
    ("evomin.cli", None, "check_monotonicity", "operator.check_monotonicity", _samples),
    ("evomin.cli", None, "check_coercivity", "operator.check_coercivity", _samples),
    ("evomin.cli", None, "check_growth", "potential.check_growth", _samples),
    ("evomin.minimize", None, "energy_breakdown", "energy.breakdown", None),
    ("evomin.minimize", None, "energy_gradient", "energy.gradient", None),
    ("evomin.minimize", None, "residual", "trajectory.residual", None),
    ("evomin.oracle", None, "lu_factor", "oracle.lu_factor", _matrix_size),
    ("evomin.oracle", None, "lu_solve", "oracle.lu_solve", None),
    ("evomin.oracle", None, "_step_residual", "oracle.step_residual", None),
    ("evomin.operator", "OperatorLambda", "__call__", "operator.lambda", None),
    ("evomin.operator", "OperatorLambda", "dlambda_adjoint", "operator.adjoint", None),
    ("evomin.operator", "OperatorLambda", "jacobian_matrix", "operator.jacobian", None),
    ("evomin.potential", "Potential", "conjugate", "potential.conjugate", None),
    ("evomin.potential", "Potential", "conjugate_argmax", "potential.conjugate_argmax", None),
    ("evomin.potential", "Potential", "grad", "potential.grad", None),
    ("evomin.potential", "Potential", "hess_matrix", "potential.hess_matrix", None),
    ("evomin.applications", "StreamFunctionBasis", "convection_dual",
     "applications.convection", None),
    ("evomin.applications", "StreamFunctionBasis", "convection_dual_linearized",
     "applications.convection", None),
    ("evomin.applications", "StreamFunctionBasis", "convection_jacobian",
     "applications.convection_jacobian", None),
    ("evomin.triple", "EvolutionTriple", "__post_init__", "triple.construct", None),
    ("evomin.triple", "EvolutionTriple", "apply_t", "triple.apply", None),
    ("evomin.triple", "EvolutionTriple", "apply_t_adjoint", "triple.apply", None),
    ("evomin.triple", "EvolutionTriple", "apply_inclusions", "triple.apply", None),
    ("evomin.triple", "EvolutionTriple", "apply_i", "triple.apply", None),
    ("evomin.triple", "EvolutionTriple", "h_inner", "triple.h_inner", None),
) + tuple(
    ("evomin.applications", None, f"build_{family}", "applications.build", None)
    for family in ("scalar_decay", "anticoercive_fixture", "parabolic_divergence", "heat",
                   "parabolic_nondivergence", "hyperbolic", "schrodinger",
                   "navier_stokes_2d", "heat_core")
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "error", "note")

    def __init__(self, name, parent, start, end=0.0, error=None, note=None):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.error = error
        self.note = note

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager: wraps every name in TARGETS on entry, restores them on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for module, cls, attr, name, note in TARGETS:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                    original = owner.__dict__[attr]
                else:
                    original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, note))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str):
        """Record an explicit span around a block (the job's root span)."""
        span = self._open(name)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._close(span)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, note):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            if note is not None:
                span.note = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by id(span)."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[id(s.parent)] += s.duration
    return {id(s): s.duration - covered[id(s)] for s in spans}


def _has_ancestor(span: Span, names) -> bool:
    p = span.parent
    while p is not None:
        if p.name in names:
            return True
        p = p.parent
    return False


def outermost(spans, names, under=None) -> list[Span]:
    """Spans named in `names` that are not nested in another such span,
    optionally only those inside a span named in `under`."""
    return [s for s in spans
            if s.name in names and not _has_ancestor(s, names)
            and (under is None or _has_ancestor(s, under))]


def busy(spans, names, under=None) -> float:
    return sum(s.duration for s in outermost(spans, names, under))


def calls(spans, names, under=None) -> int:
    return len(outermost(spans, names, under))


def job_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced job (see perfbench/README.md)."""
    m: dict[str, float] = {}
    root = [s for s in spans if s.name == ROOT]
    m["traced_job_s"] = sum(s.duration for s in root)

    iterations = sum(s.note for s in spans if s.name in MINIMIZE and s.note is not None)
    fg = [s for s in spans if s.name == "energy.breakdown" and _has_ancestor(s, MINIMIZE)]
    minimized = any(s.name in MINIMIZE for s in spans)
    m["lbfgs_iters"] = iterations
    m["energy.fg_evals"] = len(fg)
    m["energy.breakdown_s"] = busy(spans, {"energy.breakdown"})
    m["energy.gradient_s"] = busy(spans, {"energy.gradient"})
    m["minimize.backtracks"] = len(fg) - iterations - 1 if minimized else 0
    m["minimize.rejected_trials"] = sum(rejected_trials(spans).values())
    m["minimize.accept_ratio"] = iterations / len(fg) if fg else 0.0

    m["potential.conjugate_calls"] = calls(spans, CONJUGATE)
    m["potential.conjugate_s"] = busy(spans, CONJUGATE)
    m["potential.conjugate_newton_iters"] = sum(
        1 for s in spans if s.name == "potential.hess_matrix" and _has_ancestor(s, CONJUGATE))
    m["potential.conjugate_failures"] = sum(
        1 for s in outermost(spans, CONJUGATE) if s.error == "ConjugateFailure")
    m["potential.grad_calls"] = calls(spans, {"potential.grad"})
    m["potential.grad_s"] = busy(spans, {"potential.grad"})

    for short, name in (("lambda", "operator.lambda"), ("adjoint", "operator.adjoint"),
                        ("jacobian", "operator.jacobian")):
        m[f"operator.{short}_calls"] = calls(spans, {name})
        m[f"operator.{short}_s"] = busy(spans, {name})

    lu = [s for s in spans if s.name == "oracle.lu_factor" and _has_ancestor(s, ORACLE)]
    m["euler_newton_iters"] = len(lu)
    m["oracle.jacobian_s"] = busy(spans, {"operator.jacobian", "potential.hess_matrix"},
                                  under=ORACLE)
    m["oracle.lu_s"] = busy(spans, {"oracle.lu_factor", "oracle.lu_solve"})
    m["oracle.lu_flop_computed"] = sum(2.0 * s.note ** 3 / 3.0 for s in lu)
    m["oracle.residual_s"] = busy(spans, {"oracle.step_residual"})

    m["applications.build_s"] = busy(spans, {"applications.build"})
    m["applications.convection_s"] = busy(spans, {"applications.convection"})
    m["applications.convection_jacobian_s"] = busy(spans, {"applications.convection_jacobian"})

    m["triple.construct_s"] = busy(spans, {"triple.construct"})
    m["triple.apply_calls"] = calls(spans, {"triple.apply"})
    m["triple.apply_s"] = busy(spans, {"triple.apply"})

    m["operator.check_s"] = busy(spans, CHECKERS)
    m["potential.check_growth_s"] = busy(spans, GROWTH)
    checked = outermost(spans, CHECKERS | GROWTH)
    check_s = sum(s.duration for s in checked)
    m["operator.samples_per_s"] = (sum(s.note for s in checked) / check_s) if check_s else 0.0

    m["trajectory.residual_s"] = busy(spans, {"trajectory.residual"})
    m["cli.serialize_s"] = busy(spans, SERIALIZE)

    own = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own[id(s)] for s in spans if s.layer == layer)
    return m


def rejected_trials(spans: list[Span]) -> dict[str, int]:
    """Energy evaluations inside `minimize` that raised, by exception type.

    One trial point raises at most once: a failing breakdown skips the
    gradient of that trial.
    """
    out: dict[str, int] = defaultdict(int)
    for s in spans:
        if (s.name in ("energy.breakdown", "energy.gradient") and s.error is not None
                and _has_ancestor(s, MINIMIZE)):
            out[s.error] += 1
    return dict(out)
