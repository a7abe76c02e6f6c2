"""Batch front door: config parsing, run orchestration, artifact emission.

Configs are YAML files with sections problem / grid / time / solver /
checks / output plus a seed; see docs in the README and the JSON schemas
under evomin/schemas for the emitted artifacts.  With timing disabled
(the default) a fixed config and seed reproduce every output file byte
for byte.

Exit codes: 0 converged / all checks clean, 2 non-convergence, check
violations or a numerical failure during the run, 1 configuration errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import applications as apps
from .checks import check_coercivity, check_growth, check_monotonicity
from .continuation import (checked_schedule, continuation_solve, continuation_to_csv,
                           default_schedule)
from .energy import breakdown_to_csv, energy_balance_audit, energy_breakdown
from .minimize import MinimizeOptions, minimize, trace_to_csv, verify_equivalence
from .operator import OperatorEvaluationError
from .oracle import DEFAULT_NEWTON_TOL, StepFailure, implicit_euler_solve
from .potential import ConjugateFailure, Potential
from .trajectory import residual, trajectory_to_csv

# every option that a command reads, by section, with the type it is read as;
# a kind takes "kind" and the problem keys that its BUILDERS entry reads.  Any
# other key is a config error, so that a misspelt option does not silently
# stand for its default, and float and int values are checked before any run
# (None: checked on its own in `validate`, or read as it is).
OPTIONS = {
    "problem": {"kind": None, "q": float, "reaction": float, "flux": float, "gamma": float,
                "damping": float, "nonlinearity": float, "couplings": None,
                "viscosity": float, "initial": None},
    "grid": {"n": int, "k": int},
    "time": {"t0": None, "t1": float, "steps": None},
    "solver": {"method": None, "j_tol": float, "g_tol": float, "newton_tol": float,
               "max_iterations": int, "eps_schedule": None},
    "compare": {"j_tol": float, "g_tol": float, "state_tol": float, "residual_tol": float,
                "perturb": float, "oracle_steps": None},
    "checks": {"run": None, "samples": int, "c0": float},
    "output": {"directory": None, "formats": None, "timing": None, "workers": None},
}


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    problem: dict = field(default_factory=lambda: {"kind": "heat"})
    grid: dict = field(default_factory=lambda: {"n": 32})
    time: dict = field(default_factory=lambda: {"t0": 0.0, "t1": 0.1, "steps": 50})
    solver: dict = field(default_factory=lambda: {"method": "ben"})
    checks: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    compare: dict = field(default_factory=dict)
    seed: int = 0

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = yaml.safe_load(fh)
        except (OSError, yaml.YAMLError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must be a mapping of sections")
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        cfg = cls()
        known = {*OPTIONS, "seed"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown, key=str)}")
        for key in known:
            if key in raw and raw[key] is not None:
                setattr(cfg, key, raw[key])
        cfg.validate()
        return cfg

    def validate(self) -> None:
        for name in OPTIONS:
            if not isinstance(getattr(self, name), dict):
                raise ConfigError(f"{name} must be a mapping, got {getattr(self, name)!r}")
        kind = self.problem.get("kind")
        if kind not in BUILDERS:
            raise ConfigError(f"problem.kind must be one of {tuple(BUILDERS)}, got {kind!r}")
        for name, options in OPTIONS.items():
            section = getattr(self, name)
            unknown = set(section) - ({"kind", *BUILDERS[kind][0]} if name == "problem"
                                      else set(options))
            if unknown:
                where = f"problem kind {kind}" if name == "problem" else name
                raise ConfigError(f"unknown {where} options: {sorted(unknown, key=str)}")
            for key, raw in section.items():
                if options[key] is not None:
                    value = _number(f"{name}.{key}", raw, options[key])
                    if name == "solver" and key != "max_iterations" and not value > 0:
                        raise ConfigError(f"solver.{key} must be positive")
        steps = self.time.get("steps")
        if not isinstance(steps, int) or steps < 1:
            raise ConfigError("time.steps must be an integer >= 1")
        if self.time.get("t0", 0.0) != 0:
            raise ConfigError(f"time.t0 must be 0, got {self.time['t0']!r}: every "
                              "problem's horizon starts at t = 0")
        method = self.solver.get("method", "ben")
        if method not in ("ben", "euler", "continuation"):
            raise ConfigError(f"solver.method must be ben|euler|continuation, got {method!r}")
        couplings = self.problem.get("couplings", [0.0, 0.0])
        if not (isinstance(couplings, list) and len(couplings) == 2):
            raise ConfigError("problem.couplings must be a list of two numbers, "
                              f"got {couplings!r}")
        for value in couplings:
            _number("problem.couplings", value, float)
        schedule = self.solver.get("eps_schedule")
        if isinstance(schedule, dict):
            unknown = set(schedule) - {"start", "factor", "levels"}
            if unknown:
                raise ConfigError(f"unknown solver.eps_schedule keys: {sorted(unknown, key=str)}")
            for key, raw in schedule.items():
                _number(f"solver.eps_schedule.{key}", raw, int if key == "levels" else float)
        elif isinstance(schedule, list) and schedule:
            for raw in schedule:
                _number("solver.eps_schedule", raw, float)
        elif schedule is not None:
            raise ConfigError("solver.eps_schedule must be a non-empty list of eps values or "
                              f"a mapping of start, factor and levels, got {schedule!r}")
        _eps_schedule(self)     # the values: a decreasing list, or default_schedule's ranges
        if self.checks.get("samples", 0) < 0:
            raise ConfigError(f"checks.samples must be >= 0, got {self.checks['samples']}")
        run = self.checks.get("run", list(CHECKS))
        if not (isinstance(run, list)
                and all(isinstance(name, str) and name in CHECKS for name in run)):
            raise ConfigError(f"checks.run must be a list of checker names from "
                              f"{tuple(CHECKS)}, got {run!r}")
        if not isinstance(self.seed, int):
            raise ConfigError("seed must be an integer")
        oracle_steps = self.compare.get("oracle_steps", steps)
        if oracle_steps != steps:
            raise ConfigError(f"compare.oracle_steps ({oracle_steps!r}) must equal "
                              f"time.steps ({steps}): both solves run on one grid")

    @property
    def steps(self) -> int:
        return int(self.time["steps"])

    @property
    def t1(self) -> float:
        return float(self.time.get("t1", 0.1))

    def out_dir(self, override: str | None = None) -> Path:
        env = os.environ.get("EVOMIN_OUT")
        directory = override or env or self.output.get("directory", "out")
        return Path(directory)


def _number(what: str, raw, cast: type) -> float:
    """raw as a float; a ConfigError unless it is a number, and an integer when
    cast is int."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {raw!r}") from None
    if cast is int and type(raw) is not int:
        raise ConfigError(f"{what} must be an integer, got {raw!r}")
    return value


def _n(cfg: RunConfig) -> int:
    return int(cfg.grid.get("n", 32))


def _map(cfg: RunConfig, key: str, make):
    """make(problem.key) when the config sets problem.key, else None."""
    return make(float(cfg.problem[key])) if key in cfg.problem else None


def _schrodinger(cfg: RunConfig):
    c = cfg.problem.get("couplings", [0.0, 0.0])
    return apps.build_schrodinger(_n(cfg), couplings=(float(c[0]), float(c[1])), t1=cfg.t1)


# problem.kind -> (the problem keys it reads, builder of its ProblemSpec from the
# config); validation reads the kinds and their keys from here.  The builders
# are looked up in `apps` on every call.
BUILDERS = {
    "heat": ((), lambda cfg: apps.build_heat(_n(cfg), t1=cfg.t1)),
    "parabolic_divergence": (("q", "reaction", "flux", "gamma"), lambda cfg:
        apps.build_parabolic_divergence(
            _n(cfg), q=float(cfg.problem.get("q", 2.0)),
            theta=_map(cfg, "reaction", apps.PointwiseMap.linear),
            xi=_map(cfg, "flux", apps.PointwiseMap.saturated_cubic),
            gamma=_map(cfg, "gamma", apps.PointwiseMap.arctan), t1=cfg.t1)),
    "parabolic_nondivergence": (("q", "gamma"), lambda cfg: apps.build_parabolic_nondivergence(
        _n(cfg), q=float(cfg.problem.get("q", 2.0)),
        gamma=_map(cfg, "gamma", apps.PointwiseMap.arctan), t1=cfg.t1)),
    "hyperbolic": (("damping", "nonlinearity"), lambda cfg: apps.build_hyperbolic(
        _n(cfg), damping=float(cfg.problem.get("damping", 0.0)),
        nonlinearity=float(cfg.problem.get("nonlinearity", 0.0)), t1=cfg.t1)),
    "schrodinger": (("couplings",), _schrodinger),
    "navier_stokes": (("viscosity", "initial"), lambda cfg: apps.build_navier_stokes_2d(
        int(cfg.grid.get("k", 16)), viscosity=float(cfg.problem.get("viscosity", 0.1)),
        initial=cfg.problem.get("initial", "taylor-green"), t1=cfg.t1, seed=cfg.seed)),
    "scalar_decay": ((), lambda cfg: apps.build_scalar_decay(t1=float(cfg.time.get("t1", 1.0)))),
    "anticoercive_fixture": ((), lambda cfg: apps.build_anticoercive_fixture(
        t1=float(cfg.time.get("t1", 1.0)))),
    "heat_core": ((), lambda cfg: apps.build_heat_core(_n(cfg), t1=cfg.t1)),
}


# checks.run name -> checker call on (problem, cfg, samples, rng); validation
# reads the names from here.  The checkers are looked up in this module on
# every call.
CHECKS = {
    "growth": lambda p, cfg, n, rng: check_growth(p, n, float(cfg.checks.get("c0", 10.0)), rng),
    "monotonicity": lambda p, cfg, n, rng: check_monotonicity(p, n, rng),
    "coercivity": lambda p, cfg, n, rng: check_coercivity(p, n, rng),
}


def build_problem(cfg: RunConfig):
    """Instantiate the configured ProblemSpec; a builder's ValueError is a ConfigError."""
    try:
        return BUILDERS[cfg.problem["kind"]][1](cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _set_options(section: dict, **casts) -> dict:
    """{key: cast(value)} for the keys that a config section sets; the library
    defaults stand for the others."""
    return {key: cast(section[key]) for key, cast in casts.items() if key in section}


def _eps_schedule(cfg: RunConfig) -> list[float]:
    spec = cfg.solver.get("eps_schedule")
    try:
        if isinstance(spec, list):
            return checked_schedule(spec)
        return default_schedule(**_set_options(spec or {}, start=float, factor=float,
                                               levels=int))
    except ValueError as exc:
        raise ConfigError(f"solver.eps_schedule: {exc}") from exc


def _minimize_options(cfg: RunConfig) -> MinimizeOptions:
    return MinimizeOptions(**_set_options(cfg.solver, j_tol=float, g_tol=float,
                                          max_iterations=int))


def _json_dump(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _sanitize_metadata(meta: dict) -> dict:
    return {k: v for k, v in meta.items()
            if not k.startswith("_") and isinstance(v, (str, int, float, bool))}


def cmd_solve(cfg: RunConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    problem = build_problem(cfg)
    method = cfg.solver.get("method", "ben")
    newton_tol = float(cfg.solver.get("newton_tol", DEFAULT_NEWTON_TOL))
    t_start = time.perf_counter()
    status = "completed"
    iterations = 0
    trace_csv = "iter,J,grad_norm,step_size\n"
    cont_csv = None
    counts = {}

    if method == "ben":
        res = minimize(problem, steps=cfg.steps, opts=_minimize_options(cfg))
        traj = res.trajectory
        status = res.status
        iterations = res.iterations
        trace_csv = trace_to_csv(res)
        ok = res.converged
    elif method == "euler":
        try:
            counter: dict = {}
            traj = implicit_euler_solve(problem, cfg.steps, newton_tol=newton_tol,
                                        counter=counter)
            iterations = counter.get("newton_iters", 0)
            # GMRES inner iterations and LU fallbacks; both 0 on the dense LU path
            counts = {key: counter.get(key, 0) for key in ("krylov_iters", "krylov_fallbacks")}
            ok = True
        except StepFailure as exc:
            print(f"solve failed: {exc}", file=sys.stderr)
            return 2
    else:  # continuation
        if problem.lambda_flag != 0:
            raise ConfigError(
                "solver.method continuation needs a potential-free core problem "
                "(problem.kind heat_core)")
        reg = Potential.quadratic(problem.triple.mass)
        res = continuation_solve(problem, reg, _eps_schedule(cfg), cfg.steps,
                                 newton_tol=newton_tol)
        cont_csv = continuation_to_csv(res)
        if not res.completed:
            (out_dir / "continuation.csv").write_text(cont_csv, encoding="utf-8")
            print(f"solve failed: {res.status}", file=sys.stderr)
            return 2
        traj = res.trajectories[-1]
        iterations = int(sum(res.newton_iters))
        problem = problem.with_potential(reg.scaled(res.eps[-1]), lambda_flag=1)
        status = "completed"
        ok = True

    runtime_ms = 1e3 * (time.perf_counter() - t_start)
    bd = energy_breakdown(problem, traj)
    res_max = float(np.max(np.abs(residual(problem, traj))))
    audit = energy_balance_audit(problem, traj)
    summary = {
        "problem": problem.name,
        "method": method,
        "J_final": bd.total,
        "max_residual": res_max,
        "iterations": iterations,
        "energy_balance_max": float(np.max(np.abs(audit))),
        "runtime_ms": runtime_ms if cfg.output.get("timing", False) else None,
        "status": status,
        "seed": cfg.seed,
        "steps": traj.steps,
        "grid": problem.metadata.get("grid", ""),
        "metadata": _sanitize_metadata(problem.metadata),
        **counts,
    }
    formats = cfg.output.get("formats", ["csv", "json"])
    if "csv" in formats:
        (out_dir / "trajectory.csv").write_text(trajectory_to_csv(traj), encoding="utf-8")
        (out_dir / "convergence.csv").write_text(trace_csv, encoding="utf-8")
        (out_dir / "breakdown.csv").write_text(breakdown_to_csv(bd), encoding="utf-8")
        if cont_csv is not None:
            (out_dir / "continuation.csv").write_text(cont_csv, encoding="utf-8")
    if "json" in formats:
        _json_dump(out_dir / "summary.json", summary)
    return 0 if ok else 2


def cmd_compare(cfg: RunConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    problem = build_problem(cfg)
    res = minimize(problem, steps=cfg.steps, opts=_minimize_options(cfg))
    oracle = implicit_euler_solve(
        problem, cfg.steps, newton_tol=float(cfg.solver.get("newton_tol", DEFAULT_NEWTON_TOL)))
    perturb = float(cfg.compare.get("perturb", 0.0))
    if perturb:
        oracle.states[oracle.steps // 2 + 1] += perturb
    report = verify_equivalence(problem, res.trajectory, oracle, **_set_options(
        cfg.compare, j_tol=float, g_tol=float, state_tol=float, residual_tol=float))
    if perturb:
        # a designed failure must also show up as positive energy at the perturbation
        report["oracle_perturbed_J"] = report["oracle"]["J"]
        report["criteria"]["matches_oracle"] = False
        report["pass"] = False
    report["problem"] = problem.name
    report["seed"] = cfg.seed
    _json_dump(out_dir / "compare.json", report)
    return 0 if report["pass"] else 2


def cmd_check(cfg: RunConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    problem = build_problem(cfg)
    samples = int(cfg.checks.get("samples", 1000))
    rng = np.random.default_rng(cfg.seed)
    reports = [CHECKS[name](problem, cfg, samples, rng)
               for name in cfg.checks.get("run", list(CHECKS))]
    payload = {
        "problem": problem.name,
        "samples": samples,
        "seed": cfg.seed,
        "reports": [r.to_dict() for r in reports],
        "pass": all(r.passed for r in reports),
    }
    _json_dump(out_dir / "check.json", payload)
    return 0 if payload["pass"] else 2


def cmd_convergence(cfg: RunConfig, out_dir: Path, refinements: int) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    problem_kind = cfg.problem["kind"]
    n = _n(cfg)
    problem = build_problem(cfg)
    newton_tol = float(cfg.solver.get("newton_tol", DEFAULT_NEWTON_TOL))
    levels = []
    for level in range(refinements + 1):
        steps = cfg.steps * (2**level)
        traj = implicit_euler_solve(problem, steps, newton_tol=newton_tol)
        audit = energy_balance_audit(problem, traj)
        entry = {
            "steps": steps,
            "dt": traj.dt,
            "energy_defect": float(np.max(np.abs(audit))),
            "error_vs_exact": None,
        }
        if problem_kind == "heat":
            exact = apps.exact_heat_solution(n, steps, t1=cfg.t1)
            entry["error_vs_exact"] = float(np.max(np.abs(traj.states - exact.states)))
        levels.append(entry)

    def orders(key):
        vals = [lv[key] for lv in levels]
        if any(v is None or v == 0.0 for v in vals):
            return []
        return [float(np.log2(a / b)) for a, b in zip(vals, vals[1:])]

    payload = {
        "problem": problem_kind,
        "levels": levels,
        "defect_orders": orders("energy_defect"),
        "error_orders": orders("error_vs_exact"),
        "seed": cfg.seed,
    }
    _json_dump(out_dir / "convergence.json", payload)
    rows = ["steps,dt,energy_defect,error_vs_exact"]
    for lv in levels:
        err = "" if lv["error_vs_exact"] is None else format(lv["error_vs_exact"], ".17g")
        rows.append(f"{lv['steps']},{lv['dt']:.17g},{lv['energy_defect']:.17g},{err}")
    (out_dir / "convergence_study.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="evomin",
        description="Solve evolution equations by trajectory-energy minimization, "
                    "cross-checked against implicit Euler.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "run the configured solver and write artifacts"),
        ("compare", "run minimizer and stepper, verify they agree"),
        ("check", "run the sampled hypothesis checkers"),
        ("convergence", "refinement study in the time step"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="YAML run configuration")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--seed", type=int, default=None, help="seed override")
        if name == "convergence":
            sp.add_argument("--refinements", type=int, default=3,
                            help="number of step doublings")
    args = parser.parse_args(argv)
    if getattr(args, "refinements", 0) < 0:
        print(f"usage error: --refinements must be >= 0, got {args.refinements}",
              file=sys.stderr)
        return 1
    try:
        cfg = RunConfig.from_file(args.config)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        cfg.seed = args.seed
    out_dir = cfg.out_dir(args.out)
    try:
        if args.command == "solve":
            return cmd_solve(cfg, out_dir)
        if args.command == "compare":
            return cmd_compare(cfg, out_dir)
        if args.command == "check":
            return cmd_check(cfg, out_dir)
        return cmd_convergence(cfg, out_dir, args.refinements)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, StepFailure, ConjugateFailure, OperatorEvaluationError) as exc:
        # a failure of the run itself: the config parsed, and build_problem
        # turns its own ValueErrors into ConfigError
        print(f"{args.command} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
