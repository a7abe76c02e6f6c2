"""Batch front door: config parsing, run orchestration, artifact emission.

Configs are YAML files with sections problem / grid / time / solver /
compare / checks / output plus a seed; `OPTIONS` states every key of a
section with its rule and its default, and the README shows them.  With
timing disabled (the default) a fixed config and seed reproduce every
output file byte for byte.

Exit codes: 0 converged / all checks clean, 2 non-convergence, check
violations or a numerical failure during the run, 1 configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import applications as apps
from .checks import check_coercivity, check_growth, check_monotonicity
from .continuation import (checked_schedule, continuation_solve, continuation_to_csv,
                           default_schedule)
from .energy import breakdown_to_csv, energy_balance_audit, energy_breakdown
from .minimize import (TRACE_CSV_HEADER, MinimizeOptions, minimize, trace_to_csv,
                       verify_equivalence)
from .operator import OperatorEvaluationError
from .oracle import StepFailure, implicit_euler_solve
from .potential import ConjugateFailure, Potential
from .trajectory import residual, trajectory_to_csv


# libyaml's parser where PyYAML was built with it: the resolver and constructor
# of yaml.safe_load, so the same values, parsed about 6x faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(Exception):
    pass


# -- rules: each turns the raw YAML value of option `what` into the value a command reads

def _number(cast: type = float, least: float | None = None, positive: bool = False):
    """A finite number (not a boolean or a string) of type cast; when asked, >= least
    or positive.  An integer option given a numeric string says it wants an integer."""
    def rule(what: str, raw):
        try:
            if isinstance(raw, bool) or (isinstance(raw, str) and cast is not int):
                raise TypeError
            value = float(raw)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{what} must be a number, got {raw!r}") from None
        if not np.isfinite(value):
            raise ConfigError(f"{what} must be a finite number, got {raw!r}")
        if cast is int and type(raw) is not int:
            raise ConfigError(f"{what} must be an integer, got {raw!r}")
        if positive and not value > 0:
            raise ConfigError(f"{what} must be positive, got {raw!r}")
        if least is not None and not value >= least:
            raise ConfigError(f"{what} must be >= {least}, got {raw!r}")
        return raw if cast is int else value
    return rule


def _one_of(*choices):
    def rule(what: str, raw):
        if raw not in choices:
            raise ConfigError(f"{what} must be one of {choices}, got {raw!r}")
        return raw
    return rule


def _list_of(*choices):
    """A non-empty list drawn from choices, read as a tuple."""
    def rule(what: str, raw) -> tuple:
        if not (isinstance(raw, list) and raw and all(v in choices for v in raw)):
            raise ConfigError(f"{what} must be a non-empty list drawn from {choices}, "
                              f"got {raw!r}")
        return tuple(raw)
    return rule


def _typed(kind: type, name: str):
    """A value of the given type, named in the message as name."""
    def rule(what: str, raw):
        if not isinstance(raw, kind):
            raise ConfigError(f"{what} must be {name}, got {raw!r}")
        return raw
    return rule


def _pair(what: str, raw) -> tuple:
    if not (isinstance(raw, list) and len(raw) == 2):
        raise ConfigError(f"{what} must be a list of two numbers, got {raw!r}")
    return tuple(_number()(what, value) for value in raw)


def _pointwise(make: str):
    """The PointwiseMap `make` of the given strength."""
    return lambda what, raw: getattr(apps.PointwiseMap, make)(_number()(what, raw))


def _zero(what: str, raw) -> float:
    if _number()(what, raw) != 0:
        raise ConfigError(f"{what} must be 0, got {raw!r}: every problem's horizon starts "
                          "at t = 0")
    return 0.0


def _schedule(what: str, raw) -> tuple:
    """The eps values of an explicit list, or of default_schedule's keyword arguments."""
    try:
        if isinstance(raw, list) and raw:
            return tuple(checked_schedule([_number()(what, eps) for eps in raw]))
        if isinstance(raw, dict):
            unknown = set(raw) - {"start", "factor", "levels"}
            if unknown:
                raise ConfigError(f"unknown {what} keys: {sorted(unknown, key=str)}")
            args = {key: _number(int if key == "levels" else float)(f"{what}.{key}", value)
                    for key, value in raw.items()}
            return tuple(default_schedule(**args))
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    raise ConfigError(f"{what} must be a non-empty list of eps values or a mapping of start, "
                      f"factor and levels, got {raw!r}")


def _seed(raw) -> int:
    """The seed's rule: an integer >= 0, and 0 when unset."""
    return 0 if raw is None else _number(int, least=0)("seed", raw)


def _set(section: dict, *keys: str, **renamed: str) -> dict:
    """{key: value} for the keys that a resolved section sets, and {name: value}
    for each name=key; the library's defaults stand for the others."""
    pairs = [*zip(keys, keys), *renamed.items()]
    return {name: section[key] for name, key in pairs if section[key] is not None}


# problem.kind -> (the problem keys it reads, builder of its ProblemSpec from a
# resolved config).  The builders are looked up in `apps` on every call.
BUILDERS = {
    "heat": ((), lambda cfg: apps.build_heat(cfg.grid["n"], t1=cfg.time["t1"])),
    "parabolic_divergence": (("q", "reaction", "flux", "gamma"), lambda cfg:
        apps.build_parabolic_divergence(cfg.grid["n"], t1=cfg.time["t1"], **_set(
            cfg.problem, "q", "gamma", theta="reaction", xi="flux"))),
    "parabolic_nondivergence": (("q", "gamma"), lambda cfg: apps.build_parabolic_nondivergence(
        cfg.grid["n"], t1=cfg.time["t1"], **_set(cfg.problem, "q", "gamma"))),
    "hyperbolic": (("damping", "nonlinearity"), lambda cfg: apps.build_hyperbolic(
        cfg.grid["n"], t1=cfg.time["t1"], **_set(cfg.problem, "damping", "nonlinearity"))),
    "schrodinger": (("couplings",), lambda cfg: apps.build_schrodinger(
        cfg.grid["n"], t1=cfg.time["t1"], **_set(cfg.problem, "couplings"))),
    "navier_stokes": (("viscosity", "initial"), lambda cfg: apps.build_navier_stokes_2d(
        cfg.grid["k"], t1=cfg.time["t1"], seed=cfg.seed,
        **_set(cfg.problem, "viscosity", "initial"))),
    "scalar_decay": ((), lambda cfg: apps.build_scalar_decay(t1=cfg.time["t1"])),
    "anticoercive_fixture": ((), lambda cfg: apps.build_anticoercive_fixture(
        t1=cfg.time["t1"])),
    "heat_core": ((), lambda cfg: apps.build_heat_core(cfg.grid["n"], t1=cfg.time["t1"])),
}


# checks.run name -> checker call on (problem, cfg, samples, rng).  The checkers
# are looked up in this module on every call.
CHECKS = {
    "growth": lambda p, cfg, n, rng: check_growth(p, n, cfg.checks["c0"], rng),
    "monotonicity": lambda p, cfg, n, rng: check_monotonicity(p, n, rng),
    "coercivity": lambda p, cfg, n, rng: check_coercivity(p, n, rng),
}


# section -> key -> (rule, default): every option that a command reads.  A
# default of None lets the library's own default stand: `_set` passes the key
# on only when the config sets it.  A kind takes "kind" and the problem keys
# of its BUILDERS entry; any other key is a config error, so that a misspelt
# option does not silently stand for its default.
OPTIONS = {
    "problem": {"kind": (_one_of(*BUILDERS), "heat"), "q": (_number(), None),
                "reaction": (_pointwise("linear"), None),
                "flux": (_pointwise("saturated_cubic"), None),
                "gamma": (_pointwise("arctan"), None), "damping": (_number(), None),
                "nonlinearity": (_number(), None), "couplings": (_pair, None),
                "viscosity": (_number(positive=True), None),
                "initial": (_typed(str, "a string"), None)},
    "grid": {"n": (_number(int), 32), "k": (_number(int), 16)},
    "time": {"t0": (_zero, 0.0), "t1": (_number(), 0.1),
             "steps": (_number(int, positive=True), 50)},
    "solver": {"method": (_one_of("ben", "euler", "continuation"), "ben"),
               "j_tol": (_number(positive=True), None),
               "g_tol": (_number(positive=True), None),
               "newton_tol": (_number(positive=True), None),
               "max_iterations": (_number(int, positive=True), None),
               "eps_schedule": (_schedule, tuple(default_schedule()))},
    "compare": {"j_tol": (_number(positive=True), None),
                "g_tol": (_number(positive=True), None),
                "state_tol": (_number(positive=True), None),
                "residual_tol": (_number(positive=True), None),
                "perturb": (_number(), 0.0)},
    "checks": {"run": (_list_of(*CHECKS), tuple(CHECKS)),
               "samples": (_number(int, least=0), 1000),
               "c0": (_number(positive=True), 10.0)},
    "output": {"directory": (_typed(str, "a string"), "out"),
               "formats": (_list_of("csv", "json"), ("csv", "json")),
               "timing": (_typed(bool, "true or false"), False),
               "workers": (lambda what, raw: raw, None)},      # accepted from older configs
}


@dataclass
class RunConfig:
    """A resolved config: each section holds every key of its OPTIONS entry."""

    problem: dict
    grid: dict
    time: dict
    solver: dict
    compare: dict
    checks: dict
    output: dict
    seed: int

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = yaml.load(fh, Loader=_YAML_LOADER)
        except (OSError, yaml.YAMLError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must be a mapping of sections")
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        unknown = set(raw) - {*OPTIONS, "seed"}
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown, key=str)}")
        sections = {}
        for name, options in OPTIONS.items():
            section = {} if raw.get(name) is None else raw[name]
            if not isinstance(section, dict):
                raise ConfigError(f"{name} must be a mapping, got {section!r}")
            sections[name] = {key: rule(f"{name}.{key}", section[key]) if key in section
                              else default for key, (rule, default) in options.items()}
            known, where = options, name
            if name == "problem":
                kind = sections[name]["kind"]
                known, where = ("kind", *BUILDERS[kind][0]), f"problem kind {kind}"
            unknown = set(section) - set(known)
            if unknown:
                raise ConfigError(f"unknown {where} options: {sorted(unknown, key=str)}")
        return cls(**sections, seed=_seed(raw.get("seed")))


def build_problem(cfg: RunConfig):
    """Instantiate the configured ProblemSpec; a builder's ValueError is a ConfigError."""
    try:
        return BUILDERS[cfg.problem["kind"]][1](cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _json_dump(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _sanitize_metadata(meta: dict) -> dict:
    return {k: v for k, v in meta.items()
            if not k.startswith("_") and isinstance(v, (str, int, float, bool))}


def cmd_solve(cfg: RunConfig, problem, out_dir: Path) -> int:
    method = cfg.solver["method"]
    steps = cfg.time["steps"]
    newton = _set(cfg.solver, "newton_tol")
    t_start = time.perf_counter()
    status = "completed"
    iterations = 0
    trace_csv = TRACE_CSV_HEADER        # no minimizer iterations: the header alone
    cont_csv = None
    counts = {}
    ok = True

    if method == "ben":
        res = minimize(problem, steps=steps, opts=MinimizeOptions(
            **_set(cfg.solver, "j_tol", "g_tol", "max_iterations")))
        traj = res.trajectory
        status = res.status
        iterations = res.iterations
        trace_csv = trace_to_csv(res)
        ok = res.converged
    elif method == "euler":
        counter: dict = {}
        traj = implicit_euler_solve(problem, steps, counter=counter, **newton)
        iterations = counter.get("newton_iters", 0)
        # GMRES inner iterations and LU fallbacks; both 0 on the dense LU path
        counts = {key: counter.get(key, 0) for key in ("krylov_iters", "krylov_fallbacks")}
    else:  # continuation
        reg = Potential.quadratic(problem.triple.mass)
        res = continuation_solve(problem, reg, cfg.solver["eps_schedule"], steps, **newton)
        cont_csv = continuation_to_csv(res)
        if not res.completed:
            (out_dir / "continuation.csv").write_text(cont_csv, encoding="utf-8")
            print(f"solve failed: {res.status}", file=sys.stderr)
            return 2
        traj = res.trajectories[-1]
        iterations = int(sum(res.newton_iters))
        problem = problem.with_potential(reg.scaled(res.eps[-1]), lambda_flag=1)

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
        "runtime_ms": runtime_ms if cfg.output["timing"] else None,
        "status": status,
        "seed": cfg.seed,
        "steps": traj.steps,
        "grid": problem.metadata.get("grid", ""),
        "metadata": _sanitize_metadata(problem.metadata),
        **counts,
    }
    formats = cfg.output["formats"]
    if "csv" in formats:
        (out_dir / "trajectory.csv").write_text(trajectory_to_csv(traj), encoding="utf-8")
        (out_dir / "convergence.csv").write_text(trace_csv, encoding="utf-8")
        (out_dir / "breakdown.csv").write_text(breakdown_to_csv(bd), encoding="utf-8")
        if cont_csv is not None:
            (out_dir / "continuation.csv").write_text(cont_csv, encoding="utf-8")
    if "json" in formats:
        _json_dump(out_dir / "summary.json", summary)
    return 0 if ok else 2


def cmd_compare(cfg: RunConfig, problem, out_dir: Path) -> int:
    steps = cfg.time["steps"]
    res = minimize(problem, steps=steps, opts=MinimizeOptions(
        **_set(cfg.solver, "j_tol", "g_tol", "max_iterations")))
    oracle = implicit_euler_solve(problem, steps, **_set(cfg.solver, "newton_tol"))
    perturb = cfg.compare["perturb"]
    if perturb:
        oracle.states[oracle.steps // 2 + 1] += perturb
    report = verify_equivalence(problem, res.trajectory, oracle, **_set(
        cfg.compare, "j_tol", "g_tol", "state_tol", "residual_tol"))
    if perturb:
        # a designed failure must also show up as positive energy at the perturbation
        report["oracle_perturbed_J"] = report["oracle"]["J"]
        report["criteria"]["matches_oracle"] = False
        report["pass"] = False
    report["problem"] = problem.name
    report["seed"] = cfg.seed
    _json_dump(out_dir / "compare.json", report)
    return 0 if report["pass"] else 2


def cmd_check(cfg: RunConfig, problem, out_dir: Path) -> int:
    samples = cfg.checks["samples"]
    rng = np.random.default_rng(cfg.seed)
    reports = [CHECKS[name](problem, cfg, samples, rng) for name in cfg.checks["run"]]
    payload = {
        "problem": problem.name,
        "samples": samples,
        "seed": cfg.seed,
        "reports": [r.to_dict() for r in reports],
        "pass": all(r.passed for r in reports),
    }
    _json_dump(out_dir / "check.json", payload)
    return 0 if payload["pass"] else 2


def cmd_convergence(cfg: RunConfig, problem, out_dir: Path, refinements: int) -> int:
    levels = []
    for level in range(refinements + 1):
        steps = cfg.time["steps"] * (2**level)
        traj = implicit_euler_solve(problem, steps, **_set(cfg.solver, "newton_tol"))
        audit = energy_balance_audit(problem, traj)
        entry = {
            "steps": steps,
            "dt": traj.dt,
            "energy_defect": float(np.max(np.abs(audit))),
            "error_vs_exact": None,
        }
        if cfg.problem["kind"] == "heat":
            exact = apps.exact_heat_solution(cfg.grid["n"], steps, t1=cfg.time["t1"])
            entry["error_vs_exact"] = float(np.max(np.abs(traj.states - exact.states)))
        levels.append(entry)

    def orders(key):
        vals = [lv[key] for lv in levels]
        if any(v is None or v == 0.0 for v in vals):
            return []
        return [float(np.log2(a / b)) for a, b in zip(vals, vals[1:])]

    payload = {
        "problem": cfg.problem["kind"],
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line, built once per process: building it takes about 20
    times as long as parsing with it."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "refinements", 0) < 0:
        print(f"usage error: --refinements must be >= 0, got {args.refinements}",
              file=sys.stderr)
        return 1
    try:
        cfg = RunConfig.from_file(args.config)
        if args.seed is not None:
            cfg.seed = _seed(args.seed)
        problem = build_problem(cfg)
        if (args.command == "solve" and cfg.solver["method"] == "continuation"
                and problem.lambda_flag != 0):
            raise ConfigError("solver.method continuation needs a potential-free core "
                              "problem (problem.kind heat_core)")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out or os.environ.get("EVOMIN_OUT") or cfg.output["directory"])
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "convergence":
            return cmd_convergence(cfg, problem, out_dir, args.refinements)
        command = {"solve": cmd_solve, "compare": cmd_compare, "check": cmd_check}
        return command[args.command](cfg, problem, out_dir)
    except (ValueError, StepFailure, ConjugateFailure, OperatorEvaluationError) as exc:
        # a failure of the run itself: the config resolved and the problem was built
        print(f"{args.command} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
