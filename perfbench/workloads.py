"""The four benchmark workloads: per-job configs and per-job correctness checks.

Each job is one `evomin.cli.main` call on a generated YAML config.  A job's
inputs depend only on the run seed and the job index.  `check` never trusts
the exit code alone: it re-reads the artifacts and tests what they claim.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from evomin import cli
from evomin.energy import energy_balance_audit
from evomin.trajectory import residual, trajectory_from_csv

HERE = Path(__file__).resolve().parent

# ns_euler: the recomputed residual must satisfy |r|_inf <= RESIDUAL_RTOL * max(1, |D|_inf),
# D the backward differences; the energy-balance defect must be <= AUDIT_ATOL * max(1, |w0|_H^2/2).
RESIDUAL_RTOL = 1e-10
AUDIT_ATOL = 1e-12
# checks: every fitted constant within CONSTANTS_RTOL of the stored reference (plus 1e-12 absolute).
CONSTANTS_RTOL = 0.05
CRITERIA = ("zero_energy", "critical_point", "solves_equation", "matches_oracle")

# powerlaw_compare parameter panel (reaction, flux, gamma), drawn once from
# [-1.5, -0.5] x [0.1, 0.5] x [0.25, 0.75] and rounded.  The cost of one draw
# is bimodal and chaotic in the parameters (at the same ~42 L-BFGS iterations,
# the slow draws backtrack 10x as often in the line search), so per-job draws
# would make job_s follow the seed.  The panel holds two draws from each mode;
# the run seed orders each pass over it.
POWERLAW_PANEL = (
    (-0.9123, 0.3154, 0.6819),
    (-0.9304, 0.2450, 0.5600),
    (-0.5126, 0.3102, 0.2951),
    (-1.2884, 0.3904, 0.2912),
)


def job_seed(seed: int, index: int) -> int:
    """The `--seed` handed to job `index` of a run with seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    cycle: int                                     # jobs per complete input cycle
    config: Callable[[int, int], dict]             # (run seed, job index) -> config
    check: Callable[[dict, Path], list]            # (config, out dir) -> problems


def _config(problem, grid, steps, t1, seed, **sections) -> dict:
    cfg = {"problem": problem, "grid": grid,
           "time": {"t0": 0.0, "t1": t1, "steps": steps},
           "output": {"formats": ["csv", "json"], "timing": False, "workers": 1},
           "seed": seed}
    cfg.update(sections)
    return cfg


def _heat_config(seed: int, index: int) -> dict:
    return _config({"kind": "heat"}, {"n": 32}, 50, 0.1, job_seed(seed, index))


def _powerlaw_config(seed: int, index: int) -> dict:
    k = len(POWERLAW_PANEL)
    order = np.random.default_rng([seed, index // k]).permutation(k)
    reaction, flux, gamma = POWERLAW_PANEL[order[index % k]]
    problem = {"kind": "parabolic_divergence", "q": 4.0,
               "reaction": reaction, "flux": flux, "gamma": gamma}
    return _config(problem, {"n": 8}, 4, 0.1, job_seed(seed, index))


def _ns_config(seed: int, index: int) -> dict:
    return _config({"kind": "navier_stokes", "viscosity": 0.1, "initial": "random"},
                   {"k": 32}, 10, 1.0, job_seed(seed, index),
                   solver={"method": "euler", "newton_tol": 1e-12})


def _checks_config(seed: int, index: int) -> dict:
    problem = {"kind": "parabolic_divergence", "q": 4.0,
               "reaction": -1.0, "flux": 0.3, "gamma": 0.5}
    return _config(problem, {"n": 32}, 8, 0.1, job_seed(seed, index),
                   checks={"run": ["growth", "monotonicity", "coercivity"],
                           "samples": 10000, "c0": 10.0})


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8")), None
    except (OSError, ValueError) as exc:
        return None, f"cannot read {path.name}: {exc}"


def check_compare(cfg: dict, out: Path) -> list:
    report, err = _read_json(out / "compare.json")
    if err:
        return [err]
    problems = []
    criteria = report.get("criteria", {})
    for name in CRITERIA:
        if criteria.get(name) is not True:
            problems.append(f"compare criterion {name} is {criteria.get(name)!r}")
    if report.get("pass") is not True:
        problems.append("compare.json pass is not true")
    return problems


def check_solve(cfg: dict, out: Path) -> list:
    summary, err = _read_json(out / "summary.json")
    if err:
        return [err]
    problems = []
    if summary.get("status") != "completed":
        problems.append(f"solve status {summary.get('status')!r}")
    problem = cli.build_problem(cli.RunConfig.from_dict(cfg))
    try:
        text = (out / "trajectory.csv").read_text(encoding="utf-8")
    except OSError as exc:
        return problems + [f"cannot read trajectory.csv: {exc}"]
    traj = trajectory_from_csv(text, w0=problem.initial)
    if traj.steps != cfg["time"]["steps"]:
        problems.append(f"trajectory has {traj.steps} steps, expected {cfg['time']['steps']}")
        return problems
    res = float(np.max(np.abs(residual(problem, traj))))
    scale = max(1.0, float(np.max(np.abs(np.diff(
        traj.states @ problem.triple.inclusion_matrix.T, axis=0)))) / traj.dt)
    if not res <= RESIDUAL_RTOL * scale:
        problems.append(f"recomputed residual {res:.3e} above {RESIDUAL_RTOL:g} x {scale:.3g}")
    defect = float(np.max(energy_balance_audit(problem, traj)))
    allowance = AUDIT_ATOL * max(1.0, 0.5 * problem.triple.h_inner(traj.w0, traj.w0))
    if not defect <= allowance:
        problems.append(f"energy-balance defect {defect:.3e} is positive")
    return problems


def load_reference_constants() -> dict:
    return json.loads((HERE / "reference" / "check_constants.json").read_text(encoding="utf-8"))


def check_checks(cfg: dict, out: Path) -> list:
    payload, err = _read_json(out / "check.json")
    if err:
        return [err]
    problems = [] if payload.get("pass") is True else ["check.json pass is not true"]
    reference = load_reference_constants()["fitted_constants"]
    reports = {r["name"]: r for r in payload.get("reports", [])}
    for name, constants in reference.items():
        rep = reports.get(name)
        if rep is None:
            problems.append(f"checker {name} missing from check.json")
            continue
        if rep["passed"] is not True or rep["samples"] != cfg["checks"]["samples"]:
            problems.append(f"checker {name} did not pass on {cfg['checks']['samples']} samples")
        for key, ref in constants.items():
            got = rep["fitted_constants"].get(key)
            if got is None or not abs(got - ref) <= CONSTANTS_RTOL * abs(ref) + 1e-12:
                problems.append(f"{name}.{key} = {got!r}, reference {ref!r}")
    return problems


WORKLOADS = {w.name: w for w in (       # why each one: BENCHMARK.json and README.md
    Workload("heat_compare", "compare", 1, _heat_config, check_compare),
    Workload("powerlaw_compare", "compare", len(POWERLAW_PANEL), _powerlaw_config, check_compare),
    Workload("ns_euler", "solve", 1, _ns_config, check_solve),
    Workload("checks", "check", 1, _checks_config, check_checks),
)}
