"""Acceptance gate: one test per criterion, each printing its pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance here is pinned, nothing is calibrated at runtime.
"""

import json
import time

import numpy as np
import pytest
import yaml

from conftest import random_trajectory
from evomin import (
    Potential,
    check_coercivity,
    check_monotonicity,
    continuation_solve,
    energy,
    energy_balance_audit,
    energy_gradient,
    implicit_euler_solve,
    minimize,
    verify_equivalence,
)
from evomin.applications import (
    PointwiseMap,
    build_anticoercive_fixture,
    build_heat,
    build_heat_core,
    build_hyperbolic,
    build_navier_stokes_2d,
    build_parabolic_divergence,
    build_parabolic_nondivergence,
    build_schrodinger,
    build_scalar_decay,
    exact_heat_solution,
    taylor_green_rate,
)
from evomin.cli import main
from evomin.minimize import MinimizeOptions
from evomin.trajectory import constant_trajectory


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_fenchel_young_suite(rng):
    t0 = time.perf_counter()
    kinds = {
        "quadratic": Potential.quadratic(_spd(rng, 4)),
        "pointwise_power": Potential.composed_power(rng.uniform(0.5, 2.0, 4) ** (1 / 3.0),
                                                    q=3.0),
        "composed_power_q2": Potential.composed_power(
            rng.standard_normal((6, 4)) + 3 * np.eye(6, 4), q=2.0),
        "composed_power_q4": Potential.composed_power(np.eye(4) * 1.3, q=4.0),
    }
    worst_gap = np.inf
    worst_eq = 0.0
    for pot in kinds.values():
        xs = 3.0 * rng.standard_normal((10_000, 4))
        ys = 3.0 * rng.standard_normal((10_000, 4))
        worst_gap = min(worst_gap, float(np.min(pot.duality_gap(0.2, xs, ys))))
        eq_gaps = pot.duality_gap(0.2, xs, pot.grad(0.2, xs))
        worst_eq = max(worst_eq, float(np.max(eq_gaps)))
    elapsed = time.perf_counter() - t0
    ok = worst_gap >= -1e-9 and worst_eq < 1e-8 and elapsed < 5.0
    report(1, ok, f"min gap {worst_gap:.2e} (>=-1e-9), max equality gap "
                  f"{worst_eq:.2e} (<1e-8), runtime {elapsed:.2f}s (<5s)")


def test_criterion_02_discrete_four_way_equivalence():
    t0 = time.perf_counter()
    opts = MinimizeOptions(j_tol=1e-10, g_tol=1e-9, require_gradient=True)
    results = {}
    for name, problem, steps in (
        ("scalar_decay", build_scalar_decay(), 1),
        ("heat", build_heat(32, t1=0.1), 50),
    ):
        res = minimize(problem, steps=steps, opts=opts)
        oracle = implicit_euler_solve(problem, steps)
        j = energy(problem, res.trajectory)
        gap = float(np.max(np.abs(res.trajectory.states - oracle.states)))
        gnorm = float(np.max(np.abs(energy_gradient(problem, res.trajectory))))
        results[name] = (j, gap, gnorm)
    elapsed = time.perf_counter() - t0
    ok = all(j < 1e-10 and gap < 1e-5 and g < 1e-8 for j, gap, g in results.values())
    ok = ok and elapsed < 30.0
    detail = "; ".join(f"{k}: J={v[0]:.1e}, |u-oracle|={v[1]:.1e}, |g|={v[2]:.1e}"
                       for k, v in results.items())
    report(2, ok, f"{detail}; runtime {elapsed:.1f}s (<30s)")


def test_criterion_03_gradient_exactness(rng):
    t0 = time.perf_counter()
    builders = [
        build_heat(10, t1=0.1),
        build_parabolic_divergence(8, theta=PointwiseMap.linear(-0.5),
                                   xi=PointwiseMap.saturated_cubic(0.3)),
        build_parabolic_nondivergence(8),
        build_hyperbolic(8, damping=0.3, nonlinearity=0.5),
        build_schrodinger(8, couplings=(0.4, 0.2)),
    ]
    steps = 6
    worst = 0.0
    count = 0
    for problem in builders:
        for _ in range(20):
            traj = random_trajectory(problem, steps, rng, scale=0.4)
            g = energy_gradient(problem, traj)
            gmax = max(float(np.max(np.abs(g))), 1e-10)
            for _ in range(3):
                k = int(rng.integers(0, steps))
                i = int(rng.integers(0, problem.dim))
                h = 1e-6 * (1.0 + abs(traj.states[k + 1, i]))
                tp = traj.copy()
                tp.states[k + 1, i] += h
                tm = traj.copy()
                tm.states[k + 1, i] -= h
                fd = (energy(problem, tp) - energy(problem, tm)) / (2 * h)
                worst = max(worst, abs(fd - g[k, i]) / gmax)
            count += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and count == 100 and elapsed < 60.0
    report(3, ok, f"{count} random trajectories over {len(builders)} builders, "
                  f"worst relative error {worst:.2e} (<1e-5), runtime {elapsed:.1f}s (<60s)")


def test_criterion_04_uniqueness_two_random_inits():
    problem = build_heat(32, t1=0.1)
    opts = MinimizeOptions(j_tol=0.0, g_tol=1e-11, max_iterations=100_000)
    limits = []
    for seed in (101, 202):
        r = np.random.default_rng(seed)
        init = constant_trajectory(problem, 50)
        init.states[1:] += r.standard_normal(init.states[1:].shape)
        res = minimize(problem, init=init, opts=opts)
        limits.append(res.trajectory.states)
    diff = float(np.max(np.abs(limits[0] - limits[1])))
    report(4, diff < 1e-6, f"two random inits agree to {diff:.2e} (<1e-6)")


def test_criterion_05_energy_balance_dissipation():
    details = []
    ok = True
    for name, problem in (("heat", build_heat(16, t1=0.1)),
                          ("wave", build_hyperbolic(16, t1=1.0))):
        defects = {}
        for steps in (25, 50):
            sol = implicit_euler_solve(problem, steps)
            e = energy_balance_audit(problem, sol)
            ok = ok and bool(np.all(e <= 1e-12))
            defects[steps] = float(np.max(np.abs(e)))
        ratio = defects[25] / defects[50]
        ok = ok and 1.7 <= ratio <= 2.3
        details.append(f"{name}: e<=1e-12, halving ratio {ratio:.2f}")
    report(5, ok, "; ".join(details))


def test_criterion_06_first_order_convergence():
    n = 64
    problem = build_heat(n, t1=0.1)
    errors = []
    for steps in (25, 50, 100, 200):
        traj = implicit_euler_solve(problem, steps)
        exact = exact_heat_solution(n, steps, t1=0.1)
        errors.append(float(np.max(np.abs(traj.states - exact.states))))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    ok = all(1.7 <= r <= 2.3 for r in ratios)
    report(6, ok, f"L-inf error ratios across 3 refinements: "
                  f"{', '.join(f'{r:.2f}' for r in ratios)} (in [1.7, 2.3])")


def test_criterion_07_epsilon_continuation():
    core = build_heat_core(32, t1=0.1)
    reg = Potential.quadratic(core.triple.mass)
    schedule = [4.0**-i for i in range(12)]
    res = continuation_solve(core, reg, schedule, steps=50)
    d = res.distances[1:]
    strictly_decreasing = all(b < a for a, b in zip(d, d[1:]))
    ok = res.completed and strictly_decreasing and d[-1] < 1e-7
    report(7, ok, f"12-level schedule, distances strictly decreasing: "
                  f"{strictly_decreasing}, final {d[-1]:.2e} (<1e-7)")


def test_criterion_08_navier_stokes_energy_inequality():
    t0 = time.perf_counter()
    p16 = build_navier_stokes_2d(16, viscosity=0.1, initial="random", seed=5, t1=1.0)
    basis16 = p16.metadata["_basis"]
    traj = implicit_euler_solve(p16, 20)
    energies = [basis16.kinetic_energy(s) for s in traj.states]
    increase = max(b - a for a, b in zip(energies, energies[1:]))
    div = max(basis16.divergence_max(s) for s in traj.states)

    p32 = build_navier_stokes_2d(32, viscosity=0.1, initial="taylor-green", t1=1.0)
    basis32 = p32.metadata["_basis"]
    tg = implicit_euler_solve(p32, 100)
    e0 = basis32.kinetic_energy(tg.states[0])
    e1 = basis32.kinetic_energy(tg.states[-1])
    rate = -np.log(e1 / e0) / 1.0
    dev = abs(rate - taylor_green_rate(0.1)) / taylor_green_rate(0.1)
    elapsed = time.perf_counter() - t0
    ok = increase < 1e-10 and div < 1e-10 and dev < 0.10 and elapsed < 120.0
    report(8, ok, f"energy increase {increase:.1e} (<1e-10), divergence {div:.1e} "
                  f"(<1e-10), Taylor-Green rate deviation {100 * dev:.2f}% (<10%), "
                  f"runtime {elapsed:.0f}s (<120s)")


def test_criterion_09_hypothesis_checkers(rng):
    builders = {
        "parabolic_divergence": build_parabolic_divergence(
            8, theta=PointwiseMap.linear(-0.5), xi=PointwiseMap.saturated_cubic(0.3),
            gamma=PointwiseMap.arctan(0.5)),
        "parabolic_nondivergence": build_parabolic_nondivergence(
            8, gamma=PointwiseMap.arctan(0.5)),
        "hyperbolic": build_hyperbolic(8, damping=0.2, nonlinearity=0.3),
        "schrodinger": build_schrodinger(8, couplings=(0.3, 0.2)),
        "navier_stokes": build_navier_stokes_2d(8, initial="random", seed=0),
    }
    ok = True
    for name, problem in builders.items():
        mono = check_monotonicity(problem, 1000, rng=rng)
        coer = check_coercivity(problem, 1000, rng=rng)
        finite = (np.isfinite(mono.fitted_constants["ghat"])
                  and np.isfinite(coer.fitted_constants["ctilde"]))
        ok = ok and mono.passed and coer.passed and finite
    fixture = check_coercivity(build_anticoercive_fixture(), 1000, rng=rng)
    ok = ok and not fixture.passed
    report(9, ok, f"{len(builders)} builders pass monotonicity+coercivity at 1000 "
                  f"samples with finite constants; anti-coercive fixture fails "
                  f"({len(fixture.violations)} violations)")


def test_criterion_10_reproducibility(tmp_path):
    cfg = {
        "problem": {"kind": "heat"},
        "grid": {"n": 16},
        "time": {"t0": 0.0, "t1": 0.1, "steps": 20},
        "solver": {"method": "ben"},
        "output": {"directory": str(tmp_path / "out")},
        "seed": 11,
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        outs.append(out)
    names = ("trajectory.csv", "convergence.csv", "breakdown.csv", "summary.json")
    identical = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                    for n in names)
    report(10, identical, "two cmd_solve runs with identical config and seed "
                          "produce byte-identical CSV/JSON artifacts")


def _spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)
