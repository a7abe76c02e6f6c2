import inspect
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import yaml

from conftest import scalar_problem_with_jacobian
from evomin import cli
from evomin.cli import ConfigError, RunConfig, main
from evomin.continuation import default_schedule
from evomin.minimize import MinimizeOptions, verify_equivalence
from evomin.operator import OperatorEvaluationError
from evomin.oracle import implicit_euler_solve
from evomin.potential import ConjugateFailure

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "evomin" / "schemas"
README = Path(__file__).resolve().parents[1] / "README.md"


def schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def write_config(tmp_path, **overrides):
    cfg = {
        "problem": {"kind": "heat"},
        "grid": {"n": 12},
        "time": {"t0": 0.0, "t1": 0.1, "steps": 15},
        "solver": {"method": "ben", "j_tol": 1e-10},
        "output": {"directory": str(tmp_path / "out")},
        "seed": 0,
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and key in cfg:
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def test_solve_heat_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    for name in ("trajectory.csv", "convergence.csv", "breakdown.csv", "summary.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    jsonschema.validate(summary, schema("summary"))
    assert summary["J_final"] < 1e-10
    assert summary["status"] == "converged-zero-energy"
    assert summary["runtime_ms"] is None
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t," + ",".join(f"x_{i}" for i in range(12))


def test_solve_euler_method(tmp_path):
    cfg = write_config(tmp_path, solver={"method": "euler"})
    assert main(["solve", "--config", str(cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    jsonschema.validate(summary, schema("summary"))
    assert summary["J_final"] < 1e-12
    assert summary["max_residual"] < 1e-9


def test_solve_continuation_method(tmp_path):
    cfg = write_config(
        tmp_path,
        problem={"kind": "heat_core"},
        solver={"method": "continuation",
                "eps_schedule": {"start": 1.0, "factor": 0.25, "levels": 8}},
    )
    assert main(["solve", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "continuation.csv").exists()
    lines = (out / "continuation.csv").read_text().splitlines()
    assert lines[0] == "eps,distance_to_prev,final_J,newton_iters_total"
    assert len(lines) == 9


def test_malformed_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("problem: [not, a, mapping\n")
    assert main(["solve", "--config", str(bad)]) == 1
    broken = tmp_path / "broken.yaml"
    broken.write_text("problem: {kind: heat\n")
    capsys.readouterr()
    assert main(["solve", "--config", str(broken), "--out", str(tmp_path / "out")]) == 1
    assert "cannot read config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    missing = tmp_path / "nope.yaml"
    assert main(["solve", "--config", str(missing)]) == 1
    wrong = write_config(tmp_path, problem={"kind": "unknown_kind"})
    assert main(["solve", "--config", str(wrong)]) == 1


def test_solve_certifies_the_gradient_and_the_residual_on_a_power_law(tmp_path):
    # J reaches j_tol long before the residual is small: solve must not stop there
    cfg = write_config(tmp_path, problem={"kind": "parabolic_divergence", "q": 4.0},
                       grid={"n": 16}, time={"steps": 20})
    assert main(["solve", "--config", str(cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["status"] == "converged-zero-energy"
    assert summary["max_residual"] <= 1e-6


def test_every_problem_key_of_a_kind_is_an_option():
    for keys, _ in cli.BUILDERS.values():
        assert set(keys) <= set(cli.OPTIONS["problem"])


def test_iteration_cap_exits_two(tmp_path):
    cfg = write_config(tmp_path, solver={"method": "ben", "max_iterations": 1,
                                         "j_tol": 1e-16})
    assert main(["solve", "--config", str(cfg)]) == 2
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["status"] == "iteration-cap"


def test_compare_pass(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["compare", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "compare.json").read_text())
    jsonschema.validate(report, schema("compare"))
    assert report["pass"]


def test_compare_grid_mismatch_exits_one(tmp_path):
    cfg = write_config(tmp_path, compare={"oracle_steps": 30})
    assert main(["compare", "--config", str(cfg)]) == 1


def test_compare_grid_mismatch_is_found_by_validation():
    with pytest.raises(ConfigError, match="oracle_steps"):
        RunConfig.from_dict({"problem": {"kind": "heat"}, "time": {"steps": 15},
                             "compare": {"oracle_steps": 30}})


@pytest.mark.parametrize("section,key,text", [
    ("solver", "max_iterations", "many"), ("compare", "state_tol", "many"),
    ("checks", "samples", "many"), ("solver", "j_tol", "many"),
    ("time", "t1", "0.2"), ("checks", "c0", " 1e3 "),        # strings that float() reads
], ids=["solver-max_iterations", "compare-state_tol", "checks-samples", "solver-j_tol",
        "time-t1", "checks-c0"])
def test_non_numeric_option_is_a_config_error(tmp_path, capsys, section, key, text):
    cfg = write_config(tmp_path, **{section: {key: text}})
    assert yaml.safe_load(cfg.read_text())[section][key] == text
    assert main(["compare", "--config", str(cfg)]) == 1
    assert f"config error: {section}.{key} must be a number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_builder_value_error_is_a_config_error(tmp_path, capsys):
    # an odd NS grid, and continuation on heat, which is not a potential-free core problem
    for overrides in ({"problem": {"kind": "navier_stokes"}, "grid": {"k": 7}},
                      {"solver": {"method": "continuation"}}):
        cfg = write_config(tmp_path, **overrides)
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_failure_mid_run_exits_two(tmp_path, capsys):
    # the oracle cannot reach an unattainable Newton tolerance and raises
    # StepFailure, a numerical failure, not a config error: after the minimizer
    # converges in compare, at the first step of solve with method euler
    for command, method in (("compare", "ben"), ("solve", "euler")):
        cfg = write_config(tmp_path, solver={"method": method, "newton_tol": 1e-300})
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{command} failed: StepFailure: " in err
        assert "config error" not in err


@pytest.mark.parametrize("exc", [ValueError("bad state"), ConjugateFailure("no maximizer", 1.0),
                                 OperatorEvaluationError("blow-up")])
def test_numerical_failures_exit_two_and_name_themselves(tmp_path, capsys, monkeypatch, exc):
    def failing_minimize(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "minimize", failing_minimize)
    cfg = write_config(tmp_path)
    assert main(["compare", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert type(exc).__name__ in err and str(exc) in err
    assert "config error" not in err


@pytest.mark.parametrize("command,method", [("compare", "ben"), ("solve", "euler")])
def test_nonfinite_operator_jacobian_exits_two_and_names_the_time(
        tmp_path, capsys, monkeypatch, command, method):
    # the minimizer takes L-BFGS where DLambda is not finite, but the oracle's
    # LU needs DLambda: an operator error, not a library message
    monkeypatch.setattr(cli, "build_problem", lambda cfg: scalar_problem_with_jacobian(np.nan))
    cfg = write_config(tmp_path, solver={"method": method})
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert (f"{command} failed: OperatorEvaluationError: operator Jacobian returned "
            "a non-finite value at t=") in err


def test_compare_powerlaw_byte_identical(tmp_path):
    # trial solves start from the accepted iterate's maximizers, so the path
    # depends on history; it must still repeat exactly
    cfg = write_config(tmp_path,
                       problem={"kind": "parabolic_divergence", "q": 4.0, "reaction": -0.9123,
                                "flux": 0.3154, "gamma": 0.6819},
                       grid={"n": 8}, time={"t0": 0.0, "t1": 0.1, "steps": 4},
                       output={"timing": False})
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        assert main(["compare", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
    first, second = ((out / "compare.json").read_bytes() for out in outs)
    assert first == second
    assert json.loads(first)["pass"]


def test_compare_perturbation_designed_failure(tmp_path):
    cfg = write_config(tmp_path, compare={"perturb": 1e-2})
    assert main(["compare", "--config", str(cfg)]) == 2
    report = json.loads((tmp_path / "out" / "compare.json").read_text())
    assert not report["pass"]
    assert report["oracle"]["J"] > 1e-8


def test_check_heat_clean(tmp_path):
    cfg = write_config(tmp_path, checks={"samples": 200})
    assert main(["check", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "check.json").read_text())
    jsonschema.validate(report, schema("check"))
    assert report["pass"]
    assert {r["name"] for r in report["reports"]} == {"growth", "monotonicity", "coercivity"}


def test_check_anticoercive_fixture_fails(tmp_path):
    cfg = write_config(tmp_path, problem={"kind": "anticoercive_fixture"},
                       checks={"samples": 400, "run": ["coercivity"]},
                       time={"t0": 0.0, "t1": 1.0, "steps": 2})
    assert main(["check", "--config", str(cfg)]) == 2


def test_check_zero_samples_pass(tmp_path):
    cfg = write_config(tmp_path, checks={"samples": 0})
    assert main(["check", "--config", str(cfg)]) == 0


def test_convergence_single_level(tmp_path):
    cfg = write_config(tmp_path, solver={"method": "euler"})
    assert main(["convergence", "--config", str(cfg), "--refinements", "0"]) == 0
    report = json.loads((tmp_path / "out" / "convergence.json").read_text())
    jsonschema.validate(report, schema("convergence"))
    assert len(report["levels"]) == 1
    assert report["defect_orders"] == []
    csv_lines = (tmp_path / "out" / "convergence_study.csv").read_text().splitlines()
    assert len(csv_lines) == 2


def test_negative_refinements_is_a_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, solver={"method": "euler"})
    assert main(["convergence", "--config", str(cfg), "--refinements", "-1"]) == 1
    assert "--refinements must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_convergence_ns_energy_defect_halves(tmp_path):
    cfg = write_config(tmp_path, problem={"kind": "navier_stokes", "initial": "random"},
                       grid={"k": 8}, time={"t0": 0.0, "t1": 0.5, "steps": 5},
                       solver={"method": "euler"}, seed=2)
    assert main(["convergence", "--config", str(cfg), "--refinements", "2"]) == 0
    report = json.loads((tmp_path / "out" / "convergence.json").read_text())
    for order in report["defect_orders"]:
        assert 0.7 <= order <= 1.3


def test_convergence_heat_first_order(tmp_path):
    cfg = write_config(tmp_path, grid={"n": 64},
                       time={"t0": 0.0, "t1": 0.1, "steps": 25},
                       solver={"method": "euler"})
    assert main(["convergence", "--config", str(cfg), "--refinements", "2"]) == 0
    report = json.loads((tmp_path / "out" / "convergence.json").read_text())
    for order in report["error_orders"]:
        assert 0.77 <= order <= 1.2   # ratio in [1.7, 2.3]


def test_reproducibility_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["solve", "--config", str(cfg), "--out", str(out1), "--seed", "3"]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(out2), "--seed", "3"]) == 0
    for name in ("trajectory.csv", "convergence.csv", "breakdown.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_navier_stokes_euler_byte_identical(tmp_path):
    # the oracle's Newton-Krylov path (GMRES, the basis memo) is deterministic;
    # k = 24 is 528 unknowns, above the oracle's KRYLOV_MIN_DIM
    cfg = write_config(tmp_path,
                       problem={"kind": "navier_stokes", "viscosity": 0.1, "initial": "random"},
                       grid={"k": 24}, time={"t0": 0.0, "t1": 0.2, "steps": 2},
                       solver={"method": "euler"}, output={"timing": False})
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
    for name in ("trajectory.csv", "convergence.csv", "breakdown.csv", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_out_env_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    target = tmp_path / "env_out"
    monkeypatch.setenv("EVOMIN_OUT", str(target))
    assert main(["solve", "--config", str(cfg)]) == 0
    assert (target / "summary.json").exists()


def test_runconfig_validation():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"problem": {"kind": "heat"}, "time": {"steps": 0}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"problem": {"kind": "heat"}, "nonsense": {}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"problem": {"kind": "heat"},
                             "time": {"steps": 5},
                             "solver": {"method": "zigzag"}})


@pytest.mark.parametrize("problem,grid,time_cfg", [
    ({"kind": "parabolic_divergence", "q": 2.0, "reaction": -0.5, "flux": 0.2,
      "gamma": 0.3}, {"n": 8}, {"t1": 0.1, "steps": 5}),
    ({"kind": "parabolic_nondivergence", "gamma": 0.3}, {"n": 8}, {"t1": 0.1, "steps": 5}),
    ({"kind": "hyperbolic", "damping": 0.2, "nonlinearity": 0.1}, {"n": 8},
     {"t1": 0.5, "steps": 5}),
    ({"kind": "schrodinger", "couplings": [0.2, 0.1]}, {"n": 8}, {"t1": 0.5, "steps": 5}),
    ({"kind": "navier_stokes", "viscosity": 0.1, "initial": "random"}, {"k": 8},
     {"t1": 0.2, "steps": 3}),
    ({"kind": "scalar_decay"}, {}, {"t1": 1.0, "steps": 4}),
])
def test_solve_euler_all_kinds(tmp_path, problem, grid, time_cfg):
    cfg = write_config(tmp_path, problem=problem, grid=grid,
                       time={"t0": 0.0, **time_cfg}, solver={"method": "euler"})
    assert main(["solve", "--config", str(cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["max_residual"] < 1e-6


def test_timing_flag_fills_runtime(tmp_path):
    cfg = write_config(tmp_path, output={"directory": str(tmp_path / "out"),
                                         "timing": True})
    assert main(["solve", "--config", str(cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["runtime_ms"] > 0


def test_check_reproducibility_byte_identical(tmp_path):
    # the worker count that older configs carry is ignored
    cfg = write_config(tmp_path, output={"timing": False, "workers": 4},
                       checks={"run": ["growth", "monotonicity", "coercivity"],
                               "samples": 2000})
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        assert main(["check", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 0
    first, second = ((out / "check.json").read_bytes() for out in outs)
    assert first == second
    report = json.loads(first)
    jsonschema.validate(report, schema("check"))
    assert [r["samples"] for r in report["reports"]] == [2000, 2000, 2000]


def test_summary_schema_rejects_an_unknown_status():
    summary = {"problem": "heat", "method": "ben", "J_final": 0.0, "max_residual": 0.0,
               "iterations": 1, "energy_balance_max": 0.0, "runtime_ms": None,
               "status": "converged-zero-energy", "seed": 0, "steps": 1}
    jsonschema.validate(summary, schema("summary"))
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({**summary, "status": "converged"}, schema("summary"))


def test_nonzero_t0_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, time={"t0": 0.5, "t1": 0.6})
    assert main(["solve", "--config", str(cfg)]) == 1
    assert "config error: time.t0 must be 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    RunConfig.from_dict({"problem": {"kind": "heat"}, "time": {"t0": 0, "steps": 5}})
    RunConfig.from_dict({"problem": {"kind": "heat"}, "time": {"steps": 5}})


@pytest.mark.parametrize("command,section,key,text", [
    ("solve", "solver", "max_iterations", "1e5"),      # YAML reads 1e5 as a string
    ("solve", "solver", "max_iterations", "2.7"),
    ("check", "checks", "samples", "1e3"),
    ("check", "checks", "samples", "2.5"),
    ("solve", "grid", "n", "12.9"),                    # a 12-point grid before
    ("convergence", "grid", "n", "12.0"),
    ("solve", "grid", "k", "16.5"),
])
def test_integer_option_is_validated_as_an_integer(tmp_path, capsys, command, section, key,
                                                   text):
    cfg = write_config(tmp_path, **{section: {key: 12345}})
    cfg.write_text(cfg.read_text().replace(f"{key}: 12345", f"{key}: {text}"))
    assert yaml.safe_load(cfg.read_text())[section][key] != 12345
    assert main([command, "--config", str(cfg)]) == 1
    assert f"config error: {section}.{key} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("schedule", ["fast", 0.5])
def test_eps_schedule_of_the_wrong_type_is_a_config_error(tmp_path, capsys, schedule):
    cfg = write_config(tmp_path, problem={"kind": "heat_core"},
                       solver={"method": "continuation", "eps_schedule": schedule})
    assert main(["solve", "--config", str(cfg)]) == 1
    assert "config error: solver.eps_schedule must be" in capsys.readouterr().err


@pytest.mark.parametrize("problem,grid,krylov", [
    ({"kind": "heat"}, {"n": 12}, False),
    # k = 24 is 528 unknowns, on the oracle's Newton-Krylov path
    ({"kind": "navier_stokes", "viscosity": 0.1, "initial": "random"}, {"k": 24}, True),
])
def test_euler_summary_reports_krylov_counts(tmp_path, problem, grid, krylov):
    cfg = write_config(tmp_path, problem=problem, grid=grid, seed=3,
                       time={"t0": 0.0, "t1": 0.2, "steps": 2}, solver={"method": "euler"})
    assert main(["solve", "--config", str(cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    jsonschema.validate(summary, schema("summary"))
    counter = {}
    run = RunConfig.from_dict(yaml.safe_load(cfg.read_text()))
    cli.implicit_euler_solve(cli.build_problem(run), 2, counter=counter)
    assert summary["krylov_iters"] == counter.get("krylov_iters", 0)
    assert summary["krylov_fallbacks"] == counter.get("krylov_fallbacks", 0) == 0
    assert (summary["krylov_iters"] > 0) == krylov
    summary["krylov_iters"] = -1
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(summary, schema("summary"))


def test_ben_summary_has_no_krylov_counts(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", str(cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert "krylov_iters" not in summary and "krylov_fallbacks" not in summary


def test_check_growth_designed_failure(tmp_path):
    # Psi = u^4/4 cannot stay under 0.1 |u|^4 + 0.1 at large radii
    cfg = write_config(tmp_path, problem={"kind": "anticoercive_fixture"},
                       checks={"run": ["growth"], "samples": 400, "c0": 0.1},
                       time={"t0": 0.0, "t1": 1.0, "steps": 2})
    assert main(["check", "--config", str(cfg)]) == 2
    report = json.loads((tmp_path / "out" / "check.json").read_text())
    jsonschema.validate(report, schema("check"))
    [growth] = report["reports"]
    assert growth["name"] == "growth" and not growth["passed"] and not report["pass"]
    assert growth["violation_count"] == 203


@pytest.mark.parametrize("command,overrides", [
    ("check", {"checks": {"samples": -3}}),
    ("check", {"checks": {"run": "growth"}}),
    ("check", {"checks": {"run": ["growth", "bogus"]}}),
    ("check", {"checks": {"q": 2.0}}),
    ("solve", {"problem": {"kind": "schrodinger", "couplings": [0.5]}}),
    ("solve", {"problem": {"kind": "schrodinger", "couplings": 0.5}}),
    ("solve", {"problem": {"kind": "heat_core"},
               "solver": {"method": "continuation", "eps_schedule": {"start": "abc"}}}),
    ("solve", {"problem": {"kind": "heat_core"},
               "solver": {"method": "continuation", "eps_schedule": {"start": 1.0, "bogus": 2}}}),
    ("solve", {"problem": {"kind": "heat_core"},
               "solver": {"method": "continuation", "eps_schedule": []}}),
    ("solve", {"problem": {"kind": "heat_core"},
               "solver": {"method": "continuation", "eps_schedule": [-1.0]}}),
    ("solve", {"problem": {"kind": "heat_core"},
               "solver": {"method": "continuation", "eps_schedule": [0.5, 1.0]}}),
    ("solve", {"problem": {"kind": "hyperbolic", "damping": [0.1]}}),
    ("solve", {"grid": [32]}),
    ("solve", {"solver": {"gtol": 1e-3}}),
    ("solve", {"grid": {"N": 64}}),
    ("compare", {"compare": {"state_tolerance": 1e-30}}),
    ("solve", {"time": {"T1": 5}}),
    ("solve", {"problem": {"kind": "heat", "q": 4}}),
    ("solve", {"seed": True}),
    ("solve", {"time": {"steps": True}}),
    ("solve", {"solver": {"j_tol": True}}),
    ("solve", {"output": {"timing": "false"}}),
    ("solve", {"output": {"formats": ["xml"]}}),
    ("solve", {"output": {"formats": "json"}}),
    ("solve", {"output": {"formats": []}}),
    ("solve", {"solver": {"max_iterations": 0}}),
    ("solve", {"solver": {"max_iterations": -3}}),
    ("check", {"checks": {"c0": 0.0}}),
    ("check", {"checks": {"c0": -1.0}}),
    ("check", {"seed": -1}),
    ("compare", {"compare": {"j_tol": 0.0}}),
    ("compare", {"compare": {"g_tol": -1e-8}}),
    ("compare", {"compare": {"state_tol": -1.0}}),
    ("compare", {"compare": {"residual_tol": 0.0}}),
    ("solve", {"output": {"directory": None}}),
    ("solve", {"problem": {"kind": "navier_stokes", "initial": 3}}),
    ("solve", {"solver": {"method": "euler", "newton_tol": float("inf")}}),
    ("check", {"checks": {"c0": float("inf")}}),
    ("solve", {"time": {"t1": float("inf")}}),
    ("compare", {"compare": {"perturb": float("nan")}}),
    ("solve", {"problem": {"kind": "hyperbolic", "damping": float("nan")}}),
    ("solve", {"problem": {"kind": "parabolic_divergence", "reaction": float("inf")}}),
    ("solve", {"problem": {"kind": "heat_core"},
               "solver": {"method": "continuation", "eps_schedule": [float("nan")]}}),
    ("check", {"checks": {"run": []}}),
], ids=["negative-samples", "run-string", "run-unknown", "checks-q", "couplings-short",
        "couplings-scalar", "eps-start-text", "eps-unknown-key", "eps-empty-list",
        "eps-negative-list", "eps-increasing-list", "damping-list", "section-list",
        "solver-gtol", "grid-N", "compare-state-tolerance", "time-T1", "heat-q",
        "seed-bool", "steps-bool", "j-tol-bool", "timing-string", "formats-unknown",
        "formats-string", "formats-empty", "max-iterations-zero", "max-iterations-negative",
        "c0-zero", "c0-negative", "seed-negative", "compare-j-tol-zero",
        "compare-g-tol-negative", "compare-state-tol-negative", "compare-residual-tol-zero",
        "directory-null", "initial-number", "newton-tol-inf", "c0-inf", "t1-inf",
        "perturb-nan", "damping-nan", "reaction-inf", "eps-nan-list", "run-empty"])
def test_bad_config_value_is_a_config_error_before_any_problem_is_built(
        tmp_path, capsys, monkeypatch, command, overrides):
    def no_build(cfg):
        raise AssertionError("a problem was built")

    monkeypatch.setattr(cli, "build_problem", no_build)
    cfg = write_config(tmp_path, **overrides)
    assert main([command, "--config", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_seed_override_is_validated_like_the_config_seed(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["check", "--config", str(cfg), "--seed", "-1"]) == 1
    assert "config error: seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eps_schedule_out_of_range_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, problem={"kind": "heat_core"},
                       solver={"method": "continuation", "eps_schedule": {"start": -1.0}})
    assert main(["solve", "--config", str(cfg)]) == 1
    assert "config error: solver.eps_schedule" in capsys.readouterr().err


def test_a_key_left_out_takes_its_one_default():
    # steps without a time section and with one; t1 for every kind; kind without a problem
    assert RunConfig.from_dict({"time": {"t1": 0.2}}).time["steps"] == 50
    bare = RunConfig.from_dict({"problem": {"kind": "scalar_decay"}})
    timed = RunConfig.from_dict({"problem": {"kind": "scalar_decay"}, "time": {"steps": 4}})
    assert cli.build_problem(bare).horizon == cli.build_problem(timed).horizon == (0.0, 0.1)
    assert RunConfig.from_dict({"problem": {}}) == RunConfig.from_dict({})
    assert RunConfig.from_dict({"problem": {}}).problem["kind"] == "heat"


def _library_default(section, key):
    """The default that the library itself gives an option whose OPTIONS default is None."""
    if section == "compare":
        return inspect.signature(verify_equivalence).parameters[key].default
    if key == "newton_tol":
        return inspect.signature(implicit_euler_solve).parameters[key].default
    return getattr(MinimizeOptions(), key)


def _readme_config() -> str:
    """The example config of README's Config format section."""
    text = README.read_text(encoding="utf-8").split("### Config format", 1)[1]
    return text.split("```yaml\n", 1)[1].split("```", 1)[0]


EVERY_SECTION = """\
problem: {kind: schrodinger, couplings: [0.2, -0.1]}
grid: {n: 10, k: 8}
time: {t0: 0, t1: 0.25, steps: 7}
solver: {method: continuation, j_tol: 1.0e-11, g_tol: 2.0e-9, max_iterations: 500,
         newton_tol: 1.0e-13, eps_schedule: [1.0, 0.5, 0.125]}
compare: {j_tol: 1.0e-9, g_tol: 1.0e-7, state_tol: 1.0e-4, residual_tol: 1.0e-5,
          perturb: -0.01}
checks: {run: [growth, coercivity], samples: 20, c0: 3}
output: {directory: "some dir/out", formats: [json], timing: true, workers: ~}
seed: 12
"""


@pytest.mark.parametrize("which", ["readme", "every_section"])
def test_config_file_resolves_as_its_safe_load_does(tmp_path, which):
    # from_file parses with libyaml where PyYAML has it: the same resolver and
    # constructor as yaml.safe_load, so the same resolved config
    text = EVERY_SECTION
    if which == "readme":
        # its problem section lists every family's keys; heat takes none of them
        head, tail = _readme_config().split("  # family parameters:\n", 1)
        text = head + tail[tail.index("grid:"):]
    path = tmp_path / "run.yaml"
    path.write_text(text, encoding="utf-8")
    assert RunConfig.from_file(path) == RunConfig.from_dict(yaml.safe_load(text))


def test_readme_config_format_shows_every_option_and_its_default():
    shown = yaml.safe_load(_readme_config())
    resolved = RunConfig.from_dict({"problem": {"kind": "heat"}})
    assert set(shown) == {*cli.OPTIONS, "seed"}
    assert shown["seed"] == resolved.seed
    for section, options in cli.OPTIONS.items():
        # output.workers is read by nothing and left out of the example on purpose
        assert set(shown[section]) == set(options) - {"workers"}, section
        if section == "problem":
            continue                # examples, not defaults
        for key, value in shown[section].items():
            expected = getattr(resolved, section)[key]
            if key == "eps_schedule":
                value = default_schedule(**value)
            if expected is None:
                expected = _library_default(section, key)
            # list values resolve to tuples
            assert (tuple(value) if isinstance(value, list) else value) == expected, \
                f"{section}.{key}"
