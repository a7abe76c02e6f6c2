"""Tests of the benchmark itself: tracing is transparent, its arithmetic is right,
and the per-job correctness checks can fail.

    python3 -m pytest -q perfbench/tests
"""

import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

import tracer
import workloads
from evomin import applications, cli
from evomin.minimize import MinimizeOptions
from tracer import Span, Tracer, job_metrics, rejected_trials, self_times

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _run(name: str, cfg: dict, out: Path, tmp: Path) -> int:
    cfg = dict(cfg, output=dict(cfg["output"], directory=str(out)))
    path = tmp / f"{out.name}.yaml"
    path.write_text(yaml.safe_dump(cfg))
    command = workloads.WORKLOADS[name].command
    return cli.main([command, "--config", str(path), "--seed", str(cfg["seed"])])


def _small(name: str) -> dict:
    """Input 0 of a workload, shrunk to test size."""
    cfg = workloads.WORKLOADS[name].config(3, 0)
    if name == "heat_compare":
        cfg["grid"], cfg["time"]["steps"] = {"n": 8}, 5
    elif name == "ns_euler":
        cfg["grid"], cfg["time"]["steps"] = {"k": 8}, 2
    elif name == "checks":
        cfg["checks"]["samples"] = 200
    return cfg


def _originals():
    out = []
    for module, cls, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
            out.append((owner, attr, owner.__dict__[attr]))
        else:
            out.append((owner, attr, getattr(owner, attr)))
    return out


@pytest.mark.parametrize("name", ["heat_compare", "ns_euler", "checks"])
def test_tracing_leaves_artifacts_byte_identical_and_restores_names(name, tmp_path):
    cfg = _small(name)
    before = _originals()
    assert _run(name, cfg, tmp_path / "plain", tmp_path) == 0
    with Tracer() as tr, tr.span(tracer.ROOT):
        assert _run(name, cfg, tmp_path / "traced", tmp_path) == 0
    assert len(tr.spans) > 10
    for owner, attr, original in before:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner.__name__}.{attr} not restored"
    plain = {p.name: p.read_bytes() for p in (tmp_path / "plain").iterdir()}
    traced = {p.name: p.read_bytes() for p in (tmp_path / "traced").iterdir()}
    assert plain and plain == traced


def test_self_times_and_layer_sums_on_nested_spans():
    root = Span("cli.main", None, 0.0, 10.0)
    fg = Span("energy.breakdown", root, 1.0, 4.0)
    conj = Span("potential.conjugate", fg, 2.0, 3.0)
    hess = Span("potential.hess_matrix", conj, 2.2, 2.7)
    oracle = Span("oracle.implicit_euler_solve", root, 4.5, 9.5)
    lu = Span("oracle.lu_factor", oracle, 5.0, 9.0, note=3)
    outer_apply = Span("triple.apply", root, 9.6, 9.9)
    inner_apply = Span("triple.apply", outer_apply, 9.7, 9.8)
    spans = [root, fg, conj, hess, oracle, lu, outer_apply, inner_apply]

    own = self_times(spans)
    expected = {id(root): 1.7, id(fg): 2.0, id(conj): 0.5, id(hess): 0.5,
                id(oracle): 1.0, id(lu): 4.0, id(outer_apply): 0.2, id(inner_apply): 0.1}
    for key, value in expected.items():
        assert own[key] == pytest.approx(value)

    m = job_metrics(spans)
    assert m["traced_job_s"] == 10.0
    assert m["cli.self_s"] == pytest.approx(1.7)
    assert m["energy.self_s"] == pytest.approx(2.0)
    assert m["potential.self_s"] == pytest.approx(1.0)
    assert m["oracle.self_s"] == pytest.approx(5.0)
    assert m["triple.self_s"] == pytest.approx(0.3)
    assert sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS) == pytest.approx(10.0)
    assert m["potential.conjugate_newton_iters"] == 1
    assert m["euler_newton_iters"] == 1
    assert m["oracle.lu_flop_computed"] == pytest.approx(18.0)
    assert m["oracle.lu_s"] == pytest.approx(4.0)
    assert (m["triple.apply_calls"], m["triple.apply_s"]) == (1, pytest.approx(0.3))


def test_rejected_trials_are_split_by_exception_type():
    root = Span("minimize.minimize", None, 0.0, 5.0, note=1)
    spans = [root,
             Span("energy.breakdown", root, 0.0, 1.0),
             Span("energy.gradient", root, 1.0, 2.0),
             Span("energy.breakdown", root, 2.0, 3.0, error="ConjugateFailure"),
             Span("energy.breakdown", root, 3.0, 3.5),
             Span("energy.gradient", root, 3.5, 4.0, error="OperatorEvaluationError"),
             Span("energy.breakdown", root, 4.0, 5.0)]
    assert rejected_trials(spans) == {"ConjugateFailure": 1, "OperatorEvaluationError": 1}
    m = job_metrics(spans)
    assert m["minimize.rejected_trials"] == 2
    assert m["energy.fg_evals"] == 4
    assert m["minimize.backtracks"] == 4 - 1 - 1


def test_backtracks_and_accept_ratio_match_a_hand_count_on_scalar_decay():
    problem = applications.build_scalar_decay(t1=1.0)
    with Tracer() as tr, tr.span(tracer.ROOT):
        res = cli.minimize(problem, steps=8, opts=MinimizeOptions(require_gradient=True))
    m = job_metrics(tr.spans)
    # every accepted step halved alpha = 2^-b times from 1; the run stops at the
    # top of an iteration, so each iteration evaluated 1 + b trial points
    assert res.converged and len(res.step_sizes) == res.iterations
    halvings = [round(-math.log2(a)) for a in res.step_sizes]
    assert sum(halvings) > 0
    fg_evals = 1 + sum(1 + b for b in halvings)
    assert m["lbfgs_iters"] == res.iterations
    assert m["energy.fg_evals"] == fg_evals
    assert m["minimize.backtracks"] == sum(halvings)
    assert m["minimize.accept_ratio"] == pytest.approx(res.iterations / fg_evals)
    assert m["minimize.rejected_trials"] == 0


def test_compare_check_rejects_a_false_criterion(tmp_path):
    report = {"pass": True, "criteria": dict.fromkeys(workloads.CRITERIA, True)}
    (tmp_path / "compare.json").write_text(json.dumps(report))
    assert workloads.check_compare({}, tmp_path) == []
    report["criteria"]["solves_equation"] = False
    (tmp_path / "compare.json").write_text(json.dumps(report))
    assert workloads.check_compare({}, tmp_path) == ["compare criterion solves_equation is False"]


def test_solve_check_recomputes_the_residual(tmp_path):
    cfg = _small("ns_euler")
    out = tmp_path / "out"
    assert _run("ns_euler", cfg, out, tmp_path) == 0
    assert workloads.check_solve(cfg, out) == []
    lines = (out / "trajectory.csv").read_text().splitlines()
    row = lines[-1].split(",")
    row[1] = repr(float(row[1]) + 1e-6)
    (out / "trajectory.csv").write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")
    problems = workloads.check_solve(cfg, out)
    assert len(problems) == 1 and problems[0].startswith("recomputed residual")


def test_checks_check_compares_constants_with_the_reference(tmp_path):
    reference = workloads.load_reference_constants()["fitted_constants"]
    reports = [{"name": name, "passed": True, "samples": 10000,
                "fitted_constants": dict(constants)} for name, constants in reference.items()]
    cfg = {"checks": {"samples": 10000}}
    (tmp_path / "check.json").write_text(json.dumps({"pass": True, "reports": reports}))
    assert workloads.check_checks(cfg, tmp_path) == []
    reports[0]["fitted_constants"]["c0_min"] *= 1.1
    (tmp_path / "check.json").write_text(json.dumps({"pass": True, "reports": reports}))
    assert len(workloads.check_checks(cfg, tmp_path)) == 1


def test_job_inputs_depend_only_on_seed_and_index():
    for wl in workloads.WORKLOADS.values():
        assert wl.config(5, 3) == wl.config(5, 3)
        assert wl.config(5, 3)["seed"] != wl.config(6, 3)["seed"]
    panel = {tuple(workloads.WORKLOADS["powerlaw_compare"].config(9, i)["problem"][k]
                   for k in ("reaction", "flux", "gamma")) for i in range(4)}
    assert panel == set(workloads.POWERLAW_PANEL)


def test_benchmark_json_names_what_the_runner_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    spans = [Span(tracer.ROOT, None, 0.0, 1.0)]
    produced = set(job_metrics(spans)) | {"tracing_overhead_s", "cli.artifact_bytes"}
    assert {m["name"] for m in BENCHMARK["per_layer"]} == produced
    assert np.isfinite(list(job_metrics(spans).values())).all()
