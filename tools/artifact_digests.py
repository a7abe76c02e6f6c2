"""Print the exit code and artifact digest of a fixed matrix of CLI runs.

    python tools/artifact_digests.py --src src

imports evomin from the given source directory and runs `evomin.cli.main`
in-process on every case: each problem kind through `solve` (ben and
euler), `compare`, `check` and `convergence`, also for nonzero-coupling
hyperbolic and Schrodinger, a q = 4 parabolic_divergence (whose energy
solves the conjugate by Newton) and Navier-Stokes from a random start;
plus continuation on heat_core, Navier-Stokes at k = 24 and heat_core at
n = 320.  Each output line is

    <case> exit=<code> <sha256>

with the SHA-256 taken over the names and bytes of every file the run
wrote.  Timing is off in every config, so two source trees that compute
the same thing print the same lines; diff the output of two trees to see
which cases a change moves.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import yaml

BASE = {
    "grid": {"n": 8, "k": 8},
    "time": {"t0": 0.0, "t1": 0.1, "steps": 8},
    "checks": {"samples": 200},
    "seed": 0,
}

# problem.kind -> problem section; the nonlinear options make every term kind appear
KINDS = {
    "heat": {},
    "parabolic_divergence": {"reaction": -0.5, "flux": 0.5, "gamma": 1.0},
    "parabolic_nondivergence": {"gamma": 1.0},
    "hyperbolic": {},
    "schrodinger": {},
    "navier_stokes": {},
    "scalar_decay": {},
    "anticoercive_fixture": {},
    "heat_core": {},
}
COMMANDS = {
    "solve-ben": ("solve", {"solver": {"method": "ben"}}),
    "solve-euler": ("solve", {"solver": {"method": "euler"}}),
    "compare": ("compare", {}),
    "check": ("check", {}),
    "convergence": ("convergence", {}),
}
COUPLED = {
    "hyperbolic-nonlinear": {"kind": "hyperbolic", "damping": 0.1, "nonlinearity": 0.5},
    "schrodinger-coupled": {"kind": "schrodinger", "couplings": [0.5, 0.25]},
    "parabolic_divergence-q4": {"kind": "parabolic_divergence", "q": 4.0, "reaction": -0.5,
                                "flux": 0.5, "gamma": 1.0},
    "navier_stokes-random": {"kind": "navier_stokes", "initial": "random"},
}


def cases() -> list:
    """(name, command, config) for every case, in a fixed order."""
    problems = {kind: {"kind": kind, **extra} for kind, extra in KINDS.items()}
    problems.update(COUPLED)
    out = []
    for label, problem in problems.items():
        for cmd_label, (command, extra) in COMMANDS.items():
            out.append((f"{label}/{cmd_label}", command, {**extra, "problem": problem}))
    out.append(("heat_core/solve-continuation", "solve", {
        "problem": {"kind": "heat_core"},
        "solver": {"method": "continuation",
                   "eps_schedule": {"start": 1.0, "factor": 0.25, "levels": 6}}}))
    out.append(("navier_stokes-k24/solve-euler", "solve", {
        "problem": {"kind": "navier_stokes"}, "grid": {"k": 24},
        "time": {"t0": 0.0, "t1": 0.1, "steps": 2}, "solver": {"method": "euler"}}))
    out.append(("heat_core-n320/solve-euler", "solve", {
        "problem": {"kind": "heat_core"}, "grid": {"n": 320},
        "time": {"t0": 0.0, "t1": 0.1, "steps": 4}, "solver": {"method": "euler"}}))
    return out


def digest(directory: Path) -> str:
    """SHA-256 over the relative names and bytes of every file under directory."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def run_case(main, command: str, config: dict, workdir: Path) -> tuple[int, str]:
    cfg = {**BASE, **config}
    path = workdir / "run.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    out = workdir / "out"
    argv = [command, "--config", str(path), "--out", str(out)]
    if command == "convergence":
        argv += ["--refinements", "2"]
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, digest(out) if out.exists() else "-"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True,
                        help="directory that holds the evomin package to run")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from evomin import cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"evomin was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    for name, command, config in cases():
        with tempfile.TemporaryDirectory() as tmp:
            code, sha = run_case(cli.main, command, config, Path(tmp))
        print(f"{name} exit={code} {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
