"""Time `minimize` on the q = 4 panel inputs, on heat and on Navier-Stokes.

    python tools/minimize_timing.py --src src

imports evomin from the given source directory, pins BLAS to one thread
and prints, for each case, the iterations, the energy evaluations, the
L-BFGS fallbacks of the Newton direction ("-" where the tree does not
count them) and the best of three wall times of `minimize(problem,
steps=M)` with the default options; the problem is built outside the
timed call.  The cases are the four `powerlaw_compare` panel inputs
(q = 4 parabolic_divergence, t1 = 0.1) at n = 8 with M = 4 and M = 64 and
at n = 32 with M = 50, heat at n = 32 and n = 1024 with M = 50, and
Navier-Stokes from a random start (k = 16, seed 3, viscosity 0.1, t1 = 1)
at M = 20.  Run it on two source trees to compare them.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy is imported

# (reaction, flux, gamma), the panel of perfbench/workloads.py
PANEL = (
    (-0.9123, 0.3154, 0.6819),
    (-0.9304, 0.2450, 0.5600),
    (-0.5126, 0.3102, 0.2951),
    (-1.2884, 0.3904, 0.2912),
)
REPEATS = 3


def cases(applications):
    """(label, problem, M) for every case, in a fixed order."""
    out = []
    for n, steps in ((8, 4), (8, 64), (32, 50)):
        for reaction, flux, gamma in PANEL:
            problem = applications.build_parabolic_divergence(
                n, q=4.0, theta=applications.PointwiseMap.linear(reaction),
                xi=applications.PointwiseMap.saturated_cubic(flux),
                gamma=applications.PointwiseMap.arctan(gamma), t1=0.1)
            out.append((f"q4 reaction={reaction} n={n}", problem, steps))
    for n in (32, 1024):
        out.append((f"heat n={n}", applications.build_heat(n), 50))
    ns = applications.build_navier_stokes_2d(16, viscosity=0.1, t1=1.0, initial="random",
                                             seed=3)
    out.append(("navier_stokes random k=16", ns, 20))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default="src", help="directory that holds the evomin package")
    sys.path.insert(0, parser.parse_args().src)
    from evomin import applications
    # the package exports the function minimize under the module's name
    module = importlib.import_module("evomin.minimize")
    real = module.energy_breakdown
    evaluations = []

    def counting(*args, **kwargs):
        evaluations.append(1)
        return real(*args, **kwargs)

    module.energy_breakdown = counting
    print("case | M | iterations | evaluations | fallbacks | minimize s")
    for label, problem, steps in cases(applications):
        best = float("inf")
        for _ in range(REPEATS):
            evaluations.clear()
            start = time.perf_counter()
            res = module.minimize(problem, steps=steps)
            best = min(best, time.perf_counter() - start)
        fallbacks = getattr(res, "lbfgs_fallbacks", "-")
        print(f"{label} | {steps} | {res.iterations} | {len(evaluations)} | {fallbacks} | "
              f"{best:.4f}")


if __name__ == "__main__":
    main()
