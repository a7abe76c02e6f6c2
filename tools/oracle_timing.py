"""Time the implicit-Euler oracle on large problems.

    OPENBLAS_NUM_THREADS=1 python tools/oracle_timing.py --src src [--crossover]

imports evomin from the given source directory and prints, for heat at
n = 256 and n = 1024 and heat_core at n = 1024, the best of three wall
times of `implicit_euler_solve(problem, 50)`, and for Navier-Stokes from a
random start (nu = 0.1, t1 = 1, seeds 1-3) at k = 24 and k = 32 the best of
three wall times of the three `implicit_euler_solve(problem, 10)` calls
with their summed Newton and GMRES iterations; problems are built outside
the timed calls.  With --crossover it instead times the Navier-Stokes
cases at k = 14, 16, 18, 20, 22 and 24 on both linear solves, the dense
LU and GMRES, whatever KRYLOV_MIN_DIM says.  Run it on two source trees
to compare them.
"""

from __future__ import annotations

import argparse
import sys
import time

CASES = (("heat", 256), ("heat", 1024), ("heat_core", 1024))
STEPS = 50
NS_KS = (24, 32)
CROSSOVER_KS = (14, 16, 18, 20, 22, 24)
NS_SEEDS = (1, 2, 3)
NS_STEPS = 10
REPEATS = 3


def best_time(solve, problems) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for problem in problems:
            solve(problem)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default="src", help="directory that holds the evomin package")
    parser.add_argument("--crossover", action="store_true",
                        help="time Navier-Stokes on the LU and on GMRES at k = 14..24")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from evomin import applications, oracle
    from evomin.oracle import implicit_euler_solve

    if not args.crossover:
        for kind, n in CASES:
            problem = getattr(applications, f"build_{kind}")(n)
            best = best_time(lambda p: implicit_euler_solve(p, STEPS), [problem])
            print(f"{kind} n={n} M={STEPS}: {best:.3f} s")
    for k in CROSSOVER_KS if args.crossover else NS_KS:
        problems = [applications.build_navier_stokes_2d(k, initial="random", seed=seed)
                    for seed in NS_SEEDS]
        paths = ({" lu": problems[0].dim + 1, " gmres": 1} if args.crossover
                 else {"": oracle.KRYLOV_MIN_DIM})
        for label, min_dim in paths.items():
            oracle.KRYLOV_MIN_DIM = min_dim
            counter = {}
            for problem in problems:
                implicit_euler_solve(problem, NS_STEPS, counter=counter)
            best = best_time(lambda p: implicit_euler_solve(p, NS_STEPS), problems)
            print(f"navier_stokes k={k} dim={problems[0].dim} M={NS_STEPS} seeds 1-3{label}: "
                  f"{best:.3f} s, newton {counter['newton_iters']}, "
                  f"gmres {counter.get('krylov_iters', 0)}")


if __name__ == "__main__":
    main()
