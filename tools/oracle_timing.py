"""Time the implicit-Euler oracle on the 1D families at large n.

    OPENBLAS_NUM_THREADS=1 python tools/oracle_timing.py --src src

imports evomin from the given source directory and prints, for heat at
n = 256 and n = 1024 and heat_core at n = 1024, the best of three wall
times of `implicit_euler_solve(problem, 50)`; the problem is built
outside the timed call.  Run it on two source trees to compare them.
"""

from __future__ import annotations

import argparse
import sys
import time

CASES = (("heat", 256), ("heat", 1024), ("heat_core", 1024))
STEPS = 50
REPEATS = 3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default="src", help="directory that holds the evomin package")
    sys.path.insert(0, parser.parse_args().src)
    from evomin import applications
    from evomin.oracle import implicit_euler_solve

    for kind, n in CASES:
        problem = getattr(applications, f"build_{kind}")(n)
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            implicit_euler_solve(problem, STEPS)
            best = min(best, time.perf_counter() - start)
        print(f"{kind} n={n} M={STEPS}: {best:.3f} s")


if __name__ == "__main__":
    main()
