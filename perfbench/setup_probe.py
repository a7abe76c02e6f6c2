"""Time one set-up in this fresh process: import evomin, parse a config, build the problem.

Usage: python3 setup_probe.py SRC_DIR CONFIG.yaml   (prints the seconds taken)
"""

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from evomin import cli

    cli.build_problem(cli.RunConfig.from_file(sys.argv[2]))
    print(repr(time.perf_counter() - start))
