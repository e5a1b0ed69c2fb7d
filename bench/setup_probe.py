"""Time what a `pxthin run` pays before its first solve, in a fresh process.

    python3 bench/setup_probe.py <config> <solves: 0|1>

Covers importing pxthin.cli, parsing the config, building the mesh and,
when the workload solves, the EnergySetup of the solve.  Prints the
elapsed seconds as its only output line.
"""

import sys
import time

T0 = time.perf_counter()

import pxthin.cli as cli  # noqa: E402


def main(path, solves):
    config = cli.parse_config(path)
    mesh = cli.build(config["mesh"]["level"], config["mesh"]["grading"])
    if solves:
        exponent = config["exponent"]
        field = cli.ExponentField(exponent["family"], exponent["coefficients"],
                                  beta=exponent["beta"],
                                  holder_seminorm=exponent["holder_seminorm"])
        cli.EnergySetup(mesh, field)
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2] == "1")
