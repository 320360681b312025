#!/usr/bin/env python3
"""Tabulate the matching-condition convergence and the opaque-wall trend.

For each coupling and low-lying state, prints the relative matching
residual per lattice size and the fitted log-log slope (expected near 2),
followed by the normalized central amplitude of the ground state.  A row
whose residuals the fit refuses, such as one of exactly 1 where the state
is not resolved on that lattice, prints `unresolved` for its slope.
"""

import argparse

from metric_forge.continuum import (
    fit_loglog_slope,
    matching_residual,
    opaque_wall_check,
)
from metric_forge.errors import DomainError
from metric_forge.hamiltonian import HamiltonianSpec


def run(couplings: list[float], sizes: list[int], states: int) -> None:
    print("lambda,state," + ",".join(f"r_n{n}" for n in sizes) + ",slope")
    for lam in couplings:
        for state in range(1, states + 1):
            residuals = [
                matching_residual(HamiltonianSpec(n, lam), state) for n in sizes
            ]
            try:
                slope = f"{fit_loglog_slope(sizes, residuals):.3f}"
            except DomainError:
                slope = "unresolved"
            cells = ",".join(f"{r:.3e}" for r in residuals)
            print(f"{lam},{state},{cells},{slope}")
    for lam in couplings:
        wall = opaque_wall_check(lam, sizes)
        amps = ",".join(f"{a:.4f}" for a in wall.amplitudes)
        print(f"# wall lambda={lam}: amplitudes {amps} decreasing={wall.decreasing}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--couplings", default="0.3,0.5,0.7")
    parser.add_argument("--sizes", default="40,80,160,320")
    parser.add_argument("--states", type=int, default=3)
    args = parser.parse_args()
    run(
        [float(v) for v in args.couplings.split(",")],
        [int(v) for v in args.sizes.split(",")],
        args.states,
    )
