#!/usr/bin/env python3
"""Estimate how much of coefficient space yields a positive metric.

Sweeps the coupling for a few sizes and reports the positive fraction of
seeded uniform coefficient draws, plus verdict-agreement statistics
between the eigenvalue test and the spectral-weight test.
"""

import argparse

from metric_forge.analysis import sample_positivity_region


def run(sizes: list[int], count: int, seed: int) -> None:
    print("n,lambda,fraction_positive,weight_agreement")
    for n in sizes:
        for lam in (-0.8, -0.4, 0.0, 0.4, 0.8):
            result = sample_positivity_region(n, lam, seed=seed, count=count)
            comparable = ~result.near_boundary
            ratio = float("nan")
            if result.weights_positive is not None and comparable.any():
                agree = result.weights_positive[comparable] == result.positive[comparable]
                ratio = int(agree.sum()) / len(agree)
            print(f"{n},{lam},{result.fraction_positive:.4f},{ratio:.4f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="2,4,6", help="comma-separated even sizes")
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    run([int(s) for s in args.sizes.split(",")], args.count, args.seed)
