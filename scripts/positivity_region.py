#!/usr/bin/env python3
"""Estimate how much of coefficient space yields a positive metric.

Sweeps the coupling for a few sizes and reports the positive fraction of
seeded uniform coefficient draws, plus how often the spectral-weight
verdict and the closed-form cone verdict agree with the eigenvalue
verdict, over the draws away from the boundary.
"""

import argparse

from metric_forge.analysis import sample_positivity_region


def _agreement(verdicts, result) -> float:
    """The share of draws away from the boundary on which `verdicts`
    equals the eigenvalue verdict; nan where there is none."""
    comparable = ~result.near_boundary
    if verdicts is None or not comparable.any():
        return float("nan")
    agree = verdicts[comparable] == result.positive[comparable]
    return int(agree.sum()) / len(agree)


def run(sizes: list[int], count: int, seed: int) -> None:
    print("n,lambda,fraction_positive,weight_agreement,closed_form_agreement")
    for n in sizes:
        for lam in (-0.8, -0.4, 0.0, 0.4, 0.8):
            result = sample_positivity_region(n, lam, seed=seed, count=count)
            weights = _agreement(result.weights_positive, result)
            closed_form = _agreement(result.closed_form_positive, result)
            print(f"{n},{lam},{result.fraction_positive:.4f},{weights:.4f},{closed_form:.4f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="2,4,6", help="comma-separated even sizes")
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    run([int(s) for s in args.sizes.split(",")], args.count, args.seed)
