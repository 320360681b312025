"""Compare two result files written with `run.py --out`.

For each workload and metric it prints both medians and quartiles, the
share of pairs the change won, and a verdict:

* better / worse: the change wins (loses) at least 9/10 of the pairs and
  the medians differ by more than the parent's interquartile distance;
* unchanged: the medians differ by no more than that distance;
* unresolved: anything else.

Runs are paired by seed when the files share seeds, else in file order.
Ties count for neither side.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

WIN_SHARE = 0.9


def load(path: Path) -> dict[tuple[str, str], list[tuple[int, float, str]]]:
    """(workload, metric) -> [(seed, value, better)] in file order."""
    series: dict[tuple[str, str], list[tuple[int, float, str]]] = defaultdict(list)
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        for name, metric in run["metrics"].items():
            series[(run["workload"], name)].append((run["seed"], metric["value"], metric["better"]))
    return series


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _pairs(parent: list[tuple[int, float, str]], change: list[tuple[int, float, str]]) -> list[tuple[float, float]]:
    by_seed = {seed: value for seed, value, _ in change}
    shared = [(value, by_seed[seed]) for seed, value, _ in parent if seed in by_seed]
    if shared:
        return shared
    return [(a[1], b[1]) for a, b in zip(parent, change)]


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]], better: str) -> tuple[str, int]:
    """The verdict and the number of pairs the change won."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
    p1, p2, p3 = quartiles(parent)
    gap = statistics.median(change) - p2
    if abs(gap) <= p3 - p1:
        return "unchanged", wins
    if pairs and wins >= WIN_SHARE * len(pairs) and sign * gap > 0:
        return "better", wins
    if pairs and losses >= WIN_SHARE * len(pairs) and sign * gap < 0:
        return "worse", wins
    return "unresolved", wins


def compare(parent_path: Path, change_path: Path) -> str:
    parent, change = load(parent_path), load(change_path)
    header = f"{'workload':<17} {'metric':<28} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'won':>7}  verdict"
    lines = [header]
    for key in sorted(set(parent) & set(change)):
        a = [v for _, v, _ in parent[key]]
        b = [v for _, v, _ in change[key]]
        pairs = _pairs(parent[key], change[key])
        result, wins = verdict(a, b, pairs, parent[key][0][2])
        fa = "/".join(f"{v:.4g}" for v in quartiles(a))
        fb = "/".join(f"{v:.4g}" for v in quartiles(b))
        won = f"{wins}/{len(pairs)}"
        lines.append(f"{key[0]:<17} {key[1]:<28} {fa:>32} {fb:>32} {won:>7}  {result}")
    return "\n".join(lines)
