"""Seeded command lists of the three benchmark workloads, and the
environment their commands run in.

A workload is a fixed list of `metric-forge` command lines.  The seed
picks only the couplings and the sampler seed that go into those argv;
every size, grid and sample count is fixed by the profile, so timings of
different seeds are comparable.  The "smoke" profile keeps the same
commands at tiny sizes for the benchmark's own tests.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("verify_exact", "sweep_float", "continuum_ladder")

# Timed several times per run for `setup_s`; it does almost nothing but import.
SETUP_ARGV = ("hamiltonian", "--n", "2", "--lambda", "0")

# Every reduced p/q with 2 <= q <= 9 and 0 < |p| < q.  golden.json pins the
# stdout of every exact command at each of them, so any seed can be checked.
EXACT_COUPLINGS = tuple(
    str(f)
    for f in sorted({Fraction(p, q) for q in range(2, 10) for p in range(1 - q, q) if p})
)

PROFILES = {
    "full": {
        "verify_sizes": (10, 14, 18, 22),
        "emit_n": 40,
        "hamiltonian_n": 400,
        "grids": ((40, "-1.2:1.2:1201"), (6, "-0.999:0.999:4001")),
        "samples": 20000,
        "continuum_sizes": "160,320,640,1280",
    },
    "smoke": {
        "verify_sizes": (4, 6),
        "emit_n": 6,
        "hamiltonian_n": 8,
        "grids": ((8, "-1.2:1.2:25"), (4, "-0.999:0.999:21")),
        "samples": 200,
        "continuum_sizes": "40,80,160",
    },
}

# What the two command groups of each workload are called in the report.
GROUP_NAMES = {
    "verify_exact": ("verify_s", "emit_s"),
    "sweep_float": ("scan_s", "sample_s"),
    "continuum_ladder": ("state1_s", "state2_s"),
}

# Items per second over a group, for the groups whose commands process items.
GROUP_RATES = {
    "sweep_float": ("scan_pts_per_s", "samples_per_s"),
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its argv, the group it is timed in, the output
    check that applies (see checks.py) and how many items it processes."""

    argv: tuple[str, ...]
    group: str
    kind: str
    items: int = 0

    @property
    def text(self) -> str:
        return " ".join(self.argv)


def _float_coupling(rng: random.Random, low: float, high: float) -> str:
    return f"{rng.uniform(low, high):.4f}"


def _grid_count(grid: str) -> int:
    return int(grid.rsplit(":", 1)[1])


def _verify_exact(lam: str, sizes: dict) -> list[Command]:
    emit_n = str(sizes["emit_n"])
    commands = [
        Command(("metric", "verify", "--n", str(n), "--lambda", lam), "core", "verify")
        for n in sizes["verify_sizes"]
    ]
    commands += [
        Command(("metric", "basis", "--n", emit_n, "--lambda", lam), "side", "exact"),
        Command(("metric", "basis", "--n", emit_n), "side", "exact"),
        Command(
            ("hamiltonian", "--n", str(sizes["hamiltonian_n"]), "--lambda", lam, "--format", "csv"),
            "side",
            "exact",
        ),
    ]
    return commands


def build_commands(workload: str, seed: int, profile: str = "full") -> list[Command]:
    """The command list of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sizes = PROFILES[profile]
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify_exact":
        return _verify_exact(rng.choice(EXACT_COUPLINGS), sizes)
    if workload == "sweep_float":
        lam2 = _float_coupling(rng, -0.9, 0.9)
        lam6 = _float_coupling(rng, -0.9, 0.9)
        sampler_seed = str(rng.randrange(2**31))
        count = sizes["samples"]
        commands = [
            Command(("spectrum", "--n", str(n), "--grid", grid), "core", "spectrum", _grid_count(grid))
            for n, grid in sizes["grids"]
        ]
        commands += [
            Command(
                ("positivity", "--n", n, "--lambda", lam, "--sample", str(count), "--seed", sampler_seed),
                "side",
                "positivity",
                count,
            )
            for n, lam in (("2", lam2), ("4", "0"), ("6", lam6))
        ]
        return commands
    lam = _float_coupling(rng, 0.3, 0.8)
    return [
        Command(
            ("continuum", "--lambda", sign + lam, "--sizes", sizes["continuum_sizes"], "--state", state),
            group,
            "continuum",
        )
        for sign, state, group in (("", "1", "core"), ("-", "2", "side"))
    ]


def exact_commands(profile: str) -> list[tuple[str, ...]]:
    """Every exact command line any seed can generate, plus the setup command;
    these are the outputs golden.json pins."""
    argvs = {SETUP_ARGV: None}
    for lam in EXACT_COUPLINGS:
        argvs.update((c.argv, None) for c in _verify_exact(lam, PROFILES[profile]))
    return list(argvs)


def child_env() -> dict[str, str]:
    """Environment of every CLI child: the checkout's package first on the
    path, and METRIC_FORGE_THREADS left unset."""
    env = dict(os.environ)
    env.pop("METRIC_FORGE_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env
