"""metric-forge benchmark: CLI workloads timed end to end, layers traced.

    python3 perfbench/run.py --workload verify_exact --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

Every command of a workload runs as a fresh `python3 -m metric_forge.cli`
subprocess, one at a time, timed from start to exit, and its output is
checked (checks.py).  A run repeats the workload's command list in passes
until `--seconds` is used up and reports medians over the passes.  With
`--trace 1` it alternates one untraced pass with one traced pass
(tracer.py) and reports the per-layer metrics instead.

The report goes to stdout: a table with every metric, its unit and its
sample count, then, as the last line, the result object
{"correct", "attempted", "failed", "metrics"}.  `--out FILE` also appends
the run, with the machine facts, to FILE as one JSON line for `--compare`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import compare
import golden
import tracer
from workloads import GROUP_NAMES, GROUP_RATES, HERE, ROOT, SETUP_ARGV, WORKLOADS, Command, build_commands, child_env

# One run must end within this many seconds of its start, whatever --seconds says.
RUN_LIMIT_S = 160.0
# setup_s is the median of this many starts at the beginning of a run plus
# one after every pass, so that it samples the whole run.
SETUP_REPEATS = 3
SHOWN_FAILURES = 20
# wall_s is a median, so an untraced run makes at least this many passes.
MIN_PASSES = 2

# name -> (unit, better); the result line of an untraced run carries exactly these.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Shown in the table and written with --out, not in the result line: each
# applies to one workload only, or is already given by attempted/failed.
# A command group takes only part of a run, so on a shared machine its
# run-to-run spread is too wide for a bound; compare them with --compare.
REPORTED = {
    **{name: ("s", "lower") for pair in GROUP_NAMES.values() for name in pair},
    **{name: ("1/s", "higher") for pair in GROUP_RATES.values() for name in pair},
    "fail_frac": ("ratio", "lower"),
}

PER_LAYER = {
    **{name: ("s", "lower") for name in tracer.SPAN_METRICS},
    "cli.import_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    **{name: ("count", "lower") for name in tracer.COUNT_METRICS},
    "oracle.kernel_max_bits": ("bits", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "oracle.system_density": ("ratio", "higher"),
    "hamiltonian.scan_inside_frac": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}

UNITS = {**END_TO_END, **REPORTED, **PER_LAYER}

# Counts and the ratios of counts repeat exactly between runs of one seed.
EXACT_LAYER = (*tracer.COUNT_METRICS, "oracle.system_density", "hamiltonian.scan_inside_frac")

# The per-layer metrics in the result line of a traced run.  A layer time
# that some workload never enters would read 0 on every run there, so the
# only times listed are those measured on every workload; the other layer
# times are in the table and in --out.
PER_LAYER_RESULT = ("cli.import_s", "cli.self_s", "trace.overhead_frac", *EXACT_LAYER)

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "METRIC_FORGE_THREADS",
)


class Runner:
    """Runs commands one at a time, checks their output and keeps the tally."""

    def __init__(self, deadline: float, workdir: Path) -> None:
        self.env = child_env()
        self.pinned = golden.load()
        self.deadline = deadline
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def run(self, command: Command, traced_id: int | None = None) -> tuple[float, dict | None, int]:
        """Start-to-exit seconds of one command, its span record when traced,
        and its stdout size."""
        if traced_id is None:
            argv = [sys.executable, "-m", "metric_forge.cli", *command.argv]
        else:
            spans = self.workdir / f"spans-{traced_id}.json"
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), str(traced_id), *command.argv]
        self.attempted += 1
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env, cwd=ROOT)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            self._fail(command, ["did not finish before the run's time limit"])
            return time.perf_counter() - start, None, 0
        elapsed = time.perf_counter() - start
        self._fail(command, checks.check(command, proc.returncode, out, err, self.pinned))
        record = None
        if traced_id is not None and proc.returncode == 0:
            record = json.loads(spans.read_text(encoding="utf-8"))
            record["counts"]["cli.stdout_bytes"] = len(out)
        return elapsed, record, len(out)

    def _fail(self, command: Command, failures: list[str]) -> None:
        if failures:
            self.failed += 1
            self.failures += [f"{command.text}: {f}" for f in failures[:3]]

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline


def repeat_for(seconds: float, runner: Runner, one_pass, at_least: int):
    """Call one_pass until another pass of median length would overrun the
    budget, but at least `at_least` times."""
    results, lengths = [], []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        results.append(one_pass())
        lengths.append(time.perf_counter() - begun)
        if runner.out_of_time():
            return results
        if len(results) >= at_least and time.perf_counter() - start + statistics.median(lengths) > seconds:
            return results


def untraced_pass(runner: Runner, commands: list[Command]) -> list[float]:
    return [runner.run(c)[0] for c in commands]


def end_to_end(workload: str, commands: list[Command], setup: list[float], passes: list[list[float]]) -> dict:
    """metric -> (value, sample count) for an untraced run."""
    n = len(passes)

    def group(name: str) -> float:
        return statistics.median(sum(t for c, t in zip(commands, p) if c.group == name) for p in passes)

    core, side = group("core"), group("side")
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(sum(p) for p in passes), n),
        # ru_maxrss is in KiB on Linux: the largest resident set of any child.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, 1),
    }
    core_name, side_name = GROUP_NAMES[workload]
    metrics[core_name], metrics[side_name] = (core, n), (side, n)
    if workload in GROUP_RATES:
        core_rate, side_rate = GROUP_RATES[workload]
        metrics[core_rate] = (sum(c.items for c in commands if c.group == "core") / core, n)
        metrics[side_rate] = (sum(c.items for c in commands if c.group == "side") / side, n)
    return metrics


def traced(runner: Runner, commands: list[Command], seconds: float) -> dict:
    """metric -> (value, sample count) for a traced run."""

    def pair():
        plain = untraced_pass(runner, commands)
        timed = [runner.run(c, traced_id=i) for i, c in enumerate(commands)]
        records = [record for _, record, _ in timed]
        if any(r is None for r in records):
            return sum(plain), sum(t for t, _, _ in timed), None
        return sum(plain), sum(t for t, _, _ in timed), tracer.layer_metrics(records)

    pairs = repeat_for(seconds, runner, pair, 1)
    layers = [p[2] for p in pairs if p[2] is not None]
    if not layers:
        return {}
    n = len(layers)
    metrics = {}
    for name in layers[0]:
        if name in EXACT_LAYER:
            values = {layer[name] for layer in layers}
            if len(values) > 1:
                runner.failures.append(f"{name} differs between traced passes: {sorted(values)}")
                runner.failed += 1
            metrics[name] = (layers[0][name], n)
        else:
            metrics[name] = (statistics.median(layer[name] for layer in layers), n)
    plain = statistics.median(p[0] for p in pairs)
    timed = statistics.median(p[1] for p in pairs)
    metrics["trace.overhead_frac"] = ((timed - plain) / plain, len(pairs))
    return metrics


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


_NUMPY_FACTS = """
import json, numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception:
    blas = None
print(json.dumps({"numpy": numpy.__version__, "blas": blas}))
"""


def machine_facts(env: dict[str, str], load_start: float) -> dict:
    facts = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": None,
        "blas": None,
        "nproc": os.cpu_count(),
        "load1_start": load_start,
        "load1_end": os.getloadavg()[0],
        "child_thread_env": {name: env.get(name) for name in THREAD_VARS},
    }
    try:
        proc = subprocess.run([sys.executable, "-c", _NUMPY_FACTS], env=env, capture_output=True, text=True, timeout=10)
        facts.update(json.loads(proc.stdout))
    except (OSError, subprocess.TimeoutExpired, json.JSONDecodeError):
        pass
    return facts


def report(args, commands: list[Command], runner: Runner, metrics: dict, facts: dict) -> None:
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# machine " + json.dumps(facts, sort_keys=True))
    for command in commands:
        print(f"# [{command.group}] {command.text}")
    for failure in runner.failures[:SHOWN_FAILURES]:
        print(f"# FAILED {failure}")
    print(f"{'metric':<30} {'value':>16} {'unit':<6} {'n':>6}")
    for name, (value, n) in metrics.items():
        print(f"{name:<30} {value:>16.6g} {UNITS[name][0]:<6} {n:>6}")
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "failures": runner.failures[:SHOWN_FAILURES],
            "machine": facts,
            "commands": [c.text for c in commands],
            "metrics": {
                name: {"value": value, "unit": UNITS[name][0], "better": UNITS[name][1], "n": n}
                for name, (value, n) in metrics.items()
            },
        }
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    declared = PER_LAYER_RESULT if args.trace else END_TO_END
    result = {
        "correct": runner.failed == 0 and all(name in metrics for name in declared),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": UNITS[name][0]} for name in declared if name in metrics
        },
    }
    print(json.dumps(result))


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run as one JSON line to this file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"), help="compare two --out files")
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.compare:
        print(compare.compare(Path(args.compare[0]), Path(args.compare[1])))
        return 0
    if not (ROOT / "src" / "metric_forge" / "cli.py").is_file():
        print(f"error: no metric_forge package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()[0]
    commands = build_commands(args.workload, args.seed)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        runner = Runner(time.monotonic() + RUN_LIMIT_S, Path(workdir))
        setup_command = Command(SETUP_ARGV, "setup", "exact")
        # The first start in a fresh checkout compiles bytecode; it is not timed.
        runner.run(setup_command)
        if args.trace:
            metrics = traced(runner, commands, args.seconds)
        else:
            setup = [runner.run(setup_command)[0] for _ in range(SETUP_REPEATS)]

            def one_pass() -> list[float]:
                times = untraced_pass(runner, commands)
                setup.append(runner.run(setup_command)[0])
                return times

            passes = repeat_for(args.seconds, runner, one_pass, MIN_PASSES)
            metrics = end_to_end(args.workload, commands, setup, passes)
    metrics["fail_frac"] = (runner.failed / runner.attempted, runner.attempted)
    report(args, commands, runner, metrics, machine_facts(runner.env, load_start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
