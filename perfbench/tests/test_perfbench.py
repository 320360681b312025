"""Tests of the benchmark itself: seeded inputs, pinned outputs, exact
counts, the result line and the compare verdicts.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import compare  # noqa: E402
import golden  # noqa: E402
import run  # noqa: E402
from workloads import EXACT_COUPLINGS, PROFILES, WORKLOADS, Command, build_commands, exact_commands  # noqa: E402

SEEDED_FLAGS = ("--lambda", "--seed")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_only_couplings_and_sampler_seed(workload):
    base = build_commands(workload, 1)
    assert build_commands(workload, 1) == base
    changed = False
    for seed in range(2, 12):
        other = build_commands(workload, seed)
        assert [(c.group, c.kind, c.items, len(c.argv)) for c in other] == [
            (c.group, c.kind, c.items, len(c.argv)) for c in base
        ]
        for a, b in zip(base, other):
            for i, (x, y) in enumerate(zip(a.argv, b.argv)):
                if x != y:
                    assert a.argv[i - 1] in SEEDED_FLAGS, (a.text, b.text)
                    changed = True
    assert changed


def test_every_exact_command_is_pinned():
    pinned = golden.load()
    for profile in PROFILES:
        for argv in exact_commands(profile):
            assert " ".join(argv) in pinned
    for seed in range(50):
        for command in build_commands("verify_exact", seed):
            assert command.text in pinned
    assert len(EXACT_COUPLINGS) == 54


def test_checks_catch_wrong_output():
    pinned = golden.load()
    verify = build_commands("verify_exact", 0, "smoke")[0]
    assert checks.check(verify, 0, b"{}", b"", pinned)
    assert checks.check(verify, 3, b"", b"", pinned) == ["exit code 3"]
    assert checks.check(verify, 0, b"", b"Traceback (most recent call last):", pinned)
    spectrum = Command(("spectrum", "--n", "4", "--grid", "0:1.2:2"), "core", "spectrum", 2)
    header = "lambda,re_e_1,re_e_2,re_e_3,re_e_4,max_imag,all_real\n"
    good = header + "0,1,2,3,4,0,true\n1.2,1,2,3,4,0.5,false\n"
    assert checks.check(spectrum, 0, good.encode(), b"", pinned) == []
    assert checks.check(spectrum, 0, (header + "0,1,2,3,4,0,true\n").encode(), b"", pinned)
    assert checks.check(spectrum, 0, good.replace("false", "true").encode(), b"", pinned)
    continuum = Command(("continuum", "--lambda", "0.5", "--sizes", "8,16", "--state", "1"), "core", "continuum")
    rising = "size,h,residual,central_amplitude\n8,0.2,0.1,0.5\n16,0.1,0.025,0.6\n# slope = 2.0\n"
    assert checks.check(continuum, 0, rising.encode(), b"", pinned)


def _smoke_runner() -> tuple[run.Runner, tempfile.TemporaryDirectory]:
    workdir = tempfile.TemporaryDirectory()
    return run.Runner(time.monotonic() + 120.0, Path(workdir.name)), workdir


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_and_counts_repeat(workload):
    commands = build_commands(workload, 7, "smoke")
    layers = []
    for _ in range(2):
        runner, workdir = _smoke_runner()
        with workdir:
            passes = [run.untraced_pass(runner, commands)]
            e2e = run.end_to_end(workload, commands, [0.1], passes)
            layers.append(run.traced(runner, commands, 0.01))
        assert runner.failures == []
        assert set(run.END_TO_END) <= set(e2e)
        assert set(run.PER_LAYER_RESULT) <= set(layers[-1])
    for name in run.EXACT_LAYER:
        assert layers[0][name] == layers[1][name], name
    assert layers[0]["cli.stdout_bytes"][0] > 0
    assert layers[0]["cli.import_s"][0] > 0


def test_result_line_matches_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: run.PER_LAYER[name] for name in run.PER_LAYER_RESULT
    }


def _write_runs(path: Path, values: list[float]) -> None:
    lines = [
        json.dumps({"workload": "w", "seed": seed, "metrics": {"wall_s": {"value": v, "better": "lower"}}})
        for seed, v in enumerate(values)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "change, expected",
    [
        ([v * 0.5 for v in range(10, 20)], "better"),
        ([v * 2.0 for v in range(10, 20)], "worse"),
        (list(range(10, 20)), "unchanged"),
        ([5.0 if i % 2 else 40.0 for i in range(10)], "unresolved"),
    ],
)
def test_compare_verdicts(tmp_path, change, expected):
    _write_runs(tmp_path / "parent.jsonl", [float(v) for v in range(10, 20)])
    _write_runs(tmp_path / "change.jsonl", [float(v) for v in change])
    table = compare.compare(tmp_path / "parent.jsonl", tmp_path / "change.jsonl")
    assert table.splitlines()[1].endswith(expected)
