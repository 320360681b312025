"""Correctness checks on the output of one CLI command.

Exact outputs are compared byte for byte, through the SHA-256 pinned in
golden.json.  Float outputs are checked against properties that hold at
every seed.  Every check returns a list of failure messages; an empty list
means the command passed.
"""

from __future__ import annotations

import hashlib
import json

from workloads import Command

# Points this far outside the reality window must be reported complex.
OUTSIDE_WINDOW = 1.05
SLOPE_RANGE = (1.5, 2.5)


def check(command: Command, returncode: int, stdout: bytes, stderr: bytes, pinned: dict[str, str]) -> list[str]:
    failures = []
    if returncode != 0:
        failures.append(f"exit code {returncode}")
    if b"Traceback" in stderr:
        failures.append("traceback on stderr")
    if failures:
        return failures
    if command.kind in ("exact", "verify"):
        expected = pinned.get(command.text)
        if expected is None:
            failures.append("no pinned SHA-256 for this command")
        elif hashlib.sha256(stdout).hexdigest() != expected:
            failures.append("stdout differs from the pinned SHA-256")
    text = stdout.decode("utf-8", errors="replace")
    try:
        failures += _PROPERTY_CHECKS.get(command.kind, lambda c, t: [])(command, text)
    except (ValueError, KeyError, IndexError) as exc:
        failures.append(f"unparsable output: {exc!r}")
    return failures


def _argument(command: Command, flag: str) -> str:
    return command.argv[command.argv.index(flag) + 1]


def _verify(command: Command, text: str) -> list[str]:
    payload = json.loads(text)
    failed = [c["name"] for c in payload["checks"] if not c["passed"]]
    return [f"verify check {name} failed" for name in failed]


def _spectrum(command: Command, text: str) -> list[str]:
    rows = text.splitlines()[1:]
    failures = []
    if len(rows) != command.items:
        failures.append(f"{len(rows)} rows for a {command.items}-point grid")
    for row in rows:
        cells = row.split(",")
        lam, all_real = abs(float(cells[0])), cells[-1]
        if lam < 1.0 and all_real != "true":
            failures.append(f"complex spectrum inside the window at lambda {cells[0]}")
        elif lam >= OUTSIDE_WINDOW and all_real != "false":
            failures.append(f"real spectrum outside the window at lambda {cells[0]}")
    return failures


def _positivity(command: Command, text: str) -> list[str]:
    lines = text.splitlines()
    header, rows, summary = lines[0].split(","), lines[1:-1], lines[-1]
    failures = []
    if len(rows) != command.items:
        failures.append(f"{len(rows)} rows for {command.items} samples")
    column = {name: idx for idx, name in enumerate(header)}
    positives = 0
    for row in rows:
        cells = row.split(",")
        positive = cells[column["positive"]]
        positives += positive == "true"
        if cells[column["near_boundary"]] == "true":
            continue
        for verdict in ("closed_form_positive", "weights_positive"):
            value = cells[column[verdict]]
            if value and value != positive:
                failures.append(f"{verdict} disagrees with positive in row {cells[0]}")
    expected = f"# fraction_positive = {positives / len(rows):.17g}" if rows else None
    if summary != expected:
        failures.append(f"summary line {summary!r} does not match the rows")
    return failures


def _continuum(command: Command, text: str) -> list[str]:
    lines = text.splitlines()
    amplitudes = [float(row.split(",")[3]) for row in lines[1:-1]]
    slope = float(lines[-1].split("=")[1])
    failures = []
    if not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
        failures.append(f"slope {slope} outside {SLOPE_RANGE}")
    if len(amplitudes) != len(_argument(command, "--sizes").split(",")):
        failures.append("one row per size expected")
    if any(later >= earlier for earlier, later in zip(amplitudes, amplitudes[1:])):
        failures.append(f"amplitudes not strictly decreasing: {amplitudes}")
    return failures


_PROPERTY_CHECKS = {
    "verify": _verify,
    "spectrum": _spectrum,
    "positivity": _positivity,
    "continuum": _continuum,
}
