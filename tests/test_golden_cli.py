"""Golden stdout digests of CLI commands that make no LAPACK call.

Each command in golden_cli.json runs in process through `cli.main`; its
stdout must hash to the pinned SHA-256, so a refactor that keeps these
digests keeps the exact and float-formatting output byte for byte.
Regenerate the file only for an intended output change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from metric_forge.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

COMMANDS = [
    ["hamiltonian", "--n", "6", "--lambda", lam, "--format", fmt]
    for lam in ("1/3", "0.3", "-0.7")
    for fmt in ("json", "csv", "text")
] + [
    ["metric", "basis", "--n", "8"],
    ["metric", "basis", "--n", "8", "--lambda", "2/5"],
    ["metric", "basis", "--n", "8", "--lambda", "0.3"],
    ["metric", "verify", "--n", "6", "--lambda", "1/3"],
]


def _digest(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


def _pinned():
    return {tuple(entry["argv"]): entry["sha256"] for entry in json.loads(GOLDEN.read_text())}


def test_every_command_is_pinned():
    assert set(_pinned()) == {tuple(argv) for argv in COMMANDS}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_stdout_matches_pinned_digest(argv):
    code, digest = _digest(argv)
    assert code == 0
    assert digest == _pinned()[tuple(argv)]


if __name__ == "__main__":
    entries = [{"argv": argv, "sha256": _digest(argv)[1]} for argv in COMMANDS]
    lines = ",\n".join(json.dumps(entry) for entry in entries)
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
