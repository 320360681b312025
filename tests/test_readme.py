"""The README's examples run as written: the library example prints what
its comments say, and every command of the command-line block exits 0."""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from metric_forge.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading):
    """The lines of the first fenced block under a `## ` heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1].splitlines()[1:]


def _commands():
    """Each `metric-forge` line of the command-line block as (argv, the
    `# {...}` comment on the next line or None)."""
    lines = _block("Command line")
    commands = []
    for line, following in zip(lines, lines[1:] + [""]):
        if line.startswith("metric-forge "):
            comment = following[2:] if following.startswith("# {") else None
            commands.append((shlex.split(line)[1:], comment))
    return commands


COMMANDS = _commands()


def test_library_example_prints_its_comments():
    lines = _block("Library example")
    expected = [line.split("# ", 1)[1] for line in lines if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec("\n".join(lines), {})
    printed = out.getvalue().splitlines()
    assert expected and len(printed) == len(expected)
    for shown, comment in zip(printed, expected):
        assert comment.startswith(shown), (shown, comment)


def test_command_block_holds_the_printed_example():
    commands = {" ".join(argv): comment for argv, comment in COMMANDS}
    assert commands["hamiltonian --n 2 --lambda 1/2 --format json"].startswith("{")


@pytest.mark.parametrize("argv, comment", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_command_exits_zero(capsys, argv, comment):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    if comment is not None:
        assert out == comment + "\n"
