"""Fuzz the CLI contract over argument vectors of all six subcommands.

Whatever the arguments, `cli.main` returns 0 or 2 (for `metric verify`,
0 to 5: the number of failed checks) or argparse exits with status 2;
nothing else may raise.  Sizes, sample and grid counts stay small so
the test runs in seconds; a size over the limit of each command that
takes `--n` is drawn too, and must be refused before any work.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_forge import analysis, cli, closedform, continuum
from metric_forge.cli import (
    MAX_BASIS_SIZE,
    MAX_COUPLING_DIGITS,
    MAX_HAMILTONIAN_SIZE,
    MAX_POSITIVITY_SIZE,
    MAX_SPECTRUM_SIZE,
    MAX_VERIFY_SIZE,
    main,
)

SIZES = st.sampled_from(["-2", "0", "1", "2", "3", "4", "6", "8", "x", ""])


def _sizes(limit):
    """Small sizes, and two over `limit`: usage errors, never run."""
    return st.one_of(SIZES, st.sampled_from([str(limit + 2), "1000000"]))


COUPLINGS = st.one_of(
    st.sampled_from(
        ["0", "-0", "1/3", "-2/5", "1", "-1", "3/2", "1/0", "0.3", "-0.99", "1.5",
         "1e300", "-1e300", "nan", "inf", "abc", "", "1" + "0" * 400, "1" + "0" * 400 + "/3",
         "1/" + "3" * MAX_COUPLING_DIGITS, "1/" + "3" * (MAX_COUPLING_DIGITS + 1)]
    ),
    st.floats(-2.0, 2.0).map(repr),
)
GRIDS = st.one_of(
    st.builds(
        lambda a, b, c: f"{a}:{b}:{c}",
        st.sampled_from(["-2", "-1", "0", "0.5", "1", "1e300", "nan", "x"]),
        st.sampled_from(["-1", "0", "0.5", "1", "2", "-1e300", "inf"]),
        st.integers(-1, 20),
    ),
    st.sampled_from(["0:1", "a:b:c", "0:0:1", "0:1:x", ""]),
)
TOLERANCES = st.sampled_from(["1e-9", "0", "-1e-9", "nan", "inf", "x"])
ALPHAS = st.one_of(
    st.lists(st.floats(-2.0, 2.0).map(repr), max_size=9).map(",".join),
    st.sampled_from(["1,0.5", "1,0,0,-0.5", "1,0,0.2,0,0,0.1", "2,-1,1,-2,0,0,0,1"]),
    st.sampled_from(["1,nan", "inf,1", "1,,2", "a,b", ""]),
)
SAMPLES = st.sampled_from(["-1", "0", "1", "7", "50", "1000001", "x"])
SEEDS = st.sampled_from(["-1", "0", "7", "x"])
CONTINUUM_SIZES = st.sampled_from(
    ["8,16", "10,20,40", "40,80", "8", "16,8", "8,8", "7,16", "-8,16", "8,x", "",
     f"8,{continuum.MAX_CONTINUUM_SIZE + 2}",
     ",".join(str(n) for n in range(8, 10 + 2 * continuum.MAX_SWEEP_SIZES, 2))]
)
STATES = st.sampled_from(["-1", "0", "1", "2", "9", "x"])
J_INDICES = st.sampled_from(["-1", "0", "1", "3", "9", "x"])
OUTPUTS = st.sampled_from([None, "file", "missing", "directory"])


def _options(**strategies):
    """Each option present or absent, in a fixed order."""
    return st.fixed_dictionaries({}, optional=strategies).map(
        lambda chosen: [token for name, value in chosen.items() for token in (name, value)]
    )


COMMANDS = st.one_of(
    st.tuples(
        st.just(["hamiltonian"]),
        _options(**{
            "--n": _sizes(MAX_HAMILTONIAN_SIZE),
            "--lambda": COUPLINGS,
            "--format": st.sampled_from(["json", "csv", "text", "xml"]),
        }),
    ),
    st.tuples(
        st.just(["spectrum"]),
        _options(**{
            "--n": _sizes(MAX_SPECTRUM_SIZE),
            "--grid": GRIDS,
            "--reality-tol": TOLERANCES,
            "--format": st.sampled_from(["csv", "json"]),
        }),
    ),
    st.tuples(
        st.just(["metric", "basis"]),
        _options(**{"--n": _sizes(MAX_BASIS_SIZE), "--j": J_INDICES, "--lambda": COUPLINGS}),
    ),
    st.tuples(
        st.just(["metric", "verify"]),
        _options(**{"--n": _sizes(MAX_VERIFY_SIZE), "--lambda": COUPLINGS}),
    ),
    st.tuples(
        st.just(["positivity"]),
        _options(**{
            "--n": _sizes(MAX_POSITIVITY_SIZE),
            "--lambda": COUPLINGS,
            "--alpha": ALPHAS,
            "--sample": SAMPLES,
            "--seed": SEEDS,
        }),
    ),
    st.tuples(
        st.just(["continuum"]),
        _options(**{"--lambda": COUPLINGS, "--sizes": CONTINUUM_SIZES, "--state": STATES}),
    ),
)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module", autouse=True)
def solved_sizes():
    """The sizes solved by the current command: an over-limit size, or more
    sizes than a sweep may take, is a usage error before any eigensolve."""
    solve = continuum._real_eigenpair
    sizes = set()

    def checked(n, lam, state):
        assert n <= continuum.MAX_CONTINUUM_SIZE, "eigensolve over the size limit"
        sizes.add(n)
        assert len(sizes) <= continuum.MAX_SWEEP_SIZES, "sweep over the count limit"
        return solve(n, lam, state)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(continuum, "_real_eigenpair", checked)
        yield sizes


def _bounded(patch, owner, name, limit, what, size=lambda args: args[0]):
    """Patch `owner.name` to assert that its size is at most `limit`."""
    work = getattr(owner, name)

    def checked(*args, **kwargs):
        assert size(args) <= limit, f"{what} over the size limit"
        return work(*args, **kwargs)

    patch.setattr(owner, name, checked)


@pytest.fixture(scope="module", autouse=True)
def sizes_within_limits():
    """A command over its size limit is a usage error before the work that
    the size sets the cost of starts."""
    with pytest.MonkeyPatch.context() as patch:
        _bounded(patch, cli, "run_verification", MAX_VERIFY_SIZE, "verification")
        _bounded(patch, closedform, "basis_family", MAX_BASIS_SIZE, "basis family")
        _bounded(patch, closedform, "basis_element", MAX_BASIS_SIZE, "basis element")
        _bounded(patch, cli, "_chain_rows", MAX_HAMILTONIAN_SIZE, "chain")
        _bounded(patch, analysis, "scan_blocks", MAX_SPECTRUM_SIZE, "spectrum")
        _bounded(patch, closedform, "assemble_theta", MAX_POSITIVITY_SIZE, "candidate")
        _bounded(patch, analysis, "sample_blocks", MAX_POSITIVITY_SIZE, "sample")
        yield


@settings(max_examples=150, deadline=None)
@given(command=COMMANDS, output=OUTPUTS)
def test_exit_code_in_documented_set(out_dir, solved_sizes, command, output):
    solved_sizes.clear()
    words, options = command
    argv = words + options
    if output is not None:
        target = {
            "file": out_dir / "out.txt",
            "missing": out_dir / "missing" / "out.txt",
            "directory": out_dir,
        }[output]
        argv += ["--output", str(target)]
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        return
    allowed = range(6) if words == ["metric", "verify"] else (0, 2)
    assert code in allowed, argv
