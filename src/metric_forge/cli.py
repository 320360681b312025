"""Command-line interface.

Subcommands: hamiltonian, spectrum, metric basis, metric verify,
positivity, continuum.  Exact couplings are written as "p/q" strings and
survive JSON round trips; floats are printed with 17 significant digits.
Exit codes: 0 success, 2 usage error, and for `metric verify` the number
of failed checks.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import chain, repeat
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Sequence,
)

from .errors import ConstructionError, DegenerateSpectrumError, DimensionError, DomainError
from .hamiltonian import HamiltonianSpec, _chain_rows, _check_size, _float_coupling

if TYPE_CHECKING:
    from fractions import Fraction


class UsageError(ValueError):
    """Invalid command-line arguments."""


# Largest `positivity --sample`.  The draws are solved, formatted and
# written one sampler block at a time, so the count sets the time and not
# the memory: at n = 6 a million draws take 5.8 s as a subprocess, print
# 158 MB of CSV and peak at 37 MB of RSS, which `--sample 1` also takes
# (2 cores; 119 MB when the whole sample was held before the first write).
MAX_SAMPLES = 1_000_000

# Largest `spectrum --grid` count, rejected before the grid is built.
# Each block of points is solved, formatted and written before the next is
# solved: at n = 40, 10000 points take 0.56 s as a subprocess for the CSV
# and 0.74 s for JSON, and peak at 32 MB of RSS in either format (2 cores;
# 61 and 138 MB when the whole result was held).  Only the couplings, an
# array of 8 bytes a point once the parsed list is dropped, grow with the
# count.
MAX_GRID_POINTS = 10_000

# Most digits in the numerator and in the denominator of an exact
# coupling.  The oracle and the symbolic checks carry numbers of that size
# through every step: `metric verify --n 22` takes 0.073 / 0.075 / 0.080 /
# 0.089 / 0.13 s at 11...1/33...3 with 2 / 20 / 50 / 100 / 200 digits
# below the bar (best of 3 subprocesses, 2 cores; the last two with this
# cap lifted).
MAX_COUPLING_DIGITS = 50

# Largest `metric verify --n`.  The exact checks set the time, and the
# digits of the coupling raise it: at n = 40 the subprocess takes 0.31 s
# and peaks at 17 MB of RSS with --lambda 5/9, and 0.42 s and 19 MB with a
# coupling of 49 digits over 50; at n = 50 the same two take 0.55 s and
# 20 MB, and 0.75 s and 24 MB (best of 3, a loaded 2-core host, with this
# cap lifted).  The cap stays until a benchmark workload times
# `metric verify` at such couplings.
MAX_VERIFY_SIZE = 40

# Largest `metric basis --n`.  Each element comes straight from the
# closed-form degrees, each distinct polynomial is encoded once, and the
# text is written an element at a time: at n = 120 the subprocess takes
# 0.69 s, peaks at 48 MB of RSS and prints 36 MB with --lambda 5/9, and
# 1.4 s, 77 MB and 267 MB of text with a coupling of 49 digits over 50;
# at n = 160, 5/9 takes 1.4 s, 93 MB and 100 MB of text (best of 3, one
# child each of a small parent writing to a file, 2 cores, the last with
# this cap lifted).
MAX_BASIS_SIZE = 120

# Largest `hamiltonian --n`.  The printed n^2 cells set the cost, and
# every format is written a row at a time: at n = 1000 the subprocess
# takes at most 0.4 s and peaks at 23 MB of RSS over the three formats
# and exact, float and 49-digit couplings (12 MB of text); at n = 2000,
# 1.1 s and 46 MB (2 cores, the last with this cap lifted).
MAX_HAMILTONIAN_SIZE = 1000

# Largest `spectrum --n`.  Each grid point is two n/2 x n/2 symmetric
# eigensolves, or one outside [-1, 1] that runs the complex general
# solver: at n = 80 and the grid cap of 10000 points all outside, the
# subprocess takes 5.1 s for the CSV and 5.7 s for JSON and peaks at
# 32 MB of RSS; 1000 points across -1.2..1.2 take 0.27 s at n = 80 and
# 1.2 s at n = 160 (2 cores, the last with this cap lifted).
MAX_SPECTRUM_SIZE = 80

# Largest `positivity --n`.  A sampled draw is one n x n eigensolve and
# one CSV row of n + 6 cells: at n = 12, the sample cap of a million draws
# takes 14 s as a subprocess and peaks at 37 MB of RSS; 20000 draws take
# 0.4 s at n = 12, 0.9 s at n = 24 and 3.5 s at n = 48 (2 cores, the last
# two with this cap lifted).
MAX_POSITIVITY_SIZE = 12

def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def parse_scalar(text: str) -> Fraction | float:
    """Parse "p/q" or integer strings as exact Fractions, decimals as floats.
    An exact value has at most `MAX_COUPLING_DIGITS` digits in its
    numerator and in its denominator."""
    text = text.strip()
    if "/" in text:
        from fractions import Fraction

        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"invalid rational {text!r}") from exc
    else:
        try:
            value = int(text)
        except ValueError:
            return _parse_float(text)
    if max(abs(value.numerator), value.denominator) >= 10**MAX_COUPLING_DIGITS:
        raise UsageError(
            f"an exact coupling has at most {MAX_COUPLING_DIGITS} digits above and below the bar"
        )
    return value


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise UsageError(f"invalid number {text!r}") from exc
    if not math.isfinite(value):
        raise UsageError(f"invalid number {text!r}")
    return value


def parse_exact_scalar(text: str) -> Fraction:
    value = parse_scalar(text)
    if isinstance(value, float):
        raise UsageError("this subcommand requires an exact coupling, e.g. 1/2 or 0")
    from fractions import Fraction

    return Fraction(value)


def parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError("grid must be start:stop:count")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"invalid grid {text!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise UsageError(f"grid endpoints must be finite, got {text!r}")
    if count < 1:
        raise UsageError("grid count must be >= 1")
    if count > MAX_GRID_POINTS:
        raise UsageError(f"grid count must be at most {MAX_GRID_POINTS}")
    if count == 1:
        if start != stop:
            raise UsageError("a single-point grid needs start == stop")
        return [start]
    step = (stop - start) / (count - 1)
    if not math.isfinite(step):
        raise UsageError(f"grid step overflows in {text!r}")
    return [start + i * step for i in range(count)]


def parse_float_list(text: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"invalid list {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"list values must be finite, got {text!r}")
    return values


def parse_int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"invalid list {text!r}") from exc


def _exact_texts(values: Iterable[Fraction | int]) -> list[str]:
    """The text of each exact value; every exact value the CLI prints goes
    through here.  One with more digits than Python's int-to-str limit
    allows is an error."""
    try:
        return list(map(str, values))
    except ValueError as exc:
        raise DomainError("an exact result has too many digits to print") from exc


def _scalar_json(value: Fraction | int | float) -> Any:
    """A float as itself, an exact value as its text."""
    return value if isinstance(value, float) else _exact_texts([value])[0]


def _json(payload: Any) -> str:
    """The payload as JSON; NaN and infinities, which JSON cannot hold,
    are an error."""
    import json

    try:
        return json.dumps(payload, allow_nan=False)
    except ValueError as exc:
        raise DomainError("a result overflows a float") from exc


def _emit(pieces: Iterable[str], output: Optional[str]) -> None:
    """Write the text pieces in order, each as it is made, to stdout or the
    `--output` file, which is opened only once the first piece is made; an
    OSError on opening or writing the file is a usage error."""
    pieces = iter(pieces)
    text = chain([next(pieces, "")], pieces)
    if not output:
        for piece in text:
            sys.stdout.write(piece)
        return
    try:
        with open(output, "w", encoding="utf-8") as stream:
            for piece in text:
                stream.write(piece)
    except OSError as exc:
        raise UsageError(f"cannot write --output: {exc}") from exc


def _check_command_size(n: int, limit: int) -> None:
    if n > limit:
        raise UsageError(f"--n must be at most {limit}")


def cmd_hamiltonian(args: argparse.Namespace) -> int:
    _check_command_size(args.n, MAX_HAMILTONIAN_SIZE)
    lam = parse_scalar(args.lam)
    spec = HamiltonianSpec(args.n, lam)
    # no error can follow a write: an exact entry has at most
    # MAX_COUPLING_DIGITS + 1 digits, far below the 4300-digit print limit,
    # and a float entry, 2, -1 or -1 +/- lam, is finite for every finite lam
    if spec.is_exact:
        # the parsed int or Fraction on the bands and the text "0" off
        # them, so only the at most three band cells of a row are converted
        grid = cells = _chain_rows(spec.n, lam, 1, "0")
        for i, row in enumerate(grid):
            band = slice(max(i - 1, 0), i + 2)
            row[band] = _exact_texts(row[band])
    else:
        grid = _chain_rows(spec.n, lam, 1.0, 0.0)
        cells = ([_fmt(e) for e in row] for row in grid)
    if args.format == "json":
        # the text of one dump, written a row at a time
        rows = map(_json, grid)
        head = _json({"n": spec.n, "lambda": _scalar_json(lam)})[:-1] + ', "matrix": ['
        lines: Iterable[str] = chain([head, next(rows)], (", " + row for row in rows), ["]}\n"])
    elif args.format == "csv":
        lines = (",".join(row) + "\n" for row in cells)
    else:
        lines = ("  ".join(f"{c:>10}" for c in row) + "\n" for row in cells)
    _emit(lines, args.output)
    return 0


def _float_command(command: Callable[..., int]) -> Callable[..., int]:
    """`command` run so that a float overflow or an invalid float operation
    raises FloatingPointError instead of printing a warning and a
    non-finite result.  numpy is imported here, not when the CLI loads."""

    def run(args: argparse.Namespace) -> int:
        import numpy as np

        with np.errstate(over="raise", invalid="raise"):
            return command(args)

    return run


@_float_command
def cmd_spectrum(args: argparse.Namespace) -> int:
    from .analysis import scan_blocks

    _check_command_size(args.n, MAX_SPECTRUM_SIZE)
    grid = parse_grid(args.grid)
    if not (math.isfinite(args.reality_tol) and args.reality_tol >= 0):
        raise UsageError("--reality-tol must be finite and >= 0")
    # each block of points is solved, formatted and written before the
    # next is solved; the couplings are read into an array here, so the
    # list is dropped
    blocks = scan_blocks(args.n, grid, tol=args.reality_tol)
    del grid
    json_out = args.format == "json"
    points = (
        point
        for block in blocks
        for point in zip(
            block.lams.tolist(),
            block.eigenvalues.real.tolist(),
            # only JSON prints the imaginary parts
            block.eigenvalues.imag.tolist() if json_out else repeat(None),
            block.max_imag.tolist(),
            block.all_real.tolist(),
        )
    )
    if json_out:
        # the text of one dump of the list, written a point at a time
        dumps = (
            _json(
                {"lambda": lam, "eigenvalues": list(zip(re, im)), "max_imag": imag, "all_real": real}
            )
            for lam, re, im, imag, real in points
        )
        _emit(chain(["[", next(dumps)], (", " + d for d in dumps), ["]\n"]), args.output)
        return 0
    header = ["lambda"] + [f"re_e_{i}" for i in range(1, args.n + 1)] + ["max_imag", "all_real"]
    # one template per row, whose %.17g prints as `_fmt` does
    cells = ",".join(["%.17g"] * (args.n + 2))
    row = {True: cells + ",true\n", False: cells + ",false\n"}
    lines = (row[real] % (lam, *re, imag) for lam, re, _, imag, real in points)
    # the header waits for the first block, so an error there writes nothing
    _emit(chain([",".join(header) + "\n", next(lines)], lines), args.output)
    return 0


def cmd_metric_basis(args: argparse.Namespace) -> int:
    from .closedform import basis_element, basis_family

    _check_command_size(args.n, MAX_BASIS_SIZE)
    lam = parse_scalar(args.lam) if args.lam is not None else None
    _check_size(args.n)  # before --j, whose range it sets
    if args.j is not None and not 1 <= args.j <= args.n:
        raise UsageError(f"--j must lie in 1..{args.n}")
    family = basis_family(args.n) if args.j is None else (basis_element(args.n, args.j),)
    # the entries take a few dozen distinct alphabet polynomials: each is
    # encoded once, as the dump of its entry after "i" and "k", and all of
    # them before the first write, so a value that overflows a float or has
    # too many digits to print leaves the output empty
    tails = {}
    for p in set().union(*(element.entries.values() for element in family)):
        fields = {"degree": p.degree, "coefficients": list(p.coeffs)}
        if lam is not None:
            fields["value"] = _scalar_json(p(lam))
        tails[p] = _json(fields)[1:]

    head = _json({"n": args.n, "lambda": None if lam is None else _scalar_json(lam)})

    def pieces() -> Iterator[str]:
        # the text of one dump, written an element at a time: one element's
        # entries are the only text held, joined from a list that is
        # dropped as soon as the join returns
        yield head[:-1] + ', "elements": ['
        for index, element in enumerate(family):
            yield '%s{"j": %d, "entries": [' % (", " if index else "", element.j)
            yield ", ".join(
                ['{"i": %d, "k": %d, %s' % (*ik, tails[p]) for ik, p in element.entries.items()]
            )
            yield "]}"
        yield "]}\n"

    _emit(pieces(), args.output)
    return 0


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: Any = None


def run_verification(n: int, lam: Fraction) -> list[CheckResult]:
    """The cross-validation battery behind `metric verify`."""
    from .closedform import (
        basis_family,
        incidence_family,
        intertwining_defect,
        reflection_symmetry_holds,
        zero_coupling_reduction_holds,
    )
    from .oracle import solve_metric_space, span_equivalence

    # the paper's recurrence, checked step by step against the closed-form
    # degrees the family is built from; a mismatch raises ConstructionError
    incidence_family(n)
    family = basis_family(n)
    identity_ok = not any(intertwining_defect(el) for el in family)
    space = solve_metric_space(HamiltonianSpec(n, lam))
    span_ok, span_detail = span_equivalence(space, (el.values(lam) for el in family))
    return [
        CheckResult("closed_form_intertwining", identity_ok),
        CheckResult("oracle_dimension", space.dimension == n, space.dimension),
        CheckResult("span_equivalence", span_ok, span_detail),
        CheckResult("lambda0_reduction", all(map(zero_coupling_reduction_holds, family))),
        CheckResult("reflection_symmetry", all(map(reflection_symmetry_holds, family))),
    ]


def cmd_metric_verify(args: argparse.Namespace) -> int:
    _check_command_size(args.n, MAX_VERIFY_SIZE)
    lam = parse_exact_scalar(args.lam)
    checks = run_verification(args.n, lam)
    failed = sum(0 if c.passed else 1 for c in checks)
    payload = {
        "n": args.n,
        "lambda": _scalar_json(lam),
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ],
        "failed": failed,
    }
    _emit([_json(payload) + "\n"], args.output)
    return failed


@_float_command
def cmd_positivity(args: argparse.Namespace) -> int:
    from .analysis import positivity, positivity_closed_form, sample_blocks
    from .closedform import assemble_theta

    _check_command_size(args.n, MAX_POSITIVITY_SIZE)
    lam_float = _float_coupling(parse_scalar(args.lam))
    if args.alpha is not None and args.sample is not None:
        raise UsageError("choose either --alpha or --sample")
    if args.alpha is not None:
        alpha = parse_float_list(args.alpha)
        if len(alpha) != args.n:
            raise UsageError(f"--alpha needs exactly {args.n} values")
        theta = assemble_theta(args.n, lam_float, alpha)
        report = positivity(theta)
        inside = -1.0 < lam_float < 1.0
        closed_form = positivity_closed_form(args.n, lam_float, alpha) if inside else None
        payload = {
            "n": args.n,
            "lambda": lam_float,
            "alpha": alpha,
            "positive": report.positive,
            "min_eigenvalue": report.min_eigenvalue,
            "eigenvalues": list(report.eigenvalues),
            "near_boundary": report.near_boundary,
            "closed_form_positive": closed_form,
        }
        _emit([_json(payload) + "\n"], args.output)
        return 0
    if args.sample is None:
        raise UsageError("need --alpha or --sample")
    if not 1 <= args.sample <= MAX_SAMPLES:
        raise UsageError(f"--sample must lie in 1..{MAX_SAMPLES}")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    blocks = sample_blocks(args.n, lam_float, args.seed, args.sample)
    header = (
        ["index"]
        + [f"alpha_{i}" for i in range(1, args.n + 1)]
        + [
            "min_eigenvalue",
            "positive",
            "closed_form_positive",
            "weights_positive",
            "near_boundary",
        ]
    )
    cell = {True: "true", False: "false", None: ""}
    # one template per row, whose %.17g prints as `_fmt` does
    row = ",".join(["%d"] + ["%.17g"] * (args.n + 1) + ["%s"] * 4) + "\n"

    def lines() -> Iterator[str]:
        # each block of draws is solved, formatted and written as one piece
        # before the next is drawn; the header waits for the first block, so
        # an error there writes nothing
        drawn = positives = 0
        for block in blocks:
            if not drawn:
                yield ",".join(header) + "\n"
            draws = zip(*(repeat(None) if c is None else c.tolist() for c in block))
            yield "".join(
                row % (index, *alpha, minimum, cell[positive], cell[cf], cell[weights], cell[near])
                for index, (alpha, minimum, positive, cf, weights, near) in enumerate(draws, drawn)
            )
            drawn += block.count
            positives += int(block.positive.sum())
        yield f"# fraction_positive = {_fmt(positives / drawn)}\n"

    _emit(lines(), args.output)
    return 0


def cmd_continuum(args: argparse.Namespace) -> int:
    from .continuum import LatticeGrid, fit_loglog_slope, sweep

    # plain floats, bounded for |lam| < 1: the one value that can be zero,
    # non-finite or unresolved is a residual, which the fit refuses
    lam_float = _float_coupling(parse_scalar(args.lam))
    residuals, wall = sweep(lam_float, parse_int_list(args.sizes), args.state)
    try:
        slope = fit_loglog_slope(wall.sizes, residuals)
    except DomainError as exc:
        # the fit names the size; the state is the command's
        raise DomainError(f"state {args.state} has {exc}") from exc
    lines = (
        f"{n},{_fmt(LatticeGrid(n).h)},{_fmt(residual)},{_fmt(amplitude)}\n"
        for n, residual, amplitude in zip(wall.sizes, residuals, wall.amplitudes)
    )
    footer = f"# slope = {_fmt(slope)}\n"
    _emit(chain(["size,h,residual,central_amplitude\n"], lines, [footer]), args.output)
    return 0


_DIGITS_HELP = f"at most {MAX_COUPLING_DIGITS} digits above and below the bar"
_COUPLING_HELP = f"p/q or integer ({_DIGITS_HELP}), or decimal"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metric-forge",
        description="Construct and verify the complete metric family of the "
        "one-coupling tridiagonal chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_h = sub.add_parser("hamiltonian", help="emit one family member")
    p_h.add_argument("--n", type=int, required=True, help=f"even size, 2..{MAX_HAMILTONIAN_SIZE}")
    p_h.add_argument("--lambda", dest="lam", default="0", help=_COUPLING_HELP)
    p_h.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p_h.add_argument("--output")
    p_h.set_defaults(func=cmd_hamiltonian)

    p_s = sub.add_parser("spectrum", help="eigenvalue sweep over a coupling grid")
    p_s.add_argument("--n", type=int, required=True, help=f"even size, 2..{MAX_SPECTRUM_SIZE}")
    p_s.add_argument(
        "--grid", required=True, help=f"start:stop:count, inclusive, count 1..{MAX_GRID_POINTS}"
    )
    p_s.add_argument("--reality-tol", type=float, default=1e-9)
    p_s.add_argument("--format", choices=("csv", "json"), default="csv")
    p_s.add_argument("--output")
    p_s.set_defaults(func=cmd_spectrum)

    p_m = sub.add_parser("metric", help="metric family construction and checks")
    msub = p_m.add_subparsers(dest="metric_command", required=True)

    p_mb = msub.add_parser("basis", help="emit the incidence/basis family")
    p_mb.add_argument("--n", type=int, required=True, help=f"even size, 2..{MAX_BASIS_SIZE}")
    p_mb.add_argument("--j", type=int, default=None)
    p_mb.add_argument("--lambda", dest="lam", default=None, help=f"numeric mode: {_COUPLING_HELP}")
    p_mb.add_argument("--output")
    p_mb.set_defaults(func=cmd_metric_basis)

    p_mv = msub.add_parser("verify", help="cross-validate the closed form")
    p_mv.add_argument("--n", type=int, required=True, help=f"even size, 2..{MAX_VERIFY_SIZE}")
    p_mv.add_argument(
        "--lambda", dest="lam", required=True, help=f"exact p/q or integer, {_DIGITS_HELP}"
    )
    p_mv.add_argument("--output")
    p_mv.set_defaults(func=cmd_metric_verify)

    p_p = sub.add_parser("positivity", help="positivity verdicts")
    p_p.add_argument("--n", type=int, required=True, help=f"even size, 2..{MAX_POSITIVITY_SIZE}")
    p_p.add_argument("--lambda", dest="lam", required=True, help=_COUPLING_HELP)
    p_p.add_argument("--alpha", default=None, help="comma-separated coefficients")
    p_p.add_argument(
        "--sample", type=int, default=None, help=f"seeded draws, 1..{MAX_SAMPLES}"
    )
    p_p.add_argument("--seed", type=int, default=0)
    p_p.add_argument("--output")
    p_p.set_defaults(func=cmd_positivity)

    p_c = sub.add_parser("continuum", help="matching and opaque-wall sweep")
    p_c.add_argument("--lambda", dest="lam", required=True, help=_COUPLING_HELP)
    # the limits of continuum.check_sweep, written out so that the parser
    # does not load continuum for every command
    p_c.add_argument(
        "--sizes", required=True, help="comma-separated even sizes, 8..10000, at most 200 of them"
    )
    p_c.add_argument("--state", type=int, default=1)
    p_c.add_argument("--output")
    p_c.set_defaults(func=cmd_continuum)

    return parser


# options whose values may legitimately start with a minus sign
_VALUE_OPTIONS = ("--lambda", "--grid", "--alpha", "--sizes", "--reality-tol")


def _normalize_argv(argv: Sequence[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            token in _VALUE_OPTIONS
            and nxt is not None
            and nxt.startswith("-")
            and not nxt.startswith("--")
        ):
            out.append(f"{token}={nxt}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_normalize_argv(argv))
    try:
        return args.func(args)
    except FloatingPointError as exc:
        print(f"error: a result overflows a float ({exc})", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout is closed: point it at devnull, so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was complete", file=sys.stderr)
        return 2
    except (
        UsageError,
        DimensionError,
        DomainError,
        DegenerateSpectrumError,
        ConstructionError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
