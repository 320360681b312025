import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest

import metric_forge
from metric_forge import analysis, cli, closedform, continuum, exact, oracle
from metric_forge.analysis import reality_scan, sample_positivity_region
from metric_forge.closedform import MetricBasisElement
from metric_forge.errors import DomainError
from metric_forge.exact import IntPolynomial
from metric_forge.hamiltonian import HamiltonianSpec, _chain_rows, build_hamiltonian
from metric_forge.cli import (
    MAX_COUPLING_DIGITS,
    MAX_GRID_POINTS,
    UsageError,
    _exact_texts,
    main,
    parse_grid,
    parse_scalar,
)
from sparse_rows import family_variants, upper_triangle


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _expected_spectrum(n, grid, fmt):
    """The `spectrum` output built from the collected `reality_scan`."""
    scan = reality_scan(n, parse_grid(grid))
    points = list(
        zip(
            scan.lams.tolist(),
            scan.eigenvalues.tolist(),
            scan.max_imag.tolist(),
            scan.all_real.tolist(),
        )
    )
    if fmt == "json":
        payload = [
            {
                "lambda": lam,
                "eigenvalues": [[v.real, v.imag] for v in values],
                "max_imag": max_imag,
                "all_real": all_real,
            }
            for lam, values, max_imag, all_real in points
        ]
        return json.dumps(payload) + "\n"
    lines = [",".join(["lambda", *(f"re_e_{i}" for i in range(1, n + 1)), "max_imag", "all_real"])]
    for lam, values, max_imag, all_real in points:
        cells = [f"{v:.17g}" for v in (lam, *(e.real for e in values), max_imag)]
        lines.append(",".join(cells + ["true" if all_real else "false"]))
    return "\n".join(lines) + "\n"


def _expected_sample(n, lam, seed, count):
    """The `positivity --sample` CSV built from the collected sample's columns."""
    result = sample_positivity_region(n, lam, seed, count)
    cell = {True: "true", False: "false", None: ""}
    absent = [None] * count
    draws = zip(*(absent if column is None else column.tolist() for column in result))
    rows = [
        ",".join(
            [str(idx)]
            + [f"{v:.17g}" for v in (*alpha, minimum)]
            + [cell[positive], cell[cf], cell[weights], cell[near]]
        )
        for idx, (alpha, minimum, positive, cf, weights, near) in enumerate(draws)
    ]
    header = ",".join(
        ["index", *(f"alpha_{i}" for i in range(1, n + 1)), "min_eigenvalue", "positive",
         "closed_form_positive", "weights_positive", "near_boundary"]
    )
    footer = f"# fraction_positive = {result.fraction_positive:.17g}"
    return "\n".join([header, *rows, footer]) + "\n"


def _expected_basis(n, lam, j=None):
    """The `metric basis` output as one dump of a dict per entry; the
    coupling is read without the CLI's parser, a float if it has a point."""
    value = None if lam is None else float(lam) if "." in lam else Fraction(lam)

    def as_json(v):
        return v if isinstance(v, float) else str(v)

    elements = []
    for element in closedform.basis_family(n) if j is None else [closedform.basis_element(n, j)]:
        entries = [
            {"i": i, "k": k, "degree": p.degree, "coefficients": list(p.coeffs)}
            for (i, k), p in element.entries.items()
        ]
        if value is not None:
            for entry, v in zip(entries, element.values(value).values()):
                entry["value"] = as_json(v)
        elements.append({"j": element.j, "entries": entries})
    head = {"n": n, "lambda": None if value is None else as_json(value)}
    return json.dumps({**head, "elements": elements}) + "\n"


def _expected_hamiltonian(n, lam, fmt):
    """The exact `hamiltonian` output, `str` of every cell of the chain of Fractions."""
    rows = [list(map(str, row)) for row in _chain_rows(n, Fraction(lam), Fraction(1), 0)]
    if fmt == "json":
        return json.dumps({"n": n, "lambda": str(Fraction(lam)), "matrix": rows}) + "\n"
    if fmt == "csv":
        return "".join(",".join(row) + "\n" for row in rows)
    return "".join("  ".join(f"{c:>10}" for c in row) + "\n" for row in rows)


class TestParsing:
    def test_scalar_forms(self):
        from fractions import Fraction

        assert parse_scalar("1/2") == Fraction(1, 2)
        assert parse_scalar("-2/3") == Fraction(-2, 3)
        assert parse_scalar("0") == 0
        assert parse_scalar("0.5") == 0.5
        with pytest.raises(UsageError):
            parse_scalar("nope")

    def test_exact_digit_limit(self):
        from fractions import Fraction

        most = "9" * MAX_COUPLING_DIGITS
        assert parse_scalar(most) == int(most)
        assert parse_scalar(f"-{most}/{most[1:]}8") == Fraction(-int(most), int(most) - 1)
        # a decimal is a float, whatever its digits
        assert parse_scalar("0." + "3" * 400) == float("0." + "3" * 400)
        for text in ("1" + "0" * MAX_COUPLING_DIGITS, f"1/{most}9", f"-{most}9/7"):
            with pytest.raises(UsageError, match="digits"):
                parse_scalar(text)

    def test_unprintable_exact_value(self):
        # more digits than Python converts to text
        with pytest.raises(DomainError):
            _exact_texts([10**4300])

    def test_grid(self):
        assert parse_grid("0:1:3") == [0.0, 0.5, 1.0]
        assert parse_grid("0:0:1") == [0.0]
        with pytest.raises(UsageError):
            parse_grid("0:1:1")
        with pytest.raises(UsageError):
            parse_grid("0:1")

    def test_grid_count_cap(self):
        assert len(parse_grid(f"0:1:{MAX_GRID_POINTS}")) == MAX_GRID_POINTS
        with pytest.raises(UsageError, match="at most"):
            parse_grid(f"0:1:{MAX_GRID_POINTS + 1}")


# 49 digits over 50, within `MAX_COUPLING_DIGITS`
_LONG_COUPLING = "1" * 49 + "/" + "3" * 50
# integers, p/q, a p/q that reduces to an integer, and 50 digits over 49
_EXACT_COUPLINGS = [
    *("0", "1", "-1", "3", "1/3", "-2/7", "4/2"),
    *(_LONG_COUPLING, "-" + "7" * 50 + "/" + "9" * 49),
]


def _cells(text):
    """`text` cut at each ", ", which joins back to it: a mismatch then
    reports its first differing cell instead of diffing one long line."""
    return text.split(", ")


def _converted(monkeypatch):
    """The exact values the CLI converts to text from now on, in order."""
    converted = []

    def texts(values):
        values = list(values)
        converted.extend(values)
        return _exact_texts(values)

    monkeypatch.setattr(cli, "_exact_texts", texts)
    return converted


class TestHamiltonianCommand:
    def test_exact_json_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "hamiltonian", "--n", "2", "--lambda", "1/2", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {
            "n": 2,
            "lambda": "1/2",
            "matrix": [["2", "-3/2"], ["-1/2", "2"]],
        }

    def test_odd_size_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "hamiltonian", "--n", "3", "--lambda", "0")
        assert code == 2
        assert "even" in err

    def test_free_member_is_symmetric(self, capsys):
        code, out, _ = run_cli(capsys, "hamiltonian", "--n", "4", "--lambda", "0")
        grid = json.loads(out)["matrix"]
        assert code == 0
        for i in range(4):
            for k in range(4):
                assert grid[i][k] == grid[k][i]

    @pytest.mark.parametrize("lam", ["-2/7", "0.3", "1" * 49 + "/" + "3" * 50])
    def test_json_is_written_a_row_at_a_time(self, monkeypatch, lam):
        # the pieces are the head, one per row, and the tail, and they join
        # to the text of one dump
        pieces = []
        monkeypatch.setattr(cli, "_emit", lambda lines, output: pieces.extend(lines))
        assert main(["hamiltonian", "--n", "6", "--lambda", lam]) == 0
        value = parse_scalar(lam)
        h = build_hamiltonian(HamiltonianSpec(6, value))
        if isinstance(value, float):
            payload = {"n": 6, "lambda": value, "matrix": h.tolist()}
        else:
            rows = [list(map(str, row)) for row in h.entries]
            payload = {"n": 6, "lambda": lam, "matrix": rows}
        assert "".join(pieces) == json.dumps(payload) + "\n"
        assert len(pieces) == 6 + 2

    @pytest.mark.parametrize("n", [2, 4, 6, 40])
    @pytest.mark.parametrize("lam", _EXACT_COUPLINGS)
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_exact_output_is_str_of_every_cell(self, capsys, n, lam, fmt):
        argv = ("hamiltonian", "--n", str(n), "--lambda", lam, "--format", fmt)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert _cells(out) == _cells(_expected_hamiltonian(n, lam, fmt))

    @pytest.mark.parametrize("lam", ["3", "-2/7"])
    def test_only_the_band_cells_are_converted(self, monkeypatch, lam):
        converted = _converted(monkeypatch)
        assert main(["hamiltonian", "--n", "400", "--lambda", lam, "--output", os.devnull]) == 0
        # the coupling, then the three bands
        assert len(converted) == 1 + 3 * 400 - 2
        assert 0 not in converted[1:]

    def test_json_roundtrip_exactness(self, capsys):
        from fractions import Fraction

        _, out, _ = run_cli(capsys, "hamiltonian", "--n", "6", "--lambda", "-2/7")
        grid = json.loads(out)["matrix"]
        assert Fraction(grid[2][3]) == Fraction(-1) - Fraction(-2, 7)
        assert Fraction(grid[3][2]) == Fraction(-1) + Fraction(-2, 7)


class TestSpectrumCommand:
    def test_real_branch_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--n", "4", "--grid", "-0.99:0.99:199"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("lambda,re_e_1")
        rows = lines[1:]
        assert len(rows) == 199
        assert all(row.endswith(",true") for row in rows)

    def test_complex_branch_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n", "4", "--grid", "1.05:1.2:4")
        rows = out.strip().splitlines()[1:]
        assert code == 0
        assert len(rows) == 4
        assert all(row.endswith(",false") for row in rows)

    def test_single_point_free_chain(self, capsys):
        import math

        code, out, _ = run_cli(capsys, "spectrum", "--n", "6", "--grid", "0:0:1")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        values = [float(v) for v in row[1:7]]
        golden = sorted(2 - 2 * math.cos(k * math.pi / 7) for k in range(1, 7))
        assert max(abs(a - b) for a, b in zip(values, golden)) < 1e-12

    @pytest.mark.parametrize("n", ["4", "40"])
    @pytest.mark.parametrize(
        "grid",
        [
            "-8e307:8e307:5",
            "1e308:1e308:1",
            "-1e308:-1e308:1",
            "1.7976931348623157e308:1.7976931348623157e308:1",
            "1e200:1e300:3",
        ],
    )
    def test_huge_couplings_print_finite_rows(self, capsys, n, grid):
        # r^2 = 1 - lam^2 overflows here unless it is formed as a product
        code, out, err = run_cli(capsys, "spectrum", "--n", n, "--grid", grid)
        assert code == 0 and err == ""
        for row in out.splitlines()[1:]:
            cells = [float(c) for c in row.split(",")[:-1]]
            assert all(math.isfinite(c) for c in cells)
            # the real part of every eigenvalue lies in the free chain's band
            assert all(0.0 <= c <= 4.0 for c in cells[1:-1])

    def test_bad_grid(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--n", "4", "--grid", "1:2:1")
        assert code == 2 and "grid" in err

    def test_streamed_csv_matches_file_and_reports(self, capsys, tmp_path):
        count = 4596
        argv = ("spectrum", "--n", "2", "--grid", f"-1.2:1.2:{count}")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        target = tmp_path / "spectrum.csv"
        code, _, _ = run_cli(capsys, *argv, "--output", str(target))
        assert code == 0
        assert out.encode() == target.read_bytes()
        assert out == _expected_spectrum(2, f"-1.2:1.2:{count}", "csv")


class TestMetricBasisCommand:
    def test_size4_central_entries(self, capsys):
        code, out, _ = run_cli(capsys, "metric", "basis", "--n", "4")
        assert code == 0
        payload = json.loads(out)
        by_j = {el["j"]: el for el in payload["elements"]}
        entries = {(e["i"], e["k"]): e["degree"] for e in by_j[2]["entries"]}
        assert entries == {(1, 2): 1, (2, 1): 1, (2, 3): 2, (3, 2): 2, (3, 4): 1, (4, 3): 1}

    def test_size2_family(self, capsys):
        _, out, _ = run_cli(capsys, "metric", "basis", "--n", "2")
        payload = json.loads(out)
        first, second = payload["elements"]
        assert {(e["i"], e["k"]): e["degree"] for e in first["entries"]} == {
            (1, 1): 1,
            (2, 2): 1,
        }
        assert {(e["i"], e["k"]): e["degree"] for e in second["entries"]} == {
            (1, 2): 0,
            (2, 1): 0,
        }

    def test_size6_third_member_matches_print(self, capsys):
        _, out, _ = run_cli(capsys, "metric", "basis", "--n", "6", "--j", "3")
        payload = json.loads(out)
        (element,) = payload["elements"]
        entries = {(e["i"], e["k"]): e["degree"] for e in element["entries"]}
        assert entries == {
            (1, 3): 1, (3, 1): 1, (2, 2): 1, (2, 4): 2, (4, 2): 2, (3, 3): 3,
            (3, 5): 2, (5, 3): 2, (4, 4): 3, (4, 6): 1, (6, 4): 1, (5, 5): 1,
        }

    def test_numeric_mode_evaluates_entries(self, capsys):
        _, out, _ = run_cli(
            capsys, "metric", "basis", "--n", "4", "--j", "1", "--lambda", "1/3"
        )
        payload = json.loads(out)
        (element,) = payload["elements"]
        values = {(e["i"], e["k"]): e["value"] for e in element["entries"]}
        assert values[(1, 1)] == "2/3"
        assert values[(4, 4)] == "4/3"

    def test_numeric_mode_float_coupling(self, capsys):
        _, out, _ = run_cli(
            capsys, "metric", "basis", "--n", "4", "--j", "1", "--lambda", "0.25"
        )
        payload = json.loads(out)
        values = {
            (e["i"], e["k"]): e["value"] for e in payload["elements"][0]["entries"]
        }
        assert values[(1, 1)] == 0.75
        assert values[(4, 4)] == 1.25

    def test_polynomial_coefficients(self, capsys):
        _, out, _ = run_cli(capsys, "metric", "basis", "--n", "4", "--j", "2")
        payload = json.loads(out)
        entries = {
            (e["i"], e["k"]): e["coefficients"]
            for e in payload["elements"][0]["entries"]
        }
        assert entries[(1, 2)] == [1, -1]
        assert entries[(2, 3)] == [1, 0, -1]
        assert entries[(3, 4)] == [1, 1]

    @pytest.mark.parametrize("n, j", [(2, 1), (6, 3), (8, 8), (12, 5)])
    @pytest.mark.parametrize("lam", [None, "5/9", "-0.3"])
    def test_one_element_is_that_of_the_full_dump(self, capsys, n, j, lam):
        coupling = () if lam is None else ("--lambda", lam)
        _, full, _ = run_cli(capsys, "metric", "basis", "--n", str(n), *coupling)
        code, one, _ = run_cli(capsys, "metric", "basis", "--n", str(n), "--j", str(j), *coupling)
        full, one = json.loads(full), json.loads(one)
        assert code == 0
        assert one["elements"] == [full["elements"][j - 1]]
        assert {**one, "elements": None} == {**full, "elements": None}

    @pytest.mark.parametrize("n", [2, 4, 6, 12, 40])
    @pytest.mark.parametrize(
        "lam", [None, "0", "1", "-1", "5/9", "-7/3", "3", "0.3", _LONG_COUPLING]
    )
    @pytest.mark.parametrize("j", [None, "first", "middle", "last"])
    def test_output_is_one_dump_of_the_entries(self, capsys, n, lam, j):
        j = {None: None, "first": 1, "middle": n // 2, "last": n}[j]
        argv = ["metric", "basis", "--n", str(n)]
        argv += [] if lam is None else ["--lambda", lam]
        argv += [] if j is None else ["--j", str(j)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert _cells(out) == _cells(_expected_basis(n, lam, j))

    @pytest.mark.parametrize("lam", ["5/9", "3", _LONG_COUPLING])
    def test_each_distinct_value_is_converted_once(self, monkeypatch, lam):
        converted = _converted(monkeypatch)
        assert main(["metric", "basis", "--n", "40", "--lambda", lam, "--output", os.devnull]) == 0
        alphabet = {p for element in closedform.basis_family(40) for p in element.entries.values()}
        # the coupling, then one value a polynomial of the family
        assert len(converted) == 1 + len(alphabet) == 1 + 31

    def test_memory_is_a_small_part_of_the_text(self, monkeypatch):
        # each element is written before the next is joined, so the peak is
        # the family and one element's text, not the whole output
        argv = ["metric", "basis", "--n", "80", "--lambda", _LONG_COUPLING]

        class Counter:
            written = 0

            def write(self, text):
                self.written += len(text)

        counter = Counter()
        with monkeypatch.context() as patch:
            patch.setattr("sys.stdout", counter)
            assert main(argv) == 0
        written = counter.written
        assert main(["metric", "basis", "--n", "2", "--lambda", "1/3", "--output", os.devnull]) == 0
        tracemalloc.start()
        try:
            assert main([*argv, "--output", os.devnull]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert written > 50_000_000
        assert peak < written / 2

    @pytest.mark.parametrize(
        "argv",
        [
            # a float overflow, at a small and at the largest size
            ("--n", "8", "--lambda", "1e200"),
            ("--n", "120", "--lambda", "1e10"),
            # an exact value with more digits than Python prints
            ("--n", "6", "--lambda", "1" + "0" * 2000),
        ],
    )
    def test_error_leaves_no_output(self, capsys, tmp_path, argv):
        # every value is encoded before the first write, so an error leaves
        # stdout empty and creates no --output file
        target = tmp_path / "basis.json"
        for output in ((), ("--output", str(target))):
            code, out, err = run_cli(capsys, "metric", "basis", *argv, *output)
            assert code == 2 and out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not target.exists()

    @pytest.mark.parametrize("j", ["0", "81"])
    def test_index_checked_before_the_family_grows(self, capsys, monkeypatch, j):
        def grow(*args):
            raise AssertionError("basis built")

        monkeypatch.setattr(closedform, "basis_family", grow)
        monkeypatch.setattr(closedform, "basis_element", grow)
        code, out, err = run_cli(capsys, "metric", "basis", "--n", "80", "--j", j)
        assert code == 2 and out == ""
        assert err.startswith("error: --j")

    @pytest.mark.parametrize("n", ["-2", "0", "3"])
    @pytest.mark.parametrize("j", ["1", "5"])
    def test_size_checked_before_the_index(self, capsys, n, j):
        code, out, err = run_cli(capsys, "metric", "basis", "--n", n, "--j", j)
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: size must be an even integer >= 2"]


class TestExactSizeLimits:
    @pytest.mark.parametrize(
        "argv, work, limit",
        [
            (("metric", "verify", "--lambda", "1/2"), "run_verification", cli.MAX_VERIFY_SIZE),
            (("metric", "basis"), "basis_family", cli.MAX_BASIS_SIZE),
            (("metric", "basis", "--lambda", "1/2"), "basis_family", cli.MAX_BASIS_SIZE),
        ],
    )
    def test_size_over_the_limit_is_a_usage_error(self, capsys, monkeypatch, argv, work, limit):
        def refused(*args):
            raise AssertionError(f"{work} called")

        owner = cli if work == "run_verification" else closedform
        monkeypatch.setattr(owner, work, refused)
        code, out, err = run_cli(capsys, *argv, "--n", str(limit + 2))
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: --n must be at most {limit}"]
        # the limit itself is accepted; the work is stubbed, not run
        monkeypatch.setattr(owner, work, lambda *args: [])
        code, _, _ = run_cli(capsys, *argv, "--n", str(limit))
        assert code == 0

    @pytest.mark.parametrize(
        "command, limit",
        [("verify", cli.MAX_VERIFY_SIZE), ("basis", cli.MAX_BASIS_SIZE)],
    )
    def test_help_names_the_size_limit(self, capsys, command, limit):
        with pytest.raises(SystemExit):
            main(["metric", command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert f"--n N even size, 2..{limit}" in out


class TestCommandSizeLimits:
    """The `--n` caps of the chain, spectrum and positivity commands."""

    @pytest.mark.parametrize(
        "argv, owner, work, limit",
        [
            (
                ("hamiltonian", "--lambda", "1/2", "--format", "csv"),
                cli,
                "_chain_rows",
                cli.MAX_HAMILTONIAN_SIZE,
            ),
            (("spectrum", "--grid", "0:0:1"), analysis, "scan_blocks", cli.MAX_SPECTRUM_SIZE),
            (
                ("positivity", "--lambda", "0.5", "--sample", "3"),
                analysis,
                "sample_blocks",
                cli.MAX_POSITIVITY_SIZE,
            ),
        ],
        ids=["hamiltonian", "spectrum", "positivity"],
    )
    def test_size_over_the_limit_is_a_usage_error(
        self, capsys, monkeypatch, argv, owner, work, limit
    ):
        def refused(*args, **kwargs):
            raise AssertionError(f"{work} called")

        run = getattr(owner, work)
        monkeypatch.setattr(owner, work, refused)
        code, out, err = run_cli(capsys, *argv, "--n", str(limit + 2))
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: --n must be at most {limit}"]
        # the limit itself runs, in a form that costs little
        monkeypatch.setattr(owner, work, run)
        code, _, err = run_cli(capsys, *argv, "--n", str(limit), "--output", os.devnull)
        assert code == 0 and err == ""

    @pytest.mark.parametrize(
        "command, limit",
        [
            ("hamiltonian", cli.MAX_HAMILTONIAN_SIZE),
            ("spectrum", cli.MAX_SPECTRUM_SIZE),
            ("positivity", cli.MAX_POSITIVITY_SIZE),
        ],
    )
    def test_help_names_the_size_limit(self, capsys, command, limit):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert f"--n N even size, 2..{limit}" in out


class TestMetricVerifyCommand:
    @pytest.mark.parametrize("n,lam", [(6, "1/2"), (8, "2/3")])
    def test_passes_cleanly(self, capsys, n, lam):
        code, out, _ = run_cli(
            capsys, "metric", "verify", "--n", str(n), "--lambda", lam
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["failed"] == 0
        assert {c["name"] for c in payload["checks"]} == {
            "closed_form_intertwining",
            "oracle_dimension",
            "span_equivalence",
            "lambda0_reduction",
            "reflection_symmetry",
        }
        assert all(c["passed"] for c in payload["checks"])

    def test_odd_size_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "metric", "verify", "--n", "5", "--lambda", "1/2")
        assert code == 2 and err

    def test_float_coupling_rejected(self, capsys):
        code, _, err = run_cli(capsys, "metric", "verify", "--n", "4", "--lambda", "0.5")
        assert code == 2
        assert "exact" in err

    @pytest.mark.parametrize("lam", [Fraction(5, 9), Fraction(1), Fraction(-1)], ids=str)
    def test_duplicated_member_fails_span_equivalence(self, monkeypatch, lam):
        # the copy lies inside the oracle's space, so the combined rank
        # stays n; only the independence of the family catches it
        family = closedform.basis_family(8)
        monkeypatch.setattr(closedform, "basis_family", lambda n: family[:-1] + family[-2:-1])
        checks = {c.name: c for c in cli.run_verification(8, lam)}
        assert [name for name, c in checks.items() if not c.passed] == ["span_equivalence"]
        assert checks["span_equivalence"].detail == 8

    def test_alphabet_fault_after_a_warm_call_is_caught(self, monkeypatch):
        # x added to every degree-2 entry breaks the identity, the span and
        # the mirror; an earlier family built before the fault hides none
        closedform.basis_family(8)
        original, x = closedform.entry_polynomial, IntPolynomial((0, 1))

        def faulty(degree, sign=None):
            polynomial = original(degree, sign)
            return polynomial + x if degree == 2 else polynomial

        monkeypatch.setattr(closedform, "entry_polynomial", faulty)
        checks = cli.run_verification(8, Fraction(5, 9))
        assert [c.name for c in checks if not c.passed] == [
            "closed_form_intertwining",
            "span_equivalence",
            "reflection_symmetry",
        ]

    @pytest.mark.parametrize("lam", ["5/9", "1", "-1", "0"])
    def test_perturbed_member_fails_the_identity(self, capsys, monkeypatch, lam):
        # x added to the first entry of M_3 breaks M H = H^T M as a
        # polynomial identity; `metric verify` exits with the failed count
        family = closedform.basis_family(8)
        entries = dict(family[2].entries)
        position = next(iter(entries))
        entries[position] = entries[position] + IntPolynomial((0, 1))
        perturbed = MetricBasisElement(8, 3, entries)
        monkeypatch.setattr(
            closedform, "basis_family", lambda n: family[:2] + (perturbed,) + family[3:]
        )
        checks = {c.name: c.passed for c in cli.run_verification(8, Fraction(lam))}
        assert checks["closed_form_intertwining"] is False
        code, out, _ = run_cli(capsys, "metric", "verify", "--n", "8", "--lambda", lam)
        payload = json.loads(out)
        failed = [c["name"] for c in payload["checks"] if not c["passed"]]
        assert failed == [name for name, passed in checks.items() if not passed]
        assert code == payload["failed"] == len(failed) >= 1

    def test_growth_mismatch_is_an_error_line(self, capsys, monkeypatch):
        # `metric verify` runs the paper's recurrence; a growth step that
        # misses the closed-form degrees ends the command with exit 2
        grow = closedform._grown

        def wrong(previous, n, j):
            degrees = grow(previous, n, j)
            if (n, j) == (6, 4):
                degrees[1, 4] = degrees[4, 1] = 2
            return degrees

        monkeypatch.setattr(closedform, "_grown", wrong)
        code, out, err = run_cli(capsys, "metric", "verify", "--n", "8", "--lambda", "1/2")
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: growth rules missed the closed-form degrees at n=6, j=4"
        ]

    @pytest.mark.parametrize(
        "lam", [Fraction(5, 9), Fraction(1), Fraction(-1), Fraction(0)], ids=str
    )
    def test_passing_family_runs_one_rank_of_n_rows(self, monkeypatch, lam):
        # every member lies in the oracle's span, so no residual needs a
        # rank; the one exact rank is that of the n x n coordinate matrix
        shapes = []
        rank = exact.rank

        def spy(rows):
            shapes.append((len(rows), 1 + max(k for row in rows for k in row)))
            return rank(rows)

        monkeypatch.setattr(exact, "rank", spy)
        assert all(c.passed for c in cli.run_verification(8, lam))
        assert shapes == [(8, 8)]

    @pytest.mark.parametrize(
        "lam", [Fraction(0), Fraction(1), Fraction(-1), Fraction(5, 9), Fraction(7, 3)], ids=str
    )
    @pytest.mark.parametrize("n", [2, 4, 6, 10])
    def test_span_check_is_the_stacked_rank_definition(self, monkeypatch, n, lam):
        # (passed, detail) against the definition: the oracle basis stacked
        # on the members has rank n and the members alone rank n, and the
        # detail is the stacked rank; over in-span, out-of-span, dependent
        # and zero members
        space = oracle.solve_metric_space(HamiltonianSpec(n, lam))
        for variant in family_variants(n):
            members = [upper_triangle(el.values(lam), n) for el in variant]
            stacked = exact.rank(list(space.basis) + members)
            passed = stacked == n and exact.rank(members) == n
            monkeypatch.setattr(closedform, "basis_family", lambda size: variant)
            checks = {c.name: c for c in cli.run_verification(n, lam)}
            assert checks["span_equivalence"][1:] == (passed, stacked)

    @pytest.mark.parametrize("keep", [7, 0])
    @pytest.mark.parametrize("lam", [Fraction(5, 9), Fraction(1), Fraction(-1)], ids=str)
    def test_truncated_oracle_basis_fails_span_equivalence(self, monkeypatch, lam, keep):
        # fewer than n oracle vectors cannot span the n members, although
        # the basis stacked on the members still has rank n
        solve = oracle.solve_metric_space

        def truncated(spec):
            space = solve(spec)
            return space._replace(basis=space.basis[:keep])

        monkeypatch.setattr(oracle, "solve_metric_space", truncated)
        checks = {c.name: c for c in cli.run_verification(8, lam)}
        assert [name for name, c in checks.items() if not c.passed] == ["span_equivalence"]
        assert checks["span_equivalence"].detail == 8


class TestPositivityCommand:
    def test_single_positive(self, capsys):
        code, out, _ = run_cli(
            capsys, "positivity", "--n", "2", "--lambda", "0.6", "--alpha", "1,0.5"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["positive"] is True
        assert payload["closed_form_positive"] is True

    def test_single_not_positive(self, capsys):
        code, out, _ = run_cli(
            capsys, "positivity", "--n", "2", "--lambda", "0.6", "--alpha", "1,0.9"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["positive"] is False
        assert payload["closed_form_positive"] is False

    @pytest.mark.parametrize("n", [2, 4, 6, 12])
    @pytest.mark.parametrize("lam", ["0.3", "-0.7", "1.5"])
    def test_alpha_reproduces_each_sampled_row(self, capsys, n, lam):
        # one theta product serves both modes, so the alpha a row prints
        # gives back its eigenvalue text and verdicts exactly
        code, out, _ = run_cli(
            capsys, "positivity", "--n", str(n), "--lambda", lam, "--sample", "100", "--seed", "4"
        )
        assert code == 0
        cell = {True: "true", False: "false", None: ""}
        for cells in (line.split(",") for line in out.splitlines()[1:-1]):
            alpha = ",".join(cells[1 : n + 1])
            code, single, _ = run_cli(
                capsys, "positivity", "--n", str(n), "--lambda", lam, "--alpha", alpha
            )
            assert code == 0
            report = json.loads(single)
            printed = [
                f"{report['min_eigenvalue']:.17g}",
                cell[report["positive"]],
                cell[report["closed_form_positive"]],
            ]
            assert printed == cells[n + 1 : n + 4], cells[0]

    def test_alpha_length_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys, "positivity", "--n", "4", "--lambda", "0", "--alpha", "1,2"
        )
        assert code == 2 and "alpha" in err

    def test_sampling_csv_deterministic_with_agreement(self, capsys):
        args = (
            "positivity", "--n", "4", "--lambda", "0",
            "--sample", "200", "--seed", "7",
        )
        code, out_a, _ = run_cli(capsys, *args)
        assert code == 0
        code, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b
        lines = out_a.strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "index"
        assert lines[-1].startswith("# fraction_positive = ")
        pos_col = header.index("positive")
        cf_col = header.index("closed_form_positive")
        nb_col = header.index("near_boundary")
        for row in lines[1:-1]:
            cells = row.split(",")
            if cells[nb_col] == "false":
                assert cells[pos_col] == cells[cf_col]

    @pytest.mark.parametrize("lam", ["1", "1.5"])
    def test_size2_sampling_outside_window(self, capsys, lam):
        code, out, _ = run_cli(
            capsys, "positivity", "--n", "2", "--lambda", lam, "--sample", "3"
        )
        assert code == 0
        lines = out.strip().splitlines()
        cf_col = lines[0].split(",").index("closed_form_positive")
        assert [row.split(",")[cf_col] for row in lines[1:-1]] == ["", "", ""]

    def test_streamed_sample_matches_file_and_rows(self, capsys, tmp_path):
        n, lam, seed, count = 2, 0.4, 7, 5096
        argv = (
            "positivity", "--n", str(n), "--lambda", str(lam),
            "--sample", str(count), "--seed", str(seed),
        )
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        target = tmp_path / "sample.csv"
        code, _, _ = run_cli(capsys, *argv, "--output", str(target))
        assert code == 0
        assert len(out) > 4 * 2**16
        assert out.encode() == target.read_bytes()
        assert out == _expected_sample(n, lam, seed, count)


_SWEEP_CASES = [
    # points outside (-1, 1), in a count that fills no whole block
    (("spectrum", "--n", "4", "--grid", "-3:3:101"), (4, "-3:3:101", "csv")),
    (("spectrum", "--n", "4", "--grid", "-3:3:101", "--format", "json"), (4, "-3:3:101", "json")),
    # the floor on rows per block sets the block at n = 40
    (("spectrum", "--n", "40", "--grid", "-1.2:1.2:77"), (40, "-1.2:1.2:77", "csv")),
    (
        ("spectrum", "--n", "40", "--grid", "-1.2:1.2:77", "--format", "json"),
        (40, "-1.2:1.2:77", "json"),
    ),
    (("spectrum", "--n", "6", "--grid", "1.5:1.5:1", "--format", "json"), (6, "1.5:1.5:1", "json")),
    # every verdict column; the closed form alone; no weights column
    (("positivity", "--n", "2", "--lambda", "0.3", "--sample", "1100", "--seed", "5"), (2, 0.3, 5, 1100)),
    (("positivity", "--n", "4", "--lambda", "0", "--sample", "300", "--seed", "9"), (4, 0.0, 9, 300)),
    (("positivity", "--n", "6", "--lambda", "1.5", "--sample", "250", "--seed", "3"), (6, 1.5, 3, 250)),
]


class TestStreamedSweeps:
    """`spectrum` and `positivity --sample` format and write each solved
    block before the next block is solved."""

    @pytest.mark.parametrize("argv, reference", _SWEEP_CASES, ids=lambda v: " ".join(map(str, v)))
    def test_output_does_not_depend_on_the_block(self, capsys, monkeypatch, argv, reference):
        expected = (_expected_spectrum if argv[0] == "spectrum" else _expected_sample)(*reference)
        default = (analysis._BLOCK_FLOATS, analysis._MIN_BLOCK_ROWS)
        # the default blocks, the floor of rows alone, and three rows a block
        for floats, rows in (default, (1, default[1]), (1, 3)):
            monkeypatch.setattr(analysis, "_BLOCK_FLOATS", floats)
            monkeypatch.setattr(analysis, "_MIN_BLOCK_ROWS", rows)
            code, out, err = run_cli(capsys, *argv)
            assert code == 0 and err == ""
            assert out == expected

    @pytest.mark.parametrize(
        "argv, small, large",
        [
            (("positivity", "--n", "6", "--lambda", "0.3", "--sample"), "5000", "50000"),
            (("spectrum", "--n", "40", "--grid"), "-1.2:1.2:500", "-1.2:1.2:5000"),
            (("spectrum", "--n", "40", "--format", "json", "--grid"), "-1.2:1.2:500", "-1.2:1.2:5000"),
        ],
        ids=["positivity", "spectrum-csv", "spectrum-json"],
    )
    def test_memory_does_not_grow_with_the_count(self, argv, small, large):
        # tracemalloc counts numpy's buffers as well as Python objects
        def peak(last):
            tracemalloc.start()
            try:
                assert main([*argv, last, "--output", os.devnull]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(small)  # imports and first-call set-up are not the sweep's
        assert peak(large) <= 1.5 * peak(small)

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("spectrum", "--n", "4", "--grid", "-1.2:1.2:100"), "scan_blocks"),
            (("positivity", "--n", "4", "--lambda", "0", "--sample", "100"), "sample_blocks"),
        ],
        ids=["spectrum", "positivity"],
    )
    @pytest.mark.parametrize(
        "error", [FloatingPointError("overflow encountered"), DomainError("no such block")]
    )
    def test_error_in_a_later_block(self, capsys, monkeypatch, argv, name, error):
        import numpy as np

        blocks_of = getattr(analysis, name)
        states = []

        def failing(*args, **kwargs):
            def blocks():
                for index, block in enumerate(blocks_of(*args, **kwargs)):
                    states.append(np.geterr())
                    if index == 1:
                        raise error
                    yield block

            return blocks()

        monkeypatch.setattr(analysis, "_BLOCK_FLOATS", 1)
        code, complete, _ = run_cli(capsys, *argv)
        assert code == 0
        monkeypatch.setattr(analysis, name, failing)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        # the header and the first block's rows stay written
        lines = out.splitlines()
        assert len(lines) == 1 + analysis._MIN_BLOCK_ROWS
        assert complete.startswith(out)
        assert [(s["over"], s["invalid"]) for s in states] == [("raise", "raise")] * 2


def test_reality_tol_default_is_the_library_default():
    # the parser states the value itself, so that it need not load numpy
    args = cli.build_parser().parse_args(["spectrum", "--n", "4", "--grid", "0:1:2"])
    assert args.reality_tol == analysis.REALITY_TOL
    for scan in (analysis.scan_blocks, analysis.reality_scan):
        assert scan.__kwdefaults__["tol"] == analysis.REALITY_TOL


class TestContinuumCommand:
    def test_convergence_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "continuum", "--lambda", "0.5", "--sizes", "40,80,160,320", "--state", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "size,h,residual,central_amplitude"
        assert lines[-1].startswith("# slope = ")
        slope = float(lines[-1].split("=")[1])
        assert 1.7 <= slope <= 2.3

    def test_free_coupling_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "continuum", "--lambda", "0", "--sizes", "40,80"
        )
        assert code == 2 and err

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--lambda", "0"),
            ("--lambda", "1.5"),
            ("--sizes", "8"),
            ("--sizes", "10,8"),
            ("--sizes", "8,9"),
            ("--sizes", "6,8"),
            ("--sizes", f"8,{continuum.MAX_CONTINUUM_SIZE + 2}"),
            pytest.param(
                "--sizes",
                ",".join(str(n) for n in range(8, 10 + 2 * continuum.MAX_SWEEP_SIZES, 2)),
                id="--sizes-over-the-count-limit",
            ),
        ],
    )
    def test_inputs_checked_before_any_solve(self, capsys, monkeypatch, option, value):
        def solve(*args):
            raise AssertionError("eigensolve called")

        monkeypatch.setattr(continuum, "_real_eigenpair", solve)
        options = {"--lambda": "0.5", "--sizes": "8,10", option: value}
        code, out, err = run_cli(capsys, "continuum", *chain.from_iterable(options.items()))
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("state, solves", [("1", 2), ("2", 4)])
    def test_each_pair_solved_once(self, capsys, monkeypatch, state, solves):
        # at state 1 the wall reads the matching solves
        calls = []
        solve = continuum._real_eigenpair

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(continuum, "_real_eigenpair", counted)
        code, _, _ = run_cli(
            capsys, "continuum", "--lambda", "0.5", "--sizes", "12,16", "--state", state
        )
        assert code == 0 and len(calls) == solves

    def test_help_names_the_size_limits(self, capsys):
        with pytest.raises(SystemExit):
            main(["continuum", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert f"{continuum.MIN_STENCIL_SIZE}..{continuum.MAX_CONTINUUM_SIZE}" in out
        assert f"at most {continuum.MAX_SWEEP_SIZES} of them" in out

    @pytest.mark.parametrize("residual", [0.0, float("nan"), float("inf")])
    def test_residual_without_a_logarithm_exits_two(self, capsys, monkeypatch, residual):
        # math.log(0.0) raises ValueError, which main does not catch: the
        # fit turns such a residual into a DomainError before anything prints
        monkeypatch.setattr(continuum, "_wave_residual", lambda data: residual)
        code, out, err = run_cli(capsys, "continuum", "--lambda", "0.5", "--sizes", "8,10")
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize(
        "lam, sizes, state, size",
        [("0.3", "40,80", "3", "40"), ("0.5", "8,10,12", "1", "8"), ("0.3", "8,40", "1", "8")],
    )
    def test_unresolved_state_exits_two(self, capsys, lam, sizes, state, size):
        # a residual of exactly 1: the two sides of a matching relation
        # have opposite signs on that lattice
        code, out, err = run_cli(
            capsys, "continuum", "--lambda", lam, "--sizes", sizes, "--state", state
        )
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert f"state {state} " in lines[0] and f"size {size}:" in lines[0]

    def test_central_amplitude_decreasing(self, capsys):
        code, out, _ = run_cli(
            capsys, "continuum", "--lambda", "0.5", "--sizes", "20,40"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:-1]]
        amplitudes = [float(r[3]) for r in rows]
        assert amplitudes[1] < amplitudes[0]


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        for args in (
            ("hamiltonian", "--n", "4", "--lambda", "0.37"),
            ("spectrum", "--n", "4", "--grid", "-0.5:0.5:11"),
            ("metric", "basis", "--n", "6"),
        ):
            _, first, _ = run_cli(capsys, *args)
            _, second, _ = run_cli(capsys, *args)
            assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "h.json"
        code, out, _ = run_cli(
            capsys, "hamiltonian", "--n", "2", "--lambda", "1/2",
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["lambda"] == "1/2"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "--n", "4", "--grid", "nan:1:3"),
            ("spectrum", "--n", "4", "--grid", "0:inf:3"),
            ("spectrum", "--n", "4", "--grid", "-1e308:1e308:3"),
            ("positivity", "--n", "2", "--lambda", "0.5", "--sample", "3", "--seed", "-1"),
            ("positivity", "--n", "2", "--lambda", "0.5", "--alpha", "1,nan"),
            ("positivity", "--n", "2", "--lambda", "0.5", "--alpha", "inf,1"),
            ("positivity", "--n", "2", "--lambda", "0.5", "--alpha", "1,-inf"),
            ("spectrum", "--n", "4", "--grid", "0:0.5:3", "--reality-tol", "nan"),
            ("spectrum", "--n", "4", "--grid", "0:0.5:3", "--reality-tol", "inf"),
            ("spectrum", "--n", "4", "--grid", "0:0.5:3", "--reality-tol", "-1e-9"),
            # basis entries of degree 2 and more overflow a float
            ("positivity", "--n", "6", "--lambda", "1e300", "--alpha", "1,2,3,4,5,6"),
            ("positivity", "--n", "4", "--lambda", "1e200", "--sample", "3"),
            ("positivity", "--n", "2", "--lambda", "0.5", "--sample", "1000001"),
            # a float overflow during the command, or in the printed values
            ("positivity", "--n", "4", "--lambda", "1.3e154", "--sample", "3"),
            ("positivity", "--n", "2", "--lambda", "1e308", "--alpha", "1,2"),
            ("metric", "basis", "--n", "8", "--lambda", "1e200"),
            # an exact coupling too large for a float
            ("positivity", "--n", "2", "--lambda", "1" + "0" * 400, "--alpha", "1,2"),
            ("continuum", "--lambda", "1" + "0" * 400, "--sizes", "8,10"),
            ("positivity", "--n", "2", "--lambda", "1" + "0" * 400 + "/3", "--sample", "3"),
            # an exact result with more digits than Python prints
            ("metric", "basis", "--n", "6", "--lambda", "1" + "0" * 2000),
            ("metric", "basis", "--n", "2", "--lambda", "1/" + "9" * 4300),
            ("hamiltonian", "--n", "2", "--lambda", "9" * 4300),
            # an exact coupling over the digit limit
            ("hamiltonian", "--n", "2", "--lambda", "1" + "0" * MAX_COUPLING_DIGITS),
            ("metric", "basis", "--n", "4", "--lambda", "1/" + "9" * (MAX_COUPLING_DIGITS + 1)),
            ("metric", "verify", "--n", "4", "--lambda", "-" + "7" * (MAX_COUPLING_DIGITS + 1) + "/3"),
        ],
    )
    def test_single_error_line_and_exit_code_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            # an empty item would shift every later value one place left
            ("positivity", "--n", "4", "--lambda", "0.3", "--alpha", "1,,2,3,4"),
            ("positivity", "--n", "2", "--lambda", "0.3", "--alpha", "1,0.5,"),
            ("continuum", "--lambda", "0.5", "--sizes", "40,,80"),
        ],
    )
    def test_empty_list_item_is_an_invalid_list(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: invalid list {argv[-1]!r}"]

    @pytest.mark.parametrize("target", ["missing/x.json", "."])
    @pytest.mark.parametrize(
        "argv",
        [
            ("hamiltonian", "--n", "2"),
            ("metric", "verify", "--n", "2", "--lambda", "1/2"),
            ("positivity", "--n", "2", "--lambda", "0.5", "--sample", "3"),
        ],
    )
    def test_unwritable_output(self, capsys, tmp_path, argv, target):
        # a missing parent directory, or a directory as the target
        code, out, err = run_cli(capsys, *argv, "--output", str(tmp_path / target))
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that fails writes")
    @pytest.mark.parametrize(
        "argv",
        [
            ("hamiltonian", "--n", "2"),
            ("positivity", "--n", "2", "--lambda", "0.5", "--sample", "5000"),
        ],
    )
    def test_failed_write_to_output(self, capsys, argv):
        # the file opens, and the write fails
        code, out, err = run_cli(capsys, *argv, "--output", "/dev/full")
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


def _fresh_python(code, *args):
    """Run `code` in a new interpreter that imports the package from this
    checkout; its stderr."""
    src = str(Path(metric_forge.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return result.stderr


_EXACT_ARGV = [
    *(
        ("hamiltonian", "--n", "4", "--lambda", lam, "--format", fmt)
        for lam in ("0", "1/3")
        for fmt in ("json", "csv", "text")
    ),
    ("metric", "basis", "--n", "8"),
    ("metric", "basis", "--n", "8", "--lambda", "2/5"),
    ("metric", "basis", "--n", "8", "--lambda", "0.3"),
    ("metric", "verify", "--n", "6", "--lambda", "1/3"),
]
# each float command and whether it loads numpy
_FLOAT_ARGV = [
    (("spectrum", "--n", "4", "--grid", "0:1:3"), True),
    (("positivity", "--n", "2", "--lambda", "0.5", "--alpha", "1,0"), True),
    (("continuum", "--lambda", "0.5", "--sizes", "12,16"), False),
    (("hamiltonian", "--n", "2", "--lambda", "0.3"), False),
]

# the two constructions of the family, which only `metric` and `positivity` load
_CONSTRUCTIONS = ("metric_forge.closedform", "metric_forge.oracle")


class TestStartup:
    @pytest.mark.parametrize("module", ["scipy", "numpy"])
    def test_cli_import_leaves_scipy_unloaded(self, module):
        probe = f"import sys, metric_forge.cli; print({module!r} in sys.modules, file=sys.stderr)"
        assert _fresh_python(probe).strip() == "False"

    @pytest.mark.parametrize(
        "argv, numpy_loaded",
        [(argv, False) for argv in _EXACT_ARGV] + _FLOAT_ARGV,
    )
    def test_only_float_commands_load_numpy(self, argv, numpy_loaded):
        probe = (
            "import os, sys\n"
            "from metric_forge.cli import main\n"
            "code = main(sys.argv[1:] + ['--output', os.devnull])\n"
            "print(code, 'numpy' in sys.modules, 'scipy' in sys.modules, file=sys.stderr)\n"
        )
        code, numpy, scipy = _fresh_python(probe, *argv).split()
        assert code == "0"
        assert numpy == str(numpy_loaded)
        assert scipy == "False"

    def test_rejected_matrix_candidate_loads_no_numpy(self):
        # `verify_membership` never reads a Matrix as floats: it rejects a
        # float entry or a float coupling before it imports numpy
        probe = (
            "import sys\n"
            "from metric_forge.errors import DomainError\n"
            "from metric_forge.exact import Matrix\n"
            "from metric_forge.hamiltonian import HamiltonianSpec\n"
            "from metric_forge.oracle import verify_membership\n"
            "half = Matrix.from_rows([[0.5, 0], [0, 0.5]])\n"
            "for theta, lam in ((half, 0), (Matrix.identity(2), 0.5)):\n"
            "    try:\n"
            "        verify_membership(theta, HamiltonianSpec(2, lam))\n"
            "    except DomainError:\n"
            "        print('numpy' in sys.modules, file=sys.stderr)\n"
        )
        assert _fresh_python(probe).split() == ["False", "False"]

    def test_package_import_loads_no_submodule(self):
        probe = (
            "import sys, metric_forge\n"
            "print(*[m for m in sys.modules if m.startswith('metric_forge.')], file=sys.stderr)\n"
        )
        assert _fresh_python(probe).split() == []

    def test_error_types_resolve_from_the_package(self):
        # `errors` has no `__all__`; its exception types are exported too
        names = ("ConstructionError", "DegenerateSpectrumError", "DimensionError", "DomainError")
        probe = (
            "import sys, metric_forge\n"
            f"found = [getattr(metric_forge, name) for name in {names!r}]\n"
            f"assert found == [getattr(metric_forge.errors, name) for name in {names!r}]\n"
            "print(*[m for m in sys.modules if m.startswith('metric_forge.')], file=sys.stderr)\n"
        )
        assert _fresh_python(probe).split() == ["metric_forge.errors"]

    @pytest.mark.parametrize(
        "argv, unloaded",
        [
            (
                ("continuum", "--lambda", "0.5", "--sizes", "12,16"),
                (*_CONSTRUCTIONS, "metric_forge.exact", "dataclasses", "inspect"),
            ),
            *(
                (
                    ("hamiltonian", "--n", "4", "--lambda", lam),
                    (*_CONSTRUCTIONS, "metric_forge.exact", "dataclasses", "inspect", "numpy"),
                )
                for lam in ("1/3", "0.3")
            ),
            (("spectrum", "--n", "4", "--grid", "0:1:3"), _CONSTRUCTIONS),
            # the exact commands build their records without dataclasses
            *(
                (argv, ("dataclasses", "inspect", "numpy"))
                for argv in (
                    ("metric", "verify", "--n", "4", "--lambda", "1/3"),
                    ("metric", "basis", "--n", "4"),
                )
            ),
            # json loads only for JSON output, fractions only for exact couplings
            *(
                (argv, ("json", "fractions", "decimal"))
                for argv in (
                    ("continuum", "--lambda", "0.5", "--sizes", "12,16"),
                    ("spectrum", "--n", "4", "--grid", "0:1:3"),
                )
            ),
            *(
                (("hamiltonian", "--n", "4", "--lambda", lam, "--format", "csv"), ("json",))
                for lam in ("1/3", "0.3")
            ),
            (("positivity", "--n", "2", "--lambda", "0.5", "--sample", "10"), ("json",)),
            # an integer coupling is exact without a Fraction
            *(
                (("hamiltonian", "--n", "4", "--lambda", lam), ("fractions", "decimal"))
                for lam in ("0", "3")
            ),
        ],
    )
    def test_command_leaves_other_modules_unloaded(self, argv, unloaded):
        probe = (
            "import os, sys\n"
            "from metric_forge.cli import main\n"
            "code = main(sys.argv[1:] + ['--output', os.devnull])\n"
            f"print(code, *[m for m in {unloaded!r} if m in sys.modules], file=sys.stderr)\n"
        )
        assert _fresh_python(probe, *argv).split() == ["0"]
