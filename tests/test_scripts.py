"""Each experiment script's `run()`, in process at tiny sizes."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_positivity_region(capsys):
    _load("positivity_region").run([2], 50, 0)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,lambda,fraction_positive,weight_agreement"
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["2", str(lam)] for lam in (-0.8, -0.4, 0.0, 0.4, 0.8)
    ]
    for line in lines[1:]:
        fraction, agreement = map(float, line.split(",")[2:])
        assert 0.0 <= fraction <= 1.0
        assert agreement == 1.0


def test_continuum_convergence(capsys):
    _load("continuum_convergence").run([0.5], [40, 80], 1)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "lambda,state,r_n40,r_n80,slope"
    lam, state, *residuals, slope = lines[1].split(",")
    assert (lam, state) == ("0.5", "1")
    assert float(residuals[1]) < float(residuals[0])
    assert float(slope) == pytest.approx(2.0, abs=0.3)
    assert lines[2].startswith("# wall lambda=0.5: amplitudes ")
    assert lines[2].endswith("decreasing=True")
    assert len(lines) == 3


def test_continuum_convergence_unresolved_state(capsys):
    # at lambda = 0.3 the state-3 residual at size 40 reads exactly 1
    _load("continuum_convergence").run([0.3], [40, 80], 3)
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split(",") for line in lines[1:4]]
    assert [row[:2] for row in rows] == [["0.3", "1"], ["0.3", "2"], ["0.3", "3"]]
    assert float(rows[0][-1]) == pytest.approx(2.0, abs=0.3)
    assert float(rows[1][-1]) == pytest.approx(2.0, abs=0.3)
    assert rows[2][2] == "1.000e+00" and rows[2][-1] == "unresolved"
    assert lines[4].startswith("# wall lambda=0.3: amplitudes ")
    assert len(lines) == 5


def test_spectrum_figures(tmp_path, capsys):
    _load("spectrum_figures").run(tmp_path)
    assert len(capsys.readouterr().out.splitlines()) == 2
    for n in (4, 6):
        header = "lambda," + ",".join(f"re_e_{i}" for i in range(1, n + 1)) + ",max_imag,all_real"
        inside = (tmp_path / f"spectrum_n{n}_real_window.csv").read_text().splitlines()
        beyond = (tmp_path / f"spectrum_n{n}_beyond_boundary.csv").read_text().splitlines()
        assert inside[0] == beyond[0] == header
        assert len(inside) == 402 and all(row.endswith(",true") for row in inside[1:])
        assert len(beyond) == 42 and all(row.endswith(",false") for row in beyond[1:])
