import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_forge import analysis
from metric_forge.analysis import (
    FreeMetricParams,
    evaluate_basis_stack,
    free_lattice_metric,
    reality_scan,
    symmetric_similarity,
)
from metric_forge.closedform import basis_family, incidence_family, occupancy_positions
from metric_forge.continuum import LatticeGrid
from metric_forge.errors import DimensionError, DomainError
from metric_forge.exact import Matrix
from metric_forge.hamiltonian import (
    HamiltonianSpec,
    _chain_rows,
    build_hamiltonian,
    closed_form_spectrum,
)
from referees import eigs_general, hamiltonian_polynomial

exact_couplings = st.fractions(min_value=-2, max_value=2, max_denominator=7)

# signed zeros, the band's own values, the float range's ends and subnormals
SPECIAL_FLOATS = [0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 5e-324, -5e-324, 1e-310, -2.5e-320]


def _float_rows_match_numpy(n, lam):
    """Whether the Python-float rows equal the numpy chain of
    `build_hamiltonian` in `float.hex` of every cell, so that the sign of
    zero counts: the float chain has no layout of its own."""
    rows = _chain_rows(n, lam, 1.0, 0.0)
    reference = build_hamiltonian(HamiltonianSpec(n, lam)).tolist()
    return [list(map(float.hex, r)) for r in rows] == [list(map(float.hex, r)) for r in reference]


# Everything that takes a chain, basis or lattice size, each called at size n.
SIZED_CALLS = {
    "HamiltonianSpec": HamiltonianSpec,
    "hamiltonian_polynomial": hamiltonian_polynomial,
    "incidence_family": incidence_family,
    "basis_family": basis_family,
    "occupancy_positions": lambda n: occupancy_positions(n, 1),
    "LatticeGrid": LatticeGrid,
    "free_lattice_metric": lambda n: free_lattice_metric(n, FreeMetricParams()),
    "reality_scan": lambda n: reality_scan(n, [0.0]),
    "evaluate_basis_stack": lambda n: evaluate_basis_stack(n, 0.0),
    "symmetric_similarity": lambda n: symmetric_similarity(n, 0.5),
}


@pytest.mark.parametrize("name", SIZED_CALLS)
@pytest.mark.parametrize("n", [-2, 0, 1, 3])
def test_one_size_rule_and_message(name, n):
    with pytest.raises(DimensionError) as info:
        SIZED_CALLS[name](n)
    assert str(info.value) == "size must be an even integer >= 2"


class TestSpec:
    @pytest.mark.parametrize("n", [1, 3, 5, 0, -2])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(DimensionError):
            HamiltonianSpec(n, 0)

    def test_phi_inside_unit_interval(self):
        spec = HamiltonianSpec(4, 0.5)
        assert abs(math.cos(spec.phi) - 0.5) < 1e-12
        assert 0 < spec.phi < math.pi
        assert HamiltonianSpec(4, 1.5).phi is None

    @pytest.mark.parametrize(
        "lam", [10**400, -(10**400), Fraction(10**400, 3)], ids=["big", "-big", "big/3"]
    )
    def test_phi_of_a_coupling_beyond_the_float_range(self, lam):
        assert HamiltonianSpec(2, lam).phi is None

    def test_middle_index(self):
        assert HamiltonianSpec(6, 0).k == 3

    @pytest.mark.parametrize(
        "lam",
        [0, -3, True, 2**70, Fraction(1, 3), Fraction(2), 0.5, -0.0, math.inf]
        + [Decimal("0.5"), np.int64(1), np.float64(0.5)],
        ids=repr,
    )
    def test_exact_couplings_are_int_and_fraction(self, lam):
        assert HamiltonianSpec(2, lam).is_exact == isinstance(lam, (int, Fraction))


class TestBuild:
    def test_size2_exact(self):
        h = build_hamiltonian(HamiltonianSpec(2, Fraction(1, 2)))
        assert h.entries == (
            (Fraction(2), Fraction(-3, 2)),
            (Fraction(-1, 2), Fraction(2)),
        )

    def test_size4_free_is_symmetric_tridiagonal(self):
        h = build_hamiltonian(HamiltonianSpec(4, 0))
        assert h == h.T
        for i in range(4):
            assert h[i, i] == 2
            if i < 3:
                assert h[i, i + 1] == -1

    def test_size6_coupling_position(self):
        lam = Fraction(2, 5)
        h = build_hamiltonian(HamiltonianSpec(6, lam))
        assert h[2, 3] == -1 - lam  # 1-based (3, 4)
        assert h[3, 2] == -1 + lam  # 1-based (4, 3)
        assert h[1, 2] == -1 and h[4, 5] == -1

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 4, 6, 8, 12, 16]), exact_couplings)
    def test_transpose_flips_coupling(self, n, lam):
        h = build_hamiltonian(HamiltonianSpec(n, lam))
        flipped = build_hamiltonian(HamiltonianSpec(n, -lam))
        assert h.T == flipped

    @given(st.sampled_from([2, 4, 6, 8]), exact_couplings)
    def test_trace_is_twice_size(self, n, lam):
        h = build_hamiltonian(HamiltonianSpec(n, lam))
        assert sum(h[i, i] for i in range(n)) == 2 * n

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 4, 6, 8]), exact_couplings)
    def test_exact_rows_are_the_exact_matrix(self, n, lam):
        rows = _chain_rows(n, Fraction(lam), Fraction(1), 0)
        assert tuple(map(tuple, rows)) == build_hamiltonian(HamiltonianSpec(n, lam)).entries
        for i, row in enumerate(rows):
            for k, e in enumerate(row):
                assert type(e) is (Fraction if abs(i - k) <= 1 else int)

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("lam", SPECIAL_FLOATS)
    def test_float_rows_at_special_couplings(self, n, lam):
        assert _float_rows_match_numpy(n, lam)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([2, 4, 6, 8]), st.floats(allow_nan=False, allow_infinity=False))
    def test_float_rows_are_the_numpy_chain_bit_for_bit(self, n, lam):
        assert _float_rows_match_numpy(n, lam)

    def test_polynomial_form_evaluates_to_numeric(self):
        lam = Fraction(1, 3)
        hp = hamiltonian_polynomial(6)
        evaluated = Matrix.from_rows([[p(lam) for p in row] for row in hp.entries])
        assert evaluated == build_hamiltonian(HamiltonianSpec(6, lam))


def size4_radicals(lam):
    """The paper's size-4 spectrum, ascending:
    2 +/- sqrt(6 - 2 lam^2 +/- 2 sqrt(5 - 6 lam^2 + lam^4)) / 2, real
    exactly for |lam| < 1, where the inner radicand factors as
    (1 - lam^2)(5 - lam^2)."""
    inner = math.sqrt(5.0 - 6.0 * lam * lam + lam**4)
    return sorted(
        2.0 + outer * 0.5 * math.sqrt(6.0 - 2.0 * lam * lam + pm * 2.0 * inner)
        for outer in (-1.0, 1.0)
        for pm in (-1.0, 1.0)
    )


class TestClosedFormSpectrum:
    def test_size2_free(self):
        assert closed_form_spectrum(HamiltonianSpec(2, 0)) == [1.0, 3.0]

    def test_size2_example(self):
        values = closed_form_spectrum(HamiltonianSpec(2, 0.6))
        assert np.allclose(values, [1.2, 2.8], atol=1e-14)

    def test_size4_free(self):
        values = closed_form_spectrum(HamiltonianSpec(4, 0))
        golden = [
            2 - (math.sqrt(5) + 1) / 2,
            2 - (math.sqrt(5) - 1) / 2,
            2 + (math.sqrt(5) - 1) / 2,
            2 + (math.sqrt(5) + 1) / 2,
        ]
        assert np.allclose(values, golden, atol=1e-14)

    def test_size4_degenerates_toward_unit_coupling(self):
        values = closed_form_spectrum(HamiltonianSpec(4, 1 - 1e-12))
        assert np.allclose(values, [1.0, 1.0, 3.0, 3.0], atol=1e-5)

    def test_every_even_size(self):
        # the free chain: 2 - 2 cos(s pi / (n + 1))
        values = closed_form_spectrum(HamiltonianSpec(6, 0))
        golden = [2 - 2 * math.cos(s * math.pi / 7) for s in range(1, 7)]
        assert np.allclose(values, golden, atol=1e-14)

    def test_size4_radicals(self):
        for lam in np.linspace(-0.999, 0.999, 41):
            closed = closed_form_spectrum(HamiltonianSpec(4, float(lam)))
            assert np.allclose(closed, size4_radicals(float(lam)), atol=1e-13)

    @pytest.mark.parametrize("n", [2, 4])
    def test_coupling_beyond_the_float_range(self, n):
        with pytest.raises(DomainError):
            closed_form_spectrum(HamiltonianSpec(n, 10**400))

    def test_domain_error_outside_unit_interval(self):
        with pytest.raises(DomainError):
            closed_form_spectrum(HamiltonianSpec(4, 1.0))

    @pytest.mark.parametrize("n", [6, 10, 40])
    def test_agrees_with_general_solver_at_larger_sizes(self, n):
        for lam in (-0.999, -0.7, -0.2, 0.0, 0.35, 0.9, 0.999):
            closed = closed_form_spectrum(HamiltonianSpec(n, lam))
            numeric = eigs_general(build_hamiltonian(HamiltonianSpec(n, lam)))
            assert closed == sorted(closed)
            assert np.max(np.abs(numeric.imag)) < 1e-10
            assert np.allclose(closed, numeric.real, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 4])
    def test_agrees_with_numeric_solver(self, n):
        for lam in np.linspace(-0.95, 0.95, 39):
            closed = closed_form_spectrum(HamiltonianSpec(n, float(lam)))
            numeric = eigs_general(build_hamiltonian(HamiltonianSpec(n, float(lam))))
            assert np.max(np.abs(numeric.imag)) < 1e-10
            assert np.allclose(closed, np.sort(numeric.real), atol=1e-10)


# Couplings inside, on the edges of and outside the window [-1, 1].
SCAN_GRID = [-3.0, -1.0, -0.999, -0.4, 0.0, 0.25, 0.999, 1.0, 1.0001, 1.2]


class TestRealityScan:
    def test_real_inside_unit_interval(self):
        scan = reality_scan(4, [-0.9, 0.0, 0.9])
        assert scan.all_real.tolist() == [True, True, True]
        assert scan.lams.tolist() == [-0.9, 0.0, 0.9]

    def test_complex_beyond_unit_interval(self):
        scan = reality_scan(4, [1.2])
        assert scan.all_real.tolist() == [False]
        assert scan.max_imag[0] > 1e-3

    def test_free_size6_matches_chain_eigenvalues(self):
        scan = reality_scan(6, [0.0])
        golden = sorted(2 - 2 * math.cos(k * math.pi / 7) for k in range(1, 7))
        assert np.allclose(scan.eigenvalues[0].real, golden, atol=1e-12)

    def test_report_ordering_matches_input(self):
        grid = [0.5, -0.5, 0.0]
        assert reality_scan(4, grid).lams.tolist() == grid

    def test_window_points_match_general_solver(self):
        grid = list(np.linspace(-0.999, 0.999, 41))
        for n in (2, 6, 40):
            scan = reality_scan(n, grid)
            assert np.all(scan.max_imag == 0.0) and np.all(scan.all_real)
            for lam, values in zip(scan.lams.tolist(), scan.eigenvalues):
                general = eigs_general(build_hamiltonian(HamiltonianSpec(n, lam)))
                assert np.allclose(values.real, general.real, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6, 40])
    def test_window_edges_are_the_doubled_free_chain(self, n):
        # at lam = +/-1 the chain is block triangular with two free K-chains
        # on the diagonal, so every eigenvalue is real and double
        half = n // 2
        free = [2 - 2 * math.cos(j * math.pi / (half + 1)) for j in range(1, half + 1)]
        scan = reality_scan(n, [-1.0, 1.0])
        for values in scan.eigenvalues:
            assert np.allclose(values.real, sorted(free + free), rtol=0, atol=1e-14)
        assert scan.max_imag.tolist() == [0.0, 0.0]
        assert scan.all_real.tolist() == [True, True]

    @pytest.mark.parametrize("n", [2, 6, 40])
    @pytest.mark.parametrize("block_points", [1, 3, None])
    def test_batched_scan_equals_per_point_solves(self, monkeypatch, n, block_points):
        single = [reality_scan(n, [lam]) for lam in SCAN_GRID]
        if block_points is not None:
            monkeypatch.setattr(analysis, "_BLOCK_FLOATS", block_points * n * n)
            monkeypatch.setattr(analysis, "_MIN_BLOCK_ROWS", 1)
        scan = reality_scan(n, SCAN_GRID)
        assert scan.lams.tolist() == SCAN_GRID
        for point, row, max_imag, real in zip(single, *scan[1:]):
            assert row.tolist() == point.eigenvalues[0].tolist()
            assert max_imag == point.max_imag[0] and real == point.all_real[0]

    @pytest.mark.parametrize("n", [2, 6, 40])
    def test_scan_matches_the_dense_solvers(self, n):
        # the dense symmetric solve inside (-1, 1) and the general one
        # outside; the general solver splits the double eigenvalues of
        # lam = +/-1 by about sqrt(eps), so those points are left out
        grid = [lam for lam in SCAN_GRID if abs(abs(lam) - 1.0) > 1e-6]
        scan = reality_scan(n, grid)
        for lam, row, max_imag in zip(grid, scan.eigenvalues, scan.max_imag.tolist()):
            if -1.0 < lam < 1.0:
                diag, off, _ = symmetric_similarity(n, lam)
                s = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
                dense = np.linalg.eigvalsh(s).astype(complex)
            else:
                dense = eigs_general(build_hamiltonian(HamiltonianSpec(n, lam)))
            assert np.max(np.abs(row.real - dense.real)) <= 1e-12
            assert abs(max_imag - np.max(np.abs(dense.imag))) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 20).map(lambda k: 2 * k),
        lam=st.one_of(
            st.builds(
                lambda edge, k: edge + k * 2.0**-52,
                st.sampled_from([-1.0, 1.0]),
                st.integers(-8, 8),
            ),
            st.floats(-3.0, 3.0),
        ),
    )
    def test_verdict_is_the_window(self, n, lam):
        # the spectrum is real exactly when |lam| <= 1; the float verdict
        # must say so wherever max_imag is more than 10x away from tol
        tol = 1e-9
        scan = reality_scan(n, [lam], tol=tol)
        if tol / 10 <= scan.max_imag[0] <= 10 * tol:
            return
        assert bool(scan.all_real[0]) == (abs(lam) <= 1.0)


class TestSymmetricSimilarity:
    @pytest.mark.parametrize("n", [2, 4, 8, 20])
    @pytest.mark.parametrize("lam", [-0.999, -0.4, 0.0, 0.3, 0.9999])
    def test_similarity_reproduces_chain(self, n, lam):
        spec = HamiltonianSpec(n, lam)
        diag, off, scale = symmetric_similarity(n, lam)
        s = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        rebuilt = scale[:, None] * s / scale[None, :]
        assert np.allclose(rebuilt, build_hamiltonian(spec), rtol=0, atol=1e-14)

    def test_middle_bond_and_scaling(self):
        diag, off, scale = symmetric_similarity(6, 0.6)
        assert list(diag) == [2.0] * 6
        assert list(off) == [-1.0, -1.0, -0.8, -1.0, -1.0]
        assert list(scale[:3]) == [1.0] * 3
        assert np.allclose(scale[3:], 0.5, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("lam", [1.0, -1.0, 1.5, -3.0, float("nan")])
    def test_outside_window_rejected(self, lam):
        with pytest.raises(DomainError):
            symmetric_similarity(4, lam)
