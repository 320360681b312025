import math
from fractions import Fraction

import numpy as np
import pytest

from metric_forge import continuum
from metric_forge.analysis import FreeMetricParams, free_lattice_metric, symmetric_similarity
from metric_forge.continuum import (
    MAX_CONTINUUM_SIZE,
    MAX_SWEEP_SIZES,
    LatticeGrid,
    _matching_sides,
    _real_eigenpair,
    check_sweep,
    fit_loglog_slope,
    matching_data,
    matching_residual,
    opaque_wall_check,
    sweep,
)
from metric_forge.errors import DimensionError, DomainError
from metric_forge.hamiltonian import HamiltonianSpec, _chain_bands
from metric_forge.oracle import verify_membership


class TestLatticeGrid:
    def test_endpoints_exact(self):
        grid = LatticeGrid(40)
        assert grid.points[0] == -1.0
        assert grid.points[-1] == 1.0
        assert grid.h == 2.0 / 41.0

    def test_point_spacing(self):
        grid = LatticeGrid(10)
        diffs = np.diff(grid.points)
        assert np.allclose(diffs, grid.h, atol=1e-15)

    def test_rejects_odd(self):
        with pytest.raises(DimensionError):
            LatticeGrid(9)


EPS = np.finfo(float).eps


def _exact_count_below(n, lam, x):
    """How many eigenvalues of S lie below x, in exact arithmetic: the
    negative pivots of the LDL^T factorization of S - x, whose squared
    bonds are the products of the two bonds of the chain."""
    diag, upper, lower = _chain_bands(n, Fraction(lam), Fraction(1))
    bonds2 = [Fraction(0)] + [u * v for u, v in zip(upper, lower)]
    count, pivot = 0, Fraction(1)
    for a, b2 in zip(diag, bonds2):
        pivot = a - x - b2 / pivot
        count += pivot < 0
    return count


class TestSelectedEigenpair:
    """The one eigenpair that the secular root gives, against the dense
    symmetric eigensolver of S and an exact Sturm count."""

    @pytest.mark.parametrize("lam", [0.0, 0.3, -0.3, 0.9, -0.9, 0.999, -0.999])
    @pytest.mark.parametrize("n", [8, 10, 40, 200])
    def test_matches_dense_solve(self, n, lam):
        diag, off, scale = symmetric_similarity(n, lam)
        values, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        norm = np.max(np.abs(values))
        bound = 4 * n * EPS * norm
        for state in sorted({1, 2, n // 2, n - 1, n}):
            f, psi = _real_eigenpair(n, lam, state)
            assert abs(f - values[state - 1]) <= bound
            # the eigenvector of S, to unit length, agrees up to sign within
            # the same bound over the gap to the nearest other eigenvalue
            u = psi / scale
            u /= np.linalg.norm(u)
            reference = vectors[:, state - 1]
            gap = np.min(np.abs(np.delete(values, state - 1) - values[state - 1]))
            error = min(np.linalg.norm(u - reference), np.linalg.norm(u + reference))
            assert error <= bound / gap

    @pytest.mark.parametrize("odd_state", [1, 3])
    @pytest.mark.parametrize("lam", [0.3, -0.9])
    @pytest.mark.parametrize("n", [8, 40, 200])
    def test_reflection_parity(self, n, lam, odd_state):
        # S is persymmetric, so an odd state is reflection symmetric and the
        # even state after it antisymmetric: the sign of the secular equation
        _, _, scale = symmetric_similarity(n, lam)
        for state, parity in ((odd_state, 1.0), (odd_state + 1, -1.0)):
            u = _real_eigenpair(n, lam, state)[1] / scale
            assert np.max(np.abs(u - parity * u[::-1])) <= 1e-9 * np.max(np.abs(u))

    @pytest.mark.parametrize("lam", [0.3, -0.999])
    @pytest.mark.parametrize("n", [40, 200])
    def test_exact_sturm_count_brackets_the_state(self, n, lam):
        for state in (1, 2, n):
            f = Fraction(_real_eigenpair(n, lam, state)[0])
            assert _exact_count_below(n, lam, f * (1 - Fraction(1, 10**9))) == state - 1
            assert _exact_count_below(n, lam, f * (1 + Fraction(1, 10**9))) == state


class TestMatchingData:
    def test_dimensionless_energy_relation(self):
        data = matching_data(HamiltonianSpec(40, 0.5), 1)
        h = LatticeGrid(40).h
        assert abs(data.f - h * h * data.energy) < 1e-12 * abs(data.f)

    def test_stencils_reproduce_central_components(self):
        # the two-term inversion is exact: psi_K = psi_L(0) - (h/2) psi_L'(0), etc.
        data = matching_data(HamiltonianSpec(60, 0.3), 2)
        h = LatticeGrid(60).h
        half = 30
        assert abs(data.psi[half - 1] - (data.psi_l0 - 0.5 * h * data.dpsi_l0)) < 1e-13
        assert abs(data.psi[half - 2] - (data.psi_l0 - 1.5 * h * data.dpsi_l0)) < 1e-13
        assert abs(data.psi[half] - (data.psi_r0 + 0.5 * h * data.dpsi_r0)) < 1e-13
        assert abs(data.psi[half + 1] - (data.psi_r0 + 1.5 * h * data.dpsi_r0)) < 1e-13

    def test_too_small_lattice_rejected(self):
        with pytest.raises(DimensionError):
            matching_data(HamiltonianSpec(6, 0.5), 1)

    def test_coupling_domain(self):
        with pytest.raises(DomainError):
            matching_data(HamiltonianSpec(40, 1.5), 1)

    def test_coupling_beyond_the_float_range(self):
        with pytest.raises(DomainError):
            matching_residual(HamiltonianSpec(40, 10**400), 1)

    def test_state_range(self):
        with pytest.raises(DomainError):
            matching_data(HamiltonianSpec(40, 0.5), 0)


class TestMatchingResiduals:
    def test_wave_data_residual_order_two(self):
        sizes = [40, 80, 160, 320]
        residuals = [
            matching_residual(HamiltonianSpec(n, 0.5), 1) for n in sizes
        ]
        assert all(r > 0 for r in residuals)
        slope = fit_loglog_slope(sizes, residuals)
        assert 1.7 <= slope <= 2.3

    @pytest.mark.parametrize(
        "n, lam, state",
        [
            pytest.param(1280, 0.999, 1, id="1280-0.999"),
            pytest.param(1280, -0.999, 1, id="1280--0.999"),
            pytest.param(200, 0.9999, 1, id="200-0.9999"),
            *(
                pytest.param(1280, lam, state, id=f"1280-{lam}-state{state}")
                for lam in (0.5, -0.5)
                for state in (1, 2)
            ),
            # the residual covers the two coupled rows across the middle bond
            *(
                pytest.param(80, lam, state, id=f"80-{lam}-state{state}")
                for lam in (0.3, 0.7)
                for state in (1, 2)
            ),
        ],
    )
    def test_eigenpair_near_exceptional_point(self, n, lam, state):
        data = matching_data(HamiltonianSpec(n, lam), state)
        psi = np.array(data.psi)
        h_psi = 2.0 * psi
        h_psi[1:] -= psi[:-1]
        h_psi[:-1] -= psi[1:]
        half = n // 2
        # the middle bond carries -1 -/+ lam instead of -1
        h_psi[half - 1] -= lam * psi[half]
        h_psi[half] += lam * psi[half - 1]
        assert np.max(np.abs(psi)) == 1.0
        assert np.max(np.abs(h_psi - data.f * psi)) <= 1e-12

    @pytest.mark.parametrize("state", [1, 2])
    def test_sweep_is_matching_and_wall(self, state):
        sizes = [20, 40, 80]
        residuals, wall = sweep(-0.4, sizes, state)
        assert residuals == [matching_residual(HamiltonianSpec(n, -0.4), state) for n in sizes]
        assert wall == opaque_wall_check(-0.4, sizes)

    def test_free_coupling_allowed_for_matching(self):
        value = matching_residual(HamiltonianSpec(40, 0.0), 1)
        assert value >= 0.0


class TestCoupledRowIdentity:
    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_rows_rearrange_into_matching_relations_exactly(self, n):
        # rows K and K+1 of (H - F) psi = 0 are algebraically identical to
        # the two relations (1+lam) psi_{K+1} - (2-F) psi_K + psi_{K-1} = 0
        # and psi_{K+2} - (2-F) psi_{K+1} + (1-lam) psi_K = 0; check by
        # exact substitution with rational psi, coupling and energy
        from metric_forge.hamiltonian import build_hamiltonian

        rng = np.random.default_rng(n)
        lam = Fraction(1, 3)
        f = Fraction(5, 7)
        psi = tuple(Fraction(int(v), 9) for v in rng.integers(-20, 20, n))
        h = build_hamiltonian(HamiltonianSpec(n, lam))
        half = n // 2
        hpsi = h @ psi
        row_k = hpsi[half - 1] - f * psi[half - 1]
        row_k1 = hpsi[half] - f * psi[half]
        rel_a = (1 + lam) * psi[half] - (2 - f) * psi[half - 1] + psi[half - 2]
        rel_b = psi[half + 1] - (2 - f) * psi[half] + (1 - lam) * psi[half - 1]
        assert row_k == -rel_a
        assert row_k1 == -rel_b

    @pytest.mark.parametrize(
        "lam, f, h",
        [
            (Fraction(1, 3), Fraction(5, 7), Fraction(2, 9)),
            (Fraction(-4, 5), Fraction(1, 11), Fraction(2, 81)),
        ],
        ids=["positive-coupling", "negative-coupling"],
    )
    def test_stencil_data_satisfies_matching_exactly(self, lam, f, h):
        # a rational psi solving both coupled rows, fed through the
        # two-term stencils, satisfies the matching condition exactly
        p_km1, p_k = Fraction(3, 4), Fraction(-2, 5)
        p_k1 = ((2 - f) * p_k - p_km1) / (1 + lam)
        p_k2 = (2 - f) * p_k1 - (1 - lam) * p_k
        lhs, rhs = _matching_sides(
            lam,
            f,
            h,
            (3 * p_k1 - p_k2) / 2,
            (3 * p_k - p_km1) / 2,
            (p_k2 - p_k1) / h,
            (p_k - p_km1) / h,
        )
        assert lhs == rhs


class TestSlopeFit:
    def test_exact_quadratic_data(self):
        sizes = [40, 80, 160, 320]
        residuals = [(2.0 / (n + 1)) ** 2 for n in sizes]
        assert abs(fit_loglog_slope(sizes, residuals) - 2.0) < 1e-12

    def test_length_validation(self):
        with pytest.raises(DimensionError):
            fit_loglog_slope([40], [1.0])
        with pytest.raises(DimensionError):
            fit_loglog_slope([40, 40], [1.0, 0.5])

    @pytest.mark.parametrize("bad", [0.0, -1e-3, math.inf, math.nan])
    def test_residual_without_a_logarithm(self, bad):
        with pytest.raises(DomainError):
            fit_loglog_slope([40, 80], [1e-3, bad])

    @pytest.mark.parametrize("residuals, size", [([1.0, 0.5], 40), ([0.5, 1.0], 80)])
    def test_unresolved_residual_names_its_size(self, residuals, size):
        # a relative gap of exactly 1: the two sides have opposite signs
        with pytest.raises(DomainError, match=f"size {size}:"):
            fit_loglog_slope([40, 80], residuals)

    def test_matches_numpy_polyfit(self):
        sizes = [20, 40, 80, 160, 320]
        residuals = [3e-2, 8e-3, 2.2e-3, 5e-4, 1.3e-4]
        reference = np.polyfit(np.log([LatticeGrid(n).h for n in sizes]), np.log(residuals), 1)[0]
        assert abs(fit_loglog_slope(sizes, residuals) - reference) <= 1e-12


class TestOpaqueWall:
    def test_central_amplitude_decreases(self):
        report = opaque_wall_check(0.5, [20, 40, 80, 160])
        assert report.decreasing
        assert report.amplitudes[-1] < report.amplitudes[0]
        assert all(
            later < earlier
            for earlier, later in zip(report.amplitudes, report.amplitudes[1:])
        )

    def test_strong_coupling_two_sizes(self):
        report = opaque_wall_check(0.9, [20, 40])
        assert report.amplitudes[1] < report.amplitudes[0]

    def test_free_coupling_rejected(self):
        with pytest.raises(DomainError):
            opaque_wall_check(0.0, [20, 40])

    def test_coupling_domain(self):
        with pytest.raises(DomainError):
            opaque_wall_check(1.0, [20, 40])

    def test_needs_increasing_sizes(self):
        with pytest.raises(DomainError):
            opaque_wall_check(0.5, [40, 20])

    @pytest.mark.parametrize(
        "sizes",
        [
            [8, 9],
            [8, 10, 11],
            [6, 8],
            [8, MAX_CONTINUUM_SIZE + 2],
            list(range(8, 10 + 2 * MAX_SWEEP_SIZES, 2)),
        ],
    )
    def test_sizes_checked_before_any_solve(self, monkeypatch, sizes):
        def solve(*args):
            raise AssertionError("eigensolve called")

        monkeypatch.setattr(continuum, "_real_eigenpair", solve)
        with pytest.raises(DimensionError):
            opaque_wall_check(0.5, sizes)


    def test_sweep_at_the_size_count_limit(self):
        sizes = list(range(8, 8 + 2 * MAX_SWEEP_SIZES, 2))
        assert check_sweep(0.5, sizes) == tuple(sizes)


class TestFreeLatticeMetric:
    def test_trivial_parameters_give_identity(self):
        theta, report = free_lattice_metric(4, FreeMetricParams(0.0, 0.0))
        assert np.allclose(theta, np.eye(4))
        assert report.positive

    def test_hyperbolic_eigenvalues(self):
        _, report = free_lattice_metric(4, FreeMetricParams(0.0, 1.0))
        golden = sorted([math.exp(-1), math.exp(-1), math.e, math.e])
        assert np.allclose(report.eigenvalues, golden, atol=1e-12)

    def test_always_intertwines_exactly_at_zero_coupling(self):
        for f, k in ((0.0, 0.0), (1.5, -0.7), (-2.0, 3.0)):
            theta, report = free_lattice_metric(6, FreeMetricParams(f, k))
            ok, residual = verify_membership(theta, HamiltonianSpec(6, 0.0))
            assert ok and residual == 0.0
            assert report.positive

    def test_random_parameters_positive(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            f, k = rng.normal(scale=2.0, size=2)
            _, report = free_lattice_metric(8, FreeMetricParams(float(f), float(k)))
            assert report.positive

    def test_parity_matrix_matches_last_basis_element(self):
        from metric_forge.closedform import basis_family

        for n in (2, 4, 8, 16):
            theta, _ = free_lattice_metric(n, FreeMetricParams(0.0, 10.0))
            last = basis_family(n)[n - 1].values(0)
            # large mix parameter makes the parity part dominate; compare patterns
            parity = {(i, k) for (i, k), v in last.items() if v and i != k}
            offdiag = {(i + 1, k + 1) for i, k in zip(*np.nonzero(theta)) if i != k}
            assert offdiag == parity
