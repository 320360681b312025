"""Acceptance battery: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from metric_forge.analysis import (
    FreeMetricParams,
    biorthogonal_system,
    closed_form_margin,
    evaluate_basis_stack,
    free_lattice_metric,
    reality_scan,
    sample_positivity_region,
    theta_from_weights,
    weights_from_theta,
)
from metric_forge.closedform import (
    assemble_theta,
    basis_family,
    incidence_family,
    intertwining_defect,
    occupancy_positions,
    reflection_symmetry_holds,
)
from metric_forge.continuum import (
    fit_loglog_slope,
    matching_residual,
    opaque_wall_check,
)
from metric_forge.errors import DomainError
from metric_forge.exact import IntPolynomial, rank
from metric_forge.hamiltonian import (
    HamiltonianSpec,
    build_hamiltonian,
    closed_form_spectrum,
)
from metric_forge.oracle import solve_metric_space, verify_membership
from referees import eigs_general
from sparse_rows import dense, upper_triangle

ORACLE_SIZES = (2, 4, 6, 8, 10)
ORACLE_COUPLINGS = (
    Fraction(0),
    Fraction(1, 3),
    Fraction(-1, 3),
    Fraction(2, 3),
    Fraction(-2, 3),
)


def size4_radicals(lam: float) -> list[float]:
    """The paper's size-4 spectrum, ascending:
    2 +/- sqrt(6 - 2 lam^2 +/- 2 sqrt(5 - 6 lam^2 + lam^4)) / 2."""
    inner = math.sqrt(5.0 - 6.0 * lam * lam + lam**4)
    outer = [math.sqrt(6.0 - 2.0 * lam * lam + pm * 2.0 * inner) / 2.0 for pm in (1.0, -1.0)]
    return [2.0 - outer[0], 2.0 - outer[1], 2.0 + outer[1], 2.0 + outer[0]]


def _criterion(number: int, description: str, passed: bool) -> None:
    print(f"criterion {number:2d} [{'PASS' if passed else 'FAIL'}]: {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_01_oracle_dimension():
    ok = all(
        solve_metric_space(HamiltonianSpec(n, lam)).dimension == n
        for n in ORACLE_SIZES
        for lam in ORACLE_COUPLINGS
    )
    _criterion(1, "oracle kernel dimension equals n for n in 2..10, five couplings", ok)


def test_criterion_02_closed_form_intertwining_identity():
    ok = True
    for n in range(2, 13, 2):
        for element in basis_family(n):
            if intertwining_defect(element):
                ok = False
    _criterion(2, "basis elements satisfy the constraint as polynomial identities, n <= 12", ok)


def test_criterion_03_span_equivalence():
    ok = True
    for n in (2, 4, 6, 8, 10):
        for lam in ORACLE_COUPLINGS:
            space = solve_metric_space(HamiltonianSpec(n, lam))
            family = [upper_triangle(el.values(lam), n) for el in basis_family(n)]
            stacked = list(space.basis) + family
            if rank(family) != n or rank(stacked) != n:
                ok = False
    _criterion(
        3, "closed-form family independent and spanning the oracle's space, n <= 10", ok
    )


def test_criterion_04_zero_coupling_reduction():
    ok = all(
        {p: v for p, v in element.values(0).items() if v}
        == dict.fromkeys(occupancy_positions(n, element.j), 1)
        for n in range(2, 17, 2)
        for element in basis_family(n)
    )
    _criterion(4, "basis elements at zero coupling equal the 0/1 occupancy matrices, n <= 16", ok)


# printed reference data: incidence patterns for sizes 4 and 6, the central
# sequence for sizes 2..8, the four explicit size-4 polynomial matrices, and
# the per-coefficient entries of the assembled size-4 metric
PRINTED_S4 = {
    1: {(1, 1): 1, (2, 2): 1, (3, 3): 1, (4, 4): 1},
    2: {(1, 2): 1, (2, 1): 1, (2, 3): 2, (3, 2): 2, (3, 4): 1, (4, 3): 1},
    3: {(1, 3): 0, (3, 1): 0, (2, 2): 1, (3, 3): 1, (2, 4): 0, (4, 2): 0},
    4: {(1, 4): 0, (2, 3): 0, (3, 2): 0, (4, 1): 0},
}
PRINTED_S6 = {
    1: {(i, i): 1 for i in range(1, 7)},
    2: {
        (1, 2): 1, (2, 1): 1, (2, 3): 1, (3, 2): 1, (3, 4): 2,
        (4, 3): 2, (4, 5): 1, (5, 4): 1, (5, 6): 1, (6, 5): 1,
    },
    3: {
        (1, 3): 1, (3, 1): 1, (2, 2): 1, (2, 4): 2, (4, 2): 2, (3, 3): 3,
        (3, 5): 2, (5, 3): 2, (4, 4): 3, (4, 6): 1, (6, 4): 1, (5, 5): 1,
    },
    4: {
        (1, 4): 0, (4, 1): 0, (2, 3): 1, (3, 2): 1, (2, 5): 0, (5, 2): 0,
        (3, 4): 2, (4, 3): 2, (3, 6): 0, (6, 3): 0, (4, 5): 1, (5, 4): 1,
    },
    5: {
        (1, 5): 0, (5, 1): 0, (2, 4): 0, (4, 2): 0, (2, 6): 0, (6, 2): 0,
        (3, 3): 1, (3, 5): 0, (5, 3): 0, (4, 4): 1,
    },
    6: {(1, 6): 0, (2, 5): 0, (3, 4): 0, (4, 3): 0, (5, 2): 0, (6, 1): 0},
}
PRINTED_CENTRAL = {
    2: {(1, 1): 1, (2, 2): 1},
    4: PRINTED_S4[2],
    6: PRINTED_S6[3],
    8: {
        (1, 4): 1, (2, 3): 1, (3, 2): 1, (4, 1): 1,
        (2, 5): 2, (5, 2): 2, (3, 4): 3, (4, 3): 3, (3, 6): 2, (6, 3): 2,
        (4, 5): 4, (5, 4): 4, (4, 7): 2, (7, 4): 2, (5, 6): 3, (6, 5): 3,
        (5, 8): 1, (8, 5): 1, (6, 7): 1, (7, 6): 1,
    },
}

_MINUS, _PLUS = (1, -1), (1, 1)
_EVEN2, _ONE = (1, 0, -1), (1,)
PRINTED_M4 = {
    1: {(1, 1): _MINUS, (2, 2): _MINUS, (3, 3): _PLUS, (4, 4): _PLUS},
    2: {
        (1, 2): _MINUS, (2, 1): _MINUS, (2, 3): _EVEN2,
        (3, 2): _EVEN2, (3, 4): _PLUS, (4, 3): _PLUS,
    },
    3: {
        (1, 3): _ONE, (3, 1): _ONE, (2, 2): _MINUS, (3, 3): _PLUS,
        (2, 4): _ONE, (4, 2): _ONE,
    },
    4: {(1, 4): _ONE, (2, 3): _ONE, (3, 2): _ONE, (4, 1): _ONE},
}

# coefficient of alpha_j at every entry of the assembled size-4 metric
PRINTED_THETA4 = {
    (1, 1): {1: _MINUS}, (1, 2): {2: _MINUS}, (1, 3): {3: _ONE}, (1, 4): {4: _ONE},
    (2, 1): {2: _MINUS}, (2, 2): {1: _MINUS, 3: _MINUS},
    (2, 3): {4: _ONE, 2: _EVEN2}, (2, 4): {3: _ONE},
    (3, 1): {3: _ONE}, (3, 2): {4: _ONE, 2: _EVEN2},
    (3, 3): {1: _PLUS, 3: _PLUS}, (3, 4): {2: _PLUS},
    (4, 1): {4: _ONE}, (4, 2): {3: _ONE}, (4, 3): {2: _PLUS}, (4, 4): {1: _PLUS},
}


def test_criterion_05_printed_matrix_reproduction():
    ok = True
    for j, degrees in PRINTED_S4.items():
        ok &= incidence_family(4)[j - 1].degrees == degrees
    for j, degrees in PRINTED_S6.items():
        ok &= incidence_family(6)[j - 1].degrees == degrees
    for n, degrees in PRINTED_CENTRAL.items():
        ok &= incidence_family(n)[n // 2 - 1].degrees == degrees
    family4 = basis_family(4)
    matrices = [dense(element.entries, 4, IntPolynomial()) for element in family4]
    for j, entries in PRINTED_M4.items():
        matrix = matrices[j - 1]
        for i in range(1, 5):
            for k in range(1, 5):
                expected = IntPolynomial(entries.get((i, k), ()))
                ok &= matrix[i - 1, k - 1] == expected
    for (i, k), terms in PRINTED_THETA4.items():
        for j in range(1, 5):
            expected = IntPolynomial(terms.get(j, ()))
            ok &= matrices[j - 1][i - 1, k - 1] == expected
    _criterion(5, "printed incidence matrices, central sequence and size-4 metric reproduce", ok)


def test_criterion_06_spectra():
    grid = np.linspace(-0.99, 0.99, 201)
    ok = True
    for n in (2, 4, 6, 8):
        for lam in grid:
            closed = closed_form_spectrum(HamiltonianSpec(n, float(lam)))
            numeric = eigs_general(build_hamiltonian(HamiltonianSpec(n, float(lam))))
            if np.max(np.abs(np.sort(numeric.real) - closed)) > 1e-10:
                ok = False
            if n == 4 and np.max(np.abs(np.array(size4_radicals(float(lam))) - closed)) > 1e-13:
                ok = False
    for n in (2, 4, 6, 8):
        ok &= bool(reality_scan(n, grid).all_real.all())
    complex_scan = reality_scan(4, [1.2])
    ok &= complex_scan.all_real.tolist() == [False] and complex_scan.max_imag[0] > 1e-3
    _criterion(
        6,
        "closed-form spectra match numerics to 1e-10 and the paper's size-4 radicals; "
        "real on (-1,1); complex at 1.2",
        ok,
    )


def test_criterion_07_positivity_verdicts():
    margin = 1e-8
    ok = True

    # size 2: random coefficients and couplings, all three verdicts
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(10_000):
        lam = float(rng.uniform(-0.95, 0.95))
        alpha = rng.uniform(-1.0, 1.0, 2)
        theta = np.array(
            [
                [alpha[0] * (1 - lam), alpha[1]],
                [alpha[1], alpha[0] * (1 + lam)],
            ]
        )
        eigenvalues = np.linalg.eigvalsh(theta)
        cf = closed_form_margin(2, lam, alpha)
        system = biorthogonal_system(HamiltonianSpec(2, lam))
        weights = np.einsum("in,ij,jn->n", system.right, theta, system.right)
        if abs(eigenvalues[0]) <= margin or abs(cf) <= margin or np.min(np.abs(weights)) <= margin:
            continue
        checked += 1
        eig_verdict = eigenvalues[0] > 0
        ok &= (cf > 0) == eig_verdict
        ok &= bool(np.min(weights) > 0) == eig_verdict
    ok &= checked > 9_500

    # size 4 at zero coupling: sampler carries all three verdicts
    result = sample_positivity_region(4, 0.0, seed=7, count=10_000)
    far = ~result.near_boundary
    ok &= np.array_equal(result.closed_form_positive[far], result.positive[far])
    ok &= np.array_equal(result.weights_positive[far], result.positive[far])
    _criterion(7, "closed-form, eigenvalue and spectral-weight verdicts agree on 10^4 samples", ok)


def test_criterion_08_spectral_roundtrip():
    ok = True
    rng = np.random.default_rng(99)
    for n in (2, 4, 6, 8):
        for _ in range(25):
            lam = float(rng.uniform(-0.8, 0.8))
            alpha = rng.uniform(-1.0, 1.0, n)
            theta = np.tensordot(alpha, evaluate_basis_stack(n, lam), axes=1)
            system = biorthogonal_system(HamiltonianSpec(n, lam))
            weights = weights_from_theta(system, theta)
            rebuilt = theta_from_weights(system, weights)
            ok &= float(np.max(np.abs(theta - rebuilt))) <= 1e-9

    # size 2: the spectral sum reproduces the displayed matrix up to scale
    for phi in (0.4, 1.1, 1.9, 2.6):
        c, s = math.cos(phi), math.sin(phi)
        system = biorthogonal_system(HamiltonianSpec(2, c))
        t_minus, t_plus = 0.37, 1.21
        theta = theta_from_weights(system, [t_minus, t_plus])
        displayed = np.array(
            [
                [(1 - c) ** 2 * (t_plus + t_minus), (1 - c) * s * (-t_plus + t_minus)],
                [(1 - c) * s * (-t_plus + t_minus), s * s * (t_plus + t_minus)],
            ]
        )
        scale = theta[0, 0] / displayed[0, 0]
        ok &= float(np.max(np.abs(theta - scale * displayed))) <= 1e-12
    _criterion(8, "weights roundtrip to 1e-9 for n <= 8; size-2 spectral matrix reproduces", ok)


def test_criterion_09_reflection_symmetry():
    ok = all(
        reflection_symmetry_holds(element)
        for n in range(2, 13, 2)
        for element in basis_family(n)
    )
    _criterion(9, "antidiagonal reflection with coupling flip holds exactly, n <= 12", ok)


def test_criterion_10_continuum_limit():
    ok = True
    sizes = (40, 80, 160, 320)
    for lam in (0.3, 0.5, 0.7):
        for state in (1, 2, 3):
            residuals = [
                matching_residual(HamiltonianSpec(n, lam), state) for n in sizes
            ]
            fitted = sizes
            if (lam, state) == (0.3, 3):
                # the size-40 residual reads exactly 1: the state is not
                # resolved on that lattice, so the fit refuses the point
                with pytest.raises(DomainError, match="size 40:"):
                    fit_loglog_slope(sizes, residuals)
                fitted, residuals = sizes[1:], residuals[1:]
            slope = fit_loglog_slope(fitted, residuals)
            ok &= 1.7 <= slope <= 2.3

    wall = opaque_wall_check(0.5, [20, 40, 80, 160])
    ok &= wall.decreasing

    rng = np.random.default_rng(5)
    for _ in range(1_000):
        f, k = rng.normal(scale=2.0, size=2)
        theta, report = free_lattice_metric(8, FreeMetricParams(float(f), float(k)))
        ok &= report.positive
        member, residual = verify_membership(theta, HamiltonianSpec(8, 0.0))
        ok &= member and residual == 0.0
    _criterion(10, "matching residual slope in [1.7, 2.3]; wall amplitude decreases; free metric positive", ok)
