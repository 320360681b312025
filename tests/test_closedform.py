import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_forge import closedform
from metric_forge.closedform import (
    MetricBasisElement,
    _rule_degrees,
    assemble_theta,
    basis_element,
    basis_family,
    entry_polynomial,
    incidence_family,
    intertwining_defect,
    occupancy_positions,
    reflection_symmetry_holds,
)
from metric_forge.analysis import evaluate_basis_stack
from metric_forge.errors import ConstructionError, DimensionError, DomainError
from metric_forge.exact import IntPolynomial, Matrix, rank
from metric_forge.hamiltonian import HamiltonianSpec
from metric_forge.oracle import solve_metric_space
from referees import hamiltonian_polynomial
from sparse_rows import dense, upper_triangle

# incidence patterns exactly as printed for sizes 4 and 6
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

# the central patterns for sizes 2, 4, 6, 8
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


def poly(*coeffs) -> IntPolynomial:
    return IntPolynomial(tuple(coeffs))


def exchange(n: int, one, zero) -> Matrix:
    """Antidiagonal permutation matrix (the lattice parity)."""
    return Matrix.from_rows(
        [[one if i + k == n - 1 else zero for k in range(n)] for i in range(n)]
    )


def scanned_positions(n: int, j: int) -> set[tuple[int, int]]:
    """Reference occupancy: every one of the n^2 cells tested against the
    position rule."""
    occupied = set()
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            d = i - k
            t = n + 1 - i - k
            if (
                abs(d) <= j - 1
                and (d - (j - 1)) % 2 == 0
                and abs(t) <= n - j
                and (t - (n - j)) % 2 == 0
            ):
                occupied.add((i, k))
    return occupied


def corrupt_growth(monkeypatch, at, change):
    """Let the growth step of S_j at size n, `at` = (n, j), apply `change`
    to the pattern it grew."""
    grow = closedform._grown

    def corrupted(previous, n, j):
        degrees = grow(previous, n, j)
        if (n, j) == at:
            change(degrees)
        return degrees

    monkeypatch.setattr(closedform, "_grown", corrupted)


class TestEntryPolynomial:
    def test_degree_zero_is_one(self):
        assert entry_polynomial(0) == poly(1)

    def test_degree_three_minus(self):
        assert entry_polynomial(3, "minus") == poly(1, -1, -1, 1)
        assert entry_polynomial(3, "plus") == poly(1, 1, -1, -1)

    def test_degree_four_at_one_half(self):
        assert entry_polynomial(4)(Fraction(1, 2)) == Fraction(9, 16)

    def test_odd_degree_needs_sign(self):
        with pytest.raises(DomainError):
            entry_polynomial(1)


class TestOccupancy:
    def test_size4_second_member(self):
        expected = {(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)}
        assert set(occupancy_positions(4, 2)) == expected

    def test_size2_first_member_is_diagonal(self):
        assert set(occupancy_positions(2, 1)) == {(1, 1), (2, 2)}

    def test_size6_last_member_is_antidiagonal(self):
        assert set(occupancy_positions(6, 6)) == {(i, 7 - i) for i in range(1, 7)}

    def test_out_of_range_index(self):
        with pytest.raises(DomainError):
            occupancy_positions(4, 5)
        with pytest.raises(DimensionError):
            occupancy_positions(5, 1)

    @pytest.mark.parametrize("n", range(2, 41, 2))
    def test_matches_brute_force_scan(self, n):
        for j in range(1, n + 1):
            positions = occupancy_positions(n, j)
            assert positions == scanned_positions(n, j)
            assert len(positions) == j * (n + 1 - j)

    @given(st.sampled_from([2, 4, 6, 8, 10]), st.data())
    def test_positions_are_symmetric_and_persymmetric(self, n, data):
        j = data.draw(st.integers(min_value=1, max_value=n))
        positions = occupancy_positions(n, j)
        for i, k in positions:
            assert (k, i) in positions
            assert (n + 1 - k, n + 1 - i) in positions


class TestIncidenceFamily:
    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_printed_size4(self, j):
        assert incidence_family(4)[j - 1].degrees == PRINTED_S4[j]

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5, 6])
    def test_printed_size6(self, j):
        assert incidence_family(6)[j - 1].degrees == PRINTED_S6[j]

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_printed_central_sequence(self, n):
        assert incidence_family(n)[n // 2 - 1].degrees == PRINTED_CENTRAL[n]

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14, 16])
    def test_occupancy_matches_position_rule(self, n):
        for j, member in enumerate(incidence_family(n), start=1):
            assert frozenset(member.degrees) == occupancy_positions(n, j)

    def test_degree_pattern_is_persymmetric(self):
        for member in incidence_family(10):
            n = member.n
            for (i, k), degree in member.degrees.items():
                assert member.degrees[(n + 1 - k, n + 1 - i)] == degree

    def test_rejects_odd_size(self):
        with pytest.raises(DimensionError):
            incidence_family(5)

    @pytest.mark.parametrize("n", range(2, 61, 2))
    def test_recurrence_equals_the_closed_form_rule(self, n):
        family = incidence_family(n)
        assert [member.degrees for member in family] == [
            _rule_degrees(n, j) for j in range(1, n + 1)
        ]

    def test_asymmetric_pattern_rejected(self, monkeypatch):
        # a growth step that writes only one of the pair (2, 1), (1, 2)
        corrupt_growth(monkeypatch, (4, 2), lambda degrees: degrees.pop((2, 1)))
        with pytest.raises(ConstructionError, match="n=4, j=2"):
            incidence_family(6)

    @pytest.mark.parametrize("n, j", [(4, 3), (6, 5), (8, 8)])
    def test_wrong_degree_on_the_right_occupancy_rejected(self, monkeypatch, n, j):
        # the corner diagonals of j > K written with degree 2, not 0: the
        # occupancy and the symmetry still hold, only the degrees differ
        def corners(degrees):
            degrees[1, j] = degrees[j, 1] = 2

        corrupt_growth(monkeypatch, (n, j), corners)
        with pytest.raises(ConstructionError, match=f"n={n}, j={j}"):
            incidence_family(8)


class TestBasisElement:
    def test_first_element_size4_is_split_diagonal(self):
        element = basis_family(4)[0]
        minus, plus = poly(1, -1), poly(1, 1)
        zero = poly()
        assert dense(element.entries, 4, zero).entries == (
            (minus, zero, zero, zero),
            (zero, minus, zero, zero),
            (zero, zero, plus, zero),
            (zero, zero, zero, plus),
        )

    def test_last_element_size4_is_antidiagonal_ones(self):
        element = basis_family(4)[3]
        one, zero = poly(1), poly()
        assert dense(element.entries, 4, zero) == exchange(4, one=one, zero=zero)

    def test_each_call_builds_a_new_family(self):
        # a change to a returned element does not reach the next call
        basis_family(8)[0].entries[1, 1] = poly(5)
        assert basis_family(8)[0].entries[1, 1] == poly(1, -1)

    def test_printed_entries_of_size8_central(self):
        element = basis_family(8)[3]
        assert element.entries[1, 4] == poly(1, -1)
        assert element.entries[4, 5] == poly(1, 0, -2, 0, 1)  # (1 - x^2)^2

    def test_full_printed_size4_family(self):
        minus, plus = poly(1, -1), poly(1, 1)
        even2, one, zero = poly(1, 0, -1), poly(1), poly()
        printed_m2 = Matrix.from_rows(
            [
                [zero, minus, zero, zero],
                [minus, zero, even2, zero],
                [zero, even2, zero, plus],
                [zero, zero, plus, zero],
            ]
        )
        printed_m3 = Matrix.from_rows(
            [
                [zero, zero, one, zero],
                [zero, minus, zero, one],
                [one, zero, plus, zero],
                [zero, one, zero, zero],
            ]
        )
        family = basis_family(4)
        assert dense(family[1].entries, 4, zero) == printed_m2
        assert dense(family[2].entries, 4, zero) == printed_m3

    @pytest.mark.parametrize("n", [2, 6, 10])
    @pytest.mark.parametrize("lam", [Fraction(-2, 7), 0, 3, 0.37])
    def test_values_are_the_entries_at_the_coupling(self, n, lam):
        for element in basis_family(n):
            values = element.values(lam)
            assert list(values) == list(element.entries)
            assert values == {pos: p(lam) for pos, p in element.entries.items()}
            assert {type(v) for v in values.values()} == {type(lam)}

    def test_antidiagonal_odd_degree_rejected(self, monkeypatch):
        # a growth step that writes an odd degree on the antidiagonal
        def odd(degrees):
            degrees[1, 4] = degrees[4, 1] = 1

        corrupt_growth(monkeypatch, (4, 4), odd)
        with pytest.raises(ConstructionError, match="n=4, j=4"):
            incidence_family(4)

    @pytest.mark.parametrize("n", range(2, 61, 2))
    def test_rule_is_symmetric_on_the_occupancy_with_even_antidiagonal(self, n):
        for j in range(1, n + 1):
            degrees = _rule_degrees(n, j)
            assert list(degrees) == sorted(occupancy_positions(n, j))
            assert all(degrees[k, i] == d for (i, k), d in degrees.items())
            assert all(d % 2 == 0 for (i, k), d in degrees.items() if i + k == n + 1)

    def test_element_index_checked(self):
        with pytest.raises(DomainError):
            basis_element(4, 5)
        with pytest.raises(DimensionError):
            basis_element(5, 1)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_exact_intertwining_identity(self, n):
        for element in basis_family(n):
            assert intertwining_defect(element) == {}

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14, 16])
    def test_zero_coupling_reduction(self, n):
        for element in basis_family(n):
            nonzero = {p: v for p, v in element.values(0).items() if v}
            assert nonzero == dict.fromkeys(occupancy_positions(n, element.j), 1)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_reflection_symmetry(self, n):
        for element in basis_family(n):
            assert reflection_symmetry_holds(element)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_added_entry_breaks_reflection(self, n):
        # off the antidiagonal, an entry's mirror is another position, so
        # adding 1 at one position alone, occupied or not, breaks the pairing
        for element in basis_family(n):
            for i in range(1, n + 1):
                for k in range(1, n + 1):
                    if i + k == n + 1:
                        continue
                    entries = dict(element.entries)
                    entries[i, k] = entries.get((i, k), IntPolynomial()) + IntPolynomial((1,))
                    changed = MetricBasisElement(n, element.j, entries)
                    assert not reflection_symmetry_holds(changed)

    def test_elements_are_symmetric_polynomials(self):
        for element in basis_family(10):
            assert element.entries == {(k, i): p for (i, k), p in element.entries.items()}

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    @pytest.mark.parametrize("lam", [0.0, 0.37, -0.8, 1.3])
    def test_stack_matches_dense_view(self, n, lam):
        stack = evaluate_basis_stack(n, lam)
        for element, plane in zip(basis_family(n), stack):
            for i in range(n):
                for k in range(n):
                    p = element.entries.get((i + 1, k + 1), poly())
                    assert plane[i, k] == float(p(lam))

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_linear_independence_at_sample_coupling(self, n):
        lam = Fraction(2, 5)
        stacked = [upper_triangle(el.values(lam), n) for el in basis_family(n)]
        assert rank(stacked) == n

    @pytest.mark.parametrize("lam", [Fraction(5, 9), -1, 1, 0, 2], ids=str)
    def test_first_and_last_rows_certify_independence(self, lam):
        # row 1 of M_j holds one entry, at (1, j): 1 - lam for j <= K, 1
        # above; row n holds one, at (n, n + 1 - j): 1 + lam or 1
        for n in range(2, 31, 2):
            for element in basis_family(n):
                j, values = element.j, element.values(lam)
                first = {k: v for (i, k), v in values.items() if i == 1}
                last = {k: v for (i, k), v in values.items() if i == n}
                assert first == {j: 1 - lam if j <= n // 2 else 1}
                assert last == {n + 1 - j: 1 + lam if j <= n // 2 else 1}

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_span_matches_oracle(self, n):
        lam = Fraction(1, 3)
        space = solve_metric_space(HamiltonianSpec(n, lam))
        stacked = list(space.basis)
        stacked += [upper_triangle(el.values(lam), n) for el in basis_family(n)]
        assert rank(stacked) == n


def dense_defect_cells(element: MetricBasisElement) -> dict:
    """The nonzero cells, 1-based, of the dense product M H - H^T M."""
    h = hamiltonian_polynomial(element.n)
    m = dense(element.entries, element.n, IntPolynomial())
    product = m @ h - h.T @ m
    return {
        (a + 1, b + 1): p
        for a, row in enumerate(product.entries)
        for b, p in enumerate(row)
        if p
    }


class TestBandedDefect:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_matches_dense_products(self, n):
        for element in basis_family(n):
            assert intertwining_defect(element) == dense_defect_cells(element) == {}

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_changed_entry_gives_nonzero_defect(self, n):
        for element in basis_family(n):
            for i in range(1, n + 1):
                for k in range(1, n + 1):
                    entries = dict(element.entries)
                    entries[i, k] = entries.get((i, k), IntPolynomial()) + IntPolynomial((1,))
                    changed = MetricBasisElement(n, element.j, entries)
                    defect = intertwining_defect(changed)
                    assert defect
                    assert defect == dense_defect_cells(changed)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_large_coefficient_faults(self, n):
        # faults far beyond the alphabet's coefficients, of either sign: the
        # digit width of the integer images follows the element's largest
        # coefficient, not n
        rng = random.Random(n)
        for element in basis_family(n):
            for bits in (1, 64, 300):
                entries = dict(element.entries)
                for _ in range(3):
                    size = (1 << bits) - 1
                    fault = IntPolynomial(rng.randint(-size, size) for _ in range(rng.randint(1, 4)))
                    position = rng.randint(1, n), rng.randint(1, n)
                    entries[position] = entries.get(position, IntPolynomial()) + fault
                changed = MetricBasisElement(n, element.j, entries)
                defect = intertwining_defect(changed)
                assert defect
                assert defect == dense_defect_cells(changed)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_largest_coefficient_in_every_cell(self, n):
        # every coefficient of every cell at the largest magnitude, with
        # random signs, so that the sums of up to six products come near
        # the half digit the images leave them
        rng = random.Random(n)
        top = (1 << 300) - 1
        for _ in range(20):
            full = {
                (i, k): IntPolynomial(rng.choice((top, -top)) for _ in range(3))
                for i in range(1, n + 1)
                for k in range(1, n + 1)
            }
            element = MetricBasisElement(n, 1, full)
            assert intertwining_defect(element) == dense_defect_cells(element)

    @pytest.mark.parametrize("n", [22, 40, 80])
    def test_valid_family_at_larger_sizes(self, n):
        assert all(intertwining_defect(element) == {} for element in basis_family(n))


def module_identity_failures(family) -> list[int]:
    """The indices j at which the dense polynomial matrices of `family`
    break the H-module identity: M_1 = Theta_0 = diag((1 - x) I_K,
    (1 + x) I_K) (j = 0 in the list), and M_j (2 - H) = M_{j-1} + c_j M_{j+1}
    with M_0 = M_{n+1} = 0, c_j = 1 except c_K = 1 - x^2, K = n/2."""
    n = len(family)
    zero, one, x = IntPolynomial(), poly(1), poly(0, 1)
    h = hamiltonian_polynomial(n)
    two_minus_h = Matrix.from_rows(
        [[(one + one if i == k else zero) - h[i, k] for k in range(n)] for i in range(n)]
    )
    empty = dense({}, n, zero)
    members = [empty, *(dense(element.entries, n, zero) for element in family), empty]
    theta0 = {(i, i): one - x if i <= n // 2 else one + x for i in range(1, n + 1)}
    failures = [] if members[1] == dense(theta0, n, zero) else [0]
    for j in range(1, n + 1):
        c = poly(1, 0, -1) if j == n // 2 else one
        scaled = Matrix.from_rows([[c * p for p in row] for row in members[j + 1].entries])
        if members[j] @ two_minus_h != members[j - 1] + scaled:
            failures.append(j)
    return failures


def with_valid_solution_added(family, j=3):
    """The family with M_j replaced by M_j + x^2 M_1: a valid metric, but not
    the paper's member."""
    entries = dict(family[j - 1].entries)
    for position, p in family[0].entries.items():
        entries[position] = entries.get(position, IntPolynomial()) + poly(0, 0, 1) * p
    changed = MetricBasisElement(family[0].n, j, dict(sorted(entries.items())))
    return family[: j - 1] + (changed,) + family[j:]


class TestModuleIdentity:
    """The family is an H-module, as a polynomial identity over the dense
    referee chain: M_1 = Theta_0 and M_j (2 - H) = M_{j-1} + c_j M_{j+1}.
    So M_j = Theta_0 q_{j-1}(2 - H), the form `analysis.closed_form_margin`
    reads positivity from."""

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 16])
    def test_family_obeys_the_identity(self, n):
        assert module_identity_failures(basis_family(n)) == []

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_changed_entry_breaks_the_identity(self, n):
        family = basis_family(n)
        for j, element in enumerate(family, 1):
            entries = dict(element.entries)
            entries[1, 1] = entries.get((1, 1), IntPolynomial()) + poly(1)
            changed = family[: j - 1] + (MetricBasisElement(n, j, entries),) + family[j:]
            assert module_identity_failures(changed)

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize(
        "lam", [Fraction(5, 9), Fraction(-7, 3), Fraction(1), Fraction(-1)], ids=str
    )
    def test_known_gap_valid_solution_passes_the_five_checks(self, monkeypatch, n, lam):
        # KNOWN GAP: M_3 + x^2 M_1 solves the constraint, so `metric verify`
        # passes all five checks, although it is not the paper's member.
        # Only the module identity catches it; it is not yet a check of
        # `metric verify`, so this row asserts the pass.
        from metric_forge import cli

        changed = with_valid_solution_added(basis_family(n))
        assert module_identity_failures(changed) == [2, 3, 4]
        monkeypatch.setattr(closedform, "basis_family", lambda size: changed)
        checks = cli.run_verification(n, lam)
        assert len(checks) == 5 and all(check.passed for check in checks)


class TestAssembleTheta:
    def test_printed_entry_pattern_size4(self):
        lam = Fraction(1, 5)
        alpha = (Fraction(2), Fraction(-3), Fraction(1), Fraction(7))
        theta = assemble_theta(4, lam, alpha)
        a1, a2, a3, a4 = alpha
        assert theta[1, 2] == a4 + a2 * (1 - lam * lam)  # 1-based (2, 3)
        assert theta[0, 0] == a1 * (1 - lam)
        assert theta[2, 2] == (a1 + a3) * (1 + lam)
        assert theta == theta.T

    def test_identity_at_zero_coupling(self):
        theta = assemble_theta(4, 0, (1, 0, 0, 0))
        assert theta == Matrix.identity(4, one=1, zero=0)

    def test_first_basis_vector_gives_split_diagonal_size6(self):
        lam = Fraction(1, 3)
        theta = assemble_theta(6, lam, (1, 0, 0, 0, 0, 0))
        for i in range(3):
            assert theta[i, i] == 1 - lam
            assert theta[i + 3, i + 3] == 1 + lam

    def test_printed_entry_pattern_size6(self):
        lam = Fraction(3, 7)
        alpha = tuple(Fraction(v) for v in (5, -2, 3, 1, -4, 2))
        theta = assemble_theta(6, lam, alpha)
        a1, a2, a3, a4, a5, a6 = alpha
        sq = 1 - lam * lam
        assert theta[2, 2] == a1 * (1 - lam) + a3 * (1 - lam) * sq + a5 * (1 - lam)
        assert theta[3, 3] == a1 * (1 + lam) + a3 * (1 + lam) * sq + a5 * (1 + lam)
        assert theta[1, 3] == a3 * sq + a5  # 1-based (2, 4)
        assert theta[2, 3] == a2 * sq + a4 * sq + a6  # 1-based (3, 4)
        assert theta[0, 3] == a4  # 1-based (1, 4)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionError):
            assemble_theta(4, 0, (1, 2))

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([2, 4, 6]),
        st.fractions(min_value=-1, max_value=1, max_denominator=5),
        st.data(),
    )
    def test_exact_membership_for_random_coefficients(self, n, lam, data):
        from metric_forge.oracle import verify_membership

        alpha = data.draw(
            st.lists(
                st.fractions(min_value=-3, max_value=3, max_denominator=4),
                min_size=n,
                max_size=n,
            )
        )
        theta = assemble_theta(n, lam, alpha)
        ok, residual = verify_membership(theta, HamiltonianSpec(n, lam))
        assert ok and residual == 0
