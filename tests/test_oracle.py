from fractions import Fraction

import numpy as np
import pytest

from metric_forge.analysis import symmetric_similarity
from metric_forge.errors import DimensionError, DomainError
from metric_forge.exact import Matrix, null_space, rank
from metric_forge.hamiltonian import HamiltonianSpec, build_hamiltonian
from metric_forge.oracle import (
    SymmetricIndexer,
    intertwining_system,
    solve_metric_space,
    upper_triangle_vector,
    verify_membership,
)
from sparse_rows import reduced_basis, rows_of, symmetric_matrix


def _rebuild_from_one_row(theta, h, order):
    """The rows of a solution of Theta H = H^T Theta, rebuilt from its row
    order[0] alone.  Row i of the constraint reads
    Theta[i,:] H = sum_r H[r,i] Theta[r,:] over the neighbours r of i, so
    each next row along `order` follows from the two before it."""
    n = len(order)
    rows = {order[0]: list(theta.entries[order[0]])}
    for before, i, after in zip([None] + order, order, order[1:]):
        known = [sum(rows[i][r] * h[r, c] for r in range(n)) for c in range(n)]
        for r in (before, i):
            if r is not None:
                known = [a - h[r, i] * b for a, b in zip(known, rows[r])]
        rows[after] = [a / h[after, i] for a in known]
    return [rows[i] for i in range(n)]


class TestSymmetricIndexer:
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_bijection(self, n):
        indexer = SymmetricIndexer(n)
        assert indexer.count == n * (n + 1) // 2
        # the flat index of the t-th pair (i, k >= i) in row-major order is t
        flats = [indexer.flat(i, k) for i in range(n) for k in range(i, n)]
        assert flats == list(range(indexer.count))

    def test_order_insensitive(self):
        indexer = SymmetricIndexer(4)
        assert indexer.flat(2, 1) == indexer.flat(1, 2)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_table_holds_every_flat_index(self, n):
        indexer = SymmetricIndexer(n)
        table = indexer.table()
        assert table == [[indexer.flat(i, k) for k in range(n)] for i in range(n)]
        assert sorted({f for row in table for f in row}) == list(range(indexer.count))


class TestIntertwiningSystem:
    def test_size2_free_forces_equal_diagonal(self):
        h = build_hamiltonian(HamiltonianSpec(2, 0))
        system = intertwining_system(h)
        assert len(system) == 1 and all(k < 3 for row in system for k in row)
        kernel = null_space(system, 3)
        assert len(kernel) == 2
        # the one constraint is theta_11 = theta_22
        indexer = SymmetricIndexer(2)
        for vec in kernel:
            assert vec.get(indexer.flat(0, 0), 0) == vec.get(indexer.flat(1, 1), 0)

    def test_identity_hamiltonian_gives_zero_system(self):
        system = intertwining_system(Matrix.identity(3))
        assert all(e == 0 for row in system for e in row.values())
        assert len(null_space(system, 6)) == 6

    def test_size4_dimensions(self):
        h = build_hamiltonian(HamiltonianSpec(4, Fraction(1, 3)))
        system = intertwining_system(h)
        assert len(system) == 6 and all(k < 10 for row in system for k in row)
        assert len(null_space(system, 10)) == 4

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    @pytest.mark.parametrize("lam", [0, Fraction(5, 9), 1, -1, Fraction(7, 3)], ids=str)
    def test_rows_are_sparse(self, n, lam):
        system = intertwining_system(build_hamiltonian(HamiltonianSpec(n, lam)))
        assert len(system) == n * (n - 1) // 2
        assert all(len(row) <= 6 for row in system)
        assert all(0 <= k < n * (n + 1) // 2 for row in system for k in row)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            intertwining_system(Matrix.from_rows([[Fraction(1), Fraction(0)]]))

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    @pytest.mark.parametrize("lam", [0, Fraction(1, 3), Fraction(-5, 7), 1, -1, Fraction(7, 3)])
    def test_half_system_has_the_kernel_of_the_full_system(self, n, lam):
        h = build_hamiltonian(HamiltonianSpec(n, lam))
        width = SymmetricIndexer(n).count
        half = null_space(intertwining_system(h), width)
        full = null_space(rows_of(_full_system(h).entries), width)
        assert half == full and half.pivots == full.pivots

    @pytest.mark.parametrize("n", [3, 5])
    def test_half_system_of_a_dense_matrix(self, n):
        h = Matrix.from_rows(
            [[Fraction((3 * i + 7 * k) % 11 - 5, 1 + i * k % 4) for k in range(n)] for i in range(n)]
        )
        width = SymmetricIndexer(n).count
        half = null_space(intertwining_system(h), width)
        full = null_space(rows_of(_full_system(h).entries), width)
        assert half == full and half.pivots == full.pivots


def _full_system(h: Matrix) -> Matrix:
    """All n^2 rows (p, q) of Theta H - H^T Theta, diagonal and both
    triangles, straight from the definition."""
    n = h.rows
    indexer = SymmetricIndexer(n)
    rows = []
    for p in range(n):
        for q in range(n):
            row = [Fraction(0)] * indexer.count
            for r in range(n):
                row[indexer.flat(p, r)] += h[r, q]
                row[indexer.flat(r, q)] -= h[r, p]
            rows.append(row)
    return Matrix.from_rows(rows)


def exchange(n: int) -> Matrix:
    """Antidiagonal permutation matrix (the lattice parity)."""
    one, zero = Fraction(1), Fraction(0)
    return Matrix.from_rows(
        [[one if i + k == n - 1 else zero for k in range(n)] for i in range(n)]
    )


def _span_contains(space, candidate: Matrix) -> bool:
    rows = list(space.basis)
    ambient = rank(rows)
    rows += rows_of([upper_triangle_vector(candidate)])
    return rank(rows) == ambient


class TestSolveMetricSpace:
    def test_size2_free_span(self):
        space = solve_metric_space(HamiltonianSpec(2, 0))
        assert space.dimension == 2
        assert _span_contains(space, Matrix.identity(2))
        assert _span_contains(space, exchange(2))

    def test_size4_free_matches_four_parameter_family(self):
        space = solve_metric_space(HamiltonianSpec(4, 0))
        assert space.dimension == 4
        a1, a2, a3, a4 = Fraction(3), Fraction(-1), Fraction(2), Fraction(5)
        member = Matrix.from_rows(
            [
                [a1, a2, a3, a4],
                [a2, a1 + a3, a2 + a4, a3],
                [a3, a2 + a4, a1 + a3, a2],
                [a4, a3, a2, a1],
            ]
        )
        assert _span_contains(space, member)
        ok, residual = verify_membership(member, HamiltonianSpec(4, 0))
        assert ok and residual == 0

    def test_size6_dimension(self):
        space = solve_metric_space(HamiltonianSpec(6, Fraction(1, 2)))
        assert space.dimension == 6

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    @pytest.mark.parametrize("lam", [Fraction(0), Fraction(1, 3), Fraction(-2, 3)])
    def test_dimension_equals_size(self, n, lam):
        space = solve_metric_space(HamiltonianSpec(n, lam))
        assert space.dimension == n

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_pivot_count_is_the_constraint_rank(self, n):
        space = solve_metric_space(HamiltonianSpec(n, Fraction(5, 9)))
        assert space.pivots == n * (n + 1) // 2 - n

    def test_builds_only_the_chain_and_its_transpose(self, monkeypatch):
        # the constraint system and the basis stay sparse rows: the only
        # Matrix objects built are the chain and its transpose
        shapes = []
        new = Matrix.__new__

        def recording(cls, entries):
            matrix = new(cls, entries)
            shapes.append(matrix.shape)
            return matrix

        monkeypatch.setattr(Matrix, "__new__", recording)
        solve_metric_space(HamiltonianSpec(12, Fraction(5, 9)))
        assert shapes == [(12, 12), (12, 12)]

    def test_intermediate_bit_length_grows_linearly(self):
        # measured 4, 7, 7, 11, 11, 14, 14, 17, 17, 20, 20 bits at this
        # coupling for n = 4..24, about 3n/4 + 2
        lam = Fraction(5, 9)
        bits = {n: solve_metric_space(HamiltonianSpec(n, lam)).max_bits for n in range(4, 26, 2)}
        assert all(b <= 2 * n for n, b in bits.items())
        assert all(bits[n + 2] - bits[n] <= 16 for n in range(4, 24, 2))

    def test_large_coupling_rows_stay_primitive_sized(self):
        # 49 ones over 50 threes: the primitive rows reach 1646 bits at
        # n = 40, where entries that are minors of the input reach 12670
        lam = Fraction(int("1" * 49), int("3" * 50))
        assert solve_metric_space(HamiltonianSpec(40, lam)).max_bits <= 2048

    def test_basis_members_are_exact_symmetric_solutions(self):
        spec = HamiltonianSpec(6, Fraction(-1, 3))
        space = solve_metric_space(spec)
        for vector in space.basis:
            basis_matrix = symmetric_matrix(6, vector)
            assert basis_matrix == basis_matrix.T
            ok, residual = verify_membership(basis_matrix, spec)
            assert ok and residual == 0

    @pytest.mark.parametrize("lam", [Fraction(5, 9), -1, 0, 1], ids=str)
    def test_basis_reads_the_identity_at_its_free_columns(self, lam):
        space = solve_metric_space(HamiltonianSpec(6, lam))
        assert len(space.free) == space.dimension == 6
        reduced = reduced_basis(space.basis, space.free, SymmetricIndexer(6).count)
        for t, vector in enumerate(reduced):
            assert [vector[f] for f in space.free] == [int(s == t) for s in range(6)]

    def test_basis_linearly_independent(self):
        space = solve_metric_space(HamiltonianSpec(8, Fraction(2, 3)))
        stacked = list(space.basis)
        assert rank(stacked) == space.dimension

    @pytest.mark.parametrize("lam", [Fraction(5, 9), -1, 2, 0, 1], ids=str)
    @pytest.mark.parametrize("n", [2, 4, 8, 12])
    def test_each_solution_is_fixed_by_one_row(self, n, lam):
        # for lam != 1 every subdiagonal entry of H is nonzero and the first
        # row fixes the solution; at lam = 1 the middle one vanishes, and the
        # last row fixes it through the superdiagonal
        spec = HamiltonianSpec(n, lam)
        order = list(range(n - 1, -1, -1)) if lam == 1 else list(range(n))
        space = solve_metric_space(spec)
        assert space.dimension == n
        for vector in space.basis:
            theta = symmetric_matrix(n, vector)
            rebuilt = _rebuild_from_one_row(theta, build_hamiltonian(spec), order)
            assert rebuilt == [list(row) for row in theta.entries]

    def test_identity_member_at_zero_coupling(self):
        space = solve_metric_space(HamiltonianSpec(8, 0))
        assert _span_contains(space, Matrix.identity(8))

    def test_reflection_maps_between_opposite_couplings(self):
        lam = Fraction(1, 3)
        space = solve_metric_space(HamiltonianSpec(6, lam))
        j = exchange(6)
        flipped_spec = HamiltonianSpec(6, -lam)
        for vector in space.basis:
            mapped = j @ symmetric_matrix(6, vector) @ j
            ok, residual = verify_membership(mapped, flipped_spec)
            assert ok and residual == 0

    def test_exceptional_coupling_is_reported_as_is(self):
        space = solve_metric_space(HamiltonianSpec(2, 1))
        assert space.dimension >= 1
        for vector in space.basis:
            ok, _ = verify_membership(symmetric_matrix(2, vector), HamiltonianSpec(2, 1))
            assert ok

    def test_rejects_float_coupling(self):
        with pytest.raises(DomainError):
            solve_metric_space(HamiltonianSpec(4, 0.5))


class TestVerifyMembership:
    def test_identity_at_zero_coupling(self):
        ok, residual = verify_membership(Matrix.identity(4), HamiltonianSpec(4, 0))
        assert ok and residual == 0

    @pytest.mark.parametrize("n", [2, 4, 6, 10])
    def test_split_diagonal_member(self, n):
        lam = Fraction(1, 3)
        half = n // 2
        diag = Matrix.from_rows(
            [
                [
                    (1 - lam if i == k and i < half else 0)
                    + (1 + lam if i == k and i >= half else 0)
                    for k in range(n)
                ]
                for i in range(n)
            ]
        )
        ok, residual = verify_membership(diag, HamiltonianSpec(n, lam))
        assert ok and residual == 0

    def test_identity_not_member_at_nonzero_coupling(self):
        ok, residual = verify_membership(Matrix.identity(4), HamiltonianSpec(4, Fraction(1, 2)))
        assert not ok and residual > 0

    def test_float_path_uses_tolerance(self):
        theta = np.eye(4)
        ok, residual = verify_membership(theta, HamiltonianSpec(4, 0.0))
        assert ok and residual == 0.0
        ok, residual = verify_membership(theta, HamiltonianSpec(4, 0.5))
        assert not ok and residual > 0.1

    def test_matrix_candidate_at_float_coupling(self):
        # an exact Matrix with a float coupling takes the float branch
        ok, residual = verify_membership(Matrix.identity(4), HamiltonianSpec(4, 0.0))
        assert ok and residual == 0.0
        ok, residual = verify_membership(Matrix.identity(4), HamiltonianSpec(4, 0.5))
        assert not ok and residual == 1.0
        with pytest.raises(DimensionError):
            verify_membership(Matrix.identity(3), HamiltonianSpec(4, 0.5))

    def test_size_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            verify_membership(Matrix.identity(3), HamiltonianSpec(4, 0))

    def test_coupling_beyond_the_float_range(self):
        with pytest.raises(DomainError):
            verify_membership(np.eye(2), HamiltonianSpec(2, 10**400))


class TestSimilarityAnchor:
    """Theta = D^{-2} from H = D S D^{-1} is an exact positive member."""

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize(
        "lam", [Fraction(1, 3), Fraction(-2, 3), Fraction(4, 5), Fraction(-1, 7)]
    )
    def test_inverse_square_scaling_is_exact_positive_member(self, n, lam):
        spec = HamiltonianSpec(n, lam)
        ratio = (1 + lam) / (1 - lam)
        weights = [Fraction(1)] * (n // 2) + [ratio] * (n // 2)
        theta = Matrix.from_rows(
            [[weights[i] if i == k else Fraction(0) for k in range(n)] for i in range(n)]
        )
        ok, residual = verify_membership(theta, spec)
        assert ok and residual == 0
        space = solve_metric_space(spec)
        rows = list(space.basis)
        rows += rows_of([upper_triangle_vector(theta)])
        assert rank(rows) == n
        # diagonal with positive diagonal entries: positive definite exactly
        assert all(theta[i, i] > 0 for i in range(n))
        # the float similarity scales by the square roots of the same entries
        _, _, scale = symmetric_similarity(n, lam)
        assert np.allclose(scale**-2, [float(w) for w in weights], rtol=1e-14, atol=0)
