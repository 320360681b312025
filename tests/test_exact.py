import ast
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_forge import exact
from metric_forge.analysis import eigs_general, eigs_symmetric
from metric_forge.errors import DimensionError
from metric_forge.exact import IntPolynomial, Matrix, null_space, rank
from sparse_rows import reduced_basis, rows_of

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
small_ints = st.integers(min_value=-5, max_value=5)
poly_coeffs = st.lists(small_ints, min_size=0, max_size=6)
# mostly small values, so that products cancel and trailing zeros occur
any_coeffs = st.lists(st.one_of(small_ints, small_ints, st.integers()), max_size=6)


@st.composite
def exact_matrices(draw):
    n_rows = draw(st.integers(min_value=1, max_value=8))
    n_cols = draw(st.integers(min_value=1, max_value=8))
    rows = draw(
        st.lists(
            st.lists(small_fractions, min_size=n_cols, max_size=n_cols),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    return Matrix.from_rows(rows)


class TestIntPolynomial:
    def test_trailing_zeros_stripped(self):
        assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPolynomial((0, 0)).is_zero

    def test_degree(self):
        assert IntPolynomial(()).degree == -1
        assert IntPolynomial((3, 0, 2)).degree == 2

    def test_exact_evaluation(self):
        p = IntPolynomial((1, -1, -1, 1))  # (1 - x)(1 - x^2)
        x = Fraction(1, 3)
        assert p(x) == (1 - x) * (1 - x * x)

    @given(poly_coeffs, st.fractions(max_denominator=50))
    def test_fraction_evaluation_is_the_power_sum(self, a, x):
        p = IntPolynomial(tuple(a))
        value = p(x)
        assert value == sum(c * x**d for d, c in enumerate(p.coeffs))
        assert type(value) is (Fraction if p.coeffs else int)

    def test_negate_variable(self):
        p = IntPolynomial((1, 2, 3, 4))
        assert p.negate_variable().coeffs == (1, -2, 3, -4)

    @given(any_coeffs, any_coeffs, st.one_of(small_ints, st.integers()))
    def test_unvalidated_results_match_the_public_constructor(self, a, b, c):
        # *, unary - and negate_variable build their results without the
        # public constructor's pass; each must equal what that pass gives
        product = [0] * (len(a) + len(b))
        for i, u in enumerate(a):
            for k, v in enumerate(b):
                product[i + k] += u * v
        p, q = IntPolynomial(tuple(a)), IntPolynomial(tuple(b))
        results = [
            (p * q, product),
            (p * c, [u * c for u in a]),
            (c * p, [u * c for u in a]),
            (-p, [-u for u in a]),
            (p.negate_variable(), [u if d % 2 == 0 else -u for d, u in enumerate(a)]),
        ]
        for result, coeffs in results:
            public = IntPolynomial(tuple(coeffs))
            assert result.coeffs == public.coeffs
            assert all(type(v) is int for v in result.coeffs)
            assert result == public and hash(result) == hash(public)

    @given(poly_coeffs, poly_coeffs, poly_coeffs)
    def test_ring_distributivity(self, a, b, c):
        p, q, r = IntPolynomial(tuple(a)), IntPolynomial(tuple(b)), IntPolynomial(tuple(c))
        assert (p + q) * r == p * r + q * r

    @given(poly_coeffs, poly_coeffs)
    def test_commutativity_and_degree(self, a, b):
        p, q = IntPolynomial(tuple(a)), IntPolynomial(tuple(b))
        assert p * q == q * p
        if not p.is_zero and not q.is_zero:
            assert (p * q).degree == p.degree + q.degree

    @given(poly_coeffs, poly_coeffs, small_fractions)
    def test_evaluation_is_ring_homomorphism(self, a, b, x):
        p, q = IntPolynomial(tuple(a)), IntPolynomial(tuple(b))
        assert (p * q)(x) == p(x) * q(x)
        assert (p + q)(x) == p(x) + q(x)


class TestMatrix:
    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            Matrix.from_rows([[1, 2], [3]])
        with pytest.raises(DimensionError):
            Matrix(())

    def test_transpose_and_matmul(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        assert a.T.entries == ((1, 3), (2, 4))
        assert (a @ a).entries == ((7, 10), (15, 22))
        assert a @ (1, 1) == (3, 7)

    def test_symmetry_check(self):
        symmetric = Matrix.from_rows([[1, 2], [2, 1]])
        asymmetric = Matrix.from_rows([[1, 2], [3, 1]])
        assert symmetric == symmetric.T
        assert asymmetric != asymmetric.T


# each record, an equal one built another way, its one field, and its repr
_RECORDS = [
    (IntPolynomial((1, -1)), IntPolynomial([1, -1, 0]), "coeffs", "IntPolynomial(coeffs=(1, -1))"),
    (IntPolynomial(), IntPolynomial._stripped(()), "coeffs", "IntPolynomial(coeffs=())"),
    (
        Matrix.from_rows([[1, 2], [3, 4]]),
        Matrix(((1, 2), (3, 4))).T.T,
        "entries",
        "Matrix(entries=((1, 2), (3, 4)))",
    ),
]


@pytest.mark.parametrize("record, same, field, text", _RECORDS, ids=["poly", "zero", "matrix"])
class TestValueSemantics:
    def test_equal_by_value(self, record, same, field, text):
        assert record == same and record is not same
        assert not record != same

    def test_hash_is_that_of_the_field_tuple(self, record, same, field, text):
        # the set of polynomials that `MetricBasisElement.values` builds
        # iterates in the order these hashes give
        assert hash(record) == hash(same) == hash((getattr(record, field),))

    def test_never_equal_to_int_zero(self, record, same, field, text):
        # why `hamiltonian_polynomial` puts the zero polynomial, not 0, off the bands
        assert record != 0 and 0 != record
        assert not record == 0

    def test_immutable(self, record, same, field, text):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(same, field))
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_repr(self, record, same, field, text):
        assert repr(record) == text


class TestNullSpace:
    def test_full_rank_identity(self):
        assert null_space(rows_of(Matrix.identity(2).entries), 2) == []

    def test_single_equation(self):
        a = Matrix.from_rows([[Fraction(1), Fraction(-1)]])
        assert null_space(rows_of(a.entries), 2) == [{0: 1, 1: 1}]

    def test_intertwining_n4_kernel_size(self):
        # the vectorized constraint system at size 4 has a 4-dimensional kernel
        from metric_forge.hamiltonian import HamiltonianSpec, build_hamiltonian
        from metric_forge.oracle import intertwining_system

        h = build_hamiltonian(HamiltonianSpec(4, Fraction(1, 3)))
        a = intertwining_system(h)
        assert len(a) == 6 and all(k < 10 for row in a for k in row)
        assert len(null_space(a, 10)) == 4

    @settings(max_examples=60, deadline=None)
    @given(exact_matrices())
    def test_kernel_is_exact_and_complete(self, a):
        basis = null_space(rows_of(a.entries), a.cols)
        zero = tuple(Fraction(0) for _ in range(a.rows))
        for vec in basis:
            assert a @ [vec.get(c, 0) for c in range(a.cols)] == zero
        assert rank(rows_of(a.entries)) + len(basis) == a.cols

    @settings(max_examples=40, deadline=None)
    @given(exact_matrices())
    def test_basis_vectors_linearly_independent(self, a):
        basis = null_space(rows_of(a.entries), a.cols)
        if basis:
            assert rank(basis) == len(basis)


def gauss_jordan_kernel(a):
    """Reference: plain Fraction Gauss-Jordan elimination to reduced row
    echelon form; returns the kernel basis attached to the free columns
    and the rank."""
    m = [[Fraction(v) for v in row] for row in a.entries]
    pivot_cols = []
    for c in range(a.cols):
        r = len(pivot_cols)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivot_cols.append(c)
    basis = []
    for free in (c for c in range(a.cols) if c not in pivot_cols):
        vec = [Fraction(0)] * a.cols
        vec[free] = Fraction(1)
        for r, c in enumerate(pivot_cols):
            vec[c] = -m[r][free]
        basis.append(tuple(vec))
    return basis, len(pivot_cols)


nonzero_fractions = small_fractions.filter(bool)
# numerators and denominators up to 10^30, so that rows carry large contents
huge_fractions = st.builds(
    Fraction, st.integers(-(10**30), 10**30).filter(bool), st.integers(1, 10**30)
)


@st.composite
def sparse_matrices(draw, values=nonzero_fractions):
    """Random sparse rational matrices with zero rows, negated duplicate
    rows, all-zero columns, and rows whose support starts late, so that
    they wait through many pivot steps before they are used."""
    n_cols = draw(st.integers(min_value=1, max_value=10))
    dead = draw(st.sets(st.integers(min_value=0, max_value=n_cols - 1), max_size=n_cols // 2))
    live = [c for c in range(n_cols) if c not in dead] or [0]
    supports = st.dictionaries(st.sampled_from(live), values, max_size=4)
    late = st.dictionaries(st.sampled_from(live[-2:]), values, min_size=1, max_size=2)
    entries = draw(st.lists(supports, min_size=1, max_size=9))
    entries += draw(st.lists(late, max_size=3))
    entries += [{} for _ in range(draw(st.integers(min_value=0, max_value=2)))]
    negated = draw(st.lists(st.sampled_from(range(len(entries))), max_size=2))
    entries += [{c: -v for c, v in entries[i].items()} for i in negated]
    entries = draw(st.permutations(entries))
    return Matrix.from_rows(
        [[row.get(c, Fraction(0)) for c in range(n_cols)] for row in entries]
    )


def _assert_primitive(basis):
    """Every kernel vector is an int map with content 1 and no zero entry,
    positive at its own free column and without the other free columns."""
    for vec, f in zip(basis, basis.free):
        assert all(type(v) is int for v in vec.values())
        assert math.gcd(*vec.values()) == 1
        assert 0 not in vec.values()
        assert vec[f] > 0
        assert not set(basis.free).intersection(vec).difference({f})


class TestSparseElimination:
    @settings(max_examples=200, deadline=None)
    @given(sparse_matrices())
    def test_matches_gauss_jordan_reference(self, a):
        basis = null_space(rows_of(a.entries), a.cols)
        expected_basis, expected_rank = gauss_jordan_kernel(a)
        zero = tuple(Fraction(0) for _ in range(a.rows))
        for vec in basis:
            assert a @ [vec.get(c, 0) for c in range(a.cols)] == zero
        assert reduced_basis(basis, basis.free, a.cols) == expected_basis
        assert rank(rows_of(a.entries)) == expected_rank
        assert basis.pivots == expected_rank

    @settings(max_examples=100, deadline=None)
    @given(sparse_matrices(huge_fractions))
    def test_large_entries_match_gauss_jordan_reference(self, a):
        basis = null_space(rows_of(a.entries), a.cols)
        expected_basis, expected_rank = gauss_jordan_kernel(a)
        assert reduced_basis(basis, basis.free, a.cols) == expected_basis
        assert rank(rows_of(a.entries)) == basis.pivots == expected_rank

    @settings(max_examples=100, deadline=None)
    @given(sparse_matrices())
    def test_free_columns_read_the_identity(self, a):
        # a free column is one that does not raise the rank of the columns
        # before it; reduced-echelon vector t reads 1 at free[t] and 0 at
        # the others
        basis = null_space(rows_of(a.entries), a.cols)
        ranks = [0] + [
            gauss_jordan_kernel(Matrix.from_rows([row[: c + 1] for row in a.entries]))[1]
            for c in range(a.cols)
        ]
        assert basis.free == [c for c in range(a.cols) if ranks[c + 1] == ranks[c]]
        for t, vec in enumerate(reduced_basis(basis, basis.free, a.cols)):
            assert [vec[f] for f in basis.free] == [int(s == t) for s in range(len(basis))]

    @settings(max_examples=100, deadline=None)
    @given(sparse_matrices())
    def test_vectors_are_primitive_integer_vectors(self, a):
        _assert_primitive(null_space(rows_of(a.entries), a.cols))

    @settings(max_examples=100, deadline=None)
    @given(sparse_matrices(huge_fractions))
    def test_large_entry_vectors_are_primitive_integer_vectors(self, a):
        _assert_primitive(null_space(rows_of(a.entries), a.cols))

    @settings(max_examples=100, deadline=None)
    @given(sparse_matrices())
    def test_zeros_may_be_left_out(self, a):
        dense = rows_of(a.entries)
        sparse = [{k: v for k, v in row.items() if v} for row in dense]
        assert null_space(sparse, a.cols) == null_space(dense, a.cols)
        assert rank(sparse) == rank(dense)

    def test_explicit_zeros_and_empty_rows(self):
        rows = [{0: 1, 1: Fraction(0), 2: -1}, {}, {3: 0}, {1: Fraction(1, 2), 3: Fraction(0)}]
        basis = null_space(rows, 4)
        assert basis.free == [2, 3] and basis.pivots == rank(rows) == 2
        assert basis == [{0: 1, 2: 1}, {3: 1}]

    def test_trailing_zero_columns_are_free(self):
        basis = null_space([{0: 2, 1: -2}], 4)
        assert basis.free == [1, 2, 3]
        assert basis == [{0: 1, 1: 1}, {2: 1}, {3: 1}]

    def test_no_rows(self):
        assert rank([]) == rank([{}, {1: 0}]) == 0
        basis = null_space([], 2)
        assert basis == [{0: 1}, {1: 1}] and basis.free == [0, 1]
        assert basis.pivots == basis.max_bits == 0

    def test_waiting_row_is_rescaled_exactly(self):
        # regression input: the fourth row is eliminated at column 1, waits
        # on column 3 while column 2 is pivoted, then becomes the pivot of
        # column 3; an elimination that rescales waiting rows must do so
        # exactly here
        a = Matrix.from_rows(
            [[6, 0, 1, 0, 0, -1], [5, 0, 0, -4, -3, 0], [0, 6, 0, 1, 0, -6], [0, 5, 0, 5, 0, -3]]
        )
        basis = null_space(rows_of(a.entries), a.cols)
        expected_basis, expected_rank = gauss_jordan_kernel(a)
        assert reduced_basis(basis, basis.free, a.cols) == expected_basis
        assert rank(rows_of(a.entries)) == expected_rank == 4


class TestEigsSymmetric:
    def test_diagonal(self):
        w = eigs_symmetric(np.diag([1 - 0.5, 1 + 0.5]))
        assert np.allclose(w, [0.5, 1.5], atol=1e-14)

    def test_two_by_two_closed_form(self):
        f, b = 1.0, 0.5
        w = eigs_symmetric(np.array([[f, b], [b, f]]))
        assert np.allclose(w, [f - b, f + b], atol=1e-14)

    def test_free_chain_size4(self):
        from metric_forge.hamiltonian import HamiltonianSpec, build_hamiltonian

        h = build_hamiltonian(HamiltonianSpec(4, 0.0))
        w = eigs_symmetric(h)
        expected = sorted(2 - 2 * math.cos(k * math.pi / 5) for k in range(1, 5))
        assert np.allclose(w, expected, atol=1e-12)
        # independent route: roots of y^4 - 3 y^2 + 1 with y = 2 - E
        ys = np.roots([1, 0, -3, 0, 1])
        assert np.allclose(sorted(2 - ys.real), expected, atol=1e-10)

    def test_reconstruction_residual(self):
        # each eigenvalue makes m - w I singular, and the eigenvalues
        # rebuild the trace and the Frobenius norm of m
        rng = np.random.default_rng(11)
        a = rng.normal(size=(8, 8))
        m = a + a.T
        w = eigs_symmetric(m)
        scale = np.max(np.abs(m))
        for value in w:
            smallest = np.linalg.svd(m - value * np.eye(8), compute_uv=False)[-1]
            assert smallest <= 1e-10 * scale
        assert abs(np.sum(w) - np.trace(m)) <= 1e-10 * scale
        assert abs(np.sum(w**2) - np.sum(m**2)) <= 1e-10 * scale**2

    def test_permutation_similarity_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6))
        m = a + a.T
        p = np.eye(6)[rng.permutation(6)]
        w1 = eigs_symmetric(m)
        w2 = eigs_symmetric(p @ m @ p.T)
        assert np.allclose(w1, w2, atol=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eigs_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestEigsGeneral:
    def test_diagonal(self):
        w = eigs_general(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(w, [1, 2, 3])

    def test_size2_coupled_chain(self):
        from metric_forge.hamiltonian import HamiltonianSpec, build_hamiltonian

        h = build_hamiltonian(HamiltonianSpec(2, 0.6))
        w = eigs_general(h)
        # cross-check against companion-matrix roots of (2-E)^2 = 1 - lam^2
        roots = np.sort(np.roots([1.0, -4.0, 4.0 - (1.0 - 0.36)]))
        assert np.allclose(w.real, roots, atol=1e-12)
        assert np.allclose(w.real, [1.2, 2.8], atol=1e-12)
        assert np.max(np.abs(w.imag)) < 1e-12

    def test_complex_pair_beyond_unit_coupling(self):
        from metric_forge.hamiltonian import HamiltonianSpec, build_hamiltonian

        h = build_hamiltonian(HamiltonianSpec(4, 1.2))
        w = eigs_general(h)
        assert np.max(np.abs(w.imag)) > 1e-3
        # conjugate pairing: the multiset is closed under conjugation
        assert np.allclose(np.sort_complex(w), np.sort_complex(w.conj()), atol=1e-10)

    def test_trace_matches_eigenvalue_sum(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(7, 7))
        w = eigs_general(a)
        assert abs(np.sum(w) - np.trace(a)) <= 1e-9 * max(1.0, abs(np.trace(a)))

    def test_agrees_with_symmetric_solver(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 5))
        m = a + a.T
        w_general = np.sort(eigs_general(m).real)
        w_sym = eigs_symmetric(m)
        assert np.allclose(w_general, w_sym, atol=1e-8)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            eigs_general(np.ones((2, 3)))
        with pytest.raises(DimensionError):
            eigs_general(np.ones((2, 3, 3)))


def test_module_imports_only_stdlib_and_errors():
    tree = ast.parse(Path(exact.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [("." * node.level) + (node.module or "")]
        else:
            continue
        for module in modules:
            if module.startswith("."):
                assert module == ".errors", module
            else:
                assert module.split(".")[0] in sys.stdlib_module_names, module


# the modules that import only the standard library when they load
_STDLIB_ONLY = ("errors", "exact", "hamiltonian", "closedform", "oracle", "continuum")


def _module_level_imports(tree):
    """Names of the modules imported outside every function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")
        else:
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize(
    "name", ["errors", "hamiltonian", "closedform", "oracle", "continuum", "cli", "__init__"]
)
def test_module_level_imports_leave_out_numpy(name):
    # a float module imported at module level would bring numpy in as well
    path = Path(exact.__file__).with_name(f"{name}.py")
    for module in _module_level_imports(ast.parse(path.read_text(encoding="utf-8"))):
        if module.startswith("."):
            assert module[1:] in _STDLIB_ONLY, module
        else:
            assert module.split(".")[0] in sys.stdlib_module_names, module
