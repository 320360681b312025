import math
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest

from metric_forge import analysis
from metric_forge.analysis import (
    POSITIVE_MARGIN,
    RegionSample,
    ScanBlock,
    biorthogonal_system,
    closed_form_margin,
    evaluate_basis_stack,
    positivity,
    positivity_closed_form,
    reality_scan,
    sample_blocks,
    sample_positivity_region,
    scan_blocks,
    theta_from_weights,
    weights_from_theta,
)
from metric_forge.closedform import assemble_theta
from metric_forge.continuum import matching_data, opaque_wall_check
from metric_forge.errors import (
    DegenerateSpectrumError,
    DimensionError,
    DomainError,
)
from metric_forge.hamiltonian import HamiltonianSpec, build_hamiltonian
from metric_forge.oracle import verify_membership
from referees import free_size4_margin, paper_size2_margin


def _columns(block):
    """The columns of a sweep's block as lists, with None for a None column."""
    return [None if column is None else column.tolist() for column in block]


def _concatenated(blocks):
    """The columns of `blocks`, each joined as one list in block order; a
    column is None only when it is None in every block."""
    parts = zip(*map(_columns, blocks))
    return [
        None if all(p is None for p in part) else list(chain.from_iterable(part)) for part in parts
    ]


def _sample_one_by_one(n, lam, seed, count, margin=1e-8):
    """The sampler one draw at a time, the reference for the batched one:
    the columns of `RegionSample` as lists, with None for a verdict that
    does not apply at the size and coupling."""
    stack = evaluate_basis_stack(n, lam)
    right = biorthogonal_system(HamiltonianSpec(n, lam)).right if -1 < lam < 1 else None
    rng = np.random.default_rng(seed)
    columns = [[] for _ in RegionSample._fields]
    for _ in range(count):
        alpha = rng.uniform(-1.0, 1.0, n)
        if alpha[0] > 0:
            alpha = alpha / alpha[0]
        theta = np.tensordot(alpha, stack, axes=1)
        minimum = float(np.linalg.eigvalsh(theta)[0])
        near = abs(minimum) <= margin
        cf_positive = weights_positive = None
        try:
            cf = closed_form_margin(n, lam, alpha)
        except DomainError:
            pass
        else:
            cf_positive = cf > 0.0
            near = near or abs(cf) <= margin
        if right is not None:
            weights = np.einsum("in,ij,jn->n", right, theta, right)
            weights_positive = bool(np.min(weights) > 0.0)
            near = near or float(np.min(np.abs(weights))) <= margin
        draw = (alpha.tolist(), minimum, minimum > POSITIVE_MARGIN, cf_positive, weights_positive, near)
        for column, value in zip(columns, draw):
            column.append(value)
    return [None if None in column else column for column in columns]


def _assert_verdicts_agree(result):
    """Away from the boundary, every verdict column equals `positive`."""
    far = ~result.near_boundary
    for verdicts in (result.closed_form_positive, result.weights_positive):
        assert np.array_equal(verdicts[far], result.positive[far])


class TestBiorthogonalSystem:
    def test_size2_matches_displayed_vectors(self):
        phi = math.acos(0.5)
        c, s = math.cos(phi), math.sin(phi)
        system = biorthogonal_system(HamiltonianSpec(2, 0.5))
        assert np.allclose(system.energies, [2 - s, 2 + s], atol=1e-12)
        # right vectors proportional to (1 + c, +/- s), left to (1 - c, +/- s);
        # ascending energy order puts the +s pair first
        for idx, sign in ((0, 1.0), (1, -1.0)):
            right = system.right[:, idx]
            assert abs(right[1] / right[0] - sign * s / (1 + c)) < 1e-12
            left = system.left[:, idx]
            assert abs(left[1] / left[0] - sign * s / (1 - c)) < 1e-12

    def test_size2_cross_overlap_vanishes_identically(self):
        # (1 - c)(1 + c) - s^2 = 0 exactly
        phi = 1.234
        c, s = math.cos(phi), math.sin(phi)
        assert abs((1 - c) * (1 + c) - s * s) < 1e-15

    def test_size4_biorthonormality(self):
        system = biorthogonal_system(HamiltonianSpec(4, 0.5))
        overlap = system.left.T @ system.right
        assert np.max(np.abs(overlap - np.eye(4))) < 1e-10

    def test_left_vectors_are_transpose_eigenvectors(self):
        system = biorthogonal_system(HamiltonianSpec(6, 0.3))
        h = build_hamiltonian(HamiltonianSpec(6, 0.3))
        for idx in range(6):
            w = system.left[:, idx]
            residual = np.max(np.abs(h.T @ w - system.energies[idx] * w))
            assert residual < 1e-9 * max(1.0, np.max(np.abs(w)))

    def test_right_vector_sign_convention(self):
        system = biorthogonal_system(HamiltonianSpec(8, -0.4))
        for idx in range(8):
            column = system.right[:, idx]
            lead = column[np.argmax(np.abs(column) > 1e-12)]
            assert lead > 0

    def test_rejects_coupling_outside_unit_interval(self):
        with pytest.raises(DegenerateSpectrumError):
            biorthogonal_system(HamiltonianSpec(4, 1.2))

    def test_well_conditioned_near_exceptional_point(self):
        spec = HamiltonianSpec(40, -0.9999)
        system = biorthogonal_system(spec)
        h = build_hamiltonian(spec)
        left, right = system.left, system.right
        assert np.max(np.abs(h.T @ left - left * system.energies)) <= 5e-13
        assert np.max(np.abs(left.T @ right - np.eye(40))) <= 1e-13


class TestThetaFromWeights:
    def test_reproduces_displayed_size2_matrix(self):
        phi = math.acos(0.35)
        c, s = math.cos(phi), math.sin(phi)
        system = biorthogonal_system(HamiltonianSpec(2, 0.35))
        t_minus, t_plus = 0.25, 0.7  # ascending order pairs (E-, E+)
        theta = theta_from_weights(system, [t_minus, t_plus])
        displayed = np.array(
            [
                [(1 - c) ** 2 * (t_plus + t_minus), (1 - c) * s * (-t_plus + t_minus)],
                [(1 - c) * s * (-t_plus + t_minus), s * s * (t_plus + t_minus)],
            ]
        )
        scale = theta[0, 0] / displayed[0, 0]
        assert scale > 0
        assert np.max(np.abs(theta - scale * displayed)) < 1e-12

    def test_equal_weights_kill_offdiagonal_size2(self):
        system = biorthogonal_system(HamiltonianSpec(2, 0.6))
        theta = theta_from_weights(system, [0.8, 0.8])
        assert abs(theta[0, 1]) < 1e-14
        assert abs(theta[1, 0]) < 1e-14

    def test_intertwining_residual_size4(self):
        system = biorthogonal_system(HamiltonianSpec(4, 0.5))
        theta = theta_from_weights(system, [1.0, 1.0, 1.0, 1.0])
        h = build_hamiltonian(HamiltonianSpec(4, 0.5))
        assert np.max(np.abs(theta @ h - h.T @ theta)) < 1e-9

    def test_positive_weights_give_positive_matrix(self):
        system = biorthogonal_system(HamiltonianSpec(6, 0.4))
        theta = theta_from_weights(system, [0.5, 1.0, 2.0, 0.1, 3.0, 0.7])
        assert positivity(theta).positive

    def test_wrong_length_rejected(self):
        system = biorthogonal_system(HamiltonianSpec(2, 0.1))
        with pytest.raises(DimensionError):
            theta_from_weights(system, [1.0])


class TestWeightsFromTheta:
    def test_roundtrip_from_weights(self):
        system = biorthogonal_system(HamiltonianSpec(4, 0.3))
        t = np.array([0.3, 1.4, 0.9, 2.2])
        recovered = weights_from_theta(system, theta_from_weights(system, t))
        assert np.max(np.abs(recovered - t)) < 1e-10

    def test_split_diagonal_gives_positive_weights(self):
        lam = 0.45
        system = biorthogonal_system(HamiltonianSpec(2, lam))
        theta = np.diag([1 - lam, 1 + lam])
        weights = weights_from_theta(system, theta)
        assert np.all(weights > 0)

    def test_identity_rejected_at_nonzero_coupling(self):
        system = biorthogonal_system(HamiltonianSpec(4, 0.5))
        with pytest.raises(DomainError):
            weights_from_theta(system, np.eye(4))

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_coefficient_roundtrip(self, n):
        rng = np.random.default_rng(17)
        for _ in range(5):
            lam = float(rng.uniform(-0.8, 0.8))
            alpha = rng.uniform(-1.0, 1.0, n)
            theta = assemble_theta(n, lam, alpha)
            system = biorthogonal_system(HamiltonianSpec(n, lam))
            weights = weights_from_theta(system, theta)
            rebuilt = theta_from_weights(system, weights)
            assert np.max(np.abs(theta - rebuilt)) <= 1e-9


class TestOneMembershipRule:
    """`weights_from_theta` accepts a float candidate exactly when
    `verify_membership` does, at every scale."""

    n, lam = 12, 0.7

    def _members(self):
        system = biorthogonal_system(HamiltonianSpec(self.n, self.lam))
        coefficients = np.arange(1.0, self.n + 1)
        return system, [
            assemble_theta(self.n, self.lam, coefficients),
            theta_from_weights(system, coefficients),
        ]

    @staticmethod
    def _verdicts(system, theta):
        member = verify_membership(theta, HamiltonianSpec(system.n, system.lam)).member
        try:
            weights_from_theta(system, theta)
        except DomainError:
            return member, False
        return member, True

    @pytest.mark.parametrize("k", range(9))
    def test_scaled_members_are_accepted(self, k):
        system, members = self._members()
        for theta in members:
            assert self._verdicts(system, 10.0**k * theta) == (True, True)

    @pytest.mark.parametrize("k", range(9))
    @pytest.mark.parametrize("size", [5e-9, 1e-6])
    def test_perturbed_candidates_are_rejected(self, k, size):
        # a symmetric bump of `size` times the largest entry
        system, members = self._members()
        for theta in members:
            theta = 10.0**k * theta
            bump = np.zeros((self.n, self.n))
            bump[0, 1] = bump[1, 0] = size * np.max(np.abs(theta))
            assert self._verdicts(system, theta + bump) == (False, False)

    def test_identity_is_rejected(self):
        system = biorthogonal_system(HamiltonianSpec(4, 0.5))
        assert self._verdicts(system, np.eye(4)) == (False, False)


class TestPositivity:
    @pytest.mark.parametrize("n, lam", [(4, 0.3), (12, 0.9)])
    @pytest.mark.parametrize("k", range(9))
    def test_scaled_built_metric_is_solved(self, n, lam, k):
        # the symmetry cut scales with the matrix, so a metric the package
        # built is never refused for its rounding
        system = biorthogonal_system(HamiltonianSpec(n, lam))
        report = positivity(theta_from_weights(system, 10.0**k * np.arange(1, n + 1)))
        assert report.positive

    def test_size2_inequality_examples(self):
        lam = 0.6
        positive = positivity(assemble_theta(2, lam, [1.0, 0.5]))
        assert positive.positive
        negative = positivity(assemble_theta(2, lam, [1.0, 0.9]))
        assert not negative.positive

    def test_identity(self):
        report = positivity(np.eye(3))
        assert report.positive and abs(report.min_eigenvalue - 1.0) < 1e-14

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            positivity(np.array([[1.0, 0.5], [0.0, 2.0]]))

    def test_scaling_covariance(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 5))
        m = a @ a.T + 0.3 * np.eye(5)
        base = positivity(m)
        for c in (0.5, 3.0, 117.0):
            scaled = positivity(c * m)
            assert scaled.positive == base.positive
            assert abs(scaled.min_eigenvalue - c * base.min_eigenvalue) <= 1e-12 * abs(
                c * base.min_eigenvalue
            )

    def test_near_boundary_flag(self):
        report = positivity(np.diag([1.0, 1e-14]))
        assert not report.positive
        assert report.near_boundary


class TestClosedForm:
    """The cone rule of `closed_form_margin` against the paper's explicit
    expressions, which the tests keep as referees (`tests/referees.py`)."""

    def test_identity_coefficients_size4(self):
        # Theta = M_1 = I at lam = 0: every p(x_k) is 1, the referee reads 2
        assert closed_form_margin(4, 0.0, [1, 0, 0, 0]) == 1.0
        assert free_size4_margin([1, 0, 0, 0]) == 2.0
        assert positivity_closed_form(4, 0.0, [1, 0, 0, 0])

    def test_boundary_sample_size4(self):
        # expressions evaluate to {10 +/- 2 sqrt5, 0, 0}: boundary, not positive
        margin = closed_form_margin(4, 0.0, [2, -1, 1, -2])
        assert margin == 0.0 == free_size4_margin([2, -1, 1, -2])
        assert not positivity_closed_form(4, 0.0, [2, -1, 1, -2])
        eigenvalues = positivity(assemble_theta(4, 0.0, [2, -1, 1, -2])).eigenvalues
        golden = [0.0, 0.0, 5 - math.sqrt(5), 5 + math.sqrt(5)]
        assert np.allclose(eigenvalues, golden, atol=1e-12)

    def test_strictly_positive_sample_size4(self):
        assert closed_form_margin(4, 0.0, [4, -1, 1, -1]) == 3.0
        assert free_size4_margin([4, -1, 1, -1]) == 6.0
        assert positivity_closed_form(4, 0.0, [4, -1, 1, -1])

    def test_margin_is_the_eigenvalue_and_half_the_referee_size4(self):
        # at lam = 0, Theta_0 = I and Theta = p(2 - H) is symmetric, so the
        # margin is its smallest eigenvalue, and the paper's expressions
        # are twice the eigenvalues
        rng = np.random.default_rng(9)
        for _ in range(50):
            alpha = rng.uniform(-1, 1, 4)
            margin = closed_form_margin(4, 0.0, alpha)
            eigenvalues = np.linalg.eigvalsh(assemble_theta(4, 0.0, alpha))
            assert abs(margin - eigenvalues[0]) < 1e-12
            assert abs(free_size4_margin(alpha) - 2.0 * margin) < 1e-12

    def test_size2_examples(self):
        assert positivity_closed_form(2, 0.6, [1.0, 0.5])
        assert not positivity_closed_form(2, 0.6, [1.0, 0.9])
        assert not positivity_closed_form(2, 0.0, [-1.0, 0.0])

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("lam", [1.0, -1.0, 1.5, -1e300])
    def test_outside_the_window_is_a_domain_error(self, n, lam):
        with pytest.raises(DomainError):
            closed_form_margin(n, lam, np.ones(n))

    @pytest.mark.parametrize(
        "n, alpha", [(4, [1, 0, 0]), (4, np.ones((3, 5))), (3, [1, 0, 0]), (0, [])]
    )
    def test_bad_shapes_are_dimension_errors(self, n, alpha):
        with pytest.raises(DimensionError):
            closed_form_margin(n, 0.3, alpha)

    def test_one_vector_gives_a_float_and_a_stack_one_margin_a_row(self):
        rows = np.random.default_rng(1).uniform(-1, 1, (7, 6))
        margins = closed_form_margin(6, 0.4, rows)
        assert margins.shape == (7,)
        assert [closed_form_margin(6, 0.4, row) for row in rows] == margins.tolist()
        assert type(closed_form_margin(6, 0.4, rows[0])) is float


# the cone table: sizes and couplings, each cell with its own seed
CONE_SIZES = (2, 4, 6, 8, 12)
CONE_COUPLINGS = (0.0, 0.3, -0.7, 0.95)


class TestConeTable:
    """The cone verdict of `closed_form_margin` over fixed seeded draws at
    every size and coupling of the table, against the eigenvalue verdict,
    the spectral weights and the paper's explicit expressions."""

    @pytest.mark.parametrize("n", CONE_SIZES)
    @pytest.mark.parametrize("lam", CONE_COUPLINGS)
    def test_cone_equals_eigenvalues_and_weights(self, n, lam):
        seed = 100 * CONE_SIZES.index(n) + CONE_COUPLINGS.index(lam)
        alphas = np.random.default_rng(seed).uniform(-1.0, 1.0, (1000, n))
        margins = closed_form_margin(n, lam, alphas)
        thetas = analysis.superpose(evaluate_basis_stack(n, lam), alphas)
        minima = np.linalg.eigvalsh(thetas)[:, 0]
        right = biorthogonal_system(HamiltonianSpec(n, lam)).right
        weights = np.einsum("in,sij,jn->sn", right, thetas, right)
        # the spectral weights are (1 - lam^2) p(x_k), in the same ascending
        # order of the energies: the mirror halves of each unit right vector
        # carry equal norm
        values = analysis.superpose(analysis._cone(n, lam), alphas)
        assert np.array_equal(values.min(axis=1), margins)
        scaled = (1.0 - lam) * (1.0 + lam) * values
        assert np.max(np.abs(weights - scaled)) <= 1e-12 * np.max(np.abs(scaled))
        weights = weights.min(axis=1)
        far = np.min(np.abs([margins, minima, weights]), axis=0) > analysis.SAMPLE_MARGIN
        assert far.sum() > 990
        assert np.array_equal((margins > 0)[far], (minima > 0)[far])
        assert np.array_equal((margins > 0)[far], (weights > 0)[far])
        # the sampler prints the same verdict for the same draws
        sample = sample_positivity_region(n, lam, seed, 1000)
        far = ~sample.near_boundary
        assert np.array_equal(sample.closed_form_positive[far], sample.positive[far])
        assert np.array_equal(sample.closed_form_positive[far], sample.weights_positive[far])

    @pytest.mark.parametrize("lam", CONE_COUPLINGS)
    def test_paper_size2_pair_agrees_in_sign(self, lam):
        alphas = np.random.default_rng(7).uniform(-1.0, 1.0, (5000, 2))
        margins, paper = closed_form_margin(2, lam, alphas), paper_size2_margin(lam, alphas)
        far = np.minimum(np.abs(margins), np.abs(paper)) > analysis.SAMPLE_MARGIN
        assert far.sum() > 4990
        assert np.array_equal((margins > 0)[far], (paper > 0)[far])

    def test_paper_size4_expressions_agree_and_are_twice_the_margin(self):
        alphas = np.random.default_rng(8).uniform(-1.0, 1.0, (5000, 4))
        margins, paper = closed_form_margin(4, 0.0, alphas), free_size4_margin(alphas)
        assert np.max(np.abs(paper - 2.0 * margins)) < 1e-12
        far = np.abs(margins) > analysis.SAMPLE_MARGIN
        assert np.array_equal((margins > 0)[far], (paper > 0)[far])

    @pytest.mark.parametrize("n", CONE_SIZES)
    @pytest.mark.parametrize("lam", [1 - 1e-11, -(1 - 1e-11)])
    def test_first_member_next_to_the_exceptional_points(self, n, lam):
        # Theta = Theta_0 has smallest eigenvalue 1 - |lam| = 1e-11, inside
        # the absolute POSITIVE_MARGIN, while its cone margin is 1 at every k
        alpha = np.zeros(n)
        alpha[0] = 1.0
        assert closed_form_margin(n, lam, alpha) == 1.0
        assert positivity_closed_form(n, lam, alpha)
        assert not positivity_closed_form(n, lam, -alpha)
        assert not positivity(assemble_theta(n, lam, alpha)).positive


class TestSampling:
    def test_size2_fraction_and_agreement(self):
        result = sample_positivity_region(2, 0.0, seed=42, count=2000)
        # positive iff alpha_1 > 0 and |alpha_2| < alpha_1: probability 1/4
        assert abs(result.fraction_positive - 0.25) < 0.05
        _assert_verdicts_agree(result)

    def test_size4_free_agreement(self):
        _assert_verdicts_agree(sample_positivity_region(4, 0.0, seed=7, count=1500))

    def test_determinism(self):
        a = sample_positivity_region(4, 0.25, seed=3, count=64)
        b = sample_positivity_region(4, 0.25, seed=3, count=64)
        assert _columns(a) == _columns(b)

    def test_leading_coefficient_rescale(self):
        result = sample_positivity_region(2, 0.0, seed=1, count=100)
        lead = result.alphas[:, 0] > 0
        assert lead.any() and np.all(result.alphas[lead, 0] == 1.0)

    @pytest.mark.parametrize("n", [2, 6])
    @pytest.mark.parametrize("lam", [1.0, 1.5])
    def test_outside_window_leaves_closed_form_empty(self, n, lam):
        # the closed form, like the weights, is defined only for |lam| < 1
        result = sample_positivity_region(n, lam, seed=5, count=20)
        assert result.closed_form_positive is None
        assert result.weights_positive is None

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_first_basis_vector_always_positive(self, n):
        alpha = np.zeros(n)
        alpha[0] = 1.0
        for lam in (-0.98, -0.5, 0.0, 0.5, 0.98):
            stack = evaluate_basis_stack(n, lam)
            theta = np.tensordot(alpha, stack, axes=1)
            assert positivity(theta).positive

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("lam", [0.0, 0.37, -0.8, 1.0, -1.3])
    def test_batched_equals_one_by_one(self, monkeypatch, n, lam):
        monkeypatch.setattr(analysis, "SAMPLE_MARGIN", 1e-3)
        result = sample_positivity_region(n, lam, seed=11, count=300)
        assert _columns(result) == _sample_one_by_one(n, lam, 11, 300, margin=1e-3)

    @pytest.mark.parametrize("count", [1, 5, 23])
    def test_block_edges_equal_one_by_one(self, monkeypatch, count):
        # five draws per block at n = 6
        monkeypatch.setattr(analysis, "_BLOCK_FLOATS", 5 * 36)
        monkeypatch.setattr(analysis, "_MIN_BLOCK_ROWS", 1)
        result = sample_positivity_region(6, 0.2, seed=4, count=count)
        assert _columns(result) == _sample_one_by_one(6, 0.2, 4, count)

    @pytest.mark.parametrize("n, lam", [(4, 0.0), (6, 1.5)])
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, 0), (1, 1)])
    def test_blocks_follow_the_columns(self, n, lam, blocks, extra):
        # one draw, one sampler block, and one block plus one draw
        step = max(analysis._MIN_BLOCK_ROWS, analysis._BLOCK_FLOATS // (n * n))
        count = blocks * step + extra
        result = sample_positivity_region(n, lam, seed=3, count=count)
        parts = list(sample_blocks(n, lam, 3, count))
        assert [part.count for part in parts] == [step] * blocks + [extra] * (extra > 0)
        assert result.count == count
        start = 0
        for part in parts:
            window = slice(start, start + part.count)
            for column, whole in zip(part, result):
                assert column is whole is None or np.array_equal(column, whole[window])
            start += part.count

    def test_count_validation(self):
        with pytest.raises(DomainError):
            sample_positivity_region(2, 0.0, seed=0, count=0)


class TestJoinedBlocks:
    """`reality_scan` and `sample_positivity_region` return the columns of
    their block generators joined in order, here three points or draws a
    block."""

    @pytest.fixture(autouse=True)
    def three_rows_a_block(self, monkeypatch):
        monkeypatch.setattr(analysis, "_BLOCK_FLOATS", 1)
        monkeypatch.setattr(analysis, "_MIN_BLOCK_ROWS", 3)

    @pytest.mark.parametrize("n", [2, 6])
    def test_scan_inside_and_outside_the_window(self, n):
        grid = [-1.5, -1.0, -0.5, 0.0, 0.5, 0.999, 1.0, 1.2]
        assert [len(block.lams) for block in scan_blocks(n, grid)] == [3, 3, 2]
        scan = reality_scan(n, grid)
        assert type(scan) is ScanBlock
        assert _columns(scan) == _concatenated(scan_blocks(n, grid))
        # real inside the window and complex at -1.5 and 1.2; at the edges
        # +/-1 the flag rests on the general solver's rounding, so it is left out
        assert scan.all_real[2:6].all() and not scan.all_real[[0, -1]].any()

    def test_scan_of_one_point(self):
        assert _columns(reality_scan(4, [0.3])) == _concatenated(scan_blocks(4, [0.3]))

    def test_scan_of_an_empty_grid(self):
        scan = reality_scan(6, [])
        assert list(scan_blocks(6, [])) == []
        assert [(column.shape, column.dtype) for column in scan] == [
            ((0,), float), ((0, 6), complex), ((0,), float), ((0,), bool)
        ]

    @pytest.mark.parametrize("n, lam, verdicts", [(6, 1.5, False), (2, 0.3, True)])
    @pytest.mark.parametrize("count", [1, 8])
    def test_sample(self, n, lam, verdicts, count):
        result = sample_positivity_region(n, lam, seed=9, count=count)
        assert type(result) is RegionSample and result.count == count
        assert _columns(result) == _concatenated(sample_blocks(n, lam, 9, count))
        present = [column is not None for column in result[3:5]]
        assert present == [verdicts, verdicts]


class TestCouplingBeyondFloatRange:
    # every library route from an exact coupling to a float reads it through
    # `hamiltonian._float_coupling`, so it raises DomainError, never OverflowError
    @pytest.mark.parametrize(
        "call",
        [
            lambda lam: analysis.symmetric_similarity(4, lam),
            lambda lam: biorthogonal_system(HamiltonianSpec(4, lam)),
            lambda lam: evaluate_basis_stack(4, lam),
            lambda lam: assemble_theta(4, lam, (1.0, 0.0, 0.0, 0.0)),
            lambda lam: closed_form_margin(2, lam, (1.0, 0.5)),
            lambda lam: scan_blocks(4, [0.5, lam]),
            lambda lam: reality_scan(4, [0.5, lam]),
            lambda lam: sample_blocks(4, lam, 0, 10),
            lambda lam: sample_positivity_region(4, lam, 0, 10),
            lambda lam: opaque_wall_check(lam, [20, 40]),
            lambda lam: matching_data(HamiltonianSpec(40, lam)),
            lambda lam: verify_membership(np.eye(4), HamiltonianSpec(4, lam)),
        ],
        ids=[
            "symmetric_similarity",
            "biorthogonal_system",
            "evaluate_basis_stack",
            "assemble_theta",
            "closed_form_margin",
            "scan_blocks",
            "reality_scan",
            "sample_blocks",
            "sample_positivity_region",
            "opaque_wall_check",
            "matching_data",
            "verify_membership",
        ],
    )
    def test_rejected_as_a_domain_error(self, call):
        with pytest.raises(DomainError, match="too large for a float"):
            call(Fraction(10**400, 3))
