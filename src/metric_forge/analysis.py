"""Float analysis of the chain: spectra, positivity and the biorthogonal
spectral representation.

This module holds the package's float linear algebra.  It lays out no
chain itself: it reads the bands of `hamiltonian._chain_bands` and the
rows of `_chain_rows`.  Here live the chain's symmetric similarity, the
reality scans across coupling grids, which split each chain into two
half-size problems by its reflection symmetry, and the float basis
stack.  A candidate metric is positive definite iff all eigenvalues are
positive; equivalently, writing Theta = sum_n t_n w_n w_n^T over the
left eigenvectors w_n of the chain, iff all spectral weights t_n are
positive.  This module provides both verdicts (the first through the
symmetric eigensolver `eigs_symmetric`), the conversion between
coefficient coordinates and spectral weights, the explicit low-size
positivity inequalities, a seeded sampler over coefficient space, and
the two-parameter positive metric family of the uncoupled chain.

Each float sweep has one result type, a NamedTuple of columns:
`ScanBlock` for the reality scan and `RegionSample` for the sampler.
`scan_blocks` and `sample_blocks` yield one per bounded block of points
or draws, and `reality_scan` and `sample_positivity_region` join the
blocks into one of the same type.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Iterator, NamedTuple, Optional, Sequence, TypeVar

import numpy as np

from .errors import DegenerateSpectrumError, DimensionError, DomainError
from .hamiltonian import HamiltonianSpec, _chain_bands, _chain_rows, _check_size

__all__ = [
    "symmetric_similarity",
    "ScanBlock",
    "scan_blocks",
    "reality_scan",
    "evaluate_basis_stack",
    "superpose",
    "BiorthogonalSystem",
    "PositivityReport",
    "RegionSample",
    "biorthogonal_system",
    "theta_from_weights",
    "weights_from_theta",
    "eigs_symmetric",
    "positivity",
    "closed_form_margin",
    "positivity_closed_form",
    "sample_blocks",
    "sample_positivity_region",
    "FreeMetricParams",
    "free_lattice_metric",
]

# Largest imaginary part of an eigenvalue that a reality scan reads as real.
REALITY_TOL = 1e-9

# Smallest eigenvalue a candidate needs to count as positive definite.
POSITIVE_MARGIN = 1e-10

# A sampled draw whose minimum eigenvalue, closed-form margin or smallest
# weight lies within this distance of zero is flagged near-boundary.
SAMPLE_MARGIN = 1e-8


# Most matrix entries a stacked float solve holds at once, with a floor of
# `_MIN_BLOCK_ROWS` matrices a block so that large sizes still batch.  It
# bounds both a block's numpy temporaries and the Python objects of its
# rows, for any number of points or draws.
_BLOCK_FLOATS = 2**12
_MIN_BLOCK_ROWS = 32


def _blocks(count: int, n: int) -> Iterator[slice]:
    """Consecutive slices that cover `count` n x n matrices, each within the budget."""
    step = max(_MIN_BLOCK_ROWS, _BLOCK_FLOATS // (n * n))
    return (slice(start, min(start + step, count)) for start in range(0, count, step))


_Block = TypeVar("_Block", bound=tuple)


def _joined(blocks: Sequence[_Block]) -> _Block:
    """The blocks of one sweep as one block of the same type: each column
    concatenated in order, and a None column left None."""
    return type(blocks[0])._make(
        None if parts[0] is None else np.concatenate(parts) for parts in zip(*blocks)
    )


def symmetric_similarity(n: int, lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of S and diagonal of D with H = D S D^{-1}.

    S is symmetric tridiagonal: the chain with middle bond
    -sqrt(1 - lam^2); D = diag(1, ..., 1, r, ..., r) with
    r = sqrt((1 - lam)/(1 + lam)) on the right half.  Eigenvectors map
    back as right = D u and left = D^{-1} u.  Defined only for couplings
    strictly inside (-1, 1), where both middle-bond entries are negative.
    """
    _check_size(n)
    lam = float(lam)
    if not -1.0 < lam < 1.0:
        raise DomainError("the symmetric similarity requires |lam| < 1")
    diag, upper, lower = map(np.array, _chain_bands(n, lam, 1.0))
    # each bond of S is the geometric mean of the two entries of H, and D
    # grows across a bond by the square root of their ratio
    off = -np.sqrt(upper * lower)
    scale = np.cumprod(np.concatenate(([1.0], np.sqrt(lower / upper))))
    return diag, off, scale


class ScanBlock(NamedTuple):
    """Consecutive points of a reality scan, as columns: the couplings (m,),
    the eigenvalues (m, n) as complex, and each point's largest imaginary
    part and all-real flag (m,)."""

    lams: np.ndarray
    eigenvalues: np.ndarray
    max_imag: np.ndarray
    all_real: np.ndarray


def scan_blocks(n: int, lambdas: Iterable[float], *, tol: float = REALITY_TOL) -> Iterator[ScanBlock]:
    """The points of `reality_scan` in input order, one solved block at a
    time: a block is solved only when it is asked for.  The size is
    checked and the couplings are read when this is called."""
    free = _free_half(n)
    lams = np.fromiter(map(float, lambdas), dtype=float)
    return (_scan_block(free, lams[part], tol) for part in _blocks(len(lams), n))


def _free_half(n: int) -> np.ndarray:
    """A of `reality_scan`: the upper-left K x K block of the chain, which
    the middle bond misses at every coupling.  A bad size is rejected."""
    half = HamiltonianSpec(n).k
    return np.array(_chain_rows(n, 0.0, 1.0, 0.0))[:half, :half]


def _scan_block(free: np.ndarray, lams: np.ndarray, tol: float) -> ScanBlock:
    # the two K x K factors A -/+ rE of `reality_scan`, A = `free`; lam^2
    # is never formed, being inexact near 1 and overflowing for huge couplings
    n = 2 * len(free)
    size = np.abs(lams)
    inside = size <= 1.0
    values = np.empty((len(lams), n), dtype=complex)
    if inside.any():
        r = np.sqrt(1.0 - size[inside]) * np.sqrt(1.0 + size[inside])
        halves = np.tile(free, (2, len(r), 1, 1))
        halves[0, :, -1, -1] -= r
        halves[1, :, -1, -1] += r
        values[inside] = np.concatenate(np.linalg.eigvalsh(halves), axis=-1)
    if not inside.all():
        # r = i s, and A - i s E is the complex conjugate of A + i s E
        s = np.sqrt(size[~inside] - 1.0) * np.sqrt(size[~inside] + 1.0)
        halves = np.tile(free.astype(complex), (len(s), 1, 1))
        halves[:, -1, -1] += 1j * s
        w = np.linalg.eigvals(halves)
        values[~inside] = np.concatenate((w, w.conj()), axis=-1)
    values.sort(axis=-1)  # complex order: by real part, then by imaginary part
    max_imag = np.max(np.abs(values.imag), axis=1)
    return ScanBlock(lams, values, max_imag, max_imag <= tol)


def reality_scan(n: int, lambdas: Iterable[float], *, tol: float = REALITY_TOL) -> ScanBlock:
    """The spectrum at every grid value, as one `ScanBlock` in input order.

    The symmetric similarity S of the chain commutes with the reflection
    of the sites, so its mirror-even and mirror-odd vectors split the
    spectrum into those of two K x K matrices, K = n/2: A - rE and A + rE,
    with A the free K-site chain, E = e_K e_K^T and r = sqrt(1 - lam^2)
    (Cantoni and Butler, Linear Algebra Appl. 13, 1976).  On the closed
    window |lam| <= 1 both are real symmetric and solved by `eigvalsh`, so
    the spectrum is real by construction, and at lam = +/-1 it is the free
    chain's, doubled.  Outside it r = i s, s = sqrt(lam^2 - 1), and the
    spectrum is w and conj(w), w the eigenvalues of A + i s E.  r and s
    are formed as sqrt(1 -/+ |lam|) sqrt(1 +/- |lam|), exact near 1 and
    finite for every finite coupling.  Each point is sorted by real
    part, then by imaginary part.  The points are solved in the
    stacked blocks of `scan_blocks`, each group of a block as one batch,
    and joined.  A point is flagged all-real when every imaginary part
    stays within `tol`.  An empty grid gives columns of length 0, with
    eigenvalues of shape (0, n).
    """
    blocks = list(scan_blocks(n, lambdas, tol=tol))
    return _joined(blocks) if blocks else _scan_block(_free_half(n), np.zeros(0), tol)


class BiorthogonalSystem(NamedTuple):
    """Right/left eigenvector pairs of one chain member.

    Right vectors sit in the columns of `right`, unit norm with the first
    nonvanishing component positive; `left` holds the columns of the
    inverse-transpose, so left'.right is the identity and the overlaps
    are biorthonormal by construction.
    """

    n: int
    lam: float
    energies: np.ndarray
    right: np.ndarray
    left: np.ndarray


def biorthogonal_system(spec: HamiltonianSpec) -> BiorthogonalSystem:
    """Eigendecomposition with normalized biorthogonal partners.

    Requires |lam| < 1, where the symmetric similarity H = D S D^{-1}
    makes the spectrum real: with S = U diag(E) U^T, the right vectors are
    D U and the left vectors D^{-1} U, rescaled together so that the
    overlaps stay the identity.  (Nearly) degenerate spectra, with a gap
    within 1e-9 of the largest eigenvalue magnitude (at least 1), are
    rejected.
    """
    lam = float(spec.lam)
    if not -1.0 < lam < 1.0:
        raise DegenerateSpectrumError(
            "spectral representation requires a coupling inside (-1, 1)"
        )
    diag, off, scale = symmetric_similarity(spec.n, lam)
    values, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    bound = max(1.0, float(np.max(np.abs(values))))
    if np.min(np.diff(values)) <= 1e-9 * bound:
        raise DegenerateSpectrumError("spectrum is (nearly) degenerate")
    right = scale[:, None] * vectors
    norms = np.linalg.norm(right, axis=0)
    lead = np.argmax(np.abs(right) > 1e-12 * norms, axis=0)
    factor = np.sign(right[lead, np.arange(spec.n)]) / norms
    return BiorthogonalSystem(
        n=spec.n,
        lam=lam,
        energies=values,
        right=right * factor,
        left=vectors / scale[:, None] / factor,
    )


def theta_from_weights(system: BiorthogonalSystem, weights: Sequence[float]) -> np.ndarray:
    """Assemble sum_n t_n w_n w_n^T from the left eigenvectors.

    The result always satisfies the quasi-Hermiticity constraint and is
    positive definite exactly when all weights are positive.
    """
    t = np.asarray(weights, dtype=float)
    if t.shape != (system.n,):
        raise DimensionError(f"need exactly {system.n} weights")
    return (system.left * t) @ system.left.T


def weights_from_theta(system: BiorthogonalSystem, theta: Any) -> np.ndarray:
    """Project a constraint-satisfying float matrix onto its spectral
    weights.

    Candidates that `oracle.verify_membership` rejects are rejected, since
    the projection would be meaningless for them.
    """
    from .oracle import verify_membership

    arr = np.asarray(theta, dtype=float)
    member, defect = verify_membership(arr, HamiltonianSpec(system.n, system.lam))
    if not member:
        raise DomainError(f"matrix violates the intertwining relation (defect {defect:.3e})")
    return np.einsum("in,ij,jn->n", system.right, arr, system.right)


class PositivityReport(NamedTuple):
    """Eigenvalue-based positivity verdict for a symmetric candidate."""

    positive: bool
    min_eigenvalue: float
    eigenvalues: tuple[float, ...]
    near_boundary: bool


def eigs_symmetric(m: Any) -> np.ndarray:
    """Ascending eigenvalues of a real symmetric float matrix.

    Input whose asymmetry (max-norm) exceeds 1e-12 times its largest
    entry magnitude (at least 1) is rejected; within it the matrix is
    symmetrized before the solve.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("expected a square matrix")
    asym = float(np.max(np.abs(a - a.T)))
    bound = 1e-12 * max(1.0, float(np.max(np.abs(a))))
    if asym > bound:
        raise ValueError(f"matrix is not symmetric (asymmetry {asym:.3e} > {bound:.3e})")
    return np.linalg.eigvalsh(0.5 * (a + a.T))


def positivity(theta: Any) -> PositivityReport:
    """Positive-definiteness verdict via the symmetric eigensolver.

    `POSITIVE_MARGIN` guards the verdict: minimum eigenvalues within it
    of zero are reported as not positive and flagged near-boundary.
    """
    values = eigs_symmetric(theta)
    minimum = float(values[0])
    return PositivityReport(
        positive=minimum > POSITIVE_MARGIN,
        min_eigenvalue=minimum,
        eigenvalues=tuple(float(v) for v in values),
        near_boundary=abs(minimum) <= POSITIVE_MARGIN,
    )


def closed_form_margin(n: int, lam: float, alpha: Any) -> float | np.ndarray:
    """Smallest of the explicit positivity expressions; positive iff the
    candidate is positive definite.

    Size 2 (any |lam| < 1): alpha_1 and alpha_1^2 (1 - lam^2) - alpha_2^2.
    Size 4 at lam = 0: the four quantities
        2 alpha_1 - 2 alpha_4 - alpha_2 + alpha_3 +/- sqrt(5)(alpha_3 - alpha_2)
        2 alpha_1 + 2 alpha_4 + alpha_2 + alpha_3 +/- sqrt(5)(alpha_2 + alpha_3)
    which equal twice the eigenvalues of the candidate.  One coefficient
    vector gives a float; a (count, n) array gives one margin per row.
    """
    a = np.asarray(alpha, dtype=float)
    if a.shape[-1:] != (n,):
        raise DimensionError(f"need exactly {n} coefficients")
    lam = float(lam)
    if n == 2:
        if not -1.0 < lam < 1.0:
            raise DomainError("size-2 inequalities need |lam| < 1")
        a1, a2 = np.moveaxis(a, -1, 0)
        margin = np.minimum(a1, a1 * a1 * (1.0 - lam * lam) - a2 * a2)
    elif n == 4 and lam == 0.0:
        root5 = math.sqrt(5.0)
        a1, a2, a3, a4 = np.moveaxis(a, -1, 0)
        expressions = (
            2.0 * a1 - 2.0 * a4 - a2 + a3 + root5 * (a3 - a2),
            2.0 * a1 - 2.0 * a4 - a2 + a3 - root5 * (a3 - a2),
            2.0 * a1 + 2.0 * a4 + a2 + a3 + root5 * (a2 + a3),
            2.0 * a1 + 2.0 * a4 + a2 + a3 - root5 * (a2 + a3),
        )
        margin = np.min(expressions, axis=0)
    else:
        raise DomainError("closed-form inequalities cover size 2, or size 4 at lam = 0")
    return float(margin) if margin.ndim == 0 else margin


def positivity_closed_form(n: int, lam: float, alpha: Sequence[float]) -> bool:
    """Literal evaluation of the explicit positivity inequalities."""
    return closed_form_margin(n, lam, alpha) > 0.0


class RegionSample(NamedTuple):
    """A seeded sweep over coefficient space, or one block of its draws, as
    columns in the order of the `positivity --sample` CSV.

    `alphas` has shape (count, n); the other columns have length count.
    A verdict column that does not apply at the size and coupling is None.
    """

    alphas: np.ndarray
    minima: np.ndarray
    positive: np.ndarray
    closed_form_positive: Optional[np.ndarray]
    weights_positive: Optional[np.ndarray]
    near_boundary: np.ndarray

    @property
    def count(self) -> int:
        return len(self.minima)

    @property
    def fraction_positive(self) -> float:
        return int(np.count_nonzero(self.positive)) / self.count


def evaluate_basis_stack(n: int, lam: float) -> np.ndarray:
    """Float stack of the basis family at one coupling, shape (n, n, n).
    A coupling so large that an entry overflows is rejected."""
    from .closedform import basis_family

    family = basis_family(n)  # rejects a bad size before the stack exists
    lam = float(lam)
    stack = np.zeros((n, n, n))
    for element, plane in zip(family, stack):
        for (i, k), value in element.values(lam).items():
            plane[i - 1, k - 1] = value
    if not np.isfinite(stack).all():
        raise DomainError(f"basis entries overflow at lam = {lam!r}")
    return stack


def superpose(stack: np.ndarray, alphas: Any) -> np.ndarray:
    """Theta = sum_j alpha_j M_j over a basis stack (n, n, n) for each row
    of `alphas` (count, n), as (count, n, n).  The batched matmul gives a
    row the bits it gets alone, which a 2-D product of the rows does not."""
    n = len(stack)
    rows = np.asarray(alphas, dtype=float)[:, None, :]
    return np.matmul(rows, stack.reshape(n, n * n)).reshape(-1, n, n)


def sample_blocks(n: int, lam: float, seed: int, count: int) -> Iterator[RegionSample]:
    """The draws of `sample_positivity_region` in draw order, one solved
    block at a time, each a `RegionSample` of its own draws: a block is
    drawn from the sweep's one generator and solved only when it is asked
    for.  The count, the basis stack and the biorthogonal system are
    checked and built when this is called."""
    if count < 1:
        raise DomainError("need at least one sample")
    lam = float(lam)
    stack = evaluate_basis_stack(n, lam)
    right = biorthogonal_system(HamiltonianSpec(n, lam)).right if -1.0 < lam < 1.0 else None
    rng = np.random.default_rng(seed)
    return (
        _sample_block(n, lam, stack, right, rng.uniform(-1.0, 1.0, (part.stop - part.start, n)))
        for part in _blocks(count, n)
    )


def _sample_block(
    n: int, lam: float, stack: np.ndarray, right: Optional[np.ndarray], alphas: np.ndarray
) -> RegionSample:
    lead = alphas[:, 0] > 0
    alphas[lead] /= alphas[lead, :1]
    thetas = superpose(stack, alphas)
    minima = np.linalg.eigvalsh(thetas)[:, 0]
    near = np.abs(minima) <= SAMPLE_MARGIN
    try:
        cf_margin = closed_form_margin(n, lam, alphas)
    except DomainError:
        cf_positive = None
    else:
        cf_positive = cf_margin > 0.0
        near |= np.abs(cf_margin) <= SAMPLE_MARGIN
    weights_positive = None
    if right is not None:
        weights = np.einsum("in,sij,jn->sn", right, thetas, right)
        weights_positive = np.min(weights, axis=1) > 0.0
        near |= np.min(np.abs(weights), axis=1) <= SAMPLE_MARGIN
    positive = minima > POSITIVE_MARGIN
    return RegionSample(alphas, minima, positive, cf_positive, weights_positive, near)


def sample_positivity_region(n: int, lam: float, seed: int, count: int) -> RegionSample:
    """Draw coefficient vectors uniformly from [-1, 1]^n and record the
    positivity verdicts.

    Vectors with a positive leading coefficient are rescaled so it equals
    one (the verdict is scale invariant).  Verdict columns that do not
    apply at the given size/coupling are recorded as None.  Samples whose
    minimum eigenvalue, closed-form margin, or smallest weight lies within
    `SAMPLE_MARGIN` of zero are flagged near-boundary.  The draws are
    solved in the stacked blocks of `sample_blocks` and joined into one
    sample; each sample's arithmetic is that of a lone solve.
    """
    return _joined(list(sample_blocks(n, lam, seed, count)))


class FreeMetricParams(NamedTuple):
    """Parameters of the free-chain metric family
    exp(-f) (cosh(k) I - sinh(k) J), with J the lattice parity."""

    f: float = 0.0
    k: float = 0.0


def free_lattice_metric(
    n: int, params: FreeMetricParams
) -> tuple[np.ndarray, PositivityReport]:
    """Two-parameter metric of the uncoupled chain.

    Only the identity-like and parity-like basis matrices survive the
    continuum limit at zero coupling; their hyperbolic combination has
    eigenvalues exp(-f -/+ k), each of multiplicity n/2, hence is positive
    for every parameter choice and commutes with the free chain exactly.
    """
    _check_size(n)
    a = math.exp(-params.f) * math.cosh(params.k)
    b = -math.exp(-params.f) * math.sinh(params.k)
    theta = a * np.eye(n) + b * np.fliplr(np.eye(n))
    return theta, positivity(theta)
