"""Positivity analysis and the biorthogonal spectral representation.

A candidate metric is positive definite iff all eigenvalues are positive;
equivalently, writing Theta = sum_n t_n w_n w_n^T over the left
eigenvectors w_n of the chain, iff all spectral weights t_n are positive.
This module provides both verdicts (the first through the symmetric
eigensolver `eigs_symmetric`), the conversion between coefficient
coordinates and spectral weights, the explicit low-size positivity
inequalities, and a seeded sampler over coefficient space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from .closedform import evaluate_basis_stack
from .errors import DegenerateSpectrumError, DimensionError, DomainError
from .hamiltonian import (
    HamiltonianSpec,
    _blocks,
    _tridiagonal,
    build_hamiltonian,
    symmetric_similarity,
)

__all__ = [
    "BiorthogonalSystem",
    "PositivityReport",
    "SampleRecord",
    "RegionSample",
    "biorthogonal_system",
    "theta_from_weights",
    "weights_from_theta",
    "eigs_symmetric",
    "positivity",
    "closed_form_margin",
    "positivity_closed_form",
    "sample_positivity_region",
]

# Smallest eigenvalue a candidate needs to count as positive definite.
POSITIVE_MARGIN = 1e-10


@dataclass(frozen=True, eq=False)
class BiorthogonalSystem:
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
    values, vectors = np.linalg.eigh(_tridiagonal(diag, off, off))
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

    Candidates whose intertwining defect exceeds 1e-8 times the
    candidate's magnitude (at least 1) are rejected, since the projection
    would be meaningless for them.
    """
    arr = np.asarray(theta, dtype=float)
    if arr.shape != (system.n, system.n):
        raise DimensionError("candidate size differs from the system")
    h = build_hamiltonian(HamiltonianSpec(system.n, system.lam))
    defect = float(np.max(np.abs(arr @ h - h.T @ arr)))
    if defect > 1e-8 * max(1.0, float(np.max(np.abs(arr)))):
        raise DomainError(
            f"matrix violates the intertwining relation (defect {defect:.3e})"
        )
    return np.einsum("in,ij,jn->n", system.right, arr, system.right)


@dataclass(frozen=True)
class PositivityReport:
    """Eigenvalue-based positivity verdict for a symmetric candidate."""

    positive: bool
    min_eigenvalue: float
    eigenvalues: tuple[float, ...]
    near_boundary: bool


def eigs_symmetric(m: Any) -> np.ndarray:
    """Ascending eigenvalues of a real symmetric float matrix.

    Input with asymmetry beyond 1e-12 (absolute, max-norm) is rejected;
    within it the matrix is symmetrized before the solve.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("expected a square matrix")
    asym = float(np.max(np.abs(a - a.T)))
    if asym > 1e-12:
        raise ValueError(f"matrix is not symmetric (asymmetry {asym:.3e} > 1.000e-12)")
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


@dataclass(frozen=True)
class SampleRecord:
    """One sampled coefficient vector with all available verdicts."""

    alpha: tuple[float, ...]
    positive: bool
    min_eigenvalue: float
    closed_form_positive: Optional[bool]
    weights_positive: Optional[bool]
    near_boundary: bool


@dataclass(frozen=True, eq=False)
class RegionSample:
    """A seeded sweep over coefficient space, one array entry per draw.

    `alphas` has shape (count, n); the other columns have length count.
    A verdict column that does not apply at the size and coupling is None.
    """

    n: int
    lam: float
    seed: int
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

    def rows(self) -> Iterator[tuple]:
        """Per-draw tuples in `SampleRecord` field order, of Python scalars
        (the alpha entry a list), converted one sampler block at a time so
        that the Python objects of only one block are held at once."""
        columns = (
            self.alphas,
            self.positive,
            self.minima,
            self.closed_form_positive,
            self.weights_positive,
            self.near_boundary,
        )
        for part in _blocks(self.count, self.n):
            yield from zip(*(repeat(None) if c is None else c[part].tolist() for c in columns))

    @property
    def records(self) -> tuple[SampleRecord, ...]:
        """The draws as `SampleRecord`s, built on each read."""
        return tuple(SampleRecord(tuple(alpha), *rest) for alpha, *rest in self.rows())


def sample_positivity_region(
    n: int,
    lam: float,
    seed: int,
    count: int,
    *,
    margin: float = 1e-8,
) -> RegionSample:
    """Draw coefficient vectors uniformly from [-1, 1]^n and record the
    positivity verdicts.

    Vectors with a positive leading coefficient are rescaled so it equals
    one (the verdict is scale invariant).  Verdict columns that do not
    apply at the given size/coupling are recorded as None.  Samples whose
    minimum eigenvalue, closed-form margin, or smallest weight lies within
    `margin` of zero are flagged near-boundary.  The draws are solved in
    stacked blocks; each sample's arithmetic is that of a lone solve.
    """
    if count < 1:
        raise DomainError("need at least one sample")
    lam = float(lam)
    stack = evaluate_basis_stack(n, lam).reshape(n, n * n)
    alphas = np.random.default_rng(seed).uniform(-1.0, 1.0, (count, n))
    lead = alphas[:, 0] > 0
    alphas[lead] /= alphas[lead, :1]
    right = None
    if -1.0 < lam < 1.0:
        right = biorthogonal_system(HamiltonianSpec(n, lam)).right
        lowest_weight = np.empty(count)
        nearest_weight = np.empty(count)
    minima = np.empty(count)
    for part in _blocks(count, n):
        # a batched matmul keeps each theta bit-identical to a lone
        # tensordot; a 2-D product of the whole block does not
        thetas = np.matmul(alphas[part, None, :], stack).reshape(-1, n, n)
        minima[part] = np.linalg.eigvalsh(thetas)[:, 0]
        if right is not None:
            weights = np.einsum("in,sij,jn->sn", right, thetas, right)
            lowest_weight[part] = np.min(weights, axis=1)
            nearest_weight[part] = np.min(np.abs(weights), axis=1)
    near = np.abs(minima) <= margin
    try:
        cf_margin = closed_form_margin(n, lam, alphas)
    except DomainError:
        cf_positive = None
    else:
        cf_positive = cf_margin > 0.0
        near |= np.abs(cf_margin) <= margin
    weights_positive = None
    if right is not None:
        weights_positive = lowest_weight > 0.0
        near |= nearest_weight <= margin
    return RegionSample(
        n=n,
        lam=lam,
        seed=seed,
        alphas=alphas,
        minima=minima,
        positive=minima > POSITIVE_MARGIN,
        closed_form_positive=cf_positive,
        weights_positive=weights_positive,
        near_boundary=near,
    )
