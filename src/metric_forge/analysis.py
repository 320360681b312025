"""Positivity analysis and the biorthogonal spectral representation.

A candidate metric is positive definite iff all eigenvalues are positive;
equivalently, writing Theta = sum_n t_n w_n w_n^T over the left
eigenvectors w_n of the chain, iff all spectral weights t_n are positive.
This module provides both verdicts, the conversion between coefficient
coordinates and spectral weights, the explicit low-size positivity
inequalities, and a seeded sampler over coefficient space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from .closedform import evaluate_basis_stack
from .errors import DegenerateSpectrumError, DimensionError, DomainError
from .exact import _as_float_array, eigs_symmetric
from .hamiltonian import HamiltonianSpec, _tridiagonal, build_hamiltonian, symmetric_similarity

__all__ = [
    "BiorthogonalSystem",
    "PositivityReport",
    "SampleRecord",
    "RegionSample",
    "biorthogonal_system",
    "theta_from_weights",
    "weights_from_theta",
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


def biorthogonal_system(
    spec: HamiltonianSpec, *, gap_tol: float = 1e-9
) -> BiorthogonalSystem:
    """Eigendecomposition with normalized biorthogonal partners.

    Requires |lam| < 1, where the symmetric similarity H = D S D^{-1}
    makes the spectrum real: with S = U diag(E) U^T, the right vectors are
    D U and the left vectors D^{-1} U, rescaled together so that the
    overlaps stay the identity.  (Nearly) degenerate spectra are rejected.
    """
    lam = float(spec.lam)
    if not -1.0 < lam < 1.0:
        raise DegenerateSpectrumError(
            "spectral representation requires a coupling inside (-1, 1)"
        )
    diag, off, scale = symmetric_similarity(spec)
    values, vectors = np.linalg.eigh(_tridiagonal(diag, off, off))
    bound = max(1.0, float(np.max(np.abs(values))))
    if np.min(np.diff(values)) <= gap_tol * bound:
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


def weights_from_theta(
    system: BiorthogonalSystem, theta: Any, *, tol: float = 1e-8
) -> np.ndarray:
    """Project a constraint-satisfying matrix onto its spectral weights.

    Candidates whose intertwining defect exceeds `tol` (relative to the
    candidate's magnitude) are rejected, since the projection would be
    meaningless for them.
    """
    arr = _as_float_array(theta)
    if arr.shape != (system.n, system.n):
        raise DimensionError("candidate size differs from the system")
    h = build_hamiltonian(HamiltonianSpec(system.n, system.lam))
    defect = float(np.max(np.abs(arr @ h - h.T @ arr)))
    if defect > tol * max(1.0, float(np.max(np.abs(arr)))):
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


def positivity(
    theta: Any, *, margin: float = POSITIVE_MARGIN, sym_tol: float = 1e-12
) -> PositivityReport:
    """Positive-definiteness verdict via the symmetric eigensolver.

    `margin` guards the verdict: minimum eigenvalues within it of zero
    are reported as not positive and flagged near-boundary.
    """
    values = eigs_symmetric(theta, tol=sym_tol)
    minimum = float(values[0])
    return PositivityReport(
        positive=minimum > margin,
        min_eigenvalue=minimum,
        eigenvalues=tuple(float(v) for v in values),
        near_boundary=abs(minimum) <= margin,
    )


def closed_form_margin(n: int, lam: float, alpha: Sequence[float]) -> float:
    """Smallest of the explicit positivity expressions; positive iff the
    candidate is positive definite.

    Size 2 (any |lam| < 1): alpha_1 and alpha_1^2 (1 - lam^2) - alpha_2^2.
    Size 4 at lam = 0: the four quantities
        2 alpha_1 - 2 alpha_4 - alpha_2 + alpha_3 +/- sqrt(5)(alpha_3 - alpha_2)
        2 alpha_1 + 2 alpha_4 + alpha_2 + alpha_3 +/- sqrt(5)(alpha_2 + alpha_3)
    which equal twice the eigenvalues of the candidate.
    """
    a = [float(v) for v in alpha]
    if len(a) != n:
        raise DimensionError(f"need exactly {n} coefficients")
    lam = float(lam)
    if n == 2:
        if not -1.0 < lam < 1.0:
            raise DomainError("size-2 inequalities need |lam| < 1")
        return min(a[0], a[0] * a[0] * (1.0 - lam * lam) - a[1] * a[1])
    if n == 4 and lam == 0.0:
        root5 = math.sqrt(5.0)
        a1, a2, a3, a4 = a
        expressions = (
            2.0 * a1 - 2.0 * a4 - a2 + a3 + root5 * (a3 - a2),
            2.0 * a1 - 2.0 * a4 - a2 + a3 - root5 * (a3 - a2),
            2.0 * a1 + 2.0 * a4 + a2 + a3 + root5 * (a2 + a3),
            2.0 * a1 + 2.0 * a4 + a2 + a3 - root5 * (a2 + a3),
        )
        return min(expressions)
    raise DomainError("closed-form inequalities cover size 2, or size 4 at lam = 0")


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


@dataclass(frozen=True)
class RegionSample:
    """Summary of a seeded sweep over coefficient space."""

    n: int
    lam: float
    seed: int
    count: int
    fraction_positive: float
    records: tuple[SampleRecord, ...]


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
    `margin` of zero are flagged near-boundary.
    """
    if count < 1:
        raise DomainError("need at least one sample")
    lam = float(lam)
    stack = evaluate_basis_stack(n, lam)
    # the domain of closed_form_margin
    has_closed_form = (n == 2 and -1.0 < lam < 1.0) or (n == 4 and lam == 0.0)
    system = None
    if -1.0 < lam < 1.0:
        system = biorthogonal_system(HamiltonianSpec(n, lam))
    rng = np.random.default_rng(seed)
    records = []
    positives = 0
    for _ in range(count):
        alpha = rng.uniform(-1.0, 1.0, n)
        if alpha[0] > 0:
            alpha = alpha / alpha[0]
        theta = np.tensordot(alpha, stack, axes=1)
        eigenvalues = np.linalg.eigvalsh(theta)
        minimum = float(eigenvalues[0])
        is_positive = minimum > POSITIVE_MARGIN
        positives += is_positive
        near = abs(minimum) <= margin
        cf_verdict: Optional[bool] = None
        if has_closed_form:
            cf_margin = closed_form_margin(n, lam, alpha)
            cf_verdict = cf_margin > 0.0
            near = near or abs(cf_margin) <= margin
        weights_verdict: Optional[bool] = None
        if system is not None:
            weights = np.einsum("in,ij,jn->n", system.right, theta, system.right)
            weights_verdict = bool(np.min(weights) > 0.0)
            near = near or float(np.min(np.abs(weights))) <= margin
        records.append(
            SampleRecord(
                alpha=tuple(float(v) for v in alpha),
                positive=is_positive,
                min_eigenvalue=minimum,
                closed_form_positive=cf_verdict,
                weights_positive=weights_verdict,
                near_boundary=near,
            )
        )
    return RegionSample(
        n=n,
        lam=lam,
        seed=seed,
        count=count,
        fraction_positive=positives / count,
        records=tuple(records),
    )
