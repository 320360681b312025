"""The one-coupling tridiagonal chain family and its spectra.

Every member is an n by n (n = 2K even) kinetic chain: 2 on the
diagonal, -1 on the off-diagonals, except that the middle bond carries
the only asymmetry, entry (K, K+1) = -1-lam against (K+1, K) = -1+lam
in 1-based indexing.  Transposition therefore flips the sign of the
coupling, and the spectrum stays real for |lam| < 1: there the two
middle-bond entries multiply to 1 - lam^2 > 0, so a diagonal similarity
maps the chain onto a symmetric tridiagonal matrix (Parlett, The
Symmetric Eigenvalue Problem), and every float eigensolve inside the
window goes through that symmetric form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Union

import numpy as np

from .errors import DimensionError, DomainError
from .exact import IntPolynomial, Matrix, eigs_general

ScalarLike = Union[int, float, Fraction]

__all__ = [
    "HamiltonianSpec",
    "SpectrumReport",
    "build_hamiltonian",
    "hamiltonian_polynomial",
    "closed_form_spectrum",
    "symmetric_similarity",
    "reality_scan",
]


@dataclass(frozen=True)
class HamiltonianSpec:
    """Size and coupling of one chain member.

    `lam` may be exact (int or Fraction) or a float; exact couplings
    propagate exact matrix entries.  `phi` is the angle with
    cos(phi) = lam, defined only inside the open interval (-1, 1).
    """

    n: int
    lam: ScalarLike = 0

    def __post_init__(self) -> None:
        if self.n < 2 or self.n % 2 != 0:
            raise DimensionError("matrix size must be an even integer >= 2")

    @property
    def k(self) -> int:
        """Middle index K = n/2 (1-based row of the asymmetric bond)."""
        return self.n // 2

    @property
    def is_exact(self) -> bool:
        return isinstance(self.lam, (int, Fraction))

    @property
    def phi(self) -> float | None:
        lam = float(self.lam)
        if -1.0 < lam < 1.0:
            return math.acos(lam)
        return None


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of one family member at one coupling."""

    lam: float
    eigenvalues: tuple[complex, ...]
    max_imag: float
    all_real: bool


def _chain_bands(n: int, lam: Any, one: Any) -> tuple[list, list, list]:
    """Diagonal, super-diagonal and sub-diagonal of the chain over the
    scalar kind of `one` (Fraction, float or IntPolynomial): 2 on the
    diagonal, -1 off it, and the middle bond -1 - lam above against
    -1 + lam below."""
    upper = [-one] * (n - 1)
    lower = list(upper)
    upper[n // 2 - 1] = -one - lam
    lower[n // 2 - 1] = -one + lam
    return [one + one] * n, upper, lower


def _band_matrix(n: int, lam: Any, one: Any) -> Matrix:
    diag, upper, lower = _chain_bands(n, lam, one)
    rows = [[one - one] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = diag[i]
    for i in range(n - 1):
        rows[i][i + 1] = upper[i]
        rows[i + 1][i] = lower[i]
    return Matrix.from_rows(rows)


def _tridiagonal(diag: Any, upper: Any, lower: Any) -> np.ndarray:
    """Dense float matrix with the given diagonal, super- and sub-diagonal."""
    return np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)


def build_hamiltonian(spec: HamiltonianSpec) -> Matrix | np.ndarray:
    """Dense chain member: a `Matrix` of Fractions for an exact coupling,
    a float numpy array otherwise."""
    if spec.is_exact:
        return _band_matrix(spec.n, Fraction(spec.lam), Fraction(1))
    return _tridiagonal(*_chain_bands(spec.n, float(spec.lam), 1.0))


def hamiltonian_polynomial(n: int) -> Matrix:
    """The chain member with the coupling kept symbolic (IntPolynomial entries)."""
    if n < 2 or n % 2 != 0:
        raise DimensionError("matrix size must be an even integer >= 2")
    return _band_matrix(n, IntPolynomial((0, 1)), IntPolynomial((1,)))


def closed_form_spectrum(spec: HamiltonianSpec) -> list[float]:
    """Explicit eigenvalues for sizes 2 and 4, ascending.

    Size 2: 2 -/+ sqrt(1 - lam^2).  Size 4: the four branches
    2 +/- sqrt(6 - 2 lam^2 +/- 2 sqrt(5 - 6 lam^2 + lam^4)) / 2, which are
    real exactly for |lam| < 1 (the inner radicand factors as
    (1 - lam^2)(5 - lam^2)).
    """
    if spec.n not in (2, 4):
        raise DomainError("closed-form spectrum is available for sizes 2 and 4 only")
    lam = float(spec.lam)
    if not -1.0 < lam < 1.0:
        raise DomainError("closed-form spectrum requires |lam| < 1")
    if spec.n == 2:
        s = math.sqrt(1.0 - lam * lam)
        return [2.0 - s, 2.0 + s]
    inner = math.sqrt(5.0 - 6.0 * lam * lam + lam ** 4)
    values = [
        2.0 + outer * 0.5 * math.sqrt(6.0 - 2.0 * lam * lam + pm * 2.0 * inner)
        for outer in (-1.0, 1.0)
        for pm in (-1.0, 1.0)
    ]
    return sorted(values)


def symmetric_similarity(spec: HamiltonianSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of S and diagonal of D with H = D S D^{-1}.

    S is symmetric tridiagonal: the chain with middle bond
    -sqrt(1 - lam^2); D = diag(1, ..., 1, r, ..., r) with
    r = sqrt((1 - lam)/(1 + lam)) on the right half.  Eigenvectors map
    back as right = D u and left = D^{-1} u.  Defined only for a coupling
    strictly inside (-1, 1), where both middle-bond entries are negative.
    """
    lam = float(spec.lam)
    if not -1.0 < lam < 1.0:
        raise DomainError("the symmetric similarity requires |lam| < 1")
    diag, upper, lower = (np.array(band) for band in _chain_bands(spec.n, lam, 1.0))
    # each bond of S is the geometric mean of the two entries of H, and D
    # grows across a bond by the square root of their ratio
    off = -np.sqrt(upper * lower)
    scale = np.cumprod(np.concatenate(([1.0], np.sqrt(lower / upper))))
    return diag, off, scale


def reality_scan(
    n: int, lambdas: Iterable[float], *, tol: float = 1e-9
) -> list[SpectrumReport]:
    """One spectrum report per grid value, in input order.

    Inside (-1, 1) the eigenvalues come from the symmetric similarity and
    are real by construction; elsewhere from the general dense solver.  A
    point is flagged all-real when every imaginary part stays within `tol`.
    """
    reports = []
    for lam in lambdas:
        spec = HamiltonianSpec(n, float(lam))
        if -1.0 < spec.lam < 1.0:
            diag, off, _ = symmetric_similarity(spec)
            values = np.linalg.eigvalsh(_tridiagonal(diag, off, off))
        else:
            values = eigs_general(build_hamiltonian(spec))
        eigenvalues = tuple(complex(v) for v in values)
        max_imag = max(abs(v.imag) for v in eigenvalues)
        reports.append(
            SpectrumReport(
                lam=spec.lam,
                eigenvalues=eigenvalues,
                max_imag=max_imag,
                all_real=max_imag <= tol,
            )
        )
    return reports
