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
from typing import Iterable, Union

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


def build_hamiltonian(spec: HamiltonianSpec) -> Matrix:
    """Dense matrix of the chain member; exact entries for exact couplings."""
    if spec.is_exact:
        lam: ScalarLike = Fraction(spec.lam)
        one: ScalarLike = Fraction(1)
    else:
        lam = float(spec.lam)
        one = 1.0
    zero = one - one
    two = one + one
    mid = spec.k
    rows = []
    for i in range(1, spec.n + 1):
        row = []
        for j in range(1, spec.n + 1):
            if i == j:
                row.append(two)
            elif i == mid and j == mid + 1:
                row.append(-one - lam)
            elif i == mid + 1 and j == mid:
                row.append(-one + lam)
            elif abs(i - j) == 1:
                row.append(-one)
            else:
                row.append(zero)
        rows.append(row)
    return Matrix.from_rows(rows)


def hamiltonian_polynomial(n: int) -> Matrix:
    """The chain member with the coupling kept symbolic (IntPolynomial entries)."""
    if n < 2 or n % 2 != 0:
        raise DimensionError("matrix size must be an even integer >= 2")
    zero = IntPolynomial()
    one = IntPolynomial((1,))
    two = IntPolynomial((2,))
    x = IntPolynomial((0, 1))
    mid = n // 2
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if i == j:
                row.append(two)
            elif i == mid and j == mid + 1:
                row.append(-one - x)
            elif i == mid + 1 and j == mid:
                row.append(-one + x)
            elif abs(i - j) == 1:
                row.append(-one)
            else:
                row.append(zero)
        rows.append(row)
    return Matrix.from_rows(rows)


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
    k = spec.k
    diag = np.full(spec.n, 2.0)
    off = np.full(spec.n - 1, -1.0)
    off[k - 1] = -math.sqrt((1.0 - lam) * (1.0 + lam))
    scale = np.ones(spec.n)
    scale[k:] = math.sqrt((1.0 - lam) / (1.0 + lam))
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
            s = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            values = np.linalg.eigvalsh(s)
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
