"""The one-coupling tridiagonal chain family and its spectra.

Every member is an n by n (n = 2K even) kinetic chain: 2 on the
diagonal, -1 on the off-diagonals, except that the middle bond carries
the only asymmetry, entry (K, K+1) = -1-lam against (K+1, K) = -1+lam
in 1-based indexing.  Transposition therefore flips the sign of the
coupling, and the spectrum stays real for |lam| < 1: there the two
middle-bond entries multiply to 1 - lam^2 > 0, so a diagonal similarity
maps the chain onto a symmetric tridiagonal matrix (Parlett, The
Symmetric Eigenvalue Problem), and every float eigensolve inside the
window goes through that symmetric form; outside it the general dense
solver `eigs_general` is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Iterator, Union

import numpy as np

from .errors import DimensionError, DomainError
from .exact import IntPolynomial, Matrix

ScalarLike = Union[int, float, Fraction]

__all__ = [
    "HamiltonianSpec",
    "SpectrumReport",
    "build_hamiltonian",
    "hamiltonian_polynomial",
    "closed_form_spectrum",
    "symmetric_similarity",
    "eigs_general",
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


# Most matrix entries a stacked float solve holds at once; bounds the
# memory of a batch for any number of points or draws.
_BLOCK_FLOATS = 2**18


def _blocks(count: int, n: int) -> Iterator[slice]:
    """Consecutive slices over `count` n x n matrices, each within the budget."""
    step = max(1, _BLOCK_FLOATS // (n * n))
    return (slice(start, start + step) for start in range(0, count, step))


def _float_bands(n: int, lam: Any) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_chain_bands` at a float coupling, or at each coupling of a 1-D
    array, with the batch axis first."""
    lam = np.asarray(lam, dtype=float)
    return tuple(
        np.moveaxis(np.array(band), 0, -1) for band in _chain_bands(n, lam, np.ones_like(lam))
    )


def _tridiagonal(diag: Any, upper: Any, lower: Any) -> np.ndarray:
    """Dense float matrix with the given diagonal, super- and sub-diagonal,
    or a stack of them when the bands carry a leading batch axis."""
    diag = np.asarray(diag, dtype=float)
    n = diag.shape[-1]
    i = np.arange(n)
    out = np.zeros(diag.shape + (n,))
    out[..., i, i] = diag
    out[..., i[:-1], i[1:]] = upper
    out[..., i[1:], i[:-1]] = lower
    return out


def build_hamiltonian(spec: HamiltonianSpec) -> Matrix | np.ndarray:
    """Dense chain member: a `Matrix` of Fractions for an exact coupling,
    a float numpy array otherwise."""
    if spec.is_exact:
        return _band_matrix(spec.n, Fraction(spec.lam), Fraction(1))
    return _tridiagonal(*_float_bands(spec.n, spec.lam))


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


def symmetric_similarity(n: int, lam: Any) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of S and diagonal of D with H = D S D^{-1}.

    S is symmetric tridiagonal: the chain with middle bond
    -sqrt(1 - lam^2); D = diag(1, ..., 1, r, ..., r) with
    r = sqrt((1 - lam)/(1 + lam)) on the right half.  Eigenvectors map
    back as right = D u and left = D^{-1} u.  `lam` is a float, or a 1-D
    array of couplings that puts a leading batch axis on all three
    results.  Defined only for couplings strictly inside (-1, 1), where
    both middle-bond entries are negative.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all((-1.0 < lam) & (lam < 1.0)):
        raise DomainError("the symmetric similarity requires |lam| < 1")
    diag, upper, lower = _float_bands(n, lam)
    # each bond of S is the geometric mean of the two entries of H, and D
    # grows across a bond by the square root of their ratio
    off = -np.sqrt(upper * lower)
    growth = np.sqrt(lower / upper)
    first = np.ones(growth.shape[:-1] + (1,))
    scale = np.cumprod(np.concatenate((first, growth), axis=-1), axis=-1)
    return diag, off, scale


def eigs_general(m: Any) -> np.ndarray:
    """Eigenvalues of a real square float matrix, sorted by (real,
    imaginary); given an (m, n, n) stack, those of each matrix, one row
    per matrix.

    Complex eigenvalues of a real matrix come in exactly conjugate pairs
    (LAPACK guarantees the pairing); sorting keeps the multiset stable.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise DimensionError("expected a square matrix or a stack of them")
    w = np.linalg.eigvals(a)
    order = np.lexsort((w.imag, w.real), axis=-1)
    return np.take_along_axis(w, order, axis=-1)


def reality_scan(
    n: int, lambdas: Iterable[float], *, tol: float = 1e-9
) -> list[SpectrumReport]:
    """One spectrum report per grid value, in input order.

    Inside (-1, 1) the eigenvalues come from the symmetric similarity and
    are real by construction; elsewhere from the general dense solver.
    The points are solved in stacked blocks, each group of a block as one
    batch.  A point is flagged all-real when every imaginary part stays
    within `tol`.
    """
    HamiltonianSpec(n)  # rejects an odd or too small size
    lams = np.array([float(lam) for lam in lambdas])
    values = np.zeros((len(lams), n), dtype=complex)
    for part in _blocks(len(lams), n):
        block, out = lams[part], values[part]
        inside = (-1.0 < block) & (block < 1.0)
        if inside.any():
            diag, off, _ = symmetric_similarity(n, block[inside])
            out[inside] = np.linalg.eigvalsh(_tridiagonal(diag, off, off))
        if not inside.all():
            out[~inside] = eigs_general(_tridiagonal(*_float_bands(n, block[~inside])))
    max_imag = np.max(np.abs(values.imag), axis=1)
    return [
        SpectrumReport(lam=lam, eigenvalues=tuple(row), max_imag=imag, all_real=imag <= tol)
        for lam, row, imag in zip(lams.tolist(), values.tolist(), max_imag.tolist())
    ]
