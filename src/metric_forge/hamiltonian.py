"""The one-coupling tridiagonal chain family and its spectra.

Every member is an n by n (n = 2K even) kinetic chain: 2 on the
diagonal, -1 on the off-diagonals, except that the middle bond carries
the only asymmetry, entry (K, K+1) = -1-lam against (K+1, K) = -1+lam
in 1-based indexing.  Transposition therefore flips the sign of the
coupling, and the spectrum stays real for |lam| < 1: there the two
middle-bond entries multiply to 1 - lam^2 > 0, so a diagonal similarity
maps the chain onto a symmetric tridiagonal matrix (Parlett, The
Symmetric Eigenvalue Problem).  There every eigenvalue is also explicit,
one root of the chain's secular equation each (`closed_form_spectrum`).
`_chain_rows` alone lays the bands out, as rows of Python scalars, for
every chain of the package: exact, symbolic and float.  This module
imports only the standard library, and numpy only inside the float branch
of `build_hamiltonian`; that similarity and the dense float eigensolves
live in `analysis`.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Any, NamedTuple

from .errors import DimensionError, DomainError

if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Union

    ScalarLike = Union[int, float, Fraction]

__all__ = [
    "HamiltonianSpec",
    "build_hamiltonian",
    "closed_form_spectrum",
]


class _Spec(NamedTuple):
    n: int
    lam: ScalarLike = 0


class HamiltonianSpec(_Spec):
    """Size and coupling of one chain member.

    `lam` may be exact (int or Fraction) or a float; exact couplings
    propagate exact matrix entries.  `phi` is the angle with
    cos(phi) = lam, defined only inside the open interval (-1, 1).
    """

    __slots__ = ()

    def __new__(cls, n: int, lam: ScalarLike = 0) -> HamiltonianSpec:
        _check_size(n)
        return super().__new__(cls, n, lam)

    @property
    def k(self) -> int:
        """Middle index K = n/2 (1-based row of the asymmetric bond)."""
        return self.n // 2

    @property
    def is_exact(self) -> bool:
        # a Fraction exists only once `fractions` is loaded, which this
        # module leaves to the exact paths
        fractions = sys.modules.get("fractions")
        return isinstance(self.lam, int) or (
            fractions is not None and isinstance(self.lam, fractions.Fraction)
        )

    @property
    def phi(self) -> float | None:
        if -1 < self.lam < 1:
            return math.acos(float(self.lam))
        return None


def _check_size(n: int) -> None:
    """The size rule of every chain, basis and lattice: an even integer >= 2."""
    if n < 2 or n % 2 != 0:
        raise DimensionError("size must be an even integer >= 2")


def _float_coupling(lam: ScalarLike) -> float:
    """`lam` as a float; an exact coupling beyond the float range is an error."""
    try:
        return float(lam)
    except OverflowError as exc:
        raise DomainError("the coupling is too large for a float") from exc


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


def _chain_rows(n: int, lam: Any, one: Any, zero: Any) -> list[list]:
    """The chain as n rows of n cells: `_chain_bands` in place, `zero` off them."""
    diag, upper, lower = _chain_bands(n, lam, one)
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = diag[i]
    for i in range(n - 1):
        rows[i][i + 1] = upper[i]
        rows[i + 1][i] = lower[i]
    return rows


def build_hamiltonian(spec: HamiltonianSpec) -> Any:
    """Dense chain member: for an exact coupling a `Matrix` of Fractions
    on the three bands and the int 0 off them, a float numpy array
    otherwise."""
    if spec.is_exact:
        from fractions import Fraction

        from .exact import Matrix

        return Matrix.from_rows(_chain_rows(spec.n, Fraction(spec.lam), Fraction(1), 0))
    import numpy as np

    return np.array(_chain_rows(spec.n, float(spec.lam), 1.0, 0.0))


def _secular_root(n: int, lam: float, state: int) -> float:
    """The angle eps of the state-th eigenvalue 4 sin^2(eps/2) of the
    chain (ascending, 1-based) at a float coupling inside (-1, 1).

    Away from the middle bond an eigenvector is an exact sine on each
    half: psi_k = sin(k eps) for k <= K and psi_{n+1-k} = +/- r sin(k eps),
    with r = sqrt((1 - lam)/(1 + lam)).  The two middle rows leave the
    secular equation sin((K+1) eps) = +/- c sin(K eps), c = sqrt(1 - lam^2).
    State s is its one root inside ((m-1) pi/K, m pi/K), m = ceil(s/2),
    with the + sign for odd s.  The function sin((K+1) eps) -/+ c sin(K eps)
    has the sign (-1)^(m-1) just above the lower end (it is positive at
    0+), so bisection compares signs with that end only, until the
    midpoint equals an end: the upper end pi of m = K is a root with no
    eigenvector.
    """
    half = n // 2
    c = (-1.0) ** (state + 1) * math.sqrt(1.0 - lam * lam)
    m = (state + 1) // 2
    lower_positive = m % 2 == 1
    lo, hi = (m - 1) * math.pi / half, m * math.pi / half
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if (math.sin((half + 1) * mid) - c * math.sin(half * mid) > 0.0) == lower_positive:
            lo = mid
        else:
            hi = mid
    return mid


def closed_form_spectrum(spec: HamiltonianSpec) -> list[float]:
    """Explicit eigenvalues 4 sin^2(eps/2), ascending, one secular root
    eps each (`_secular_root`), for every size and |lam| < 1.  At size 2
    (K = 1) the secular equation reads 2 cos(eps) = +/- sqrt(1 - lam^2),
    which gives the paper's 2 -/+ sqrt(1 - lam^2) with no root to find."""
    if not -1 < spec.lam < 1:
        raise DomainError("closed-form spectrum requires |lam| < 1")
    lam = float(spec.lam)
    if spec.n == 2:
        s = math.sqrt(1.0 - lam * lam)
        return [2.0 - s, 2.0 + s]
    return [
        4.0 * math.sin(0.5 * _secular_root(spec.n, lam, state)) ** 2
        for state in range(1, spec.n + 1)
    ]
