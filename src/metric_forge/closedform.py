"""Recurrent closed-form construction of the complete metric family.

Every admissible metric of the n-point chain is a superposition
Theta(lam) = sum_j alpha_j M_j(lam) of n sparse polynomial matrices.
Each M_j is encoded by an incidence matrix S_j that records, per occupied
position, the degree of the polynomial entry; the entry alphabet is

    degree 2m:     (1 - lam^2)^m
    degree 2m+1:   (1 -/+ lam) (1 - lam^2)^m

with the minus factor above the antidiagonal (i + k < n + 1), the plus
factor below it, and only even degrees on the antidiagonal itself.  The
incidence matrices grow recurrently from the two-point base case; the
growth rules are validated against the closed-form occupancy rule at
every step, and the full family is cross-checked against the exact
brute-force solution space in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Any, Literal, Mapping, Optional, Sequence

import numpy as np

from .errors import ConstructionError, DimensionError, DomainError
from .exact import IntPolynomial, Matrix
from .hamiltonian import hamiltonian_polynomial

Sign = Optional[Literal["minus", "plus"]]

__all__ = [
    "SignedPolynomial",
    "IncidenceMatrix",
    "MetricBasisElement",
    "entry_polynomial",
    "occupancy_positions",
    "occupancy_matrix",
    "incidence_family",
    "triangle_entry",
    "basis_element",
    "basis_family",
    "evaluate_basis_stack",
    "assemble_theta",
    "reflection_symmetry_holds",
    "intertwining_defect",
]

_ONE_MINUS = IntPolynomial((1, -1))
_ONE_PLUS = IntPolynomial((1, 1))
_ONE_MINUS_SQUARE = IntPolynomial((1, 0, -1))


@cache
def entry_polynomial(degree: int, sign: Sign = None) -> IntPolynomial:
    """Member of the entry alphabet: (1 - x^2)^(degree//2), times (1 - x)
    or (1 + x) for odd degrees depending on `sign`."""
    if degree < 0:
        raise DomainError("degree must be nonnegative")
    base = _ONE_MINUS_SQUARE ** (degree // 2)
    if degree % 2 == 0:
        return base
    if sign == "minus":
        return _ONE_MINUS * base
    if sign == "plus":
        return _ONE_PLUS * base
    raise DomainError("odd degree requires sign 'minus' or 'plus'")


@dataclass(frozen=True)
class SignedPolynomial:
    """Degree plus triangle sign, resolving to one alphabet polynomial."""

    degree: int
    sign: Sign = None

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise DomainError("degree must be nonnegative")
        if self.degree % 2 == 1 and self.sign not in ("minus", "plus"):
            raise DomainError("odd degree requires sign 'minus' or 'plus'")

    @property
    def polynomial(self) -> IntPolynomial:
        return entry_polynomial(self.degree, self.sign)


def _check_indices(n: int, j: int) -> None:
    if n < 2 or n % 2 != 0:
        raise DimensionError("size must be an even integer >= 2")
    if not 1 <= j <= n:
        raise DomainError(f"family index must lie in 1..{n}")


@cache
def occupancy_positions(n: int, j: int) -> frozenset[tuple[int, int]]:
    """1-based positions occupied by the j-th basis matrix.

    A position (i, k) is occupied iff i - k lies in {j-1, j-3, ..., 1-j}
    and n + 1 - i - k lies in {n-j, n-j-2, ..., j-n}.
    """
    _check_indices(n, j)
    occupied = set()
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            d = i - k
            t = n + 1 - i - k
            if (
                abs(d) <= j - 1
                and (d - (j - 1)) % 2 == 0
                and abs(t) <= n - j
                and (t - (n - j)) % 2 == 0
            ):
                occupied.add((i, k))
    return frozenset(occupied)


def occupancy_matrix(n: int, j: int) -> Matrix:
    """0/1 matrix of the occupied positions; equals the j-th basis matrix
    evaluated at coupling zero."""
    occupied = occupancy_positions(n, j)
    return Matrix.from_rows(
        [
            [1 if (i, k) in occupied else 0 for k in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
    )


@dataclass(frozen=True)
class IncidenceMatrix:
    """Sparse (i, k) -> degree pattern for one basis element; positions
    absent from `degrees` are structural zeros."""

    n: int
    j: int
    degrees: Mapping[tuple[int, int], int]

    def __post_init__(self) -> None:
        _check_indices(self.n, self.j)
        plain = dict(self.degrees)
        object.__setattr__(self, "degrees", plain)
        for (i, k), degree in plain.items():
            if not (1 <= i <= self.n and 1 <= k <= self.n):
                raise ConstructionError(f"position {(i, k)} outside the matrix")
            if degree < 0:
                raise ConstructionError("degrees must be nonnegative")
            if plain.get((k, i)) != degree:
                raise ConstructionError("pattern must be symmetric")

    def degree(self, i: int, k: int) -> int | None:
        return self.degrees.get((i, k))

    @property
    def positions(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.degrees))


def _embed_centered(degrees: Mapping[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    return {(i + 1, k + 1): d for (i, k), d in degrees.items()}


@cache
def incidence_family(n: int) -> tuple[IncidenceMatrix, ...]:
    """All n incidence matrices, grown recurrently from the size n-2 family.

    With K = n/2, and every rule first embedding its predecessor centered
    (both indices shifted by one):

    * j < K: embed the same-j predecessor, then complete the pattern with
      degree-1 entries on the corner antidiagonal segments i + k = j + 1
      and i + k = 2n + 1 - j (j entries each).
    * j = K: take the previous central matrix, raise every stored degree
      by one, reflect it left-right, embed, then add degree-1 entries on
      the segments i + k = K + 1 and i + k = 3K + 1 (K entries each).
    * j > K: embed the (j-2)-nd predecessor, then append degree-0 entries
      along the corner diagonals i - k = -(j - 1) and i - k = j - 1
      (n + 1 - j entries each).

    The occupancy of every result is checked against the closed-form
    position rule; a mismatch raises ConstructionError.
    """
    if n < 2 or n % 2 != 0:
        raise DimensionError("size must be an even integer >= 2")
    if n == 2:
        return (
            IncidenceMatrix(2, 1, {(1, 1): 1, (2, 2): 1}),
            IncidenceMatrix(2, 2, {(1, 2): 0, (2, 1): 0}),
        )
    half = n // 2
    previous = incidence_family(n - 2)
    members = []
    for j in range(1, n + 1):
        if j < half:
            degrees = _embed_centered(previous[j - 1].degrees)
            for t in range(1, j + 1):
                degrees[(t, j + 1 - t)] = 1
            for i in range(n + 1 - j, n + 1):
                degrees[(i, 2 * n + 1 - j - i)] = 1
        elif j == half:
            source = previous[half - 2]
            width = n - 2
            mirrored = {
                (i, width + 1 - k): degree + 1
                for (i, k), degree in source.degrees.items()
            }
            degrees = _embed_centered(mirrored)
            for t in range(1, half + 1):
                degrees[(t, half + 1 - t)] = 1
            for i in range(half + 1, n + 1):
                degrees[(i, 3 * half + 1 - i)] = 1
        else:
            degrees = _embed_centered(previous[j - 3].degrees)
            for t in range(1, n + 2 - j):
                degrees[(t, t + j - 1)] = 0
                degrees[(t + j - 1, t)] = 0
        if frozenset(degrees) != occupancy_positions(n, j):
            raise ConstructionError(
                f"growth rules missed the expected occupancy at n={n}, j={j}"
            )
        members.append(IncidenceMatrix(n, j, degrees))
    return tuple(members)


@dataclass(frozen=True)
class MetricBasisElement:
    """One polynomial matrix of the metric expansion basis."""

    n: int
    j: int
    matrix: Matrix

    def evaluate(self, lam: Any) -> Matrix:
        """Numeric matrix at one coupling; exact for int/Fraction input."""
        return self.matrix.map(lambda p: p(lam))


def triangle_entry(n: int, i: int, k: int, degree: int) -> IntPolynomial:
    """Alphabet polynomial of the given degree at 1-based position (i, k)
    of an n x n basis matrix, by the triangle sign rule: the minus factor
    above the antidiagonal, the plus factor below it.  Odd degrees on the
    antidiagonal are impossible by the parity of the occupancy rule and
    are rejected defensively."""
    if i + k == n + 1:
        if degree % 2 == 1:
            raise ConstructionError(f"odd degree {degree} on the antidiagonal at {(i, k)}")
        return entry_polynomial(degree)
    return entry_polynomial(degree, "minus" if i + k < n + 1 else "plus")


def basis_element(incidence: IncidenceMatrix) -> MetricBasisElement:
    """Resolve an incidence pattern into its polynomial matrix via the
    triangle sign rule."""
    n = incidence.n
    rows = []
    for i in range(1, n + 1):
        row = []
        for k in range(1, n + 1):
            degree = incidence.degree(i, k)
            if degree is None:
                row.append(IntPolynomial())
            else:
                row.append(triangle_entry(n, i, k, degree))
        rows.append(row)
    return MetricBasisElement(n=n, j=incidence.j, matrix=Matrix.from_rows(rows))


@cache
def basis_family(n: int) -> tuple[MetricBasisElement, ...]:
    """The n assembled polynomial basis matrices."""
    return tuple(basis_element(s) for s in incidence_family(n))


def evaluate_basis_stack(n: int, lam: float) -> np.ndarray:
    """Float stack of the basis family at one coupling, shape (n, n, n).
    A coupling so large that an entry overflows is rejected."""
    lam = float(lam)
    stack = np.array(
        [
            [[float(p(lam)) for p in row] for row in element.matrix.entries]
            for element in basis_family(n)
        ]
    )
    if not np.isfinite(stack).all():
        raise DomainError(f"basis entries overflow at lam = {lam!r}")
    return stack


def assemble_theta(n: int, lam: Any, alpha: Sequence[Any]) -> Matrix | np.ndarray:
    """Superposition sum_j alpha_j M_j(lam), summed left to right: a
    `Matrix` when the coupling and all coefficients are exact, a float
    array otherwise."""
    coefficients = tuple(alpha)
    if len(coefficients) != n:
        raise DimensionError(f"need exactly {n} coefficients")
    exact = isinstance(lam, (int, Fraction)) and all(
        isinstance(a, (int, Fraction)) for a in coefficients
    )
    if exact:
        point = Fraction(lam)
        terms = [
            element.matrix.map(lambda p, w=Fraction(a): p(point) * w)
            for a, element in zip(coefficients, basis_family(n))
        ]
    else:
        terms = [float(a) * m for a, m in zip(coefficients, evaluate_basis_stack(n, lam))]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def reflection_symmetry_holds(element: MetricBasisElement) -> bool:
    """Check the antidiagonal reflection with a simultaneous coupling sign
    flip: M(i, k) as a polynomial equals M(n+1-k, n+1-i) at the negated
    variable."""
    n, m = element.n, element.matrix
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            if m[i - 1, k - 1] != m[n - k, n - i].negate_variable():
                return False
    return True


def intertwining_defect(element: MetricBasisElement) -> Matrix:
    """Polynomial matrix M H - H^T M; identically zero for a valid element.

    H is tridiagonal, so each entry sums products over the nonzero entries
    of one column of H: (M H)[i, k] over column k, (H^T M)[i, k] over
    column i.  Zero entries of M are skipped as well."""
    h_columns = hamiltonian_polynomial(element.n).column_nonzeros()
    m = element.matrix.entries
    n = element.n
    rows = []
    for i in range(n):
        row = []
        for k in range(n):
            acc = IntPolynomial()
            for r, h in h_columns[k]:
                if m[i][r]:
                    acc = acc + m[i][r] * h
            for r, h in h_columns[i]:
                if m[r][k]:
                    acc = acc - h * m[r][k]
            row.append(acc)
        rows.append(row)
    return Matrix.from_rows(rows)
