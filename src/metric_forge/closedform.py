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
growth rules are checked at every step against the closed-form occupancy
rule, whose positions are enumerated directly, and the full family is
cross-checked against the exact brute-force solution space in the test
suite.  A basis matrix is held as its occupied entries only; a dense
view is derived on demand.

The family is complete at every coupling: each M_j satisfies the
constraint as a polynomial identity (`intertwining_defect`, which sums
integer coefficient tuples read against the three bands of the chain and
returns the cells that fail to cancel); row 1 of M_j
holds one entry, at (1, j), and row n one, at (n, n + 1 - j), so the first
rows (lam != 1) or the last rows (lam != -1) make the n members
independent; and no solution space is larger than n (`oracle`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import zip_longest
from typing import Any, Literal, Mapping, Optional, Sequence

from .errors import ConstructionError, DimensionError, DomainError
from .exact import IntPolynomial, Matrix
from .hamiltonian import _chain_bands, _check_size

Sign = Optional[Literal["minus", "plus"]]

__all__ = [
    "IncidenceMatrix",
    "MetricBasisElement",
    "entry_polynomial",
    "occupancy_positions",
    "occupancy_matrix",
    "incidence_family",
    "basis_element",
    "basis_family",
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


def _check_indices(n: int, j: int) -> None:
    _check_size(n)
    if not 1 <= j <= n:
        raise DomainError(f"family index must lie in 1..{n}")


def occupancy_positions(n: int, j: int) -> frozenset[tuple[int, int]]:
    """1-based positions occupied by the j-th basis matrix.

    A position (i, k) is occupied iff d = i - k lies in {j-1, j-3, ..., 1-j}
    and t = n + 1 - i - k lies in {n-j, n-j-2, ..., j-n}; the j (n + 1 - j)
    pairs (d, t) are enumerated directly, and their parity places every
    one of them inside the matrix.
    """
    _check_indices(n, j)
    return frozenset(
        ((n + 1 + d - t) // 2, (n + 1 - d - t) // 2)
        for d in range(1 - j, j, 2)
        for t in range(j - n, n - j + 1, 2)
    )


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
    _check_size(n)
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
    """One polynomial matrix of the metric expansion basis, held as its
    occupied entries: 1-based (i, k) -> nonzero alphabet polynomial, in
    sorted position order.  Every other entry is zero."""

    n: int
    j: int
    entries: Mapping[tuple[int, int], IntPolynomial]

    @property
    def matrix(self) -> Matrix:
        """Dense view, with zero polynomials at the unoccupied positions."""
        zero = IntPolynomial()
        span = range(1, self.n + 1)
        return Matrix.from_rows(
            [[self.entries.get((i, k), zero) for k in span] for i in span]
        )

    def values(self, lam: Any) -> dict[tuple[int, int], Any]:
        """Value of each occupied entry at one coupling, in position order,
        exact for int/Fraction input; each distinct polynomial is evaluated once."""
        memo = {p: p(lam) for p in set(self.entries.values())}
        return {position: memo[p] for position, p in self.entries.items()}

    def evaluate(self, lam: Any) -> Matrix:
        """Numeric matrix at one coupling, the int 0 at unoccupied positions."""
        rows = [[0] * self.n for _ in range(self.n)]
        for (i, k), value in self.values(lam).items():
            rows[i - 1][k - 1] = value
        return Matrix.from_rows(rows)


def basis_element(incidence: IncidenceMatrix) -> MetricBasisElement:
    """Resolve an incidence pattern into its polynomial entries by the
    triangle sign rule: the minus factor above the antidiagonal, the plus
    factor below it.  Odd degrees on the antidiagonal are impossible by
    the parity of the occupancy rule and are rejected defensively."""
    n = incidence.n
    entries = {}
    for (i, k), degree in sorted(incidence.degrees.items()):
        if i + k == n + 1 and degree % 2 == 1:
            raise ConstructionError(f"odd degree {degree} on the antidiagonal at {(i, k)}")
        entries[i, k] = entry_polynomial(degree, "minus" if i + k < n + 1 else "plus")
    return MetricBasisElement(n=n, j=incidence.j, entries=entries)


@cache
def basis_family(n: int) -> tuple[MetricBasisElement, ...]:
    """The n assembled polynomial basis matrices."""
    return tuple(basis_element(s) for s in incidence_family(n))


def assemble_theta(n: int, lam: Any, alpha: Sequence[Any]) -> Any:
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
        cells = [[Fraction(0)] * n for _ in range(n)]
        for a, element in zip(coefficients, basis_family(n)):
            weight = Fraction(a)
            for (i, k), value in element.values(Fraction(lam)).items():
                cells[i - 1][k - 1] += value * weight
        return Matrix.from_rows(cells)
    from .analysis import evaluate_basis_stack

    terms = [float(a) * m for a, m in zip(coefficients, evaluate_basis_stack(n, lam))]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def reflection_symmetry_holds(element: MetricBasisElement) -> bool:
    """Check the antidiagonal reflection with a simultaneous coupling sign
    flip: M(i, k) as a polynomial equals M(n+1-k, n+1-i) at the negated
    variable.  Every entry must find its mirror occupied, so an entry
    without one fails the check."""
    n, entries = element.n, element.entries
    return all(
        entries.get((n + 1 - k, n + 1 - i)) == p.negate_variable()
        for (i, k), p in entries.items()
    )


@cache
def _hamiltonian_rows(n: int) -> tuple[tuple, ...]:
    """Row r of the symbolic chain H (1-based; entry 0 is empty) as
    (c, H[r, c], -H[r, c]) for each of its nonzeros, read from the three
    bands."""
    diag, upper, lower = _chain_bands(n, IntPolynomial((0, 1)), IntPolynomial((1,)))
    rows: list[tuple] = [()]
    for r in range(1, n + 1):
        cells = [(r - 1, lower[r - 2])] if r > 1 else []
        cells.append((r, diag[r - 1]))
        if r < n:
            cells.append((r + 1, upper[r - 1]))
        rows.append(tuple((c, h, -h) for c, h in cells))
    return tuple(rows)


def intertwining_defect(element: MetricBasisElement) -> dict[tuple[int, int], IntPolynomial]:
    """The nonzero cells of the polynomial matrix M H - H^T M, 1-based
    (i, k) -> IntPolynomial; a valid element has none.

    H is tridiagonal, so an occupied entry M[i, r] meets only the nonzeros
    H[r, c] of row r of H in M H, adding M[i, r] H[r, c] at (i, c), and
    only the nonzeros H[i, c] of row i in H^T M, adding -H[i, c] M[i, r]
    at (c, r).  Each distinct product of an alphabet polynomial with a
    band entry is formed once, as an integer coefficient tuple, and each
    cell sums its at most six tuples coefficientwise, so the defect is an
    exact polynomial identity over the integers."""
    h_rows = _hamiltonian_rows(element.n)
    products: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]] = {}

    def times(m: IntPolynomial, h: IntPolynomial) -> tuple[int, ...]:
        key = (m.coeffs, h.coeffs)
        if key not in products:
            products[key] = (m * h).coeffs
        return products[key]

    terms: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for (i, r), m in element.entries.items():
        for c, h, _ in h_rows[r]:
            terms.setdefault((i, c), []).append(times(m, h))
        for c, _, minus_h in h_rows[i]:
            terms.setdefault((c, r), []).append(times(m, minus_h))
    defect = {}
    for cell, tuples in terms.items():
        coeffs = [sum(column) for column in zip_longest(*tuples, fillvalue=0)]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        if coeffs:
            defect[cell] = IntPolynomial._stripped(tuple(coeffs))
    return defect
