"""Closed-form construction of the complete metric family.

Every admissible metric of the n-point chain is a superposition
Theta(lam) = sum_j alpha_j M_j(lam) of n sparse polynomial matrices.
Each M_j is encoded by an incidence matrix S_j that records, per occupied
position, the degree of the polynomial entry; the entry alphabet is

    degree 2m:     (1 - lam^2)^m
    degree 2m+1:   (1 -/+ lam) (1 - lam^2)^m

with the minus factor above the antidiagonal (i + k < n + 1), the plus
factor below it, and only even degrees on the antidiagonal itself.

The degrees have a closed form.  With d = i - k, t = n + 1 - i - k and
K = n/2, position (i, k) of M_j is occupied iff the lattice coordinates
a = (j-1-d)/2 and b = (n-j-t)/2 are integers in [0, j) and [0, n-j].  Let

    A = min(a, j-1-a) - max(0, j-K),   B = max(min(b, n-j-b) - max(0, K-j), 0);

the degree is 0 when A < 0 and min(2A+2, 2B+1) otherwise; on the
antidiagonal (t = 0) 2A + 2 <= 2B, so the degree there is even.  The basis
is built from this rule, each matrix held as its occupied entries only.
The paper's recurrent growth of the S_j (`incidence_family`) is a second
derivation, checked against the rule at every step.

The family is complete at every coupling: each M_j satisfies the
constraint as a polynomial identity (`intertwining_defect`, which sums
integer coefficient tuples read against the nonzeros of the chain's rows
and returns the cells that fail to cancel); row 1 of M_j holds one entry,
at (1, j), and row n one, at (n, n + 1 - j), so the first rows (lam != 1)
or the last rows (lam != -1) make the n members independent; and no
solution space is larger than n (`oracle`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import zip_longest
from typing import Any, Literal, Mapping, NamedTuple, Optional, Sequence

from .errors import ConstructionError, DimensionError, DomainError
from .exact import IntPolynomial, Matrix
from .hamiltonian import _chain_rows, _check_size

Sign = Optional[Literal["minus", "plus"]]

__all__ = [
    "IncidenceMatrix",
    "MetricBasisElement",
    "entry_polynomial",
    "occupancy_positions",
    "incidence_family",
    "basis_element",
    "basis_family",
    "assemble_theta",
    "reflection_symmetry_holds",
    "zero_coupling_reduction_holds",
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
    """1-based positions occupied by the j-th basis matrix: the j (n + 1 - j)
    pairs (d, t) of the module docstring, enumerated directly; their parity
    places every one of them inside the matrix."""
    _check_indices(n, j)
    return frozenset(
        ((n + 1 + d - t) // 2, (n + 1 - d - t) // 2)
        for d in range(1 - j, j, 2)
        for t in range(j - n, n - j + 1, 2)
    )


def _rule_degrees(n: int, j: int) -> dict[tuple[int, int], int]:
    """The closed-form (i, k) -> degree pattern of M_j (module docstring) in
    sorted position order.  Row i holds k = |i-j|+1, |i-j|+3, ... below
    min(i+j, 2n+2-i-j), and a and b both step by one along it."""
    _check_indices(n, j)
    shift_a, shift_b = max(0, j - n // 2), max(0, n // 2 - j)
    # the degree at (a, b) is min(high[a], low[b]); high is 0 where A < 0
    high = [max(2 * (min(a, j - 1 - a) - shift_a) + 2, 0) for a in range(j)]
    low = [2 * max(min(b, n - j - b) - shift_b, 0) + 1 for b in range(n - j + 1)]
    degrees: dict[tuple[int, int], int] = {}
    for i in range(1, n + 1):
        row = range(abs(i - j) + 1, min(i + j, 2 * n + 2 - i - j), 2)
        a, b = (j - 1 - i + row.start) // 2, (i + row.start - j - 1) // 2
        degrees.update(zip([(i, k) for k in row], map(min, high[a:], low[b:])))
    return degrees


class IncidenceMatrix(NamedTuple):
    """Sparse (i, k) -> degree pattern for one basis element, as grown by
    `incidence_family`; positions absent from `degrees` are structural zeros."""

    n: int
    j: int
    degrees: Mapping[tuple[int, int], int]


def _embed_centered(degrees: Mapping[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    return {(i + 1, k + 1): d for (i, k), d in degrees.items()}


def _grown(previous: Sequence[Mapping], n: int, j: int) -> dict[tuple[int, int], int]:
    """S_j at size n, grown from the size n-2 family (`incidence_family`)."""
    half = n // 2
    if j > half:
        degrees = _embed_centered(previous[j - 3])
        for t in range(1, n + 2 - j):
            degrees[t, t + j - 1] = degrees[t + j - 1, t] = 0
        return degrees
    if j < half:
        degrees = _embed_centered(previous[j - 1])
    else:
        central = previous[half - 2]
        degrees = _embed_centered({(i, n - 1 - k): d + 1 for (i, k), d in central.items()})
    for t in range(1, j + 1):
        degrees[t, j + 1 - t] = degrees[n + 1 - t, n - j + t] = 1
    return degrees


def incidence_family(n: int) -> tuple[IncidenceMatrix, ...]:
    """All n incidence matrices, grown by the paper's recurrence from the
    two-point base case, keeping only the previous size.  Each grown
    pattern is compared with the closed-form rule in one dict equality; a
    mismatch raises ConstructionError.

    They agree by induction on n.  The rule gives the base case n = 2.  Each
    growth rule embeds a size n-2 pattern (primed, K' = K - 1) centered,
    which keeps d and t, and maps the rule at n - 2 to the rule at n:

    * j < K: the same-j predecessor, a' = a and b' = b - 1: A' = A, and
      B' = B as min(b, n-j-b) and the shift K - j both drop by one.  The
      new b = 0 and b = n - j, the corner antidiagonal segments
      i + k = j + 1 and 2n + 1 - j, get degree 1, and there B = 0 <= A.
    * j = K: the previous central matrix (j' = K'), every degree raised by
      one, reflected left-right, (d', t') -> (-t', -d'): a = K-1-b' and
      b = K-1-a', so A = B' and B = A' + 1, and min(2A+2, 2B+1) is the old
      degree plus one.  The new b = 0 and b = K, the segments
      i + k = K + 1 and 3K + 1, get degree 1, and there B = 0.
    * j > K: the (j-2)-nd predecessor, a' = a - 1 and b' = b: both shifts
      of B are 0, and A' = min(a, j-1-a) - 1 - (j-K-1) = A.  The new a = 0
      and a = j - 1, the corner diagonals i - k = -(j - 1) and j - 1, get
      degree 0, and there A = K - j < 0.
    """
    _check_size(n)
    family: list[Mapping] = [{(1, 1): 1, (2, 2): 1}, {(1, 2): 0, (2, 1): 0}]
    for size in range(4, n + 1, 2):
        previous, family = family, []
        for j in range(1, size + 1):
            degrees = _grown(previous, size, j)
            if degrees != _rule_degrees(size, j):
                raise ConstructionError(
                    f"growth rules missed the closed-form degrees at n={size}, j={j}"
                )
            family.append(degrees)
    return tuple(IncidenceMatrix(n, j, degrees) for j, degrees in enumerate(family, start=1))


class MetricBasisElement(NamedTuple):
    """One polynomial matrix of the metric expansion basis, held as its
    occupied entries: 1-based (i, k) -> nonzero alphabet polynomial, in
    sorted position order.  Every other entry is zero."""

    n: int
    j: int
    entries: Mapping[tuple[int, int], IntPolynomial]

    def values(self, lam: Any) -> dict[tuple[int, int], Any]:
        """Value of each occupied entry at one coupling, in position order,
        exact for int/Fraction input; each distinct polynomial is evaluated once."""
        memo = {p: p(lam) for p in set(self.entries.values())}
        return {position: memo[p] for position, p in self.entries.items()}


def basis_element(n: int, j: int) -> MetricBasisElement:
    """M_j, in O(j (n + 1 - j)): the closed-form degrees resolved by the
    triangle sign rule, the minus factor above the antidiagonal and the
    plus factor below it (an odd degree on it would raise DomainError)."""
    entries = {}
    for (i, k), degree in _rule_degrees(n, j).items():
        sign = "minus" if i + k <= n else "plus" if i + k > n + 1 else None
        entries[i, k] = entry_polynomial(degree, sign)
    return MetricBasisElement(n=n, j=j, entries=entries)


def basis_family(n: int) -> tuple[MetricBasisElement, ...]:
    """The n assembled polynomial basis matrices, built anew by each call."""
    _check_size(n)
    return tuple(basis_element(n, j) for j in range(1, n + 1))


def assemble_theta(n: int, lam: Any, alpha: Sequence[Any]) -> Any:
    """Superposition sum_j alpha_j M_j(lam): a `Matrix`, summed left to
    right, when the coupling and all coefficients are exact, and otherwise
    the float array of `analysis.superpose`."""
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
    from .analysis import evaluate_basis_stack, superpose

    return superpose(evaluate_basis_stack(n, lam), [coefficients])[0]


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


def zero_coupling_reduction_holds(element: MetricBasisElement) -> bool:
    """Check the reduction at lam = 0, where every alphabet polynomial
    reads 1: the nonzero values of M_j(0) are 1, at exactly the positions
    `occupancy_positions` gives."""
    nonzero = {p: v for p, v in element.values(0).items() if v}
    return nonzero == dict.fromkeys(occupancy_positions(element.n, element.j), 1)


@cache
def _hamiltonian_rows(n: int) -> tuple[tuple, ...]:
    """Row r of the symbolic chain H (1-based; entry 0 is empty) as
    (c, H[r, c], -H[r, c]) for each of its nonzeros."""
    rows = _chain_rows(n, IntPolynomial((0, 1)), IntPolynomial((1,)), 0)
    return ((),) + tuple(tuple((c, h, -h) for c, h in enumerate(row, 1) if h) for row in rows)


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
