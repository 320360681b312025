"""Brute-force ground truth for the quasi-Hermiticity constraint.

The constraint Theta H = H^T Theta over real symmetric Theta is a
homogeneous linear system in the n(n+1)/2 upper-triangle unknowns.  This
module builds it as exact sparse rows, which the exact kernel solver
eliminates over the integers into the complete, canonical solution space.

Its dimension is n at every coupling.  Row i of Theta H = H^T Theta reads
Theta[i,:] H = sum_r H[r,i] Theta[r,:] over r = i-1, i, i+1, so for
lam != 1, where every subdiagonal entry H[i+1,i] is nonzero, each row
follows from the two before it and the first row fixes the solution; at
lam = 1 the superdiagonal is nonzero and the last row fixes it.  So the
space has dimension at most n, and the n independent closed-form members
fill it (for a nonderogatory A the solutions of X A = A^T X form an
n-dimensional space of symmetric matrices: Taussky and Zassenhaus,
Pacific J. Math. 9 (1959) 893-896).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, NamedTuple

from .errors import DimensionError, DomainError
from .exact import Matrix, null_space
from .hamiltonian import HamiltonianSpec, _float_coupling, build_hamiltonian

__all__ = [
    "SymmetricIndexer",
    "MetricSolutionSpace",
    "MembershipResult",
    "intertwining_system",
    "solve_metric_space",
    "verify_membership",
    "upper_triangle_vector",
]


class _Indexer(NamedTuple):
    n: int


class SymmetricIndexer(_Indexer):
    """Bijection between 0-based upper-triangle positions (i <= k) and flat
    unknown indices, ordered (0,0), (0,1), ..., (0,n-1), (1,1), ..."""

    __slots__ = ()

    def __new__(cls, n: int) -> SymmetricIndexer:
        if n < 1:
            raise DimensionError("indexer needs a positive size")
        return super().__new__(cls, n)

    @property
    def count(self) -> int:
        return self.n * (self.n + 1) // 2

    def flat(self, i: int, k: int) -> int:
        if not (0 <= i < self.n and 0 <= k < self.n):
            raise DimensionError("position out of range")
        if i > k:
            i, k = k, i
        return i * (2 * self.n - i + 1) // 2 + (k - i)

    def table(self) -> list[list[int]]:
        """`flat(i, k)` of every position, as n rows of n indices."""
        span = range(self.n)
        return [[self.flat(i, k) for k in span] for i in span]


class MetricSolutionSpace(NamedTuple):
    """Complete space of real symmetric solutions at one exact coupling.

    Basis vector t is the primitive integer kernel vector of free column
    `free[t]` (`exact.null_space`), indexed by `SymmetricIndexer`.
    `pivots` and `max_bits` are the counters of the kernel elimination:
    its pivot count (the rank of the constraint system) and the bit
    length of the largest entry of any row the elimination kept."""

    n: int
    lam: Fraction
    basis: tuple[dict[int, int], ...]
    free: tuple[int, ...]
    dimension: int
    pivots: int
    max_bits: int


class MembershipResult(NamedTuple):
    member: bool
    residual: Any


def intertwining_system(h: Matrix) -> list[dict[int, Fraction]]:
    """Sparse rows of the matrix A with A vec(Theta_upper) = 0 equivalent
    to Theta H - H^T Theta = 0 under the symmetric parametrization.

    For symmetric Theta and any square H the defect D is antisymmetric,
    D^T = H^T Theta - Theta H = -D, so rows are its n(n-1)/2 entries p < q
    in row-major order, with the kernel of all n^2 (a 1 x 1 `h` leaves no
    row).  Row (p, q) maps columns of the canonical upper-triangle ordering
    to Fractions, only from the nonzero entries of columns p and q of `h`:
    at most 6 for the chain, some of which may cancel to 0.
    """
    if not h.is_square:
        raise DimensionError("square matrix required")
    n = h.rows
    flat = SymmetricIndexer(n).table()
    columns = [[(r, Fraction(v)) for r, v in enumerate(col) if v] for col in h.T.entries]
    rows = []
    for p in range(n):
        for q in range(p + 1, n):
            row: dict[int, Fraction] = {}
            for r, v in columns[q]:
                row[flat[p][r]] = row.get(flat[p][r], 0) + v
            for r, v in columns[p]:
                row[flat[r][q]] = row.get(flat[r][q], 0) - v
            rows.append(row)
    return rows


def solve_metric_space(spec: HamiltonianSpec) -> MetricSolutionSpace:
    """All real symmetric solutions of the quasi-Hermiticity constraint.

    The basis is the canonical integer kernel basis, so it is deterministic
    across runs; every element satisfies the constraint exactly.
    """
    if not spec.is_exact:
        raise DomainError("the exact oracle requires an exact coupling")
    width = SymmetricIndexer(spec.n).count
    kernel = null_space(intertwining_system(build_hamiltonian(spec)), width)
    return MetricSolutionSpace(
        n=spec.n,
        lam=Fraction(spec.lam),
        basis=tuple(kernel),
        free=tuple(kernel.free),
        dimension=len(kernel),
        pivots=kernel.pivots,
        max_bits=kernel.max_bits,
    )


def upper_triangle_vector(m: Matrix) -> tuple:
    """Canonically ordered upper-triangle entries of a square matrix."""
    if not m.is_square:
        raise DimensionError("square matrix required")
    n = m.rows
    return tuple(m[i, k] for i in range(n) for k in range(i, n))


def _is_exact_matrix(m: Matrix) -> bool:
    return all(
        isinstance(e, (int, Fraction)) for row in m.entries for e in row
    )


def verify_membership(theta: Any, spec: HamiltonianSpec) -> MembershipResult:
    """Check Theta H = H^T Theta for a candidate matrix.

    With an exact candidate and an exact coupling the defect is computed
    exactly and membership means a residual of exactly zero; otherwise
    the float defect of the candidate (a float array, or a `Matrix` read
    as floats) must stay within 1e-9 in the max norm.
    """
    if isinstance(theta, Matrix) and _is_exact_matrix(theta) and spec.is_exact:
        if theta.shape != (spec.n, spec.n):
            raise DimensionError("candidate size differs from the Hamiltonian")
        h = build_hamiltonian(spec)
        defect = theta @ h - h.T @ theta
        residual = defect.max_abs()
        return MembershipResult(residual == 0, residual)
    import numpy as np

    arr = np.asarray(theta.entries if isinstance(theta, Matrix) else theta, dtype=float)
    if arr.shape != (spec.n, spec.n):
        raise DimensionError("candidate size differs from the Hamiltonian")
    h_float = build_hamiltonian(HamiltonianSpec(spec.n, _float_coupling(spec.lam)))
    residual = float(np.max(np.abs(arr @ h_float - h_float.T @ arr)))
    return MembershipResult(residual <= 1e-9, residual)
