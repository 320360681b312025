"""Exact rational / integer-polynomial linear algebra.

Matrices are immutable rows over one scalar kind: `fractions.Fraction`
for exact work or `IntPolynomial` for symbolic-in-the-coupling work.
Float work does not pass through here: it uses numpy arrays in the
modules that need them.  The kernel solver and the rank take sparse rows,
mappings from column to int or Fraction, and eliminate them fraction-free
(Bareiss), integerized: zero entries and rows are dropped, and a row whose
leading column is not yet reached is not touched until it is used, so the
work on the oracle's banded systems follows their nonzeros and fill-in.
Intermediate entries are minors of the input, so they stay polynomially
bounded in bit size, every division is exact, and every returned vector
annihilates the input exactly.  The module imports only the standard
library.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .errors import DimensionError

__all__ = [
    "IntPolynomial",
    "Matrix",
    "KernelBasis",
    "null_space",
    "rank",
]


def _as_poly(value: Any) -> "IntPolynomial":
    if isinstance(value, IntPolynomial):
        return value
    if isinstance(value, int):
        return IntPolynomial((value,))
    return NotImplemented


class _Polynomial(NamedTuple):
    coeffs: tuple[int, ...] = ()


class IntPolynomial(_Polynomial):
    """Dense polynomial with integer coefficients; ``coeffs[d]`` multiplies
    the d-th power.  Trailing zeros are stripped, so the zero polynomial is
    the empty tuple.  Evaluation at int or Fraction arguments is exact."""

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[int] = ()) -> "IntPolynomial":
        cleaned = tuple(int(v) for v in coeffs)
        while cleaned and cleaned[-1] == 0:
            cleaned = cleaned[:-1]
        return super().__new__(cls, cleaned)

    @classmethod
    def _stripped(cls, coeffs: tuple[int, ...]) -> "IntPolynomial":
        """A polynomial from a tuple of ints whose last entry, if any, is
        nonzero; it skips the validation pass of the public constructor."""
        return tuple.__new__(cls, (coeffs,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: Any) -> "IntPolynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, v in enumerate(b):
            merged[i] += v
        return IntPolynomial(tuple(merged))

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial._stripped(tuple(-v for v in self.coeffs))

    def __sub__(self, other: Any) -> "IntPolynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Any) -> "IntPolynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: Any) -> "IntPolynomial":
        if isinstance(other, int):
            other = _as_poly(other)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for k, b in enumerate(other.coeffs):
                out[i + k] += a * b
        # the leading coefficient is the product of two nonzero ones
        return IntPolynomial._stripped(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "IntPolynomial":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = IntPolynomial((1,))
        for _ in range(exponent):
            result = result * self
        return result

    def __call__(self, x: Any) -> Any:
        """p(x) by Horner's rule.  At a Fraction x = a/b the integer sum
        c_D a^D + c_(D-1) a^(D-1) b + ... + c_0 b^D is divided by b^D once."""
        if isinstance(x, Fraction):
            acc, scale = 0, 1
            for c in reversed(self.coeffs):
                acc = acc * x.numerator + c * scale
                scale *= x.denominator
            return Fraction(acc, scale // x.denominator) if self.coeffs else 0
        acc: Any = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def negate_variable(self) -> "IntPolynomial":
        """The polynomial p(-x)."""
        return IntPolynomial._stripped(
            tuple(v if i % 2 == 0 else -v for i, v in enumerate(self.coeffs))
        )


class _Matrix(NamedTuple):
    entries: tuple[tuple[Any, ...], ...]


class Matrix(_Matrix):
    """Immutable rectangular matrix stored as a tuple of row tuples.

    All entries are expected to share one scalar kind; arithmetic works
    for anything supporting +, -, * (Fraction, IntPolynomial, int).
    """

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[Any, ...], ...]) -> "Matrix":
        if not entries or not entries[0]:
            raise DimensionError("matrix needs at least one row and one column")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise DimensionError("rows must all have the same length")
        return super().__new__(cls, entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Any]]) -> "Matrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def identity(cls, n: int, one: Any = Fraction(1), zero: Any = Fraction(0)) -> "Matrix":
        return cls.from_rows(
            [[one if i == k else zero for k in range(n)] for i in range(n)]
        )

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key: tuple[int, int]) -> Any:
        i, k = key
        return self.entries[i][k]

    @property
    def T(self) -> "Matrix":
        return Matrix(tuple(zip(*self.entries)))

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionError("shape mismatch in addition")
        return Matrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionError("shape mismatch in subtraction")
        return Matrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __matmul__(self, other: Any) -> Any:
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionError("inner dimensions differ")
            cols = other.T.entries
            out = []
            for row in self.entries:
                new_row = []
                for col in cols:
                    acc = row[0] * col[0]
                    for a, b in zip(row[1:], col[1:]):
                        acc = acc + a * b
                    new_row.append(acc)
                out.append(tuple(new_row))
            return Matrix(tuple(out))
        vec = tuple(other)
        if len(vec) != self.cols:
            raise DimensionError("vector length differs from column count")
        result = []
        for row in self.entries:
            acc = row[0] * vec[0]
            for a, b in zip(row[1:], vec[1:]):
                acc = acc + a * b
            result.append(acc)
        return tuple(result)

    def max_abs(self) -> Any:
        return max(abs(e) for row in self.entries for e in row)


def _integer_rows(rows: Iterable[Mapping[int, Any]]) -> list[dict[int, int]]:
    """Each nonzero sparse row of int/Fraction entries as {column: integer
    entry}, scaled by the lcm of its denominators.  Zero entries are skipped
    before any conversion and zero rows are dropped."""
    out = []
    for row in rows:
        exact = {k: f for k, f in row.items() if f}
        if exact:
            scale = math.lcm(*(f.denominator for f in exact.values()))
            out.append({k: f.numerator * (scale // f.denominator) for k, f in exact.items()})
    return out


def _bits(row: dict[int, int]) -> int:
    return max(map(int.bit_length, row.values()))


def _echelon(rows: Iterable[Mapping[int, Any]]) -> tuple[list[dict[int, int]], list[int], int]:
    """Fraction-free (Bareiss) row echelon form of integerized sparse rows;
    returns the pivot rows in pivot order, their pivot columns, and the
    largest bit length of any entry the elimination produced.

    Columns are processed left to right, up to the last one an input row
    holds, so the pivot columns, and hence the kernel basis, are canonical.
    Every row waits in the bucket of its leading column.  At step t the
    first row waiting on column c becomes the pivot row; every other row
    waiting there is eliminated against it, moves to the bucket of its new
    leading column, or is dropped once it is zero.  A row waiting on a
    later column has a zero factor at step t, and Bareiss's update would
    only rescale it by pivot_t / pivot_(t-1), so it is left alone: it
    records the step s it was last brought up to and is rescaled entrywise
    by pivot_t / pivot_s when it is next used.  Both that rescaling and the
    update divide exactly, because every Bareiss entry is a minor of the
    integerized input (Bareiss 1968).
    """
    buckets: dict[int, list[tuple[int, dict[int, int]]]] = {}
    max_bits = 0
    integer_rows = _integer_rows(rows)
    for row in integer_rows:
        buckets.setdefault(min(row), []).append((0, row))
        max_bits = max(max_bits, _bits(row))
    pivot_values = [1]  # the pivot of step s; step 0 stands for the input
    pivot_rows: list[dict[int, int]] = []
    pivot_cols: list[int] = []
    for c in range(max(map(max, integer_rows), default=-1) + 1):
        waiting = buckets.pop(c, None)
        if waiting is None:
            continue
        prev = pivot_values[-1]
        current = len(pivot_values) - 1
        lifted = []
        for stamp, row in waiting:
            if stamp != current:
                last = pivot_values[stamp]
                row = {k: v * prev // last for k, v in row.items()}
                max_bits = max(max_bits, _bits(row))
            lifted.append(row)
        pivot_row = lifted[0]
        piv = pivot_row[c]
        for row in lifted[1:]:
            factor = row[c]
            merged = {k: piv * v for k, v in row.items() if k != c}
            for k, v in pivot_row.items():
                if k != c:
                    merged[k] = merged.get(k, 0) - factor * v
            reduced = {k: v // prev for k, v in merged.items() if v}
            if reduced:
                buckets.setdefault(min(reduced), []).append((current + 1, reduced))
                max_bits = max(max_bits, _bits(reduced))
        pivot_values.append(piv)
        pivot_rows.append(pivot_row)
        pivot_cols.append(c)
    return pivot_rows, pivot_cols, max_bits


class KernelBasis(list):
    """Kernel basis vectors, their ascending free columns `free`, and the
    counters of the elimination that produced them: `pivots` (the rank) and
    `max_bits`, the largest bit length of any intermediate integer entry."""

    def __init__(self, vectors: list, free: list[int], pivots: int, max_bits: int) -> None:
        super().__init__(vectors)
        self.free = free
        self.pivots = pivots
        self.max_bits = max_bits


def null_space(rows: Iterable[Mapping[int, Any]], width: int) -> KernelBasis:
    """Exact basis of the right kernel of the rational sparse rows, read as
    a matrix of `width` columns, 0..width-1; a column no row holds is free.

    Each basis vector is the reduced-echelon one attached to a free
    column: vector t carries a 1 at `free[t]` and 0 at the other free
    columns, so a kernel vector u is sum_t u[free[t]] times vector t; the
    pivot coordinates are solved exactly.  An empty list means the kernel
    is trivial.

    Back-substitution stays in integers: scaled by the last pivot, which
    is the determinant of the pivot minor, every kernel coordinate is an
    integer (Cramer's rule), so each division in it is exact.
    """
    pivot_rows, pivot_cols, max_bits = _echelon(rows)
    pivot_set = set(pivot_cols)
    free = [c for c in range(width) if c not in pivot_set]
    det = pivot_rows[-1][pivot_cols[-1]] if pivot_rows else 1
    scaled: dict[int, list[int]] = {}
    for t, f in enumerate(free):
        scaled[f] = [0] * len(free)
        scaled[f][t] = det
    for row, c in zip(reversed(pivot_rows), reversed(pivot_cols)):
        acc = [0] * len(free)
        for k, v in row.items():
            if k != c:
                acc = [x + v * y for x, y in zip(acc, scaled[k])]
        piv = row[c]
        scaled[c] = [-x // piv for x in acc]
    zero = Fraction(0)
    basis = [
        tuple(Fraction(scaled[k][t], det) if scaled[k][t] else zero for k in range(width))
        for t in range(len(free))
    ]
    return KernelBasis(basis, free, len(pivot_cols), max_bits)


def rank(rows: Iterable[Mapping[int, Any]]) -> int:
    """Exact rank of the rational sparse rows."""
    return len(_echelon(rows)[1])
