"""Conversions between the dense test matrices and the sparse formats of
the package: the {column: entry} rows that `exact.null_space` and
`exact.rank` take, the primitive {column: int} kernel vectors that
`null_space` and `oracle.solve_metric_space` return, and the 1-based
{(i, k): entry} maps of `closedform.MetricBasisElement`."""

from fractions import Fraction

from metric_forge.exact import Matrix
from metric_forge.oracle import SymmetricIndexer


def rows_of(rows):
    """Each dense row as a {column: entry} dict, its zeros included."""
    return [dict(enumerate(row)) for row in rows]


def reduced_basis(vectors, free, width):
    """The dense reduced-echelon basis of primitive kernel vectors: each
    sparse integer vector divided by its entry at its free column, as
    `width` Fractions."""
    return [
        tuple(Fraction(vec.get(c, 0), vec[f]) for c in range(width))
        for vec, f in zip(vectors, free)
    ]


def symmetric_matrix(n, vector):
    """The n x n symmetric Matrix whose upper triangle is the sparse
    `vector` in `SymmetricIndexer` order, its other entries 0."""
    flat = SymmetricIndexer(n).table()
    return Matrix.from_rows([[vector.get(f, 0) for f in row] for row in flat])


def dense(entries, n, zero):
    """The n x n Matrix of a 1-based {(i, k): entry} map, `zero` at every
    absent position."""
    span = range(1, n + 1)
    return Matrix.from_rows([[entries.get((i, k), zero) for k in span] for i in span])


def upper_triangle(entries, n):
    """The {column: entry} row of a 1-based {(i, k): entry} map in the
    oracle's column order: its positions i <= k counted row-major, (1, 1),
    (1, 2), ..., (1, n), (2, 2), ...; an absent position has no entry."""
    positions = [(i, k) for i in range(1, n + 1) for k in range(i, n + 1)]
    return {t: entries[p] for t, p in enumerate(positions) if p in entries}
