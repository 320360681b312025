"""Conversions between the dense test matrices and the sparse integer
format of `exact`: the {column: entry} rows that `exact.null_space` and
`exact.rank` take, and the primitive {column: int} kernel vectors that
`null_space` and `oracle.solve_metric_space` return."""

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
