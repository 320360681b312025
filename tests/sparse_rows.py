"""Conversions between the dense test matrices and the sparse formats of
the package: the {column: entry} rows that `exact.null_space` and
`exact.rank` take, the primitive {column: int} kernel vectors that
`null_space` and `oracle.solve_metric_space` return, and the 1-based
{(i, k): entry} maps of `closedform.MetricBasisElement`, and changes of
the basis family made on those maps."""

from fractions import Fraction

from metric_forge.closedform import MetricBasisElement, basis_family
from metric_forge.exact import IntPolynomial, Matrix
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


def family_variants(n):
    """The closed-form family and eight changes of it: reversed, one member
    scaled, one moved out of the span by x or by 1 in one entry, one zero
    member, a duplicated member, one member the sum of two, all zero."""
    family = basis_family(n)
    x = IntPolynomial((0, 1))

    def changed(index, change):
        element = family[index]
        entries = {p: change(p, v) for p, v in element.entries.items()}
        entries = {p: v for p, v in entries.items() if v}
        replaced = MetricBasisElement(n, element.j, entries)
        return family[:index] + (replaced,) + family[index + 1 :]

    first = next(iter(family[-1].entries))
    return [
        family,
        family[::-1],
        changed(0, lambda p, v: v * 3),
        changed(n - 1, lambda p, v: v + x if p == first else v),
        changed(n - 1, lambda p, v: v + 1 if p == first else v),
        changed(0, lambda p, v: IntPolynomial()),
        family[:-1] + family[-2:-1],
        family[:-1] + (MetricBasisElement(n, n, {**family[0].entries, **family[1].entries}),),
        tuple(MetricBasisElement(n, el.j, {}) for el in family),
    ]
