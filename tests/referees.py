"""Reference computations that the package itself does not run: a general
dense float eigensolver, the chain with its coupling kept symbolic, and
the paper's explicit positivity expressions at size 2 and at size 4 with
zero coupling.  The tests check the package's own routes against them."""

import math

import numpy as np

from metric_forge.errors import DimensionError
from metric_forge.exact import IntPolynomial, Matrix
from metric_forge.hamiltonian import _chain_rows, _check_size


def eigs_general(m):
    """Eigenvalues of a real square float matrix, sorted by (real,
    imaginary).

    Complex eigenvalues of a real matrix come in exactly conjugate pairs
    (LAPACK guarantees the pairing); sorting keeps the multiset stable.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("expected a square matrix")
    w = np.linalg.eigvals(a)
    return w[np.lexsort((w.imag, w.real))]


def hamiltonian_polynomial(n):
    """The chain member with the coupling kept symbolic (IntPolynomial entries)."""
    _check_size(n)
    # the zero polynomial, not the int 0, which an IntPolynomial never equals
    one, zero = IntPolynomial((1,)), IntPolynomial()
    return Matrix.from_rows(_chain_rows(n, IntPolynomial((0, 1)), one, zero))


def paper_size2_margin(lam, alpha):
    """The smaller of the paper's two size-2 expressions, alpha_1 and
    alpha_1^2 (1 - lam^2) - alpha_2^2: positive iff Theta > 0 (|lam| < 1).
    `alpha` is one vector (2,) or a stack (count, 2)."""
    a1, a2 = np.moveaxis(np.asarray(alpha, dtype=float), -1, 0)
    return np.minimum(a1, a1 * a1 * (1.0 - lam * lam) - a2 * a2)


def free_size4_margin(alpha):
    """The smallest of the four size-4 expressions at lam = 0,

        2 alpha_1 - 2 alpha_4 - alpha_2 + alpha_3 +/- sqrt(5)(alpha_3 - alpha_2)
        2 alpha_1 + 2 alpha_4 + alpha_2 + alpha_3 +/- sqrt(5)(alpha_2 + alpha_3),

    which equal twice the eigenvalues of Theta.  `alpha` is one vector (4,)
    or a stack (count, 4)."""
    root5 = math.sqrt(5.0)
    a1, a2, a3, a4 = np.moveaxis(np.asarray(alpha, dtype=float), -1, 0)
    expressions = (
        2.0 * a1 - 2.0 * a4 - a2 + a3 + root5 * (a3 - a2),
        2.0 * a1 - 2.0 * a4 - a2 + a3 - root5 * (a3 - a2),
        2.0 * a1 + 2.0 * a4 + a2 + a3 + root5 * (a2 + a3),
        2.0 * a1 + 2.0 * a4 + a2 + a3 - root5 * (a2 + a3),
    )
    return np.min(expressions, axis=0)
