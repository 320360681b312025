"""Reference computations that the package itself does not run: a general
dense float eigensolver and the chain with its coupling kept symbolic.
The tests check the package's own routes against them."""

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
