"""Complete metric families for one-coupling tridiagonal chains.

The package constructs, for every even size n and coupling lam in
(-1, 1), the full n-parameter family of symmetric positive metric
candidates of the non-symmetric chain Hamiltonian: once by an exact
brute-force kernel solve of the quasi-Hermiticity constraint, and once by
the recurrent closed-form basis construction.  The two routes are
cross-validated exactly, and spectral, positivity and continuum-limit
properties are checked numerically.

Every module but `analysis` imports only the standard library.  The
package loads the exact modules; the names of `analysis`, the one module
that imports numpy, and of `continuum` resolve on first use, so that a
command loads only the code it runs.
"""

from typing import Any

from .closedform import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .exact import *  # noqa: F401,F403
from .hamiltonian import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403

__version__ = "0.1.0"

_LAZY_MODULES = ("analysis", "continuum")


def __getattr__(name: str) -> Any:
    """A name exported by a lazily loaded module, imported on first use.
    Private names and submodules (as in `from metric_forge import cli`)
    load neither."""
    import importlib.util

    if not name.startswith("_") and importlib.util.find_spec(f"{__name__}.{name}") is None:
        for module_name in _LAZY_MODULES:
            module = importlib.import_module(f"{__name__}.{module_name}")
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
