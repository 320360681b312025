"""Complete metric families for one-coupling tridiagonal chains.

The package constructs, for every even size n and coupling lam in
(-1, 1), the full n-parameter family of symmetric positive metric
candidates of the non-symmetric chain Hamiltonian: once by an exact
brute-force kernel solve of the quasi-Hermiticity constraint, and once by
the recurrent closed-form basis construction.  The two routes are
cross-validated exactly, and spectral, positivity and continuum-limit
properties are checked numerically.

Every module but `analysis` imports only the standard library.  The
package itself imports no submodule: each exported name, such as
`metric_forge.Matrix`, loads its module on first use, and each command
imports its modules when it runs, so that a command loads only the code
it runs.  `from metric_forge import *` loads every module, numpy too.
"""

from typing import Any

__version__ = "0.1.0"

# The modules whose public names the package exports, in the order a name
# is looked up: the cheapest to import first, `analysis` (numpy) last.
_MODULES = ("errors", "hamiltonian", "continuum", "exact", "closedform", "oracle", "analysis")


def _exports(module: Any) -> list[str]:
    """The exported names of one module: its `__all__`, or for `errors`,
    which has none, its public names (the exception types)."""
    names = getattr(module, "__all__", None)
    return list(names) if names is not None else [n for n in vars(module) if not n.startswith("_")]


def __getattr__(name: str) -> Any:
    """An exported name, its module imported on first use; `__all__` loads
    every module.  Private names and submodules (as in
    `from metric_forge import cli`) load none."""
    import importlib.util

    modules = (importlib.import_module(f"{__name__}.{m}") for m in _MODULES)
    if name == "__all__":
        return [export for module in modules for export in _exports(module)]
    if not name.startswith("_") and importlib.util.find_spec(f"{__name__}.{name}") is None:
        for module in modules:
            if name in _exports(module):
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
