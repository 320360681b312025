"""Which module may read which: the CLI parses, bounds, composes and
prints, and each derivation rule stays behind the public names of the
module that owns its data."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import metric_forge
from metric_forge import hamiltonian, oracle

MODULES = sorted(info.name for info in pkgutil.iter_modules(metric_forge.__path__))

# the private names that may cross a module boundary, as (importer,
# source, name): the band, size, coupling and secular rules of
# `hamiltonian`, which every module may read, and the integer rows of
# `exact`, which the oracle's span check reads
CROSSINGS = {
    *(
        (importer, "hamiltonian", name)
        for importer in MODULES
        for name in ("_chain_bands", "_chain_rows", "_check_size", "_float_coupling", "_secular_root")
    ),
    ("oracle", "exact", "_integer_rows"),
}


def _package_imports(module):
    """(submodule, name) for each name that `module` imports from another
    module of the package, relatively or by its full name."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if node.level == 0:
            if not source.startswith("metric_forge."):
                continue
            source = source[len("metric_forge.") :]
        for alias in node.names:
            yield source, alias.name


@pytest.mark.parametrize("importer", MODULES)
def test_private_names_cross_only_on_the_allowlist(importer):
    module = importlib.import_module(f"metric_forge.{importer}")
    crossing = [
        (source, name)
        for source, name in _package_imports(module)
        if name.startswith("_") and source != importer
    ]
    assert [c for c in crossing if (importer, *c) not in CROSSINGS] == []


def test_oracle_imports_nothing_from_closedform():
    # the oracle is the closed form's independent referee
    assert [name for source, name in _package_imports(oracle) if source == "closedform"] == []


def test_hamiltonian_imports_nothing_from_analysis():
    # `hamiltonian` lays out every chain, the float one too, and
    # `analysis` reads its bands and rows: the import runs one way only
    assert [name for source, name in _package_imports(hamiltonian) if source == "analysis"] == []
