"""Which module may read which: the CLI parses, bounds, composes and
prints, and each derivation rule stays behind the public names of the
module that owns its data."""

import ast
from pathlib import Path

from metric_forge import cli, hamiltonian, oracle

# the modules whose private names the CLI never imports; `hamiltonian` is
# not one of them, because the band, size and coupling rules live there
RULE_OWNERS = {"exact", "oracle", "closedform", "continuum", "analysis"}


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


def test_cli_imports_no_private_name_of_a_rule_owner():
    private = [
        (source, name)
        for source, name in _package_imports(cli)
        if source in RULE_OWNERS and name.startswith("_")
    ]
    assert private == []


def test_oracle_imports_nothing_from_closedform():
    # the oracle is the closed form's independent referee
    assert [name for source, name in _package_imports(oracle) if source == "closedform"] == []


def test_hamiltonian_imports_nothing_from_analysis():
    # `hamiltonian` lays out every chain, the float one too, and
    # `analysis` reads its bands and rows: the import runs one way only
    assert [name for source, name in _package_imports(hamiltonian) if source == "analysis"] == []
