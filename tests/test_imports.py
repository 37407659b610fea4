"""The package's imports: each module uses every name it imports, the
public names are exactly those ``gaussdiag/__init__.py`` imports, and the
command line imports only public names."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import gaussdiag

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gaussdiag"
# a name imported only so that another program can reach it through the
# module (the benchmark's tracer patches such names) carries this marker
UNUSED_ON_PURPOSE = "# noqa: F401"


def _imports(tree: ast.Module):
    """Each (bound name, line) that an import in ``tree`` binds, at any
    depth; ``from __future__`` imports bind no name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], alias.lineno


@pytest.mark.parametrize(
    "module", sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
)
def test_every_imported_name_is_used(module):
    source = (PACKAGE / module).read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        name for name, line in _imports(tree)
        if name not in used and UNUSED_ON_PURPOSE not in lines[line - 1]
    ]
    assert unused == []


def test_public_names_are_the_names_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [name for name, _ in _imports(tree)]
    assert len(imported) == len(set(imported))
    assert sorted(gaussdiag.__all__) == sorted(imported)
    assert len(gaussdiag.__all__) == len(set(gaussdiag.__all__))


def test_cli_imports_no_private_name():
    # the command line is a client of the library: what it needs of a
    # module's private encoding, a public function gives
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    assert [name for name in names if name.startswith("_")] == []


def test_cli_prints_only_through_main():
    # one output path: the subcommands return their reports, and main alone
    # prints them, emits the --json envelope (through _emit_json, the one
    # other printer) and sets the exit code
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    callers = {}
    for statement in tree.body:
        scope = statement.name if isinstance(statement, ast.FunctionDef) else "<module>"
        for node in ast.walk(statement):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                callers.setdefault(node.func.id, set()).add(scope)
    assert callers["print"] == {"main", "_emit_json"}
    assert callers["_emit_json"] == {"main"}
