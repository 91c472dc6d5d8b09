"""Module boundaries of the package: no module reads another module's
private name."""

import ast
from pathlib import Path

import citecorpus

PACKAGE = Path(citecorpus.__file__).parent


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def test_no_module_reads_another_modules_private_name():
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # Local names bound by imports from the package.
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "citecorpus"):
                reads += [f"{path.name}, line {node.lineno}: imports {alias.name}"
                          for alias in node.names if _private(alias.name)]
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0]
                                for alias in node.names
                                if alias.name.split(".")[0] == "citecorpus")
        reads += [f"{path.name}, line {node.lineno}: {ast.unparse(node)}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and _private(node.attr)
                  and _root(node.value) in imported]
    assert reads == []
