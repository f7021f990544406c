"""The package holds only code that something names.

Every module-level function or class in `src/sexticfield` must either be
named somewhere in the package outside its own definition (a call, an
import, an attribute, a type hint) or be listed in a module's `__all__`.
A helper that nothing in the pipeline reaches fails this test; delete
it, or move it next to the tests that use it.  Since an import counts as
a name, every module-level import must in turn be used in its module or
be listed in its `__all__`, or a leftover import would keep a dead
definition alive.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sexticfield"


def _names(node):
    """Every identifier that `node` names, with multiplicity."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.split(".")[-1]] += 1
    return found


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def test_every_definition_is_named_or_exported():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    named = Counter()
    exported = set()
    for tree in trees.values():
        named += _names(tree)
        exported |= _exported(tree)
    unreached = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in exported:
                continue
            # names inside the definition itself (recursion) do not count
            if named[node.name] - _names(node)[node.name] <= 0:
                unreached.append(f"{module}:{node.lineno} {node.name}")
    assert not unreached, "defined but never named: " + ", ".join(unreached)


def test_every_import_is_used_or_exported():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        exported = _exported(tree)
        used = Counter()
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                used += _names(node)
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in exported and not used[bound]:
                    unused.append(f"{path.name}:{node.lineno} {bound}")
    assert not unused, "imported but never used: " + ", ".join(unused)
