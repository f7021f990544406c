"""The package holds only code that something names.

Every module-level function or class in `src/sexticfield` must either be
named somewhere in the package outside its own definition (a call, an
import, an attribute, a type hint) or be listed in a module's `__all__`.
A helper that nothing in the pipeline reaches fails this test; delete
it, or move it next to the tests that use it.  Since an import counts as
a name, every module-level import must in turn be used in its module or
be listed in its `__all__`, or a leftover import would keep a dead
definition alive.

The same holds for the methods and properties of every class in `src`:
each must be named as an attribute (`x.name`) somewhere in the package
outside its own body.  An alias in its class (`__radd__ = __add__`)
does not count: it names the method only to give it a second name.
Methods that Python calls through syntax or a protocol, never by name,
are on `PROTOCOL`, each with the reason it stays.
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


# Class.method -> why it stays although nothing in src names it
PROTOCOL = {
    "Poly.__init__": "Poly(...) calls it",
    "Poly.__setattr__": "every attribute assignment calls it; it keeps Poly immutable",
    "Poly.__getitem__": "indexing calls it: g[j] in verify.lattice_index and poly",
    "Poly.__eq__": "== calls it, and so does Record.__eq__ for the records "
                   "that hold a Poly (TrinomialField, NewtonPolygon)",
    "Poly.__hash__": "hash() calls it, and so does Record.__hash__ for the "
                     "records that hold a Poly",
    "Poly.__add__": "binary plus calls it: self + (-other) in Poly.__sub__",
    "Poly.__neg__": "unary minus calls it: -other in Poly.__sub__",
    "Poly.__sub__": "binary minus calls it: X - t0 in cli._prime_entry",
    "Poly.__call__": "a call calls it: f(r) in sextic.irreducibility_check",
    "Poly.__reduce__": "pickle and copy call it, and so does deepcopy of the "
                       "records that hold a Poly; it rebuilds the Poly through "
                       "its class",
    "Poly.__repr__": "repr() calls it, in assertion messages for one",
    "Record.__init__": "constructing any record calls it",
    "Record.__setattr__": "every attribute assignment calls it; it keeps "
                          "records immutable",
    "Record.__eq__": "== calls it: record equality, in tests for one",
    "Record.__hash__": "hash() calls it, so a record can key a set or dict",
    "Record.__reduce__": "pickle and copy call it; it rebuilds the record "
                         "through its class",
    "Record.__repr__": "repr() calls it, in assertion messages for one",
    "IntegralBasis.__init__": "IntegralBasis(...) calls it; it validates "
                              "every construction",
    "_Parser.error": "argparse calls it on every usage error",
}


def _methods(trees):
    """(module, class, method node) for every function in a class body."""
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield module, node.name, item


def _attribute_names(node):
    """Attribute names read under `node`; a class-body alias is no read."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def unnamed_methods(trees):
    """Methods of `trees` ({module name: ast}) that nothing names."""
    named = Counter()
    for tree in trees.values():
        named += _attribute_names(tree)
    return [
        f"{module}:{node.lineno} {cls}.{node.name}"
        for module, cls, node in _methods(trees)
        if f"{cls}.{node.name}" not in PROTOCOL
        # names inside the method itself (recursion) do not count
        and named[node.name] - _attribute_names(node)[node.name] <= 0
    ]


def _src_trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_every_method_is_named():
    trees = _src_trees()
    unnamed = unnamed_methods(trees)
    assert not unnamed, "methods nothing names: " + ", ".join(unnamed)
    defined = {f"{cls}.{node.name}" for _, cls, node in _methods(trees)}
    assert not set(PROTOCOL) - defined, "stale PROTOCOL entries"


def _unnamed_with_planted(extra=""):
    """What the gate flags once Poly gains a method `planted` that only
    calls divmod_by, followed by the class-body lines `extra`."""
    trees = _src_trees()
    source = (SRC / "poly.py").read_text().replace(
        "    def divmod_by(self, divisor",
        "    def planted(self):\n        return self.divmod_by(X)\n\n"
        + extra + "    def divmod_by(self, divisor",
    )
    trees["poly.py"] = ast.parse(source)
    return [entry.split(" ")[1] for entry in unnamed_methods(trees)]


def test_method_gate_finds_a_planted_method():
    assert _unnamed_with_planted() == ["Poly.planted"]


def test_method_gate_finds_a_method_named_only_by_its_alias():
    assert _unnamed_with_planted("    __rplanted__ = planted\n\n") == ["Poly.planted"]


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
