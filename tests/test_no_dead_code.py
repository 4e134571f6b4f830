"""Every function, class and method in src/sextics has a consumer in the package,
and every module of it reads each name it imports.

A top-level definition counts as used when code in src/sextics, outside the
definition's own body, looks its name up: in the defining module, or in a
module that imports the name, and not shadowed by a local binding of the
enclosing function.  A method counts as used when such code reads an
attribute of that name on any object, so a field or method of the same name
elsewhere hides it.  Strings (the `__all__` lists, docstrings) and import
statements are not uses.  Dunder methods are exempt: the interpreter calls
them.

An imported name counts as read when the importing module loads it
anywhere.  Package `__init__` modules are exempt: they import to re-export.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sextics"

# Public names whose consumer is a test of a paper claim or a reference check.
ALLOWED = {
    # recognition of the catalog's normal forms, checked germ by germ
    "classify_germ",
    # the law sum of iota * cluster degree = 6 over the inner points
    "InnerOuterSplit.iota_total",
    # the product of the components equals the curve up to a constant
    "ComponentDecomposition.reconstruct",
    # the lemma that an E7 branch pair has a smooth dual branch
    "dual_branch",
    # regenerates the shipped signature table, which a test compares to it
    "build_signature_table",
}

# Imports that no code of their module reads, as "module path: name".
ALLOWED_IMPORTS = {
    # perfbench/tracer.py patches factor_over_field in this namespace, and
    # refuses to install when the name is missing there
    "localsing/germs.py: factor_over_field",
}


def _bound_names(fn):
    """Names a function binds locally: arguments and assignment targets."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    for a in (args.vararg, args.kwarg):
        if a is not None:
            names.add(a.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and node is not fn:
            names.add(node.name)
    return names


class _Uses(ast.NodeVisitor):
    """Global name lookups and attribute reads of one module, with lines."""

    def __init__(self):
        self.names = []       # (name, line)
        self.attrs = []       # (attr, line)
        self.imported = set()
        self._scopes = []

    def visit_FunctionDef(self, node):
        self._scopes.append(_bound_names(node))
        self.generic_visit(node)
        self._scopes.pop()

    def visit_ImportFrom(self, node):
        self.imported.update(alias.name for alias in node.names)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and not any(
                node.id in scope for scope in self._scopes):
            self.names.append((node.id, node.lineno))

    def visit_Attribute(self, node):
        self.attrs.append((node.attr, node.lineno))
        self.generic_visit(node)


def _definitions(tree):
    """(label, name, kind, first line, last line) of every checked definition."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node.name, "name", node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("__"):
                    yield ("%s.%s" % (node.name, item.name), item.name, "attr",
                           item.lineno, item.end_lineno)


def unused_definitions(allowed=ALLOWED):
    modules = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        uses = _Uses()
        uses.visit(tree)
        modules[path] = (tree, uses)
    unused = []
    for path, (tree, _) in modules.items():
        for label, name, kind, first, last in _definitions(tree):
            if label in allowed:
                continue
            used = False
            for other, (_, uses) in modules.items():
                if kind == "name":
                    if other != path and name not in uses.imported:
                        continue
                    lines = [line for n, line in uses.names if n == name]
                else:
                    lines = [line for a, line in uses.attrs if a == name]
                if any(other != path or not first <= line <= last
                       for line in lines):
                    used = True
                    break
            if not used:
                unused.append("%s: %s" % (path.relative_to(SRC), label))
    return unused


def test_every_definition_has_a_consumer():
    assert unused_definitions() == []


def test_allow_list_holds_only_unused_definitions():
    flagged = {entry.split(": ")[1] for entry in unused_definitions(set())}
    assert ALLOWED <= flagged


def unused_imports(allowed=ALLOWED_IMPORTS):
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    label = "%s: %s" % (path.relative_to(SRC).as_posix(), name)
                    if name not in read and label not in allowed:
                        unused.append(label)
    return unused


def test_every_import_is_read():
    assert unused_imports() == []


def test_import_allow_list_holds_only_unread_imports():
    assert ALLOWED_IMPORTS <= set(unused_imports(set()))
