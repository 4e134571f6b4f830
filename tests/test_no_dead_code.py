"""Every function, class, method and record field in src/sextics has a
consumer in the package, every module of it reads each name it imports,
every defaulted parameter is set by some call in the package, every
import sits at the top of its module unless it is listed with its reason,
and every `__all__` entry names something its module binds at top level.

A top-level definition counts as used when code in src/sextics, outside the
definition's own body, looks its name up: in the defining module, or in a
module that imports the name, and not shadowed by a local binding of the
enclosing function.  A method or a record field counts as used when such
code reads an attribute of that name on any object, so a field or method of
the same name elsewhere hides it; assigning the attribute is not a read.
The record fields are the annotated fields of a `NamedTuple` class and the
names in a class's `__slots__`.  A field read in its own class's dunder
methods, or in the `_key` that lists the compared fields for them, is not
used: those serve equality, hashing, the repr and pickling, as a generated
method would.  A classmethod counts as used only when such code reads it
through its own class's name (`Cls.name`, also as `module.Cls.name`), or
through `cls` inside the class, so `Poly.const` does not keep a
`UniPoly.const`.
Strings (the `__all__` lists, docstrings, `getattr` keys) and import
statements are not uses.  Dunder methods are exempt: the interpreter calls
them.

An imported name counts as read when the importing module loads it
anywhere.  Package `__init__` modules are exempt: they import to re-export.

A call is matched to a function by name, `name(...)` or `x.name(...)`, and
to a class's `__init__` by the class name.  It sets a parameter by position
or by keyword; a call with `*args` or `**kwargs` sets them all.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sextics"

# Definitions whose consumer is a test of a paper claim or a reference check,
# or lies where the scan does not look.
ALLOWED = {
    # recognition of the catalog's normal forms, checked germ by germ
    "classify_germ",
    # the law sum of iota * cluster degree = 6 over the inner points
    "InnerOuterSplit.iota_total",
    # the lemma that an E7 branch pair has a smooth dual branch
    "dual_branch",
    # regenerates the shipped signature table, which a test compares to it
    "build_signature_table",
    # the raw signature an Unknown type carries; test_unknown_signature
    # reads it
    "SingType.signature",
    # always False now that a capped resolve raises; perfbench/tracer.py
    # counts it as localsing.resolve.capped
    "Resolution.tower_capped",
}

# Imports that no code of their module reads, as "module path: name".
ALLOWED_IMPORTS = {
    # perfbench/tracer.py patches factor_over_field in this namespace, and
    # refuses to install when the name is missing there
    "localsing/germs.py: factor_over_field",
    # perfbench/tracer.py patches resultant and factor_rational in this
    # namespace, and refuses to install when either name is missing there
    "components.py: resultant",
    "components.py: factor_rational",
    # perfbench/tracer.py patches is_squarefree in this namespace, and
    # refuses to install when the name is missing there
    "localsing/points.py: is_squarefree",
}

# Imports inside a function body, as "module path: function: name"; every
# other import sits at the top of its module.
ALLOWED_LOCAL_IMPORTS = {
    # multiprocessing costs start-up time, and only `verify --jobs N` with
    # N > 1 needs it
    "cli.py: cmd_verify: multiprocessing",
}

# Defaulted parameters that no call in the package sets, as
# "module path: function.parameter".
ALLOWED_DEFAULTS = {
    # the console entry point calls main() with no arguments; tests pass argv
    "cli.py: main.argv",
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
        self.attrs = []       # (owner name or None, attr, line)
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
        if isinstance(node.ctx, ast.Load):
            owner = getattr(node.value, "id", getattr(node.value, "attr", None))
            self.attrs.append((owner, node.attr, node.lineno))
        self.generic_visit(node)


def _record_fields(cls):
    """(name, statement) of each field of a record class: the annotated
    fields of a NamedTuple, and the names in `__slots__`."""
    named_tuple = any(getattr(b, "id", None) == "NamedTuple"
                      for b in cls.bases)
    for item in cls.body:
        if named_tuple and isinstance(item, ast.AnnAssign) \
                and isinstance(item.target, ast.Name):
            yield item.target.id, item
        elif isinstance(item, ast.Assign) and any(
                getattr(t, "id", None) == "__slots__" for t in item.targets):
            for name in ast.literal_eval(item.value):
                yield name, item


def _plumbing(cls):
    """(first, last) lines of a class's dunder methods and its `_key`."""
    return [(item.lineno, item.end_lineno) for item in cls.body
            if isinstance(item, ast.FunctionDef)
            and (item.name.startswith("__") or item.name == "_key")]


def _is_classmethod(node):
    return any(getattr(d, "id", None) == "classmethod"
               for d in node.decorator_list)


def _definitions(tree):
    """(label, name, kind, first line, last line, enclosing class or None)
    of every checked definition."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node.name, "name", node.lineno, node.end_lineno, None
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) \
                    and not item.name.startswith("__"):
                kind = "classmethod" if _is_classmethod(item) else "attr"
                yield ("%s.%s" % (node.name, item.name), item.name, kind,
                       item.lineno, item.end_lineno, node)
        for name, item in _record_fields(node):
            yield ("%s.%s" % (node.name, name), name, "field",
                   item.lineno, item.end_lineno, node)


def unused_definitions(allowed=ALLOWED):
    modules = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        uses = _Uses()
        uses.visit(tree)
        modules[path] = (tree, uses)
    unused = []
    for path, (tree, _) in modules.items():
        for label, name, kind, first, last, cls in _definitions(tree):
            if label in allowed:
                continue
            used = False
            for other, (_, uses) in modules.items():
                if kind == "name":
                    if other != path and name not in uses.imported:
                        continue
                    lines = [line for n, line in uses.names if n == name]
                elif kind == "classmethod":
                    lines = [line for o, a, line in uses.attrs if a == name
                             and (o == cls.name or o == "cls" and other == path
                                  and cls.lineno <= line <= cls.end_lineno)]
                else:
                    lines = [line for _, a, line in uses.attrs if a == name]
                if kind == "field" and other == path:
                    lines = [line for line in lines if not any(
                        a <= line <= b for a, b in _plumbing(cls))]
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


def _functions(node, prefix="", cls=None):
    """(qualified name, function node, enclosing class or None), nested
    functions included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _functions(child, prefix + child.name + ".", child)
        elif isinstance(child, ast.FunctionDef):
            yield prefix + child.name, child, cls
            yield from _functions(child, prefix + child.name + ".")
        else:
            yield from _functions(child, prefix, cls)


def _own_nodes(fn):
    """The nodes of a function's body, without those of nested functions
    and classes."""
    stack = [fn]
    while stack:
        for child in ast.iter_child_nodes(stack.pop()):
            if not isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield child
                stack.append(child)


def local_imports(allowed=ALLOWED_LOCAL_IMPORTS):
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for qualname, fn, _cls in _functions(tree):
            for node in _own_nodes(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        label = "%s: %s: %s" % (
                            path.relative_to(SRC).as_posix(), qualname,
                            (alias.asname or alias.name).split(".")[0])
                        if label not in allowed:
                            found.append(label)
    return found


def test_imports_sit_at_module_level():
    assert local_imports() == []


def test_local_import_allow_list_holds_only_local_imports():
    assert ALLOWED_LOCAL_IMPORTS <= set(local_imports(set()))


def _sets(call, index, name):
    """Whether `call` sets the parameter `name`, which its positional
    argument number `index` (from 0) would fill."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return len(call.args) > index or any(
        kw.arg is None or kw.arg == name for kw in call.keywords)


def unset_defaults(allowed=ALLOWED_DEFAULTS):
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.rglob("*.py"))}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id",
                                 getattr(node.func, "attr", None))
                calls.setdefault(callee, []).append(node)
    unset = []
    for path, tree in trees.items():
        for qualname, fn, cls in _functions(tree):
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in fn.decorator_list)
            bound = cls is not None and not static
            callee = cls.name if fn.name == "__init__" else fn.name
            args = fn.args
            positional = args.posonlyargs + args.args
            defaulted = [(i, a.arg) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            # a keyword-only parameter is never set by position
            defaulted += [(float("inf"), a.arg) for a, d
                          in zip(args.kwonlyargs, args.kw_defaults) if d]
            for index, name in defaulted:
                label = "%s: %s.%s" % (path.relative_to(SRC).as_posix(),
                                       qualname, name)
                if label in allowed:
                    continue
                if not any(_sets(c, index - bound, name)
                           for c in calls.get(callee, ())):
                    unset.append(label)
    return unset


def test_every_default_is_set_by_a_caller():
    assert unset_defaults() == []


def test_default_allow_list_holds_only_unset_defaults():
    assert ALLOWED_DEFAULTS <= set(unset_defaults(set()))


def _module_bindings(tree):
    """Names a module binds at top level: definitions, assignment targets
    and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def stale_exports():
    """`__all__` entries that name nothing bound in their module, as
    "module path: name"; `from module import *` raises on each."""
    stale = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = _module_bindings(tree)
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                stale += ["%s: %s" % (path.relative_to(SRC).as_posix(), name)
                          for name in ast.literal_eval(node.value)
                          if name not in bound]
    return stale


def test_every_export_is_bound():
    assert stale_exports() == []
