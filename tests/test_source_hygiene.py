"""Source hygiene of the package, by the standard library alone: no
module-level import goes unused, no function-local name is assigned
without ever being read (tuple-unpacking targets and `_` are exempt), no
parameter goes unread (`self`, `cls` and `_`-prefixed names are exempt),
no module-level function, class or constant goes unreferenced by the
package, its scripts and its benchmark, unless TEST_ONLY names it, and no
method of a module-level class goes unread there as an attribute, unless
TEST_ONLY_METHODS names it, no field of a module-level dataclass goes
unread there, as an attribute or as a string constant (the name handed to
`getattr`), with no exemptions, and no module but `fields` touches a
field's private tables, so that the packing of a vector is decided in one
module."""

import ast
import collections
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ringgeom").glob("*.py"))
# where a top-level name of the package must be referenced
SEARCHED = ("src/ringgeom", "scripts", "bench")
# top-level names that only tests reference, each with its reason
TEST_ONLY = {
    # behind an acceptance criterion
    "alpha_section": "criterion 15: affine sections of quadric pairs",
    "d1_q2_examples": "criterion 13: the d = 1, q = 2 examples",
    "fano_relabelled": "the criterion 13 examples under other Fano "
                       "labellings",
    "quadratic_field_algebra": "criteria 01, 02, 04, 05 and 10: F_{q^2} "
                               "as a quadratic algebra",
    "compose": "criterion 08: composed motions",
}
# methods that only tests read, each with its reason
TEST_ONLY_METHODS = {
    # behind an acceptance criterion
    "Scroll.transversal_index_of": "criterion 15: pairing quadric points "
                                   "by transversal for alpha sections",
}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
# the attributes in which a field keeps its packing of rows and points
FIELD_PRIVATE = ("_enc", "_dec", "_scale", "_negscale", "_unit", "_reduce",
                 "_code", "_batch")


def _loaded(tree):
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unused_imports(tree):
    """(line, name) of each module-level import whose name is never read;
    names listed in __all__ count as read."""
    used = _loaded(tree) | {
        elt.value for n in ast.walk(tree) if isinstance(n, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__"
                for t in n.targets)
        for elt in getattr(n.value, "elts", ()) if isinstance(elt,
                                                               ast.Constant)}
    out = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    out.append((node.lineno, name))
    return out


def _own_nodes(scope):
    """The nodes of a function body, not descending into nested scopes."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, SCOPES + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))


def dead_locals(tree):
    """(line, function, name) of each local bound by a plain assignment
    and never read in the function or in a scope nested in it."""
    out = []
    for scope in ast.walk(tree):
        if not isinstance(scope, SCOPES):
            continue
        declared = set()
        stores = {}
        for node in _own_nodes(scope):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
                continue
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign,
                                   ast.NamedExpr)):
                targets = [node.target]
            else:
                continue
            for t in targets:
                if isinstance(t, ast.Name) and t.id != "_":
                    stores.setdefault(t.id, t.lineno)
        read = _loaded(scope)
        name = getattr(scope, "name", "<lambda>")
        out.extend((line, name, var) for var, line in sorted(stores.items())
                   if var not in read and var not in declared)
    return sorted(out)


def unused_params(tree):
    """(line, function, name) of each parameter never read in its function
    or in a scope nested in it."""
    out = []
    for scope in ast.walk(tree):
        if not isinstance(scope, SCOPES):
            continue
        a = scope.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None]
        read = _loaded(scope)
        name = getattr(scope, "name", "<lambda>")
        out.extend((p.lineno, name, p.arg) for p in params
                   if p.arg not in read and p.arg not in ("self", "cls")
                   and not p.arg.startswith("_"))
    return sorted(out)


def referenced_names(trees):
    """How often each name is read in the trees: as a name, as an
    attribute or as an imported name.  Strings, comments and the
    definitions themselves do not count."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else
        n.attr if isinstance(n, ast.Attribute) else n.name
        for tree in trees for n in ast.walk(tree)
        if isinstance(n, (ast.Attribute, ast.alias))
        or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


def defined_names(tree):
    """(line, name) of each module-level function, class or constant,
    dunder names exempt."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            defined.extend((node.lineno, t.id) for t in targets
                           if isinstance(t, ast.Name))
    return sorted((line, name) for line, name in defined
                  if not name.startswith("__"))


def unreferenced_names(tree, counts, allowed=()):
    """(line, name) of each module-level name of `tree` that `counts`,
    the references of the searched sources, never reads and that is not
    `allowed`."""
    return [(line, name) for line, name in defined_names(tree)
            if not counts[name] and name not in allowed]


def defined_methods(tree):
    """(line, "Class.method") of each method of a module-level class,
    dunder names exempt."""
    return sorted((fn.lineno, "%s.%s" % (node.name, fn.name))
                  for node in tree.body if isinstance(node, ast.ClassDef)
                  for fn in node.body
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not fn.name.startswith("__"))


def read_attributes(trees):
    """The attribute names read in the trees."""
    return {n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def unreferenced_methods(tree, attributes, allowed=()):
    """(line, "Class.method") of each method of `tree` whose name is not
    among `attributes`, the attributes the searched sources read, and
    that is not `allowed`."""
    return [(line, name) for line, name in defined_methods(tree)
            if name.split(".")[1] not in attributes and name not in allowed]


def _is_dataclass(node):
    """Whether a class is decorated with `dataclass` or `dataclass(...)`."""
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               for d in (getattr(d, "func", d) for d in node.decorator_list))


def dataclass_fields(tree):
    """(line, "Class.field") of each annotated field of a module-level
    dataclass."""
    return sorted((f.lineno, "%s.%s" % (node.name, f.target.id))
                  for node in tree.body if isinstance(node, ast.ClassDef)
                  and _is_dataclass(node) for f in node.body
                  if isinstance(f, ast.AnnAssign)
                  and isinstance(f.target, ast.Name))


def field_reads(trees):
    """The attribute names read in the trees, and their string constants:
    a field read by `getattr(obj, name)` is spelled as a string."""
    return read_attributes(trees) | {
        n.value for tree in trees for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def unread_fields(tree, reads):
    """(line, "Class.field") of each dataclass field of `tree` whose name
    is not among `reads`."""
    return [(line, name) for line, name in dataclass_fields(tree)
            if name.split(".")[1] not in reads]


def private_field_reads(tree):
    """(line, name) of each attribute access to a field's private tables
    (`FIELD_PRIVATE`), read or written."""
    return sorted((n.lineno, n.attr) for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr in FIELD_PRIVATE)


@pytest.fixture(scope="module")
def searched_trees():
    return [ast.parse(p.read_text()) for d in SEARCHED
            for p in sorted((ROOT / d).rglob("*.py"))]


@pytest.fixture(scope="module")
def searched_attributes(searched_trees):
    return read_attributes(searched_trees)


@pytest.fixture(scope="module")
def searched_field_reads(searched_trees):
    return field_reads(searched_trees)


@pytest.fixture(scope="module")
def searched_counts(searched_trees):
    return referenced_names(searched_trees)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unreferenced_names(path, searched_counts):
    assert unreferenced_names(ast.parse(path.read_text()), searched_counts,
                              TEST_ONLY) == []


def test_test_only_names_are_test_only(searched_counts):
    # each allowlisted name exists and no source outside the tests reads
    # it, so the list shrinks when a name gains a caller or goes
    defined = {name for path in SOURCES
               for _, name in defined_names(ast.parse(path.read_text()))}
    assert set(TEST_ONLY) <= defined
    assert [n for n in TEST_ONLY if searched_counts[n]] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unreferenced_methods(path, searched_attributes):
    assert unreferenced_methods(ast.parse(path.read_text()),
                                searched_attributes, TEST_ONLY_METHODS) == []


def test_test_only_methods_are_test_only(searched_attributes):
    defined = {name for path in SOURCES
               for _, name in defined_methods(ast.parse(path.read_text()))}
    assert set(TEST_ONLY_METHODS) <= defined
    assert [m for m in TEST_ONLY_METHODS
            if m.split(".")[1] in searched_attributes] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_dataclass_fields(path, searched_field_reads):
    # a field that nothing reads is state kept for no one: derive it
    # where it is needed, or move it into the tests
    assert unread_fields(ast.parse(path.read_text()),
                         searched_field_reads) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dead_locals(path):
    assert dead_locals(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_params(path):
    assert unused_params(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "fields.py"],
                         ids=lambda p: p.name)
def test_no_private_field_reads_outside_fields(path):
    # only `fields` knows how a row or a point is packed
    assert private_field_reads(ast.parse(path.read_text())) == []


def test_scanner_finds_planted_dead_names():
    tree = ast.parse(
        "import os\n"
        "import sys as system\n"
        "from itertools import chain, product\n"
        "def f(x):\n"
        "    y = x + 1\n"
        "    z = 2\n"
        "    a, b = x\n"
        "    _ = 3\n"
        "    w = 0\n"
        "    def g():\n"
        "        return w + chain\n"
        "    return y, g\n")
    assert unused_imports(tree) == [(1, "os"), (2, "system"), (3, "product")]
    assert dead_locals(tree) == [(6, "f", "z")]


def test_scanner_finds_planted_unused_params():
    tree = ast.parse(
        "class C:\n"
        "    def m(self, a, b, *args, c=0, _d=1, **kw):\n"
        "        def inner():\n"
        "            return a\n"
        "        return inner, kw\n"
        "    @classmethod\n"
        "    def k(cls, e):\n"
        "        return 0\n"
        "f = lambda x, _y: 1\n")
    assert unused_params(tree) == [(2, "m", "args"), (2, "m", "b"),
                                   (2, "m", "c"), (7, "k", "e"),
                                   (9, "<lambda>", "x")]


def test_scanner_finds_planted_unreferenced_names():
    source = ("LIMIT = 3\n"
              "USED: int = 1\n"
              "__all__ = []\n"
              "class Gone:\n"
              "    pass\n"
              "def helper():\n"
              "    return USED\n"
              "def _private():\n"
              "    return 0\n")
    caller = "from m import helper\nimport m\nprint(m.LIMIT)\n"
    counts = referenced_names([ast.parse(source), ast.parse(caller)])
    assert unreferenced_names(ast.parse(source), counts) == [
        (4, "Gone"), (8, "_private")]


def test_scanner_finds_planted_test_only_function():
    # a function only a test calls is reported, and a report key spelled
    # like it in the package is no reference
    source = ("def build():\n"
              "    return {'only_tested': 1}\n"
              "def only_tested():\n"
              "    return 1\n")
    caller = "from m import build\nbuild()\n"
    test = "from m import only_tested\nassert only_tested() == 1\n"
    counts = referenced_names([ast.parse(source), ast.parse(caller)])
    assert referenced_names([ast.parse(test)])["only_tested"] == 2
    tree = ast.parse(source)
    assert unreferenced_names(tree, counts) == [(3, "only_tested")]
    assert unreferenced_names(tree, counts, {"only_tested": "why"}) == []


def test_scanner_finds_planted_test_only_method():
    # a method only a test reads is reported; a module-level function or
    # a stored attribute of the same name is no read of it
    source = ("class C:\n"
              "    def __init__(self):\n"
              "        self.only_tested = None\n"
              "    @property\n"
              "    def size(self):\n"
              "        return 1\n"
              "    def used(self):\n"
              "        return self.size\n"
              "    def only_tested(self):\n"
              "        return 2\n"
              "def only_tested():\n"
              "    return C().used()\n")
    test = "from m import C\nassert C().only_tested() == 2\n"
    attributes = read_attributes([ast.parse(source)])
    assert "only_tested" in read_attributes([ast.parse(test)])
    tree = ast.parse(source)
    assert unreferenced_methods(tree, attributes) == [(9, "C.only_tested")]
    assert unreferenced_methods(tree, attributes,
                                {"C.only_tested": "why"}) == []


def test_scanner_finds_planted_unread_fields():
    # a field read only where it is stored, or only by a test, is
    # reported; an attribute read or a getattr string is a read, and a
    # plain class's annotations are no fields
    source = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\n"
              "class R:\n"
              "    used: int\n"
              "    by_name: bool\n"
              "    stored: list\n"
              "    tested: int = 0\n"
              "class Plain:\n"
              "    loose: int\n"
              "def make():\n"
              "    r = R(1, True, [])\n"
              "    return r.used, getattr(r, 'by_name')\n")
    test = "from m import make, R\nassert R(1, 2, 3).tested == 0\n"
    tree = ast.parse(source)
    assert "tested" in field_reads([ast.parse(test)])
    assert unread_fields(tree, field_reads([tree])) == [
        (6, "R.stored"), (7, "R.tested")]


def test_scanner_finds_planted_private_field_reads():
    # a read or a write of a field's table is reported; its public
    # methods and other private names are not
    tree = ast.parse(
        "def f(field, u):\n"
        "    t = field._scale[1]\n"
        "    field._reduce = t\n"
        "    v = u.translate(field._enc) + field.pack(u)\n"
        "    return v, field._private, field.row_combinations(v, [])\n")
    assert private_field_reads(tree) == [(2, "_scale"), (3, "_reduce"),
                                         (4, "_enc")]
