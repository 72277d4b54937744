"""A guard against orphaned code: every module-level function and every
method in src/hb that no code in src/hb names is listed here, with the
reason it stays.

A function counts as named when some Name, Attribute or import alias in
src/hb carries its name; a method, when some Attribute does (x.name or
self.name), since a bare name never reaches it.  Matching is by name
only, so a method whose name another class shares (pow, scale, monic)
counts as called whenever any of them is, and a function that only
calls itself counts too.  Dunder methods are left out: the language
calls them."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hb"

# the definitions that nothing in src/hb calls, and why each stays
ALLOWED = {
    "algebra.psi0": "the test reference for psi_sum",
    "fourier.build_table": "the public inverse of expand",
    "building.Cochain.eval_rep": "perfbench/ binds it",
    "eisenstein.eisenstein_fourier": "perfbench/ binds it",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _definitions(module, tree):
    """(module.name, name, is a method) for its functions and the
    methods of its classes, dunders left out."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node.name, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item.name, True


def _named(trees):
    """(the names that a Name or an import alias carries, those that an
    Attribute carries)."""
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def _orphans(trees):
    names, attributes = _named(trees)
    return {qualified for module, tree in trees.items()
            for qualified, name, method in _definitions(module, tree)
            if name not in attributes and (method or name not in names)}


def test_nothing_in_src_is_orphaned():
    assert _orphans(_trees()) == set(ALLOWED)


def test_the_guard_sees_an_orphan():
    # a function named only by an attribute is called, a method named
    # only by a local variable is not, and dunders are not listed
    source = """
def used():
    m = 1
    return m


def orphan():
    return used()


def by_module():
    pass


class K:
    def m(self):
        return mod.by_module()

    def called(self):
        return self.m

    def __len__(self):
        return 0
"""
    assert _orphans({"mod": ast.parse(source)}) == \
        {"mod.orphan", "mod.K.called"}
