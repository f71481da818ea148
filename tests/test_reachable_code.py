"""Every top-level function and method in ``src/`` has a use outside tests.

A name counts as used when a ``src/`` module (the CLI commands included)
or a ``bench/`` file mentions it: as an attribute, as a string that a
tracer looks it up by, or, for a top-level function only, as a bare name.
A method is reached through an object, so a local variable that shares its
name does not keep it alive.  The match is by name, so it can only miss
dead code, never flag live code that it sees.  Dunder methods are called
by Python itself and are not checked.
"""

import ast

from conftest import REPO

SRC = REPO / "src" / "kgdialog"
BENCH = REPO / "bench"

# Names that only tests reach today, each with the ROADMAP item that either
# gives it a use or deletes it.  The list may only shrink: a name that gains
# a use fails the test below until it is taken off.
ALLOWED_UNUSED = {
    "kg_embed.load_embeddings": "ROADMAP 10",
    "templates.transform_add_type": "ROADMAP 9",
    "templates.transform_multi_relation": "ROADMAP 9",
}


def defined_names(src):
    """(qualified name, bare name, is a method) of every top-level function
    and method of the modules in ``src``."""
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{path.stem}.{node.name}", node.name, False
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("__"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name, True


def used_names(paths):
    """The bare names, and the attribute and string names, that ``paths``
    mention."""
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                attributes.add(node.value)
    return names, attributes


def unused_names(src, others):
    names, attributes = used_names([*src.glob("*.py"), *others])
    return {
        qualified
        for qualified, bare, method in defined_names(src)
        if bare not in attributes and (method or bare not in names)
    }


def test_every_function_has_a_use_outside_tests():
    unused = unused_names(SRC, BENCH.rglob("*.py"))
    assert unused - set(ALLOWED_UNUSED) == set(), "used by tests only; delete it or give it a use"
    assert set(ALLOWED_UNUSED) - unused == set(), "now used or gone; take it off ALLOWED_UNUSED"


def test_the_scan_sees_a_dead_function(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    # a local variable named like a method does not count as a use of it
    (src / "mod.py").write_text(
        "def live():\n    pass\n\n\ndef dead():\n    lookup = live()\n\n\n"
        "class K:\n    def traced(self):\n        pass\n\n    def lookup(self):\n        pass\n\n"
        "    def __len__(self):\n        return 0\n",
        encoding="utf-8",
    )
    bench = tmp_path / "bench.py"
    bench.write_text('span(K, "traced")\n', encoding="utf-8")
    assert unused_names(src, []) == {"mod.dead", "mod.K.traced", "mod.K.lookup"}
    assert unused_names(src, [bench]) == {"mod.dead", "mod.K.lookup"}

