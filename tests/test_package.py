"""Static checks over the package source in src/cosetapprox."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cosetapprox"


def _bindings(tree):
    """(name, node) for each name bound at the top level of a module by a
    function, a class or an assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            yield name, node


def _private_definitions(tree):
    """(name, node) for each private top-level name: one that starts with
    one underscore."""
    for name, node in _bindings(tree):
        if name.startswith("_") and not name.startswith("__"):
            yield name, node


def _public_definitions(tree):
    """(name, node) for each top-level name the module lists in __all__."""
    bindings = list(_bindings(tree))
    exported = {n for name, node in bindings if name == "__all__" for n in ast.literal_eval(node.value)}
    for name, node in bindings:
        if name in exported:
            yield name, node


def _references(node):
    """The names that node reads: loaded names, attributes and imports."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def _unread_names(sources: dict[str, str], definitions) -> list[str]:
    """The entries "module: name", one per (name, definition) that
    definitions(tree) yields for the modules in sources (file name -> text)
    and that no top-level statement of any of them reads, other than the
    name's own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    unused = []
    for module, tree in trees.items():
        for name, definition in definitions(tree):
            if not any(
                ref == name
                for other in trees.values()
                for node in other.body
                if node is not definition
                for ref in _references(node)
            ):
                unused.append(f"{module}: {name}")
    return unused


def _unused_private_names(sources: dict[str, str]) -> list[str]:
    return _unread_names(sources, _private_definitions)


def test_every_private_top_level_name_has_a_caller():
    # A private helper that nothing in src/ reads is dead code; its own
    # unit test does not count as a caller.
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _unused_private_names(sources) == []


def test_a_helper_that_only_calls_itself_is_unused():
    sources = {
        "a.py": "def _dead(n):\n    return _dead(n - 1)\n\n\n_LIVE = 1\n\n\ndef _live():\n    pass\n",
        "b.py": "from .a import _live\n\nX = _live() + a._LIVE\n",
    }
    assert _unused_private_names(sources) == ["a.py: _dead"]


def test_every_public_name_has_a_caller():
    # A name in __all__ must be read elsewhere in src/ or re-exported by
    # __init__.py; code whose only caller is its own unit test is dead.
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _unread_names(sources, _public_definitions) == []


def test_a_public_name_only_its_test_reads_is_unused():
    sources = {
        "a.py": (
            '__all__ = ["dead", "live", "exported"]\n\n\n'
            "def dead(n):\n    return dead(n - 1)\n\n\n"
            "def live():\n    pass\n\n\n"
            "def exported():\n    pass\n\n\n"
            "def unlisted():\n    pass\n"
        ),
        "b.py": "from .a import live\n\nX = live()\n",
        "__init__.py": "from .a import exported\n",
    }
    assert _unread_names(sources, _public_definitions) == ["a.py: dead"]
