"""Static checks over the package source in src/cosetapprox."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cosetapprox"


def _private_definitions(tree):
    """(name, node) for each private name bound at the top level of a
    module: a function, a class or an assignment whose name starts with one
    underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
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


def _unused_private_names(sources: dict[str, str]) -> list[str]:
    """The entries "module: name", one per private top-level name of the
    modules in sources (file name -> text) that no top-level statement of
    any of them reads, other than the name's own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    unused = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            if not any(
                ref == name
                for other in trees.values()
                for node in other.body
                if node is not definition
                for ref in _references(node)
            ):
                unused.append(f"{module}: {name}")
    return unused


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
