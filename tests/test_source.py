"""Checks on the source text of ``src/heintze``, read with ``ast`` and
never imported: every module-level private name is still used.

A helper or constant that lost its last caller is dead code; private
names have no users outside the package, so a name that ``src/`` never
reads (beyond its own definition) can go.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "heintze"


def _private_definitions(tree):
    """(name, line) of the private functions, classes and assigned names
    at a module's top level: one leading underscore, not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def _references(tree):
    """Every name a module reads: loaded names, attribute names and the
    names it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_name_is_used():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    dead = [f"{module}:{line} {name}" for module, tree in trees.items()
            for name, line in _private_definitions(tree) if name not in used]
    assert trees and not dead, "never read in src/: " + ", ".join(dead)
