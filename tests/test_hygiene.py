"""Every module-level function and class of the package has a user.

A definition counts as used when its name appears somewhere in ``src/``,
``tests/`` or ``perfbench/`` as a name, an attribute or an import alias.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _referenced_names():
    names = set()
    for _, tree in _trees("src", "tests", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
                if node.asname:
                    names.add(node.asname)
    return names


def test_every_module_level_definition_is_referenced():
    used = _referenced_names()
    unused = []
    for path, tree in _trees("src/groupapprox"):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and node.name not in used:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} "
                              f"{node.name}")
    assert not unused, "unreferenced definitions: " + ", ".join(unused)
