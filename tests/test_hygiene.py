"""Every definition of the package has a user.

The module-level functions, classes and constants of ``src/groupapprox``
and the public methods of its classes count as used when their name is
read somewhere in ``src/``, ``tests/`` or ``perfbench/``: as a name, an
attribute or an import alias. Assigning a name is not reading it, so a
constant does not count as its own user.
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
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
                if node.asname:
                    names.add(node.asname)
    return names


def _definitions(tree):
    """(line, name) of each module-level function, class and constant, and
    of each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                # dunders such as __all__ are read by Python itself
                if isinstance(target, ast.Name) \
                        and not target.id.startswith("__"):
                    yield node.lineno, target.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not item.name.startswith("_"):
                    yield item.lineno, f"{node.name}.{item.name}"


def test_every_module_level_definition_is_referenced():
    used = _referenced_names()
    unused = []
    for path, tree in _trees("src/groupapprox"):
        for lineno, name in _definitions(tree):
            if name.rsplit(".", 1)[-1] not in used:
                unused.append(f"{path.relative_to(ROOT)}:{lineno} {name}")
    assert not unused, "unreferenced definitions: " + ", ".join(unused)
