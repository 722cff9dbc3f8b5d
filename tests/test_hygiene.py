"""Every definition of the package has a user.

The module-level functions, classes and constants of ``src/groupapprox``
and the public methods of its classes count as used when their name is
read somewhere in ``src/``, ``tests/`` or ``perfbench/``: as a name, an
attribute or an import alias. Assigning a name is not reading it, so a
constant does not count as its own user; nor does a function or method
whose only reads of its name are inside a definition of that name. Likewise every defaulted
parameter of a function or method is passed, by keyword or by position,
at some call there.

A definition that only the tests read is listed in ``_LIBRARY_ONLY`` with
the reason the library keeps it, and the list holds nothing else.

No module of the package reads an underscore name of another: what a
module keeps private (the format of target images, say) stays behind it.

The traced benchmark (``perfbench/run.py --trace 1``) wraps package
definitions by name, so a refactor of the package cannot drop a name it
wraps or a stressor it reads.
"""
import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _reads(node):
    """The names a node reads: a name, an attribute or an import alias."""
    if isinstance(node, ast.Name):
        return [] if isinstance(node.ctx, ast.Store) else [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        last = node.name.rsplit(".", 1)[-1]
        return [last, node.asname] if node.asname else [last]
    return []


def _referenced_names(*dirs):
    names = set()

    def visit(node, inside):
        # a read of N inside ``def N`` (a recursive call, or a method
        # calling its namesake on another object) is not a user of N
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        names.update(n for n in _reads(node) if n not in inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for _, tree in _trees(*dirs):
        visit(tree, frozenset())
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
    used = _referenced_names("src", "tests", "perfbench")
    unused = []
    for path, tree in _trees("src/groupapprox"):
        for lineno, name in _definitions(tree):
            if name.rsplit(".", 1)[-1] not in used:
                unused.append(f"{path.relative_to(ROOT)}:{lineno} {name}")
    assert not unused, "unreferenced definitions: " + ", ".join(unused)


# definitions that no code in src/ or perfbench/ reads, each with why the
# library keeps it; the tests read every one of them
_LIBRARY_ONLY = {
    "certify.D_from_W": "ball certificate from a word certificate, the "
                        "inverse of W_from_D",
    "certify.W_from_D": "README quick start",
    "construct.induce_finite_index": "builder from a finite-index subgroup, "
                                     "library API without a CLI method",
    "groups.index_subgroup_of_Z": "the coset data of mZ <= Z that "
                                  "induce_finite_index takes",
    "profiles.sofic_exact_oracle": "exact sofic value by backtracking, the "
                                   "reference for the sofic bounds",
    "profiles.interval_witness_Z": "closed-form Folner witness of Z, input "
                                   "to folner_to_sofic",
    "profiles.folner_bound_nilpotent": "closed-form upper reference for the "
                                       "Folner function of Z^d",
    "profiles.le_f_growth": "LEF growth over a catalog of finite groups, "
                            "library API",
    "profiles.ra_profile": "residually amenable profile over a catalog of "
                           "quotients, library API",
    "profiles.upper_curve": "pointwise minimum over builders, library API",
    "targets.block_sum": "direct sum, library API; the tests check its "
                         "weighted-average distance identities",
}


def test_library_only_definitions_are_listed():
    used = _referenced_names("src", "perfbench")
    found = {f"{path.stem}.{name}"
             for path, tree in _trees("src/groupapprox")
             for _, name in _definitions(tree)
             if name.rsplit(".", 1)[-1] not in used}
    unlisted = sorted(found - set(_LIBRARY_ONLY))
    assert not unlisted, "read only by the tests, not in _LIBRARY_ONLY: " \
        + ", ".join(unlisted)
    stale = sorted(set(_LIBRARY_ONLY) - found)
    assert not stale, "stale _LIBRARY_ONLY entries: " + ", ".join(stale)


class _Calls(ast.NodeVisitor):
    """Every call, keyed by the name of what it calls: a plain name, the
    attribute of a method call, both branches of ``(f if c else g)(...)``,
    and ``cls(...)`` inside a class as that class's name. Each call is
    kept as (positional count, keyword names), the count None when a
    ``*`` or ``**`` argument could fill any parameter."""

    def __init__(self):
        self.calls = {}
        self.classes = []

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def _names(self, func):
        if isinstance(func, ast.IfExp):
            return self._names(func.body) + self._names(func.orelse)
        if isinstance(func, ast.Name):
            if func.id == "cls" and self.classes:
                return [self.classes[-1]]
            return [func.id]
        if isinstance(func, ast.Attribute):
            return [func.attr]
        return []

    def visit_Call(self, node):
        spread = any(isinstance(a, ast.Starred) for a in node.args) \
            or any(k.arg is None for k in node.keywords)
        seen = (None if spread else len(node.args),
                {k.arg for k in node.keywords})
        for name in self._names(node.func):
            self.calls.setdefault(name, []).append(seen)
        self.generic_visit(node)


def _defaulted_parameters(tree):
    """(line, qualified name, callee name, positional index or None,
    parameter) of each defaulted parameter of each function and method;
    a method's index does not count self, and __init__ is called by its
    class's name."""
    def walk(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                skip = 1 if owner and not static else 0
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                callee = owner if node.name == "__init__" else node.name
                qual = f"{owner}.{node.name}" if owner else node.name
                for i in range(first, len(positional)):
                    yield (node.lineno, qual, callee, i - skip,
                           positional[i].arg)
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield node.lineno, qual, callee, None, arg.arg
                yield from walk(node.body, None)
    yield from walk(tree.body, None)


def test_every_defaulted_parameter_is_passed():
    visitor = _Calls()
    for _, tree in _trees("src", "tests", "perfbench"):
        visitor.visit(tree)
    unpassed = []
    for path, tree in _trees("src/groupapprox"):
        for lineno, qual, callee, index, param in _defaulted_parameters(tree):
            if not any(count is None or param in keywords
                       or index is not None and count > index
                       for count, keywords in visitor.calls.get(callee, [])):
                unpassed.append(f"{path.relative_to(ROOT)}:{lineno} "
                                f"{qual}({param})")
    assert not unpassed, "defaulted parameters no call passes: " \
        + ", ".join(unpassed)


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reads_a_private_name_of_another():
    modules = {path.stem for path, _ in _trees("src/groupapprox")}
    reads = []
    for path, tree in _trees("src/groupapprox"):
        where = path.relative_to(ROOT)
        aliases = {}  # local name -> sibling module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None and a.name in modules:
                        aliases[a.asname or a.name] = a.name
                    elif node.module in modules and _private(a.name):
                        reads.append(f"{where}:{node.lineno} "
                                     f"{node.module}.{a.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases and _private(node.attr):
                reads.append(f"{where}:{node.lineno} "
                             f"{aliases[node.value.id]}.{node.attr}")
    assert not reads, "private names read across modules: " \
        + ", ".join(reads)


def test_one_place_builds_a_verification_report():
    """src/ calls VerificationReport(...) once, in the function that
    decides the conditions for every kernel, so that no kernel can reach
    a verdict of its own."""
    visitor = _Calls()
    for _, tree in _trees("src"):
        visitor.visit(tree)
    assert len(visitor.calls.get("VerificationReport", [])) == 1


def _family_name_lines(path, names):
    """The lines of path's string literals that spell one of ``names``,
    outside the module-level assignment to FAMILIES."""
    tree = ast.parse(path.read_text())
    table = {id(node) for stmt in tree.body
             if isinstance(stmt, ast.Assign)
             and [getattr(t, "id", None) for t in stmt.targets] == ["FAMILIES"]
             for node in ast.walk(stmt)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in names
            and id(node) not in table]


def test_family_names_are_spelled_only_in_the_family_table():
    """certify.py names a family only inside FAMILIES, and targets.py
    names none, so no verification path decides a family's exactness or
    metric on its own. "fin" is also the JSON kind of a table element,
    which targets.py writes and reads."""
    from groupapprox import certify as C_
    from groupapprox import targets as T_
    src = ROOT / "src" / "groupapprox"
    names = set(C_.FAMILIES)
    assert _family_name_lines(src / "certify.py", names) == []
    assert _family_name_lines(src / "targets.py",
                              names - set(T_._TARGET_KEYS)) == []


def test_the_benchmark_tracer_installs():
    """perfbench/layertrace.py wraps the targets' mul and dist by class
    name, the CLI entry points and the certificate classes' dumps and
    from_json; installing it in a fresh interpreter finds every one."""
    code = ("import sys\n"
            "sys.path[:0] = sys.argv[1:]\n"
            "from layertrace import Tracer\n"
            "Tracer(0).install()\n")
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"),
         str(ROOT / "perfbench")], capture_output=True, timeout=120,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert done.returncode == 0, done.stderr.decode()


def _defines(module, path):
    """Whether the dotted ``path`` names a definition of ``module``: an
    attribute chain from it, or a bare method name that one of its
    classes defines (the tracer's name for that method of each)."""
    obj = module
    for part in path.split("."):
        if not hasattr(obj, part):
            break
        obj = getattr(obj, part)
    else:
        return True
    return "." not in path and any(
        inspect.isclass(c) and c.__module__ == module.__name__
        and path in vars(c) for c in vars(module).values())


def _stressors():
    """STRESSORS of perfbench/workloads.py, a literal read without running
    the module."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["STRESSORS"])


def test_every_benchmark_stressor_names_a_definition():
    missing = []
    for workload, names in _stressors().items():
        for name in names:
            layer, path = name.split(".", 1)
            module = importlib.import_module(f"groupapprox.{layer}")
            if not (Path(module.__file__).is_relative_to(ROOT / "src")
                    and _defines(module, path)):
                missing.append(f"{workload}: {name}")
    assert not missing, "stressors naming no definition in src/: " \
        + ", ".join(missing)


_UNIQUE_RETURNS = {"return_index", "return_inverse", "return_counts"}


def test_no_bare_np_unique_in_src():
    """Every np.unique in src/ asks for an index, an inverse or counts:
    numpy >= 2.3 imports numpy.ma on the first np.unique that asks for
    none of them. np.flatnonzero over a bincount or a mask gives the same
    sorted values in O(k) without it."""
    bare = []
    for path, tree in _trees("src"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "unique" \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id in ("np", "numpy") \
                    and not _UNIQUE_RETURNS & {k.arg for k in node.keywords}:
                bare.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not bare, "np.unique without return_*: " + ", ".join(bare)


def _target_kinds(obj):
    """Every ``kind`` in a target object and the objects nested in it."""
    if isinstance(obj, dict):
        return {obj["kind"]}.union(*map(_target_kinds, obj.values()))
    return set()


def test_every_target_kind_has_a_producer():
    """Each kind of target the decoder reads is one that a builder writes:
    one small certificate per builder path covers every kind, so no input
    format outlives the code that made it."""
    from groupapprox import construct as X_
    from groupapprox import groups as G_
    from groupapprox import targets as T_
    Z = G_.FreeAbelian(1)

    def quotient(m, n, family):
        return X_.from_quotient(Z, G_.LatticeHNF(Z, [(m,)]), n, family)
    certs = [quotient(5, 2, family) for family in ("sofic", "hyp", "lin",
                                                    "fin")]
    certs += [X_.cyclic_Z(1),
              X_.amplify_projective(quotient(641, 320, "hyp"), 8),
              X_.induce_finite_index(Z, G_.index_subgroup_of_Z(2),
                                     quotient(5, 2, "hyp"))]
    written = set().union(*(_target_kinds(a["target"])
                            for c in certs
                            for a in c.to_json()["assignments"]))
    assert written == set(T_._TARGET_KEYS)


def test_every_kernel_note_is_in_the_readme():
    """A report names the kernels that measured it by their notes, the
    ``*_NOTE`` constants of certify, and the README names each of them
    verbatim (on one line), so the docs keep up with every kernel that
    can run."""
    certify = importlib.import_module("groupapprox.certify")
    notes = {name: value for name, value in vars(certify).items()
             if name.endswith("_NOTE")}
    assert {"TRANSLATION_NOTE", "COMMUTANT_NOTE",
            "HOMOMORPHISM_NOTE"} <= notes.keys()
    readme = (ROOT / "README.md").read_text()
    missing = sorted(name for name, value in notes.items()
                     if f"`{value}`" not in readme)
    assert not missing, "notes the README does not name: " \
        + ", ".join(missing)
