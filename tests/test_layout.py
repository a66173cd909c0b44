"""Every top-level definition in src/halfint, and every method and property
of its top-level classes, has a product, acceptance or bench caller.

The walk is by name over the module ASTs, so it over-approximates: a
reference to `foo` from anywhere reachable keeps every top-level `foo` and
every method `foo` in every module. It starts from `cli.main`, from every
name that tests/test_acceptance.py imports or references, and from every
name that perfbench/*.py takes from halfint (module attributes, `from
halfint...` imports, and the dotted function names its tracer patches by
string). It then follows the names, attributes and identifier strings inside
each definition it reaches. The files are only read.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "halfint"

# Top-level names that only unit tests reach but that stay on purpose, each
# with its reason. Keep this empty unless a name cannot have another caller.
ALLOWED_TEST_ONLY: dict = {}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*\Z")


def _references(node: ast.AST) -> set:
    """Names, attribute names and the parts of identifier-like strings."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if _IDENT.match(sub.value):
                out.update(sub.value.split("."))
    return out


def _is_method(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
        node.name.startswith("__") and node.name.endswith("__")
    )


def _definitions() -> dict:
    """{(module, name): AST node} for every top-level def, class and
    assignment in src/halfint, and every method and property of a top-level
    class as (module, "Class.name"), dunder names excluded. A class node
    stands for its body without those methods, so what a method references
    is followed only once the method itself is reached."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if _is_method(sub):
                        defs[(path.stem, f"{node.name}.{sub.name}")] = sub
                node = ast.ClassDef(
                    name=node.name, bases=node.bases, keywords=node.keywords,
                    decorator_list=node.decorator_list,
                    body=[sub for sub in node.body if not _is_method(sub)],
                )
                names = [node.name]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    defs[(path.stem, name)] = node
    return defs


def _bench_roots() -> set:
    """Names perfbench/*.py takes from halfint: attributes of `halfint` or of
    a name spelled like one of its modules, `from halfint...` imports, and
    the parts of identifier-like strings."""
    modules = {"halfint"} | {path.stem for path in SRC.glob("*.py")}
    roots = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("halfint"):
                roots.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    roots.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _IDENT.match(node.value):
                    roots.update(node.value.split("."))
    return roots


def unreachable() -> list:
    defs = _definitions()
    by_name: dict = {}
    for mod, name in defs:
        by_name.setdefault(name.rsplit(".", 1)[-1], []).append((mod, name))
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    todo = ["main"] + sorted(_references(acceptance) | _bench_roots() | set(ALLOWED_TEST_ONLY))
    seen = set()
    while todo:
        name = todo.pop()
        for key in by_name.get(name, ()):
            if key not in seen:
                seen.add(key)
                todo.extend(_references(defs[key]))
    return sorted(f"{mod}.{name}" for mod, name in defs if (mod, name) not in seen)


def test_every_definition_has_a_caller():
    dead = unreachable()
    assert not dead, "no product, acceptance or bench caller: " + ", ".join(dead)


def test_walk_sees_the_roots():
    # guards the walk itself: a root it failed to parse would pass vacuously
    defs = _definitions()
    for key in [("cli", "main"), ("cli", "_suite_sieves"), ("hecke", "find_signflip_prime"),
                ("lvalue", "first_moment_scan"), ("mollifier", "nu_fold"),
                ("hecke", "HeckeTable.lam"), ("qseries", "CoeffTable.sign_array")]:
        assert key in defs
    assert {"first_moment_scan", "delta_halfintegral"} <= _bench_roots()
