"""Every top-level definition in src/halfint, and every method and property
of its top-level classes, has a product or acceptance caller.

The walk is by name over the module ASTs, so it over-approximates: a
reference to `foo` from anywhere reachable keeps every top-level `foo` in
every module. It starts from `cli.main`, from every name that
tests/test_acceptance.py references, and from the names ALLOWED_TEST_ONLY
lists. It then follows the references inside each definition it reaches.
perfbench/ is not a root: a name that only the bench reaches is dead to the
product.

Two kinds of reference are told apart. A top-level definition is kept only
by a name that is read (not one that is bound: a local, a parameter or a
dataclass field), by a `from ... import` of it, by an attribute of a halfint
module (`import ... as` aliases resolved), or by an identifier-like string.
A method or property is kept by any attribute of that name, on any object,
or by such a string. The files are only read.

A second walk keeps each module's private names its own: no src/halfint
module may read an underscore name of another halfint module, by attribute
or by `from ... import`.

A third keeps the runtime dependencies declared: the packages src/halfint
imports, outside halfint and the standard library, are exactly those that
pyproject.toml lists under [project].dependencies.

A fourth keeps the rational reference builder an independent oracle:
nothing that qseries.delta_halfintegral_reference reaches, by the first
walk's rules, is the fast builder or one of its parts.

A fifth keeps every option used: each key of cli._GLOBAL and of each
subcommand's table in cli._COMMANDS is read as a string subscript in
cli.main or cli._dispatch, so no option parses and then goes unread.

The last test runs code: it installs the bench tracer of
perfbench/tracing.py, which looks up its names of src/halfint by string, so
that a name it can no longer find fails here and not only in a traced bench
run.
"""

import ast
import importlib.util
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "halfint"
MODULES = {path.stem for path in SRC.glob("*.py")}

# Top-level names that only unit tests and the bench reach but that stay on
# purpose, each with its reason. Keep this short: a name belongs here only
# while it cannot have a product caller.
ALLOWED_TEST_ONLY: dict = {
    "first_moment_scan": "the twisted first moment of central values; only the twists "
    "bench workload and the first-moment pins reach it until a subcommand reports it",
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*\Z")


def _module_aliases(tree: ast.AST) -> set:
    """Local names that the imports of one file bind to halfint or to one of
    its modules."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "halfint" or (node.level and not node.module):
                out.update(a.asname or a.name for a in node.names if a.name in MODULES)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "halfint" or a.name.startswith("halfint."):
                    out.add(a.asname or "halfint")
    return out


def _is_module(node: ast.AST, aliases: set) -> bool:
    if isinstance(node, ast.Name):
        return node.id in aliases
    return (isinstance(node, ast.Attribute) and node.attr in MODULES
            and _is_module(node.value, aliases))


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _bound(scope: ast.AST) -> set:
    """The names a function, lambda or comprehension binds itself: its
    parameters and the names stored outside its nested scopes."""
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = scope.args
        out = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
               + [args.vararg, args.kwarg] if a is not None}
        stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    else:
        out = set()
        stack = [g.target for g in scope.generators]
    declared = set()
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            out.add(node.name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return out - declared


def _references(node: ast.AST, aliases: set, bound: frozenset = frozenset()) -> tuple:
    """(top, member): the names that keep a top-level definition alive, and
    those that keep a method or property alive. `bound` holds the names the
    enclosing scopes bind, whose reads are not references."""
    top, member = set(), set()
    if isinstance(node, _SCOPES):
        bound = bound | _bound(node)
    if isinstance(node, ast.Name):
        if isinstance(node.ctx, ast.Load) and node.id not in bound:
            top.add(node.id)
    elif isinstance(node, ast.Attribute):
        member.add(node.attr)
        if _is_module(node.value, aliases):
            top.add(node.attr)
    elif isinstance(node, ast.ImportFrom):
        top.update(a.name for a in node.names)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        if _IDENT.match(node.value):
            top.update(node.value.split("."))
            member.update(node.value.split("."))
    for child in ast.iter_child_nodes(node):
        t, m = _references(child, aliases, bound)
        top |= t
        member |= m
    return top, member


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


def _reach(defs: dict, top: set, member: set) -> set:
    """The (module, name) keys of `defs` that the references `top` and
    `member` reach, following the references inside each definition
    reached."""
    aliases = {path.stem: _module_aliases(ast.parse(path.read_text(encoding="utf-8")))
               for path in SRC.glob("*.py")}
    by_name: dict = {}
    for mod, name in defs:
        kind = "member" if "." in name else "top"
        by_name.setdefault((kind, name.rsplit(".", 1)[-1]), []).append((mod, name))
    todo = [("top", name) for name in top] + [("member", name) for name in member]
    seen = set()
    while todo:
        ref = todo.pop()
        for key in by_name.get(ref, ()):
            if key not in seen:
                seen.add(key)
                top, member = _references(defs[key], aliases[key[0]])
                todo += [("top", name) for name in top]
                todo += [("member", name) for name in member]
    return seen


def unreachable() -> list:
    defs = _definitions()
    path = ROOT / "tests" / "test_acceptance.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top, member = _references(tree, _module_aliases(tree))
    seen = _reach(defs, {"main"} | top | set(ALLOWED_TEST_ONLY), member)
    return sorted(f"{mod}.{name}" for mod, name in defs if (mod, name) not in seen)


def _private_reads(tree: ast.AST) -> list:
    """The underscore names, dunders aside, that one file reads from halfint
    modules, as `module.name` in the file's own spelling."""
    aliases = _module_aliases(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_module(node.value, aliases):
            out.append((ast.unparse(node.value), node.attr))
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "halfint"
        ):
            out += [(node.module or ".", a.name) for a in node.names]
    return sorted(f"{mod}.{name}" for mod, name in out if name.startswith("_")
                  and not (name.startswith("__") and name.endswith("__")))


def test_no_module_reads_another_modules_privates():
    reads = [f"{path.stem} -> {name}"
             for path in sorted(SRC.glob("*.py"))
             for name in _private_reads(ast.parse(path.read_text(encoding="utf-8")))]
    assert not reads, "private names read across modules: " + ", ".join(reads)


def test_private_reads_resolve_module_aliases():
    # an aliased module's private attribute and a private from-import count;
    # public names, dunders and attributes of other objects do not
    code = ast.parse(
        "import numpy as np\n"
        "from . import lvalue\n"
        "from . import mollifier as mo\n"
        "from .arith import _jacobi, kronecker\n"
        "def f(x, _e):\n"
        "    return mo._scan(x), lvalue.w_kernel, np._priv, x._y, mo.__doc__, _e\n"
    )
    assert _private_reads(code) == ["arith._jacobi", "mo._scan"]


def _third_party_imports() -> set:
    """The top-level names of the absolute imports in src/halfint that are
    neither halfint nor standard library."""
    out = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                out.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                out.add(node.module.split(".")[0])
    return out - {"halfint"} - set(sys.stdlib_module_names)


def _declared_dependencies() -> set:
    """The package names in [project].dependencies of pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.M | re.S).group(1)
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0)
            for spec in re.findall(r"\"([^\"]+)\"", listed)}


def test_imports_match_declared_dependencies():
    assert _third_party_imports() == _declared_dependencies() == {"numpy"}


def test_every_definition_has_a_caller():
    dead = unreachable()
    assert not dead, "no product or acceptance caller: " + ", ".join(dead)


def test_bound_names_and_foreign_attributes_are_not_references():
    # a local, a parameter, a field and an attribute of a non-halfint object
    # named `nu` do not keep a top-level `nu`; a halfint module attribute does
    code = ast.parse(
        "import numpy as np\n"
        "from halfint import mollifier as mo\n"
        "class A:\n    nu: complex\n"
        "def f(nu, x):\n    y = nu\n    return [nu for nu in x], x.nu, np.nu, y\n"
        "def g():\n    return mo.nu_fold, lambda nu: nu\n"
    )
    top, member = _references(code, _module_aliases(code))
    assert "nu" not in top and "nu" in member
    assert {"nu_fold", "complex", "np", "mo"} <= top
    assert _module_aliases(code) == {"mo"}


def test_walk_sees_the_roots():
    # guards the walk itself: a root it failed to parse would pass vacuously
    defs = _definitions()
    for key in [("cli", "main"), ("cli", "_suite_sieves"), ("hecke", "find_signflip_prime"),
                ("lvalue", "first_moment_scan"), ("mollifier", "nu_fold"),
                ("hecke", "HeckeTable.lam"), ("qseries", "CoeffTable.sign_array")]:
        assert key in defs


def test_reference_builder_stays_independent_of_the_fast_builder():
    # the rational reference certifies delta_halfintegral, so nothing it
    # reaches may be the fast builder, its limbs, tiles or sigma3 table
    defs = _definitions()
    fast = {("qseries", name) for name in
            ("delta_halfintegral", "_limb_source", "_TILE", "_SIG_BITS", "_BSIG_BITS")}
    fast.add(("arith", "sigma3_table"))
    assert fast <= set(defs)
    reached = _reach(defs, {"delta_halfintegral_reference"}, set())
    assert {("qseries", "delta_halfintegral_reference"), ("qseries", "CoeffTable")} <= reached
    assert not reached & fast, sorted(reached & fast)


def _option_keys(tree: ast.AST) -> set:
    """The keys of the _GLOBAL table and of each subcommand table in
    _COMMANDS, the values of which are (help, table) pairs."""
    tables = {node.targets[0].id: node.value for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    dicts = [tables["_GLOBAL"]] + [pair.elts[1] for pair in tables["_COMMANDS"].values]
    return {key.value for table in dicts for key in table.keys}


def _subscripts_read(tree: ast.AST, functions: set) -> set:
    """The string constants used as subscripts inside the named top-level
    functions."""
    return {node.slice.value
            for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name in functions
            for node in ast.walk(fn)
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)}


def test_every_option_is_read():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    keys = _option_keys(tree)
    assert {"format", "out", "limit", "coeffs_out", "mollify"} <= keys
    unread = keys - _subscripts_read(tree, {"main", "_dispatch"})
    assert not unread, "options that main and _dispatch never read: " + ", ".join(sorted(unread))


def test_bench_tracer_finds_its_names():
    from halfint import cli, hecke, mollifier

    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    owners = [mod for name, mod in sorted(sys.modules.items()) if name.startswith("halfint")]
    owners += [hecke.HeckeTable, cli.CoeffTable]
    before = [(owner, dict(vars(owner))) for owner in owners]
    tracer = tracing.Tracer("layout")
    restore = tracing.install(tracer)
    try:
        hecke.build_hecke_table(50).lam
        mollifier.build_params(x=1e6, theta0_override=0.1).J
        cli.cmd_jutila([100], 0.5, 1)
    finally:
        restore()
    spans = {span[2] for span in tracer.spans}
    assert {"hecke.build_hecke_table", "hecke.HeckeTable.lam", "mollifier.build_params",
            "cli.cmd_jutila", "expsums.jutila_l2_defect"} <= spans
    for owner, attrs in before:
        assert all(vars(owner).get(attr) is val for attr, val in attrs.items()), owner
