"""Source hygiene of the package, checked with the standard library alone."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nullag"


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads.  A name read only in a
    quoted annotation counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_module_uses_every_name_it_imports(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []


def test_unused_import_is_found():
    assert _unused_imports("import math\nfrom .expr import Power, add\nadd(1)\n") == [
        "math (line 1)",
        "Power (line 2)",
    ]


def _assertions(source: str) -> list[str]:
    """Assert statements and raised AssertionErrors: a failed internal check
    must raise the package's own exception, which the CLI maps to an exit
    code, and must not vanish under python -O."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            found.append(f"assert (line {node.lineno})")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"raise AssertionError (line {node.lineno})")
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_has_no_assertions(module):
    assert _assertions((PACKAGE / module).read_text()) == []


def test_assertions_are_found():
    source = "assert x\nraise AssertionError('no')\nraise AssertionError\nraise ValueError('ok')\n"
    assert _assertions(source) == [
        "assert (line 1)",
        "raise AssertionError (line 2)",
        "raise AssertionError (line 3)",
    ]


def _const_calls(source: str) -> list[str]:
    """Direct Const(...) calls.  Outside expr.py a number enters the kernel
    through expr.const, which holds it as an int when integral, else as a
    Fraction; a Const built by hand could hold any type."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "Const":
                found.append(f"Const(...) (line {node.lineno})")
    return found


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "expr.py")
)
def test_numbers_enter_the_kernel_through_const(module):
    assert _const_calls((PACKAGE / module).read_text()) == []


def test_const_calls_are_found():
    source = "Const(1)\nex.Const(2)\nisinstance(c, Const)\nconst(3)\n"
    assert _const_calls(source) == ["Const(...) (line 1)", "Const(...) (line 2)"]


def _nested_imports(source: str) -> list[str]:
    """Imports inside a function body: a module states what it needs at its
    top, where an import cycle shows at import time."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [
                f"import in {node.name} (line {inner.lineno})"
                for inner in ast.walk(node)
                if isinstance(inner, (ast.Import, ast.ImportFrom))
            ]
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_imports_only_at_top_level(module):
    assert _nested_imports((PACKAGE / module).read_text()) == []


def test_nested_imports_are_found():
    source = "import math\ndef f():\n    from .construct import weighted_B\n    return 1\n"
    assert _nested_imports(source) == ["import in f (line 3)"]


# Every field of an expression node, and the slot that caches its sort key.
NODE_FIELDS = frozenset(
    ("value", "name", "order", "func", "arg", "terms", "factors", "base", "exponent", "_key")
)
# the one store allowed: sort_key caching the key it computed
KEY_STORE = ("expr.py", "sort_key", "e._key")


def _stored_attribute(node: ast.AST) -> str | None:
    """The attribute node stores, as "target.attr", when it is an assignment
    or del target, a setattr(...) or an object.__setattr__(...) call; a name
    that is not a literal reads as <computed>."""
    if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
        return f"{ast.unparse(node.value)}.{node.attr}"
    if isinstance(node, ast.Call) and len(node.args) >= 2:
        f = node.func
        if (isinstance(f, ast.Name) and f.id == "setattr") or (
            isinstance(f, ast.Attribute) and f.attr == "__setattr__"
        ):
            name = node.args[1]
            attr = name.value if isinstance(name, ast.Constant) else "<computed>"
            return f"{ast.unparse(node.args[0])}.{attr}"
    return None


def _node_field_stores(source: str, module: str) -> list[str]:
    """Stores of an attribute named after an expression-node field.  Nodes
    are plain slotted dataclasses, not frozen ones, so nothing stops such a
    store at run time; a changed node would keep a stale cached key and a
    stale hash.  The only store allowed is KEY_STORE."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            stored = _stored_attribute(child)
            if stored is not None and (module, where, stored) != KEY_STORE:
                attr = stored.rpartition(".")[2]
                if attr in NODE_FIELDS or attr == "<computed>":
                    found.append(f"{stored} in {where} (line {child.lineno})")
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_code_stores_a_node_field(module):
    assert _node_field_stores((PACKAGE / module).read_text(), module) == []


def test_node_field_stores_are_found():
    source = (
        "def f(e, pair, k):\n"
        "    e.value = 1\n"
        "    e.terms += (k,)\n"
        "    setattr(e, 'name', 'y')\n"
        "    object.__setattr__(e, '_key', k)\n"
        "    setattr(e, k, 0)\n"
        "    e.certificate = object.__setattr__(pair, 'certificate', k)\n"
        "def sort_key(e):\n"
        "    key = e._key = 2\n"
        "    e.base = key\n"
    )
    assert _node_field_stores(source, "expr.py") == [
        "e.value in f (line 2)",
        "e.terms in f (line 3)",
        "e.name in f (line 4)",
        "e._key in f (line 5)",
        "e.<computed> in f (line 6)",
        "e.base in sort_key (line 10)",
    ]
    assert _node_field_stores(source, "variational.py")[-2:] == [
        "e._key in sort_key (line 9)",
        "e.base in sort_key (line 10)",
    ]


# the one caller allowed: the sampler instantiates the opaque functions of
# every numeric check; the evaluators take what their caller bound
INSTANTIATOR = ("domain.py", "sample_points")


def _instantiate_calls(source: str, module: str) -> list[str]:
    """Calls of instantiate(...) or <module>.instantiate(...) outside
    INSTANTIATOR, by the innermost function they are in."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and (module, where) != INSTANTIATOR:
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "instantiate":
                    found.append(f"instantiate in {where} (line {child.lineno})")
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_only_the_sampler_instantiates_opaque_functions(module):
    assert _instantiate_calls((PACKAGE / module).read_text(), module) == []


def test_instantiate_calls_are_found():
    source = (
        "g = instantiate(e, None)\n"
        "def sample_points(e, funcs):\n"
        "    return ex.instantiate(e, funcs)\n"
        "def bound_body(e, funcs):\n"
        "    def leaf(a):\n"
        "        return instantiate(a, funcs)\n"
        "    return ex.instantiate(e, funcs), instantiated(e), instantiation_rounds([e])\n"
    )
    assert _instantiate_calls(source, "domain.py") == [
        "instantiate in <module> (line 1)",
        "instantiate in leaf (line 6)",
        "instantiate in bound_body (line 7)",
    ]
    assert _instantiate_calls(source, "expr.py")[1] == "instantiate in sample_points (line 3)"


# the one module that maps a residual to a nullity verdict: NullPair.judged
# certifies every pair, a harmonic included, and is_null judges a Lagrangian
CERTIFIER = "variational.py"


def _null_report_calls(source: str) -> list[str]:
    """Calls of null_report(...) or <module>.null_report(...)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "null_report":
                found.append(f"null_report (line {node.lineno})")
    return found


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != CERTIFIER)
)
def test_only_the_certifier_calls_null_report(module):
    assert _null_report_calls((PACKAGE / module).read_text()) == []


def test_null_report_calls_are_found():
    source = (
        "from .variational import null_report\n"
        "check = null_report(r, d, seed=0)\n"
        "def f(r):\n"
        "    return variational.null_report(r, DEFAULT_DOMAIN), is_null(r), null_reports(r)\n"
    )
    assert _null_report_calls(source) == ["null_report (line 2)", "null_report (line 4)"]
