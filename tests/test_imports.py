"""Module boundaries.

No module of the package imports a private name of another, and the
combinatorial core (with the CLI) imports neither sympy nor the germ engine
at module level, so that importing it never loads sympy, and lct_config,
which cycles holds, never loads the germ parser.  Nor do germs, blowup and
lct import sympy at module level, so that rational germs run without it;
blowup does not import germs there either.  No module of the germ
engine imports a combinatorial module (cycles, dynkin, surfaces, rigidity)
at module level, and neither the package nor the CLI imports any submodule
or json there, so that a call loads only what it runs.  Blowup never imports
sympy; numberfield imports it only to build a field's sympy image, to
factor a line and to build a tower; germs and lct, only for sympy input
and the sympy views; the gcd modules never import it.  No module turns text into code: none
imports sympy's parse_expr or sympify, or calls eval or exec.  No module imports dataclasses,
which would load inspect and build methods by exec on every start.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "delpezzo1"
CORE = ("__init__", "records", "dynkin", "cycles", "surfaces", "rigidity", "errors", "cli")
ENGINE = ("sympy", "delpezzo1.germs", "delpezzo1.blowup", "delpezzo1.lct")
RATIONAL_ENGINE = ("blowup", "lct", "germs", "univariate", "bivariate", "numberfield")
# the combinatorial modules a germ call never loads (errors and records it does)
COMBINATORIAL = ("delpezzo1.cycles", "delpezzo1.dynkin", "delpezzo1.surfaces",
                 "delpezzo1.rigidity")
SYMPY_BACKED = ("sympy", "delpezzo1.germs")


def _private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "delpezzo1"
        ):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.name}:{node.lineno} imports {alias.name}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    assert list(_private_imports(path)) == []


def _run_at_import(nodes):
    """The nodes executed when the module is imported.

    All but function bodies and the body of `if TYPE_CHECKING:`.
    """
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            yield from _run_at_import(node.orelse)
            continue
        yield node
        yield from _run_at_import(ast.iter_child_nodes(node))


def _imported_modules(node):
    """Absolute names of the modules an import statement of the package loads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = ".".join(filter(None, ["delpezzo1" if node.level else None, node.module]))
    if node.module is None:  # from . import germs
        return [f"{base}.{alias.name}" for alias in node.names]
    return [base]


def _engine_imports(source, filename, forbidden=ENGINE):
    for node in _run_at_import(ast.parse(source, filename=filename).body):
        for module in _imported_modules(node):
            if any(module == e or module.startswith(e + ".") for e in forbidden):
                yield f"{filename}:{node.lineno} imports {module}"


@pytest.mark.parametrize("name", CORE)
def test_core_imports_no_sympy_at_module_level(name):
    path = PACKAGE / f"{name}.py"
    assert list(_engine_imports(path.read_text(), path.name)) == []


@pytest.mark.parametrize("name", RATIONAL_ENGINE)
def test_rational_engine_imports_no_sympy_or_germs_at_module_level(name):
    # lct's functions all take germs, so it may import germs
    forbidden = ("sympy",) if name == "lct" else SYMPY_BACKED
    path = PACKAGE / f"{name}.py"
    assert list(_engine_imports(path.read_text(), path.name, forbidden)) == []


@pytest.mark.parametrize("name", RATIONAL_ENGINE)
def test_germ_engine_imports_no_combinatorial_module_at_module_level(name):
    path = PACKAGE / f"{name}.py"
    assert list(_engine_imports(path.read_text(), path.name, COMBINATORIAL)) == []


def test_combinatorial_import_guard_skips_type_checking_blocks():
    source = "\n".join([
        "from typing import TYPE_CHECKING",
        "from .errors import InvalidGermError",
        "from .records import Record",
        "if TYPE_CHECKING:",
        "    from .cycles import AnticanonicalConfiguration",
        "else:",
        "    from . import dynkin",
        "from .surfaces import tlct",
        "def f():",
        "    from .rigidity import rigidity_gate",
    ])
    assert list(_engine_imports(source, "m.py", COMBINATORIAL)) == [
        "m.py:7 imports delpezzo1.dynkin",
        "m.py:8 imports delpezzo1.surfaces",
    ]


@pytest.mark.parametrize("name", ["__init__", "cli"])
def test_package_and_cli_import_no_submodule_or_json_at_module_level(name):
    path = PACKAGE / f"{name}.py"
    assert list(_engine_imports(path.read_text(), path.name, ("delpezzo1", "json"))) == []


def test_engine_import_guard_names_the_offending_line():
    source = "\n".join([
        "import json",
        "from .dynkin import parse_dynkin",
        "import sympy.polys",
        "from . import germs",
        "try:",
        "    from .lct import lct_germ",
        "except ImportError:",
        "    pass",
        "class C:",
        "    from delpezzo1.blowup import blowup_tree",
        "def f():",
        "    from .lct import lct_config",
    ])
    assert list(_engine_imports(source, "m.py")) == [
        "m.py:3 imports sympy.polys",
        "m.py:4 imports delpezzo1.germs",
        "m.py:6 imports delpezzo1.lct",
        "m.py:10 imports delpezzo1.blowup",
    ]
    assert list(_engine_imports(source, "m.py", SYMPY_BACKED)) == [
        "m.py:3 imports sympy.polys",
        "m.py:4 imports delpezzo1.germs",
    ]


# the definitions of numberfield.py that load sympy: the sympy image of a
# NumberField, the factoring of a line and the tower built by sympy
NUMBERFIELD_SYMPY_FUNCTIONS = ("NumberField.sympy_field", "NumberField.extend",
                               "_sympy_factors", "factor_rational")


def _sympy_imports_outside(source, filename, allowed):
    """Lines that import sympy anywhere but inside the definitions named.

    A definition is named by its dotted path in the module, such as
    _extend_qq or CurveGerm.poly; whatever is nested in it is inside it.
    """
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def walk(node, path):
        inside = any(path == name or path.startswith(name + ".") for name in allowed)
        for child in ast.iter_child_nodes(node):
            for module in _imported_modules(child):
                if module.split(".")[0] == "sympy" and not inside:
                    yield f"{filename}:{child.lineno} imports {module}"
            inner = f"{path}.{child.name}".lstrip(".") if isinstance(child, scopes) else path
            yield from walk(child, inner)

    yield from walk(ast.parse(source, filename=filename), "")


def test_blowup_never_imports_sympy():
    path = PACKAGE / "blowup.py"
    assert list(_sympy_imports_outside(path.read_text(), path.name, ())) == []


def test_numberfield_imports_sympy_only_for_the_image_factoring_and_towers():
    path = PACKAGE / "numberfield.py"
    assert list(_sympy_imports_outside(path.read_text(), path.name,
                                       NUMBERFIELD_SYMPY_FUNCTIONS)) == []


def test_sympy_boundary_guard_names_the_offending_line():
    source = "\n".join([
        "import sympy",
        "def _extend_qq(p):",
        "    from sympy import QQ",
        "    def inner():",
        "        import sympy.polys",
        "def _order(p):",
        "    from sympy import Poly",
        "class C:",
        "    def _extend_qq(self):",
        "        import sympy",
    ])
    assert list(_sympy_imports_outside(source, "m.py", ("_extend_qq",))) == [
        "m.py:1 imports sympy",
        "m.py:7 imports sympy",
        "m.py:10 imports sympy",
    ]


# the definitions of germs.py and lct.py that load sympy: sympy input, the
# .poly view (which .expr reads) and the symbols x, y
GERM_SYMPY_FUNCTIONS = ("_from_sympy", "CurveGerm.poly", "__getattr__")


@pytest.mark.parametrize("name", ["germs", "lct"])
def test_germs_and_lct_import_sympy_only_for_sympy_input_and_views(name):
    path = PACKAGE / f"{name}.py"
    assert list(_sympy_imports_outside(path.read_text(), path.name, GERM_SYMPY_FUNCTIONS)) == []


@pytest.mark.parametrize("name", ["bivariate", "univariate"])
def test_gcd_modules_never_import_sympy(name):
    path = PACKAGE / f"{name}.py"
    assert list(_sympy_imports_outside(path.read_text(), path.name, ())) == []


def test_sympy_boundary_guard_reads_dotted_names():
    source = "\n".join([
        "class CurveGerm:",
        "    def poly(self):",
        "        from sympy import QQ",
        "    def is_squarefree(self):",
        "        from sympy.polys.euclidtools import dmp_gcd",
        "def poly():",
        "    import sympy",
    ])
    assert list(_sympy_imports_outside(source, "m.py", ("CurveGerm.poly",))) == [
        "m.py:5 imports sympy.polys.euclidtools",
        "m.py:7 imports sympy",
    ]


STRING_EVALUATORS = ("parse_expr", "sympify")
CODE_RUNNERS = ("eval", "exec")


def _text_evaluation(source, filename):
    """Lines that import a sympy text evaluator or call eval or exec."""
    nodes = ast.walk(ast.parse(source, filename=filename))
    for node in sorted(nodes, key=lambda n: getattr(n, "lineno", 0)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute) and node.attr in STRING_EVALUATORS:
            yield f"{filename}:{node.lineno} uses {node.attr}"
            continue
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in CODE_RUNNERS:
                yield f"{filename}:{node.lineno} calls {name}"
            continue
        else:
            continue
        for name in names:
            if name in STRING_EVALUATORS or name.startswith("sympy.parsing"):
                yield f"{filename}:{node.lineno} imports {name}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_evaluates_text(path):
    assert list(_text_evaluation(path.read_text(), path.name)) == []


def test_text_evaluation_guard_names_the_offending_line():
    source = "\n".join([
        "import sympy",
        "from sympy.parsing.sympy_parser import (",
        "    convert_xor,",
        "    parse_expr,",
        ")",
        "from sympy import sympify, Poly",
        "import sympy.parsing.sympy_parser",
        "expr = sympy.sympify(text)",
        "value = eval(text)",
        "builtins.exec(code)",
        "tree = expr.evalf(40)",
    ])
    assert list(_text_evaluation(source, "m.py")) == [
        "m.py:2 imports sympy.parsing.sympy_parser",
        "m.py:2 imports parse_expr",
        "m.py:6 imports sympify",
        "m.py:7 imports sympy.parsing.sympy_parser",
        "m.py:8 uses sympify",
        "m.py:9 calls eval",
        "m.py:10 calls exec",
    ]


def _dataclass_imports(source, filename):
    """Lines, anywhere in the module, that import dataclasses."""
    for node in ast.walk(ast.parse(source, filename=filename)):
        if any(m.split(".")[0] == "dataclasses" for m in _imported_modules(node)):
            yield f"{filename}:{node.lineno} imports dataclasses"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    assert list(_dataclass_imports(path.read_text(), path.name)) == []


def test_dataclass_import_guard_names_the_offending_line():
    source = "\n".join([
        "from dataclasses import dataclass",
        "import json",
        "def f():",
        "    import dataclasses",
    ])
    assert list(_dataclass_imports(source, "m.py")) == [
        "m.py:1 imports dataclasses",
        "m.py:4 imports dataclasses",
    ]
