"""The package runs without sympy, except where a germ needs a tower of fields.

The combinatorial core (lct_config in it), rational germ queries and germs whose
irrational points lie in one extension of Q never load sympy; a point over
such an extension that needs a further one (a tower) does.  A call that
leaves sympy unloaded loads neither dataclasses nor inspect: the records
are plain classes, so a fresh call pays for neither.  Importing the
package loads no submodule, a CLI call loads only the modules its
subcommand runs, and the names the package binds on first read are the
ones its eager import bound.

Most checks run in a fresh interpreter, because the test process has long
since imported these modules.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import delpezzo1
from tests.test_blowup import CUSP_PRODUCT

SRC = Path(__file__).resolve().parent.parent / "src"
LAZY = {
    "CurveGerm": "germs",
    "classify_germ": "germs",
    "lct_quasihomogeneous": "germs",
    "germ_blowup_tree": "lct",
    "lct_germ": "lct",
    "lct_weighted_germs": "lct",
}
CORE = ("cycles", "dynkin", "errors", "rigidity", "surfaces")
SUBMODULES = sorted(path.stem for path in (SRC / "delpezzo1").glob("*.py")
                    if path.stem != "__init__")
WATCHED = [f"delpezzo1.{m}" for m in SUBMODULES] + ["json", "fractions"]
SPEC = json.dumps({"singularities": ["E7", "A1"], "cusp": "A1"})
# what a fresh call with no tower and no line to factor leaves unloaded:
# sympy, and the dataclasses module with inspect (and ast, dis, tokenize)
UNUSED = ("sympy", "dataclasses", "inspect")


def fresh(code):
    """Run `code` in a fresh interpreter; the words of the last line it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def loaded_after(code, *modules):
    """Run `code` in a fresh interpreter; the set of `modules` in sys.modules at its end."""
    return set(fresh(f"{code}\nimport sys\nprint(*(m for m in {modules!r} if m in sys.modules))"))


def cli_call(*argv):
    return (
        "import contextlib, io\n"
        "from delpezzo1.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert run({list(argv)!r}) == 0"
    )


@pytest.mark.parametrize("module", [
    "delpezzo1", "delpezzo1.surfaces", "delpezzo1.rigidity", "delpezzo1.cli",
])
def test_core_import_leaves_sympy_unloaded(module):
    assert loaded_after(f"import {module}", *UNUSED) == set()


@pytest.mark.parametrize("argv", [
    ("matrix", "E8"),
    ("cycle", "E8", "--attachment"),
    ("config", "A1", "--variant", "tangential"),
    ("kodaira", "E8", "--json"),
    ("tlct", "--sings", "E7,A1", "--cusp", "A1"),
    ("validate", "--sings", "E8,A1"),
    ("rigidity", "--x", SPEC, "--y", SPEC),
    ("targets", "--x", SPEC, "--json"),
], ids=lambda argv: argv[0])
def test_combinatorial_subcommands_leave_sympy_unloaded(argv):
    assert loaded_after(cli_call(*argv), *UNUSED) == set()


@pytest.mark.parametrize("argv", [
    ("lct-config", "E8"),
    ("lct-config", "A1", "--variant", "tangential"),
    ("lct-config", "A2", "--variant", "one-point"),
    ("lct-config", "--smooth", "cuspidal"),
], ids=lambda argv: argv[-1])
def test_lct_config_subcommand_leaves_sympy_unloaded(argv):
    assert loaded_after(cli_call(*argv), *UNUSED) == set()


@pytest.mark.parametrize("argv", [
    ("lct-germ", "y^2 - x^3"),
    ("classify", "x*y"),
], ids=lambda argv: argv[0])
def test_germ_subcommands_leave_sympy_unloaded(argv):
    assert loaded_after(cli_call(*argv), *UNUSED) == set()


def footprint(*argv):
    """The submodules, and json and fractions if loaded, after one fresh CLI call."""
    code = (
        "import contextlib, io, runpy, sys\n"
        f"sys.argv = ['delpezzo1', *{list(argv)!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        "    runpy.run_module('delpezzo1.cli', run_name='__main__')"
    )
    return {m.removeprefix("delpezzo1.") for m in loaded_after(code, *WATCHED)}


LABELS = {"dynkin", "errors", "records"}
CONFIGS = LABELS | {"cycles"}
SURFACES = CONFIGS | {"surfaces", "fractions"}
FIBRATIONS = SURFACES | {"rigidity", "json"}
GERMS = {"germs", "blowup", "bivariate", "univariate", "errors", "records", "fractions"}
FOOTPRINTS = [
    (("--help",), set()),
    (("matrix", "E8"), LABELS),
    (("matrix", "E8", "--json"), LABELS | {"json"}),
    (("cycle", "E8", "--attachment"), CONFIGS),
    (("config", "A1", "--variant", "tangential"), CONFIGS),
    (("kodaira", "E8", "--json"), CONFIGS | {"json"}),
    (("lct-germ", "y^2 - x^3"), GERMS | {"lct"}),
    (("lct-germ", "x^2*y"), GERMS | {"lct"}),  # rejected, exit status 1
    (("lct-germ", "y^2 - x^5", "--json"), GERMS | {"lct", "json"}),
    (("classify", "x*y"), GERMS),
    (("lct-config", "E8"), CONFIGS | {"fractions"}),
    (("tlct", "--sings", "E7,A1"), SURFACES),
    (("validate", "--sings", "E8,A1"), SURFACES),
    (("rigidity", "--x", SPEC, "--y", SPEC), FIBRATIONS),
    (("targets", "--x", SPEC), FIBRATIONS),
]


def test_import_loads_no_submodule():
    assert loaded_after("import delpezzo1", *WATCHED) == set()


@pytest.mark.parametrize("argv, modules", FOOTPRINTS, ids=[
    " ".join(argv[:2]) + " --json" * ("--json" in argv) for argv, _ in FOOTPRINTS])
def test_cli_call_loads_only_what_its_subcommand_runs(argv, modules):
    assert footprint(*argv) == modules
    assert ("json" in modules) == ("--json" in argv or argv[0] in ("rigidity", "targets"))


def test_lct_reads_the_engine_names_and_lct_config_from_their_modules():
    assert fresh(
        "from delpezzo1 import blowup, cycles, lct\n"
        "names = ('BlowupNode', 'blowup_tree', 'lct_of_branches')\n"
        "print(all(getattr(lct, n) is getattr(blowup, n) for n in names),"
        " lct.lct_config is cycles.lct_config)"
    ) == ["True", "True"]


def test_germ_with_an_irrational_cluster_loads_sympy():
    # the tangent directions y = +-sqrt(2) x are blown up in Q[t]/(t^2 - 2)
    # without sympy; the cusps through them need the tower Q(sqrt 2, sqrt 3)
    assert loaded_after(cli_call("lct-germ", "(y^2-2*x^2)^2 - x^7"), *UNUSED) == set()
    assert loaded_after(cli_call("lct-germ", CUSP_PRODUCT), "sympy")


@pytest.mark.parametrize("name", ["lct_config", "lct_germ", "blowup", "lct", "CurveGerm", "germs"])
def test_reading_a_rational_engine_name_leaves_sympy_unloaded(name):
    assert not loaded_after(f"import delpezzo1\ndelpezzo1.{name}", "sympy")


def test_lct_config_leaves_sympy_unloaded_and_lct_germ_loads_it():
    assert not loaded_after(
        "from delpezzo1 import build_configuration, lct_config\n"
        "for smooth in ('elliptic', 'nodal', 'cuspidal'):\n"
        "    lct_config(build_configuration(None, smooth))\n"
        "for point in [('E8', 'standard'), ('A1', 'tangential'), ('A2', 'one-point')]:\n"
        "    lct_config(build_configuration(*point))",
        "sympy",
    )
    # lct_germ loads sympy only for a cluster it must blow up over a tower of
    # fields, not for a tacnode, whose points lie in Q[t]/(t^2 + 2)
    assert not loaded_after("import delpezzo1\ndelpezzo1.lct_germ('y^2 - x^3')", "sympy")
    assert not loaded_after(
        "import delpezzo1\ndelpezzo1.lct_germ('(y^2 + 2*x^2)^2 - x^6')", "sympy")
    assert loaded_after(f"import delpezzo1\ndelpezzo1.lct_germ({CUSP_PRODUCT!r})", "sympy")


def test_rational_germ_queries_leave_sympy_unloaded():
    # binomials, distinct lines, tangent branches and weighted lines, as in
    # perfbench's germ-rational corpus, each checked against its closed form
    assert not loaded_after(
        "from fractions import Fraction as F\n"
        "from delpezzo1 import classify_germ, germ_blowup_tree, lct_germ, lct_quasihomogeneous\n"
        "from delpezzo1 import lct_weighted_germs\n"
        "assert lct_germ('y^3 - 97/89*x^8') == F(11, 24)\n"
        "assert lct_quasihomogeneous('x^2 - 3/2*y^7') == F(9, 14)\n"
        "assert classify_germ('y^2 - 5*x^3') == 'cusp'\n"
        "lines = '(y - x)*(y + 2/3*x)*(y - 7*x)*x*(y - 12*x)'\n"
        "assert lct_germ(lines) == F(2, 5) and classify_germ(lines) == 'other'\n"
        "tangent = '(y - 2*x - x^2)*(y - 2*x + 3*x^2)*(y - 2*x - 1/2*x^2)'\n"
        "assert lct_germ(tangent) == F(1, 2) and len(germ_blowup_tree(tangent)) == 1\n"
        "assert lct_weighted_germs([('y - x', 3), ('y + x', 1), ('x', 2)]) == F(1, 3)\n"
        "assert lct_weighted_germs([('y - 2*x', 2), ('y - 2*x - 5*x^2', 3)]) == F(3, 10)\n"
        "assert lct_weighted_germs([('y^2 - 4/9*x^5', 3)]) == F(7, 30)",
        "sympy",
    )


def test_rational_germ_queries_leave_the_number_field_module_unloaded():
    assert not loaded_after(
        "import sys\n"
        "from delpezzo1 import lct_germ, lct_weighted_germs\n"
        "assert lct_germ('y^3 - 97/89*x^8') and lct_germ('(y - x)*(y + x)*(y - 2*x)')\n"
        "assert lct_weighted_germs([('y^2 - 4/9*x^5', 3), ('x', 2)])\n"
        "assert 'delpezzo1.numberfield' not in sys.modules",
        "sympy",
    )


def test_rejecting_a_repeated_factor_leaves_sympy_unloaded():
    # a repeated factor in y, one in the content, and two weighted branches
    # with a common factor, found after the engine reaches its depth cap
    assert not loaded_after(
        "from delpezzo1 import NonSquarefreeError, classify_germ, lct_germ, lct_weighted_germs\n"
        "calls = [(classify_germ, '(y-x)^2*(y-2*x)', 'repeated factor x - y'),\n"
        "         (lct_germ, 'x^2*y', 'repeated factor x'),\n"
        "         (lct_weighted_germs, [('y - x^2', 1), ('2*y - 2*x^2', 3)],\n"
        "          'share the factor x**2 - y')]\n"
        "for call, arg, named in calls:\n"
        "    try:\n"
        "        call(arg)\n"
        "    except NonSquarefreeError as exc:\n"
        "        assert str(exc).endswith(named), exc\n"
        "    else:\n"
        "        raise AssertionError(arg)",
        "sympy",
    )


@pytest.mark.parametrize("name", sorted(LAZY))
def test_lazy_name_is_the_submodule_object(name):
    owner = importlib.import_module(f"delpezzo1.{LAZY[name]}")
    assert getattr(delpezzo1, name) is getattr(owner, name)


@pytest.mark.parametrize("first", ["lct_germ", "CurveGerm"])
def test_first_read_binds_its_own_module_names(first):
    own = sorted(name for name, module in LAZY.items() if module == LAZY[first])
    other = sorted(set(LAZY) - set(own))
    loaded = loaded_after(
        "import delpezzo1\n"
        f"delpezzo1.{first}\n"
        f"assert set({own!r}) <= set(vars(delpezzo1))\n"
        f"assert not set({other!r}) & set(vars(delpezzo1))",
        "sympy",
    )
    assert not loaded


@pytest.mark.parametrize("name", ["germs", "blowup", "lct"])
def test_engine_submodule_is_a_package_attribute(name):
    assert getattr(delpezzo1, name) is importlib.import_module(f"delpezzo1.{name}")
    assert name in dir(delpezzo1)


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_submodule_is_a_package_attribute_on_first_read(name):
    assert fresh(
        "import sys, delpezzo1\n"
        f"print(delpezzo1.{name} is sys.modules['delpezzo1.{name}'])"
    ) == ["True"]


@pytest.mark.parametrize("first", ["tlct", "DelPezzoError", "__all__"])
def test_first_read_of_a_core_name_binds_every_core_name(first):
    core = [importlib.import_module(f"delpezzo1.{m}") for m in CORE]
    names = [name for module in core for name in module.__all__]
    loaded = loaded_after(
        "import delpezzo1\n"
        f"delpezzo1.{first}\n"
        f"assert set({names!r}) <= set(vars(delpezzo1))\n"
        f"assert not set({sorted(LAZY)!r}) & set(vars(delpezzo1))",
        "sympy", "delpezzo1.germs", "delpezzo1.lct",
    )
    assert loaded == set()


# the submodules dir() listed when `import delpezzo1` imported the five core
# modules (records with them) and listed the engine's three by name
EAGER_MODULES = ("blowup", "cycles", "dynkin", "errors", "germs", "lct", "records",
                 "rigidity", "surfaces")
DUNDERS = ("__all__", "__builtins__", "__cached__", "__dir__", "__doc__", "__file__",
           "__getattr__", "__loader__", "__name__", "__package__", "__path__", "__spec__",
           "__version__")


def test_fresh_namespace_is_the_one_the_eager_import_had():
    core = [importlib.import_module(f"delpezzo1.{m}") for m in CORE]
    expected_all = list(LAZY) + [name for module in core for name in module.__all__]
    assert fresh("import delpezzo1\nprint(*delpezzo1.__all__)") == expected_all
    listed = fresh("import delpezzo1\nprint(*dir(delpezzo1))")
    public = [n for n in listed if not n.startswith("_") or n.startswith("__")]
    assert public == sorted([*expected_all, *EAGER_MODULES, "importlib", *DUNDERS])
    bound = fresh("from delpezzo1 import *\nprint(*sorted(n for n in dir() if n[0] != '_'))")
    assert bound == sorted(expected_all)


def test_every_public_name_resolves_and_is_listed():
    assert set(LAZY) <= set(delpezzo1.__all__)
    for name in delpezzo1.__all__:
        getattr(delpezzo1, name)
    assert set(delpezzo1.__all__) <= set(dir(delpezzo1))


def test_all_lists_each_name_once_and_star_import_binds_exactly_it():
    assert len(delpezzo1.__all__) == len(set(delpezzo1.__all__))
    namespace = {}
    exec("from delpezzo1 import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(delpezzo1.__all__)


def test_each_core_module_declares_the_names_the_package_exports():
    # the package's list is the five modules' lists and the engine's names;
    # __init__.py itself names none of the modules' public names
    core = [importlib.import_module(f"delpezzo1.{m}") for m in CORE]
    declared = [name for module in core for name in module.__all__]
    assert sorted(delpezzo1.__all__) == sorted(declared + list(LAZY))
    for module in core:  # each declares only what it defines (a constant has no __module__)
        for name in module.__all__:
            assert getattr(getattr(module, name), "__module__", module.__name__) == module.__name__
    source = Path(delpezzo1.__file__).read_text()
    assert not [name for name in declared if re.search(rf"\b{name}\b", source)]


def test_unknown_attribute_raises_plain_attribute_error():
    with pytest.raises(AttributeError) as info:
        delpezzo1.no_such_name
    assert type(info.value) is AttributeError
    assert str(info.value) == "module 'delpezzo1' has no attribute 'no_such_name'"
    assert not hasattr(delpezzo1, "lct_germs")
