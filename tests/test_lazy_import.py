"""The combinatorial core and lct_config run without sympy; germs load it on first use.

Each sympy check runs in a fresh interpreter, because the test process has
long since imported sympy.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import delpezzo1

SRC = Path(__file__).resolve().parent.parent / "src"
LAZY = {
    "CurveGerm": "germs",
    "classify_germ": "germs",
    "lct_quasihomogeneous": "germs",
    "germ_blowup_tree": "lct",
    "lct_config": "lct",
    "lct_germ": "lct",
    "lct_weighted_germs": "lct",
}
SPEC = json.dumps({"singularities": ["E7", "A1"], "cusp": "A1"})


def sympy_loaded_after(code):
    """Run `code` in a fresh interpreter; whether sympy is in sys.modules at its end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = f"{code}\nimport sys\nprint('sympy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


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
    assert not sympy_loaded_after(f"import {module}")


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
    assert not sympy_loaded_after(cli_call(*argv))


@pytest.mark.parametrize("argv", [
    ("lct-config", "E8"),
    ("lct-config", "A1", "--variant", "tangential"),
    ("lct-config", "A2", "--variant", "one-point"),
    ("lct-config", "--smooth", "cuspidal"),
], ids=lambda argv: argv[-1])
def test_lct_config_subcommand_leaves_sympy_unloaded(argv):
    assert not sympy_loaded_after(cli_call(*argv))


@pytest.mark.parametrize("argv", [
    ("lct-germ", "y^2 - x^3"),
    ("classify", "x*y"),
], ids=lambda argv: argv[0])
def test_germ_subcommands_load_sympy(argv):
    assert sympy_loaded_after(cli_call(*argv))


@pytest.mark.parametrize("name", ["CurveGerm", "germs"])
def test_reading_an_engine_name_loads_sympy(name):
    assert sympy_loaded_after(f"import delpezzo1\ndelpezzo1.{name}")


@pytest.mark.parametrize("name", ["lct_config", "lct_germ", "blowup", "lct"])
def test_reading_a_rational_engine_name_leaves_sympy_unloaded(name):
    assert not sympy_loaded_after(f"import delpezzo1\ndelpezzo1.{name}")


def test_lct_config_leaves_sympy_unloaded_and_lct_germ_loads_it():
    assert not sympy_loaded_after(
        "from delpezzo1 import build_configuration, lct_config\n"
        "for smooth in ('elliptic', 'nodal', 'cuspidal'):\n"
        "    lct_config(build_configuration(smooth=smooth))\n"
        "for point in [('E8', 'standard'), ('A1', 'tangential'), ('A2', 'one-point')]:\n"
        "    lct_config(build_configuration([point]))"
    )
    assert sympy_loaded_after("import delpezzo1\ndelpezzo1.lct_germ('y^2 - x^3')")


@pytest.mark.parametrize("name", sorted(LAZY))
def test_lazy_name_is_the_submodule_object(name):
    owner = importlib.import_module(f"delpezzo1.{LAZY[name]}")
    assert getattr(delpezzo1, name) is getattr(owner, name)


@pytest.mark.parametrize("first", ["lct_config", "CurveGerm"])
def test_first_read_binds_its_own_module_names(first):
    own = sorted(name for name, module in LAZY.items() if module == LAZY[first])
    other = sorted(set(LAZY) - set(own))
    loaded = sympy_loaded_after(
        "import delpezzo1\n"
        f"delpezzo1.{first}\n"
        f"assert set({own!r}) <= set(vars(delpezzo1))\n"
        f"assert not set({other!r}) & set(vars(delpezzo1))"
    )
    assert loaded == (LAZY[first] == "germs")


@pytest.mark.parametrize("name", ["germs", "blowup", "lct"])
def test_engine_submodule_is_a_package_attribute(name):
    assert getattr(delpezzo1, name) is importlib.import_module(f"delpezzo1.{name}")
    assert name in dir(delpezzo1)


def test_every_public_name_resolves_and_is_listed():
    assert set(LAZY) <= set(delpezzo1.__all__)
    for name in delpezzo1.__all__:
        getattr(delpezzo1, name)
    assert set(delpezzo1.__all__) <= set(dir(delpezzo1))


def test_unknown_attribute_raises_plain_attribute_error():
    with pytest.raises(AttributeError) as info:
        delpezzo1.no_such_name
    assert type(info.value) is AttributeError
    assert str(info.value) == "module 'delpezzo1' has no attribute 'no_such_name'"
    assert not hasattr(delpezzo1, "lct_germs")
