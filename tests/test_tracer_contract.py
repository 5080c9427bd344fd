"""What the benchmark's tracer (perfbench/tracer.py) reads of the library.

The tracer wraps every function that its LAYERS table names, and it wraps
CurveGerm.is_squarefree through the function of its functools.cached_property
(the property's .func).  A renamed function, or an is_squarefree made a
plain property, breaks every traced benchmark run; these tests find that in
tier-1.  They load perfbench/tracer.py and change nothing in it.
"""

import functools
import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from delpezzo1.germs import CurveGerm

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()
TRACED = [(module, name) for module, names in TRACER.LAYERS.items() for name in names]


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_every_traced_layer_resolves_on_the_library(module, name):
    lib = importlib.import_module(f"delpezzo1.{module}")
    if name == "is_squarefree":  # a property of CurveGerm, wrapped through its function
        assert callable(lib.CurveGerm.__dict__[name].func)
    else:
        assert callable(getattr(lib, name))


def test_is_squarefree_stays_a_cached_property():
    prop = CurveGerm.__dict__["is_squarefree"]
    assert type(prop) is functools.cached_property
    assert prop.func(CurveGerm("y^2 - x^3")) is True
    assert prop.func(CurveGerm("(y - x)^2*x")) is False


def test_the_tracer_installs_counts_and_uninstalls():
    tracer = TRACER.Tracer()
    from delpezzo1 import germs, lct

    original = germs.CurveGerm.__dict__["is_squarefree"]
    tracer.install()
    try:
        assert lct.lct_germ("(y^2 - 2*x^2)^2 - x^7") == Fraction(1, 2)
    finally:
        tracer.uninstall()
    assert germs.CurveGerm.__dict__["is_squarefree"] is original
    for name in ("lct.lct_germ", "germs.CurveGerm", "germs.is_squarefree",
                 "blowup.lct_of_branches", "blowup.blowup_tree"):
        assert tracer.calls[name] == 1, name
