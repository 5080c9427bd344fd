"""Exact invariants of degree-1 del Pezzo surfaces and their fibrations.

Fundamental cycles of Du Val singularities, log canonical thresholds of
curve germs and anticanonical configurations, total thresholds of surface
specs with Kodaira fiber types, and the birational-rigidity gate for
fibration pairs.  All arithmetic is exact (integers, fractions, algebraic
numbers); nothing here floats.  Every field under a resolution is Q or a
number field Q[t]/(g), numberfield.NumberField, towers included.

Importing the package loads only the combinatorial core (dynkin, cycles,
surfaces, rigidity, errors), which needs integers and Fraction alone; each
of those modules declares its public names in __all__, and the package
re-exports them.  Its records are plain classes on records.Record, so the
package imports neither the standard library's data-class module nor
inspect, and builds no method by exec.  The germ engine's public names, the
keys of _LAZY, are resolved on first use: reading one of them imports its
submodule and binds that submodule's names.  The engine's submodules
(germs, blowup, lct) are package attributes the same way.

Germ text, squarefree tests, rejections and the blowups over Q and over
one extension Q[t]/(g) need no sympy, so reading these names, lct_config,
and a germ whose blown-up points are rational or lie in one Q[t]/(g) leave
it unloaded.  numberfield loads it for a tower over Q[t]/(g) and for a
line to factor (three or more points over Q, two or more over a number
field); germs loads it for a germ given as a sympy expression and for the
views CurveGerm.poly and CurveGerm.expr.
"""

import importlib

from . import cycles, dynkin, errors, rigidity, surfaces
from .cycles import *
from .dynkin import *
from .errors import *
from .rigidity import *
from .surfaces import *

__version__ = "0.1.0"

# the germ engine, and its public names -> the submodule owning them
_ENGINE_MODULES = ("germs", "blowup", "lct")
_LAZY = {
    "CurveGerm": "germs",
    "classify_germ": "germs",
    "lct_quasihomogeneous": "germs",
    "germ_blowup_tree": "lct",
    "lct_config": "lct",
    "lct_germ": "lct",
    "lct_weighted_germs": "lct",
}

__all__ = list(_LAZY)  # bound on first read, by __getattr__
__all__ += cycles.__all__
__all__ += dynkin.__all__
__all__ += errors.__all__
__all__ += rigidity.__all__
__all__ += surfaces.__all__


def __getattr__(name: str):
    if name in _ENGINE_MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Bind every name of the submodule that was read, so that later reads are
    # plain lookups; the other submodule stays unimported.
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    for lazy, owner in _LAZY.items():
        if owner == _LAZY[name]:
            globals()[lazy] = getattr(module, lazy)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_ENGINE_MODULES) | set(_LAZY))
