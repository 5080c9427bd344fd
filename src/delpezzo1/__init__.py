"""Exact invariants of degree-1 del Pezzo surfaces and their fibrations.

Fundamental cycles of Du Val singularities, log canonical thresholds of
curve germs and anticanonical configurations, total thresholds of surface
specs with Kodaira fiber types, and the birational-rigidity gate for
fibration pairs.  All arithmetic is exact (integers, fractions, algebraic
numbers); nothing here floats.  Every field under a resolution is Q or a
number field Q[t]/(g), numberfield.NumberField, towers included.

Importing the package loads none of its submodules (PEP 562): every
submodule is a package attribute, and every public name is bound, on first
read, so a call loads only the modules it uses.  The first read of a name
of the combinatorial core (dynkin, cycles, surfaces, rigidity, errors), of
__all__ or of dir() imports those five modules, which need integers and
Fraction alone and each declare their public names in __all__, and binds
the names as a star import of each would.  The germ engine's public names,
the keys of _LAZY, are bound per submodule (germs or lct), which loads
errors and records but no other core module.  The records are plain
classes on records.Record, so the package imports neither the standard
library's data-class module nor inspect, and builds no method by exec.

The core, the thresholds of configurations included, never loads sympy.
Germ text, squarefree tests, rejections and the blowups over Q and over
one extension Q[t]/(g) need none either, so reading the engine's names and
a germ whose blown-up points are rational or lie in one Q[t]/(g) leave it
unloaded.  numberfield loads it for a tower over Q[t]/(g) and for a
line to factor (three or more points over Q, two or more over a number
field); germs loads it for a germ given as a sympy expression and for the
views CurveGerm.poly and CurveGerm.expr.
"""

import importlib

__version__ = "0.1.0"

# the combinatorial core: the modules whose __all__ the package re-exports
_CORE_MODULES = ("cycles", "dynkin", "errors", "rigidity", "surfaces")
# the germ engine, and its public names -> the submodule owning them
_ENGINE_MODULES = ("germs", "blowup", "lct")
_LAZY = {
    "CurveGerm": "germs",
    "classify_germ": "germs",
    "lct_quasihomogeneous": "germs",
    "germ_blowup_tree": "lct",
    "lct_germ": "lct",
    "lct_weighted_germs": "lct",
}
_SUBMODULES = (*_CORE_MODULES, *_ENGINE_MODULES,
               "bivariate", "cli", "numberfield", "records", "univariate")


def __getattr__(name: str):
    # A submodule resolves first: `from . import bivariate` inside the package
    # reads the name here before it imports the submodule, and must not load
    # the core on the way.
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY:
        # Bind every name of the submodule that was read, so that later reads
        # are plain lookups; the other submodule stays unimported.
        module = importlib.import_module(f".{_LAZY[name]}", __name__)
        for lazy, owner in _LAZY.items():
            if owner == _LAZY[name]:
                globals()[lazy] = getattr(module, lazy)
        return globals()[name]
    if "__all__" not in globals():
        # the first read of a core name, of __all__ or of dir(): bind the five
        # modules' names, as `from .<module> import *` of each would
        names = list(_LAZY)  # bound on first read, above
        for module_name in _CORE_MODULES:
            module = importlib.import_module(f".{module_name}", __name__)
            globals().update((n, getattr(module, n)) for n in module.__all__)
            names += module.__all__
        globals()["__all__"] = names
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    if "__all__" not in globals():
        __getattr__("__all__")
    return sorted(set(globals()) | set(_ENGINE_MODULES) | set(_LAZY))
