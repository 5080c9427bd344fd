"""Exact invariants of degree-1 del Pezzo surfaces and their fibrations.

Fundamental cycles of Du Val singularities, log canonical thresholds of
curve germs and anticanonical configurations, total thresholds of surface
specs with Kodaira fiber types, and the birational-rigidity gate for
fibration pairs.  All arithmetic is exact (integers, fractions, algebraic
numbers); nothing here floats.  Every field under a resolution is Q or a
number field Q[t]/(g), numberfield.NumberField, towers included.

Importing the package loads only the combinatorial core (dynkin, cycles,
surfaces, rigidity, errors), which needs integers and Fraction alone.  Its
records are plain classes on records.Record, so the package imports
neither the standard library's data-class module nor inspect, and builds
no method by exec.  The
germ engine's public names -- CurveGerm, classify_germ, lct_quasihomogeneous
(from germs) and germ_blowup_tree, lct_config, lct_germ, lct_weighted_germs
(from lct) -- are resolved on first use: reading one of them imports its
submodule and binds that submodule's names.  The engine's submodules (germs,
blowup, lct) are package attributes the same way.

Germ text, squarefree tests, rejections and the blowups over Q and over
one extension Q[t]/(g) need no sympy, so reading these names, lct_config,
and a germ whose blown-up points are rational or lie in one Q[t]/(g) leave
it unloaded.  numberfield loads it for a tower over Q[t]/(g) and for a
line to factor (three or more points over Q, two or more over a number
field); germs loads it for a germ given as a sympy expression and for the
views CurveGerm.poly and CurveGerm.expr.
"""

import importlib

from .cycles import (
    AnticanonicalConfiguration,
    AttachmentVector,
    Component,
    FundamentalCycle,
    KodairaLabel,
    Meeting,
    allowed_variants,
    attachment_vector,
    build_configuration,
    fundamental_cycle,
    kodaira_type,
)
from .dynkin import (
    ALL_TYPES,
    DynkinType,
    IntersectionMatrix,
    intersection_matrix,
    is_negative_definite,
    parse_dynkin,
)
from .errors import (
    AssumptionNotAssertedError,
    DelPezzoError,
    DepthExceededError,
    InvalidConfigurationError,
    InvalidGermError,
    InvalidSurfaceError,
    MalformedLabelError,
    NonSquarefreeError,
    NonTerminationError,
    NotAtOriginError,
    NotQuasihomogeneousError,
    NotSymmetricError,
    OutOfRangeError,
    UnrecognizedConfigurationError,
    UnsupportedClassError,
    VariantMismatchError,
)
from .rigidity import (
    TARGET_CLASSES,
    FibrationSpec,
    RigidityVerdict,
    TargetClass,
    possible_targets,
    rigidity_gate,
    source_constraints,
    target_class_for,
)
from .surfaces import (
    SurfaceSpec,
    TlctResult,
    ValidationReport,
    iter_valid_specs,
    realizable_configurations,
    tlct,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_TYPES",
    "AnticanonicalConfiguration",
    "AssumptionNotAssertedError",
    "AttachmentVector",
    "Component",
    "CurveGerm",
    "DelPezzoError",
    "DepthExceededError",
    "DynkinType",
    "FibrationSpec",
    "FundamentalCycle",
    "IntersectionMatrix",
    "InvalidConfigurationError",
    "InvalidGermError",
    "InvalidSurfaceError",
    "KodairaLabel",
    "MalformedLabelError",
    "Meeting",
    "NonSquarefreeError",
    "NonTerminationError",
    "NotAtOriginError",
    "NotQuasihomogeneousError",
    "NotSymmetricError",
    "OutOfRangeError",
    "RigidityVerdict",
    "SurfaceSpec",
    "TARGET_CLASSES",
    "TargetClass",
    "TlctResult",
    "UnrecognizedConfigurationError",
    "UnsupportedClassError",
    "ValidationReport",
    "VariantMismatchError",
    "allowed_variants",
    "attachment_vector",
    "build_configuration",
    "classify_germ",
    "fundamental_cycle",
    "germ_blowup_tree",
    "intersection_matrix",
    "is_negative_definite",
    "iter_valid_specs",
    "kodaira_type",
    "lct_config",
    "lct_germ",
    "lct_quasihomogeneous",
    "lct_weighted_germs",
    "parse_dynkin",
    "possible_targets",
    "realizable_configurations",
    "rigidity_gate",
    "source_constraints",
    "target_class_for",
    "tlct",
    "validate",
]

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
