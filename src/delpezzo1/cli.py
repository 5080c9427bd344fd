"""Command-line front end: one subcommand per library operation.

Results go to stdout (exact fractions, lowest terms), diagnostics to
stderr.  Exit status 0 on success, 1 on domain errors, 2 on usage errors.
Every subcommand takes --json for machine-readable output carrying the
same values as the text form.  Handlers return library results and run()
alone renders them: the text form is str(result), the JSON form is
result.as_dict(), or a one-key object for a plain value.

A call loads only what its subcommand runs: no library module is imported
at module level, every subcommand is registered by name and help, and only
the one called gets its arguments and handler from its setup, which
imports what the handler runs; json is imported only to read or write
JSON.  matrix thus loads dynkin, errors and records alone, and lct-germ
and classify load the germ engine and no combinatorial module.  Every
field under a germ's resolution is Q or a NumberField.  No subcommand
loads sympy, except lct-germ and classify on a germ with a point to blow
up over a tower of number fields, or with three or more points to blow up
on one exceptional line over Q; the tangent directions of
(y^2 - 2*x^2)^2 - x^7, in one extension of Q, and a germ rejected for a
repeated factor load none.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence


def _parse_labels(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _load_fibration(text: str):
    import json

    from .errors import InvalidSurfaceError
    from .rigidity import FibrationSpec

    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, deep nesting, a huge int
        raise InvalidSurfaceError(f"not valid JSON: {exc}") from exc
    return FibrationSpec.from_dict(data)


# Each setup below adds a subcommand's arguments and returns its handler; it
# imports what the handler runs, and runs only for the subcommand called.


def _matrix(sub):
    from .dynkin import intersection_matrix, parse_dynkin

    sub.add_argument("type", help="Dynkin label, e.g. D5")
    return lambda a: intersection_matrix(parse_dynkin(a.type))


def _cycle(sub):
    from .cycles import attachment_vector, fundamental_cycle
    from .dynkin import parse_dynkin

    sub.add_argument("type", help="Dynkin label, e.g. E8")
    sub.add_argument(
        "--attachment",
        action="store_true",
        help="print the anticanonical attachment numbers instead",
    )
    return lambda a: (attachment_vector if a.attachment else fundamental_cycle)(
        parse_dynkin(a.type)
    )


def _configuration(sub):
    """The flags of a configuration; the handler builds it."""
    from .cycles import POINT_VARIANTS, SMOOTH_VARIANTS, allowed_variants, build_configuration
    from .dynkin import parse_dynkin
    from .errors import InvalidSurfaceError

    sub.add_argument("type", nargs="?", help="Dynkin label, e.g. E8")
    sub.add_argument(
        "--variant",
        choices=list(POINT_VARIANTS),
        help="contact variant at the point (defaults to the generic one)",
    )
    sub.add_argument(
        "--smooth",
        choices=list(SMOOTH_VARIANTS),
        help="member in the smooth locus instead of through a point",
    )

    def configuration(args):
        if args.smooth is not None:
            if args.type is not None or args.variant is not None:
                raise InvalidSurfaceError(
                    "--smooth excludes a singularity type and --variant"
                )
            return build_configuration(smooth=args.smooth)
        if args.type is None:
            raise InvalidSurfaceError("give a singularity type or --smooth")
        t = parse_dynkin(args.type)
        return build_configuration([(t, args.variant or allowed_variants(t)[0])])

    return configuration


def _kodaira(sub):
    from .cycles import kodaira_type

    configuration = _configuration(sub)
    return lambda a: kodaira_type(configuration(a))


def _lct_germ(sub):
    from .lct import lct_germ

    sub.add_argument("poly", help='germ polynomial, e.g. "y^2 - x^3"')
    return lambda a: lct_germ(a.poly)


def _lct_config(sub):
    from .lct import lct_config

    configuration = _configuration(sub)
    return lambda a: lct_config(configuration(a))


def _classify(sub):
    from .germs import classify_germ

    sub.add_argument("poly", help='germ polynomial, e.g. "x*y"')
    return lambda a: classify_germ(a.poly)


def _surface(sub):
    """The flags of a surface spec; the handler builds it."""
    from .surfaces import CUSP_DATA, NO_CUSPIDAL_MEMBER, SurfaceSpec

    sub.add_argument("--sings", default="", help="comma list, e.g. E7,A1")
    sub.add_argument(
        "--cusp",
        default=NO_CUSPIDAL_MEMBER,
        choices=list(CUSP_DATA),
        help="worst cusp behavior asserted for |-K| members",
    )
    return lambda a: SurfaceSpec(_parse_labels(a.sings), a.cusp)


def _tlct(sub):
    from .surfaces import tlct

    surface = _surface(sub)
    return lambda a: tlct(surface(a))


def _validate(sub):
    from .surfaces import validate

    surface = _surface(sub)
    return lambda a: validate(surface(a))


def _rigidity(sub):
    from .rigidity import rigidity_gate

    sub.add_argument("--x", required=True, help="fibration spec JSON")
    sub.add_argument("--y", required=True, help="fibration spec JSON")
    return lambda a: rigidity_gate(_load_fibration(a.x), _load_fibration(a.y))


def _targets(sub):
    from .rigidity import possible_targets

    sub.add_argument("--x", required=True, help="fibration spec JSON")
    return lambda a: possible_targets(_load_fibration(a.x))


# name -> help, the --json key of a plain result (None: result.as_dict()), setup
_COMMANDS = {
    "matrix": ("intersection matrix of a Dynkin type", "matrix", _matrix),
    "cycle": ("fundamental cycle coefficients", None, _cycle),
    "config": ("anticanonical configuration", None, _configuration),
    "kodaira": ("Kodaira fiber type of a configuration", "kodaira", _kodaira),
    "lct-germ": ("threshold of a curve germ", "lct", _lct_germ),
    "lct-config": ("threshold of a configuration", "lct", _lct_config),
    "classify": ("smooth/node/cusp/other", "class", _classify),
    "tlct": ("total threshold of a surface spec", None, _tlct),
    "validate": ("check a singularity multiset", None, _validate),
    "rigidity": ("rigidity gate for a fibration pair", None, _rigidity),
    "targets": ("admissible partner classes", "targets", _targets),
}


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """Every subcommand by name and help; arguments for the one argv calls.

    argparse takes the first positional argument as the subcommand, and the
    top-level parser has no option that takes a value, so the first element
    of argv that names a subcommand is the one parsed.  The top-level help
    and usage show only names and help, so the other subcommands need no
    arguments, and their setups, with their imports, never run.
    """
    parser = argparse.ArgumentParser(
        prog="delpezzo1",
        description="Exact invariants of degree-1 del Pezzo surfaces and fibrations",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    called = next((arg for arg in argv if arg in _COMMANDS), None)
    for name, (help_text, key, setup) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        if name == called:
            sub.add_argument("--json", action="store_true", help="JSON output")
            sub.set_defaults(handler=setup(sub), key=key)
    return parser


def _json_value(value):
    return value.as_dict() if hasattr(value, "as_dict") else str(value)


def _render(args, result) -> str:
    """Text is str(result), a list one item per line.

    JSON is result.as_dict(), or {key: result} for a subcommand registered
    with a key.
    """
    if not args.json:
        return "\n".join(map(str, result)) if isinstance(result, list) else str(result)
    import json

    if args.key is None:
        data = result.as_dict()
    elif args.key == "matrix":
        # the label is echoed as typed, before parse_dynkin normalises it
        data = {"type": args.type, "matrix": result.as_lists()}
    else:
        data = {args.key: result}
    return json.dumps(data, default=_json_value)


def run(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    from .errors import DelPezzoError

    try:
        result = args.handler(args)
    except DelPezzoError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    output = _render(args, result)
    if output:
        print(output)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
