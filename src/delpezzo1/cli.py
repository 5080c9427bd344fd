"""Command-line front end: one subcommand per library operation.

Results go to stdout (exact fractions, lowest terms), diagnostics to
stderr.  Exit status 0 on success, 1 on domain errors, 2 on usage errors.
Every subcommand takes --json for machine-readable output carrying the
same values as the text form.  Handlers return library results and run()
alone renders them: the text form is str(result), the JSON form is
result.as_dict(), or a one-key object for a plain value.  lct-germ,
lct-config and classify import the germ engine inside their handlers, and
every field under their resolutions is Q or a NumberField.  No subcommand
loads sympy, except lct-germ and classify on a germ with a point to blow
up over a tower of number fields, or with three or more points to blow up
on one exceptional line over Q; the tangent directions of
(y^2 - 2*x^2)^2 - x^7, in one extension of Q, and a germ rejected for a
repeated factor load none.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .cycles import (
    POINT_VARIANTS,
    SMOOTH_VARIANTS,
    AnticanonicalConfiguration,
    allowed_variants,
    attachment_vector,
    build_configuration,
    fundamental_cycle,
    kodaira_type,
)
from .dynkin import intersection_matrix, parse_dynkin
from .errors import DelPezzoError, InvalidSurfaceError
from .rigidity import FibrationSpec, possible_targets, rigidity_gate
from .surfaces import CUSP_DATA, NO_CUSPIDAL_MEMBER, SurfaceSpec, tlct, validate


def _parse_labels(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _load_fibration(text: str) -> FibrationSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSurfaceError(f"not valid JSON: {exc}") from exc
    return FibrationSpec.from_dict(data)


def _configuration(args) -> AnticanonicalConfiguration:
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


def _surface_from_flags(args) -> SurfaceSpec:
    return SurfaceSpec(_parse_labels(args.sings), args.cusp)


def _lct_germ(args):
    from .lct import lct_germ

    return lct_germ(args.poly)


def _lct_config(args):
    from .lct import lct_config

    return lct_config(_configuration(args))


def _classify(args):
    from .germs import classify_germ

    return classify_germ(args.poly)


def _add_config_flags(sub) -> None:
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delpezzo1",
        description="Exact invariants of degree-1 del Pezzo surfaces and fibrations",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, key=None):
        """Register a subcommand; `key` names the --json field of a plain result."""
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler, key=key)
        sub.add_argument("--json", action="store_true", help="JSON output")
        return sub

    sub = command(
        "matrix",
        lambda a: intersection_matrix(parse_dynkin(a.type)),
        "intersection matrix of a Dynkin type",
        key="matrix",
    )
    sub.add_argument("type", help="Dynkin label, e.g. D5")

    sub = command(
        "cycle",
        lambda a: (attachment_vector if a.attachment else fundamental_cycle)(
            parse_dynkin(a.type)
        ),
        "fundamental cycle coefficients",
    )
    sub.add_argument("type", help="Dynkin label, e.g. E8")
    sub.add_argument(
        "--attachment",
        action="store_true",
        help="print the anticanonical attachment numbers instead",
    )

    sub = command("config", _configuration, "anticanonical configuration")
    _add_config_flags(sub)

    sub = command(
        "kodaira",
        lambda a: kodaira_type(_configuration(a)),
        "Kodaira fiber type of a configuration",
        key="kodaira",
    )
    _add_config_flags(sub)

    sub = command("lct-germ", _lct_germ, "threshold of a curve germ", key="lct")
    sub.add_argument("poly", help='germ polynomial, e.g. "y^2 - x^3"')

    sub = command("lct-config", _lct_config, "threshold of a configuration", key="lct")
    _add_config_flags(sub)

    sub = command("classify", _classify, "smooth/node/cusp/other", key="class")
    sub.add_argument("poly", help='germ polynomial, e.g. "x*y"')

    for name, operation, help_text in (
        ("tlct", tlct, "total threshold of a surface spec"),
        ("validate", validate, "check a singularity multiset"),
    ):
        sub = command(
            name, lambda a, op=operation: op(_surface_from_flags(a)), help_text
        )
        sub.add_argument("--sings", default="", help="comma list, e.g. E7,A1")
        sub.add_argument(
            "--cusp",
            default=NO_CUSPIDAL_MEMBER,
            choices=list(CUSP_DATA),
            help="worst cusp behavior asserted for |-K| members",
        )

    sub = command(
        "rigidity",
        lambda a: rigidity_gate(_load_fibration(a.x), _load_fibration(a.y)),
        "rigidity gate for a fibration pair",
    )
    sub.add_argument("--x", required=True, help="fibration spec JSON")
    sub.add_argument("--y", required=True, help="fibration spec JSON")

    sub = command(
        "targets",
        lambda a: possible_targets(_load_fibration(a.x)),
        "admissible partner classes",
        key="targets",
    )
    sub.add_argument("--x", required=True, help="fibration spec JSON")

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
    if args.key is None:
        data = result.as_dict()
    elif args.key == "matrix":
        # the label is echoed as typed, before parse_dynkin normalises it
        data = {"type": args.type, "matrix": result.as_lists()}
    else:
        data = {args.key: result}
    return json.dumps(data, default=_json_value)


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
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
