"""The command-line surface: grammar, formats, exit codes."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from delpezzo1 import errors
from delpezzo1.cli import run
from delpezzo1.cycles import POINT_VARIANTS, SMOOTH_VARIANTS
from delpezzo1.dynkin import ALL_TYPES
from delpezzo1.surfaces import CUSP_DATA


@pytest.fixture()
def call(capsys):
    def invoke(*argv, expect=0):
        status = run(list(argv))
        captured = capsys.readouterr()
        assert status == expect, captured.err
        return captured
    return invoke


def test_cycle_text(call):
    assert call("cycle", "E8").out == "2 3 4 5 6 4 2 3\n"
    assert call("cycle", "A4").out == "1 1 1 1\n"
    assert call("cycle", "D5").out == "1 2 2 1 1\n"


def test_cycle_json(call):
    data = json.loads(call("cycle", "E7", "--json").out)
    assert data == {"type": "E7", "coeffs": [1, 2, 3, 4, 3, 2, 2]}


def test_cycle_attachment(call):
    assert call("cycle", "E8", "--attachment").out == "1 0 0 0 0 0 0 0\n"
    data = json.loads(call("cycle", "D6", "--attachment", "--json").out)
    assert data == {"type": "D6", "d": [0, 1, 0, 0, 0, 0]}


def test_matrix(call):
    assert call("matrix", "A2").out == "-2 1\n1 -2\n"
    data = json.loads(call("matrix", "A2", "--json").out)
    assert data["matrix"] == [[-2, 1], [1, -2]]


def test_lct_germ(call):
    assert call("lct-germ", "y^2 - x^3").out == "5/6\n"
    assert call("lct-germ", "x*y").out == "1\n"
    assert json.loads(call("lct-germ", "y^2 - x^5", "--json").out) == {"lct": "7/10"}


def test_classify(call):
    assert call("classify", "x*y").out == "node\n"
    assert call("classify", "y^2 - x^3").out == "cusp\n"
    assert call("classify", "x - y^2").out == "smooth\n"


def test_config_and_kodaira(call):
    out = call("config", "A1", "--variant", "tangential").out
    assert "meet D E1 contact=2" in out
    assert call("kodaira", "A1", "--variant", "tangential").out == "III\n"
    assert call("kodaira", "E8").out == "II*\n"
    assert call("kodaira", "--smooth", "nodal").out == "I1\n"
    data = json.loads(call("config", "A2", "--variant", "one-point", "--json").out)
    assert [c["id"] for c in data["components"]] == ["D", "E1", "E2"]
    assert data["incidence"][0]["members"] == ["D", "E1", "E2"]


def test_lct_config(call):
    assert call("lct-config", "E8").out == "1/6\n"
    assert call("lct-config", "A1", "--variant", "tangential").out == "3/4\n"
    assert call("lct-config", "--smooth", "cuspidal").out == "5/6\n"


def test_tlct(call):
    assert call("tlct", "--sings", "E7,A1", "--cusp", "none").out == "1/4 (III*)\n"
    assert call("tlct", "--sings", "", "--cusp", "smooth").out == "5/6 (II)\n"
    data = json.loads(call("tlct", "--sings", "A2", "--cusp", "A2", "--json").out)
    assert data == {"value": "2/3", "kodaira": "IV"}


def test_validate(call):
    assert call("validate", "--sings", "E7,A1").out == "pass\n"
    out = call("validate", "--sings", "E6,A1,A1").out
    assert out.startswith("fail: (d)")
    data = json.loads(call("validate", "--sings", "A4,A4,A1", "--json").out)
    assert data["passed"] is False
    assert data["violations"][0]["clause"] == "a"


def test_rigidity(call):
    x = json.dumps({"singularities": [], "cusp": "smooth"})
    y = json.dumps({"singularities": ["E8"], "cusp": "none"})
    out = call("rigidity", "--x", x, "--y", y).out.splitlines()
    assert out[0] == "inconclusive 1"
    assert out[1].startswith("1/6 ")
    data = json.loads(call("rigidity", "--x", x, "--y", y, "--json").out)
    assert data["outcome"] == "inconclusive"
    assert data["tlct_sum"] == "1"
    assert [t["tlct"] for t in data["targets"]] == ["1/6"]
    rigid = json.loads(
        call("rigidity", "--x", json.dumps({"singularities": ["A5"]}), "--y", y,
             "--json").out
    )
    assert rigid == {"outcome": "rigid", "tlct_sum": "7/6", "targets": []}


def test_targets(call):
    x = json.dumps({"singularities": ["A1", "A2"], "cusp": "A1"})
    out = call("targets", "--x", x).out.splitlines()
    assert len(out) == 2 and out[0].startswith("1/6") and out[1].startswith("1/4")
    empty = call("targets", "--x", json.dumps({"singularities": ["A4"]}))
    assert empty.out == ""
    data = json.loads(call("targets", "--x", x, "--json").out)
    assert [t["tlct"] for t in data["targets"]] == ["1/6", "1/4"]


def test_domain_errors_exit_1(call):
    bad = call("cycle", "F4", expect=1)
    assert "MalformedLabelError" in bad.err
    assert call("cycle", "A9", expect=1).err.startswith("OutOfRangeError")
    # ranks past int()'s 4300 digits
    assert call("matrix", "A" + "9" * 5000, expect=1).err.startswith("OutOfRangeError")
    assert call("tlct", "--sings", "D" + "1" * 4400, expect=1).err.startswith("OutOfRangeError")
    assert call("lct-germ", "x^2*y", expect=1).err.startswith("NonSquarefreeError")
    assert call("lct-germ", "x + 1", expect=1).err.startswith("NotAtOriginError")
    assert call("tlct", "--sings", "E8,E8", expect=1).err.startswith(
        "InvalidSurfaceError"
    )
    assert call("config", "A1", "--variant", "one-point", expect=1).err.startswith(
        "VariantMismatchError"
    )
    assert call("rigidity", "--x", "{bad json", "--y", "{}", expect=1).err.startswith(
        "InvalidSurfaceError"
    )


CONFIG_FLAG_ERRORS = [
    (("config", "E8", "--smooth", "nodal"), "--smooth excludes a singularity type and --variant"),
    (("kodaira", "--smooth", "nodal", "--variant", "transverse"),
     "--smooth excludes a singularity type and --variant"),
    (("config",), "give a singularity type or --smooth"),
    (("lct-config",), "give a singularity type or --smooth"),
]


@pytest.mark.parametrize("argv, reason", CONFIG_FLAG_ERRORS,
                         ids=[" ".join(argv) for argv, _ in CONFIG_FLAG_ERRORS])
def test_conflicting_or_missing_config_flags_exit_1(call, argv, reason):
    assert call(*argv, expect=1).err == f"InvalidSurfaceError: {reason}\n"


# A germ or factor text past 80 characters is cut to 77 and "...", as the
# parser's own errors are: at most three texts of 80 and a short frame each.
LONG_TEXT_ERRORS = [
    (("classify", "(x+y)^128*(x-y)"), "NonSquarefreeError: germ "),
    (("classify", "((x+y)^30+y^31)^2*(x-y)"), "NonSquarefreeError: germ "),
    (("lct-germ", "(x+y)^30+1"), "NotAtOriginError: germ "),
]


@pytest.mark.parametrize("argv, start", LONG_TEXT_ERRORS,
                         ids=[" ".join(argv) for argv, _ in LONG_TEXT_ERRORS])
def test_errors_shorten_long_germs_and_factors(call, argv, start):
    err = call(*argv, expect=1).err
    assert err.startswith(start) and err.count("...") >= 1
    assert len(err.splitlines()[0]) <= 2 * 80 + 60


# A quoted input is cut after it is quoted, so that escapes cannot lengthen
# it: 80 control characters print as 320, and a quote keeps at most 82.
@pytest.mark.parametrize("argv", [("matrix", "\x01" * 80), ("tlct", "--sings", "\x01" * 80)],
                         ids=["matrix", "tlct"])
def test_errors_quote_control_characters_short(call, argv):
    kind, message = call(*argv, expect=1).err.rstrip("\n").split(": ", 1)
    assert kind == "MalformedLabelError" and message.endswith("...'") and len(message) <= 120


def test_germ_errors_quote_control_characters_and_long_tokens_short(call):
    # the text and the token the parser stopped at are quoted the same way
    for text in ("\x00" * 80, "x 1" + "2" * 5000):
        err = call("lct-germ", text, expect=1).err
        assert err.startswith("InvalidGermError: cannot parse germ ") and len(err) <= 2 * 82 + 80


# found by the contract test below: a parse error quoted the text and the
# token at 82 bytes each (241 bytes in all), and a repeated factor named the
# germ and the factor at 80 characters each (210 bytes)
LONG_GERM_ERRORS = [("lct-germ", "x 1" + "2" * 5000), ("classify", "y" + "\u20ac" * 80),
                    ("lct-germ", "x^" + "1" * 5000 + "+" + "9" * 100),
                    ("classify", "((x+y)^30+y^31)^2*(x-y)")]


@pytest.mark.parametrize("argv", LONG_GERM_ERRORS, ids=["token", "euro", "exponent", "factor"])
def test_a_germ_error_line_is_200_bytes_at_most(call, argv):
    line = call(*argv, expect=1).err
    assert line.count("\n") == 1 and len(line.rstrip("\n").encode()) <= 200


MALFORMED_SPECS = [
    {"singularities": 5},
    {"singularities": "E8"},
    {"singularities": {"E8": 1}},
    {"singularities": [8]},
    {"fiber": {"singularities": []}, "assumptions": 5},
    {"fiber": {"singularities": []}, "assumptions": ["surjectivity"]},
    {"fiber": {"singularities": ["E8"]}, "assumptions": {"surjectivity": "false"}},
    {"fiber": {"singularities": ["E8"]}, "assumptions": {"surjectivity": 0}},
    {"fiber": {"singularities": ["E8"]}, "assumption": {"surjectivity": False}},
]


@pytest.mark.parametrize("spec", MALFORMED_SPECS, ids=json.dumps)
def test_malformed_spec_json_exits_1(call, spec):
    good = json.dumps({"singularities": ["E8"]})
    for argv in (
        ("targets", "--x", json.dumps(spec)),
        ("rigidity", "--x", good, "--y", json.dumps(spec)),
    ):
        assert call(*argv, expect=1).err.startswith("InvalidSurfaceError")


# texts json.loads itself refuses: nesting past the recursion limit, and an
# integer past Python's 4300-digit limit
HOSTILE_JSON = ["[" * 2000, '{"singularities": [' + "9" * 5000 + "]}"]


@pytest.mark.parametrize("text", HOSTILE_JSON, ids=["deep-nesting", "huge-int"])
def test_hostile_json_exits_1(call, text):
    good = json.dumps({"singularities": ["E8"]})
    for argv in (("targets", "--x", text), ("rigidity", "--x", good, "--y", text)):
        assert call(*argv, expect=1).err.startswith("InvalidSurfaceError: not valid JSON")


def test_a_thousand_unknown_keys_make_one_short_error_line(call):
    spec = {"singularities": [], **{f"k{i:09d}": 1 for i in range(1000)}}
    err = call("targets", "--x", json.dumps(spec), expect=1).err
    assert err.startswith("InvalidSurfaceError: unknown spec keys ['k000000000', ")
    assert len(err.encode()) < 300


# found: brief_keys cut the keys and their list by characters, so 80 euro
# signs in one unknown key wrote a 283-byte line, in five keys 601 bytes, and
# in an unknown assumption flag 290 bytes
EURO_KEYS = {
    "one-key": {"singularities": [], "\u20ac" * 80: 1},
    "five-keys": {"singularities": [], **{"\u20ac" * 80 + str(i): 1 for i in range(5)}},
    "assumption-flag": {"fiber": {"singularities": []}, "assumptions": {"\u20ac" * 80: True}},
}


@pytest.mark.parametrize("spec", EURO_KEYS.values(), ids=EURO_KEYS)
def test_non_ascii_keys_make_one_error_line_of_200_bytes_at_most(call, spec):
    for ensure_ascii in (True, False):
        err = call("targets", "--x", json.dumps(spec, ensure_ascii=ensure_ascii), expect=1).err
        assert err.startswith("InvalidSurfaceError: unknown ") and err.count("\n") == 1
        assert "\u20ac" * 20 in err and len(err.rstrip("\n").encode()) <= 200


# calls whose error line quotes an outside input: a label, a cusp, a spec key,
# an assumption flag and a singularity
QUOTING_CALLS = [
    (lambda text: ("matrix", text), "MalformedLabelError"),
    (lambda text: ("targets", "--x", json.dumps({"singularities": [], "cusp": text})),
     "InvalidSurfaceError"),
    (lambda text: ("targets", "--x", json.dumps({"singularities": [], text: 1})),
     "InvalidSurfaceError"),
    (lambda text: ("targets", "--x", json.dumps(
        {"fiber": {"singularities": []}, "assumptions": {text: True}})), "InvalidSurfaceError"),
    (lambda text: ("targets", "--x", json.dumps({"singularities": [text]})),
     "MalformedLabelError"),
]


@pytest.mark.parametrize("argv, error", QUOTING_CALLS,
                         ids=["label", "cusp", "spec-key", "assumption-flag", "singularity"])
def test_an_input_past_80_characters_is_cut_in_the_error_line(call, argv, error):
    for n in (80, 81, 5000):
        text = "F" + "9" * (n - 1)
        err = call(*argv(text), expect=1).err
        assert err.startswith(f"{error}: ") and len(err.encode()) < 300
        assert (text in err) == (n <= 80) and (text[:77] + "..." in err) == (n > 80)


MALFORMED_GERMS = [
    "y^2-(x", "y^2 - x^3 +", "x/0", "x^-1", "x^(1/2)", "1/x", "x/y", "2^x", "sin(x)",
    "z", "x!", "", "__import__('os').getpid()*0 + x", "(x+y)**2000",
]


@pytest.mark.parametrize("germ", MALFORMED_GERMS)
def test_malformed_germ_text_exits_1(call, germ):
    for command in ("lct-germ", "classify"):
        assert call(command, germ, expect=1).err.startswith("InvalidGermError: ")


def test_unbalanced_parenthesis_prints_no_traceback():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "delpezzo1.cli", "lct-germ", "y^2-(x"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 1
    assert done.stderr.startswith("InvalidGermError: ") and "Traceback" not in done.stderr


def test_usage_errors_exit_2(call):
    call("no-such-command", expect=2)
    call(expect=2)
    call("cycle", expect=2)  # missing the type argument
    call("rigidity", "--x", "{}", expect=2)  # missing --y


# the help of the package and of each subcommand at COLUMNS=80, captured
# under Python 3.11 before the parser set up only the subcommand called
HELP = json.loads((Path(__file__).parent / "data" / "cli_help.json").read_text())
COMMANDS = [argv.split()[0] for argv in HELP if argv != "--help"]


def test_help_lists_every_subcommand(call):
    out = call("--help").out
    assert len(COMMANDS) == 11
    listed = [line.split()[0] for line in out.splitlines()
              if line.startswith("    ") and not line[4].isspace()]
    assert listed == COMMANDS


@pytest.mark.parametrize("argv", list(HELP))
def test_help_text_is_unchanged(call, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    out = call(*argv.split()).out
    if sys.version_info[:2] == (3, 11):
        assert out == HELP[argv]
    else:  # another argparse may break the lines elsewhere
        assert out.split() == HELP[argv].split()


BAD_CHOICES = [
    (("config", "A1", "--variant", "nope"), "--variant", POINT_VARIANTS),
    (("lct-config", "--smooth", "nope"), "--smooth", SMOOTH_VARIANTS),
    (("tlct", "--cusp", "nope"), "--cusp", CUSP_DATA),
]


@pytest.mark.parametrize("argv, flag, values", BAD_CHOICES, ids=[flag for _, flag, _ in BAD_CHOICES])
def test_bad_choice_exits_2_naming_the_library_values(call, argv, flag, values):
    line = call(*argv, expect=2).err.splitlines()[-1]
    start = f"delpezzo1 {argv[0]}: error: argument {flag}: invalid choice: 'nope' (choose from "
    assert line.startswith(start) and line.endswith(")")
    # argparse quotes the values in some versions and not in others
    assert [v.strip("'") for v in line[len(start):-1].split(", ")] == list(values)


def test_json_and_text_agree(call):
    text = call("lct-config", "E6").out.strip()
    data = json.loads(call("lct-config", "E6", "--json").out)
    assert data["lct"] == text



# byte-exact stdout of every subcommand in text and --json form
_FLAGGED_X = json.dumps(
    {"fiber": {"singularities": ["A5"]}, "assumptions": {"one_complement": False}}
)
_E8 = json.dumps({"singularities": ["E8"]})
_A4 = json.dumps({"singularities": ["A4"]})
_A1A2 = json.dumps({"singularities": ["A1", "A2"], "cusp": "A1"})
_CLASS_TEXT = [
    "1/6 unique singular point, of type E8",
    "1/4 E7 present, no E8; at most one extra singularity, of type A1",
    "1/3 E6 present, no E7 or E8; at most one extra singularity, of type A1 or A2",
    "1/2 some Dn present, no exceptional type",
    "2/3 only An singularities; a member cusps at an A2 point",
    "3/4 only An singularities; a member cusps at an A1 point, none at an A2",
    "5/6 only An singularities; a cuspidal member, none cusping at a singular point",
    "1 only An singularities; no cuspidal member",
]
_CLASS_JSON = [
    '{"tlct": "%s", "description": "%s"}' % tuple(line.split(" ", 1))
    for line in _CLASS_TEXT
]


def _case(name, argv, *lines):
    return pytest.param(argv, "".join(line + "\n" for line in lines), id=name)


GOLDEN = [
    _case("matrix-lowercase", ["matrix", "a2"], "-2 1", "1 -2"),
    _case("matrix-json", ["matrix", "d4", "--json"],
          '{"type": "d4", "matrix": [[-2, 1, 0, 0], [1, -2, 1, 1], [0, 1, -2, 0],'
          ' [0, 1, 0, -2]]}'),
    _case("cycle", ["cycle", "E8"], "2 3 4 5 6 4 2 3"),
    _case("cycle-json", ["cycle", "E7", "--json"],
          '{"type": "E7", "coeffs": [1, 2, 3, 4, 3, 2, 2]}'),
    _case("attachment", ["cycle", "D6", "--attachment"], "0 1 0 0 0 0"),
    _case("attachment-json", ["cycle", "D6", "--attachment", "--json"],
          '{"type": "D6", "d": [0, 1, 0, 0, 0, 0]}'),
    _case("config-d4", ["config", "D4"],
          "D 1 strict_transform", "E1 1 exceptional", "E2 2 exceptional",
          "E3 1 exceptional", "E4 1 exceptional",
          "meet D E2", "meet E1 E2", "meet E2 E3", "meet E2 E4"),
    _case("config-tangential", ["config", "A1", "--variant", "tangential"],
          "D 1 strict_transform", "E1 1 exceptional", "meet D E1 contact=2"),
    _case("config-cuspidal", ["config", "--smooth", "cuspidal"],
          "D 1 strict_transform", "meet D cuspidal"),
    _case("config-json", ["config", "A2", "--variant", "one-point", "--json"],
          '{"components": [{"id": "D", "multiplicity": 1, "kind": "strict_transform"},'
          ' {"id": "E1", "multiplicity": 1, "kind": "exceptional"},'
          ' {"id": "E2", "multiplicity": 1, "kind": "exceptional"}],'
          ' "incidence": [{"members": ["D", "E1", "E2"], "contact": 1,'
          ' "cuspidal": false}]}'),
    _case("kodaira", ["kodaira", "E7"], "III*"),
    _case("kodaira-json", ["kodaira", "A3", "--json"], '{"kodaira": "I4"}'),
    _case("lct-germ", ["lct-germ", "y^2 - x^5"], "7/10"),
    _case("lct-germ-json", ["lct-germ", "y^2 - x^3", "--json"], '{"lct": "5/6"}'),
    _case("lct-config", ["lct-config", "A1", "--variant", "tangential"], "3/4"),
    _case("lct-config-json", ["lct-config", "E8", "--json"], '{"lct": "1/6"}'),
    _case("classify", ["classify", "x^2 + y^3"], "cusp"),
    _case("classify-json", ["classify", "x*y", "--json"], '{"class": "node"}'),
    _case("tlct", ["tlct", "--sings", "D5,A2"], "1/2 (I*1)"),
    _case("tlct-json", ["tlct", "--sings", "A2", "--cusp", "A2", "--json"],
          '{"value": "2/3", "kodaira": "IV"}'),
    _case("validate-pass", ["validate", "--sings", "E7,A1"], "pass"),
    _case("validate-pass-json", ["validate", "--sings", "A1", "--json"],
          '{"passed": true, "violations": []}'),
    _case("validate-fail", ["validate", "--sings", "E6,A1,A1,A4"],
          "fail: (a) rank sum 12 exceeds 8; (d) E6 allows at most one extra"
          " singularity, of type A1 or A2"),
    _case("validate-fail-json", ["validate", "--sings", "E6,A1,A1,A4", "--json"],
          '{"passed": false, "violations": [{"clause": "a", "reason": "rank sum 12'
          ' exceeds 8"}, {"clause": "d", "reason": "E6 allows at most one extra'
          ' singularity, of type A1 or A2"}]}'),
    _case("rigidity-rigid", ["rigidity", "--x", json.dumps({"singularities": ["A5"]}),
                             "--y", _E8], "rigid 7/6"),
    _case("rigidity-missing", ["rigidity", "--x", _FLAGGED_X, "--y", _E8],
          "inconclusive 7/6", "missing: x:one_complement", *_CLASS_TEXT),
    _case("rigidity-missing-json", ["rigidity", "--x", _FLAGGED_X, "--y", _E8, "--json"],
          '{"outcome": "inconclusive", "tlct_sum": "7/6", "targets": ['
          + ", ".join(_CLASS_JSON) + '], "missing_assumptions": ["x:one_complement"]}'),
    _case("rigidity-json", ["rigidity", "--x", json.dumps({"singularities": [],
                                                          "cusp": "smooth"}),
                            "--y", _E8, "--json"],
          '{"outcome": "inconclusive", "tlct_sum": "1", "targets": ['
          + _CLASS_JSON[0] + "]}"),
    _case("targets-empty", ["targets", "--x", _A4]),
    _case("targets-empty-json", ["targets", "--x", _A4, "--json"], '{"targets": []}'),
    _case("targets", ["targets", "--x", _A1A2], *_CLASS_TEXT[:2]),
    _case("targets-json", ["targets", "--x", _A1A2, "--json"],
          '{"targets": [' + ", ".join(_CLASS_JSON[:2]) + "]}"),
]


@pytest.mark.parametrize("argv, stdout", GOLDEN)
def test_golden_stdout(call, argv, stdout):
    captured = call(*argv)
    assert captured.out == stdout
    assert captured.err == ""


def test_golden_covers_every_subcommand_in_both_forms():
    commands = ["matrix", "cycle", "config", "kodaira", "lct-germ", "lct-config",
                "classify", "tlct", "validate", "rigidity", "targets"]
    pinned = {(p.values[0][0], "--json" in p.values[0]) for p in GOLDEN}
    assert pinned == {(name, form) for name in commands for form in (False, True)}


# -- the input contract of the surface-side subcommands ----------------------

SURFACE_SIDE = ("cycle", "config", "kodaira", "lct-config")
ERROR_NAMES = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.DelPezzoError)}
# every argv of those subcommands that a test above pins
PINNED = [
    ["cycle", "E8"], ["cycle", "A4"], ["cycle", "D5"], ["cycle", "E7", "--json"],
    ["cycle", "E8", "--attachment"], ["cycle", "D6", "--attachment", "--json"],
    ["cycle", "F4"], ["cycle", "A9"], ["cycle"],
    ["config", "A1", "--variant", "tangential"], ["kodaira", "A1", "--variant", "tangential"],
    ["kodaira", "E8"], ["kodaira", "--smooth", "nodal"],
    ["config", "A2", "--variant", "one-point", "--json"], ["config", "A1", "--variant", "one-point"],
    ["lct-config", "E8"], ["lct-config", "A1", "--variant", "tangential"],
    ["lct-config", "--smooth", "cuspidal"], ["lct-config", "E6"], ["lct-config", "E6", "--json"],
    *(list(argv) for argv, _ in CONFIG_FLAG_ERRORS),
    *(list(argv) for argv, _, _ in BAD_CHOICES if argv[0] in SURFACE_SIDE),
    *(p.values[0] for p in GOLDEN if p.values[0][0] in SURFACE_SIDE),
]

labels = st.one_of(
    st.sampled_from([t.label for t in ALL_TYPES] + ["e8", " a1 ", "F4", "A9", "A0", ""]),
    st.text(st.characters(max_codepoint=0x1F), max_size=120),  # control characters
    st.text(st.characters(min_codepoint=0x80), max_size=120),  # non-ASCII
    st.builds(lambda c, n: c * n, st.characters(min_codepoint=0x80), st.integers(1, 120)),
    st.text(max_size=40),
    st.builds(lambda kind, zeros, digits: kind + "0" * zeros + digits,  # long digit runs
              st.sampled_from("ADEadeF"), st.integers(0, 5000),
              st.text("0123456789", max_size=8) | st.integers(1, 6000).map(lambda n: "9" * n)),
)


@st.composite
def surface_side_argv(draw) -> list[str]:
    """A subcommand of SURFACE_SIDE, an optional label, its flags and --json."""
    command = draw(st.sampled_from(SURFACE_SIDE))
    argv = [command] + draw(st.lists(labels, max_size=1))
    if command == "cycle":
        argv += draw(st.lists(st.just("--attachment"), max_size=1))
    else:
        for flag, values in (("--variant", POINT_VARIANTS), ("--smooth", SMOOTH_VARIANTS)):
            value = draw(st.none() | st.sampled_from(values) | labels)
            argv += [] if value is None else [flag, value]
    return argv + draw(st.lists(st.just("--json"), max_size=1))


def _examples(argvs):
    def decorate(test):
        for argv in argvs:
            test = example(argv)(test)
        return test
    return decorate


def _assert_the_contract(argv):
    """Exit 0 with output, exit 1 with one typed stderr line of at most 200 bytes, or exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = run(argv)
    if status == 0:  # an empty list of targets prints nothing
        assert (out.getvalue() or argv[0] == "targets") and not err.getvalue()
    elif status == 1:
        line = err.getvalue()
        assert line.endswith("\n") and line.count("\n") == 1 and not out.getvalue()
        assert line.split(": ", 1)[0] in ERROR_NAMES
        size = len(line.rstrip("\n").encode())
        target(size)  # steer toward the longest lines
        assert size <= 200, line
    else:
        assert status == 2


@_examples(PINNED)
@example(["cycle", "\U0001cf00" * 39])  # found: 4-byte characters made a 366-byte line
@example(["config", "\u20ac" * 80, "--json"])
@settings(deadline=None, max_examples=300)
@given(surface_side_argv())
def test_a_surface_side_call_prints_output_one_typed_line_or_a_usage_error(argv):
    _assert_the_contract(argv)


# -- the input contract of the other subcommands -----------------------------

OTHER_SIDE = ("matrix", "tlct", "validate", "rigidity", "targets", "lct-germ", "classify")


def _spec_argv(command, *specs):
    """targets --x spec, or rigidity --x spec --y spec, each spec a JSON object."""
    texts = [json.dumps(spec) for spec in specs]
    if command == "targets":
        return ["targets", "--x", texts[0]]
    return ["rigidity", "--x", texts[0], "--y", texts[-1]]


# every argv of those subcommands that a test above pins
OTHER_PINNED = [
    ["matrix", "A2"], ["matrix", "A2", "--json"], ["matrix", "A" + "9" * 5000],
    ["matrix", "\x01" * 80],
    ["lct-germ", "y^2 - x^3"], ["lct-germ", "x*y"], ["lct-germ", "y^2 - x^5", "--json"],
    ["lct-germ", "x^2*y"], ["lct-germ", "x + 1"], ["lct-germ", "\x00" * 80],
    ["lct-germ", "x 1" + "2" * 5000],
    ["classify", "x*y"], ["classify", "y^2 - x^3"], ["classify", "x - y^2"],
    ["tlct", "--sings", "E7,A1", "--cusp", "none"], ["tlct", "--sings", "", "--cusp", "smooth"],
    ["tlct", "--sings", "A2", "--cusp", "A2", "--json"], ["tlct", "--sings", "D" + "1" * 4400],
    ["tlct", "--sings", "E8,E8"], ["tlct", "--sings", "\x01" * 80],
    ["validate", "--sings", "E7,A1"], ["validate", "--sings", "E6,A1,A1"],
    ["validate", "--sings", "A4,A4,A1", "--json"],
    ["rigidity", "--x", "{bad json", "--y", "{}"], ["rigidity", "--x", "{}"],
    _spec_argv("rigidity", {"singularities": [], "cusp": "smooth"}, {"singularities": ["E8"]}),
    _spec_argv("rigidity", {"singularities": ["A5"]}, {"singularities": ["E8"], "cusp": "none"}),
    _spec_argv("targets", {"singularities": ["A1", "A2"], "cusp": "A1"}),
    _spec_argv("targets", {"singularities": ["A4"]}),
    _spec_argv("targets", {"singularities": [], **{f"k{i:09d}": 1 for i in range(1000)}}),
    *(_spec_argv("targets", spec) for spec in EURO_KEYS.values()),
    *(list(argv) for argv, _ in LONG_TEXT_ERRORS), *(list(argv) for argv in LONG_GERM_ERRORS),
    *([command, germ] for germ in MALFORMED_GERMS for command in ("lct-germ", "classify")),
    *(_spec_argv(command, spec) for spec in MALFORMED_SPECS for command in ("targets", "rigidity")),
    *(["targets", "--x", text] for text in HOSTILE_JSON),
    *(list(argv(text)) for argv, _ in QUOTING_CALLS
      for text in ("F" + "9" * (n - 1) for n in (80, 81, 5000))),
    *(list(argv) for argv, _, _ in BAD_CHOICES if argv[0] in OTHER_SIDE),
    *(p.values[0] for p in GOLDEN if p.values[0][0] in OTHER_SIDE),
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=10), inner,
                                                                max_size=4),
    max_leaves=12)
json_keys = st.sampled_from(["singularities", "cusp", "fiber", "assumptions",
                             "surjectivity", "one_complement", "special_fiber_plt"]) | labels
extra_keys = st.one_of(
    st.dictionaries(json_keys, json_values, max_size=3),
    st.builds(lambda stem, n: {f"{stem}{i}": 1 for i in range(n)},  # numerous keys
              st.text(max_size=80), st.integers(0, 1000)),
)
surface_specs = st.builds(
    lambda spec, extra: {**extra, **spec},
    st.fixed_dictionaries({}, optional={
        "singularities": st.lists(labels, max_size=4) | json_values,
        "cusp": st.sampled_from(CUSP_DATA) | labels | json_values}),
    st.just({}) | extra_keys)
fibration_specs = st.builds(
    lambda spec, extra: {**extra, **spec},
    st.fixed_dictionaries({"fiber": surface_specs}, optional={
        "assumptions": st.dictionaries(json_keys, st.booleans() | json_values, max_size=4)
        | json_values}),
    st.just({}) | extra_keys)


def _nested(opening, closing, inner=""):
    """Text nested n deep, n up to 3000 and often near the recursion limit."""
    depths = st.integers(1, 3000) | st.integers(900, 1000)
    return depths.map(lambda n: opening * n + inner + closing * n)


spec_texts = st.one_of(
    st.builds(json.dumps, surface_specs | fibration_specs | json_values,
              ensure_ascii=st.booleans()),
    _nested("[", "]"),  # deep nesting, past the recursion limit or not
    _nested('{"a": ', "}", "1"),
    _nested("[", "]").map(lambda nest: '{"singularities": [], "cusp": %s}' % nest),
    _nested("[", "]").map(lambda nest: '{"fiber": {}, "assumptions": {"surjectivity": %s}}'
                          % nest),
    st.integers(1, 6000).map(lambda n: '{"singularities": [%s]}' % ("9" * n)),  # huge ints
    st.integers(1, 6000).map(lambda n: '{"cusp": -%s}' % ("9" * n)),
    st.text(max_size=60),
)

# germ text near the parser's limits (MAX_DEGREE 256, MAX_BITS 1024,
# MAX_NESTING 50) but below the sizes whose gcd takes seconds: powers of sums
# stay at degree 48 or less
germ_pieces = st.one_of(
    st.sampled_from(["x", "y", "x*y", "y^2 - x^3", "x - y^2", "1", "0", "-x", "x/3", "0.5*y"]),
    st.builds("y^{} - x^{}".format, st.integers(0, 260), st.integers(0, 260)),
    st.builds("x^{}*y^{}".format, st.integers(0, 260), st.integers(0, 260)),
    st.builds("({})^{}".format, st.sampled_from(["x+y", "x-y", "y-x^2", "x^2+y^3", "2*x-y"]),
              st.integers(0, 24)),
    st.integers(280, 330).map(lambda n: "7" * n),  # literals near MAX_BITS
    st.integers(280, 330).map(lambda n: "x/" + "3" * n),
    st.integers(1, 4).map(lambda n: "9" * n).map("x^{}".format),  # exponent digits
)
germ_texts = st.one_of(
    st.builds(lambda pieces, ops: "".join(p + o for p, o in zip(pieces, ops)) + pieces[-1],
              st.lists(germ_pieces, min_size=1, max_size=3),
              st.lists(st.sampled_from(["+", "-", "*", " + ", "^2*", "/"]), max_size=2)),
    st.builds(lambda n, germ: "(" * n + germ + ")" * n, st.integers(0, 60), germ_pieces),
    st.builds(lambda germ, junk: germ + junk, germ_pieces, labels),
    labels,
    st.text(max_size=60),
)
sings = st.lists(labels, max_size=4).map(",".join) | labels


@st.composite
def other_side_argv(draw) -> list[str]:
    """A subcommand of OTHER_SIDE with drawn arguments, and --json or not."""
    command = draw(st.sampled_from(OTHER_SIDE))
    if command == "matrix":
        argv = ["matrix", draw(labels)]
    elif command in ("tlct", "validate"):
        argv = [command, "--sings", draw(sings)]
        cusp = draw(st.none() | st.sampled_from(CUSP_DATA) | labels)
        argv += [] if cusp is None else ["--cusp", cusp]
    elif command == "targets":
        argv = ["targets", "--x", draw(spec_texts)]
    elif command == "rigidity":
        argv = ["rigidity", "--x", draw(spec_texts), "--y", draw(spec_texts)]
    else:
        argv = [command, draw(germ_texts)]
    return argv + draw(st.lists(st.just("--json"), max_size=1))


@_examples(OTHER_PINNED)
@settings(deadline=None, max_examples=300)
@given(other_side_argv())
def test_any_other_call_prints_output_one_typed_line_or_a_usage_error(argv):
    _assert_the_contract(argv)
