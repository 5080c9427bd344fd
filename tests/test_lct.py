"""Thresholds: the blowup engine against closed forms and configurations."""

import itertools
import math
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delpezzo1.cycles import (
    CUSPIDAL,
    ELLIPTIC,
    EXCEPTIONAL,
    NODAL,
    ONE_POINT,
    STANDARD,
    STRICT_TRANSFORM,
    TANGENTIAL,
    TRANSVERSE,
    TWO_POINTS,
    AnticanonicalConfiguration,
    Component,
    Meeting,
    build_configuration,
    lct_config,
)
from delpezzo1.blowup import lct_of_branches
from delpezzo1.cli import run
from delpezzo1.dynkin import ALL_TYPES
from delpezzo1.errors import (
    DelPezzoError,
    DepthExceededError,
    NonSquarefreeError,
    NotQuasihomogeneousError,
)
from delpezzo1.germs import (
    NODE,
    CurveGerm,
    classify_germ,
    lct_quasihomogeneous,
)
from delpezzo1.lct import germ_blowup_tree, lct_germ, lct_weighted_germs
from delpezzo1.surfaces import iter_valid_specs, realizable_configurations

from tests.data.make_resolution_corpus import engine_form
from tests.test_resolution_corpus import LINES

from .oracles import newton_edges, newton_lct

x, y = sympy.symbols("x y")


GERM_VALUES = [
    ("x", Fraction(1)),
    ("x*y", Fraction(1)),
    ("y^2 - x^2", Fraction(1)),
    ("y^2 - x^3", Fraction(5, 6)),
    ("y^2 - x^4", Fraction(3, 4)),
    ("y*(y - x^2)", Fraction(3, 4)),
    ("x*y*(x + y)", Fraction(2, 3)),
    ("y^2 - x^5", Fraction(7, 10)),
    ("y^2 - x^7", Fraction(9, 14)),
    ("y^2 - x^9", Fraction(11, 18)),
    ("y^3 - x^4", Fraction(7, 12)),
    ("y^3 - x^5", Fraction(8, 15)),
    ("y^2 - 2*x^6", Fraction(2, 3)),
    ("(y^2 - 2*x^2)^2 - x^6", Fraction(1, 2)),
    ("x^4 - y^4", Fraction(1, 2)),
]


@pytest.mark.parametrize("text,expected", GERM_VALUES)
def test_lct_germ_values(text, expected):
    value = lct_germ(text)
    assert value == expected
    assert 0 < value <= 1


def test_lct_germ_accepts_germ_expr_and_str():
    assert lct_germ(CurveGerm("y^2 - x^3")) == Fraction(5, 6)
    assert lct_germ(y**2 - x**3) == Fraction(5, 6)
    assert lct_germ("y**2 - x**3") == Fraction(5, 6)


def test_lct_weighted_germs():
    assert lct_weighted_germs([("x", 2), ("y", 3)]) == Fraction(1, 3)
    # a cusp counted twice: component bound 1/2 loses to (4+1)/12
    assert lct_weighted_germs([("y^2 - x^3", 2)]) == Fraction(5, 12)
    assert lct_weighted_germs([("y", 1), ("y - x^2", 2)]) == Fraction(1, 2)


@pytest.mark.parametrize("germs,shared", [
    ([("y", 1), ("y", 1)], "y"),
    ([("y^2 - x^3", 1), ("2*y^2 - 2*x^3", 3)], "x**3 - y**2"),
    ([("x", 1), ("y*(y - x^2)", 2), ("x + y^2", 1), ("y^2 - x^2*y", 1)], "y**2 - x**2*y"),
])
def test_lct_weighted_germs_names_two_branches_with_a_common_factor(germs, shared):
    with pytest.raises(NonSquarefreeError) as info:
        lct_weighted_germs(germs)
    message = str(info.value)
    assert message.startswith("branches ") and " share the factor " in message
    i, j = [int(word) for word in message.split() if word.isdigit()][:2]
    assert sympy.gcd(CurveGerm(germs[i - 1][0]).expr, CurveGerm(germs[j - 1][0]).expr) != 1


@pytest.mark.parametrize("germs", [
    [("y^2 - x^127", 1), ("x", 1)],
    [("y^2 - x^200", 2), ("y^2 - 2*x^200", 1)],
], ids=["cusp-and-line", "two-binomials"])
def test_coprime_branches_past_the_depth_cap_keep_its_error(germs):
    # the branches share no factor, so the depth cap's error is raised again
    with pytest.raises(DepthExceededError, match="exceeded depth"):
        lct_weighted_germs(germs)


def test_common_factor_error_shortens_long_branches():
    # each branch prints past 80 characters and is cut to 77 and "..."
    with pytest.raises(NonSquarefreeError) as info:
        lct_weighted_germs([("x*((x+y)^30 + y^31)", 1), ("x*((x-y)^30 + y^31)", 2)])
    message = str(info.value)
    assert message.endswith(" share the factor x") and message.count("...") == 2
    assert len(message) <= 3 * 80 + 60


@pytest.mark.parametrize("germs,shared", [
    ([("x", 1), ("y*(y - x^2)", 2), ("x + y^2", 1), ("y^2 - x^2*y", 1)], "x**2*y - y**2"),
    ([("x*y", 2), ("x*(y - x)", 1)], "x"),
    ([("y - 1/2*x^2", 1), ("4*y - 2*x^2", 3)], "x**2 - 2*y"),
])
def test_common_factor_is_named_exactly_in_sstr_format(germs, shared):
    with pytest.raises(NonSquarefreeError, match=re.escape(f"share the factor {shared}") + "$"):
        lct_weighted_germs(germs)


def test_germ_blowup_tree_shape():
    assert germ_blowup_tree("x") == []
    assert germ_blowup_tree("x*y") == []  # already normal crossings
    roots = germ_blowup_tree("y^2 - x^3")
    assert roots
    ratios = [node.ratio for root in roots for node in root.walk()]
    assert min(ratios) == Fraction(5, 6)


# four conjugate cusps (y - t x - theta x^2)^2 - x^5, t^2 = 2 and
# theta^2 = 4 - 4t, expanded over Q: the norm of theta's factor over Q(t) is
# a polynomial in 2T, so sympy gives the tower's root as a scaled CRootOf
FOUR_CUSPS = (
    "y^8 - 8*x^2*y^6 + 24*x^4*y^4 - 32*x^6*y^2 + 16*x^8 - 16*x^4*y^6 + 64*x^5*y^5"
    " + 32*x^6*y^4 - 256*x^7*y^3 + 64*x^8*y^2 + 256*x^9*y - 128*x^10 - 4*x^5*y^6"
    " + 8*x^7*y^4 + 16*x^9*y^2 - 32*x^11 + 32*x^8*y^4 - 512*x^9*y^3 + 1408*x^10*y^2"
    " - 1024*x^11*y + 128*x^12 + 16*x^9*y^4 + 128*x^10*y^3 - 320*x^11*y^2 + 256*x^12*y"
    " + 64*x^13 + 6*x^10*y^4 + 264*x^12*y^2 - 1024*x^13*y + 536*x^14 - 320*x^13*y^2"
    " + 512*x^14*y - 640*x^15 + 16*x^14*y^2 - 192*x^15*y + 288*x^16 - 4*x^15*y^2"
    " + 248*x^17 + 32*x^18 - 16*x^19 + x^20"
)


def test_cusps_over_a_tower_with_a_scaled_root(capsys):
    # as for perfbench's corpus.cusp_product: (k, m) = (1, 8) at the origin,
    # then (2, 12) at the two conjugate tangent directions y = t x, so
    # lct = min(2/8, 3/12) = 1/4; the deeper nodes have 4/13 and 7/26
    assert lct_germ(FOUR_CUSPS) == Fraction(1, 4)
    (root,) = germ_blowup_tree(FOUR_CUSPS)
    assert [(node.k, node.m, node.points) for node in root.walk()] == [
        (1, 8, 1), (2, 12, 2), (3, 13, 4), (6, 26, 4)]
    assert run(["lct-germ", FOUR_CUSPS]) == 0
    assert capsys.readouterr().out == "1/4\n"


def test_lct_rejects_non_squarefree():
    with pytest.raises(NonSquarefreeError):
        lct_germ("x^2*y")
    with pytest.raises(NonSquarefreeError):
        lct_quasihomogeneous("x^2*y")


# -- the quasi-homogeneous closed form as an independent oracle ------------

QH_CORPUS = [
    "x*y",
    "x*y*(x + y)",
    "x^4 - y^4",
    "y^2 - x^3",
    "y^2 - x^5",
    "y^2 - x^7",
    "y^2 - x^9",
    "y^3 - x^4",
    "y^3 - x^5",
    "y^3 - x^7",
    "y^4 - x^5",
    "y^3 - x^6",
]


@pytest.mark.parametrize("text", QH_CORPUS)
def test_oracle_agreement(text):
    assert lct_germ(text) == lct_quasihomogeneous(text)


def test_quasihomogeneous_closed_form():
    assert lct_quasihomogeneous("x*y") == Fraction(1)
    assert lct_quasihomogeneous("y^2 - x^3") == Fraction(5, 6)
    assert lct_quasihomogeneous("y^2 - x^5") == Fraction(7, 10)
    with pytest.raises(NotQuasihomogeneousError):
        lct_quasihomogeneous("y^2 - x^3 - x^4")
    with pytest.raises(NotQuasihomogeneousError):
        lct_quasihomogeneous("x*y - x^2*y^2")


def _substituted(expr, m):
    a, b, c, d = m
    return sympy.expand(expr.subs({x: a * x + b * y, y: c * x + d * y}, simultaneous=True))


# elementary shear products; every matrix is unimodular by construction
_CHANGES = [
    (1, 1, 0, 1),
    (1, 0, 1, 1),
    (2, 1, 1, 1),
    (1, -2, -1, 3),
    (3, 2, 1, 1),
]


@pytest.mark.parametrize("expr,expected", [
    (y**2 - x**3, Fraction(5, 6)),
    (y**2 - x**5, Fraction(7, 10)),
    (x * y * (x + y), Fraction(2, 3)),
    (y**3 - x**4, Fraction(7, 12)),
])
def test_unimodular_invariance(expr, expected):
    for m in _CHANGES:
        assert lct_germ(_substituted(expr, m)) == expected


def test_monotonicity_under_extra_branches():
    for f in ("y^2 - x^3", "y", "x*y"):
        base = lct_germ(f)
        for g in ("x + y", "y - x^2"):
            product = sympy.expand(CurveGerm(f).expr * CurveGerm(g).expr)
            assert lct_germ(product) <= min(base, lct_germ(g))


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-2, max_value=2),
)
def test_random_binomial_germs(p, q, s, t):
    assume(math.gcd(p, q) == 1)
    assume(1 - s * t != 0)
    expected = min(Fraction(1), Fraction(p + q, p * q))
    germ = y**q - x**p
    assert lct_quasihomogeneous(germ) == expected
    assert lct_germ(germ) == expected
    sheared = sympy.expand(germ.subs({x: x + t * y, y: s * x + y}, simultaneous=True))
    assert lct_germ(sheared) == expected


# -- configurations ---------------------------------------------------------

CONFIG_LCT = {
    ("A1", TRANSVERSE): Fraction(1),
    ("A1", TANGENTIAL): Fraction(3, 4),
    ("A2", TWO_POINTS): Fraction(1),
    ("A2", ONE_POINT): Fraction(2, 3),
    ("A3", STANDARD): Fraction(1),
    ("A4", STANDARD): Fraction(1),
    ("A5", STANDARD): Fraction(1),
    ("A6", STANDARD): Fraction(1),
    ("A7", STANDARD): Fraction(1),
    ("A8", STANDARD): Fraction(1),
    ("D4", STANDARD): Fraction(1, 2),
    ("D5", STANDARD): Fraction(1, 2),
    ("D6", STANDARD): Fraction(1, 2),
    ("D7", STANDARD): Fraction(1, 2),
    ("D8", STANDARD): Fraction(1, 2),
    ("E6", STANDARD): Fraction(1, 3),
    ("E7", STANDARD): Fraction(1, 4),
    ("E8", STANDARD): Fraction(1, 6),
}


@pytest.mark.parametrize("label,variant", sorted(CONFIG_LCT))
def test_lct_config_table(label, variant):
    c = build_configuration(label, variant)
    assert lct_config(c) == CONFIG_LCT[(label, variant)]


def test_lct_config_smooth_locus():
    assert lct_config(build_configuration(None, ELLIPTIC)) == Fraction(1)
    assert lct_config(build_configuration(None, NODAL)) == Fraction(1)
    assert lct_config(build_configuration(None, CUSPIDAL)) == Fraction(5, 6)


def test_snc_configurations_hit_multiplicity_bound():
    # transverse-variant configurations are normal crossings, so the
    # threshold is exactly the reciprocal of the largest multiplicity
    for t in ALL_TYPES:
        variant = {"A1": TRANSVERSE, "A2": TWO_POINTS}.get(t.label, STANDARD)
        c = build_configuration(t, variant)
        assert lct_config(c) == Fraction(1, c.max_multiplicity)


def test_degenerate_variants_strictly_decrease():
    def at(label, variant):
        return lct_config(build_configuration(label, variant))

    assert at("A1", TANGENTIAL) < at("A1", TRANSVERSE)
    assert at("A2", ONE_POINT) < at("A2", TWO_POINTS)


def test_node_cusp_dichotomy():
    # transverse crossings carry nodes (threshold 1); the degenerate
    # variants are worse than a node at the same point
    assert classify_germ("x*y") == NODE
    for label, variant in ((
        ("A1", TANGENTIAL), ("A2", ONE_POINT),
    )):
        assert lct_config(build_configuration(label, variant)) < 1


def test_all_config_thresholds_in_range():
    values = set()
    for t in ALL_TYPES:
        for variant in (
            (TRANSVERSE, TANGENTIAL) if t.label == "A1"
            else (TWO_POINTS, ONE_POINT) if t.label == "A2"
            else (STANDARD,)
        ):
            v = lct_config(build_configuration(t, variant))
            assert 0 < v <= 1
            values.add(v)
    assert values == {
        Fraction(1), Fraction(3, 4), Fraction(2, 3),
        Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 6),
    }


# -- the closed forms against the engine on each meeting's local model -------

def _local_model(m, weights):
    """The meeting as weighted branches: the cusp y^2 = x^3, y = 0 against
    y = x^c, or pairwise transverse lines."""
    if m.cuspidal:
        return [({(0, 2): 1, (3, 0): -1}, weights[0])]
    if m.contact > 1:
        return [({(0, 1): 1}, weights[0]), ({(0, 1): 1, (m.contact, 0): -1}, weights[1])]
    lines = [{(0, 1): 1}, {(1, 0): 1}] + [{(1, 0): 1, (0, 1): s} for s in range(1, len(weights) - 1)]
    return list(zip(lines, weights))


def _engine_lct_config(c):
    """lct_config with every meeting's local model resolved by the blowup engine."""
    best = Fraction(1, c.max_multiplicity)
    for m in c.incidence:
        weights = [c.multiplicity_of(cid) for cid in m.members]
        best = min(best, lct_of_branches(_local_model(m, weights)))
    return best


def _one_meeting(weights, contact=1, cuspidal=False, members=None):
    """D plus one exceptional component per weight, meeting at one point."""
    ids = [f"E{i}" for i in range(len(weights))]
    components = (Component("D", 1, STRICT_TRANSFORM),) + tuple(
        Component(cid, w, EXCEPTIONAL) for cid, w in zip(ids, weights))
    return AnticanonicalConfiguration(components, (Meeting(members or tuple(ids), contact, cuspidal),))


def test_lct_config_over_the_sweep_matches_uncached_values_and_the_table():
    table = {build_configuration(*point): value for point, value in CONFIG_LCT.items()}
    table[build_configuration(None, ELLIPTIC)] = Fraction(1)
    table[build_configuration(None, NODAL)] = Fraction(1)
    table[build_configuration(None, CUSPIDAL)] = Fraction(5, 6)
    calls = 0
    for spec in iter_valid_specs():
        for c in realizable_configurations(spec):
            assert lct_config(c) == _engine_lct_config(c) == table[c]
            calls += 1
    assert calls == 1466


@pytest.mark.parametrize("w", range(1, 7))
def test_a_cusp_of_weight_w_gives_five_over_6w(w):
    c = _one_meeting([w], cuspidal=True)
    assert lct_config(c) == _engine_lct_config(c) == Fraction(5, 6 * w)


@pytest.mark.parametrize("contact", range(2, 13))
def test_a_tangency_of_contact_c_matches_the_engine(contact):
    for ws in itertools.product(range(1, 6), repeat=2):
        c = _one_meeting(ws, contact)
        closed = Fraction(contact + 1, contact * sum(ws))
        assert lct_config(c) == _engine_lct_config(c) == min(Fraction(1, max(ws)), closed), ws


@pytest.mark.parametrize("n", range(2, 7))
def test_transverse_branches_match_the_engine(n):
    # n = 2 is the SNC pair, whose 2/(w1 + w2) never undercuts 1/max m
    for ws in itertools.combinations_with_replacement(range(1, 5), n):
        c = _one_meeting(ws)
        closed = Fraction(2, sum(ws)) if n > 2 else Fraction(1)
        assert lct_config(c) == _engine_lct_config(c) == min(Fraction(1, max(ws)), closed), ws


@pytest.mark.parametrize("contact", [1, 2, 5])
def test_a_self_meeting_weighs_its_component_twice(contact):
    c = _one_meeting([3], contact, members=("E0", "E0"))
    assert lct_config(c) == _engine_lct_config(c)


def test_contact_past_the_depth_cap_has_its_closed_form():
    # the local model needs 65 blowups, past the engine's cap of 64
    c = _one_meeting([1, 2], 65)
    with pytest.raises(DepthExceededError):
        _engine_lct_config(c)
    assert lct_config(c) == Fraction(66, 65 * 3)


# -- the first Puiseux pair as an independent oracle (Igusa 1977) -----------


@pytest.mark.parametrize("n, m, m2", [
    (2, 3, None), (3, 5, None), (4, 6, 7), (4, 6, 9), (4, 10, 11), (6, 8, 9), (6, 9, 10),
    (6, 10, 11),
])
def test_first_puiseux_pair_oracle(n, m, m2):
    # x = t^n, y = t^m + t^m2 with gcd(n, m, m2) = 1 and n not dividing m is
    # an irreducible germ whose lct is 1/n + 1/m; Res_t eliminates t
    t = sympy.Symbol("t")
    assert math.gcd(n, m, m2 or m) == 1 and m % n
    f = sympy.resultant(t**n - x, t**m + (t**m2 if m2 else 0) - y, t)
    assert lct_germ(sympy.expand(f)) == Fraction(1, n) + Fraction(1, m)


# -- the Newton-polygon oracle (Howald 2001; Varchenko 1982) -----------------


def _germ_text(d):
    return " + ".join(f"({c})*x^{a}*y^{b}" for (a, b), c in sorted(d.items()))


def _nondegenerate(d):
    """Is every compact edge polynomial, without its monomial factor, squarefree?  By sympy."""
    for edge in newton_edges(d):
        a0, b0 = min(a for a, _ in edge), min(b for _, b in edge)
        face = sum(sympy.Rational(c.numerator, c.denominator) * x ** (a - a0) * y ** (b - b0)
                   for (a, b), c in edge.items())
        if not sympy.Poly(face, x, y).is_sqf:
            return False
    return True


def _check_newton(d):
    assert (0, 0) not in d and any(a == 0 for a, _ in d) and any(b == 0 for _, b in d)
    assume(_nondegenerate(d))
    text = _germ_text(d)
    assume(CurveGerm(text).is_squarefree)
    assert lct_germ(text) == newton_lct(d), text


_coefficient = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 5))
_interior = st.dictionaries(st.tuples(st.integers(1, 6), st.integers(1, 6)), _coefficient,
                            max_size=3)


@pytest.mark.parametrize("d, value", [
    ({(0, 3): 1, (2, 1): 1, (5, 0): 1}, Fraction(2, 3)),  # y^3 + x^2 y + x^5
    ({(0, 2): 1, (2, 1): 1, (4, 0): 1}, Fraction(3, 4)),  # y^2 + x^2 y + x^4
    ({(0, 4): 1, (3, 1): 1, (7, 0): 1}, Fraction(1, 2)),  # y^4 + x^3 y + x^7
    ({(5, 0): 1, (2, 2): 1, (0, 5): 1}, Fraction(1, 2)),  # x^5 + x^2 y^2 + y^5
])
def test_newton_oracle_examples(d, value):
    assert _nondegenerate(d)
    assert newton_lct(d) == lct_germ(_germ_text(d)) == value


def test_newton_oracle_needs_nondegeneracy():
    # (y - x)^2 + x^3: the edge polynomial (y - x)^2 is not squarefree, and the
    # polygon's 1 is not the cusp's 5/6
    d = {(0, 2): 1, (1, 1): -2, (2, 0): 1, (3, 0): 1}
    assert not _nondegenerate(d)
    assert newton_lct(d) == 1 and lct_germ(_germ_text(d)) == Fraction(5, 6)


@settings(deadline=None, max_examples=120)
@given(st.integers(1, 9), st.integers(1, 9), _coefficient, _coefficient, _interior)
def test_newton_oracle_agrees_with_the_engine(a, b, ca, cb, interior):
    # x^a and y^b make the germ convenient; up to three monomials inside
    _check_newton({**interior, (a, 0): ca, (0, b): cb})


# -- a curve is its polynomial up to a constant: c*f resolves as f does ------


def _corpus_germs(group):
    texts = []
    for line in LINES:
        if line["group"] == group:
            arg = line["args"][0]
            texts += [arg] if isinstance(arg, str) else [g for g, _ in arg]
    return sorted(set(texts))


def _outcome(f, text):
    try:
        value = f(text)
    except DelPezzoError as exc:
        return type(exc).__name__
    return [engine_form(root) for root in value] if f is germ_blowup_tree else value


_scalars = st.builds(Fraction, st.integers(-10**6, 10**6).filter(bool), st.integers(1, 10**6))


@pytest.mark.parametrize("group", ["algebraic", "demo", "heavy", "rational"])
@settings(deadline=None, max_examples=20)
@given(data=st.data(), c=_scalars)
def test_a_germ_times_a_constant_resolves_as_the_germ(group, data, c):
    text = data.draw(st.sampled_from(_corpus_germs(group)))
    scaled = f"({c})*({text})"
    for f in (lct_germ, classify_germ, germ_blowup_tree):
        assert _outcome(f, scaled) == _outcome(f, text), (f.__name__, text, c)
