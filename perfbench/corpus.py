"""Seeded inputs and expected values for the delpezzo1 benchmark.

Every generator takes the seed as an argument and yields ops; the library
only ever sees what an op carries (germ texts, Dynkin labels, surface specs,
CLI argument lists).  Each op also carries its expected value and where that
value comes from (`Op.source`):

- ``closed form``: a formula that does not run the engine, e.g.
  lct(y^a - c x^b) = min(1, 1/a + 1/b) or lct of n distinct lines = min(1, 2/n);
- ``table``: the hand-derived tables of ``tests/test_lct.py`` and the paper's
  correspondences (Kodaira types, fundamental cycles, threshold classes);
- ``derived``: a discrepancy chain worked by hand, documented at the family;
- ``pinned``: the engine's own output at the seed commit, where nothing
  independent is known.

This module uses only the standard library, so generating inputs never
touches sympy's caches.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

Poly = dict  # {(deg_x, deg_y): Fraction}, zero coefficients never stored


@dataclass(frozen=True)
class Op:
    kind: str  # library function, "spec"/"prefix" for the sweep, or a CLI subcommand
    args: tuple
    expect: object  # expected value; for a rejection, the DelPezzoError subclass name
    source: str

    @property
    def rejection(self) -> bool:
        return isinstance(self.expect, str) and self.expect.endswith("Error")


# -- exact bivariate polynomials over Q, only to write germ texts ------------

X: Poly = {(1, 0): Fraction(1)}
Y: Poly = {(0, 1): Fraction(1)}


def padd(*ps: Poly) -> Poly:
    out: Poly = {}
    for p in ps:
        for k, c in p.items():
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def pscale(p: Poly, c) -> Poly:
    return {k: v * c for k, v in p.items() if v * c}


def pmul(*ps: Poly) -> Poly:
    acc: Poly = {(0, 0): Fraction(1)}
    for p in ps:
        out: Poly = {}
        for (a1, b1), c1 in acc.items():
            for (a2, b2), c2 in p.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0) + c1 * c2
        acc = {k: c for k, c in out.items() if c}
    return acc


def ppow(p: Poly, n: int) -> Poly:
    return pmul(*([p] * n))


def mono(c, a: int, b: int) -> Poly:
    return {(a, b): Fraction(c)} if c else {}


def text(p: Poly) -> str:
    """Germ text such as "y^2 - 3/7*x^5", sign-normalised so it never starts with '-'."""
    keys = sorted(p, key=lambda k: (k[0] + k[1], -k[1], k[0]))
    if p[keys[0]] < 0:
        p = pscale(p, -1)
    parts = []
    for a, b in keys:
        c = p[(a, b)]
        factors = [f"x^{a}" if a > 1 else "x"] * (a > 0) + [f"y^{b}" if b > 1 else "y"] * (b > 0)
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else out


# -- closed forms and tables -----------------------------------------------


def binomial_lct(a: int, b: int) -> Fraction:
    """lct(y^a - c x^b) = min(1, 1/a + 1/b): quasi-homogeneous with weights (b, a)."""
    return min(Fraction(1), Fraction(1, a) + Fraction(1, b))


def binomial_class(a: int, b: int) -> str:
    """smooth / node / cusp / other for y^a - c x^b, from the exponents alone."""
    lo, hi = sorted((a, b))
    if lo == 1:
        return "smooth"
    if lo > 2:
        return "other"
    return {2: "node", 3: "cusp"}.get(hi, "other")


TYPES = tuple(
    f"{kind}{rank}" for kind, lo in (("A", 1), ("D", 4), ("E", 6)) for rank in range(lo, 9)
)


def rank(label: str) -> int:
    return int(label[1:])


def type_key(label: str) -> tuple[str, int]:
    return label[0], rank(label)


def cycle_multiset(label: str) -> list[int]:
    """Sorted coefficients of the fundamental cycle (the highest root)."""
    n = rank(label)
    if label[0] == "A":
        return [1] * n
    if label[0] == "D":
        return [1, 1, 1] + [2] * (n - 3)
    return {6: [1, 1, 2, 2, 2, 3], 7: [1, 2, 2, 2, 3, 3, 4], 8: [2, 2, 3, 3, 4, 4, 5, 6]}[n]


def cartan_det(label: str) -> int:
    """Determinant of the Cartan matrix; the intersection matrix is its negative."""
    if label[0] == "A":
        return rank(label) + 1
    return 4 if label[0] == "D" else {6: 3, 7: 2, 8: 1}[rank(label)]


def attachment_sum(label: str) -> int:
    """sum_j d_j: D~ meets both ends of an A_n chain, one node otherwise."""
    return 2 if label[0] == "A" else 1


# threshold and Kodaira type of each configuration variant (tests/test_lct.py
# CONFIG_LCT and the smooth-locus table; Kodaira types by Table 1 of the paper)
SMOOTH_LCT = {"elliptic": Fraction(1), "nodal": Fraction(1), "cuspidal": Fraction(5, 6)}
SMOOTH_KODAIRA = {"elliptic": "I0", "nodal": "I1", "cuspidal": "II"}
POINT_VARIANTS = {"A1": ("transverse", "tangential"), "A2": ("two-points", "one-point")}


def config_lct(label: str, variant: str) -> Fraction:
    if label == "smooth":
        return SMOOTH_LCT[variant]
    if variant in ("tangential", "one-point"):
        return Fraction(3, 4) if label == "A1" else Fraction(2, 3)
    if label[0] in "AD":
        return Fraction(1) if label[0] == "A" else Fraction(1, 2)
    return {6: Fraction(1, 3), 7: Fraction(1, 4), 8: Fraction(1, 6)}[rank(label)]


def config_kodaira(label: str, variant: str) -> str:
    if label == "smooth":
        return SMOOTH_KODAIRA[variant]
    if variant == "tangential":
        return "III"
    if variant == "one-point":
        return "IV"
    if label[0] == "A":
        return f"I{rank(label) + 1}"
    if label[0] == "D":
        return f"I*{rank(label) - 4}"
    return {6: "IV*", 7: "III*", 8: "II*"}[rank(label)]


def default_variant(label: str) -> str:
    return POINT_VARIANTS.get(label, ("standard",))[0]


def validation_clauses(labels: tuple[str, ...]) -> set[str]:
    """Clauses (a)-(d) of the paper's admissibility conditions that fail."""
    found = set()
    if sum(rank(t) for t in labels) > 8:
        found.add("a")
    for t in set(labels):
        others = list(labels)
        others.remove(t)
        if rank(t) == 8 and others:
            found.add("b")
        if rank(t) == 7 and (len(others) > 1 or any(o != "A1" for o in others)):
            found.add("c")
        if t == "E6" and (len(others) > 1 or any(o not in ("A1", "A2") for o in others)):
            found.add("d")
    return found


def cusp_choices(labels: tuple[str, ...]) -> list[str]:
    return ["none", "smooth"] + [c for c in ("A1", "A2") if c in labels]


def valid_specs() -> list[tuple[tuple[str, ...], str]]:
    """Every admissible (singularities, cusp) pair, by the paper's rules."""
    out = []

    def grow(prefix: tuple[str, ...], start: int, budget: int) -> None:
        if not validation_clauses(prefix):
            out.extend((prefix, c) for c in cusp_choices(prefix))
        for i in range(start, len(TYPES)):
            if rank(TYPES[i]) <= budget:
                grow(prefix + (TYPES[i],), i, budget - rank(TYPES[i]))

    grow((), 0, 8)
    return out


def spec_configs(labels: tuple[str, ...], cusp: str) -> list[tuple[str, str]]:
    """The configurations a spec realises, in the order the paper lists them."""
    out = [("smooth", "elliptic"), ("smooth", "nodal")]
    if cusp != "none":
        out.append(("smooth", "cuspidal"))
    for t in sorted(set(labels), key=type_key):
        variants = POINT_VARIANTS.get(t, ("standard",))
        out.append((t, variants[0]))
        if len(variants) > 1 and cusp == t:
            out.append((t, variants[1]))
    return out


def expected_tlct(labels: tuple[str, ...], cusp: str) -> tuple[Fraction, set[str]]:
    """Minimum configuration threshold and the Kodaira types reaching it."""
    values = [(config_lct(*c), config_kodaira(*c)) for c in spec_configs(labels, cusp)]
    best = min(v for v, _ in values)
    return best, {k for v, k in values if v == best}


# the eight threshold classes of special fibers (Table 2 of the paper)
CLASS_VALUES = tuple(
    Fraction(*v) for v in ((1, 6), (1, 4), (1, 3), (1, 2), (2, 3), (3, 4), (5, 6), (1, 1))
)
ASSUMPTIONS = ("special_fiber_plt", "one_complement", "surjectivity")


def admissible(threshold: Fraction) -> tuple[Fraction, ...]:
    return tuple(v for v in CLASS_VALUES if v <= 1 - threshold)


# -- known defects ---------------------------------------------------------

# Inputs that must be rejected with InvalidGermError but are not at the seed
# commit (ROADMAP item 2).  Every traced run probes them under germ-rational's
# per-op deadline, outside the timed stream, and reports how many still fail
# as `errors.known_defects`.
KNOWN_DEFECTS = (
    (
        "__import__('os').getpid()*0 + x",
        "germ text goes through sympy's parse_expr, which evaluates it: the "
        "__import__ call runs and lct_germ returns 1 instead of rejecting it",
    ),
    (
        "(x+y)**2000",
        "powers are expanded with no limit on degree or size: lct_germ runs "
        "past the deadline instead of raising InvalidGermError",
    ),
)


# -- germ-rational ---------------------------------------------------------

# rows of tests/test_lct.py GERM_VALUES whose infinitely-near points are rational
TABLE_RATIONAL = (
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
    ("x^4 - y^4", Fraction(1, 2)),
)

# fixed inputs for the untimed warm-up; their coefficients lie outside the
# ranges the generators draw from, so the timed stream never repeats them
WARMUP_RATIONAL = (
    Op("lct_germ", ("y^3 - 97/89*x^8",), Fraction(11, 24), "closed form"),
    Op("lct_quasihomogeneous", ("y^2 - 97/89*x^5",), Fraction(7, 10), "closed form"),
    Op("classify_germ", ("y^2 - 97/89*x^3",), "cusp", "closed form"),
    Op("lct_weighted_germs", ((("y", 2), ("y - 97/89*x^2", 1)),), Fraction(1, 2), "closed form"),
    Op("lct_germ", ("y^2 - 97/89*x^3 + 1",), "NotAtOriginError", "closed form"),
)


def _rational(rng: random.Random, positive: bool = False) -> Fraction:
    p = rng.randint(1, 9) * (1 if positive else rng.choice((1, -1)))
    return Fraction(p, rng.randint(1, 6))


def _binomial(rng: random.Random) -> tuple[Poly, int, int]:
    a, b = rng.randint(1, 10), rng.randint(1, 10)
    while a == 1 and b == 1:
        b = rng.randint(2, 10)
    p = padd(mono(1, 0, a), mono(-_rational(rng), b, 0))
    if rng.random() < 0.5:  # the same germ with x and y exchanged
        p = {(j, i): c for (i, j), c in p.items()}
    return p, a, b


def _distinct_slopes(rng: random.Random, n: int) -> list[Fraction]:
    slopes: set[Fraction] = set()
    while len(slopes) < n:
        slopes.add(_rational(rng) if rng.random() < 0.85 else Fraction(0))
    return sorted(slopes)


def _line(s: Fraction) -> Poly:
    return padd(Y, mono(-s, 1, 0))


def _rational_op(rng: random.Random) -> Op:
    r = rng.random()
    if r < 0.04:
        return _rejection_op(rng)
    if r < 0.44:
        p, a, b = _binomial(rng)
        kind = rng.choice(("lct_germ", "lct_germ", "lct_quasihomogeneous", "classify_germ"))
        expect = binomial_class(a, b) if kind == "classify_germ" else binomial_lct(a, b)
        return Op(kind, (text(p),), expect, "closed form")
    if r < 0.64:
        # n distinct lines: an ordinary n-fold point, lct = min(1, 2/n)
        n = rng.randint(2, 6)
        lines = [_line(s) for s in _distinct_slopes(rng, n - 1)]
        lines.append(X if rng.random() < 0.5 else _line(Fraction(rng.randint(10, 19))))
        kind = rng.choice(("lct_germ", "lct_quasihomogeneous", "classify_germ"))
        if kind == "classify_germ":
            expect = "node" if n == 2 else "other"
        else:
            expect = min(Fraction(1), Fraction(2, n))
        return Op(kind, (text(pmul(*lines)),), expect, "closed form")
    if r < 0.79:
        # n smooth branches y = s x + t_i x^2 with one tangent: after y -> y - s x
        # quasi-homogeneous of weights (1, 2) and degree 2n, so lct = min(1, 3/(2n))
        n = rng.randint(2, 5)
        s = Fraction(0) if rng.random() < 0.4 else _rational(rng)
        branches = [padd(_line(s), mono(-t, 2, 0)) for t in _distinct_slopes(rng, n)]
        kind = rng.choice(("lct_germ", "classify_germ") + ("lct_quasihomogeneous",) * (s == 0))
        expect = "other" if kind == "classify_germ" else min(Fraction(1), Fraction(3, 2 * n))
        return Op(kind, (text(pmul(*branches)),), expect, "closed form")
    if r < 0.97:
        return _weighted_op(rng)
    return Op("table", (), None, "table")  # placeholder, replaced by a table row


def _weighted_op(rng: random.Random) -> Op:
    r = rng.random()
    if r < 0.4:
        # weighted distinct lines: one blowup, lct = min(1/w_i, 2/sum w)
        n = rng.randint(2, 4)
        weights = [rng.randint(1, 4) for _ in range(n)]
        branches = [text(_line(s)) for s in _distinct_slopes(rng, n)]
        expect = min([Fraction(1, w) for w in weights] + [Fraction(2, sum(weights))])
    elif r < 0.75:
        # simple tangency y = s x against y = s x + t x^2: two blowups, the
        # second with (k, m) = (2, 2(w1 + w2))
        s, t = _rational(rng), _rational(rng)
        weights = [rng.randint(1, 4), rng.randint(1, 4)]
        branches = [text(_line(s)), text(padd(_line(s), mono(-t, 2, 0)))]
        expect = min(Fraction(1, weights[0]), Fraction(1, weights[1]),
                     Fraction(3, 2 * sum(weights)))
    else:
        p, a, b = _binomial(rng)
        weights = [rng.randint(2, 4)]
        branches = [text(p)]
        expect = binomial_lct(a, b) / weights[0]
    return Op("lct_weighted_germs", (tuple(zip(branches, weights)),), expect, "closed form")


def _rejection_op(rng: random.Random) -> Op:
    kind = rng.choice(("lct_germ", "classify_germ", "lct_quasihomogeneous"))
    p, _, _ = _binomial(rng)
    r = rng.random()
    if r < 0.3:
        sq = pmul(ppow(_line(_rational(rng)), 2), _line(Fraction(rng.randint(10, 19))))
        return Op(kind, (text(sq),), "NonSquarefreeError", "closed form")
    if r < 0.6:
        return Op(kind, (text(padd(p, mono(_rational(rng), 0, 0))),), "NotAtOriginError",
                  "closed form")
    if r < 0.85:
        name = rng.choice(("z", "t", "u", "w"))
        return Op(kind, (f"{text(p)} + {_rational(rng, True)}*{name}",), "InvalidGermError",
                  "closed form")
    # y^2 = c x^b with b >= 141 needs more than the engine's 64 nested blowups
    deep = padd(mono(1, 0, 2), mono(-_rational(rng), rng.randrange(141, 160, 2), 0))
    return Op("lct_germ", (text(deep),), "DepthExceededError", "closed form")


def rational_ops(seed: int) -> Iterator[Op]:
    """Distinct germs over Q whose infinitely-near points are all rational."""
    rng = random.Random(seed)
    table = list(TABLE_RATIONAL)
    rng.shuffle(table)
    seen = {repr(op.args) for op in WARMUP_RATIONAL}
    while True:
        op = _rational_op(rng)
        if op.kind == "table":
            if not table:
                continue
            germ, value = table.pop()
            op = Op("lct_germ", (germ,), value, "table")
        key = repr(op.args)
        if key not in seen:
            seen.add(key)
            yield op


# -- germ-algebraic --------------------------------------------------------

# (a, b) for the cusp products: independent square roots, each pair ~0.5 s per op
CUSP_FIELDS = ((2, 3), (2, 5), (3, 5), (2, 6))


def _is_rational_square(q: Fraction) -> bool:
    return q > 0 and all(math.isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))


def tacnode(a: Fraction, c: Fraction, k: int) -> Poly:
    """(y^2 - a x^2)^2 - c x^k: two conjugate tacnodal branch pairs at slopes +-sqrt(a).

    lct = 1/2 for every k >= 5: the first blowup has (k, m) = (1, 4), and at
    each point of the conjugate pair the curve stays a double point while the
    chain grows by (k, m) -> (k + 1, m + 2), so every ratio is (j + 1)/(2j + 2);
    the last blowups separate the branches at ratios >= 1/2.  tests/test_lct.py
    has the case a = 2, c = 1, k = 6.
    """
    return padd(ppow(padd(mono(1, 0, 2), mono(-a, 2, 0)), 2), mono(-c, k, 0))


def cusp_product(a: int, b: int, c: Fraction) -> Poly:
    """prod over signs of ((y -+ sqrt(a) x -+ sqrt(b) x^2)^2 - c x^5), expanded over Q.

    With Y = y - alpha x, the two factors sharing alpha multiply to F(Y^2) for
    F(t) = t^2 + g t + h, g = -2b x^4 - 2c x^5, h = (b x^4 - c x^5)^2.  The
    conjugates Y^2 = S -+ sqrt(a) T, S = y^2 + a x^2, T = 2xy, then give
    F(t+)F(t-) = pi^2 + g pi sigma + h (sigma^2 - 2 pi) + g^2 pi + g h sigma + h^2
    with sigma = 2S and pi = S^2 - a T^2.

    lct = 1/4: the first blowup has (k, m) = (1, 8); at each of the two
    tangent directions the pair of cusps gives (2, 12); after they separate
    (over Q(sqrt a, sqrt b)) the ratios are 4/13 and 7/26.
    """
    g = padd(mono(-2 * b, 4, 0), mono(-2 * c, 5, 0))
    h = ppow(padd(mono(b, 4, 0), mono(-c, 5, 0)), 2)
    S = padd(mono(1, 0, 2), mono(a, 2, 0))
    T = mono(2, 1, 1)
    sigma = pscale(S, 2)
    pi = padd(pmul(S, S), pscale(pmul(T, T), -a))
    return padd(
        pmul(pi, pi),
        pmul(g, pi, sigma),
        pmul(h, padd(pmul(sigma, sigma), pscale(pi, -2))),
        pmul(g, g, pi),
        pmul(g, h, sigma),
        pmul(h, h),
    )


def _nonsquare(rng: random.Random) -> Fraction:
    while True:
        a = Fraction(rng.choice((1, -1)) * rng.randint(1, 12), rng.randint(1, 4))
        if not _is_rational_square(a):
            return a


WARMUP_ALGEBRAIC = (
    Op("lct_germ", (text(tacnode(Fraction(11), Fraction(97, 89), 7)),), Fraction(1, 2),
       "derived"),
    Op("lct_germ", (text(cusp_product(2, 3, Fraction(97, 89))),), Fraction(1, 4), "derived"),
)

# block of eight: six conjugate tacnodes, then a cusp product at slots 3 and 7,
# so the median falls among the tacnodes and the 90th percentile among the products
ALGEBRAIC_BLOCK = 8
_CUSP_SLOTS = (3, 7)


def algebraic_ops(seed: int) -> Iterator[Op]:
    """Germs whose clusters are irrational, in blocks of ALGEBRAIC_BLOCK."""
    rng = random.Random(seed)
    seen = {repr(op.args) for op in WARMUP_ALGEBRAIC}
    i = 0
    table = [(Fraction(2), 6), (Fraction(-2), 6)]  # tests/test_lct.py, tests/test_blowup.py
    while True:
        if i % ALGEBRAIC_BLOCK in _CUSP_SLOTS:
            a, b = rng.choice(CUSP_FIELDS)
            op = Op("lct_germ", (text(cusp_product(a, b, _rational(rng, True))),),
                    Fraction(1, 4), "derived; equals the seed engine")
        elif table:
            a, k = table.pop()
            op = Op("lct_germ", (text(tacnode(a, Fraction(1), k)),), Fraction(1, 2), "table")
        else:
            germ = text(tacnode(_nonsquare(rng), _rational(rng), rng.randint(5, 9)))
            if rng.random() < 0.2:
                w = rng.randint(2, 3)
                op = Op("lct_weighted_germs", (((germ, w),),), Fraction(1, 2 * w), "derived")
            else:
                op = Op("lct_germ", (germ,), Fraction(1, 2), "derived")
        key = repr(op.args)
        if key not in seen:
            seen.add(key)
            i += 1
            yield op


# -- surface-sweep ---------------------------------------------------------

VALID_SPEC_COUNT = 299  # pinned: iter_valid_specs at the seed commit, and valid_specs() here


def prefix_op() -> Op:
    """Once per pass: the spec list, and per type the sorted cycle, sum d,
    d >= 0, Z.d = -Z^2 = 2, negative definiteness and det M = (-1)^n det(Cartan)."""
    types = [(cycle_multiset(t), attachment_sum(t), True, 2, True, (-1) ** rank(t) * cartan_det(t))
             for t in TYPES]
    return Op("prefix", (), (sorted(valid_specs()), types), "table")


def spec_op(spec: tuple[tuple[str, ...], str], partner, missing: str | None) -> Op:
    labels, cusp = spec
    value, kodairas = expected_tlct(labels, cusp)
    partner_value, _ = expected_tlct(*partner)
    total = value + partner_value
    rigid = total > 1 and missing is None
    detail = () if rigid else (CLASS_VALUES if missing else admissible(value))
    configs = [(config_kodaira(*c), config_lct(*c)) for c in spec_configs(labels, cusp)]
    expect = {
        "validate": True,
        "tlct": value,
        "tlct_kodaira_minimises": True,
        "e8_iff_one_sixth": True,
        "configs": configs,
        "min_lct_config": value,
        "rigidity": ("rigid" if rigid else "inconclusive", total, detail),
        "targets": admissible(value),
    }
    return Op("spec", (labels, cusp, partner, missing), expect, "table")


def sweep_ops(seed: int) -> Iterator[Op]:
    """Endless passes: the prefix op, then every valid spec in a seeded order."""
    rng = random.Random(seed)
    specs = valid_specs()
    while True:
        yield prefix_op()
        order = specs[:]
        rng.shuffle(order)
        for spec in order:
            missing = rng.choice(ASSUMPTIONS) if rng.random() < 0.125 else None
            yield spec_op(spec, rng.choice(specs), missing)


WARMUP_SWEEP = (
    prefix_op(),
    spec_op((("E8",), "none"), ((), "smooth"), None),
    spec_op((("A1", "A2"), "A2"), (("A1",), "A1"), "surjectivity"),
)


# -- cli-mix ---------------------------------------------------------------

COMBINATORIAL = ("matrix", "cycle", "config", "kodaira", "lct-config", "tlct",
                 "validate", "rigidity", "targets")
CLI_BLOCK = 4  # three combinatorial calls and one germ call per block


def _config_args(rng: random.Random) -> tuple[list[str], tuple[str, str]]:
    if rng.random() < 0.2:
        variant = rng.choice(tuple(SMOOTH_LCT))
        return ["--smooth", variant], ("smooth", variant)
    label = rng.choice(TYPES)
    variant = rng.choice(POINT_VARIANTS.get(label, ("standard",)))
    if variant == default_variant(label) and rng.random() < 0.5:
        return [label], (label, variant)
    return [label, "--variant", variant], (label, variant)


def _spec_json(spec, missing: str | None = None) -> str:
    labels, cusp = spec
    body = '{"singularities": [%s], "cusp": "%s"}' % (
        ", ".join(f'"{t}"' for t in labels), cusp)
    if missing is None:
        return body
    return '{"fiber": %s, "assumptions": {"%s": false}}' % (body, missing)


def _cli_combinatorial(rng: random.Random, specs) -> Op:
    cmd = rng.choice(COMBINATORIAL)
    if cmd in ("matrix", "cycle"):
        label = rng.choice(TYPES)
        if cmd == "cycle" and rng.random() < 0.4:
            return Op(cmd, (label, "--attachment"), ("attachment", label), "table")
        return Op(cmd, (label,), (cmd, label), "table")
    if cmd in ("config", "kodaira", "lct-config"):
        argv, key = _config_args(rng)
        if cmd == "config":
            return Op(cmd, tuple(argv), ("config", key), "table")
        value = config_kodaira(*key) if cmd == "kodaira" else config_lct(*key)
        return Op(cmd, tuple(argv), ("exact", str(value)), "table")
    if cmd == "validate":
        labels = tuple(sorted(rng.choices(TYPES, k=rng.randint(0, 4)), key=type_key))
        return Op(cmd, ("--sings", ",".join(labels)), ("validate", validation_clauses(labels)),
                  "table")
    spec = rng.choice(specs)
    value, kodairas = expected_tlct(*spec)
    if cmd == "tlct":
        return Op(cmd, ("--sings", ",".join(spec[0]), "--cusp", spec[1]),
                  ("tlct", value, kodairas), "table")
    if cmd == "targets":
        return Op(cmd, ("--x", _spec_json(spec)), ("targets", admissible(value)), "table")
    partner = rng.choice(specs)
    missing = rng.choice(ASSUMPTIONS) if rng.random() < 0.2 else None
    total = value + expected_tlct(*partner)[0]
    outcome = "rigid" if total > 1 and missing is None else "inconclusive"
    return Op(cmd, ("--x", _spec_json(spec), "--y", _spec_json(partner, missing)),
              ("rigidity", outcome, total), "table")


def _cli_germ(rng: random.Random) -> Op:
    while True:
        op = _rational_op(rng)
        if op.kind in ("lct_germ", "classify_germ") and not op.rejection:
            break
    cmd = "lct-germ" if op.kind == "lct_germ" else "classify"
    return Op(cmd, op.args, ("exact", str(op.expect)), op.source)


def cli_ops(seed: int) -> Iterator[Op]:
    """Blocks of CLI_BLOCK calls with the germ call at a seeded slot."""
    rng = random.Random(seed)
    specs = valid_specs()
    while True:
        germ_slot = rng.randrange(CLI_BLOCK)
        for slot in range(CLI_BLOCK):
            yield _cli_germ(rng) if slot == germ_slot else _cli_combinatorial(rng, specs)
