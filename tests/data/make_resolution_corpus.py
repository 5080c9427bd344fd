"""Write tests/data/resolution_corpus.jsonl, the pinned resolution corpus.

    PYTHONPATH=src python tests/data/make_resolution_corpus.py

The corpus pins what the blowup engine answers on a fixed list of germ
queries, so that a rewrite of the engine is checked against a file and not
against a hand-run copy of the parent commit.  tests/test_resolution_corpus.py
replays it.  The first line is a header that records the commit the file was
generated at and the selection rule; every other line is one op:

- ``kind`` and ``args``: the library function and its arguments, as the
  benchmark's op generators (perfbench/corpus.py) yield them;
- ``value`` (the answer as text) or ``error`` (the DelPezzoError subclass);
- ``tree``: the resolution tree of the op's germ, or of its weighted branches,
  in the engine's order, each node ``[k, m, children]``; or ``tree_error``;
- ``canonical``: the same tree with the siblings sorted by (k, m, subtree).

Selection: the first 500 ops of rational_ops(5); every conjugate tacnode
among the first ALGEBRAIC_SCANNED ops of algebraic_ops(5), that is every op
outside the cusp-product slots of its blocks (the ops of total degree <= 9);
the fixed HEAVY list and the benchmark's warm-up ops; and every germ literal
of demos/.  No rule depends on timing, so the file is the same on every
machine.

The script refuses to run with uncommitted changes under src/, so the commit
in the header is the code that produced every line.  A change that alters an
entry regenerates the file and lists each changed entry, with the reason, in
CHANGES.md; no entry is dropped to make the test pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from itertools import islice
from pathlib import Path

import delpezzo1
from delpezzo1 import DelPezzoError, germ_blowup_tree
from delpezzo1.blowup import blowup_tree
from delpezzo1.germs import CurveGerm, ensure_squarefree

ROOT = Path(__file__).resolve().parents[2]

OUT = Path(__file__).resolve().parent / "resolution_corpus.jsonl"
SEED = 5
RATIONAL_OPS = 500
ALGEBRAIC_SCANNED = 96

# heavier queries, chosen by hand: deep chains on both sides of the depth
# cap, irrational clusters over Q(sqrt 2) and Q(sqrt -2), and a weighted pair
# with a common factor that runs into the cap; the benchmark's warm-up ops
# (perfbench/corpus.py) add a cusp product, which builds a field tower
HEAVY = (
    ("lct_germ", ("y^2 - x^125",)),
    ("lct_germ", ("y^2 - x^127",)),
    ("lct_germ", ("y^5 - x^256",)),
    ("lct_germ", ("y^3 - x^190",)),
    ("lct_germ", ("(y^2 - 2*x^2)^2 - x^7",)),
    ("lct_germ", ("(y^2 + 2*x^2)^2 - x^6",)),
    ("lct_germ", ("((y^2 - 2*x^2)^2 - x^7)*((y^2 - 2*x^2)^2 - 3*x^7)",)),
    ("lct_germ", ("(x^2 - 2*y^2)^2 - y^7",)),
    ("lct_germ", ("(y^3 - 2*x^3)*(y^2 - 3*x^2)",)),
    ("lct_weighted_germs", ((("y - x^2", 1), ("y - x^2", 2)),)),
    ("lct_weighted_germs", ((("y^2 - 2*x^4", 2), ("x", 3)),)),
    # conjugate branches through y = +-sqrt(2) x + c x^2 for c = 1 and 2: the
    # second line, over Q(sqrt 2), holds two clusters whose subtrees differ,
    # so the tree in engine order pins the order of elements of a number field
    ("lct_germ", ("((y-x^2)^2-2*x^2)*((y-x^2-x^3)^2-2*x^2)"
                  "*(((y-2*x^2)^2+2*x^2-x^5)^2-8*x^2*(y-2*x^2)^2)",)),
)


def demo_germs() -> list[tuple[str, tuple]]:
    sys.path.insert(0, str(ROOT / "demos"))
    import germ_gallery

    return [("lct_germ", (text,)) for text in germ_gallery.GALLERY]


def engine_form(node) -> list:
    return [node.k, node.m, [engine_form(c) for c in node.children]]


def canonical_form(node) -> list:
    return [node.k, node.m, sorted(canonical_form(c) for c in node.children)]


def _tree(kind: str, args: tuple):
    if kind == "lct_weighted_germs":
        return blowup_tree([(ensure_squarefree(CurveGerm(g)).native_dict, w)
                            for g, w in args[0]])
    return germ_blowup_tree(args[0])


def entry(kind: str, args: tuple) -> dict:
    """One corpus line: the op, its value or error, and its tree in both forms."""
    line: dict = {"kind": kind, "args": json.loads(json.dumps(args))}
    try:
        line["value"] = str(getattr(delpezzo1, kind)(*args))
    except DelPezzoError as exc:
        line["error"] = type(exc).__name__
    try:
        roots = _tree(kind, args)
    except DelPezzoError as exc:
        line["tree_error"] = type(exc).__name__
    else:
        line["tree"] = [engine_form(r) for r in roots]
        line["canonical"] = sorted(canonical_form(r) for r in roots)
    return line


def main() -> None:
    if subprocess.run(["git", "status", "--porcelain", "src"], cwd=ROOT, capture_output=True,
                      text=True, check=True).stdout:
        sys.exit("uncommitted changes under src/: commit them first")
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=True).stdout.strip()
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus

    heavy = HEAVY + tuple((op.kind, op.args)
                          for op in corpus.WARMUP_RATIONAL + corpus.WARMUP_ALGEBRAIC)
    rational = [(op.kind, op.args) for op in islice(corpus.rational_ops(SEED), RATIONAL_OPS)]
    algebraic = [(op.kind, op.args)
                 for i, op in enumerate(islice(corpus.algebraic_ops(SEED), ALGEBRAIC_SCANNED))
                 if i % corpus.ALGEBRAIC_BLOCK not in corpus._CUSP_SLOTS]
    groups = (("rational", rational), ("algebraic", algebraic), ("heavy", heavy),
              ("demo", demo_germs()))
    header = {
        "commit": commit,
        "selection": (f"first {RATIONAL_OPS} of rational_ops({SEED}); of the first "
                      f"{ALGEBRAIC_SCANNED} of algebraic_ops({SEED}), every tacnode op (outside "
                      "the cusp-product slots); the HEAVY list and the warm-up "
                      "ops of perfbench/corpus.py; the germs "
                      "of demos/germ_gallery.py"),
        "counts": {name: len(ops) for name, ops in groups},
    }
    with OUT.open("w") as out:
        out.write(json.dumps(header) + "\n")
        for name, ops in groups:
            for kind, args in ops:
                out.write(json.dumps({"group": name, **entry(kind, args)}) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)}: {header['counts']}")


if __name__ == "__main__":
    main()
