"""Replay the pinned resolution corpus, tests/data/resolution_corpus.jsonl.

Each line holds a germ query with the value or typed error, and the
resolution tree, that the engine gave at the commit named in the header
(tests/data/make_resolution_corpus.py wrote it).  The engine must still give
the same, node for node.

Which form a later change of the engine must keep:

- the values and the typed errors, always;
- the canonical tree (siblings sorted by (k, m, subtree)), as long as the
  tree stays expanded: a change that collapses runs of nodes still compares
  its expanded tree;
- the tree in engine order, as long as the order of work is kept: a change
  that reorders the clusters of one exceptional line regenerates the file
  and says so in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from tests.data.make_resolution_corpus import entry

CORPUS = Path(__file__).parent / "data" / "resolution_corpus.jsonl"


def _lines():
    with CORPUS.open() as f:
        header = json.loads(next(f))
        return header, [json.loads(line) for line in f]


HEADER, LINES = _lines()


def test_header_names_the_generating_commit_and_every_group():
    assert len(HEADER["commit"]) == 40
    counts = {}
    for line in LINES:
        counts[line["group"]] = counts.get(line["group"], 0) + 1
    assert counts == HEADER["counts"]
    assert counts["rational"] == 500 and counts["demo"] >= 11


@pytest.mark.parametrize("group", sorted(HEADER["counts"]))
def test_engine_matches_the_corpus_node_for_node(group):
    mismatches = []
    for pinned in (line for line in LINES if line["group"] == group):
        now = {"group": group, **entry(pinned["kind"], pinned["args"])}
        if now != pinned:
            mismatches.append((pinned, now))
    assert not mismatches, mismatches[:3]
