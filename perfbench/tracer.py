"""Spans around the public functions of each delpezzo1 layer.

`Tracer.install` wraps each function listed in LAYERS and rebinds the
wrapper at every delpezzo1 module (and the package) that holds the original
object, so calls between modules are traced too; `uninstall` puts the
originals back.  Spans (name, start, end, parent, op) stay in memory; a
span's self time is its duration minus the time of its child spans and is
summed per layer name as each span closes.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from functools import cached_property
from pathlib import Path

# module -> public functions; CurveGerm is traced through its __init__ and
# is_squarefree through its cached_property, so isinstance checks still work
LAYERS = {
    "cli": ("run",),
    "germs": ("CurveGerm", "is_squarefree", "classify_germ", "lct_quasihomogeneous"),
    "blowup": ("lct_of_branches", "blowup_tree"),
    "lct": ("lct_germ", "lct_weighted_germs", "lct_config"),
    "cycles": ("build_configuration", "kodaira_type", "fundamental_cycle", "attachment_vector"),
    "dynkin": ("intersection_matrix", "is_negative_definite"),
    "surfaces": ("validate", "tlct", "realizable_configurations", "iter_valid_specs"),
    "rigidity": ("rigidity_gate", "possible_targets"),
}
GENERATORS = {"realizable_configurations", "iter_valid_specs"}


def _depth(node) -> int:
    return 1 + max((_depth(c) for c in node.children), default=0)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op]
        self._open: list[list] = []  # [span index, child ns]
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.op = -1
        self.nodes = 0
        self.max_depth = 0
        self.configs: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self._open.append([len(self.spans) - 1, 0])

    def exit(self) -> int:
        end = time.perf_counter_ns()
        index, child_ns = self._open.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        self.calls[span[0]] += 1
        self.self_ns[span[0]] += duration - child_ns
        if self._open:
            self._open[-1][1] += duration
        return duration

    def op_span(self, call):
        """`call` wrapped in a root span named "op", numbered for the spans inside it."""

        def traced_op(lib, op):
            self.op += 1
            self.enter("op")
            try:
                return call(lib, op)
            finally:
                self.exit()

        return traced_op

    # -- patching ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        materialize = name.rsplit(".", 1)[1] in GENERATORS

        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                tracer.exit()
            if name == "blowup.blowup_tree":
                tracer.nodes += sum(1 for root in result for _ in root.walk())
                tracer.max_depth = max([tracer.max_depth] + [_depth(r) for r in result])
            elif name == "lct.lct_config":
                tracer.configs.add(args[0])
            return iter(result) if materialize else result

        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for mod_name in LAYERS:
            importlib.import_module(f"delpezzo1.{mod_name}")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "delpezzo1" or n.startswith("delpezzo1.")]
        for mod_name, names in LAYERS.items():
            mod = sys.modules[f"delpezzo1.{mod_name}"]
            for attr in names:
                name = f"{mod_name}.{attr}"
                if attr == "CurveGerm":
                    cls = mod.CurveGerm
                    self._rebind(cls, "__init__", self._wrap(name, cls.__init__))
                    continue
                if attr == "is_squarefree":
                    prop = cached_property(self._wrap(name, mod.CurveGerm.is_squarefree.func))
                    prop.__set_name__(mod.CurveGerm, attr)
                    self._rebind(mod.CurveGerm, attr, prop)
                    continue
                original = getattr(mod, attr)
                wrapper = self._wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._rebind(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "names": names,
            "spans": rows,
        }, separators=(",", ":")))
