"""The four workloads: how one op runs, and how its result is checked."""

from __future__ import annotations

import io
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

import corpus
from corpus import Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

TIMEOUT = "timeout"
GERM_FUNCTIONS = ("lct_germ", "lct_weighted_germs", "classify_germ", "lct_quasihomogeneous")


@dataclass(frozen=True)
class Workload:
    name: str
    stream: Callable[[int], Iterator[Op]]
    warmup: tuple[Op, ...]
    pass_size: int  # ops per pass of a traced run
    deadline_s: float  # an op still running after this counts as failed
    in_process: bool  # False: each op is a fresh `python -m delpezzo1.cli` process


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-mix", corpus.cli_ops, (), corpus.CLI_BLOCK, 60.0, False),
        Workload("germ-rational", corpus.rational_ops, corpus.WARMUP_RATIONAL, 200, 2.0, True),
        Workload("germ-algebraic", corpus.algebraic_ops, corpus.WARMUP_ALGEBRAIC,
                 corpus.ALGEBRAIC_BLOCK, 20.0, True),
        Workload("surface-sweep", corpus.sweep_ops, corpus.WARMUP_SWEEP,
                 corpus.VALID_SPEC_COUNT + 1, 10.0, True),
    )
}


class Deadline(BaseException):
    """Raised by SIGALRM inside an op that outlived its deadline.

    A BaseException, so that no `except Exception` in the library swallows it.
    """


def _alarm(signum, frame):
    raise Deadline()


def load_library():
    """Import delpezzo1 from this checkout's src/, or exit when it is missing."""
    if not (SRC / "delpezzo1" / "__init__.py").is_file():
        sys.exit(f"perfbench: no delpezzo1 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import delpezzo1

    if Path(delpezzo1.__file__).resolve().parent != SRC / "delpezzo1":
        sys.exit(f"perfbench: imported delpezzo1 from {delpezzo1.__file__}, not {SRC}")
    return delpezzo1


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_argv(op: Op) -> list[str] | None:
    """The delpezzo1 CLI arguments that perform the same query, if there are any."""
    if op.kind in corpus.COMBINATORIAL or op.kind in ("lct-germ", "classify"):
        return [op.kind, *op.args]
    if op.kind == "lct_germ":
        return ["lct-germ", *op.args]
    if op.kind == "classify_germ":
        return ["classify", *op.args]
    if op.kind == "spec":
        labels, cusp = op.args[:2]
        return ["tlct", "--sings", ",".join(labels), "--cusp", cusp]
    return None


# -- running one op ----------------------------------------------------------


def _determinant(rows) -> Fraction:
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def _prefix(lib) -> tuple:
    specs = sorted((s.labels, s.cusp_data) for s in lib.iter_valid_specs())
    types = []
    for label in corpus.TYPES:
        t = lib.parse_dynkin(label)
        z = lib.fundamental_cycle(t).coeffs
        d = lib.attachment_vector(t).d
        m = lib.intersection_matrix(t)
        types.append((sorted(z), sum(d), min(d) >= 0, sum(a * b for a, b in zip(z, d)),
                      lib.is_negative_definite(m), _determinant(m.as_lists())))
    return specs, types


def _spec(lib, labels, cusp, partner, missing) -> dict:
    s = lib.SurfaceSpec(labels, cusp)
    passed = lib.validate(s).passed
    result = lib.tlct(s)
    configs = [(lib.kodaira_type(c).text, lib.lct_config(c))
               for c in lib.realizable_configurations(s)]
    flags = {missing: False} if missing else {}
    verdict = lib.rigidity_gate(lib.FibrationSpec(s),
                                lib.FibrationSpec(lib.SurfaceSpec(*partner), **flags))
    targets = lib.possible_targets(s)
    best = min(v for _, v in configs)
    return {
        "validate": passed,
        "tlct": result.value,
        "tlct_kodaira_minimises": result.kodaira.text in {k for k, v in configs if v == best},
        "e8_iff_one_sixth": ("E8" in labels)
        == (result.value == Fraction(1, 6) and result.kodaira.text == "II*"),
        "configs": configs,
        "min_lct_config": best,
        "rigidity": (verdict.outcome, verdict.tlct_sum,
                     tuple(c.tlct_value for c in verdict.detail)),
        "targets": tuple(c.tlct_value for c in targets),
    }


def call_library(lib, op: Op):
    if op.kind in GERM_FUNCTIONS:
        return getattr(lib, op.kind)(*op.args)
    if op.kind == "spec":
        return _spec(lib, *op.args)
    if op.kind == "prefix":
        return _prefix(lib)
    raise ValueError(f"not an in-process op: {op.kind}")


def run_in_process(lib, op: Op, deadline_s: float, call=call_library) -> tuple[int, object]:
    """Run an op under its deadline; returns (elapsed ns, observed value).

    A domain error is observed as its class name, a missed deadline as
    TIMEOUT, and any other exception as a description that matches nothing.
    """
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    start = time.perf_counter_ns()
    try:
        observed = call(lib, op)
    except Deadline:
        observed = TIMEOUT
    except lib.DelPezzoError as exc:
        observed = type(exc).__name__
    except Exception as exc:  # reported as a failed op, never fatal to the run
        observed = f"unexpected {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter_ns() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return elapsed, observed


def cli_in_process(lib, op: Op) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = lib.cli.run(cli_argv(op))
    return code, out.getvalue()


def run_cli(op: Op, deadline_s: float) -> tuple[int, object]:
    """One fresh-process CLI call; returns (elapsed ns, (exit code, stdout))."""
    argv = [sys.executable, "-m", "delpezzo1.cli", *cli_argv(op)]
    start = time.perf_counter_ns()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=cli_env(),
                              cwd=ROOT, timeout=deadline_s)
        observed = (proc.returncode, proc.stdout)
    except subprocess.TimeoutExpired:
        observed = TIMEOUT
    return time.perf_counter_ns() - start, observed


# -- checking ----------------------------------------------------------------


def _check_cli(expect: tuple, out: str) -> bool:
    tag = expect[0]
    lines = out.strip().splitlines()
    if tag == "exact":
        return out.strip() == expect[1]
    if tag == "matrix":
        rows = [[int(v) for v in line.split()] for line in lines]
        n = corpus.rank(expect[1])
        edges = sum(rows[i][j] for i in range(n) for j in range(i + 1, n))
        return (len(rows) == n and all(len(r) == n for r in rows)
                and all(rows[i][j] == rows[j][i] and rows[i][j] in (0, 1)
                        for i in range(n) for j in range(n) if i != j)
                and all(rows[i][i] == -2 for i in range(n)) and edges == n - 1
                and _determinant(rows) == (-1) ** n * corpus.cartan_det(expect[1]))
    if tag == "cycle":
        return sorted(int(v) for v in out.split()) == corpus.cycle_multiset(expect[1])
    if tag == "attachment":
        d = [int(v) for v in out.split()]
        return (len(d) == corpus.rank(expect[1]) and min(d) >= 0
                and sum(d) == corpus.attachment_sum(expect[1]))
    if tag == "config":
        label, _ = expect[1]
        mults = sorted(int(line.split()[1]) for line in lines if not line.startswith("meet"))
        want = [1] if label == "smooth" else sorted([1] + corpus.cycle_multiset(label))
        return mults == want
    if tag == "tlct":
        m = re.fullmatch(r"(\S+) \((\S+)\)", out.strip())
        return bool(m) and Fraction(m[1]) == expect[1] and m[2] in expect[2]
    if tag == "validate":
        if not expect[1]:
            return out.strip() == "pass"
        return out.startswith("fail:") and set(re.findall(r"\(([a-d])\)", out)) == expect[1]
    if tag == "rigidity":
        head = lines[0].split() if lines else []
        return head[:1] == [expect[1]] and len(head) == 2 and Fraction(head[1]) == expect[2]
    if tag == "targets":
        return [Fraction(line.split()[0]) for line in lines] == list(expect[1])
    raise ValueError(f"unknown CLI check {tag!r}")


def verdict(op: Op, observed) -> str:
    """ok | rejected (the expected typed error) | timeout | unexpected | wrong."""
    if observed == TIMEOUT:
        return TIMEOUT
    if op.kind in corpus.COMBINATORIAL or op.kind in ("lct-germ", "classify"):
        code, out = observed
        return "ok" if code == 0 and _check_cli(op.expect, out) else "wrong"
    if op.rejection:
        return "rejected" if observed == op.expect else "unexpected"
    if isinstance(observed, str) and (observed.endswith("Error")
                                      or observed.startswith("unexpected ")):
        return "unexpected"
    return "ok" if observed == op.expect else "wrong"
