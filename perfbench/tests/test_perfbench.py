"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


def take(stream, n):
    return list(itertools.islice(stream, n))


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_generator_is_deterministic_under_a_fixed_seed(name):
    stream = workloads.WORKLOADS[name].stream
    first = take(stream(7), 400)
    assert first == take(stream(7), 400)
    assert first != take(stream(8), 400)


def test_germ_streams_never_repeat_an_input():
    for stream, n in ((corpus.rational_ops, 3000), (corpus.algebraic_ops, 200)):
        args = [repr(op.args) for op in take(stream(3), n)]
        assert len(set(args)) == n


def test_germ_texts_are_the_polynomials_they_encode():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    a, b = sympy.sqrt(2), sympy.sqrt(3)
    product = sympy.Integer(1)
    for s1, s2 in itertools.product((1, -1), repeat=2):
        product *= (y - s1 * a * x - s2 * b * x**2) ** 2 - sympy.Rational(5, 3) * x**5
    parsed = sympy.sympify(corpus.text(corpus.cusp_product(2, 3, Fraction(5, 3))).replace("^", "**"))
    assert sympy.expand(parsed - product) == 0 or sympy.expand(parsed + product) == 0
    tac = corpus.text(corpus.tacnode(Fraction(-3, 2), Fraction(7), 9))
    want = (y**2 + sympy.Rational(3, 2) * x**2) ** 2 - 7 * x**9
    assert sympy.expand(sympy.sympify(tac.replace("^", "**")) - want) == 0


def test_oracle_spec_enumeration_matches_the_pinned_count():
    assert len(corpus.valid_specs()) == corpus.VALID_SPEC_COUNT == 299
    assert corpus.expected_tlct(("E8",), "none") == (Fraction(1, 6), {"II*"})


def test_deadline_stops_a_runaway_op():
    lib = workloads.load_library()
    op = corpus.Op("lct_germ", ("(x+y)**2000",), "InvalidGermError", "known defect")
    elapsed, observed = workloads.run_in_process(lib, op, 0.5)
    assert observed == workloads.TIMEOUT
    assert elapsed < 2e9
    assert workloads.verdict(op, observed) == workloads.TIMEOUT


def test_op_times_are_scaled_by_the_speed_samples_around_them():
    marks = [(0.0, 1.0), (1.0, 3.0), (2.0, 2.5)]  # (time s, calibration ms)
    ops = [(0.5, 4_000_000), (1.5, 2_750_000)]  # (start s, elapsed ns)
    ref = run.REFERENCE_CALIBRATION_MS
    assert run.scaled_ms(ops, marks) == pytest.approx([2 * ref, ref])


def test_tracer_spans_nest_and_patches_are_undone():
    lib = workloads.load_library()
    original = lib.lct.lct_of_branches
    tracer = Tracer()
    tracer.install()
    try:
        assert lib.lct_germ("y^2 - x^3") == Fraction(5, 6)
    finally:
        tracer.uninstall()
    assert lib.lct.lct_of_branches is original
    for name in ("lct.lct_germ", "germs.CurveGerm", "germs.is_squarefree",
                 "blowup.lct_of_branches", "blowup.blowup_tree"):
        assert tracer.calls[name] == 1, name
    root = tracer.spans[0]
    assert root[0] == "lct.lct_germ" and root[3] == -1
    assert all(s[3] >= 0 for s in tracer.spans[1:])
    assert sum(tracer.self_ns.values()) == root[2] - root[1]
    assert tracer.nodes == 3 and tracer.max_depth == 3


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def tiny_runs():
    runs = {}
    for name, trace in itertools.product(WORKLOAD_NAMES, ("0", "1")):
        proc = bench("--workload", name, "--seed", "1", "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        runs[name, trace] = proc.stdout.strip().splitlines()
    return runs


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_each_workload_emits_every_named_metric_with_its_unit(tiny_runs, name, trace):
    result = json.loads(tiny_runs[name, trace][-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_no_op_fails_at_the_seed_and_both_known_defects_show(tiny_runs, name):
    untraced = json.loads(tiny_runs[name, "0"][-1])
    assert untraced["failed"] == 0
    assert untraced["metrics"]["ok_ratio"]["value"] == 1.0
    traced = tiny_runs[name, "1"]
    metrics = json.loads(traced[-1])["metrics"]
    assert metrics["errors.known_defects"]["value"] == len(corpus.KNOWN_DEFECTS) == 2
    assert sum(line.startswith("# known defect") for line in traced) == 2
    assert metrics["errors.unexpected"]["value"] == 0


def test_germ_rational_rejections_raise_their_typed_errors(tiny_runs):
    metrics = json.loads(tiny_runs["germ-rational", "1"][-1])["metrics"]
    assert metrics["errors.expected_rejections"]["value"] > 0
    kinds = {op.expect for op in take(corpus.rational_ops(1), 2000) if op.rejection}
    assert kinds == {"NonSquarefreeError", "NotAtOriginError", "InvalidGermError",
                     "DepthExceededError"}


def test_output_records_python_sympy_and_nproc(tiny_runs):
    for lines in tiny_runs.values():
        env = json.loads(next(line for line in lines if line.startswith("# env "))[6:])
        assert set(env) == {"python", "sympy", "nproc"} and env["nproc"] >= 1


def test_sweep_trace_counts_the_repeated_configurations(tiny_runs):
    metrics = json.loads(tiny_runs["surface-sweep", "1"][-1])["metrics"]
    assert metrics["lct.lct_config.calls"]["value"] == 1466
    assert metrics["lct.lct_config.distinct"]["value"] == 21


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = bench("--workload", "germ-rational", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
