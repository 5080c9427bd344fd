"""The delpezzo1 benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload germ-rational --seed 1 --seconds 10 --trace 0

With --trace 0 the run measures the workload's end-to-end metrics with
tracing off, each wall time rescaled by the machine's speed at that moment
(see calibration_ms); with --trace 1 it alternates untraced and traced passes
over the same kind of ops and reports the per-layer metrics.  Both keep the
process and its children on one CPU.  Every op is checked against its
expected value.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it (starting
with '#') record the environment and details, and perfbench/out/ keeps the
full result and the spans of a traced run.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import corpus
import workloads
from tracer import LAYERS, Tracer
from workloads import ROOT, TIMEOUT, Workload

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_SAMPLES = 5  # fresh interpreters timed per run for setup_s
CLI_SAMPLES = 3  # CLI calls timed per traced run for the cli.* metrics
CALIBRATE_EVERY_S = 0.25  # least time between two speed samples in a timed run
REFERENCE_CALIBRATION_MS = 1.25  # calibration_ms() on the baseline machine when unloaded


def env_info() -> dict:
    return {
        "python": sys.version.split()[0],
        "sympy": metadata.version("sympy"),
        "nproc": os.cpu_count(),
    }


def metric_units(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "probe.py"), *args], capture_output=True,
                          text=True, cwd=ROOT, timeout=timeout, check=True)


def pin_to_one_cpu() -> None:
    """Keep this process, and the children it starts, on one CPU.

    The speedometer then times the CPU that the ops and the CLI children run
    on, and no op migrates between CPUs halfway.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def calibration_ms() -> float:
    """Wall time of a fixed pure-Python loop that never touches delpezzo1.

    The benchmark's speedometer: on a shared host the same op runs up to
    twice as long at some moments as at others, and this loop slows with it.
    """
    start = time.perf_counter_ns()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return (time.perf_counter_ns() - start) / 1e6


def at_reference_speed(ms: float, before_ms: float, after_ms: float) -> float:
    """A wall time rescaled by the calibration times taken before and after it."""
    return ms * REFERENCE_CALIBRATION_MS / ((before_ms + after_ms) / 2)


def scaled_ms(ops: list[tuple[float, int]], marks: list[tuple[float, float]]) -> list[float]:
    """Each op's wall time in ms, rescaled to the reference machine speed.

    `ops` holds (start s, elapsed ns) and `marks` (time s, calibration ms),
    both in time order, with a mark before the first op and one after the
    last; an op is scaled by the mean of the two marks around its start.
    """
    times = [t for t, _ in marks]
    scaled = []
    for start, elapsed in ops:
        i = bisect.bisect_right(times, start)
        scaled.append(at_reference_speed(elapsed / 1e6, marks[i - 1][1], marks[i][1]))
    return scaled


def setup_seconds(workload: Workload) -> float:
    """Median wall time from spawning a fresh interpreter to the end of set-up.

    Each sample is rescaled to the reference speed like an op.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        before_ms = calibration_ms()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), "setup", workload.name],
                                stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=120)
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        if line.strip() != "ready":
            raise RuntimeError(f"setup probe for {workload.name} failed")
        samples.append(at_reference_speed(elapsed, before_ms, calibration_ms()))
    return statistics.median(samples)


class Runner:
    """Runs a workload's ops and tallies their outcomes."""

    def __init__(self, workload: Workload, seed: int, lib):
        self.workload = workload
        self.lib = lib
        self.stream = workload.stream(seed)
        self.outcomes: Counter = Counter()
        self.failures: list[tuple] = []

    def execute(self, op, in_process: bool = False,
                tracer: Tracer | None = None) -> tuple[int, str]:
        """Run one op; CLI ops run in a fresh process unless `in_process` is set."""
        w = self.workload
        if w.in_process or in_process:
            call = workloads.call_library if w.in_process else workloads.cli_in_process
            if tracer is not None:
                call = tracer.op_span(call)
            elapsed, observed = workloads.run_in_process(self.lib, op, w.deadline_s, call)
        else:
            elapsed, observed = workloads.run_cli(op, w.deadline_s)
        outcome = workloads.verdict(op, observed)
        self.outcomes[outcome] += 1
        if outcome not in ("ok", "rejected"):
            self.failures.append((op, observed))
        return elapsed, outcome

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.outcomes["ok"] - self.outcomes["rejected"]


def percentile_note(n: int) -> str:
    best = next((p for p in (99.9, 99, 90, 50) if n * (1 - p / 100) >= 10), None)
    return f"p90 over {n} samples ({n * 0.1:.1f} beyond); highest percentile with >= 10 " \
           f"samples beyond it: {'none' if best is None else f'p{best:g}'}"


def run_untraced(workload: Workload, seed: int, seconds: float) -> tuple[Runner, dict, list]:
    lib = workloads.load_library() if workload.in_process else None
    runner = Runner(workload, seed, lib)
    for op in workload.warmup:
        runner.execute(op)
    runner.outcomes.clear()  # a failed warm-up op stays in runner.failures

    completed, marks = [], []  # (start s, elapsed ns) of completed ops; speed samples
    end = time.perf_counter() + seconds
    while (now := time.perf_counter()) < end:
        if not marks or now - marks[-1][0] >= CALIBRATE_EVERY_S:
            marks.append((now, calibration_ms()))
        start = time.perf_counter()
        elapsed, outcome = runner.execute(next(runner.stream))
        if outcome in ("ok", "rejected"):
            completed.append((start, elapsed))
    marks.append((time.perf_counter(), calibration_ms()))
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    if not completed:
        raise RuntimeError(f"no op of {workload.name} completed in {seconds} s")

    ms = scaled_ms(completed, marks)
    q = statistics.quantiles(ms, n=100, method="inclusive") if len(ms) > 1 else [ms[0]] * 99
    metrics = {
        "setup_s": setup_seconds(workload),
        "ops_per_s": len(ms) / (sum(ms) / 1000),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": q[89],
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }
    wall = [elapsed / 1e6 for _, elapsed in completed]
    notes = [percentile_note(len(ms)),
             f"unscaled wall time: op p50 {statistics.median(wall):.4g} ms, "
             f"{len(wall) / (sum(wall) / 1000):.4g} ops/s; calibration loop median "
             f"{statistics.median(c for _, c in marks):.4g} ms over {len(marks)} samples "
             f"(reference {REFERENCE_CALIBRATION_MS} ms)"]
    return runner, metrics, notes


def _pass(runner: Runner, tracer: Tracer | None) -> int:
    """Run one pass of ops in process; returns their summed op time in ns."""
    return sum(runner.execute(next(runner.stream), True, tracer)[0]
               for _ in range(runner.workload.pass_size))


def cli_probe(runner: Runner) -> dict:
    """Fresh-process and in-process (warm) times of a few CLI calls of this workload."""
    sample = []
    stream = runner.workload.stream(0)
    while len(sample) < CLI_SAMPLES:
        op = next(stream)
        if workloads.cli_argv(op) is not None and not op.rejection:
            sample.append(op)
    process = [workloads.run_cli(op, runner.workload.deadline_s)[0] / 1e6 for op in sample]
    in_process = []
    for op in sample:
        workloads.run_in_process(runner.lib, op, runner.workload.deadline_s,
                                 workloads.cli_in_process)
        elapsed, _ = workloads.run_in_process(runner.lib, op, runner.workload.deadline_s,
                                              workloads.cli_in_process)
        in_process.append(elapsed / 1e6)
    p, r = statistics.median(process), statistics.median(in_process)
    return {"cli.process_ms": p, "cli.run_ms": r, "cli.startup_ms": p - r}


def import_probe() -> dict:
    rows = [json.loads(child(["import"], 120).stdout) for _ in range(SETUP_SAMPLES)]
    return {
        "import.delpezzo1_ms": statistics.median(r["import_ms"] for r in rows),
        "import.sympy_loaded": max(r["sympy_loaded"] for r in rows),
    }


def known_defects(lib) -> list[str]:
    """The KNOWN_DEFECTS inputs that still fail, run under germ-rational's deadline."""
    deadline_s = workloads.WORKLOADS["germ-rational"].deadline_s
    still = []
    for germ, reason in corpus.KNOWN_DEFECTS:
        op = corpus.Op("lct_germ", (germ,), "InvalidGermError", "known defect")
        _, observed = workloads.run_in_process(lib, op, deadline_s)
        if workloads.verdict(op, observed) != "rejected":
            still.append(f"{germ!r}: {reason} (observed {observed})")
    return still


def run_traced(workload: Workload, seed: int, seconds: float) -> tuple[Runner, dict, list]:
    lib = workloads.load_library()
    import delpezzo1.cli  # noqa: F401  (in-process CLI calls)

    runner = Runner(workload, seed, lib)
    for op in workload.warmup:
        runner.execute(op)
    runner.outcomes.clear()  # a failed warm-up op stays in runner.failures

    tracer = Tracer()
    untraced_ns = traced_ns = 0
    passes = 0
    distinct = lct_config_calls = 0
    traced_outcomes = Counter()
    end = time.perf_counter() + seconds
    while passes < 1 or time.perf_counter() < end:
        untraced_ns += _pass(runner, None)
        before = Counter(runner.outcomes)
        calls_before = tracer.calls["lct.lct_config"]
        tracer.configs.clear()
        tracer.install()
        try:
            traced_ns += _pass(runner, tracer)
        finally:
            tracer.uninstall()
        traced_outcomes += runner.outcomes - before
        distinct += len(tracer.configs)
        lct_config_calls += tracer.calls["lct.lct_config"] - calls_before
        passes += 1
    tracer.write(OUT / f"trace-{workload.name}-seed{seed}.json")

    metrics: dict[str, float] = {}
    for mod, names in LAYERS.items():
        for attr in names:
            name = f"{mod}.{attr}"
            metrics[f"{name}.calls"] = tracer.calls[name] / passes
            metrics[f"{name}.self_ms"] = tracer.self_ns[name] / passes / 1e6
    op_ns = sum(tracer.self_ns.values())  # every span lies inside an op span
    ops = passes * workload.pass_size
    defects = known_defects(lib)
    metrics.update({
        "blowup.nodes_per_op": tracer.nodes / ops,
        "blowup.max_depth": tracer.max_depth,
        "lct.lct_config.distinct": distinct / passes,
        "lct.lct_config.distinct_ratio": distinct / lct_config_calls if lct_config_calls else 0.0,
        "errors.expected_rejections": traced_outcomes["rejected"] / passes,
        "errors.unexpected": (traced_outcomes["unexpected"] + traced_outcomes["wrong"]
                              + traced_outcomes[TIMEOUT]) / passes,
        "errors.known_defects": len(defects),
        "trace.overhead_ratio": traced_ns / untraced_ns,
        "trace.covered_ratio": (op_ns - tracer.self_ns["op"]) / op_ns,
    })
    metrics.update(import_probe())
    metrics.update(cli_probe(runner))
    notes = [f"{passes} untraced and {passes} traced passes of {workload.pass_size} ops",
             f"lct_config: {distinct / passes:g} distinct of {lct_config_calls / passes:g} "
             f"calls per pass"] + [f"known defect {d}" for d in defects]
    return runner, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "delpezzo1" / "__init__.py").is_file():
        print(f"perfbench: no delpezzo1 sources under {workloads.SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    pin_to_one_cpu()
    run = run_traced if args.trace else run_untraced
    runner, values, notes = run(workload, args.seed, args.seconds)

    units = metric_units("per_layer" if args.trace else "end_to_end")
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": runner.failed == 0 and not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    for op, observed in runner.failures[:5]:
        print(f"perfbench: failed {str(op)[:300]} -> {str(observed)[:300]}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    details = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "env": env_info(), "notes": notes, "result": result}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1))
    print("# env " + json.dumps(env_info()))
    for note in notes:
        print("# " + note)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
