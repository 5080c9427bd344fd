"""Fresh-interpreter probes that run.py starts as child processes.

    python3 perfbench/probe.py setup <workload>   import delpezzo1, run the
        workload's warm-up, then print "ready"; the parent times spawn to "ready"
    python3 perfbench/probe.py import             print {"import_ms", "sympy_loaded"}
"""

from __future__ import annotations

import json
import sys
import time

import workloads


def main(argv: list[str]) -> None:
    if argv[0] == "setup":
        workload = workloads.WORKLOADS[argv[1]]
        lib = workloads.load_library()
        for op in workload.warmup:
            workloads.run_in_process(lib, op, workload.deadline_s)
        print("ready", flush=True)
    elif argv[0] == "import":
        start = time.perf_counter()
        workloads.load_library()
        import_ms = (time.perf_counter() - start) * 1000
        import delpezzo1.surfaces  # noqa: F401

        print(json.dumps({"import_ms": import_ms, "sympy_loaded": int("sympy" in sys.modules)}))
    else:
        sys.exit(f"unknown probe {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
