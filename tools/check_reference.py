"""Run the benchmark's correctness gate on every recorded generator seed.

    python3 tools/check_reference.py

For generator seeds 0-15 of both benchmark workloads, runs ``run_pipeline``
on every spec and checks the result with ``perfbench/checks.check_case``:
the digest of the report JSON against ``perfbench/reference.json``, the
pipeline invariants and the hand-derived oracle.  Prints every failure and
exits 1 on any, 0 when every spec passes.  The benchmark's modules are read
through ``tests/perfbench_support.py``, which never writes to them.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from perfbench_support import perfbench_module, workload_cases  # noqa: E402
from qcbound.pipeline import result_to_json, run_pipeline  # noqa: E402


def main():
    checks = perfbench_module("checks")
    workloads = perfbench_module("workloads")
    specs, failures = 0, []
    for workload in workloads.WORKLOADS:
        for seed in range(workloads.RECORDED_SEEDS):
            reference = checks.load_reference(workload, seed)
            for case in workload_cases(workload, seed):
                result = run_pipeline(case.spec)
                failures += checks.check_case(case, result, result_to_json(result), reference)
                specs += 1
    for line in failures:
        print(f"FAIL {line}")
    print(f"check_case: {specs} specs, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
