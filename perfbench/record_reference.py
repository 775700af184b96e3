"""Record the correctness gate's reference for every recorded seed.

    python3 perfbench/record_reference.py

Run this only at a commit whose pipeline output is trusted (the reference was
recorded at the commit that introduced the benchmark).  It rewrites
perfbench/reference.json.
"""

import json
import sys

import checks
import run
from workloads import RECORDED_SEEDS, WORKLOADS


def record(workload):
    entries = {}
    for seed in range(RECORDED_SEEDS):
        _, q, cases = run.set_up(workload, seed)
        entries[str(seed)] = {
            case.spec_id: {
                "spec": checks.spec_digest(case.spec),
                "result": checks.result_digest(q.pipeline.result_to_json(q.pipeline.run_pipeline(case.spec))),
            }
            for case in cases
        }
        print(workload.name, seed, "recorded", file=sys.stderr, flush=True)
    return entries


def main():
    sys.path.insert(0, str(run.SRC))
    recorded = {name: record(workload) for name, workload in WORKLOADS.items()}
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
