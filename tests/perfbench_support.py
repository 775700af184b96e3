"""Read-only access to the benchmark's modules from the test-suite.

Each module is loaded from its file under perfbench/, never imported as a
package and never written to, so the tests see exactly what the benchmark
runs: its layer probes, its workload generators and its correctness gate
with the recorded reference.
"""

import importlib.util
import types
from pathlib import Path

import qcbound
from qcbound import errors

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_cases(workload, seed):
    """The benchmark's cases of one workload at one generator seed."""
    q = types.SimpleNamespace(
        Poly=qcbound.Poly, CurveModel=qcbound.CurveModel, CurveFunction=qcbound.CurveFunction,
        ColemanSpec=qcbound.ColemanSpec, has_smooth_reduction=qcbound.has_smooth_reduction,
        DomainError=errors.DomainError,
    )
    return perfbench_module("workloads").WORKLOADS[workload].make(q, seed)
