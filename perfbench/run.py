"""Pipeline benchmark: one workload, one seed, a closed loop of run_pipeline calls.

    python3 perfbench/run.py --workload genus2_even_p7 --seed 3 --seconds 20 --trace 0

A single process calls ``qcbound.pipeline.run_pipeline`` on the workload's
specs one at a time, cycling through them until ``--seconds`` have elapsed
and every spec has run at least once.  A traced run instead makes one
untraced pass over the specs (the base for the tracing overhead), then traced
passes until the time is up, at least two, so that the deterministic counters
of two passes can be compared.  Every result goes through the correctness
gate in checks.py.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Sample counts, per-spec and per-disk
times, and with ``--trace 1`` the spans and counters, go to
perfbench/out/<workload>-seed<n>-trace<k>.json.
"""

import argparse
import importlib
import itertools
import json
import resource
import statistics
import sys
import time
import types
from collections import Counter
from pathlib import Path

import checks
import probes
from workloads import WORKLOADS, resolve_seed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 15
MIN_TRACED_PASSES = 2

# Per-layer metrics taken from span time per pass: metric -> span name.
LAYER_TIMES = {
    "pipeline.candidate_s": "pipeline.candidate",
    "pipeline.polar_degree_s": "pipeline.polar_degree",
    "coleman.expand_G_s": "coleman.expand_G",
    "coleman.certify_algebraic_s": "coleman.certify_algebraic",
    "diffops.check_nice_s": "diffops.check_nice",
    "diffops.apply_s": "diffops.apply",
    "diffops.weierstrass_local_annihilator_s": "diffops.weierstrass_local_annihilator",
    "funcfield.chart_for_s": "funcfield.chart_for",
    "hyperelliptic.residue_disks_s": "hyperelliptic.residue_disks",
    "series.zero_count_s": "series.zero_count",
    "bounds.per_disk_bound_s": "bounds.per_disk_bound",
}
COUNTERS = ("series.mul_calls", "series.mul_coeff_products", "quadext.mul_calls", "polys.poly_gcd_calls")
PER_SPEC_CALLS = {
    "pipeline.candidate_calls_per_spec": "pipeline.candidate_calls",
    "pipeline.polar_degree_calls_per_spec": "pipeline.polar_degree_calls",
}
DISK_KIND_TIMES = ("nw_quadratic", "nw_rational", "weierstrass")


def set_up(workload, seed):
    """Import the library afresh and build the workload's specs; returns (seconds, q, cases)."""
    for name in [m for m in sys.modules if m == "qcbound" or m.startswith("qcbound.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    qcbound = importlib.import_module("qcbound")
    mod = {n: importlib.import_module("qcbound." + n)
           for n in ("pipeline", "series", "quadext", "funcfield", "polys", "errors")}
    q = types.SimpleNamespace(
        Poly=qcbound.Poly, CurveModel=qcbound.CurveModel, CurveFunction=qcbound.CurveFunction,
        ColemanSpec=qcbound.ColemanSpec, has_smooth_reduction=qcbound.has_smooth_reduction,
        DomainError=mod["errors"].DomainError, TruncatedSeries=mod["series"].TruncatedSeries,
        QuadExt=mod["quadext"].QuadExt, **mod,
    )
    cases = workload.make(q, seed)
    return time.perf_counter() - t0, q, cases


class Loop:
    """Closed loop over the specs; gates every result and keeps per-spec samples."""

    def __init__(self, q, cases, reference, timer):
        self.q, self.cases, self.reference, self.timer = q, cases, reference, timer
        self.attempted = self.failed = 0
        self.failures = []
        self.seconds = {case.spec_id: [] for case in cases}
        self.disks = {}      # spec id -> (ok disks, all disks)

    def run_case(self, case, tracer=None):
        self.timer.request = case.spec_id
        if tracer is not None:
            tracer.request = case.spec_id
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.q.pipeline.run_pipeline(case.spec)
        except Exception as exc:     # a raising pipeline is a failed operation, not a crash
            self.failed += 1
            self.failures.append(f"{case.spec_id}: run_pipeline raised {exc!r}")
            return 0.0
        seconds = time.perf_counter() - t0
        self.seconds[case.spec_id].append(seconds)
        failures = checks.check_case(case, result, self.q.pipeline.result_to_json(result), self.reference)
        self.failed += bool(failures)
        self.failures.extend(failures)
        self.disks[case.spec_id] = (sum(1 for a in result.analyses if a.ok), len(result.analyses))
        return seconds

    def one_pass(self, tracer=None):
        return sum(self.run_case(case, tracer) for case in self.cases)

    def pipeline_seconds(self):
        """Wall time of one pass: the sum over specs of each spec's median time."""
        return sum(statistics.median(v) for v in self.seconds.values() if v)


def run(args):
    workload = WORKLOADS[args.workload]
    seed = resolve_seed(args.seed)
    if not (SRC / "qcbound" / "__init__.py").is_file():
        print(f"library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setups = [set_up(workload, seed) for _ in range(SETUP_REPEATS)]
    _, q, cases = setups[-1]
    if Path(q.pipeline.__file__).resolve().parent != SRC / "qcbound":
        print(f"imported qcbound from {q.pipeline.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    timer = probes.DiskTimer(q.pipeline)
    loop = Loop(q, cases, checks.load_reference(workload.name, seed), timer)
    start = time.perf_counter()

    def more():
        return time.perf_counter() - start < args.seconds

    details = {"workload": workload.name, "seed": args.seed, "resolved_seed": seed,
               "why": workload.why, "specs": [c.spec_id for c in cases]}
    if not args.trace:
        loop.one_pass()
        for case in itertools.cycle(cases):
            if not more():
                break
            loop.run_case(case)
        metrics = end_to_end_metrics(loop, timer, setups)
    else:
        untraced = loop.one_pass()
        tracer = probes.Tracer(q)
        marks, counts, traced = [], [], []
        while len(counts) < MIN_TRACED_PASSES or more():
            marks.append(len(tracer.spans))
            tracer.counts.clear()
            traced.append(loop.one_pass(tracer))
            counts.append(Counter(tracer.counts))
        if any(c != counts[0] for c in counts[1:]):
            loop.failures.append("deterministic counters differ between traced passes: "
                                 + json.dumps([dict(c) for c in counts]))
        metrics = per_layer_metrics(tracer, marks, counts, len(cases), traced, untraced)
        details["counters_per_pass"] = [dict(c) for c in counts]
        details["span_fields"] = ["name", "start", "end", "parent", "request", "disk", "disk_kind"]
        details["spans"] = tracer.spans
    details["metrics"] = metrics
    details["spec_seconds"] = loop.seconds
    details["disk_seconds"] = timer.samples
    details["failures"] = loop.failures
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(details, fh)
    for msg in loop.failures[:20]:
        print("FAILED:", msg, file=sys.stderr)
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


def _metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def _median(values):
    """Median, or 0.0 when every attempt failed and left no sample."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def _disk_medians(samples):
    """Median time of each disk from ((spec id, disk), seconds) pairs: each disk
    counts once, however often the loop reached it."""
    per_disk = {}
    for key, seconds in samples:
        per_disk.setdefault(key, []).append(seconds)
    return [statistics.median(v) for v in per_disk.values()]


def end_to_end_metrics(loop, timer, setups):
    affine = [((request, disk), s) for request, disk, kind, s in timer.samples if kind != "infinite"]
    disk_medians = _disk_medians(affine)
    samples = len(affine)
    ok, total = map(sum, zip(*loop.disks.values())) if loop.disks else (0, 0)
    return {
        "pipeline_s": _metric(loop.pipeline_seconds(), "s", loop.attempted),
        "disk_s_max": _metric(max(disk_medians, default=0.0), "s", samples),
        "setup_s": _metric(statistics.median(s[0] for s in setups), "s", len(setups)),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "disks_ok_frac": _metric(ok / max(total, 1), "ratio", total),
    }


def per_layer_metrics(tracer, marks, counts, n_specs, traced, untraced):
    spans = tracer.spans
    bounds = list(zip(marks, marks[1:] + [len(spans)]))
    n = len(bounds)
    out = {}
    for metric, span_name in LAYER_TIMES.items():
        per_pass = [sum(spans[i][2] - spans[i][1] for i in range(a, b) if spans[i][0] == span_name)
                    for a, b in bounds]
        out[metric] = _metric(statistics.median(per_pass), "s", n)
    self_per_pass = []
    for a, b in bounds:
        st = probes.self_times(spans[:b], a)
        self_per_pass.append(sum(t for i, t in st.items() if spans[i][0] == "pipeline.analyze_disk"))
    out["pipeline.analyze_disk_self_s"] = _metric(statistics.median(self_per_pass), "s", n)
    disk_spans = [s for s in spans[marks[0]:] if s[0] == "pipeline.analyze_disk" and s[6] != "infinite"]
    disk_medians = _disk_medians(((s[4], s[5]), s[2] - s[1]) for s in disk_spans)
    out["pipeline.disk_s_p50"] = _metric(_median(disk_medians), "s", len(disk_spans))
    for kind in DISK_KIND_TIMES:
        samples = [s[2] - s[1] for s in disk_spans if s[6] == kind]
        out["pipeline.disk_s." + kind] = _metric(_median(samples), "s", len(samples))
    for name in COUNTERS:
        out[name] = _metric(counts[0][name], "count", n)
    for metric, counter in PER_SPEC_CALLS.items():
        out[metric] = _metric(counts[0][counter] / n_specs, "calls/spec", n)
    out["trace.pipeline_s"] = _metric(statistics.median(traced), "s", n)
    out["trace.overhead_s"] = _metric(statistics.median(traced) - untraced, "s", 1)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
