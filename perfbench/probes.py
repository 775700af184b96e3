"""Layer probes installed from outside the library.

Each probe replaces one name that ``qcbound.pipeline`` calls into another layer
(or a hot method of a value type) by a wrapper that records a span or bumps a
counter.  No library file is changed: the wrappers are bound into the module
and class namespaces of the imported library at run time.
"""

import time
from collections import Counter
from itertools import accumulate

# Names looked up as globals of qcbound.pipeline, with the layer metric each
# one feeds.  Two names may feed one metric (both candidates; both appliers).
PIPELINE_CALLS = (
    ("residue_disks", "hyperelliptic.residue_disks"),
    ("analyze_disk", "pipeline.analyze_disk"),
    ("chart_for", "funcfield.chart_for"),
    ("nonweierstrass_candidate", "pipeline.candidate"),
    ("order2_candidate", "pipeline.candidate"),
    ("expand_G", "coleman.expand_G"),
    ("check_nice", "diffops.check_nice"),
    ("apply_on_chart", "diffops.apply"),
    ("apply_series", "diffops.apply"),
    ("polar_degree", "pipeline.polar_degree"),
    ("certify_algebraic", "coleman.certify_algebraic"),
    ("algebraic_zero_count", "series.zero_count"),
    ("weierstrass_local_annihilator", "diffops.weierstrass_local_annihilator"),
    ("per_disk_bound", "bounds.per_disk_bound"),
)

# analyze_disk span kinds; "nw" is refined by the chart's coefficient field.
DISK_KINDS = {
    "affine_weierstrass": "weierstrass",
    "affine_nonweierstrass": "nw",
    "infinite": "infinite",
}


class DiskTimer:
    """Times every analyze_disk call; the only probe active in an untraced run."""

    def __init__(self, pipeline):
        self.samples = []        # (request id, disk, disk kind, seconds)
        self.request = None
        inner = pipeline.analyze_disk

        def analyze_disk(spec, disk):
            t0 = time.perf_counter()
            ana = inner(spec, disk)
            self.samples.append((self.request, str(disk), disk.kind, time.perf_counter() - t0))
            return ana

        pipeline.analyze_disk = analyze_disk


class Tracer:
    """Spans around every pipeline-to-layer call, plus deterministic counters.

    A span is ``[name, start, end, parent index, request id, disk, disk kind]``;
    the request id is the spec being analysed, and only analyze_disk spans carry
    the disk and its kind (see DISK_KINDS).  Spans stay in memory until the run
    ends.
    """

    def __init__(self, q):
        self.spans = []
        self.counts = Counter()
        self.request = None
        self._stack = []
        pipeline = q.pipeline
        for attr, name in PIPELINE_CALLS:
            setattr(pipeline, attr, self._spanned(name, getattr(pipeline, attr)))
        self._count_series_mul(q.TruncatedSeries)
        self._count_calls(q.QuadExt, "__mul__", "quadext.mul_calls")
        q.QuadExt.__rmul__ = q.QuadExt.__mul__   # the class binds __rmul__ to the original
        self._count_calls(q.funcfield, "poly_gcd", "polys.poly_gcd_calls")
        self._count_calls(q.polys, "poly_gcd", "polys.poly_gcd_calls")

    def _spanned(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None, None]
            if name == "pipeline.analyze_disk":
                rec[5], rec[6] = str(args[1]), DISK_KINDS[args[1].kind]
            stack.append(len(spans))
            spans.append(rec)
            counts[name + "_calls"] += 1
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if name == "funcfield.chart_for" and stack and spans[stack[-1]][6] == "nw":
                spans[stack[-1]][6] = "nw_quadratic" if out.embedding is not None else "nw_rational"
            return out

        return wrapper

    def _count_calls(self, owner, attr, counter):
        fn, counts = getattr(owner, attr), self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def _count_series_mul(self, series_cls):
        fn, counts = series_cls.__mul__, self.counts

        def __mul__(a, b):
            if isinstance(b, series_cls):
                ca, cb = a.coeffs, b.coeffs
                n = min(len(ca), len(cb))
                # nonzero_b[k] = number of nonzero b_j with j < k
                nonzero_b = list(accumulate((1 if c else 0 for c in cb[:n]), initial=0))
                counts["series.mul_calls"] += 1
                counts["series.mul_coeff_products"] += sum(
                    nonzero_b[n - i] for i, c in enumerate(ca[:n]) if c
                )
            return fn(a, b)

        series_cls.__mul__ = __mul__


def self_times(spans, first=0):
    """Span index -> self time (duration minus direct children) for spans[first:]."""
    out = {i: spans[i][2] - spans[i][1] for i in range(first, len(spans))}
    for i in range(first, len(spans)):
        parent = spans[i][3]
        if parent >= first:
            out[parent] -= spans[i][2] - spans[i][1]
    return out
