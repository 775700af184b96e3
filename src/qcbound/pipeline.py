"""Per-disk analysis: operators, certificates, zero counts, and disk bounds.

Operator selection mirrors the constructions the bounds are proved with:

* odd models whose double-integral matrix touches only the omega_0 row (the
  rank-1 integral-point shape) use D = (d/omega_0)^2 on every affine disk;
  its image is the algebraic function sum_j a_0j x^j + ... directly.
* general affine non-Weierstrass disks use D = (d/dx)^q (d/omega_0), with
  q = 2g+1 on even models and 2g on odd ones; the algebraic image is the
  binomial sum over derivatives of x^j/y, computed exactly as a
  CurveFunction and certified against the expansion.
* Weierstrass disks (genus >= 2) use the divided-power annihilator in the
  disk coordinate composed with d/omega_0; the zero count falls back to the
  proof's output-ledger degree unless the truncation exceeds it.
* the infinite disks of an even model are handled jointly by the ledger
  degree of the flipped-model analysis (expanding G there would need the
  transformed constants, which require global reduction machinery); odd
  models exclude infinity (integral-point semantics).

Both composed operators come from ``diffops.compose_with_base``: the
non-Weierstrass one from algebraic coefficients, the Weierstrass one from
series coefficients in the disk coordinate.

Every affine disk runs one flow on L = sum G_k (d/dt)^k, its operator in
the disk parameter t (``diffops.local_operator`` of the planned D, or the
composed Weierstrass annihilator, already in t): the niceness certificate
scans L, D(G) = ``apply_series(L, G)``, and the zero count reads D(G)
through the chart.  Only disks with a planned candidate certify D(G).

The per-disk zero count N_b of the algebraic image F is the least index of
minimal valuation of its expansion: by Weierstrass preparation this is the
number of C_p zeros of F on the whole disk.  It is certified either against
the integrality floor of the inputs or against the polar-degree bound of the
certified candidate (min S(F) never exceeds the polar degree).

``run_pipeline`` plans each spec once (``SpecPlan``) before its disk loop:
the input floor, the operator of each affine disk kind, the candidate image
and the candidate's polar degree depend on the spec only.  A DomainError or
PrecisionError raised while planning is kept and reported on each disk that
needs the entry, at the step where that disk would have raised it.

Within one run, two non-Weierstrass disks share their exact series when the
chart centre (x0, sqrt d) lies in Q(sqrt d) and both the truncation T and
``spec.constants_for(disk)`` agree.  That is the conjugate pair (x, y),
(x, -y): both charts expand the same series and differ only in the p-adic
embedding of sqrt d.  The pair computes once G, the local operator L, D(G)
and the algebraic certificate.  Each disk still builds its own chart and,
through its own embedding, takes the niceness valuation scan and the zero
count.  Centres with a rational
y0 = +-r give different series and share nothing.  The plan and the shared
series live for one ``run_pipeline`` call only.
"""

from dataclasses import dataclass
from math import comb

from .bounds import per_disk_bound, strict_integer_bound
from .coleman import certify_algebraic, expand_G
from .diffops import (
    DifferentialOperator,
    apply_on_chart,  # not called here: perfbench/probes.py wraps this name in traced runs
    apply_series,
    check_nice,
    compose_with_base,
    local_operator,
    weierstrass_local_annihilator,
)
from .errors import DomainError, PrecisionError
from .funcfield import (
    CurveFunction,
    chart_for,
    finite_nonweierstrass_pole_degree,
    infinity_pole_order,
    weierstrass_order_range,
)
from .hyperelliptic import residue_disks
from .padics import INFINITY, kappa, valuation
from .polys import Poly
from .series import lowest_valuation, min_valuation_index


@dataclass
class DiskAnalysis:
    disk: object
    parameter: str = ""
    lift: str = ""
    operator: str = ""
    order: int = 0
    nice: object = None
    dg_candidate: object = None
    certified: object = None
    n_b: int = None
    n_b_method: str = ""
    bound: int = None
    error: str = None
    needed_T: int = None

    @property
    def ok(self):
        return self.error is None


@dataclass
class PipelineResult:
    analyses: list
    total_bound: int = None
    infinite_note: str = ""
    spec_floor: int = 0

    @property
    def ok(self):
        return all(a.ok for a in self.analyses)

    def failed(self):
        return [a for a in self.analyses if not a.ok]

    @property
    def inner_sum(self):
        """Sum of (N_b + N) over the counted disks (the kappa-free inner total)."""
        total = 0
        for a in self.analyses:
            if a.ok and a.n_b is not None and "excluded" not in a.n_b_method:
                total += a.n_b + a.order
        return total


def spec_input_floor(spec):
    """Minimal p-adic valuation over all user-supplied constants, capped at 0."""
    vals = [0]
    for row in spec.a_matrix:
        vals.extend(valuation(c, spec.p) for c in row if c)
    vals.extend(valuation(c, spec.p) for c in spec.a_vector if c)
    for part in (spec.h.a, spec.h.b) if spec.h else ():
        vals.extend(valuation(c, spec.p) for c in part.num.coeffs if c)
        vals.extend(valuation(c, spec.p) for c in part.den.coeffs if c)
    if spec.eta:
        for part in (spec.eta.a, spec.eta.b):
            vals.extend(valuation(c, spec.p) for c in part.num.coeffs if c)
            vals.extend(valuation(c, spec.p) for c in part.den.coeffs if c)
    for const in spec.constants.values():
        vals.extend(valuation(c, spec.p) for c in const.singles if c)
        for row in const.doubles:
            vals.extend(valuation(c, spec.p) for c in row if c)
    return min(v for v in vals if v != INFINITY)


def uses_order2_shape(spec):
    """True when only the omega_0 row of the double-integral matrix is populated
    and there is no eta term (the shape annihilated by (d/omega_0)^2 on odd
    models)."""
    if spec.curve.kind != "odd":
        return False
    if spec.eta is not None and spec.eta:
        return False
    return all(not c for row in spec.a_matrix[1:] for c in row)


def polar_degree(F):
    """Degree of the polar divisor of a nonzero CurveFunction.

    Exact at infinity (by expansion) and along W (by the norm); finite
    non-Weierstrass poles, which enter through rational eta or h parts, are
    bounded through the denominator degrees.
    """
    n_inf = infinity_pole_order(F)
    min_w, _ = weierstrass_order_range(F)
    inf_deg = 2 if F.model.kind == "even" else 1
    w_deg = F.model.f.degree
    return (
        max(n_inf, 0) * inf_deg
        + max(-min_w, 0) * w_deg
        + finite_nonweierstrass_pole_degree(F)
    )


def order2_candidate(spec):
    """(d/omega_0)^2 G = sum_j a_0j x^j + sum_i a_i (d/omega_0)(x^i) + (d/omega_0)^2 h."""
    C = spec.curve
    out = CurveFunction.const(C, 0)
    x_pow = CurveFunction.const(C, 1)
    for j, a in enumerate(spec.a_matrix[0]):
        if a:
            out = out + x_pow * a
        x_pow = x_pow * CurveFunction.x(C)
    x_pow = CurveFunction.const(C, 1)
    for i, a in enumerate(spec.a_vector):
        if a and i:        # (d/omega_0)^2 int omega_i = (d/omega_0)(x^i); zero for i = 0
            out = out + x_pow.d_by_omega0() * a
        x_pow = x_pow * CurveFunction.x(C)
    if spec.h:
        out = out + spec.h.d_by_omega0().d_by_omega0()
    return out


def nonweierstrass_candidate(spec):
    """The algebraic image of G under (d/dx)^q (d/omega_0), q = 2g+1 or 2g.

    Single integrals die ((d/dx)^q kills polynomials of degree < q); double
    integrals leave the binomial sum over derivatives of x^j/y; h contributes
    (d/dx)^q (y h'); an eta term contributes (d/dx)^q (y e).
    """
    C = spec.curve
    q = C.basis_size
    # chains[j][m] = (d/dx)^m (x^j / y)
    n = len(spec.basis)
    chains = []
    for j in range(n):
        chain = [CurveFunction.x_power_over_y(C, j)]
        for _ in range(q - 1):
            chain.append(chain[-1].d_dx())
        chains.append(chain)
    out = CurveFunction.const(C, 0)
    for i in range(n):
        for j in range(n):
            a = spec.a_matrix[i][j]
            if not a:
                continue
            term = CurveFunction.const(C, 0)
            falling = 1
            for k in range(min(i, q - 1) + 1):
                piece = CurveFunction(C, Poly.x_power(i - k)) * chains[j][q - k - 1]
                term = term + piece * (comb(q, k) * falling)
                falling *= i - k
            out = out + term * a
    if spec.eta:
        cur = spec.eta * CurveFunction.y(C)
        for _ in range(q):
            cur = cur.d_dx()
        out = out + cur
    if spec.h:
        cur = spec.h.d_by_omega0()
        for _ in range(q):
            cur = cur.d_dx()
        out = out + cur
    return out


def algebraic_zero_count(F_series, p, floor_val, degree_bound, val=None):
    """(n_b, method) for a certified-algebraic image on one disk."""
    try:
        return min_valuation_index(F_series, p, floor_val, val=val), "reduction order"
    except PrecisionError:
        pass
    if degree_bound is not None and F_series.truncation > degree_bound:
        best_i, _ = lowest_valuation(F_series, p, val=val)
        if best_i is not None and best_i <= degree_bound:
            return best_i, "reduction order (degree-certified)"
    if degree_bound is not None:
        return degree_bound, "ledger degree"
    raise PrecisionError(
        "zero count not certifiable at this truncation",
        needed=2 * F_series.truncation,
    )


def _operator_for_affine(spec, kind):
    """(operator object or None, description, order, candidate or None) for an
    affine disk kind."""
    C = spec.curve
    if uses_order2_shape(spec):
        D = DifferentialOperator(
            [CurveFunction.const(C, 0), CurveFunction.const(C, 0), CurveFunction.const(C, 1)],
            base="omega0",
        )
        return D, "(d/omega_0)^2", 2, order2_candidate(spec)
    q = C.basis_size
    if kind == "affine_nonweierstrass":
        ddx_q = DifferentialOperator(
            [CurveFunction.const(C, 0)] * q + [CurveFunction.const(C, 1)], base="dx"
        )
        D = compose_with_base(ddx_q, "omega0")
        return D, f"(d/dx)^{q} (d/omega_0)", q + 1, nonweierstrass_candidate(spec)
    return None, "weierstrass divided-power annihilator (d/omega_0)", 2 * q, None


def _weierstrass_output_degree(curve):
    g = curve.genus
    if curve.kind == "even":
        return 2 * (4 * g**3 + 24 * g**2 - 2 * g + 4)
    return 8 * g**3 + 36 * g**2 - 38 * g + 13


def _attempt(build, *args):
    """build(*args), or the DomainError or PrecisionError it raised."""
    try:
        return build(*args)
    except (DomainError, PrecisionError) as exc:
        return exc


def _unwrap(outcome):
    """The value kept by ``_attempt``; a kept error is raised again."""
    if isinstance(outcome, (DomainError, PrecisionError)):
        raise outcome.with_traceback(None)
    return outcome


class _OperatorPlan:
    """The operator of one affine disk kind, its candidate and polar degree."""

    def __init__(self, spec, kind):
        self._operator = _attempt(_operator_for_affine, spec, kind)
        self._degree = None
        if not isinstance(self._operator, Exception):
            D, _, _, candidate = self._operator
            if D is None:
                self._degree = _weierstrass_output_degree(spec.curve)
            elif candidate:
                self._degree = _attempt(polar_degree, candidate)

    def operator(self):
        """(D or None, description, order, candidate or None)."""
        return _unwrap(self._operator)

    def degree(self):
        """Polar degree of the (nonzero) candidate; for the Weierstrass
        annihilator, the proof's output-ledger degree."""
        return _unwrap(self._degree)


class SpecPlan:
    """Spec-level data built once and shared by the disks of one run.

    Holds the input floor and one ``_OperatorPlan`` per affine disk kind among
    ``disks`` (a single one for every affine disk on the order-2 shape), plus
    the memo of exact series that a conjugate quadratic pair shares.
    """

    def __init__(self, spec, disks):
        self.spec = spec
        self.floor = spec_input_floor(spec)
        kinds = sorted({d.kind for d in disks} - {"infinite"})
        if uses_order2_shape(spec) and kinds:
            self.operators = dict.fromkeys(kinds, _OperatorPlan(spec, kinds[0]))
        else:
            self.operators = {kind: _OperatorPlan(spec, kind) for kind in kinds}
        self._pairs = {}

    def exact_series(self, chart):
        """Memo of the exact series on one disk's chart.

        The memo is shared with the conjugate disk when the centre is
        quadratic and T and the disk constants agree; it is dropped from the
        plan once the second disk of the pair has taken it.  Any other chart
        gets a fresh memo.
        """
        if chart.embedding is None:
            return {}
        c = self.spec.constants_for(chart.disk)
        key = (chart.center, chart.T, tuple(c.singles), tuple(map(tuple, c.doubles)), c.eta)
        memo = self._pairs.pop(key, None)
        if memo is None:
            memo = self._pairs[key] = {}
        return memo


def _once(memo, name, compute, *args):
    """memo[name], computed as compute(*args) the first time."""
    if name not in memo:
        memo[name] = compute(*args)
    return memo[name]


def analyze_disk(spec, disk):
    """Full analysis of one residue disk; errors are captured, not raised.

    ``spec`` is a ColemanSpec, or the SpecPlan of a run that covers ``disk``.
    """
    plan = spec if isinstance(spec, SpecPlan) else SpecPlan(spec, [disk])
    spec = plan.spec
    C = spec.curve
    p = spec.p
    ana = DiskAnalysis(disk=disk)
    try:
        if disk.kind == "infinite":
            return _analyze_infinite(spec, disk, ana)
        chart = chart_for(C, disk, p, spec.T)
        ana.parameter = chart.description
        ana.lift = str(chart.center)
        planned = plan.operators[disk.kind]
        D, desc, order, candidate = planned.operator()
        ana.operator, ana.order = desc, order
        exact = plan.exact_series(chart)
        G = _once(exact, "G", expand_G, spec, chart)
        if D is None:   # Weierstrass disk: the composed annihilator is already in t
            L = compose_with_base(weierstrass_local_annihilator(chart), "omega0", chart)
        elif not candidate:
            ana.error = "D(G) is identically zero; no zero-count bound (degenerate constants)"
            return ana
        else:
            L = _once(exact, "L", local_operator, D, chart)
        ana.order = L.order
        ana.nice = check_nice(L, p, chart=chart)
        DG = _once(exact, "DG", apply_series, L, G)
        ana.dg_candidate = candidate
        degree = planned.degree()
        if candidate is not None:
            ana.certified = _once(exact, "certified", certify_algebraic, DG, candidate, chart)
            if not ana.certified:
                ana.error = "algebraic certification failed"
                return ana
        ana.n_b, ana.n_b_method = algebraic_zero_count(
            DG, p, plan.floor, degree, val=chart.valuation_of
        )
        if not ana.nice.ok:
            ana.error = (
                f"operator not nice: coefficient {ana.nice.failure_index} has "
                f"valuation {ana.nice.failure_valuation}"
            )
            return ana
        ana.bound = per_disk_bound(ana.n_b, ana.order, p)
    except PrecisionError as exc:
        ana.error = f"insufficient precision: {exc}"
        ana.needed_T = exc.needed or 2 * spec.T
    except DomainError as exc:
        ana.error = str(exc)
    return ana


def _analyze_infinite(spec, disk, ana):
    C = spec.curve
    g = C.genus
    ana.parameter = "t = 1/x" if C.kind == "even" else "t = x^g/y"
    if C.kind == "odd":
        ana.operator = "excluded (integral-point semantics: Y = X - infinity)"
        ana.n_b, ana.bound = 0, 0
        ana.n_b_method = "excluded disk"
        return ana
    q = 2 * g + 1
    degree = 8 * g**2 + 12 * g + 4      # deg((g+1) infinity + (4g+1) W) on the flipped model
    ana.operator = f"(d/dx)^{q} (d/omega_0) on the flipped model"
    ana.order = q + 1
    ana.n_b = degree
    ana.n_b_method = "ledger degree, flipped model, both infinite disks jointly"
    ana.bound = max(0, strict_integer_bound(kappa(spec.p) * (degree + 2 * (q + 1))))
    return ana


def run_pipeline(spec):
    """Analyze every residue disk of one spec, planned once; per-disk failures
    are collected."""
    disks = residue_disks(spec.curve, spec.p)
    plan = SpecPlan(spec, disks)
    analyses = []
    infinite_done = False
    for disk in disks:
        if disk.kind == "infinite" and spec.curve.kind == "even":
            if infinite_done:
                ref = next(a for a in analyses if a.disk.kind == "infinite")
                twin = DiskAnalysis(
                    disk=disk,
                    parameter=ref.parameter,
                    operator=ref.operator,
                    order=ref.order,
                    n_b=0,
                    n_b_method="counted jointly with the other infinite disk",
                    bound=0,
                )
                analyses.append(twin)
                continue
            infinite_done = True
        analyses.append(analyze_disk(plan, disk))
    total = None
    if all(a.ok and a.bound is not None for a in analyses):
        total = sum(a.bound for a in analyses)
    return PipelineResult(
        analyses=analyses,
        total_bound=total,
        infinite_note=(
            "even-model infinite disks are bounded jointly through the flipped-model ledger"
            if spec.curve.kind == "even"
            else "the infinite disk is excluded (integral points)"
        ),
        spec_floor=plan.floor,
    )


def result_to_json(result):
    out = {
        "total_bound": result.total_bound,
        "infinite_note": result.infinite_note,
        "disks": [],
    }
    for a in result.analyses:
        entry = {
            "disk": str(a.disk),
            "kind": a.disk.kind,
            "parameter": a.parameter,
            "lift": a.lift,
            "operator": a.operator,
            "order": a.order,
            "n_b": a.n_b,
            "n_b_method": a.n_b_method,
            "bound": a.bound,
            "certified_algebraic": a.certified,
            "error": a.error,
            "needed_T": a.needed_T,
        }
        if a.nice is not None:
            entry["nice"] = {
                "ok": a.nice.ok,
                "integrality_witness": _val_str(a.nice.integrality_witness),
                "unit_witness": _val_str(a.nice.unit_witness),
            }
        if a.dg_candidate is not None:
            entry["dg_candidate"] = repr(a.dg_candidate)
        out["disks"].append(entry)
    return out


def _val_str(v):
    if v is None:
        return None
    return str(v) if v == INFINITY else int(v)
