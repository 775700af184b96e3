"""Per-disk analysis: operators, certificates, zero counts, and disk bounds.

Operator selection mirrors the constructions the bounds are proved with:

* odd models whose double-integral matrix touches only the omega_0 row (the
  rank-1 integral-point shape) use D = (d/omega_0)^2 on every affine disk.
* general affine non-Weierstrass disks use D = (d/dx)^q (d/omega_0), with
  q = 2g+1 on even models and 2g on odd ones.
* both candidates D(G) are ``coleman.algebraic_image`` of the planned
  operator: D applied to G symbolically, an exact CurveFunction; it raises
  unless every integral has cancelled.
* Weierstrass disks outside the order-2 shape use the divided-power
  annihilator in the disk coordinate composed with d/omega_0.  It has no
  candidate.
* the infinite disks of an even model are handled jointly by the ledger
  degree of the flipped-model analysis (expanding G there would need the
  transformed constants, which require global reduction machinery): inf+
  carries the joint bound, and inf- reports N_b 0 and bound 0, counted
  jointly with it.  Odd models exclude infinity (integral-point semantics).

Every planned operator is D = D1 o d/omega_0, and the plan keeps only its
d/dx factor D1: (d/dx)^q, or y d/dx on the order-2 shape.  D itself is
built once per plan, inside the candidate function, for
``algebraic_image``.  The Weierstrass annihilator, the D1 of the disks
outside the order-2 shape, is built on each chart.

Every affine disk builds its chart and its operator in the disk parameter
t, L = sum G_k (d/dt)^k, in one way: ``compose_with_base(local_operator(D1,
chart), "omega0", chart)`` (``local_operator`` returns the annihilator
unchanged).  So where D has coefficients binom(q, k) y^(k) over powers of f,
L has binom(q, k) times the k-th derivative of the one chart series
V = y/(dx/dt).  Each derivative gives up a coefficient: on a
non-Weierstrass chart slot j of L (order N) is known to T - 1 - (N - j)
coefficients, and a chart with T <= N raises PrecisionError.  The shorter
scan cannot change niceness: there L's coefficients are binomials times
derivatives of y(t), or products of y(t) and its derivatives on the order-2
shape, all in Z_p[[t]], and the leading one starts with a power of the unit
y(0), so both witnesses read 0 whatever the truncation.

The niceness certificate scans L.  The zero count N_b takes one of two
routes, chosen by whether the plan has a candidate, not by the kind of
disk:

* with a candidate F = D(G), every affine disk, Weierstrass points included,
  reads N_b from the reduction of F mod p, ``CurveFunction.order_mod_p`` at
  (x_bar, y_bar).  By Weierstrass preparation that order is the number of
  C_p zeros of F on the whole disk, at most the polar degree of F.  No series
  of G or of F is built, and neither T nor the input floor enters N_b.
  ``certified_algebraic`` is true: D(G) is ``algebraic_image``'s exact output.
* a disk of the Weierstrass annihilator expands G on its chart, applies L to
  it and reads N_b as the least index of minimal valuation of D(G), certified
  against the integrality floor of the inputs or, when T exceeds it, by the
  proof's output-ledger degree; else N_b is that degree.

``run_pipeline`` plans each spec once (``SpecPlan``) and sends every disk,
both infinite ones included, through ``analyze_disk``.  The input floor,
the d/dx factor D1 of each affine disk kind, the candidate image and the
candidate's polar degree depend on the spec only.  A DomainError or
PrecisionError raised while planning a disk kind is kept in place of its
entry, and each disk of that kind raises it again right after its chart is
built, so it is reported on the disk.  The plan holds spec-level data
only: no two disks share a chart, a series or a local operator, so a disk
analysed alone reports what it reports in a run.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .bounds import ledger_degrees, per_disk_bound, strict_integer_bound
from .coleman import (
    algebraic_image,
    certify_algebraic,  # not called here: perfbench/probes.py wraps this name in traced runs
    expand_G,
)
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
    primitive_denominator,
    weierstrass_order,
)
from .hyperelliptic import residue_disks, value_mod
from .padics import INFINITY, kappa, valuation
from .polys import Poly
from .series import lowest_valuation


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
    for F in (spec.h, spec.eta):
        for part in (F.a, F.b) if F else ():
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

    Read from its f-power form (A + B y) / (f^k E): exact at infinity (from
    the degrees) and along W (from how many times f divides A and B); finite
    non-Weierstrass poles, which enter through rational eta or h parts in E,
    are bounded through the degree of E.
    """
    n_inf = infinity_pole_order(F)
    min_w = weierstrass_order(F)
    inf_deg = 2 if F.model.kind == "even" else 1
    w_deg = F.model.f.degree
    return (
        max(n_inf, 0) * inf_deg
        + max(-min_w, 0) * w_deg
        + finite_nonweierstrass_pole_degree(F)
    )


def _order2_factor(C):
    """y d/dx, the d/dx factor of the order-2 shape's operator."""
    return DifferentialOperator([CurveFunction.const(C, 0), CurveFunction.y(C)], base="dx")


def _nonweierstrass_factor(C):
    """(d/dx)^q, q = 2g+1 on even models and 2g on odd ones: the d/dx factor
    of the general affine non-Weierstrass operator."""
    q = C.basis_size
    return DifferentialOperator([CurveFunction.const(C, 0)] * q + [CurveFunction.const(C, 1)], base="dx")


def _order2_operator(C):
    """(d/omega_0)^2 = f (d/dx)^2 + (f'/2) d/dx, the operator of the order-2 shape."""
    return compose_with_base(_order2_factor(C), "omega0")


def _nonweierstrass_operator(C):
    """(d/dx)^q (d/omega_0), q = 2g+1 on even models and 2g on odd ones."""
    return compose_with_base(_nonweierstrass_factor(C), "omega0")


def order2_candidate(spec):
    """(d/omega_0)^2 G, the algebraic image of the order-2 shape's operator."""
    return algebraic_image(_order2_operator(spec.curve), spec)


def nonweierstrass_candidate(spec):
    """(d/dx)^q (d/omega_0) G, the algebraic image of the general affine
    non-Weierstrass operator."""
    return algebraic_image(_nonweierstrass_operator(spec.curve), spec)


def algebraic_zero_count(F_series, p, floor_val, degree_bound, val=None):
    """(n_b, method) from D(G)'s series on a disk of the Weierstrass annihilator
    (no candidate): the least index of minimal valuation, certified by the input
    floor or, when T exceeds it, by the ledger degree; else that degree."""
    best_i, best_v = lowest_valuation(F_series, p, val=val)
    if best_i is not None and best_v <= floor_val:
        return best_i, "reduction order"
    if F_series.truncation > degree_bound and best_i is not None and best_i <= degree_bound:
        return best_i, "reduction order (degree-certified)"
    return degree_bound, "ledger degree"


class _Planned(NamedTuple):
    """The plan of one affine disk kind.  ``D1`` is the d/dx factor of the
    planned operator D = D1 o d/omega_0, whose order is ``order``.  ``D1``
    is None for the Weierstrass annihilator, built on each chart with no
    candidate, whose ``degree`` is the proof's output-ledger degree; else
    ``candidate`` is D(G) and ``degree`` its polar degree, None when the
    candidate is zero."""

    D1: object
    description: str
    order: int
    candidate: object
    degree: int


def _plan_affine(spec, kind):
    """The ``_Planned`` entry of an affine disk kind, or the DomainError or
    PrecisionError that planning it raised.

    The candidate comes from ``order2_candidate(spec)`` or
    ``nonweierstrass_candidate(spec)``, once per plan.  Its reduced view,
    which ``order_mod_p`` and the report read, is built here too, so that no
    planning work falls into a disk's time.
    """
    C = spec.curve
    try:
        if uses_order2_shape(spec):
            D1, description, candidate = _order2_factor(C), "(d/omega_0)^2", order2_candidate(spec)
        elif kind == "affine_nonweierstrass":
            D1, description = _nonweierstrass_factor(C), f"(d/dx)^{C.basis_size} (d/omega_0)"
            candidate = nonweierstrass_candidate(spec)
        else:
            case = "hyper_W" if C.kind == "even" else "integral_W"
            return _Planned(None, "weierstrass divided-power annihilator (d/omega_0)", 2 * C.basis_size,
                            None, ledger_degrees(C.genus)[case])
        candidate.view()
        return _Planned(D1, description, D1.order + 1, candidate, polar_degree(candidate) if candidate else None)
    except (DomainError, PrecisionError) as exc:
        return exc


class SpecPlan:
    """Spec-level data, built once per run: the input floor, ``eta_den`` and
    one ``_plan_affine`` entry per affine disk kind among ``disks`` (a single
    one for every affine disk on the order-2 shape): the d/dx factor D1 of
    its operator, the candidate and its polar degree.  Nothing in it
    depends on a disk.  Planning first runs ``ColemanSpec.check_constants``,
    so a constants key added after the spec was built fails the run with
    DomainError before any disk is analysed.
    """

    def __init__(self, spec, disks):
        spec.check_constants()
        self.spec = spec
        self.floor = spec_input_floor(spec)
        self.eta_den = primitive_denominator(spec.eta) if spec.eta else Poly([1])
        kinds = sorted({d.kind for d in disks} - {"infinite"})
        if uses_order2_shape(spec) and kinds:
            self.operators = dict.fromkeys(kinds, _plan_affine(spec, kinds[0]))
        else:
            self.operators = {kind: _plan_affine(spec, kind) for kind in kinds}


def analyze_disk(spec, disk):
    """Full analysis of one residue disk; errors on the disk are captured,
    not raised.

    ``spec`` is a ColemanSpec, or the SpecPlan of a run that covers ``disk``.
    Given a ColemanSpec, a disk that is not a residue disk of the curve mod p,
    or a constants key that names none, raises DomainError.
    """
    plan = spec
    if not isinstance(plan, SpecPlan):
        if disk not in residue_disks(spec.curve, spec.p):
            raise DomainError(f"{disk} is not a residue disk of this curve mod {int(spec.p)}")
        plan = SpecPlan(spec, [disk])
    spec = plan.spec
    C = spec.curve
    p = spec.p
    ana = DiskAnalysis(disk=disk)
    try:
        if disk.kind == "infinite":
            return _analyze_infinite(spec, disk, ana)
        if not value_mod(plan.eta_den, disk.x_bar, p):
            raise DomainError(
                f"eta has a pole on this disk: {plan.eta_den!r} vanishes at x = {disk.x_bar} mod {p}")
        chart = chart_for(C, disk, p, spec.T)
        ana.parameter = chart.description
        ana.lift = str(chart.center)
        planned = plan.operators[disk.kind]
        if isinstance(planned, Exception):
            raise planned.with_traceback(None)
        D1, ana.operator, ana.order, candidate, degree = planned
        if candidate is None:   # Weierstrass annihilator: no candidate, N_b from D(G)'s series
            G = expand_G(spec, chart)
        elif not candidate:
            ana.error = "D(G) is identically zero; no zero-count bound (degenerate constants)"
            return ana
        L = compose_with_base(local_operator(D1 or weierstrass_local_annihilator(chart), chart), "omega0", chart)
        ana.order = L.order
        ana.nice = check_nice(L, p, chart=chart)
        ana.dg_candidate = candidate
        if candidate is None:
            ana.n_b, ana.n_b_method = algebraic_zero_count(apply_series(L, G), p, plan.floor, degree,
                                                           val=chart.valuation_of)
        else:
            ana.n_b = candidate.order_mod_p(disk.x_bar, disk.y_bar, p, degree)
            ana.certified, ana.n_b_method = True, "reduction order"
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
    ana.operator = f"(d/dx)^{q} (d/omega_0) on the flipped model"
    ana.order = q + 1
    if disk.label == "inf-":
        ana.n_b, ana.bound = 0, 0
        ana.n_b_method = "counted jointly with the other infinite disk"
        return ana
    degree = ledger_degrees(g)["hyper_nonW"]      # read on the flipped model
    ana.n_b = degree
    ana.n_b_method = "ledger degree, flipped model, both infinite disks jointly"
    ana.bound = max(0, strict_integer_bound(kappa(spec.p) * (degree + 2 * (q + 1))))
    return ana


def run_pipeline(spec):
    """Analyze every residue disk of one spec, planned once; per-disk failures
    are collected."""
    disks = residue_disks(spec.curve, spec.p)
    plan = SpecPlan(spec, disks)
    analyses = [analyze_disk(plan, disk) for disk in disks]
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
