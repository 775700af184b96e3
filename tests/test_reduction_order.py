"""N_b on affine disks from the reduction of D(G) mod p.

``CurveFunction.order_mod_p`` reads the zero count of an algebraic function
on a residue disk from its reduction, with no p-adic series, at
non-Weierstrass and Weierstrass points alike.  The series route it replaced
in ``analyze_disk`` is rebuilt here as the oracle: ``expand_G`` ->
``local_operator`` -> ``apply_series`` -> ``certify_algebraic`` ->
``algebraic_zero_count``.  Wherever that route certifies a reduction order,
the pipeline's ``n_b`` must equal it.  The orders read from one candidate
also sum to at most its polar degree.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from perfbench_support import workload_cases

from qcbound.coleman import ColemanSpec, certify_algebraic, expand_G
from qcbound.diffops import apply_series, local_operator
from qcbound.errors import DomainError, PrecisionError
from qcbound.funcfield import CurveFunction, RationalFunc, chart_for
from qcbound.hyperelliptic import CurveModel, has_smooth_reduction, residue_disks, value_mod
from qcbound.pipeline import SpecPlan, algebraic_zero_count, analyze_disk, polar_degree, run_pipeline
from qcbound.polys import Poly
from qcbound.series import lowest_valuation

ELLIPTIC = CurveModel("odd", [1, 1, 0, 1])       # y^2 = x^3 + x + 1
CONGRUENT = CurveModel("odd", [0, -1, 0, 1])     # y^2 = x^3 - x, W = {0, 1, -1}


def series_order(F, disk, p, T=12):
    """The least index of minimal valuation of F's expansion on the disk's chart."""
    chart = chart_for(F.model, disk, p, T)
    return lowest_valuation(chart.expand(F), p, val=chart.valuation_of)[0]


class TestHandCases:
    def test_tangent_line_needs_the_square_root_series(self):
        # y - 1 - x/2 is the tangent at (0, 1): y = 1 + x/2 - x^2/8 + ..., so
        # the order 2 comes only through s(t), and -1/8 is a unit mod 5 and 7
        F = CurveFunction(ELLIPTIC, Poly([-1, Fraction(-1, 2)]), Poly([1]))
        for p, y_bar in ((5, 1), (7, 1)):
            assert F.order_mod_p(0, y_bar, p, limit=3) == 2
        disk = next(d for d in residue_disks(ELLIPTIC, 5) if (d.x_bar, d.y_bar) == (0, 1))
        assert series_order(F, disk, 5) == 2
        # on the other sheet the line misses the curve: order 0
        assert F.order_mod_p(0, 4, 5, limit=3) == 0

    def test_content_divisible_by_p(self):
        # 5(x + 1) reduces to x + 1 after its content is taken out
        F = CurveFunction(ELLIPTIC, Poly([5, 5]))
        assert [F.order_mod_p(x_bar, y_bar, 5, limit=2) for x_bar, y_bar in ((4, 2), (4, 3), (0, 1))] == [1, 1, 0]

    def test_pole_on_the_disk_raises(self):
        # 1/(x - 7): the points over x = 7 lie in the disks above x_bar = 2
        F = CurveFunction(ELLIPTIC, RationalFunc(Poly([1]), Poly([-7, 1])))
        with pytest.raises(DomainError, match=r"pole on this disk: Poly\(-7 \+ x\) vanishes at x = 2 mod 5"):
            F.order_mod_p(2, 1, 5, limit=2)
        assert F.order_mod_p(0, 1, 5, limit=2) == 0

    def test_pole_off_every_affine_disk(self):
        # 1/(x - 7/5) has its pole at a non-integral x: E0 = 5x - 7 is a unit
        # at every x_bar, and the value there is a unit too
        F = CurveFunction(ELLIPTIC, RationalFunc(Poly([1]), Poly([Fraction(-7, 5), 1])))
        for disk in residue_disks(ELLIPTIC, 5):
            if disk.kind == "affine_nonweierstrass":
                assert F.order_mod_p(disk.x_bar, disk.y_bar, 5, limit=4) == 0 == series_order(F, disk, 5)

    def test_order_past_the_limit_is_a_bug(self):
        F = CurveFunction(ELLIPTIC, Poly([-1, Fraction(-1, 2)]), Poly([1]))
        with pytest.raises(RuntimeError, match="past its degree bound 1"):
            F.order_mod_p(0, 1, 5, limit=1)

    def test_weierstrass_point_orders(self):
        # y is a uniformizer at (0, 0) and x has order 2; x + 5 reduces to x,
        # and both points over x = -5 lie in the disk of (0, 0)
        x, y = CurveFunction.x(CONGRUENT), CurveFunction.y(CONGRUENT)
        disk = next(d for d in residue_disks(CONGRUENT, 5) if (d.x_bar, d.y_bar) == (0, 0))
        for F, n_b in ((x, 2), (y, 1), (x + 5, 2)):
            assert F.order_mod_p(0, 0, 5, limit=4) == n_b == series_order(F, disk, 5)

    def test_pole_at_the_weierstrass_point_raises(self):
        # x^0/y = 1/y has a simple pole at every point of W
        with pytest.raises(DomainError, match="pole along W"):
            CurveFunction.x_power_over_y(CONGRUENT, 0).order_mod_p(0, 0, 5, limit=4)

    def test_point_off_the_curve_refused(self):
        # f(2) = 6 is a unit mod 5, so (2, 0) is no point of the curve
        with pytest.raises(DomainError, match="not a point of the curve"):
            CurveFunction.x(CONGRUENT).order_mod_p(2, 0, 5, limit=4)


# -- the series route as the oracle -----------------------------------------------

small = st.integers(-3, 3)


@st.composite
def specs(draw):
    """A spec on a random squarefree curve of genus 1-3 with good reduction at
    p in {5, 7, 11, 13}; at genus 1-2 sometimes with an eta of finite poles
    at x = r (at genus 3 its candidate takes seconds to plan)."""
    g = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["odd", "even"]))
    p = draw(st.sampled_from([5, 7, 11, 13]))
    deg = 2 * g + (1 if kind == "odd" else 2)
    coeffs = draw(st.lists(small, min_size=deg, max_size=deg)) + [1]
    try:
        C = CurveModel(kind, coeffs)
    except DomainError:
        assume(False)
    assume(has_smooth_reduction(C, p) and not (kind == "even" and p == 2 * g + 1))
    n = C.basis_size
    a_matrix = [[Fraction(draw(small)) for _ in range(n)] for _ in range(n)]
    a_vector = [Fraction(draw(small)) for _ in range(n)]
    h = CurveFunction(C, Poly(draw(st.lists(small, max_size=g + 2))))
    eta = None
    where = draw(st.sampled_from(["none", "centre", "inside", "elsewhere"])) if g < 3 else "none"
    if where != "none":
        # dx/(x - r), and sometimes x^j/y beside it: r the centred lift of
        # some x_bar (the chart centre), another lift of it (inside the disk,
        # off its centre), or an x with no affine point above it mod p
        x_bars = sorted({d.x_bar for d in residue_disks(C, p) if d.kind != "infinite"})
        if where == "elsewhere":
            free = [x for x in range(p) if x not in x_bars]
            assume(free)
            r = draw(st.sampled_from(free)) + p * draw(st.integers(-1, 1))
        else:
            x_bar = draw(st.sampled_from(x_bars))
            r = x_bar if x_bar <= p // 2 else x_bar - p
            if where == "inside":
                r += p * draw(st.sampled_from([-1, 1]))
        assume(C.f(r) != 0)
        eta = CurveFunction(C, RationalFunc(Poly([draw(st.integers(1, 3))]), Poly([-r, 1])))
        if draw(st.booleans()):
            eta = eta + CurveFunction.x_power_over_y(C, draw(st.integers(0, n - 1)))
    T = draw(st.integers(12, 16))
    return ColemanSpec(curve=C, p=p, a_matrix=a_matrix, a_vector=a_vector, h=h, eta=eta, T=T)


@st.composite
def order2_specs(draw):
    """A spec of the order-2 shape on a random odd curve of genus 1-2 with good
    reduction at p in {5, 7, 11, 13}, and an integer root r of f, so that the
    Weierstrass disk of r mod p has a rational centre."""
    g = draw(st.integers(1, 2))
    p = draw(st.sampled_from([5, 7, 11, 13]))
    f = Poly([-draw(small), 1]) * Poly(draw(st.lists(small, min_size=2 * g, max_size=2 * g)) + [1])
    try:
        C = CurveModel("odd", f)
    except DomainError:
        assume(False)
    assume(has_smooth_reduction(C, p))
    n = C.basis_size
    a_matrix = [[Fraction(draw(small)) for _ in range(n)]] + [[Fraction(0)] * n for _ in range(n - 1)]
    a_vector = [Fraction(draw(small)) for _ in range(n)]
    h = CurveFunction(C, Poly(draw(st.lists(small, max_size=g + 2))))
    return ColemanSpec(curve=C, p=p, a_matrix=a_matrix, a_vector=a_vector, h=h, T=draw(st.sampled_from([12, 20])))


def series_route(plan, disk):
    """(certified, n_b, method) from the series route on one disk."""
    spec = plan.spec
    chart = chart_for(spec.curve, disk, spec.p, spec.T)
    D, _, _, candidate, degree = plan.operators[disk.kind]
    DG = apply_series(local_operator(D, chart), expand_G(spec, chart))
    certified = certify_algebraic(DG, candidate, chart)
    n_b, method = algebraic_zero_count(DG, spec.p, plan.floor, degree, val=chart.valuation_of)
    return certified, n_b, method


class TestSeriesRouteOracle:
    @settings(max_examples=40, deadline=None)
    @given(specs(), st.randoms(use_true_random=False))
    def test_reduction_order_matches_the_series_route(self, spec, rng):
        disks = residue_disks(spec.curve, spec.p)
        nw = [d for d in disks if d.kind == "affine_nonweierstrass"]
        assume(nw)
        plan = SpecPlan(spec, disks)
        planned = plan.operators["affine_nonweierstrass"]
        assume(not isinstance(planned, DomainError))     # a planning error kept for the disks
        assume(planned.candidate)
        poles = [d for d in nw if not value_mod(plan.eta_den, d.x_bar, spec.p)]
        for disk in poles:
            assert analyze_disk(plan, disk).error.startswith("eta has a pole on this disk")
        rest = [d for d in nw if d not in poles]
        for disk in rng.sample(rest, min(3, len(rest))):
            ana = analyze_disk(plan, disk)
            try:
                certified, n_b, method = series_route(plan, disk)
            except (DomainError, PrecisionError):
                continue
            assert certified
            assert (ana.certified, ana.n_b_method) == (True, "reduction order"), ana.error
            if method.startswith("reduction order"):
                assert ana.n_b == n_b, (disk, method)
            else:
                assert ana.n_b <= n_b      # within the ledger degree

    @settings(max_examples=40, deadline=None)
    @given(order2_specs())
    def test_weierstrass_reduction_order_matches_the_series_route(self, spec):
        disks = residue_disks(spec.curve, spec.p)
        plan = SpecPlan(spec, disks)
        planned = plan.operators["affine_weierstrass"]
        assume(not isinstance(planned, DomainError))     # a planning error kept for the disks
        assume(planned.candidate)
        compared = 0
        for disk in disks:
            if disk.kind != "affine_weierstrass":
                continue
            try:
                certified, n_b, method = series_route(plan, disk)
            except (DomainError, PrecisionError):
                continue      # no rational centre: no chart for either route
            ana = analyze_disk(plan, disk)
            assert certified
            assert (ana.certified, ana.n_b_method) == (True, "reduction order"), ana.error
            if method.startswith("reduction order"):
                assert ana.n_b == n_b, (disk, method)
                compared += 1
            else:
                assert ana.n_b <= n_b      # within the polar degree
        assume(compared)


class TestLedgerSums:
    @pytest.mark.parametrize("workload", ["genus2_even_p7", "genus1_batch"])
    def test_orders_from_one_candidate_sum_within_its_polar_degree(self, workload):
        # sum over P of ord_P(F mod p) <= deg(F mod p) <= polar_degree(F)
        for case in workload_cases(workload, 3):
            sums = Counter()
            for ana in run_pipeline(case.spec).analyses:
                if ana.certified and ana.n_b_method == "reduction order":
                    sums[ana.dg_candidate] += ana.n_b
            for F, total in sums.items():
                assert total <= polar_degree(F), (case.name, F)
