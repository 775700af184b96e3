"""N_b on non-Weierstrass disks from the reduction of D(G) mod p.

``CurveFunction.order_mod_p`` reads the zero count of an algebraic function
on a residue disk from its reduction, with no p-adic series.  The series
route it replaced in ``analyze_disk`` is rebuilt here as the oracle:
``expand_G`` -> ``local_operator`` -> ``apply_series`` -> ``certify_algebraic``
-> ``algebraic_zero_count``.  Wherever that route certifies a reduction
order, the pipeline's ``n_b`` must equal it.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcbound.coleman import ColemanSpec, certify_algebraic, expand_G
from qcbound.diffops import apply_series, local_operator
from qcbound.errors import DomainError, PrecisionError
from qcbound.funcfield import CurveFunction, RationalFunc, chart_for
from qcbound.hyperelliptic import CurveModel, has_smooth_reduction, residue_disks, value_mod
from qcbound.pipeline import SpecPlan, algebraic_zero_count, analyze_disk
from qcbound.polys import Poly
from qcbound.series import lowest_valuation

ELLIPTIC = CurveModel("odd", [1, 1, 0, 1])       # y^2 = x^3 + x + 1


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

    def test_weierstrass_point_refused(self):
        C = CurveModel("odd", [0, -1, 0, 1])      # y^2 = x^3 - x
        with pytest.raises(DomainError, match="not a non-Weierstrass point"):
            CurveFunction.x(C).order_mod_p(0, 0, 5, limit=2)


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


def series_route(plan, disk):
    """(certified, n_b, method) from the series route on one disk."""
    spec = plan.spec
    chart = chart_for(spec.curve, disk, spec.p, spec.T)
    planned = plan.operators[disk.kind]
    D, _, _, candidate = planned.operator()
    DG = apply_series(local_operator(D, chart), expand_G(spec, chart))
    certified = certify_algebraic(DG, candidate, chart)
    n_b, method = algebraic_zero_count(DG, spec.p, plan.floor, planned.degree(), val=chart.valuation_of)
    return certified, n_b, method


class TestSeriesRouteOracle:
    @settings(max_examples=40, deadline=None)
    @given(specs(), st.randoms(use_true_random=False))
    def test_reduction_order_matches_the_series_route(self, spec, rng):
        disks = residue_disks(spec.curve, spec.p)
        nw = [d for d in disks if d.kind == "affine_nonweierstrass"]
        assume(nw)
        plan = SpecPlan(spec, disks)
        try:
            candidate = plan.operators["affine_nonweierstrass"].operator()[3]
        except DomainError:
            assume(False)
        assume(candidate)
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
