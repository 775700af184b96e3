"""The one local rewrite of every affine disk operator.

``analyze_disk`` builds L = compose_with_base(local_operator(D1, chart),
"omega0", chart) from the d/dx factor D1 of the plan.  The oracle is the
algebraic route: D = D1 o d/omega_0 built first, its f-power coefficients
expanded on the chart by ``local_operator(D, chart)``.  Both must give the
same operator, up to the shorter of the two truncations; on a
non-Weierstrass chart slot j of the pipeline's L (order N) is known to
T - 1 - (N - j) coefficients, since each derivative of y/(dx/dt) gives one
up.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from operator_oracle import algebraic_operator
from perfbench_support import workload_cases

from qcbound import pipeline
from qcbound.coleman import ColemanSpec
from qcbound.diffops import local_operator
from qcbound.errors import DomainError
from qcbound.funcfield import CurveFunction, DiskChart, chart_for
from qcbound.hyperelliptic import CurveModel, has_smooth_reduction, residue_disks
from qcbound.pipeline import SpecPlan, analyze_disk
from qcbound.polys import Poly


def pipeline_operators(plan, disks):
    """{disk: (analysis, L)} for the disks analysed with the plan, L as
    ``analyze_disk`` built it."""
    built = []
    compose = pipeline.compose_with_base

    def recorded(*args):
        built.append(compose(*args))
        return built[-1]

    out = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "compose_with_base", recorded)
        for disk in disks:
            built.clear()
            ana = analyze_disk(plan, disk)
            out[disk] = (ana, built[-1] if built else None)
    return out


def assert_same_operator(L, chart, spec, disk):
    """L has the order of the algebraic route's operator and agrees with it
    on every slot up to the shorter truncation; on a non-Weierstrass chart
    slot j >= 1 is known to exactly T - 1 - (N - j) coefficients."""
    oracle = local_operator(algebraic_operator(spec), chart)
    assert L.order == oracle.order, disk
    for j, (G, W) in enumerate(zip(L.coeffs, oracle.coeffs)):
        assert G.agrees_with(W), (str(disk), j)
    if disk.kind == "affine_nonweierstrass":
        N, T = L.order, chart.T
        assert [G.truncation for G in L.coeffs] == [T - 1] + [T - 1 - (N - j) for j in range(1, N + 1)], disk


class TestWorkloadDisks:
    @pytest.mark.parametrize("workload, disks", [("genus2_even_p7", 4), ("genus1_batch", 77)])
    def test_every_passing_disk_with_a_candidate_matches_the_algebraic_route(self, workload, disks):
        checked = 0
        for case in workload_cases(workload, 3):
            spec = case.spec
            every = residue_disks(spec.curve, spec.p)
            plan = SpecPlan(spec, every)
            affine = [d for d in every if d.kind != "infinite"]
            for disk, (ana, L) in pipeline_operators(plan, affine).items():
                if not ana.ok or ana.dg_candidate is None:
                    continue
                assert_same_operator(L, chart_for(spec.curve, disk, spec.p, spec.T), spec, disk)
                checked += 1
        assert checked == disks

    def test_genus2_even_truncation_profile(self):
        # the (2,2) disk of genus2_even_p7 at T = 52, order 6: the algebraic
        # route knows every slot to 51 or 52 coefficients
        (case,) = workload_cases("genus2_even_p7", 3)
        spec = case.spec
        disk = next(d for d in residue_disks(spec.curve, spec.p) if str(d) == "(2,2)")
        ((ana, L),) = pipeline_operators(SpecPlan(spec, [disk]), [disk]).values()
        assert ana.ok and spec.T == 52
        assert [G.truncation for G in L.coeffs] == [51, 46, 47, 48, 49, 50, 51]


class TestChartReads:
    @pytest.mark.parametrize("make_spec", [
        lambda: workload_cases("genus2_even_p7", 3)[0].spec,
        lambda: order2_spec(CurveModel("odd", [1, 1, 0, 1]), 5),
    ], ids=["general", "order2_shape"])
    def test_a_nonweierstrass_disk_expands_only_constants_and_y(self, monkeypatch, make_spec):
        # the f-power coefficients of D never meet the chart: only D1's
        # coefficients do, and those are constants or y
        spec = make_spec()
        C = spec.curve
        disk = next(d for d in residue_disks(C, spec.p) if d.kind == "affine_nonweierstrass")
        seen = []
        laurent = DiskChart.laurent
        monkeypatch.setattr(DiskChart, "laurent", lambda chart, F: seen.append(F) or laurent(chart, F))
        assert analyze_disk(spec, disk).ok
        assert seen
        for F in seen:
            constant = not F.B and F.A.degree <= 0 and F.k == 0 and F.E.degree <= 0
            assert constant or F == CurveFunction.y(C), F


def order2_spec(C, p, T=20):
    n = C.basis_size
    return ColemanSpec(curve=C, p=p,
                       a_matrix=[[Fraction(1)] * n] + [[Fraction(0)] * n for _ in range(n - 1)],
                       a_vector=[Fraction(0)] * n, h=CurveFunction.const(C, 3), T=T)


small = st.integers(-3, 3)


@st.composite
def specs(draw):
    """A spec on a random squarefree curve of genus 1-2, odd or even, with
    good reduction at p in {5, 7, 11, 13}.  Odd curves have an integer root,
    so that a Weierstrass disk has a rational centre, and take the order-2
    shape half of the time."""
    g = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["odd", "even"]))
    p = draw(st.sampled_from([5, 7, 11, 13]))
    if kind == "odd":
        f = Poly([-draw(small), 1]) * Poly(draw(st.lists(small, min_size=2 * g, max_size=2 * g)) + [1])
    else:
        f = Poly(draw(st.lists(small, min_size=2 * g + 2, max_size=2 * g + 2)) + [1])
    try:
        C = CurveModel(kind, f)
    except DomainError:
        assume(False)
    assume(has_smooth_reduction(C, p) and not (kind == "even" and p == 2 * g + 1))
    n = C.basis_size
    order2 = kind == "odd" and draw(st.booleans())
    rows = 1 if order2 else n
    a_matrix = [[Fraction(draw(small)) for _ in range(n)] for _ in range(rows)]
    a_matrix += [[Fraction(0)] * n for _ in range(n - rows)]
    a_vector = [Fraction(draw(small)) for _ in range(n)]
    h = CurveFunction(C, Poly(draw(st.lists(small, max_size=g + 2))))
    return ColemanSpec(curve=C, p=p, a_matrix=a_matrix, a_vector=a_vector, h=h, T=draw(st.integers(10, 16)))


class TestRandomCurves:
    @settings(max_examples=25, deadline=None)
    @given(specs(), st.randoms(use_true_random=False))
    def test_pipeline_operator_matches_the_algebraic_route(self, spec, rng):
        every = residue_disks(spec.curve, spec.p)
        plan = SpecPlan(spec, every)
        affine = [d for d in every if d.kind != "infinite"
                  and not isinstance(plan.operators[d.kind], Exception)
                  and plan.operators[d.kind].candidate]
        assume(affine)
        # every Weierstrass disk with a candidate (the order-2 shape), and
        # two non-Weierstrass disks
        weierstrass = [d for d in affine if d.kind == "affine_weierstrass"]
        rest = [d for d in affine if d not in weierstrass]
        compared = 0
        for disk, (ana, L) in pipeline_operators(plan, weierstrass + rng.sample(rest, min(2, len(rest)))).items():
            if L is None:
                continue      # no chart: an irrational Weierstrass centre
            assert_same_operator(L, chart_for(spec.curve, disk, spec.p, spec.T), spec, disk)
            compared += 1
        assume(compared)
