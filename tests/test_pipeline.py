import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from operator_oracle import oracle_local_operator
from perfbench_support import perfbench_module, workload_cases

from qcbound import funcfield, pipeline
from qcbound.coleman import ColemanSpec, DiskConstants, expand_G
from qcbound.diffops import apply_series
from qcbound.errors import DomainError, PrecisionError
from qcbound.funcfield import CurveFunction, chart_for, ledger_of
from qcbound.hyperelliptic import CurveModel, DiskDescriptor, count_points_fp, residue_disks
from qcbound.padics import kappa
from qcbound.pipeline import (
    PipelineResult,
    analyze_disk,
    nonweierstrass_candidate,
    order2_candidate,
    polar_degree,
    result_to_json,
    run_pipeline,
    spec_input_floor,
    uses_order2_shape,
)
from qcbound.polys import Poly
from qcbound.series import slope_transfer_check


def elliptic_spec(f_coeffs, a=Fraction(2), b=Fraction(3), p=5, T=20):
    C = CurveModel("odd", f_coeffs)
    return ColemanSpec(
        curve=C, p=p,
        a_matrix=[[a, 1], [0, 0]],
        a_vector=[0, 0],
        h=CurveFunction.const(C, b),
        T=T,
    )


def genus2_even_spec(seed=0, p=7, T=None):
    rng = random.Random(seed)
    f = Poly([0, -1, 0, 1]) * Poly([2, 0, 0, 1])
    C = CurveModel("even", f)
    n = 2 * C.genus + 1
    a = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
    v = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
    h = CurveFunction(C, Poly([rng.randint(-3, 3) for _ in range(C.genus + 2)]))
    return ColemanSpec(curve=C, p=p, a_matrix=a, a_vector=v, h=h, T=T)


def even_quartic_eta_spec(constants=None):
    """y^2 = x^4 + x + 2 at p = 7 with eta = x^3/y; three conjugate quadratic
    pairs, above x = 0, 3 and 6."""
    C = CurveModel("even", [2, 1, 0, 0, 1])
    n = C.basis_size
    return ColemanSpec(
        curve=C, p=7,
        a_matrix=[[Fraction(1) if (i, j) == (0, 1) else Fraction(0) for j in range(n)] for i in range(n)],
        a_vector=[Fraction(0)] * n,
        eta=CurveFunction.x_power_over_y(C, 3),
        T=24,
        constants=constants or {},
    )


def json_in_run_and_standalone(spec, result):
    """Every disk's JSON entry from a run, infinite disks included, and from
    standalone analyze_disk(spec, disk) calls on the same disks."""
    in_run = result_to_json(result)["disks"]
    standalone = [result_to_json(PipelineResult([analyze_disk(spec, a.disk)]))["disks"][0]
                  for a in result.analyses]
    return in_run, standalone


class TestShapes:
    def test_order2_shape_detection(self):
        spec = elliptic_spec([1, 1, 0, 1])
        assert uses_order2_shape(spec)
        spec.a_matrix[1][0] = Fraction(1)
        assert not uses_order2_shape(spec)

    @pytest.mark.parametrize("kind, f", [("odd", [1, 1, 0, 1]), ("even", [2, 1, 0, 0, 1])])
    def test_order2_operator_in_d_dx(self, kind, f):
        # (d/omega_0)^2 = y d/dx (y d/dx) = f (d/dx)^2 + (f'/2) d/dx
        C = CurveModel(kind, f)
        D = pipeline._order2_operator(C)
        assert D.base == "dx"
        half_fprime = C.f.derivative() * Poly([Fraction(1, 2)])
        assert D.coeffs == (CurveFunction.const(C, 0), CurveFunction(C, half_fprime), CurveFunction(C, C.f))

    def test_order2_candidate_is_x_plus_a(self):
        spec = elliptic_spec([1, 1, 0, 1], a=Fraction(2), b=Fraction(3))
        cand = order2_candidate(spec)
        C = spec.curve
        assert cand == CurveFunction.x(C) + CurveFunction.const(C, 2)

    def test_input_floor(self):
        spec = elliptic_spec([1, 1, 0, 1], a=Fraction(1, 5))
        assert spec_input_floor(spec) == -1
        assert spec_input_floor(elliptic_spec([1, 1, 0, 1])) == 0


class TestEllipticPipeline:
    def test_every_disk_certifies_x_plus_a(self):
        spec = elliptic_spec([1, 1, 0, 1], a=Fraction(2))
        result = run_pipeline(spec)
        assert result.ok
        affine = [a for a in result.analyses if a.disk.kind != "infinite"]
        assert affine
        C = spec.curve
        expect = CurveFunction.x(C) + CurveFunction.const(C, 2)
        kp = kappa(5)
        for a in affine:
            assert a.certified is True
            assert a.dg_candidate == expect
            assert a.order == 2
            assert a.nice.ok
            # bound is the strict integer below kappa_p (N_b + 2)
            raw = kp * (a.n_b + 2)
            assert a.bound < raw <= a.bound + 1 or raw == a.bound  # strict floor semantics

    def test_weierstrass_disks_included(self):
        # y^2 = x^3 - x has rational Weierstrass points at 0, +-1
        spec = elliptic_spec([0, -1, 0, 1], a=Fraction(1))
        result = run_pipeline(spec)
        assert result.ok
        kinds = {a.disk.kind for a in result.analyses}
        assert "affine_weierstrass" in kinds
        for a in result.analyses:
            if a.disk.kind == "affine_weierstrass":
                assert a.certified is True and a.nice.ok

    def test_disk_sum_identity(self):
        # sum over affine disks of (N_b + 2) = 2 #Y(F_p) + sum N_b
        spec = elliptic_spec([1, 1, 0, 1], a=Fraction(2))
        result = run_pipeline(spec)
        total, _, _, inf = count_points_fp(spec.curve, spec.p)
        y_count = total - inf
        n_bs = [a.n_b for a in result.analyses if "excluded" not in a.n_b_method]
        assert result.inner_sum == 2 * y_count + sum(n_bs)
        # zeros of x + a land in at most two disks
        assert sum(n_bs) <= 2

    def test_n_b_matches_reduction_of_x_plus_a(self):
        a_const = Fraction(2)
        spec = elliptic_spec([1, 1, 0, 1], a=a_const)
        result = run_pipeline(spec)
        for ana in result.analyses:
            if ana.disk.kind != "affine_nonweierstrass":
                continue
            expected = 1 if (ana.disk.x_bar + a_const) % 5 == 0 else 0
            assert ana.n_b == expected

    @pytest.mark.parametrize("T", [3, 20])
    def test_candidate_divisible_by_p_counts_from_its_reduction(self, T):
        # D(G) = 5x + 5: its reduction is x + 1 up to a unit, so N_b = 1 on the
        # disks above x = 4 and 0 elsewhere, at any T; the series route read
        # n_b from T (the ledger degree 2 on every disk at T = 3)
        C = CurveModel("odd", [1, 1, 0, 1])
        spec = ColemanSpec(curve=C, p=5, a_matrix=[[5, 5], [0, 0]], a_vector=[0, 0],
                           h=CurveFunction.const(C, 1), T=T)
        result = run_pipeline(spec)
        affine = [a for a in result.analyses if a.disk.kind != "infinite"]
        assert affine and all(a.n_b_method == "reduction order" and a.certified is True for a in affine)
        assert {str(a.disk): a.n_b for a in affine if a.n_b} == {"(4,2)": 1, "(4,3)": 1}
        assert result.total_bound == 28

    def test_deliberately_low_precision_flagged(self):
        # T = 3 still succeeds; at T = 2 the scan of the order-2 operator
        # reads fewer terms than the operator has coefficients
        spec = elliptic_spec([1, 1, 0, 1], T=2)
        result = run_pipeline(spec)
        assert not result.ok
        failed = result.failed()
        assert failed and all("precision" in a.error for a in failed)
        assert any(a.needed_T for a in failed)


class TestOddGenus2Pipeline:
    def test_integral_point_machinery(self):
        # odd model, g = 2: non-Weierstrass disks get (d/dx)^4 (d/omega_0),
        # the Weierstrass disk (above the rational root -1) the order-8
        # divided-power operator
        rng = random.Random(66)
        C = CurveModel("odd", [1, 0, 0, 0, 0, 1])     # y^2 = x^5 + 1
        n = 2 * C.genus
        spec = ColemanSpec(
            curve=C, p=7,
            a_matrix=[[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)],
            a_vector=[Fraction(rng.randint(-4, 4)) for _ in range(n)],
            h=CurveFunction(C, Poly([1, 2])),
        )
        result = run_pipeline(spec)
        assert result.ok, [x.error for x in result.failed()]
        kinds = {}
        for a in result.analyses:
            kinds.setdefault(a.disk.kind, []).append(a)
            if a.disk.kind == "affine_nonweierstrass":
                assert a.certified is True and a.nice.ok
                assert a.order == 2 * C.genus + 1
            elif a.disk.kind == "affine_weierstrass":
                assert a.nice.ok
                assert a.order == 4 * C.genus
            else:
                assert "excluded" in a.operator
        assert "affine_weierstrass" in kinds and "affine_nonweierstrass" in kinds


class TestGenus2Pipeline:
    def test_nonweierstrass_certification_and_ledger(self):
        spec = genus2_even_spec(seed=3)
        C = spec.curve
        g = C.genus
        cand = nonweierstrass_candidate(spec)
        led = ledger_of(cand)
        assert led.within(g + 1, 4 * g + 1)
        result = run_pipeline(spec)
        assert result.ok, [a.error for a in result.failed()]
        for a in result.analyses:
            if a.disk.kind == "affine_nonweierstrass":
                assert a.certified is True
                assert a.order == 2 * g + 2
                assert a.nice.ok
            elif a.disk.kind == "affine_weierstrass":
                assert a.nice is None or a.nice.ok
                assert a.order == 4 * g + 2
            else:
                assert "flipped" in a.operator or a.bound == 0

    def test_json_rendering_deterministic(self):
        spec = genus2_even_spec(seed=3)
        r1 = result_to_json(run_pipeline(spec))
        r2 = result_to_json(run_pipeline(spec))
        assert r1 == r2

    def test_certification_at_p11(self):
        # one non-Weierstrass disk at the second pipeline prime
        from qcbound.hyperelliptic import residue_disks
        from qcbound.pipeline import analyze_disk

        spec = genus2_even_spec(seed=5, p=11)
        disk = next(d for d in residue_disks(spec.curve, 11) if d.kind == "affine_nonweierstrass")
        ana = analyze_disk(spec, disk)
        assert ana.ok, ana.error
        assert ana.certified is True and ana.nice.ok
        assert ana.order == 2 * spec.curve.genus + 2


class TestCandidateDegrees:
    def test_polar_degree_examples(self):
        C = CurveModel("odd", [1, 1, 0, 1])
        assert polar_degree(CurveFunction.x(C)) == 2
        assert polar_degree(CurveFunction.y(C)) == 3


class TestConstantInsensitivity:
    def test_path_constants_never_change_the_bound(self):
        # the integral constants only shift low-order coefficients of G; the
        # operator image and every certified zero bound are unchanged
        from qcbound.coleman import DiskConstants

        base = elliptic_spec([1, 1, 0, 1], a=Fraction(2))
        shifted = elliptic_spec([1, 1, 0, 1], a=Fraction(2))
        n = 2
        for disk in ("(0,1)", "(0,4)", "(4,2)", "(4,3)"):
            shifted.constants[disk] = DiskConstants(
                [Fraction(3), Fraction(-1, 2)],
                [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)]],
            )
        r_base = run_pipeline(base)
        r_shifted = run_pipeline(shifted)
        assert r_base.ok and r_shifted.ok
        for a, b in zip(r_base.analyses, r_shifted.analyses):
            assert (a.n_b, a.bound, a.certified) == (b.n_b, b.bound, b.certified)

    def test_key_added_late_is_checked(self, monkeypatch):
        # keys added after construction are checked when a run is planned,
        # against every residue disk, before any disk is analysed
        spec = elliptic_spec([1, 1, 0, 1], a=Fraction(2))
        spec.constants["(9,9)"] = DiskConstants([Fraction(1), Fraction(0)], [[Fraction(0)] * 2] * 2)
        monkeypatch.setattr(pipeline, "chart_for", None)   # no disk may get as far as its chart
        with pytest.raises(DomainError, match=r"'\(9,9\)' is not a residue disk of this curve mod 5"):
            run_pipeline(spec)
        with pytest.raises(DomainError, match="is not a residue disk"):
            analyze_disk(spec, DiskDescriptor("affine_nonweierstrass", 0, 1))


class TestEtaTerm:
    def test_third_kind_eta_with_finite_poles(self):
        # eta = dx/(x - 2): a genuine third-kind differential whose pole sits
        # on the disks above x = 2; those disks error honestly, every other
        # disk certifies, and the polar-degree bound counts the finite poles
        from qcbound.funcfield import RationalFunc

        C = CurveModel("odd", [1, 1, 0, 1])
        eta = CurveFunction(C, RationalFunc(Poly([1]), Poly([-2, 1])))
        spec = ColemanSpec(
            curve=C, p=5,
            a_matrix=[[Fraction(0)] * 2 for _ in range(2)],
            a_vector=[Fraction(1), Fraction(0)],
            eta=eta,
            T=24,
        )
        cand = nonweierstrass_candidate(spec)
        assert polar_degree(cand) >= 2     # the (x-2)-denominator is counted
        result = run_pipeline(spec)
        for ana in result.analyses:
            if ana.disk.kind == "infinite":
                continue
            if ana.disk.x_bar == 2:
                assert not ana.ok and "pole" in ana.error
            else:
                assert ana.ok and ana.certified is True, ana.error

    @pytest.mark.parametrize("T", [24, 40])
    def test_eta_pole_off_the_disk_centre_rejected(self, T):
        # eta = dx/(x - 7): the points over x = 7 lie in the disks above
        # x_bar = 2, whose centres lift to x0 = 2.  D(G) has a pole inside
        # those disks, so they error; a count there would grow with T
        from qcbound.funcfield import RationalFunc

        C = CurveModel("odd", [1, 1, 0, 1])
        spec = ColemanSpec(
            curve=C, p=5,
            a_matrix=[[Fraction(0)] * 2 for _ in range(2)],
            a_vector=[Fraction(1), Fraction(0)],
            eta=CurveFunction(C, RationalFunc(Poly([1]), Poly([-7, 1]))),
            T=T,
        )
        result = run_pipeline(spec)
        assert result.total_bound is None
        for ana in result.analyses:
            if ana.disk.kind == "infinite":
                continue
            if ana.disk.x_bar == 2:
                assert ana.error == "eta has a pole on this disk: Poly(-7 + x) vanishes at x = 2 mod 5"
                assert ana.n_b is None and ana.certified is None
            else:
                assert ana.ok and ana.certified is True, ana.error

    def test_h_with_finite_poles_rejected(self):
        from qcbound.funcfield import RationalFunc

        C = CurveModel("odd", [1, 1, 0, 1])
        bad_h = CurveFunction(C, RationalFunc(Poly([1]), Poly([-2, 1])))
        import pytest

        with pytest.raises(Exception):
            ColemanSpec(curve=C, p=5, a_matrix=[[0, 0], [0, 0]], a_vector=[0, 0], h=bad_h)

    def test_even_genus1_with_eta(self):
        # even quartic model with a third-kind-style eta = x^3/y: pole-free on
        # the affine disks, handled by the q-derivative candidate
        C = CurveModel("even", [2, 1, 0, 0, 1])     # y^2 = x^4 + x + 2
        from qcbound.hyperelliptic import has_smooth_reduction

        assert has_smooth_reduction(C, 7)
        n = 2 * C.genus + 1
        spec = ColemanSpec(
            curve=C, p=7,
            a_matrix=[[Fraction(1) if (i, j) == (0, 1) else Fraction(0) for j in range(n)] for i in range(n)],
            a_vector=[Fraction(0)] * n,
            eta=CurveFunction.x_power_over_y(C, 3),
            T=24,
        )
        result = run_pipeline(spec)
        assert result.ok, [x.error for x in result.failed()]
        for a in result.analyses:
            if a.disk.kind == "affine_nonweierstrass":
                assert a.certified is True


class TestSpecPlan:
    def test_spec_level_work_runs_once_per_run(self, monkeypatch):
        calls = Counter()
        for name in ("nonweierstrass_candidate", "order2_candidate", "polar_degree"):
            def counted(*args, _fn=getattr(pipeline, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(pipeline, name, counted)
        # the odd spec has the order-2 shape: one plan for all its affine disks
        for spec, candidate in ((even_quartic_eta_spec(), "nonweierstrass_candidate"),
                                (elliptic_spec([1, 1, 0, 1]), "order2_candidate")):
            calls.clear()
            for runs in (1, 2):
                assert run_pipeline(spec).ok
                assert calls == {candidate: runs, "polar_degree": runs}

    @pytest.mark.parametrize(
        "make_spec",
        [
            lambda: elliptic_spec([1, 1, 0, 1]),
            even_quartic_eta_spec,
            # constants on (0,3) but not on its conjugate (0,4): L reads no
            # constants, so that pair shares too
            lambda: even_quartic_eta_spec({"(0,3)": DiskConstants(
                [Fraction(1), Fraction(-1, 2), Fraction(3)],
                [[Fraction(i - j) for j in range(3)] for i in range(3)],
                Fraction(2),
            )}),
        ],
        ids=["odd_p5", "even_eta_p7", "even_eta_p7_one_sided_constants"],
    )
    def test_shared_pairs_match_standalone_disks(self, monkeypatch, make_spec):
        # each spec has three conjugate quadratic pairs, which share nothing:
        # every disk with a candidate builds its own local operator
        spec = make_spec()
        operators = Counter()
        local_operator = pipeline.local_operator

        def counted_local_operator(D, chart):
            operators[str(chart.disk)] += 1
            return local_operator(D, chart)

        monkeypatch.setattr(pipeline, "local_operator", counted_local_operator)
        result = run_pipeline(spec)
        affine = [a for a in result.analyses if a.disk.kind != "infinite"]
        with_candidate = [str(a.disk) for a in affine if a.dg_candidate is not None]
        assert with_candidate and operators == Counter(with_candidate)
        in_run, standalone = json_in_run_and_standalone(spec, result)
        assert in_run == standalone

    @pytest.mark.parametrize(
        "make_spec, annihilator",
        [(lambda: elliptic_spec([0, -1, 0, 1], a=Fraction(1)), False),  # order-2 shape
         (lambda: genus2_even_spec(seed=3), True)],                      # the annihilator
        ids=["order2_shape", "annihilator"],
    )
    def test_series_route_runs_on_weierstrass_disks_only(self, monkeypatch, make_spec, annihilator):
        # a disk with a candidate, Weierstrass or not, reads N_b from the
        # reduction of the candidate: no series of G or D(G).  Only the disks
        # of the Weierstrass annihilator, which has no candidate, keep the
        # series route, and certify_algebraic runs nowhere
        series_route = ("expand_G", "apply_series", "certify_algebraic", "algebraic_zero_count")
        calls, kinds = Counter(), []
        analyze = pipeline.analyze_disk

        def tracked_analyze_disk(plan, disk):
            kinds.append(disk.kind)
            return analyze(plan, disk)

        monkeypatch.setattr(pipeline, "analyze_disk", tracked_analyze_disk)
        for name in series_route:
            def counted(*args, _fn=getattr(pipeline, name), _name=name, **kwargs):
                calls[kinds[-1], _name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, counted)
        result = run_pipeline(make_spec())
        assert result.ok, [a.error for a in result.failed()]
        n_w = sum(a.disk.kind == "affine_weierstrass" for a in result.analyses)
        assert n_w and any(a.disk.kind == "affine_nonweierstrass" for a in result.analyses)
        expected = {("affine_weierstrass", name): n_w for name in series_route
                    if annihilator and name != "certify_algebraic"}
        assert calls == expected

    @pytest.mark.parametrize("name, make_spec", [
        ("nonweierstrass_candidate", even_quartic_eta_spec),
        ("polar_degree", even_quartic_eta_spec),
        ("order2_candidate", lambda: elliptic_spec([1, 1, 0, 1])),
    ], ids=["nonweierstrass_candidate", "polar_degree", "order2_candidate"])
    def test_planning_error_reported_on_each_disk(self, monkeypatch, name, make_spec):
        def failing(*args):
            raise PrecisionError("planned entry needs more terms", needed=99)

        monkeypatch.setattr(pipeline, name, failing)
        spec = make_spec()
        result = run_pipeline(spec)
        nw = [a for a in result.analyses if a.disk.kind == "affine_nonweierstrass"]
        assert nw and all(a.error == "insufficient precision: planned entry needs more terms"
                          and a.needed_T == 99 for a in nw)
        in_run, standalone = json_in_run_and_standalone(spec, result)
        assert in_run == standalone

    @pytest.mark.parametrize("workload", ["genus2_even_p7", "genus1_batch"])
    def test_every_disk_alone_matches_the_run(self, workload):
        # both infinite disks of an even model included: inf- reports the
        # joint count 0 alone as in a run
        for case in workload_cases(workload, 3):
            result = run_pipeline(case.spec)
            in_run, standalone = json_in_run_and_standalone(case.spec, result)
            assert in_run == standalone, case.spec_id

    @pytest.mark.parametrize("disk", [
        DiskDescriptor("affine_nonweierstrass", 0, 6),    # y_bar out of range: (0,1) mod 5
        DiskDescriptor("affine_weierstrass", 1, 0),       # f(1) = 3 != 0 mod 5
        DiskDescriptor("affine_nonweierstrass", 0, 2),    # 2^2 != f(0) = 1 mod 5
    ], ids=str)
    def test_a_disk_off_the_curve_is_refused(self, disk):
        spec = elliptic_spec([1, 1, 0, 1], a=Fraction(1), b=Fraction(3))
        with pytest.raises(DomainError, match=re.escape(f"{disk} is not a residue disk of this curve mod 5")):
            analyze_disk(spec, disk)


class TestSlopeTransfer:
    @pytest.mark.parametrize("workload, disks", [("genus2_even_p7", 7), ("genus1_batch", 77)])
    def test_every_passing_affine_disk_satisfies_slope_transfer(self, workload, disks):
        # the slope-transfer inequality M(G) < kappa_p (N + min S(D(G))) as an
        # oracle: G expanded on the disk's chart, D(G) the disk's local
        # operator applied to it, both certified against the plan's input floor
        checked = 0
        for case in workload_cases(workload, 3):
            spec = case.spec
            plan = pipeline.SpecPlan(spec, residue_disks(spec.curve, spec.p))
            for disk in residue_disks(spec.curve, spec.p):
                if disk.kind == "infinite" or not analyze_disk(plan, disk).ok:
                    continue
                chart = chart_for(spec.curve, disk, spec.p, spec.T)
                L = oracle_local_operator(plan, disk, chart)
                G = expand_G(spec, chart)
                DG = apply_series(L, G)
                assert slope_transfer_check(G, DG, L.order, spec.p, plan.floor, plan.floor,
                                            val=chart.valuation_of), (case.spec_id, str(disk))
                checked += 1
        assert checked == disks


class TestBenchmarkProbeTargets:
    def test_traced_names_still_exist(self):
        # the traced benchmark rebinds these names by string at run time, so a
        # rename or deletion here would break it without any import error
        probes = perfbench_module("probes")
        for name, _ in probes.PIPELINE_CALLS:
            assert callable(getattr(pipeline, name, None)), name
        assert callable(getattr(funcfield, "poly_gcd", None))

    def test_disk_timer_sees_every_analysed_disk(self, monkeypatch):
        # the benchmark's disk_s_max comes from this wrapper; a run that went
        # round the module global would leave it reading 0 without an error
        monkeypatch.setattr(pipeline, "analyze_disk", pipeline.analyze_disk)   # restored afterwards
        timer = perfbench_module("probes").DiskTimer(pipeline)
        result = run_pipeline(even_quartic_eta_spec())
        assert [sample[1] for sample in timer.samples] == [str(a.disk) for a in result.analyses]


class TestRecordedReference:
    @pytest.mark.parametrize("workload", ["genus2_even_p7", "genus1_batch"])
    def test_json_matches_recorded_reference(self, workload):
        # the benchmark's correctness gate on generator seed 3: a digest of
        # result_to_json recorded for every spec, plus the pipeline invariants
        checks = perfbench_module("checks")
        reference = checks.load_reference(workload, 3)
        failures = []
        for case in workload_cases(workload, 3):
            result = run_pipeline(case.spec)
            failures += checks.check_case(case, result, result_to_json(result), reference)
        assert failures == []
