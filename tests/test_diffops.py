import random
from fractions import Fraction
from math import comb

import pytest

from qcbound.diffops import (
    DifferentialOperator,
    annihilator_matrix,
    apply_on_chart,
    apply_series,
    build_annihilator,
    check_nice,
    compose_with_base,
    local_operator,
    search_nice_S,
    weierstrass_annihilator,
    weierstrass_local_annihilator,
)
from qcbound.errors import (
    DegenerateOperatorError,
    DomainError,
    PrecisionError,
    SearchExhaustedError,
)
from qcbound.funcfield import CurveFunction, nonweierstrass_chart, weierstrass_chart
from qcbound.hyperelliptic import CurveModel, DiskDescriptor, residue_disks
from qcbound.padics import INFINITY
from qcbound.polys import Poly
from qcbound.series import LaurentSeries, TruncatedSeries


def S(coeffs, T=None):
    return TruncatedSeries.from_polynomial(coeffs, T if T is not None else len(coeffs))


def genus2_even():
    f = Poly([0, -1, 0, 1]) * Poly([2, 0, 0, 1])   # (x^3 - x)(x^3 + 2)
    return CurveModel("even", f)


def d_dx_operator(order, T):
    coeffs = [S([0], T)] * order + [S([1], T)]
    return DifferentialOperator(coeffs, base="dx")


class TestApply:
    def test_first_derivative(self):
        D = d_dx_operator(1, 6)
        F = S([0, 0, 1], 6)          # x^2
        assert apply_series(D, F) == S([0, 2], 5)

    def test_identity_operator(self):
        D = DifferentialOperator([S([1], 6)])
        F = S([3, 1, 4], 6)
        assert apply_series(D, F) == F

    def test_precision_drops_by_order(self):
        D = d_dx_operator(3, 10)
        F = S(list(range(1, 11)), 10)
        assert apply_series(D, F).truncation == 7

    def test_precision_underflow(self):
        D = d_dx_operator(3, 10)
        with pytest.raises(PrecisionError):
            apply_series(D, S([1, 2], 2))


class TestAnnihilatorMatrix:
    def test_example_rows(self):
        rows = annihilator_matrix([0, 1, 2], [S([1], 5), S([0, 1], 5)])
        assert rows[0][0] == S([1], 5)
        assert rows[0][1].is_known_zero() and rows[0][2].is_known_zero()
        assert rows[1][0] == S([0, 1], 5)
        assert rows[1][1] == S([1], 4)
        assert rows[1][2].is_known_zero()

    def test_constant_terms_are_coefficients(self):
        rng = random.Random(12)
        F = S([Fraction(rng.randint(-9, 9)) for _ in range(8)])
        rows = annihilator_matrix([0, 1, 2, 3], [F, S([1], 8), S([0, 1], 8)])
        for j in range(4):
            assert rows[0][j].coeffs[0] == F.coeffs[j]

    def test_zero_row(self):
        rows = annihilator_matrix([0, 1], [TruncatedSeries.zero(4)])
        assert all(r.is_known_zero() for r in rows[0])

    def test_precision_guard(self):
        with pytest.raises(PrecisionError):
            annihilator_matrix([0, 5], [S([1, 1], 3)])


class TestBuildAnnihilator:
    def test_second_derivative_example(self):
        D = build_annihilator([0, 1, 2], [S([1], 6), S([0, 1], 6)])
        assert D.order == 2
        assert apply_series(D, S([0, 0, 0, 1], 6)).agrees_with(S([0, 6], 2))  # d^2 x^3 = 6x

    def test_order_one_kills_constants(self):
        D = build_annihilator([0, 1], [S([1], 6)])
        assert D.order == 1
        assert apply_series(D, S([5], 6)).is_known_zero()

    def test_degenerate(self):
        with pytest.raises(DegenerateOperatorError):
            build_annihilator([0, 1, 2], [S([1, 1], 6), S([2, 2], 6)])

    def test_annihilation_random(self):
        rng = random.Random(13)
        for _ in range(40):
            m = rng.randint(1, 3)
            T = 12
            funcs = [S([Fraction(rng.randint(-9, 9)) for _ in range(T)]) for _ in range(m)]
            Sset = sorted(rng.sample(range(T - 1), m + 1))
            try:
                D = build_annihilator(Sset, funcs)
            except DegenerateOperatorError:
                continue
            for F in funcs:
                out = apply_series(D, F)
                assert out.is_known_zero()

    def test_row_operations_leave_operator_unchanged(self):
        rng = random.Random(14)
        T = 10
        f1 = S([Fraction(rng.randint(-9, 9)) for _ in range(T)])
        f2 = S([Fraction(rng.randint(-9, 9)) for _ in range(T)])
        D = build_annihilator([0, 1, 2], [f1, f2])
        D2 = build_annihilator([0, 1, 2], [f1, f2 + f1.scale(3)])
        assert [c.coeffs for c in D.coeffs] == [c.coeffs for c in D2.coeffs]

    def test_dependent_rows_degenerate(self):
        f1 = S([1, 2, 3, 4, 5, 6], 6)
        with pytest.raises(DegenerateOperatorError):
            build_annihilator([0, 1, 2], [f1, f1.scale(2)])

    def test_leibniz_identity(self):
        # apply(D, f*h) = sum_k g_k sum_m binom(k,m) f^(m) h^(k-m)
        rng = random.Random(15)
        T = 12
        f = S([Fraction(rng.randint(-5, 5)) for _ in range(T)])
        h = S([Fraction(rng.randint(-5, 5)) for _ in range(T)])
        D = DifferentialOperator([S([Fraction(rng.randint(-3, 3)) for _ in range(T)]) for _ in range(4)])
        lhs = apply_series(D, f * h)
        rhs = None
        f_chain = [f]
        h_chain = [h]
        for _ in range(3):
            f_chain.append(f_chain[-1].derivative())
            h_chain.append(h_chain[-1].derivative())
        for k, g in enumerate(D.coeffs):
            for m_ in range(k + 1):
                term = g * f_chain[m_] * h_chain[k - m_]
                term = term.scale(comb(k, m_))
                rhs = term if rhs is None else rhs + term
        assert lhs.agrees_with(rhs, upto=min(lhs.truncation, rhs.truncation))


class TestCheckNice:
    def test_plain_derivative_nice(self):
        cert = check_nice(d_dx_operator(1, 4), 5)
        assert cert.ok and cert.unit_witness == 0

    def test_p_leading_fails(self):
        D = DifferentialOperator([S([1], 4), S([5], 4)])
        cert = check_nice(D, 5)
        assert not cert.ok
        assert cert.failure_index == 1 and cert.failure_valuation == 1

    def test_searched_operator_is_nice(self):
        rng = random.Random(16)
        p = 7
        for _ in range(20):
            T = 10
            funcs = [S([Fraction(rng.randint(0, 20)) for _ in range(T)]) for _ in range(2)]
            try:
                Sset = search_nice_S(funcs, p, 8)
                D = build_annihilator(Sset, funcs)
            except (SearchExhaustedError, DegenerateOperatorError, PrecisionError):
                continue
            cert = check_nice(D, p)
            assert cert.ok


class TestSearchNiceS:
    def test_example_1_x(self):
        assert search_nice_S([S([1], 6), S([0, 1], 6)], 5, 5) == [0, 1, 2]

    def test_dependent_mod_p(self):
        with pytest.raises(SearchExhaustedError):
            search_nice_S([S([1, 1], 6), S([1 + 5, 1], 6)], 5, 5)

    def test_non_integral_rejected(self):
        with pytest.raises(DomainError):
            search_nice_S([S([Fraction(1, 5)], 4)], 5, 3)

    def test_curve_expansions_max_s_bound(self):
        # expansions of x^i / y on a genus-2 curve: max S <= deg(D) + 2g - 1
        C = genus2_even()
        g = C.genus
        p = 7
        disks = [d for d in residue_disks(C, p) if d.kind == "affine_nonweierstrass"]
        chart = nonweierstrass_chart(C, disks[0], p, 16)
        funcs = [chart.expand(CurveFunction.x_power_over_y(C, i)) for i in range(2 * g)]
        Sset = search_nice_S(funcs, p, 12, chart=chart)
        deg_D = 2 * (g + 1)    # the dx-quotients lie in H^0(X, O(D)), deg D = 2g+2
        assert max(Sset) <= deg_D + 2 * g - 1


class TestCompose:
    def test_same_base_shift(self):
        D1 = DifferentialOperator([S([1], 6)])
        D = compose_with_base(D1, "dx")
        assert D.order == 1
        assert apply_series(D, S([0, 0, 1], 6)) == S([0, 2], 5)

    def test_omega0_squared_on_chart(self):
        # (d/omega0)^2 x = f'/2 as disk expansions
        C = CurveModel("odd", [1, 1, 0, 1])
        D0 = DifferentialOperator([CurveFunction.const(C, 0), CurveFunction.const(C, 1)], base="omega0")
        D = compose_with_base(D0, "omega0")
        assert D.order == 2 and D.base == "omega0"
        disk = DiskDescriptor("affine_nonweierstrass", 0, 1)
        chart = nonweierstrass_chart(C, disk, 5, 10)
        x_series = chart.expand(CurveFunction.x(C))
        got = apply_on_chart(D, x_series, chart)
        want = chart.expand(CurveFunction(C, C.f.derivative() * Poly([Fraction(1, 2)])))
        assert got.agrees_with(want, upto=got.truncation)

    def test_mixed_base_leading_coefficient(self):
        C = genus2_even()
        g = C.genus
        coeffs = [CurveFunction.const(C, 0)] * (2 * g + 1) + [CurveFunction.const(C, 1)]
        D1 = DifferentialOperator(coeffs, base="dx")
        D = compose_with_base(D1, "omega0")
        assert D.order == 2 * g + 2
        assert D.leading == CurveFunction.y(C)

    def test_mixed_base_flagged_at_weierstrass_disks(self):
        # the composed coefficients involve derivatives of y, which have
        # poles where y vanishes: the check flags Weierstrass disks with a
        # pole error and the caller must switch to the Weierstrass
        # construction; non-Weierstrass disks certify fine
        from qcbound.errors import PoleError

        C = genus2_even()
        g = C.genus
        coeffs = [CurveFunction.const(C, 0)] * (2 * g + 1) + [CurveFunction.const(C, 1)]
        D = compose_with_base(DifferentialOperator(coeffs, base="dx"), "omega0")
        wchart = weierstrass_chart(C, DiskDescriptor("affine_weierstrass", 0, 0), 7, 16)
        with pytest.raises(PoleError):
            check_nice(D, 7, chart=wchart)
        nchart = nonweierstrass_chart(C, DiskDescriptor("affine_nonweierstrass", 5, 1), 7, 16)
        assert check_nice(D, 7, chart=nchart).ok

    def test_mixed_base_matches_direct_application(self):
        C = genus2_even()
        D1 = DifferentialOperator(
            [CurveFunction.const(C, 0), CurveFunction.x(C), CurveFunction.const(C, 1)], base="dx"
        )
        D = compose_with_base(D1, "omega0")
        disk = DiskDescriptor("affine_nonweierstrass", 2, 2)
        chart = nonweierstrass_chart(C, disk, 7, 12)
        F = chart.expand(CurveFunction.x_power_over_y(C, 1))
        direct = apply_on_chart(D, F, chart)
        # apply D0 then D1 by hand
        from qcbound.series import LaurentSeries

        y_l = chart.laurent(CurveFunction.y(C))
        step = (LaurentSeries.from_series(F).derivative() / chart.dx_dt) * y_l
        two_step = apply_on_chart(D1, step.regular_part(), chart)
        assert direct.agrees_with(two_step, upto=min(direct.truncation, two_step.truncation))

    def test_series_coefficients_compose_through_the_chart(self):
        # at a Weierstrass disk d/omega0 = V d/dt with V = y / (dx/dt); the
        # composed series operator applies D1 after V d/dt
        C = genus2_even()
        chart = weierstrass_chart(C, DiskDescriptor("affine_weierstrass", 0, 0), 7, 24)
        D1 = weierstrass_local_annihilator(chart)
        D = compose_with_base(D1, "omega0", chart)
        assert D.base == "dx" and D.order == D1.order + 1
        V = (chart.y / chart.dx_dt).regular_part()
        F = chart.expand(CurveFunction(C, Poly.x_power(3)))
        got = apply_series(D, F)
        want = apply_series(D1, V * F.derivative())
        assert not got.is_known_zero()
        assert got.agrees_with(want, upto=min(got.truncation, want.truncation))

    def test_series_coefficients_need_a_chart(self):
        with pytest.raises(DomainError):
            compose_with_base(DifferentialOperator([S([1], 6), S([0, 1], 6)]), "omega0")


class TestDyBase:
    def test_dy_is_the_disk_derivation_at_weierstrass_charts(self):
        # d/dy = (2y/f') d/dx equals d/dt on a t = y chart
        C = genus2_even()
        chart = weierstrass_chart(C, DiskDescriptor("affine_weierstrass", 0, 0), 7, 14)
        F = CurveFunction.x(C) * CurveFunction.x(C) + CurveFunction.y(C)
        lhs = chart.expand(F.d_dy())
        rhs = chart.expand(F).derivative()
        assert lhs.agrees_with(rhs, upto=min(lhs.truncation, rhs.truncation))

    def test_dy_operator_applies_and_checks(self):
        C = genus2_even()
        chart = weierstrass_chart(C, DiskDescriptor("affine_weierstrass", 1, 0), 7, 14)
        D = DifferentialOperator(
            [CurveFunction.const(C, 0), CurveFunction.const(C, 1)], base="dy"
        )
        F = chart.expand(CurveFunction.x(C))
        got = apply_on_chart(D, F, chart)
        assert got.agrees_with(F.derivative(), upto=got.truncation)
        assert check_nice(D, 7, chart=chart).ok


class TestWeierstrassAnnihilator:
    def test_genus1_odd_kills_1_and_x(self):
        C = CurveModel("odd", [1, 1, 0, 1])
        D1 = weierstrass_annihilator(C, p=5)
        assert D1.order == 2 * 2 - 1   # 4g - 1 = 3
        wdisks = [d for d in residue_disks(C, 5) if d.kind == "affine_weierstrass"]
        # x^3 + x + 1 mod 5 has a root at x = 3... check disks exist before using
        for disk in wdisks:
            chart = weierstrass_chart(C, disk, 5, 14)
            for F in (CurveFunction.const(C, 1), CurveFunction.x(C)):
                out = apply_on_chart(D1, chart.expand(F), chart)
                assert out.is_known_zero()

    def test_genus2_even_at_7(self):
        C = genus2_even()
        g = C.genus
        D1 = weierstrass_annihilator(C, p=7)
        assert D1.order == 4 * g + 1
        wdisks = [d for d in residue_disks(C, 7) if d.kind == "affine_weierstrass"]
        assert wdisks
        for disk in wdisks:
            chart = weierstrass_chart(C, disk, 7, 24)
            for j in range(2 * g + 1):
                F = chart.expand(CurveFunction.x_power_over_y(C, j) * CurveFunction.y(C))  # x^j
                out = apply_on_chart(D1, F, chart)
                assert out.is_known_zero()

    def test_det_b_unit_certificate(self):
        C = genus2_even()
        D1 = weierstrass_annihilator(C, p=7)
        wdisks = [d for d in residue_disks(C, 7) if d.kind == "affine_weierstrass"]
        for disk in wdisks:
            chart = weierstrass_chart(C, disk, 7, 24)
            lead = chart.expand(D1.leading)
            assert chart.valuation_of(lead.coeffs[0]) == 0

    def test_nice_variant_is_nice_and_annihilates(self):
        # divided powers in the disk coordinate keep integrality at p = 7 even
        # though 7 <= max S = 9; the omega_0-normalized form does not
        C = genus2_even()
        g = C.genus
        wdisks = [d for d in residue_disks(C, 7) if d.kind == "affine_weierstrass"]
        for disk in wdisks:
            chart = weierstrass_chart(C, disk, 7, 26)
            D1 = weierstrass_local_annihilator(chart)
            assert D1.order == 4 * g + 1
            cert = check_nice(D1, 7)
            assert cert.ok, (disk, cert)
            assert cert.unit_witness == 0 and cert.integrality_witness >= 0
            for j in range(2 * g + 1):
                F = chart.expand(CurveFunction.x_power_over_y(C, j) * CurveFunction.y(C))
                out = apply_series(D1, F)
                assert out.is_known_zero()


def laurent_apply_on_chart(D, F, chart):
    """The former ``apply_on_chart``, kept as the reference: D^i F by Laurent
    derivations that divide by dx/dt (or dy/dt) at every step, each
    coefficient expanded on the chart, the sum's regular part at the end."""
    if D.base == "dx":
        deriv = lambda L: L.derivative() / chart.dx_dt
    elif D.base == "dy":
        dy_dt = chart.y.derivative()
        deriv = lambda L: L.derivative() / dy_dt
    else:
        deriv = lambda L: (L.derivative() / chart.dx_dt) * chart.y
    out = None
    current = LaurentSeries.from_series(F)
    for i, g in enumerate(D.coeffs):
        if i > 0:
            current = deriv(current)
        if isinstance(g, TruncatedSeries):
            if g.is_known_zero():
                continue
            g_laurent = LaurentSeries.from_series(g)
        elif not g:
            continue
        else:
            g_laurent = chart.laurent(g)
        term = g_laurent * current
        out = term if out is None else out + term
    return out.regular_part()


def reference_charts():
    """A rational and a Q(sqrt 60) non-Weierstrass chart and a Weierstrass
    chart of the genus-2 even curve at p = 7, all at T = 20."""
    C = genus2_even()
    return C, {
        "rational": nonweierstrass_chart(C, DiskDescriptor("affine_nonweierstrass", 5, 1), 7, 20),
        "quadratic": nonweierstrass_chart(C, DiskDescriptor("affine_nonweierstrass", 2, 2), 7, 20),
        "weierstrass": weierstrass_chart(C, DiskDescriptor("affine_weierstrass", 0, 0), 7, 20),
    }


def algebraic_operators(C):
    """Operators regular at every chart above, one per base, plus the
    Weierstrass annihilator and a same-base composition."""
    x, y = CurveFunction.x(C), CurveFunction.y(C)
    zero, one = CurveFunction.const(C, 0), CurveFunction.const(C, 1)
    return {
        # the factor y keeps the d/dx coefficients regular where dx/dt vanishes
        "dx": DifferentialOperator([x, y, x * y], base="dx"),
        "omega0": DifferentialOperator([zero, x, one], base="omega0"),
        "dy": DifferentialOperator([x, y, one], base="dy"),
        "weierstrass_annihilator": weierstrass_annihilator(C),
        "compose_with_base": compose_with_base(DifferentialOperator([zero, y], base="omega0"), "omega0"),
    }


def nonweierstrass_operators(C, chart):
    """Operators with poles at Weierstrass disks: the mixed-base composition
    the pipeline uses, and series operators written in the chart parameter."""
    q = C.basis_size
    ddx_q = DifferentialOperator([CurveFunction.const(C, 0)] * q + [CurveFunction.const(C, 1)])
    funcs = [chart.expand(CurveFunction.x_power_over_y(C, j)) for j in range(3)]
    D1 = build_annihilator([0, 1, 2, 3], funcs, base="dx")
    return {
        "compose_with_base_mixed": compose_with_base(ddx_q, "omega0"),
        "series": D1,
        "compose_with_base_series": compose_with_base(D1, "omega0", chart),
    }


class TestLocalOperator:
    @pytest.mark.parametrize("chart_name", ["rational", "quadratic", "weierstrass"])
    def test_apply_on_chart_equals_laurent_reference(self, chart_name):
        C, charts = reference_charts()
        chart = charts[chart_name]
        ops = algebraic_operators(C)
        if chart_name != "weierstrass":
            ops.update(nonweierstrass_operators(C, chart))
        x, y = CurveFunction.x(C), CurveFunction.y(C)
        F = chart.expand(x * x * x + y)
        assert F.truncation == chart.T
        for name, D in ops.items():
            got = apply_on_chart(D, F, chart)
            want = laurent_apply_on_chart(D, F, chart)
            assert not want.is_known_zero(), name
            assert got.truncation == want.truncation, name
            assert got == want, name

    @pytest.mark.parametrize("chart_name", ["rational", "quadratic", "weierstrass"])
    def test_longer_input_agrees_on_the_shared_prefix(self, chart_name):
        # with F longer than the chart the two paths keep different numbers of
        # known coefficients, both exact: the Laurent reference keeps relative
        # precision through dx/dt (which vanishes at t = 0 when t = y) and
        # caps every derivative step at the chart's precision of dx/dt
        C, charts = reference_charts()
        chart = charts[chart_name]
        ops = algebraic_operators(C)
        if chart_name != "weierstrass":
            ops.update(nonweierstrass_operators(C, chart))
        F = chart.expand(CurveFunction.x(C) * CurveFunction.y(C)).antiderivative()
        assert F.truncation > chart.T
        for name, D in ops.items():
            got = apply_on_chart(D, F, chart)
            want = laurent_apply_on_chart(D, F, chart)
            upto = min(got.truncation, want.truncation)
            assert upto >= F.truncation - D.order - 2, name
            assert not want.truncate(upto).is_known_zero(), name
            assert got.agrees_with(want, upto=upto), name

    def test_series_operator_comes_back_unchanged(self):
        C, charts = reference_charts()
        chart = charts["weierstrass"]
        D = compose_with_base(weierstrass_local_annihilator(chart), "omega0", chart)
        assert local_operator(D, chart) is D

    def test_known_zero_leading_coefficient_is_not_nice(self):
        # x^5 d/dx at the disk centred at x = 0: x = t, and to T = 4 the
        # local leading coefficient t^5 is known zero; the slot must stay
        C = CurveModel("odd", [1, 1, 0, 1])
        chart = nonweierstrass_chart(C, DiskDescriptor("affine_nonweierstrass", 0, 1), 5, 4)
        assert chart.center[0] == 0
        x = CurveFunction.x(C)
        D = DifferentialOperator([CurveFunction.const(C, 0), x * x * x * x * x], base="dx")
        L = local_operator(D, chart)
        assert L.order == 1 and L.leading.is_known_zero()
        cert = check_nice(D, 5, chart=chart)
        assert not cert.ok
        assert cert.unit_witness == INFINITY
        assert cert.failure_index == 1
