import random
from fractions import Fraction
from math import comb, factorial
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import series_reference as ref
from operator_oracle import algebraic_operator
from perfbench_support import workload_cases

from qcbound.diffops import (
    DifferentialOperator,
    _minor_determinants,
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
    weierstrass_orders,
)
from qcbound.errors import (
    DegenerateOperatorError,
    DomainError,
    PrecisionError,
    SearchExhaustedError,
)
from qcbound.funcfield import CurveFunction, chart_for, nonweierstrass_chart, weierstrass_chart
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

    def test_known_zero_operator_gives_a_known_zero_series(self):
        # x^6 at the disk centred at x = 0 is t^6, so to T = 6 its local
        # coefficient is known zero: the result is zero to T(F) - order
        C = CurveModel("odd", [1, 1, 0, 1])
        chart = nonweierstrass_chart(C, DiskDescriptor("affine_nonweierstrass", 0, 1), 5, 6)
        assert chart.center[0] == 0
        F = chart.expand(CurveFunction.x(C))
        out = apply_on_chart(DifferentialOperator([CurveFunction(C, Poly.x_power(6))]), F, chart)
        assert out == TruncatedSeries.zero(6)
        # capped by the coefficients' own truncations
        D = DifferentialOperator._untrimmed([S([0], 5), S([0], 7), S([0], 9)])
        assert apply_series(D, S([1, 2, 3], 8)) == TruncatedSeries.zero(5)
        assert apply_series(D, S([1, 2, 3], 6)) == TruncatedSeries.zero(4)

    @pytest.mark.parametrize("scalar", [1, Fraction(1, 2)])
    def test_scalar_coefficients_rejected(self, scalar):
        # coefficients are CurveFunction or TruncatedSeries; a scalar is not
        # read as a constant series
        with pytest.raises(DomainError):
            DifferentialOperator([S([0], 4), scalar])


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

    @pytest.mark.parametrize("T", [1, 2, 3])
    def test_a_short_chart_is_a_precision_shortfall(self, T):
        # d/dt o d/omega0 on y^2 = x^3 + x + 1 at p = 5: slot 1 is V', and V =
        # y/(dx/dt) is known to T - 1 coefficients, so T = 3 is the least
        # chart that knows V' at all; below it the shortfall names a T
        C = CurveModel("odd", [1, 1, 0, 1])
        chart = chart_for(C, DiskDescriptor("affine_nonweierstrass", 0, 1), 5, T)
        D1 = DifferentialOperator([TruncatedSeries.zero(T), TruncatedSeries.one(T)])
        if T < 3:
            with pytest.raises(PrecisionError) as raised:
                compose_with_base(D1, "omega0", chart)
            # at T = 2 it names the T that works; at T = 1 dx/dt itself is
            # known to no coefficient, and V cannot be formed
            assert raised.value.needed == 3 if T == 2 else raised.value.needed > T
            return
        D = compose_with_base(D1, "omega0", chart)
        assert D.order == 2
        assert [G.truncation for G in D.coeffs] == [3, 1, 2]
        assert D.coeffs[1].agrees_with(chart.y.series.derivative())


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


def generic_annihilator(S, funcs):
    """The coefficients of ``build_annihilator``, or DegenerateOperatorError,
    from the minor DP on the ``TruncatedSeries`` entries of
    ``annihilator_matrix``."""
    S = sorted(S)
    minors = _minor_determinants(annihilator_matrix(S, funcs))
    if all(m.is_known_zero() for m in minors):
        return DegenerateOperatorError
    coeffs = [TruncatedSeries.zero(minors[0].truncation)] * (S[-1] + 1)
    for i, (n, det) in enumerate(zip(S, minors)):
        coeffs[n] = det.scale((-1) ** i * Fraction(factorial(S[-1]), factorial(n)))
    return DifferentialOperator(coeffs).coeffs


def built_annihilator(S, funcs):
    try:
        return build_annihilator(S, funcs).coeffs
    except DegenerateOperatorError:
        return DegenerateOperatorError


def same_coefficients(got, expected):
    """Equal values, truncations and coefficient types."""
    if isinstance(expected, type):
        return got is expected
    return (not isinstance(got, type) and got == expected
            and [[type(c) for c in g.coeffs] for g in got] == [[type(c) for c in e.coeffs] for e in expected])


def weierstrass_inputs(chart):
    """1, x, ..., x^(m-1) on a Weierstrass chart, as ``weierstrass_local_annihilator`` reads them."""
    C = chart.model
    return [TruncatedSeries(chart.expand(CurveFunction(C, Poly.x_power(k))).coeffs[:chart.T])
            for k in range(C.basis_size)]


WEIERSTRASS_CHARTS = [
    ("genus2_even_p7", genus2_even().f.coeffs, "even", 7, 26, 3),
    ("genus2_even_p7", genus2_even().f.coeffs, "even", 7, 52, 3),
    ("x(x^2-1)(x^2-4)", [0, 4, 0, -5, 0, 1], "odd", 11, 40, 5),
    ("x^3-x", [0, -1, 0, 1], "odd", 7, 5, 3),
    ("x^3-x", [0, -1, 0, 1], "odd", 7, 12, 3),
    ("x^3-x", [0, -1, 0, 1], "odd", 7, 20, 3),
]

rational_coefficients = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 40)),
)


@st.composite
def annihilator_inputs(draw):
    """(S, funcs): rational series of mixed lengths, many of them polynomials
    of low degree, whose high-order entries are known zero."""
    m = draw(st.integers(1, 3))
    S = sorted(draw(st.sets(st.integers(0, 7), min_size=m + 1, max_size=m + 1)))
    funcs = []
    for _ in range(m):
        T = draw(st.integers(S[-1] + 1, S[-1] + 6))
        nonzero = draw(st.integers(0, T))
        coeffs = draw(st.lists(rational_coefficients, min_size=nonzero, max_size=nonzero))
        funcs.append(TruncatedSeries(coeffs + [Fraction(0)] * (T - nonzero)))
    return S, funcs


class TestIntegerMinors:
    """On rational series the annihilator's minors run on integer rows; the
    minor DP on ``TruncatedSeries`` entries is the reference."""

    @pytest.mark.parametrize("name, f, kind, p, T, disks", WEIERSTRASS_CHARTS)
    def test_weierstrass_charts_match_the_series_minors(self, name, f, kind, p, T, disks):
        C = CurveModel(kind, f)
        charts = [weierstrass_chart(C, d, p, T) for d in residue_disks(C, p) if d.kind == "affine_weierstrass"]
        assert len(charts) == disks
        for chart in charts:
            funcs = weierstrass_inputs(chart)
            expected = generic_annihilator(weierstrass_orders(C), funcs)
            assert same_coefficients(built_annihilator(weierstrass_orders(C), funcs), expected), (name, chart.disk)
            assert same_coefficients(weierstrass_local_annihilator(chart).coeffs, expected), (name, chart.disk)

    @settings(max_examples=150, deadline=None)
    @given(annihilator_inputs())
    def test_random_rational_series_match_the_series_minors(self, inputs):
        S, funcs = inputs
        assert same_coefficients(built_annihilator(S, funcs), generic_annihilator(S, funcs))

    def test_rational_series_build_no_fractions(self, monkeypatch):
        C = genus2_even()
        disk = next(d for d in residue_disks(C, 7) if d.kind == "affine_weierstrass")
        funcs = weierstrass_inputs(weierstrass_chart(C, disk, 7, 26))
        reads = count_coefficient_reads(monkeypatch)
        D = build_annihilator(weierstrass_orders(C), funcs)
        assert D.order == 9 and not reads
        assert all(g._coeffs is None for g in D.coeffs)
        # the counter sees a read
        assert D.leading.coeffs and reads == [D.leading]


def count_coefficient_reads(monkeypatch):
    """The series whose ``coeffs`` are read from now on, in the order read."""
    reads, coeffs = [], TruncatedSeries.coeffs
    monkeypatch.setattr(TruncatedSeries, "coeffs", property(lambda s: reads.append(s) or coeffs.fget(s)))
    return reads


def fraction_compose(D1, chart):
    """compose_with_base(D1, "omega0", chart) on plain lists: V = y / (dx/dt)
    by a list inverse and product, slot i - k + 1 receiving binom(i, k) c_i
    V^(k) (a known-zero c_i or V^(k) skipped), slot 0 the zero series, and
    the coefficients trimmed as ``DifferentialOperator`` trims them.  Slot 1
    sums c_i V^(i) for every i, so it is known to the least of len(V) - N
    and the len(c_i); PrecisionError when that is no coefficient, and a slot
    no term reaches is a known zero of that length."""
    order, dx_dt = ref.laurent_normalized(chart.dx_dt.order, list(chart.dx_dt.series.coeffs))
    V = ref.regular_part(*ref.laurent_mul((chart.y.order, list(chart.y.series.coeffs)),
                                          (-order, ref.inverse(dx_dt))))
    coeffs = [list(g.coeffs) for g in D1.coeffs]
    known = min(len(V) - (len(coeffs) - 1), *map(len, coeffs))
    if known < 1:
        raise PrecisionError("slot 1 is known to no coefficient", needed=chart.T + 1 - known)
    chain = [V]
    for _ in range(len(coeffs) - 1):
        chain.append(ref.derivative(chain[-1]))
    out = [None] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        for k, vk in enumerate(chain[:i + 1]):
            if any(c) and any(vk):
                term = ref.scale(ref.mul(c, vk), comb(i, k))
                j = i - k + 1
                out[j] = term if out[j] is None else ref.add(out[j], term)
    out = [[Fraction(0)] * known if G is None else G for G in out]
    out[0] = [Fraction(0)] * len(coeffs[-1])
    while out and not any(out[-1]):
        out.pop()
    if not out:
        raise DegenerateOperatorError("all operator coefficients vanish")
    return out


def same_lists(got, expected):
    """Series coefficients with the values, types and truncations of the
    reference lists."""
    return len(got) == len(expected) and all(ref.matches(g, e) for g, e in zip(got, expected))


class TestIntegerCompose:
    """On a Weierstrass chart D1 and V are rational series, and the
    composition with d/omega0 runs on integer numerators; the Leibniz
    composition on plain lists is the reference."""

    @pytest.mark.parametrize("f, kind, T", [
        (genus2_even().f.coeffs, "even", 24),
        (genus2_even().f.coeffs, "even", 52),
        ([0, -1, 0, 1], "odd", 20),
    ])
    def test_weierstrass_charts_match_the_fraction_composition(self, monkeypatch, f, kind, T):
        C = CurveModel(kind, f)
        charts = [weierstrass_chart(C, d, 7, T) for d in residue_disks(C, 7) if d.kind == "affine_weierstrass"]
        assert len(charts) == 3
        for chart in charts:
            D1 = weierstrass_local_annihilator(chart)
            expected = fraction_compose(D1, chart)
            with monkeypatch.context() as patch:
                reads = count_coefficient_reads(patch)
                got = compose_with_base(D1, "omega0", chart).coeffs
            # V and the Leibniz terms stay integer numerators throughout
            assert not reads, chart.disk
            assert same_lists(got, expected), chart.disk

    @settings(max_examples=150, deadline=None)
    @given(annihilator_inputs(), st.lists(rational_coefficients, min_size=1, max_size=8), st.integers(0, 6))
    def test_random_rational_series_match_the_fraction_composition(self, inputs, v, pad):
        # coefficients and a V that are polynomials padded with known zeros, so
        # that some g_i and some derivatives of V are known zero and skipped
        _, coeffs = inputs
        assume(any(not g.is_known_zero() for g in coeffs) and v[0])
        V = TruncatedSeries(v + [Fraction(0)] * pad)
        chart = SimpleNamespace(y=LaurentSeries.from_series(V), dx_dt=LaurentSeries.from_series(S([1], 20)),
                                disk="test disk", T=V.truncation)
        D1 = DifferentialOperator(coeffs)
        # a V too short for the order leaves slot 1 known to no coefficient:
        # both paths must then raise alike, with the same T to retry at
        errors = (DegenerateOperatorError, PrecisionError)
        try:
            expected = fraction_compose(D1, chart)
        except errors as exc:
            with pytest.raises(type(exc)) as raised:
                compose_with_base(D1, "omega0", chart)
            assert getattr(raised.value, "needed", None) == getattr(exc, "needed", None)
        else:
            assert same_lists(compose_with_base(D1, "omega0", chart).coeffs, expected)


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


def row_table_local_operator(D, chart):
    """The former ``local_operator``, kept as the reference: the row table
    c_(i+1,k) = V (c_(i,k)' + c_(i,k-1)) gives D^i = sum_k c_(i,k) (d/dt)^k,
    and G_k = sum_i g_i c_(i,k) is summed in Laurent series."""
    if D.base == "dx" and not any(isinstance(g, CurveFunction) for g in D.coeffs):
        return D
    if D.base == "dx":
        V = chart.dx_dt.inverse()
    elif D.base == "dy":
        V = chart.y.derivative().inverse()
    else:
        V = chart.y / chart.dx_dt
    zero = LaurentSeries.from_series(TruncatedSeries.zero(chart.T))
    one = LaurentSeries.from_series(TruncatedSeries.one(chart.T))
    rows = [[one]]
    for _ in range(D.order):
        prev = rows[-1]
        nxt = []
        for k in range(len(prev) + 1):
            acc = prev[k].derivative() if k < len(prev) else None
            if k >= 1:
                acc = prev[k - 1] if acc is None else acc + prev[k - 1]
            nxt.append(V * acc)
        rows.append(nxt)
    out = [zero] * (D.order + 1)
    for i, g in enumerate(D.coeffs):
        if isinstance(g, TruncatedSeries):
            if g.is_known_zero():
                continue
            gl = LaurentSeries.from_series(g)
        elif not g:
            continue
        else:
            gl = chart.laurent(g)
        for k in range(i + 1):
            out[k] = out[k] + gl * rows[i][k]
    return DifferentialOperator._untrimmed([L.regular_part() for L in out])


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
            assert any(want.coeffs[:upto]), name
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

    @pytest.mark.parametrize("chart_name", ["rational", "quadratic", "weierstrass"])
    def test_horner_extends_the_row_table(self, chart_name):
        # Horner's rule composes with V d/dt and never differentiates the
        # constant series the row table starts from: every G_k is known at
        # least as far, and agrees on what the row table knows
        C, charts = reference_charts()
        chart = charts[chart_name]
        ops = algebraic_operators(C)
        if chart_name != "weierstrass":
            ops.update(nonweierstrass_operators(C, chart))
        for name, D in ops.items():
            got = local_operator(D, chart).coeffs
            want = row_table_local_operator(D, chart).coeffs
            assert len(got) == len(want), name
            for k, (G, W) in enumerate(zip(got, want)):
                assert G.truncation >= W.truncation, (name, k)
                assert G.agrees_with(W, upto=W.truncation), (name, k)

    def test_nonweierstrass_disks_keep_the_chart_precision(self):
        # t = x - x0 on a non-Weierstrass chart, so V = 1/(dx/dt) = 1 and only
        # the one coefficient that dx/dt gives up may be lost
        (case,) = workload_cases("genus2_even_p7", 3)
        spec = case.spec
        disks = residue_disks(spec.curve, spec.p)
        D = algebraic_operator(spec)
        nonweierstrass = [d for d in disks if d.kind == "affine_nonweierstrass"]
        assert nonweierstrass
        for disk in nonweierstrass:
            chart = chart_for(spec.curve, disk, spec.p, spec.T)
            L = local_operator(D, chart)
            assert L.order == D.order
            known = [G.truncation for G in L.coeffs]
            assert min(known) >= spec.T - 1, (str(disk), known)
