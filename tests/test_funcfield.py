import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcbound.errors import DomainError, PoleError
from qcbound.funcfield import (
    CurveFunction,
    PoleLedger,
    RationalFunc,
    infinite_chart,
    ledger_derivative,
    ledger_general_derivative,
    ledger_of,
    nonweierstrass_chart,
    weierstrass_chart,
)
from qcbound.hyperelliptic import CurveModel, DiskDescriptor, good_reduction_at, residue_disks
from qcbound.padics import reduce_mod
from qcbound.polys import Poly
from qcbound.quadext import QuadExt
from qcbound.series import LaurentSeries, TruncatedSeries


def elliptic():
    return CurveModel("odd", [1, 1, 0, 1])          # y^2 = x^3 + x + 1


def genus2_even():
    # f = (x^3 - x)(x^3 + 2), all Weierstrass x-coordinates 0, 1, -1 rational
    f = Poly([0, -1, 0, 1]) * Poly([2, 0, 0, 1])
    return CurveModel("even", f)


def genus2_odd():
    return CurveModel("odd", [1, 0, 0, 0, 0, 1])    # y^2 = x^5 + 1


class TestFieldOps:
    def test_y_squared_reduces(self):
        C = elliptic()
        y = CurveFunction.y(C)
        assert y * y == CurveFunction(C, C.f)

    def test_involution(self):
        C = elliptic()
        F = CurveFunction.x(C) + CurveFunction.y(C)
        assert F.involution() == CurveFunction.x(C) - CurveFunction.y(C)

    def test_invert_y(self):
        C = elliptic()
        y = CurveFunction.y(C)
        inv = y.inverse()
        assert inv == CurveFunction(C, Poly(), RationalFunc(Poly([1]), C.f))
        assert y * inv == CurveFunction.const(C, 1)

    def test_random_inverses(self):
        C = genus2_odd()
        rng = random.Random(2)
        for _ in range(25):
            F = CurveFunction(
                C,
                Poly([rng.randint(-5, 5) for _ in range(3)]),
                RationalFunc(Poly([rng.randint(-5, 5) for _ in range(2)])),
            )
            if not F:
                continue
            assert F * F.inverse() == CurveFunction.const(C, 1)

    def test_d_dx_of_y(self):
        C = elliptic()
        dy = CurveFunction.y(C).d_dx()
        # f'/(2y) = (f'/(2f)) y
        expected = CurveFunction(C, Poly(), RationalFunc(C.f.derivative(), C.f * 2))
        assert dy == expected

    def test_d_dx_powers(self):
        C = elliptic()
        x = CurveFunction.x(C)
        assert (x * x * x).d_dx() == 3 * x * x

    def test_d_dx_quotient_rule(self):
        C = elliptic()
        x, y = CurveFunction.x(C), CurveFunction.y(C)
        lhs = (x / y).d_dx()
        rhs = y.inverse() - (x * y.d_dx()) / (y * y)
        assert lhs == rhs

    def test_d_by_omega0(self):
        C = elliptic()
        x = CurveFunction.x(C)
        assert x.d_by_omega0() == CurveFunction.y(C)
        assert CurveFunction.const(C, 7).d_by_omega0() == CurveFunction.const(C, 0)
        # (d/omega0)^2 x = y * d/dx y = f'/2
        dd = x.d_by_omega0().d_by_omega0()
        assert dd == CurveFunction(C, C.f.derivative() * Poly([Fraction(1, 2)]))

    def test_omega0_derivation_preserves_polynomials(self):
        C = genus2_even()
        F = CurveFunction(C, Poly([1, 2, 0, 1]), RationalFunc(Poly([3, 1])))
        a, b = F.d_by_omega0().view()
        assert a.den.degree == 0 and b.den.degree == 0

    def test_leibniz(self):
        C = genus2_odd()
        rng = random.Random(4)
        for _ in range(20):
            F = CurveFunction(C, Poly([rng.randint(-4, 4) for _ in range(3)]),
                              RationalFunc(Poly([rng.randint(-4, 4) for _ in range(2)])))
            G = CurveFunction(C, Poly([rng.randint(-4, 4) for _ in range(2)]),
                              RationalFunc(Poly([rng.randint(-4, 4) for _ in range(3)])))
            assert (F * G).d_dx() == F.d_dx() * G + F * G.d_dx()


class TestExpansion:
    def test_y_at_0_1(self):
        C = elliptic()
        disk = DiskDescriptor("affine_nonweierstrass", 0, 1)
        chart = nonweierstrass_chart(C, disk, 5, 8)
        s = chart.expand(CurveFunction.y(C))
        # sqrt(1 + t + t^3) = 1 + t/2 - t^2/8 + ...
        assert s.coeffs[0] == 1
        assert s.coeffs[1] == Fraction(1, 2)
        assert s.coeffs[2] == Fraction(-1, 8)
        sq = s * s
        f_shift = TruncatedSeries.from_polynomial(C.f.compose_shift(Fraction(0)).coeffs, 8)
        assert sq.agrees_with(f_shift)

    def test_x_at_affine_disk(self):
        C = elliptic()
        disk = DiskDescriptor("affine_nonweierstrass", 0, 1)
        chart = nonweierstrass_chart(C, disk, 5, 6)
        s = chart.expand(CurveFunction.x(C))
        assert s.coeffs[0] == 0 and s.coeffs[1] == 1

    def test_quadratic_lift(self):
        C = elliptic()
        disk = DiskDescriptor("affine_nonweierstrass", 2, 2)   # f(2) = 11, 2^2 = 4 == 11 mod 7? 11 mod 7 = 4 yes
        chart = nonweierstrass_chart(C, disk, 7, 6)
        assert chart.embedding is not None
        y_exp = chart.expand(CurveFunction.y(C))
        assert isinstance(y_exp.coeffs[0], QuadExt)
        assert chart.valuation_of(y_exp.coeffs[0]) == 0
        sq = y_exp * y_exp
        f_shift = TruncatedSeries.from_polynomial(C.f.compose_shift(Fraction(2)).coeffs, 6)
        for i in range(6):
            assert sq.coeffs[i] == f_shift.coeffs[i]

    def test_one_over_x_at_odd_infinity(self):
        C = elliptic()
        chart = infinite_chart(C, "inf", 10)
        inv_x = CurveFunction.x(C).inverse()
        lau = chart.laurent(inv_x)
        assert lau.t_order() == 2

    def test_infinite_chart_satisfies_curve(self):
        for C in (elliptic(), genus2_odd()):
            chart = infinite_chart(C, "inf", 12)
            y2 = chart.y * chart.y
            fx = chart.eval_poly(C.f)
            diff = y2 - fx
            with pytest.raises(Exception):
                diff.t_order()     # identically zero to available precision

    def test_even_infinite_charts(self):
        C = genus2_even()
        for label in ("inf+", "inf-"):
            chart = infinite_chart(C, label, 12)
            y2 = chart.y * chart.y
            fx = chart.eval_poly(C.f)
            assert (y2 - fx).normalized().series.is_known_zero()
            assert chart.laurent(CurveFunction.y(C)).t_order() == -(C.genus + 1)

    def test_weierstrass_chart(self):
        C = genus2_even()
        disk = DiskDescriptor("affine_weierstrass", 1, 0)
        chart = weierstrass_chart(C, disk, 7, 12)
        # x(t) satisfies f(x(t)) = t^2
        fx = chart.eval_poly(C.f)
        t2 = LaurentSeries(2, TruncatedSeries.from_polynomial([1], 10))
        assert (fx - t2).normalized().series.is_known_zero()
        # y = t exactly
        assert chart.expand(CurveFunction.y(C)).coeffs[1] == 1

    def test_weierstrass_chart_requires_rational_center(self):
        C = genus2_odd()      # x^5 + 1 has root -1 only
        disks = residue_disks(C, 3)
        wdisk = next(d for d in disks if d.kind == "affine_weierstrass")
        assert wdisk.x_bar == 2
        chart = weierstrass_chart(C, wdisk, 3, 8)
        assert chart.center[0] == -1

    def test_pole_detected(self):
        C = elliptic()
        disk = DiskDescriptor("affine_nonweierstrass", 0, 1)
        chart = nonweierstrass_chart(C, disk, 5, 6)
        with pytest.raises(PoleError):
            chart.expand(CurveFunction.x(C).inverse())

    def test_derivation_commutes_with_expansion(self):
        # expand(dF/dx) = d/dt expand(F) / (dx/dt) on every chart kind
        rng = random.Random(6)
        C = genus2_even()
        charts = [
            nonweierstrass_chart(C, DiskDescriptor("affine_nonweierstrass", 2, 2), 7, 10),
            weierstrass_chart(C, DiskDescriptor("affine_weierstrass", 1, 0), 7, 10),
            infinite_chart(C, "inf+", 10),
        ]
        for _ in range(70):
            F = CurveFunction(
                C,
                Poly([rng.randint(-4, 4) for _ in range(4)]),
                RationalFunc(Poly([rng.randint(-4, 4) for _ in range(3)])),
            )
            dF = F.d_dx()
            for chart in charts:
                lhs = chart.laurent(dF)
                rhs = chart.laurent(F).derivative() / chart.dx_dt
                diff = (lhs - rhs).normalized()
                assert not any(diff.series.coeffs[:6])


class TestLedgers:
    def test_x_power_over_y_even(self):
        C = genus2_even()
        g = C.genus
        for j in range(2 * g + 1):
            F = CurveFunction.x_power_over_y(C, j)
            led = ledger_of(F)
            assert led.m_W == 1
            assert led.n_inf == j - g - 1
            assert led.within(j - g - 1, 1)

    def test_x_on_odd_model(self):
        led = ledger_of(CurveFunction.x(genus2_odd()))
        assert led == PoleLedger(2, 0)

    def test_y_on_even_model(self):
        C = genus2_even()
        led = ledger_of(CurveFunction.y(C))
        assert led.n_inf == C.genus + 1
        assert led.m_W == -1       # vanishes on all of W

    def test_derivative_rules(self):
        assert ledger_derivative(PoleLedger(5, 0), "even") == PoleLedger(4, 1)
        assert ledger_derivative(PoleLedger(5, 3), "even") == PoleLedger(4, 5)
        assert ledger_derivative(PoleLedger(5, 0), "odd") == PoleLedger(3, 1)
        assert ledger_derivative(PoleLedger(5, 2), "odd") == PoleLedger(3, 4)

    def test_derivative_rule_sound_on_curve(self):
        C = genus2_even()
        rng = random.Random(8)
        for _ in range(15):
            F = CurveFunction(
                C,
                Poly([rng.randint(-3, 3) for _ in range(3)]),
                RationalFunc(Poly([rng.randint(-3, 3) for _ in range(2)])),
            )
            if not F:
                continue
            dF = F.d_dx()
            if not dF:
                continue        # the zero function lies in every section space
            led_d = ledger_derivative(ledger_of(F), "even")
            actual = ledger_of(dF)
            assert actual.n_inf <= led_d.n_inf
            assert actual.m_W <= led_d.m_W

    def test_general_derivative_dominates_specialized_rule(self):
        # even model, j = 1: the general claim W + D + D_0 contains the
        # specialized (n-1, m+2) ledger for every starting ledger
        g = 2
        deg_inf, deg_W = 2, 2 * g + 2
        for n, m in ((5, 0), (5, 3), (2, 1)):
            rec = ledger_general_derivative(
                1,
                deg_W=deg_W, deg_W0=deg_W,
                deg_D=n * deg_inf + m * deg_W,
                deg_D0=deg_inf + (deg_W if m else 0),
            )
            specialized = ledger_derivative(PoleLedger(n, m), "even")
            specialized_deg = specialized.n_inf * deg_inf + specialized.m_W * deg_W
            assert rec["degree"] >= specialized_deg

    def test_general_derivative_record(self):
        rec = ledger_general_derivative(2, deg_W=4, deg_W0=4, deg_D=3, deg_D0=2)
        assert rec["W"] == 2 and rec["W0"] == 1 and rec["D"] == 1 and rec["D0"] == 2
        assert rec["corollary_W"] == 3 and rec["corollary_D"] == 3
        assert rec["degree"] == 2 * 4 + 1 * 4 + 3 + 2 * 2
        assert rec["corollary_degree"] == 3 * 4 + 3 * 3

    def test_general_derivative_j6_formula(self):
        # iterated odd-model rule reproduces (2k+1)W + (2j-2k-2g-1)*infinity
        C = genus2_odd()
        g = C.genus
        for j in range(g + 2):
            led = ledger_of(CurveFunction.x_power_over_y(C, j))
            assert led.m_W == 1
            assert led.n_inf == 2 * j - 2 * g - 1
            for k in range(1, 4):
                led = ledger_derivative(led, "odd")
                assert led.m_W == 2 * k + 1
                assert led.n_inf == 2 * j - 2 * k - 2 * g - 1

    def test_ledger_sound_under_derivatives(self):
        C = genus2_odd()
        F = CurveFunction.x_power_over_y(C, 2)
        claimed = ledger_of(F)
        for _ in range(3):
            F = F.d_dx()
            claimed = ledger_derivative(claimed, "odd")
            actual = ledger_of(F)
            assert actual.n_inf <= claimed.n_inf
            assert actual.m_W <= claimed.m_W


class TestParity:
    def test_omega0_powers_parity_at_weierstrass(self):
        # (d/omega0)^j x^i is odd for odd j: its t-expansion at a Weierstrass
        # center (t = y) has only odd-index coefficients; even j only even.
        C = genus2_even()
        chart = weierstrass_chart(C, DiskDescriptor("affine_weierstrass", 0, 0), 7, 12)
        for i in (1, 2, 3):
            F = CurveFunction.x(C)
            F = F * F if i == 2 else (F * F * F if i == 3 else F)
            for j in range(1, 5):
                F_j = F
                for _ in range(j):
                    F_j = F_j.d_by_omega0()
                exp = chart.expand(F_j)
                bad = range(0, exp.truncation, 2) if j % 2 else range(1, exp.truncation, 2)
                assert all(not exp.coeffs[k] for k in bad)


# -- chart properties against the curve equation ----------------------------------


@st.composite
def curves_with_prime(draw):
    """(C, p, T): a monic squarefree f of genus 1-3 on either model, built
    from distinct rational roots times a random monic cofactor so that
    rational Weierstrass centres come up often; p in {5, 7, 11, 13} of good
    reduction; T in [1, 30]."""
    kind = draw(st.sampled_from(["odd", "even"]))
    deg = 2 * draw(st.integers(1, 3)) + (1 if kind == "odd" else 2)
    roots = draw(st.lists(st.integers(-6, 6), unique=True, max_size=deg))
    rest = draw(st.lists(st.integers(-4, 4), min_size=deg - len(roots), max_size=deg - len(roots)))
    f = Poly(rest + [1])
    for r in roots:
        f = f * Poly([-r, 1])
    try:
        C = CurveModel(kind, f)
    except DomainError:
        assume(False)
    primes = [p for p in (5, 7, 11, 13) if good_reduction_at(C, p)]
    assume(primes)
    # T <= 3 on half the draws: the charts' shortest series are edge cases
    return C, draw(st.sampled_from(primes)), draw(st.one_of(st.integers(1, 3), st.integers(4, 30)))


def horner(poly, x, T):
    """poly(x) by Horner's rule in series products, independent of the chart's
    power table; x is a TruncatedSeries or a LaurentSeries."""
    def const(c):
        s = TruncatedSeries.from_polynomial([c], T)
        return s if isinstance(x, TruncatedSeries) else LaurentSeries(0, s)
    acc = const(poly.coeffs[-1])
    for c in reversed(poly.coeffs[:-1]):
        acc = acc * x + const(c)
    return acc


class TestChartProperties:
    @settings(max_examples=40, deadline=None)
    @given(curves_with_prime())
    def test_charts_satisfy_the_curve_equation(self, case):
        C, p, T = case
        for disk in residue_disks(C, p):
            if disk.kind == "affine_weierstrass":
                try:
                    chart = weierstrass_chart(C, disk, p, T)
                except DomainError as exc:
                    assert "irrational Weierstrass lifts" in str(exc)
                    continue
                # x(0) = x_w, a root of f over x_bar, and f(x(t)) = t^2 + O(t^T)
                x_w = chart.center[0]
                assert not C.f(x_w) and reduce_mod(x_w, p) == disk.x_bar
                x = chart.x.regular_part()
                assert x.truncation == T and x.coeffs[0] == x_w
                residual = horner(C.f, x, T) - TruncatedSeries.from_polynomial([0, 0, 1], T)
                assert residual.truncation == T and residual.is_known_zero()
            elif disk.kind == "affine_nonweierstrass":
                chart = nonweierstrass_chart(C, disk, p, T)
                x0 = chart.center[0]
                assert chart.x.regular_part() == TruncatedSeries.from_polynomial([x0, 1], T)
                y = chart.y.regular_part()
                assert y * y == TruncatedSeries.from_polynomial(C.f.compose_shift(x0).coeffs, T)
            else:
                chart = infinite_chart(C, disk.label, T, p=p)
                y2 = chart.y * chart.y
                diff = y2 - horner(C.f, chart.x, T)
                # known to the precision of y^2, and zero there
                assert diff.end == y2.end and diff.normalized().series.is_known_zero()
