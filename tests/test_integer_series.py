"""The integer route of rational series: ``IntegerSeries`` against
``TruncatedSeries``, and ``expand_G`` and ``apply_series`` against their
Fraction computations, kept here as the oracles.

Every comparison asks for equal values, equal coefficient types and equal
truncations.  The random curves have genus 1-2, both kinds, an integer root
x_w of f (x_w = 0 included) and good reduction at p; their charts are the
Weierstrass chart at x_w and the non-Weierstrass charts with a rational
centre.  One Q(sqrt 60) chart checks that series over a quadratic field keep
the Fraction path.
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcbound import has_smooth_reduction
from qcbound.coleman import ColemanSpec, DiskConstants, _integer_integrand, _integrand, expand_G
from qcbound.diffops import (
    DifferentialOperator,
    apply_series,
    build_annihilator,
    compose_with_base,
    local_operator,
    weierstrass_local_annihilator,
    weierstrass_orders,
)
from qcbound.errors import DomainError, PrecisionError
from qcbound.funcfield import CurveFunction, chart_for, nonweierstrass_chart
from qcbound.hyperelliptic import CurveModel, DiskDescriptor, residue_disks
from qcbound.polys import Poly
from qcbound.series import IntegerSeries, LaurentSeries, TruncatedSeries, combination


def same_series(got, want):
    """Equal values, truncations and coefficient types."""
    return got == want and [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


def fraction_expand_G(spec, chart):
    """``expand_G`` on ``TruncatedSeries`` alone: each used integrand from
    ``_integrand``, each row sum a chain of scales and sums."""
    consts = spec.constants_for(chart.disk)
    as_outer = [any(row) for row in spec.a_matrix]
    as_inner = [any(col) or a for col, a in zip(zip(*spec.a_matrix), spec.a_vector)]
    integrands = [_integrand(omega, chart) if o or i else None
                  for omega, o, i in zip(spec.basis, as_outer, as_inner)]
    singles = [integrand.antiderivative(c) if i else None
               for integrand, i, c in zip(integrands, as_inner, consts.singles)]
    out = None
    for row, outer, doubles in zip(spec.a_matrix, integrands, consts.doubles):
        if not any(row):
            continue
        inner, constant = None, Fraction(0)
        for a, single, c in zip(row, singles, doubles):
            if a:
                term = single.scale(a)
                inner = term if inner is None else inner + term
                constant += a * c
        J = (outer * inner).antiderivative(constant)
        out = J if out is None else out + J
    for a, single in zip(spec.a_vector, singles):
        if a:
            term = single.scale(a)
            out = term if out is None else out + term
    if spec.eta is not None and spec.eta:
        term = _integrand(spec.eta, chart).antiderivative(consts.eta)
        out = term if out is None else out + term
    if spec.h:
        term = chart.expand(spec.h)
        out = term if out is None else out + term
    if out is None:
        out = TruncatedSeries.zero(chart.T)
    return out


def fraction_apply_series(D, F):
    """``apply_series`` on ``TruncatedSeries`` alone, for an operator with a
    nonzero coefficient: sum G_k F^(k), one series product per term."""
    out, current = None, F
    for i, g in enumerate(D.coeffs):
        if i > 0:
            current = current.derivative()
        if not g.is_known_zero():
            term = g * current
            out = term if out is None else out + term
    return out


# -- IntegerSeries against TruncatedSeries ------------------------------------

rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 40)),
)


@st.composite
def fraction_series(draw, min_size=0):
    """A Fraction series, often a polynomial padded with known zeros."""
    n = draw(st.integers(min_size, 9))
    nonzero = draw(st.integers(0, n))
    coeffs = draw(st.lists(rationals, min_size=nonzero, max_size=nonzero))
    return TruncatedSeries(coeffs + [Fraction(0)] * (n - nonzero))


class TestIntegerSeries:
    @settings(max_examples=120, deadline=None)
    @given(fraction_series(), fraction_series(), rationals, st.integers(-30, 30))
    def test_operations_match_truncated_series(self, a, b, c, k):
        A, B = IntegerSeries.of(a), IntegerSeries.of(b)
        assert same_series(A.series(), a)
        assert same_series((A + B).series(), a + b)
        assert same_series((A - B).series(), a - b)
        assert same_series((A * B).series(), a * b)
        assert same_series(A.scale(k).series(), a.scale(k))
        assert same_series(A.antiderivative(c).series(), a.antiderivative(c))
        assert same_series(A.antiderivative().series(), a.antiderivative())
        if a.truncation:
            assert same_series(A.derivative().series(), a.derivative())
        assert A.is_known_zero() == a.is_known_zero()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(rationals.filter(bool), fraction_series()), min_size=1, max_size=4))
    def test_combination_matches_scales_and_sums(self, terms):
        want = functools.reduce(TruncatedSeries.__add__, [s.scale(c) for c, s in terms])
        got = combination([(c, IntegerSeries.of(s)) for c, s in terms])
        assert same_series(got.series(), want)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(fraction_series(), min_size=1, max_size=4))
    def test_one_denominator_keeps_every_series(self, series):
        entries = IntegerSeries.over_one_denominator(series)
        assert len({e.den for e in entries}) == 1
        for entry, s in zip(entries, series):
            assert same_series(entry.series(), s)

    def test_mixed_denominators_add_over_their_lcm(self):
        a = IntegerSeries(6, [1, 2, 3], 3)
        b = IntegerSeries(4, [1, 0, 1, 5], 4)
        s = a + b
        assert (s.den, s.ints, s.n) == (12, [5, 4, 9], 3)

    def test_antiderivative_of_known_zero(self):
        zero = IntegerSeries(7, None, 4)
        assert zero.antiderivative().ints is None
        assert same_series(zero.antiderivative(Fraction(2, 3)).series(),
                           TruncatedSeries.zero(4).antiderivative(Fraction(2, 3)))

    def test_derivative_of_precision_zero_raises(self):
        with pytest.raises(PrecisionError):
            IntegerSeries(1, None, 0).derivative()


# -- random curves with a rational Weierstrass centre ---------------------------


def random_curve(rng):
    """(curve, p, x_w): y^2 = (x - x_w) h(x) of genus 1-2, both kinds, with
    good reduction at p and x_w = 0 one time in three."""
    while True:
        kind, g = rng.choice(["odd", "even"]), rng.choice([1, 2])
        degree = 2 * g + 1 if kind == "odd" else 2 * g + 2
        x_w = 0 if rng.random() < 1 / 3 else rng.randint(-4, 4)
        h = Poly([rng.randint(-5, 5) for _ in range(degree - 1)] + [1])
        p = rng.choice([5, 7, 11, 13])
        try:
            C = CurveModel(kind, Poly([-x_w, 1]) * h)
        except DomainError:          # not squarefree
            continue
        if has_smooth_reduction(C, p):
            return C, p, x_w


def random_spec(rng, C, p, T, disk):
    """A spec with random a_matrix, a_vector, h (zero one time in three, so
    that its expansion does not cap G), eta = c x^k / y and nonzero disk
    constants on ``disk``."""
    n = C.basis_size

    def draw(zero_share):
        if rng.random() < zero_share:
            return Fraction(0)
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))

    a = [[draw(0.5) for _ in range(n)] for _ in range(n)]
    v = [draw(0.5) for _ in range(n)]
    h = CurveFunction(C, Poly([rng.randint(-3, 3) for _ in range(C.genus + 1)]),
                      Poly([rng.randint(-2, 2)]))
    if rng.random() < 1 / 3:
        h = None
    eta = None
    if rng.random() < 0.5:
        eta = CurveFunction.x_power_over_y(C, rng.randint(0, n + 1)) * CurveFunction.const(C, draw(0))
    constants = {str(disk): DiskConstants([draw(0) for _ in range(n)], [[draw(0) for _ in range(n)]
                                                                      for _ in range(n)], draw(0))}
    return ColemanSpec(curve=C, p=p, a_matrix=a, a_vector=v, h=h, eta=eta, T=T, constants=constants)


def rational_charts(rng, C, p, x_w, T):
    """The Weierstrass chart at x_w and one non-Weierstrass chart with a
    rational centre, when the curve has one."""
    disks = residue_disks(C, p)
    centre = next(d for d in disks if d.kind == "affine_weierstrass" and d.x_bar == x_w % p)
    charts = [chart_for(C, centre, p, T)]
    others = [d for d in disks if d.kind == "affine_nonweierstrass"]
    rng.shuffle(others)
    for disk in others[:4]:
        chart = chart_for(C, disk, p, T)
        if chart.embedding is None:
            charts.append(chart)
            break
    return charts


class TestIntegerRoute:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(12, 32))
    def test_expand_G_and_apply_series_match_the_fraction_path(self, seed, T):
        rng = random.Random(seed)
        C, p, x_w = random_curve(rng)
        for chart in rational_charts(rng, C, p, x_w, T):
            assert chart.embedding is None
            spec = random_spec(rng, C, p, T, chart.disk)
            G = expand_G(spec, chart)
            assert same_series(G, fraction_expand_G(spec, chart)), (C, p, chart.disk)
            if chart.disk.kind == "affine_weierstrass":
                L = compose_with_base(weierstrass_local_annihilator(chart), "omega0", chart)
            else:
                L = local_operator(DifferentialOperator([CurveFunction.x(C), CurveFunction.y(C),
                                                         CurveFunction.const(C, 1)], base="omega0"), chart)
            assert same_series(apply_series(L, G), fraction_apply_series(L, G)), (C, p, chart.disk)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(3, 32))
    def test_integrands_match_the_fraction_integrands(self, seed, T):
        # omega_j/dt as x^j omega_0/dt, cut where the Fraction path cuts it;
        # G alone would hide a longer integrand behind a shorter term
        rng = random.Random(seed)
        C, p, x_w = random_curve(rng)
        basis = ColemanSpec(curve=C, p=p, a_matrix=[[0] * C.basis_size] * C.basis_size,
                            a_vector=[0] * C.basis_size).basis
        for chart in rational_charts(rng, C, p, x_w, T):
            try:
                omega0 = LaurentSeries.from_series(_integrand(basis[0], chart)).normalized()
            except PrecisionError:      # f(x(t)) known zero: no integrand at all
                continue
            omega0 = (omega0.order, IntegerSeries.of(omega0.series))
            for j, omega in enumerate(basis):
                got = _integer_integrand(chart, j, omega0).series()
                assert same_series(got, _integrand(omega, chart)), (C, p, chart.disk, j)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(10, 30))
    def test_annihilator_rows_from_the_power_table(self, seed, T):
        # the rows 1, x, ..., x^(m-1) as the chart expands them, cut to T
        rng = random.Random(seed)
        C, p, x_w = random_curve(rng)
        chart = rational_charts(rng, C, p, x_w, T)[0]
        funcs = [TruncatedSeries(chart.expand(CurveFunction(C, Poly.x_power(k))).coeffs[:T])
                 for k in range(C.basis_size)]
        want = build_annihilator(weierstrass_orders(C), funcs).coeffs
        got = weierstrass_local_annihilator(chart).coeffs
        assert len(got) == len(want)
        assert all(same_series(g, w) for g, w in zip(got, want)), (C, p, x_w)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(fraction_series(), min_size=1, max_size=5), fraction_series(min_size=6))
    def test_apply_series_on_random_rational_series(self, coeffs, F):
        D = DifferentialOperator._untrimmed(coeffs)
        if F.truncation <= D.order:
            with pytest.raises(PrecisionError):
                apply_series(D, F)
        elif any(not g.is_known_zero() for g in coeffs):
            assert same_series(apply_series(D, F), fraction_apply_series(D, F))
        else:
            known = min(F.truncation - D.order, *(g.truncation for g in coeffs))
            assert same_series(apply_series(D, F), TruncatedSeries.zero(known))

    def test_quadratic_chart_keeps_the_fraction_path(self, monkeypatch):
        f = Poly([0, -1, 0, 1]) * Poly([2, 0, 0, 1])      # (x^3 - x)(x^3 + 2)
        C = CurveModel("even", f)
        chart = nonweierstrass_chart(C, DiskDescriptor("affine_nonweierstrass", 2, 2), 7, 20)
        assert chart.embedding is not None
        spec = random_spec(random.Random(5), C, 7, 20, chart.disk)
        D = DifferentialOperator([CurveFunction.x(C), CurveFunction.y(C), CurveFunction.const(C, 1)],
                                 base="omega0")
        L = local_operator(D, chart)
        lifted = []
        of = IntegerSeries.of
        monkeypatch.setattr(IntegerSeries, "of", lambda s: lifted.append(s) or of(s))
        G = expand_G(spec, chart)
        DG = apply_series(L, G)
        assert not lifted
        assert same_series(G, fraction_expand_G(spec, chart))
        assert same_series(DG, fraction_apply_series(L, G))
