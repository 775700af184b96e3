"""The integer form of rational series: ``TruncatedSeries`` operations, and
``expand_G`` and ``apply_series`` on disk charts, against the plain-list
reference of ``series_reference``, kept here as the oracles.

Every comparison asks for equal values, equal coefficient types and equal
truncations.  The random curves have genus 1-2, both kinds, an integer root
x_w of f (x_w = 0 included) and good reduction at p; their charts are the
Weierstrass chart at x_w and the non-Weierstrass charts with a rational
centre.  One Q(sqrt 60) chart checks that series over a quadratic field keep
their coefficients.
"""

import random
from fractions import Fraction

import pytest
import series_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from qcbound import has_smooth_reduction
from qcbound.coleman import ColemanSpec, DiskConstants, _integrand, _power_integrand, expand_G
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
from qcbound.quadext import QuadExt
from qcbound.series import TruncatedSeries, combination


def same_series(got, want):
    """Equal values, truncations and coefficient types."""
    return got == want and [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


def in_least_terms(s, coeffs):
    """A rational series holds the numerators of ``coeffs`` over their least
    common denominator, and no list for a known zero."""
    return (s._den, s._ints) == ref.least_terms(coeffs)


def fraction_expand_G(spec, chart):
    """``expand_G`` on plain lists: each used integrand read from
    ``_integrand``, then list antiderivatives, products, scales and sums."""
    consts = spec.constants_for(chart.disk)
    as_outer = [any(row) for row in spec.a_matrix]
    as_inner = [any(col) or a for col, a in zip(zip(*spec.a_matrix), spec.a_vector)]
    integrands = [list(_integrand(omega, chart).coeffs) if o or i else None
                  for omega, o, i in zip(spec.basis, as_outer, as_inner)]
    singles = [ref.antiderivative(integrand, c) if i else None
               for integrand, i, c in zip(integrands, as_inner, consts.singles)]
    out = None
    for row, outer, doubles in zip(spec.a_matrix, integrands, consts.doubles):
        if not any(row):
            continue
        inner, constant = None, Fraction(0)
        for a, single, c in zip(row, singles, doubles):
            if a:
                term = ref.scale(single, a)
                inner = term if inner is None else ref.add(inner, term)
                constant += a * c
        J = ref.antiderivative(ref.mul(outer, inner), constant)
        out = J if out is None else ref.add(out, J)
    for a, single in zip(spec.a_vector, singles):
        if a:
            term = ref.scale(single, a)
            out = term if out is None else ref.add(out, term)
    if spec.eta is not None and spec.eta:
        term = ref.antiderivative(list(_integrand(spec.eta, chart).coeffs), consts.eta)
        out = term if out is None else ref.add(out, term)
    if spec.h:
        term = list(chart.expand(spec.h).coeffs)
        out = term if out is None else ref.add(out, term)
    if out is None:
        out = [Fraction(0)] * chart.T
    return out


def fraction_apply_series(D, F):
    """``apply_series`` on plain lists, for an operator with a nonzero
    coefficient: sum G_k F^(k), one list product per term."""
    out, current = None, list(F.coeffs)
    for i, g in enumerate(D.coeffs):
        if i > 0:
            current = ref.derivative(current)
        if any(g.coeffs):
            term = ref.mul(list(g.coeffs), current)
            out = term if out is None else ref.add(out, term)
    return out


# -- rational series against the list reference -------------------------------

rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 40)),
)


@st.composite
def fraction_lists(draw, min_size=0):
    """The coefficients of a rational series, often a polynomial padded with
    zeros."""
    n = draw(st.integers(min_size, 9))
    nonzero = draw(st.integers(0, n))
    coeffs = draw(st.lists(rationals, min_size=nonzero, max_size=nonzero))
    return coeffs + [Fraction(0)] * (n - nonzero)


def fraction_series(min_size=0):
    return fraction_lists(min_size).map(TruncatedSeries)


class TestIntegerSeries:
    @settings(max_examples=120, deadline=None)
    @given(fraction_lists(), fraction_lists(), rationals, st.integers(-30, 30))
    def test_operations_match_the_list_reference(self, a, b, c, k):
        A, B = TruncatedSeries(a), TruncatedSeries(b)
        results = [
            (A, a),
            (A + B, ref.add(a, b)),
            (A - B, ref.sub(a, b)),
            (A * B, ref.mul(a, b)),
            (A.scale(k), ref.scale(a, k)),
            (A.scale(c), ref.scale(a, c)),
            (A.antiderivative(c), ref.antiderivative(a, c)),
            (A.antiderivative(), ref.antiderivative(a)),
        ]
        if a:
            results.append((A.derivative(), ref.derivative(a)))
        if a and a[0]:
            results.append((A.inverse(), ref.inverse(a)))
        for got, want in results:
            assert ref.matches(got, want)
            assert in_least_terms(got, want)
            assert got.is_known_zero() == (not any(want))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(rationals.filter(bool), fraction_lists()), min_size=1, max_size=4))
    def test_combination_matches_scales_and_sums(self, terms):
        want = ref.combination(terms)
        got = combination([(c, TruncatedSeries(s)) for c, s in terms])
        assert ref.matches(got, want)
        # summed over the least denominator, not over the lcm of the terms'
        assert in_least_terms(got, want)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(fraction_lists(), min_size=1, max_size=4))
    def test_one_denominator_keeps_every_series(self, series):
        for coeffs in series:
            s = TruncatedSeries(coeffs)
            assert in_least_terms(s, coeffs)
            assert ref.matches(s, coeffs)

    def test_mixed_denominators_add_over_their_lcm(self):
        a = TruncatedSeries([Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)])
        b = TruncatedSeries([Fraction(1, 4), 0, Fraction(1, 4), Fraction(5, 4)])
        s = a + b
        assert (s._den, s._ints, s.truncation) == (12, [5, 4, 9], 3)
        # a common factor of the sum's numerators leaves the denominator
        assert ((a + a)._den, (a + a)._ints) == (3, [1, 2, 3])

    def test_antiderivative_of_known_zero(self):
        zero = TruncatedSeries.zero(4)
        assert zero.antiderivative()._ints is None
        assert ref.matches(zero.antiderivative(Fraction(2, 3)),
                           ref.antiderivative([Fraction(0)] * 4, Fraction(2, 3)))

    def test_derivative_of_precision_zero_raises(self):
        with pytest.raises(PrecisionError):
            TruncatedSeries.zero(0).derivative()
        with pytest.raises(PrecisionError):
            ref.derivative([])


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
            assert ref.matches(G, fraction_expand_G(spec, chart)), (C, p, chart.disk)
            if chart.disk.kind == "affine_weierstrass":
                L = compose_with_base(weierstrass_local_annihilator(chart), "omega0", chart)
            else:
                L = local_operator(DifferentialOperator([CurveFunction.x(C), CurveFunction.y(C),
                                                         CurveFunction.const(C, 1)], base="omega0"), chart)
            assert ref.matches(apply_series(L, G), fraction_apply_series(L, G)), (C, p, chart.disk)

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
                j, rest = ref.strip(list(_integrand(basis[0], chart).coeffs))
            except PrecisionError:      # f(x(t)) known zero: no integrand at all
                continue
            omega0 = (j, TruncatedSeries(rest))
            for j, omega in enumerate(basis):
                got = _power_integrand(chart, j, omega0)
                assert ref.matches(got, list(_integrand(omega, chart).coeffs)), (C, p, chart.disk, j)

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
        elif any(any(g.coeffs) for g in coeffs):
            assert ref.matches(apply_series(D, F), fraction_apply_series(D, F))
        else:
            known = min(F.truncation - D.order, *(g.truncation for g in coeffs))
            assert ref.matches(apply_series(D, F), [Fraction(0)] * known)

    def test_quadratic_chart_keeps_the_fraction_path(self):
        f = Poly([0, -1, 0, 1]) * Poly([2, 0, 0, 1])      # (x^3 - x)(x^3 + 2)
        C = CurveModel("even", f)
        chart = nonweierstrass_chart(C, DiskDescriptor("affine_nonweierstrass", 2, 2), 7, 20)
        assert chart.embedding is not None
        spec = random_spec(random.Random(5), C, 7, 20, chart.disk)
        D = DifferentialOperator([CurveFunction.x(C), CurveFunction.y(C), CurveFunction.const(C, 1)],
                                 base="omega0")
        L = local_operator(D, chart)
        G = expand_G(spec, chart)
        DG = apply_series(L, G)
        assert any(isinstance(c, QuadExt) for c in G.coeffs)
        assert ref.matches(G, fraction_expand_G(spec, chart))
        assert ref.matches(DG, fraction_apply_series(L, G))
