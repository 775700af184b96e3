"""Property tests for the exact integer product kernel and chart evaluation.

The coefficient-by-coefficient loops the kernel replaced are kept here as the
reference: every product, inverse and Laurent sum must agree with them in
value and, for series, in the type (``Fraction`` or ``QuadExt``) of each
coefficient.  Every coefficient that a series operation returns over
Q(sqrt d) is in normal form: a ``Fraction`` when it is rational, else a
``QuadExt`` with v != 0.  So is the ``DiskChart.eval_poly`` loop that summed
scaled ``LaurentSeries`` powers of x(t): evaluation on a chart must agree
with it in order and length too.
"""

import functools
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcbound.errors import DomainError, NonUnitError, PrecisionError
from qcbound.funcfield import (
    CurveFunction,
    RationalFunc,
    infinite_chart,
    nonweierstrass_chart,
    weierstrass_chart,
)
from qcbound.hyperelliptic import CurveModel, DiskDescriptor, residue_disks
from qcbound.polys import Poly, common_denominator, convolve
from qcbound.quadext import QuadExt
from qcbound.series import LaurentSeries, TruncatedSeries

KERNEL = settings(max_examples=150, deadline=None)


# -- reference loops ------------------------------------------------------------


def naive_convolve(a, b, n):
    return [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b)) for k in range(n)]


def reference_poly_mul(a, b):
    if not a or not b:
        return Poly()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return Poly(out)


def reference_series_mul(a, b):
    n = min(len(a), len(b))
    out = [Fraction(0)] * n
    for i in range(n):
        ca = a[i]
        if not ca:
            continue
        for j in range(n - i):
            cb = b[j]
            if cb:
                out[i + j] = out[i + j] + ca * cb
    return out


def reference_inverse(coeffs):
    inv0 = 1 / coeffs[0]
    out = [inv0]
    for n in range(1, len(coeffs)):
        acc = None
        for k in range(1, n + 1):
            t = coeffs[k] * out[n - k]
            acc = t if acc is None else acc + t
        out.append(-inv0 * acc)
    return out


def reference_sqrt_unit(coeffs):
    """The Fraction loop: 2 u_n = s_n - sum_(k=1..n-1) u_k u_(n-k)."""
    out = [coeffs[0]]
    for n in range(1, len(coeffs)):
        acc = coeffs[n]
        for k in range(1, n):
            acc = acc - out[k] * out[n - k]
        out.append(acc / 2)
    return out


def reference_laurent_add(a, b):
    """(order, coefficients) of a + b by the per-coefficient loop."""
    o = min(a.order, b.order)
    end = min(a.end, b.end)
    out = [Fraction(0)] * max(end - o, 0)
    for s in (a, b):
        for i, c in enumerate(s.series.coeffs):
            k = s.order + i - o
            if k < len(out):
                out[k] = out[k] + c
    return o, out


def kinds(coeffs):
    """Coefficient types, with the field of each QuadExt."""
    return [(type(c), c.d if isinstance(c, QuadExt) else None) for c in coeffs]


def normal_form(coeffs):
    """Each coefficient a Fraction, or a QuadExt with a nonzero sqrt(d) part."""
    return all(type(c) is Fraction or (type(c) is QuadExt and c.v) for c in coeffs)


# -- strategies -----------------------------------------------------------------

big_ints = st.one_of(st.integers(-9, 9), st.integers(-(2 ** 200), 2 ** 200))
rationals = st.builds(Fraction, st.integers(-(10 ** 30), 10 ** 30), st.integers(1, 10 ** 12))
small_rationals = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-50, 50), st.integers(1, 40)))
FIELDS = [Fraction(2), Fraction(6), Fraction(60), Fraction(5, 3)]


def quadratic_coefficients(d):
    """Fractions mixed with elements of Q(sqrt d).  The sqrt(d) parts are
    drawn from a few values, so that sums and products often cancel them."""
    return st.one_of(
        small_rationals,
        st.builds(QuadExt, small_rationals, st.sampled_from([-1, 1, Fraction(1, 2)]), st.just(d)),
        st.builds(QuadExt, small_rationals, small_rationals, st.just(d)),
    )


@st.composite
def quadratic_series(draw):
    """(d, coefficient list) over one field Q(sqrt d)."""
    d = draw(st.sampled_from(FIELDS))
    return d, draw(st.lists(quadratic_coefficients(d), max_size=10))


@st.composite
def quadratic_pairs(draw):
    d = draw(st.sampled_from(FIELDS))
    coeffs = st.lists(quadratic_coefficients(d), max_size=10)
    return draw(coeffs), draw(coeffs)


@st.composite
def constant_factor_cases(draw):
    """(b, c): a coefficient list and a constant, ints mixed with one field."""
    coefficients = st.one_of(st.integers(-9, 9), quadratic_coefficients(draw(st.sampled_from(FIELDS))))
    return draw(st.lists(coefficients, max_size=10)), draw(coefficients)


@st.composite
def unit_series(draw, quadratic):
    """Coefficient lists with a nonzero constant term."""
    if quadratic:
        coeffs = quadratic_coefficients(draw(st.sampled_from(FIELDS)))
    else:
        coeffs = small_rationals
    out = draw(st.lists(coeffs, min_size=1, max_size=10))
    if not out[0]:
        out[0] = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    return out


@st.composite
def single_parity(draw):
    """(r, ints): integers that are zero off the residue class r mod 2."""
    r = draw(st.integers(0, 1))
    ints = draw(st.lists(big_ints, max_size=12))
    return r, [c if i % 2 == r else 0 for i, c in enumerate(ints)]


# -- the integer kernel ---------------------------------------------------------


class TestConvolve:
    @KERNEL
    @given(st.lists(big_ints, max_size=12), st.lists(big_ints, max_size=12), st.integers(0, 26))
    def test_matches_naive_convolution(self, a, b, n):
        assert convolve(a, b, n) == naive_convolve(a, b, n)

    def test_signs_zeros_and_borrows(self):
        # slots that are exactly -1 or 0 after a borrow exercise the carry chain
        a, b = [-1, 0, 0, 1, -(2 ** 64)], [1, 1, 0, -1]
        assert convolve(a, b, 8) == naive_convolve(a, b, 8)
        assert convolve([0, 0], [5, -7], 3) == [0, 0, 0]
        assert convolve([], [1, 2], 2) == [0, 0]
        assert convolve([3], [4], 0) == []

    @KERNEL
    @given(single_parity(), single_parity(), st.integers(0, 26))
    @example((0, []), (1, [0, 3]), 4)           # an empty factor
    @example((0, [0, 0, 0]), (1, [0, 5]), 4)    # an all-zero factor
    @example((0, [7]), (0, [-2, 0, 9]), 5)      # length 1, even x even
    @example((1, [0, 2]), (1, [0, -3, 0, 4]), 2)  # odd x odd, n = ra + rb
    @example((0, [1, 0, 1]), (1, [0, 1]), 1)    # even x odd, n = ra + rb
    @example((1, [0, 1]), (1, [0, 1]), 1)       # n < ra + rb
    def test_single_parity_factors_match_naive_convolution(self, a, b, n):
        # the parity split multiplies the strided halves; the result must be
        # the full convolution, zeros in the other residue class included
        (ra, a), (rb, b) = a, b
        out = convolve(a, b, n)
        assert out == naive_convolve(a, b, n)
        assert not any(out[1 - (ra + rb) % 2::2])

    @KERNEL
    @given(st.lists(rationals, min_size=1, max_size=12))
    def test_common_denominator(self, coeffs):
        den, ints = common_denominator(coeffs)
        assert den == lcm(*(c.denominator for c in coeffs))
        assert [Fraction(c, den) for c in ints] == coeffs


class TestPolyProduct:
    @KERNEL
    @given(st.lists(rationals, max_size=10), st.lists(rationals, max_size=10))
    def test_matches_reference(self, a, b):
        pa, pb = Poly(a), Poly(b)
        product = pa * pb
        assert product == reference_poly_mul(pa.coeffs, pb.coeffs)
        assert all(type(c) is Fraction for c in product.coeffs)


class TestSeriesProduct:
    @KERNEL
    @given(st.lists(rationals, max_size=10), st.lists(rationals, max_size=10))
    def test_rational_matches_reference(self, a, b):
        got = (TruncatedSeries(a) * TruncatedSeries(b)).coeffs
        expected = reference_series_mul(a, b)
        assert list(got) == expected
        assert kinds(got) == kinds(expected)

    @KERNEL
    @given(quadratic_pairs())
    def test_quadratic_matches_reference(self, pair):
        a, b = pair
        got = (TruncatedSeries(a) * TruncatedSeries(b)).coeffs
        expected = reference_series_mul(a, b)
        assert list(got) == expected
        assert kinds(got) == kinds(expected)
        assert normal_form(got)

    @KERNEL
    @given(constant_factor_cases(), st.integers(0, 10), st.booleans())
    @example(([3, Fraction(1, 2), 0, QuadExt(1, 2, Fraction(6))], 1), 6, True)
    @example(([Fraction(-4), 7, QuadExt(0, 1, Fraction(2))], Fraction(1)), 1, False)
    def test_constant_factor_matches_reference(self, case, length, first):
        # a factor with no nonzero coefficient past index 0 scales the other,
        # and a factor exactly 1 copies it; an int coefficient is read as a
        # Fraction either way
        b, c = case
        const = [c] + [Fraction(0)] * length
        x, y = (const, b) if first else (b, const)
        got = (TruncatedSeries(x) * TruncatedSeries(y)).coeffs
        expected = reference_series_mul(x, y)
        assert list(got) == expected
        assert kinds(got) == kinds(expected)
        assert normal_form(got)

    @KERNEL
    @given(quadratic_pairs())
    def test_sum_matches_reference(self, pair):
        a, b = pair
        got = (TruncatedSeries(a) + TruncatedSeries(b)).coeffs
        expected = [x + y for x, y in zip(a, b)]
        assert list(got) == expected
        assert kinds(got) == kinds(expected)
        assert normal_form(got)

    @KERNEL
    @given(quadratic_pairs(), st.integers(-4, 4), st.integers(-4, 4))
    def test_laurent_sum_matches_reference(self, pair, order_a, order_b):
        a = LaurentSeries(order_a, TruncatedSeries(pair[0]))
        b = LaurentSeries(order_b, TruncatedSeries(pair[1]))
        got = a + b
        order, expected = reference_laurent_add(a, b)
        assert got.order == order
        assert list(got.series.coeffs) == expected
        assert kinds(got.series.coeffs) == kinds(expected)
        assert normal_form(got.series.coeffs)

    @KERNEL
    @given(quadratic_series(), small_rationals, small_rationals)
    def test_scale_matches_reference(self, series, u, v):
        d, coeffs = series
        c = QuadExt(u, v, d)
        got = TruncatedSeries(coeffs).scale(c).coeffs
        expected = [c * x for x in coeffs]
        assert list(got) == expected
        assert kinds(got) == kinds(expected)
        assert normal_form(got)

    @KERNEL
    @given(quadratic_series())
    def test_derivative_and_antiderivative_match_reference(self, series):
        _, coeffs = series
        s = TruncatedSeries(coeffs)
        if coeffs:
            derivative = s.derivative().coeffs
            assert list(derivative) == [i * coeffs[i] for i in range(1, len(coeffs))]
            assert normal_form(derivative)
        integral = s.antiderivative().coeffs
        assert list(integral) == [Fraction(0)] + [c / (i + 1) for i, c in enumerate(coeffs)]
        assert normal_form(integral)

    def test_distinct_fields_raise(self):
        a = TruncatedSeries([QuadExt(1, 1, 2), Fraction(1)])
        b = TruncatedSeries([QuadExt(1, 1, 3), Fraction(1)])
        with pytest.raises(DomainError):
            a * b

    def test_rational_factor_takes_the_other_field(self):
        # QuadExt(1, 0, 3) is the Fraction 1, so it multiplies Q(sqrt 2) values
        # as it does in a scalar product
        a = [QuadExt(1, 1, 2), Fraction(1)]
        b = [QuadExt(1, 0, 3), Fraction(2)]
        got = (TruncatedSeries(a) * TruncatedSeries(b)).coeffs
        assert list(got) == [a[0] * b[0], a[0] * b[1] + a[1] * b[0]] == [QuadExt(1, 1, 2), QuadExt(3, 2, 2)]
        assert (TruncatedSeries(b) * TruncatedSeries(a)).coeffs == got


class TestSeriesInverse:
    @KERNEL
    @given(st.one_of(unit_series(quadratic=False), unit_series(quadratic=True)))
    def test_matches_reference_recurrence(self, coeffs):
        got = TruncatedSeries(coeffs).inverse().coeffs
        expected = reference_inverse(coeffs)
        assert list(got) == expected
        assert kinds(got) == kinds(expected)
        assert normal_form(got)

    @KERNEL
    @given(st.one_of(unit_series(quadratic=False), unit_series(quadratic=True)))
    def test_times_inverse_is_one(self, coeffs):
        s = TruncatedSeries(coeffs)
        assert s * s.inverse() == TruncatedSeries.one(len(coeffs))


# f(x0 + t)/f(x0) past its constant term, for y^2 = x^5 - 2x + 3 at x0 = 4, as on a chart
_SHIFTED = Poly([3, -2, 0, 0, 0, 1]).compose_shift(Fraction(4)).coeffs
CHART_UNIT_TAIL = [c / _SHIFTED[0] for c in _SHIFTED[1:]] + [Fraction(0)] * 24


class TestSqrtUnit:
    @KERNEL
    @given(st.lists(st.one_of(small_rationals, rationals), max_size=24))
    @example(CHART_UNIT_TAIL)
    def test_matches_reference_loop(self, tail):
        coeffs = [Fraction(1), *tail]
        got = TruncatedSeries(coeffs).sqrt_unit()
        expected = reference_sqrt_unit(coeffs)
        assert list(got.coeffs) == expected
        assert kinds(got.coeffs) == kinds(expected)
        assert got * got == TruncatedSeries(coeffs)

    def test_constant_term_must_be_one(self):
        with pytest.raises(NonUnitError):
            TruncatedSeries([Fraction(4), Fraction(1)]).sqrt_unit()


# -- function evaluation on disk charts -------------------------------------------


def reference_x_power(chart, k):
    """x(t)^k as the reference builds it: x^0 = 1, x^1 = x(t), then x^(k-1) * x
    as LaurentSeries products."""
    if k == 0:
        return LaurentSeries(0, TruncatedSeries.from_polynomial([1], chart.T))
    out = chart.x
    for _ in range(k - 1):
        out = out * chart.x
    return out


def reference_eval_poly(chart, poly):
    acc = None
    for k, c in enumerate(poly.coeffs):
        if not c:
            continue
        term = reference_x_power(chart, k).scale(c)
        acc = term if acc is None else acc + term
    if acc is None:
        return LaurentSeries(0, TruncatedSeries.zero(chart.T))
    return acc


def reference_eval_rational(chart, r):
    if not r.num:
        return LaurentSeries(0, TruncatedSeries.zero(chart.T))
    num = reference_eval_poly(chart, r.num)
    if r.den.degree == 0:
        return num
    return num / reference_eval_poly(chart, r.den)


def reference_laurent(chart, F):
    out = reference_eval_rational(chart, F.a)
    if F.b:
        out = out + reference_eval_rational(chart, F.b) * chart.y
    return out


def genus2_even():
    return CurveModel("even", Poly([0, -1, 0, 1]) * Poly([2, 0, 0, 1]))


@functools.cache
def eval_charts():
    """One chart of each kind: rational and Q(sqrt d) non-Weierstrass centres,
    the Weierstrass centre x_w = 0 (x(t) starts at t^2) and both infinite
    sheets of an even model, on y^2 = (x^3 - x)(x^3 + 2) at p = 7."""
    C = genus2_even()
    charts = {}
    for disk in residue_disks(C, 7):
        if disk.kind == "affine_nonweierstrass":
            chart = nonweierstrass_chart(C, disk, 7, 14)
            charts.setdefault("quadratic" if chart.embedding else "rational", chart)
    charts["weierstrass_0"] = weierstrass_chart(C, DiskDescriptor("affine_weierstrass", 0, 0), 7, 16)
    for label in C.infinite_points():
        charts[label] = infinite_chart(C, label, 12, p=7)
    assert sorted(charts) == ["inf+", "inf-", "quadratic", "rational", "weierstrass_0"]
    return charts


def same_laurent(got, expected):
    """Equal order, length, values and coefficient types."""
    return (got.order == expected.order and got.series.truncation == expected.series.truncation
            and got.series.coeffs == expected.series.coeffs
            and kinds(got.series.coeffs) == kinds(expected.series.coeffs))


def outcome(fn, *args):
    """fn(*args), or the type of the DomainError or PrecisionError it raised."""
    try:
        return fn(*args)
    except (DomainError, PrecisionError) as exc:
        return type(exc)


def agree(got, expected):
    if isinstance(expected, type):
        return got is expected
    return not isinstance(got, type) and same_laurent(got, expected)


chart_names = st.sampled_from(["rational", "quadratic", "weierstrass_0", "inf+", "inf-"])
# x^k * P(x) with k drawn on its own, so that polynomials without the low
# powers, whose terms all start late on a Weierstrass chart, come up often
polys = st.builds(lambda k, c: Poly([0] * k + c), st.integers(0, 5), st.lists(small_rationals, max_size=6))
monic_denominators = st.one_of(
    st.sampled_from([1, 2, 3]).map(lambda k: functools.reduce(Poly.__mul__, [genus2_even().f] * k)),
    st.lists(small_rationals, min_size=1, max_size=5).map(lambda c: Poly(c + [1])),
)
rational_funcs = st.builds(RationalFunc, polys, monic_denominators)


class TestChartEvaluation:
    @KERNEL
    @given(chart_names, polys)
    def test_eval_poly_matches_reference(self, name, poly):
        chart = eval_charts()[name]
        assert same_laurent(chart.eval_poly(poly), reference_eval_poly(chart, poly))

    @KERNEL
    @given(chart_names, rational_funcs)
    def test_eval_rational_matches_reference(self, name, r):
        chart = eval_charts()[name]
        expected = outcome(reference_eval_rational, chart, r)
        assert agree(outcome(chart.eval_rational, r), expected)
        assert agree(outcome(chart.eval_rational, r), expected)   # now from the 1/den memo

    @KERNEL
    @given(chart_names, rational_funcs, rational_funcs)
    def test_laurent_matches_reference(self, name, a, b):
        chart = eval_charts()[name]
        F = CurveFunction(genus2_even(), a, b)
        assert agree(outcome(chart.laurent, F), outcome(reference_laurent, chart, F))

    def test_denominator_inverted_once_per_chart(self, monkeypatch):
        inverses = []
        inverse = LaurentSeries.inverse
        monkeypatch.setattr(LaurentSeries, "inverse", lambda s: inverses.append(s) or inverse(s))
        C = genus2_even()
        disk = next(d for d in residue_disks(C, 7) if d.kind == "affine_nonweierstrass")
        chart = nonweierstrass_chart(C, disk, 7, 14)
        for c in range(1, 5):
            chart.laurent(CurveFunction(C, RationalFunc(Poly([c]), C.f), RationalFunc(Poly([-c]), C.f)))
        assert len(inverses) == 1
