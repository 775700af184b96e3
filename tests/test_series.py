import random
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import series_reference as ref

from qcbound.diffops import annihilator_matrix
from qcbound.errors import (
    IndeterminatePolygonError,
    NonUnitError,
    PoleError,
    PrecisionError,
)
from qcbound.padics import INFINITY, kappa
from qcbound.quadext import PAdicSqrtEmbedding, QuadExt
from qcbound.series import (
    LaurentSeries,
    combination,
    TruncatedSeries,
    min_valuation_index,
    newton_polygon,
    slope_le_minus_one_length,
    slope_transfer_check,
    zero_count_bound,
)


def S(coeffs, T=None):
    return TruncatedSeries.from_polynomial(coeffs, T if T is not None else len(coeffs))


class TestRingOps:
    def test_derivative(self):
        f = S([1, 1, 1], 3)
        assert f.derivative() == S([1, 2], 2)

    def test_antiderivative(self):
        f = S([1, 2], 2)
        assert f.antiderivative() == S([0, 1, 1], 3)

    def test_roundtrip_drops_constant(self):
        rng = random.Random(1)
        for _ in range(20):
            f = S([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)])
            g = f.derivative().antiderivative()
            expected = TruncatedSeries((Fraction(0),) + f.coeffs[1:])
            assert g == expected

    def test_inverse_geometric(self):
        f = S([1, -1], 2)
        inv = TruncatedSeries.from_polynomial([1, -1], 4).inverse()
        assert inv == S([1, 1, 1, 1], 4)

    def test_inverse_requires_unit(self):
        with pytest.raises(NonUnitError):
            S([0, 1], 2).inverse()

    def test_mul_precision_is_min(self):
        a = S([1, 1, 1, 1], 4)
        b = S([1, 1], 2)
        assert (a * b).truncation == 2

    def test_sqrt_unit(self):
        f = S([1, 1, 0, 1], 4)       # 1 + t + t^3
        r = f.sqrt_unit()
        assert (r * r).agrees_with(f)
        assert r.coeffs[1] == Fraction(1, 2)
        assert r.coeffs[2] == Fraction(-1, 8)

    def test_coefficient_access(self):
        f = S([1, 0, 3], 3)
        assert f.coefficient(2) == 3
        with pytest.raises(PrecisionError):
            f.coefficient(3)

    def test_scale_quadext(self):
        f = S([1, 2], 2).scale(QuadExt(0, 1, 5))
        assert f.coeffs[1] == QuadExt(0, 2, 5)


class TestLaurent:
    def test_mul_and_order(self):
        x_inv = LaurentSeries(-1, S([1, 0, 0], 3))
        sq = x_inv * x_inv
        assert sq.order == -2
        assert sq.t_order() == -2

    def test_add_alignment(self):
        a = LaurentSeries(-1, S([1, 0, 2], 3))       # t^-1 + 2t
        b = LaurentSeries(0, S([5, 1], 2))           # 5 + t
        c = a + b
        assert c.order == -1
        assert c.series.coeffs == (Fraction(1), Fraction(5), Fraction(3))

    def test_regular_part_pads(self):
        a = LaurentSeries(2, S([3, 1], 2))
        assert a.regular_part() == S([0, 0, 3, 1], 4)

    def test_regular_part_detects_pole(self):
        a = LaurentSeries(-2, S([3, 0, 1], 3))
        with pytest.raises(PoleError):
            a.regular_part()

    def test_regular_part_skips_known_zeros(self):
        a = LaurentSeries(-2, S([0, 0, 1, 7], 4))
        assert a.regular_part() == S([1, 7], 2)

    def test_inverse(self):
        a = LaurentSeries(0, S([0, 0, 2, 2], 4)).inverse()
        assert a.order == -2
        prod = a * LaurentSeries(0, S([0, 0, 2, 2], 4))
        assert prod.t_order() == 0

    def test_inverse_of_known_zeros_needs_precision(self):
        # zero to O(t^2) may still have a leading term further on
        a = LaurentSeries(-1, S([0, 0, 0], 3))
        with pytest.raises(PrecisionError) as info:
            a.inverse()
        assert info.value.needed > a.series.truncation

    def test_derivative(self):
        a = LaurentSeries(-1, S([1, 4, 9], 3))       # t^-1 + 4 + 9t
        d = a.derivative()
        assert d.order == -2
        assert d.series.coeffs == (Fraction(-1), Fraction(0), Fraction(9))


class TestNewtonPolygon:
    def test_example_cubic(self):
        f = S([27, 3, 0, 1], 4)
        np_ = newton_polygon(f, 3, floor_val=INFINITY)
        assert np_.vertices == ((0, 3), (1, 1), (3, 0))
        assert slope_le_minus_one_length(np_) == 1

    def test_constant_one(self):
        np_ = newton_polygon(S([1], 1), 5, floor_val=INFINITY)
        assert np_.vertices == ((0, 0),)
        assert slope_le_minus_one_length(np_) == 0
        assert zero_count_bound(S([1], 1), 5, floor_val=INFINITY) == 0

    def test_two_roots_example(self):
        p = 3
        # (x - p)(x - p^2) = p^3 - (p + p^2) x + x^2
        f = S([p**3, -(p + p**2), 1], 3)
        np_ = newton_polygon(f, p, floor_val=INFINITY)
        assert np_.vertices == ((0, 3), (1, 1), (2, 0))
        assert zero_count_bound(f, p, floor_val=INFINITY) == 2

    def test_half_slope_root_outside_disk(self):
        f = S([-5, 0, 1], 3)     # x^2 - 5: roots of valuation 1/2
        assert zero_count_bound(f, 5, floor_val=INFINITY) == 0

    def test_zero_series_rejected(self):
        with pytest.raises(IndeterminatePolygonError):
            newton_polygon(TruncatedSeries.zero(4), 3, floor_val=0)

    def test_origin_zero_counts(self):
        # x^2 * unit has a double zero at the origin, inside the disk
        f = S([0, 0, 3], 3)
        assert zero_count_bound(f, 3, floor_val=INFINITY) == 2

    def test_certification_rule(self):
        p = 3
        coeffs = [p**3, -(p + p**2), 1]     # M = 2, hull value 0 at the endpoint
        assert newton_polygon(S(coeffs, 5), p, floor_val=0).certified      # 2 < 5
        assert newton_polygon(S(coeffs, 3), p, floor_val=0).certified      # 2 < 3
        # equality boundary 2 < 3 - 1 fails: a tail coefficient of valuation
        # -1 at index 3 would extend the slope <= -1 segment
        tight = newton_polygon(S(coeffs, 3), p, floor_val=-1)
        assert not tight.certified
        with pytest.raises(PrecisionError):
            slope_le_minus_one_length(tight)

    def test_scaling_invariance(self):
        rng = random.Random(9)
        p = 5
        for _ in range(30):
            coeffs = [Fraction(rng.randint(-50, 50)) for _ in range(6)]
            if not any(coeffs):
                coeffs[0] = Fraction(1)
            f = S(coeffs, 6)
            lam = Fraction(p**2 * 3, 7)
            g = f.scale(lam)
            np_f = newton_polygon(f, p, floor_val=INFINITY)
            np_g = newton_polygon(g, p, floor_val=INFINITY)
            shift = 2  # v_5(lam)
            assert [(i, v + shift) for i, v in np_f.vertices] == list(np_g.vertices)
            assert slope_le_minus_one_length(np_f) == slope_le_minus_one_length(np_g)

    def test_quadext_polygon(self):
        emb = PAdicSqrtEmbedding(2, 7, root_mod_p=3)
        f = TruncatedSeries([QuadExt(7, 0, 2), QuadExt(-3, 1, 2), QuadExt(1, 0, 2)])
        np_ = newton_polygon(f, 7, floor_val=INFINITY, val=emb.valuation)
        # points (0,1), (1,1), (2,0): the middle point sits above the chord
        assert np_.vertices == ((0, 1), (2, 0))


class TestMinValuationIndex:
    def test_example_cubic(self):
        assert min_valuation_index(S([27, 3, 0, 1], 4), 3, floor_val=0) == 3

    def test_linear(self):
        assert min_valuation_index(S([5, 1], 2), 5, floor_val=0) == 1

    def test_uncertified(self):
        with pytest.raises(PrecisionError):
            min_valuation_index(S([5, 25], 2), 5, floor_val=0)

    def test_tie_with_floor_is_fine(self):
        assert min_valuation_index(S([1, 5], 2), 5, floor_val=0) == 0


class TestSlopeTransfer:
    def test_trivial_case(self):
        one = S([1], 1)
        assert slope_transfer_check(one, one, 1, 5, INFINITY, INFINITY)

    def test_lemma_also_trivial_enumeration(self):
        # for certified G with M > 1 and i <= M with
        # v(C_i) <= v(C_M) + v(M!/i!), necessarily kappa_p * i >= M
        from qcbound.padics import factorial_valuation, valuation

        rng = random.Random(23)
        for p in (3, 5, 7):
            kp = kappa(p)
            for _ in range(60):
                coeffs = [Fraction(rng.randint(-p**6, p**6)) for _ in range(10)]
                if not any(coeffs):
                    continue
                f = S(coeffs, 10)
                np_ = newton_polygon(f, p, floor_val=INFINITY)
                M = slope_le_minus_one_length(np_)
                if M <= 1:
                    continue
                vM = valuation(f.coeffs[M], p)
                for i in range(M + 1):
                    ci = f.coeffs[i]
                    if not ci:
                        continue
                    gap = factorial_valuation(M, p) - factorial_valuation(i, p)
                    if valuation(ci, p) <= vM + gap:
                        assert kp * i >= M


# -- the integer form: strip, least terms and divided derivatives -------------


def same_series(got, want):
    """Equal values, truncations and coefficient types."""
    return got == want and [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


def fractions_over(den, ints):
    return [Fraction(c, den) for c in ints]


# leading zeros, a few coefficients and trailing zeros, often all zero, as
# numerators over den that share the factor common
rational_lists = st.builds(
    lambda lead, body, tail, den, common: fractions_over(den, [0] * lead + [common * c for c in body] + [0] * tail),
    st.integers(0, 4), st.lists(st.integers(-30, 30), max_size=6), st.integers(0, 3),
    st.integers(1, 60), st.integers(1, 12))
KNOWN_ZERO = [Fraction(0)] * 4
ALL_ZERO_LIST = fractions_over(5, [0, 0, 0])
LEADING_ZEROS = fractions_over(6, [0, 0, 4, -9, 2])


class TestIntegerSeriesForms:
    @settings(max_examples=150, deadline=None)
    @given(rational_lists)
    @example(KNOWN_ZERO)
    @example(ALL_ZERO_LIST)
    @example(LEADING_ZEROS)
    @example([])
    def test_stripped_is_laurent_normalized(self, coeffs):
        s = TruncatedSeries(coeffs)
        want_j, want = ref.strip(coeffs)
        j, rest = s.stripped()
        assert j == want_j
        assert ref.matches(rest, want)
        assert rest.is_known_zero() == (not any(want))
        norm = LaurentSeries(3, s).normalized()
        assert norm.order == 3 + want_j and ref.matches(norm.series, want)

    @settings(max_examples=150, deadline=None)
    @given(rational_lists, rational_lists)
    @example(KNOWN_ZERO, KNOWN_ZERO)
    @example(ALL_ZERO_LIST, LEADING_ZEROS)
    @example(LEADING_ZEROS, LEADING_ZEROS)
    def test_least_terms_keeps_the_series(self, a, b):
        # integer sums, products and scales whose numerators share a factor
        # with their denominator divide it out
        A, B = TruncatedSeries(a), TruncatedSeries(b)
        for got, want in ((A + B, ref.add(a, b)), (A * B, ref.mul(a, b)), (A.scale(6), ref.scale(a, 6))):
            assert ref.matches(got, want)
            den, ints = ref.least_terms(want)
            assert (got._den, got._ints) == (den, ints)
            if ints is not None:
                assert gcd(den, *ints) == 1

    def test_least_terms_divides_out_the_gcd(self):
        lead = TruncatedSeries(LEADING_ZEROS)
        assert (lead._den, lead._ints) == (6, [0, 0, 4, -9, 2])
        halves = TruncatedSeries(fractions_over(12, [1, 0, -3])).scale(6)
        assert (halves._den, halves._ints, halves.truncation) == (2, [1, 0, -3], 3)
        one = TruncatedSeries(fractions_over(2, [1, 0, 1])) + TruncatedSeries(fractions_over(2, [1, 0, -1]))
        assert (one._den, one._ints) == (1, [1, 0, 0])
        quarter = TruncatedSeries(fractions_over(4, [1, 1])) * S([2, 2])
        assert (quarter._den, quarter._ints) == (2, [1, 2])

    @settings(max_examples=150, deadline=None)
    @given(rational_lists, st.integers(0, 8))
    @example(KNOWN_ZERO, 2)
    @example(KNOWN_ZERO, 4)
    @example(KNOWN_ZERO, 5)
    @example(ALL_ZERO_LIST, 1)
    @example(LEADING_ZEROS, 2)
    @example(LEADING_ZEROS, 5)
    @example(LEADING_ZEROS, 6)
    def test_divided_derivative_is_the_scaled_derivative_chain(self, coeffs, n):
        # annihilator_matrix's entry (1/n!) D^n F, as a chain of plain derivatives
        s = TruncatedSeries(coeffs)
        want = coeffs
        try:
            for _ in range(n):
                want = ref.derivative(want)
        except PrecisionError:
            with pytest.raises(PrecisionError):
                s.divided_derivative(n)
            assert n > s.truncation
            return
        want = ref.scale(want, Fraction(1, factorial(n)))
        got = s.divided_derivative(n)
        assert ref.matches(got, want)
        assert ref.matches(got, ref.divided_derivative(coeffs, n))
        assert got.is_known_zero() == (not any(want))

    @settings(max_examples=60, deadline=None)
    @given(rational_lists, st.integers(0, 4), st.integers(1, 4))
    def test_divided_derivatives_are_annihilator_matrix_entries(self, coeffs, a, gap):
        s = F = TruncatedSeries(coeffs)
        orders = [a, a + gap]
        if F.truncation <= orders[-1]:
            with pytest.raises(PrecisionError):
                annihilator_matrix(orders, [F])
            return
        (row,) = annihilator_matrix(orders, [F])
        assert all(same_series(s.divided_derivative(n), entry) for n, entry in zip(orders, row))


# -- rational and Q(sqrt 5) series in one class --------------------------------

QUAD_D = 5
small_rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))
nonzero_rationals = small_rationals.filter(bool)


@st.composite
def quadratic_lists(draw):
    """Leading zeros, then coefficients with at least one in Q(sqrt 5) \\ Q."""
    lead = draw(st.integers(0, 2))
    body = draw(st.lists(st.one_of(small_rationals, st.builds(lambda u, v: QuadExt(u, v, QUAD_D),
                                                              small_rationals, nonzero_rationals)),
                         min_size=1, max_size=6))
    k = draw(st.integers(0, len(body) - 1))
    body[k] = QuadExt(draw(small_rationals), draw(nonzero_rationals), QUAD_D)
    return [Fraction(0)] * lead + body


def mixed_operands(draw_lists=rational_lists):
    """(a, b): one rational list (known zeros and leading zeros among them)
    and one over Q(sqrt 5), in either order."""
    return st.tuples(draw_lists, quadratic_lists(), st.booleans()).map(
        lambda t: (t[0], t[1]) if t[2] else (t[1], t[0]))


def in_its_form(s, coeffs):
    """Integer numerators in least terms when every coefficient is rational,
    the coefficient tuple otherwise."""
    if all(isinstance(c, Fraction) for c in coeffs):
        return (s._den, s._ints) == ref.least_terms(coeffs)
    return s._den is None


def conjugates(coeffs):
    return [c.conjugate() if isinstance(c, QuadExt) else c for c in coeffs]


READS = st.sampled_from(["before", "after", "never"])


class TestMixedForms:
    """Every operation of a rational series with one over Q(sqrt d) gives the
    plain-list values and types, in the storage form its coefficients call
    for, whether or not the operands' coefficients were read first."""

    @staticmethod
    def operands(a, b, reads):
        # a rational series built from a list holds its Fractions already;
        # one scaled by 1 builds them when they are first read
        A, B = TruncatedSeries(a).scale(1), TruncatedSeries(b).scale(1)
        if reads == "before":
            assert ref.matches(A, a) and ref.matches(B, b)
        return A, B

    @staticmethod
    def check_reads(A, B, a, b, reads):
        if reads == "after":
            assert ref.matches(A, a) and ref.matches(B, b)

    @settings(max_examples=150, deadline=None)
    @given(mixed_operands(), small_rationals, small_rationals, READS)
    def test_sums_products_inverses_combinations(self, ab, c, e, reads):
        a, b = ab
        A, B = self.operands(a, b, reads)
        results = [(A + B, ref.add(a, b)), (B + A, ref.add(b, a)), (A - B, ref.sub(a, b)),
                   (A * B, ref.mul(a, b)), (B * A, ref.mul(b, a)),
                   (combination([(c, A), (e, B)]), ref.combination([(c, a), (e, b)]))]
        if b and any(isinstance(x, QuadExt) for x in b):
            # the sqrt(d) parts cancel: the sum is rational again
            results.append((B + TruncatedSeries(conjugates(b)), ref.add(b, conjugates(b))))
        for s, coeffs in ((A, a), (B, b), (A + B, ref.add(a, b))):
            if coeffs and coeffs[0]:
                results.append((s.inverse(), ref.inverse(coeffs)))
        for got, want in results:
            assert got == TruncatedSeries(want)
            assert in_its_form(got, want)
            assert ref.matches(got, want)
        self.check_reads(A, B, a, b, reads)

    @settings(max_examples=150, deadline=None)
    @given(mixed_operands(), st.integers(-3, 3), st.integers(-3, 3), READS)
    def test_laurent_operations(self, ab, oa, ob, reads):
        a, b = ab
        A, B = self.operands(a, b, reads)
        x, y = LaurentSeries(oa, A), LaurentSeries(ob, B)
        results = [(x + y, ref.laurent_add((oa, a), (ob, b))), (y + x, ref.laurent_add((ob, b), (oa, a))),
                   (x * y, ref.laurent_mul((oa, a), (ob, b))),
                   (x.normalized(), ref.laurent_normalized(oa, a)),
                   (y.normalized(), ref.laurent_normalized(ob, b))]
        for got, (order, want) in results:
            assert got.order == order
            assert in_its_form(got.series, want)
            assert ref.matches(got.series, want)
        for z, (order, coeffs) in ((x, (oa, a)), (y, (ob, b)), (x + y, results[0][1])):
            try:
                want = ref.regular_part(order, coeffs)
            except (PoleError, PrecisionError) as exc:
                with pytest.raises(type(exc)):
                    z.regular_part()
            else:
                got = z.regular_part()
                assert in_its_form(got, want) and ref.matches(got, want)
        self.check_reads(A, B, a, b, reads)
