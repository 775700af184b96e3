import random
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcbound.diffops import _derivation_chain, annihilator_matrix
from qcbound.errors import (
    IndeterminatePolygonError,
    NonUnitError,
    PoleError,
    PrecisionError,
)
from qcbound.padics import INFINITY, kappa
from qcbound.quadext import PAdicSqrtEmbedding, QuadExt
from qcbound.series import (
    IntegerSeries,
    LaurentSeries,
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


# -- IntegerSeries strip, least terms and divided derivatives ------------------


def same_series(got, want):
    """Equal values, truncations and coefficient types."""
    return got == want and [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


# leading zeros, a few coefficients and trailing known zeros, often all zero
integer_series = st.builds(
    lambda lead, body, tail, den, common: IntegerSeries(
        den, [0] * lead + [common * c for c in body] + [0] * tail, lead + len(body) + tail),
    st.integers(0, 4), st.lists(st.integers(-30, 30), max_size=6), st.integers(0, 3),
    st.integers(1, 60), st.integers(1, 12))
KNOWN_ZERO = IntegerSeries(7, None, 4)
ALL_ZERO_LIST = IntegerSeries(5, [0, 0, 0], 3)
LEADING_ZEROS = IntegerSeries(6, [0, 0, 4, -9, 2], 5)


class TestIntegerSeriesForms:
    @settings(max_examples=150, deadline=None)
    @given(integer_series)
    @example(KNOWN_ZERO)
    @example(ALL_ZERO_LIST)
    @example(LEADING_ZEROS)
    @example(IntegerSeries(1, [], 0))
    def test_stripped_is_laurent_normalized(self, s):
        j, rest = s.stripped()
        want = LaurentSeries(0, s.series()).normalized()
        assert j == want.order
        assert same_series(rest.series(), want.series)
        assert rest.truncation == s.truncation - j
        assert rest.is_known_zero() == (rest.truncation == 0 or s.is_known_zero())

    @settings(max_examples=150, deadline=None)
    @given(integer_series)
    @example(KNOWN_ZERO)
    @example(ALL_ZERO_LIST)
    @example(LEADING_ZEROS)
    def test_least_terms_keeps_the_series(self, s):
        reduced = s.least_terms()
        assert same_series(reduced.series(), s.series())
        if s.is_known_zero():
            assert (reduced.den, reduced.ints) == (1, None)
        else:
            assert gcd(reduced.den, *reduced.ints) == 1

    def test_least_terms_divides_out_the_gcd(self):
        assert LEADING_ZEROS.least_terms() is LEADING_ZEROS
        halves = IntegerSeries(12, [6, 0, -18], 3).least_terms()
        assert (halves.den, halves.ints, halves.n) == (2, [1, 0, -3], 3)

    @settings(max_examples=150, deadline=None)
    @given(integer_series, st.integers(0, 8))
    @example(KNOWN_ZERO, 2)
    @example(KNOWN_ZERO, 4)
    @example(KNOWN_ZERO, 5)
    @example(ALL_ZERO_LIST, 1)
    @example(LEADING_ZEROS, 2)
    @example(LEADING_ZEROS, 5)
    @example(LEADING_ZEROS, 6)
    def test_divided_derivative_is_the_scaled_derivative_chain(self, s, n):
        # annihilator_matrix's entry (1/n!) D^n F, the chain of plain derivatives
        F = s.series()
        try:
            want = _derivation_chain(F, n, "dx")[n].scale(Fraction(1, factorial(n)))
        except PrecisionError:
            with pytest.raises(PrecisionError):
                s.divided_derivative(n)
            assert n > s.truncation
            return
        got = s.divided_derivative(n)
        assert same_series(got.series(), want)
        assert got.is_known_zero() == want.is_known_zero()

    @settings(max_examples=60, deadline=None)
    @given(integer_series, st.integers(0, 4), st.integers(1, 4))
    def test_divided_derivatives_are_annihilator_matrix_entries(self, s, a, gap):
        F = s.series()
        orders = [a, a + gap]
        if F.truncation <= orders[-1]:
            with pytest.raises(PrecisionError):
                annihilator_matrix(orders, [F])
            return
        (row,) = annihilator_matrix(orders, [F])
        assert all(same_series(s.divided_derivative(n).series(), entry) for n, entry in zip(orders, row))
