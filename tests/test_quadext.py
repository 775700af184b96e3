import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcbound.errors import DomainError
from qcbound.padics import INFINITY
from qcbound.quadext import PAdicSqrtEmbedding, QuadExt, rational_sqrt, sqrt_mod_p


class TestRationalSqrt:
    def test_squares(self):
        assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert rational_sqrt(0) == 0
        assert rational_sqrt(1) == 1

    def test_non_squares(self):
        assert rational_sqrt(2) is None
        assert rational_sqrt(Fraction(4, 3)) is None
        assert rational_sqrt(-4) is None


class TestQuadExtField:
    def test_arithmetic(self):
        a = QuadExt(1, 1, 2)     # 1 + sqrt(2)
        b = QuadExt(3, -1, 2)    # 3 - sqrt(2)
        assert a + b == QuadExt(4, 0, 2)
        assert a * b == QuadExt(1, 2, 2)   # 3 - s + 3s - 2 = 1 + 2s
        assert a - a == QuadExt(0, 0, 2)
        assert not (a - a)

    def test_mixing_with_rationals(self):
        a = QuadExt(1, 1, 5)
        assert Fraction(1, 2) * a == QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
        assert 1 + a == QuadExt(2, 1, 5)
        assert (2 - a) == QuadExt(1, -1, 5)

    def test_inverse(self):
        a = QuadExt(1, 1, 2)
        assert a * a.inverse() == 1
        assert 1 / a == a.inverse()

    def test_norm_and_conjugate(self):
        a = QuadExt(3, 2, 5)
        assert a.norm() == 9 - 5 * 4
        assert a * a.conjugate() == QuadExt(a.norm(), 0, 5)

    def test_distinct_extensions_rejected(self):
        with pytest.raises(DomainError):
            QuadExt(1, 1, 2) * QuadExt(1, 1, 3)
        with pytest.raises(DomainError):
            QuadExt(1, 1, 2) + QuadExt(1, 1, 3)

    def test_rational_operand_takes_the_other_field(self):
        # a v = 0 operand is rational, whatever its d; both orders agree
        a, b = QuadExt(1, 0, 2), QuadExt(1, 1, 3)
        for got in (a * b, b * a, a + QuadExt(0, 1, 3), QuadExt(0, 1, 3) + a):
            assert (got.u, got.v, got.d) == (1, 1, 3)
        got = a - QuadExt(0, 1, 3)
        assert (got.u, got.v, got.d) == (1, -1, 3)


rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9))
FIELDS = [Fraction(2), Fraction(60), Fraction(5, 3)]


@st.composite
def field_elements(draw, count):
    """``count`` elements of one field Q(sqrt d): Fractions and QuadExts whose
    sqrt(d) parts come from a few values, so that results often cancel them."""
    d = draw(st.sampled_from(FIELDS))
    element = st.one_of(
        rationals,
        st.builds(QuadExt, rationals, st.sampled_from([-2, -1, 1, 2, Fraction(1, 3)]), st.just(d)),
    )
    return [draw(element) for _ in range(count)]


def in_normal_form(x):
    return type(x) is Fraction or (type(x) is QuadExt and x.v != 0)


class TestNormalForm:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(rationals, st.integers(-50, 50)), st.sampled_from(FIELDS))
    def test_zero_sqrt_part_is_a_fraction(self, u, d):
        x = QuadExt(u, 0, d)
        assert type(x) is Fraction and x == u

    @settings(max_examples=300, deadline=None)
    @given(field_elements(2))
    def test_results_are_in_normal_form(self, pair):
        a, b = pair
        results = [a + b, a - b, a * b, b + a, b - a, b * a, -a]
        if b:
            results.append(a / b)
        for x in pair:
            if isinstance(x, QuadExt):
                results += [x.inverse(), x.conjugate(), 1 / x, x * x.conjugate()]
        assert all(in_normal_form(x) for x in results)

    def test_pickle_and_copy(self):
        a = QuadExt(Fraction(1, 2), -3, 5)
        for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
            assert type(b) is QuadExt and b == a

    def test_cancellation_gives_fractions(self):
        a = QuadExt(1, 1, 2)
        for x in (a - a, a + a.conjugate(), a * a.conjugate(), a * a.inverse(), a - QuadExt(0, 1, 2)):
            assert type(x) is Fraction
        assert QuadExt(3, 2, 5) / 2 == QuadExt(Fraction(3, 2), 1, 5)


class TestEmbedding:
    def test_sqrt_mod_p(self):
        assert sqrt_mod_p(2, 7) in (3, 4)
        with pytest.raises(DomainError):
            sqrt_mod_p(3, 7)

    def test_root_lifting(self):
        emb = PAdicSqrtEmbedding(2, 7, root_mod_p=3)
        for k in (1, 2, 5, 9):
            r = emb.root_mod(k)
            assert (r * r - 2) % 7**k == 0
            assert r % 7 == 3

    def test_valuation_rational_parts(self):
        emb = PAdicSqrtEmbedding(2, 7)
        assert emb.valuation(QuadExt(49, 0, 2)) == 2
        assert emb.valuation(QuadExt(0, Fraction(1, 7), 2)) == -1
        assert emb.valuation(QuadExt(0, 0, 2)) == INFINITY

    def test_valuation_mixed(self):
        # (sqrt(2) - 3) has valuation 1 at p=7 along the root === 3 branch,
        # since norm = 2 - 9 = -7 and the conjugate (s + 3 === 6) is a unit.
        emb = PAdicSqrtEmbedding(2, 7, root_mod_p=3)
        assert emb.valuation(QuadExt(-3, 1, 2)) == 1
        emb2 = PAdicSqrtEmbedding(2, 7, root_mod_p=4)
        assert emb2.valuation(QuadExt(-3, 1, 2)) == 0

    def test_valuation_multiplicative(self):
        emb = PAdicSqrtEmbedding(2, 7, root_mod_p=3)
        rng = random.Random(5)
        for _ in range(100):
            a = QuadExt(Fraction(rng.randint(-30, 30), rng.randint(1, 9)), rng.randint(-30, 30), 2)
            b = QuadExt(rng.randint(-30, 30), Fraction(rng.randint(-30, 30), rng.randint(1, 9)), 2)
            if not a or not b:
                continue
            assert emb.valuation(a * b) == emb.valuation(a) + emb.valuation(b)

    def test_deep_cancellation(self):
        # u + v*sqrt(d) engineered so u/v is a good rational approximation of
        # -sqrt(d): valuation climbs well past 1
        emb = PAdicSqrtEmbedding(2, 7, root_mod_p=3)
        s3 = emb.root_mod(3)   # s mod 343
        xi = QuadExt(-s3, 1, 2)
        assert emb.valuation(xi) >= 3

    def test_requires_unit_square(self):
        with pytest.raises(DomainError):
            PAdicSqrtEmbedding(7, 7)
        with pytest.raises(DomainError):
            PAdicSqrtEmbedding(3, 7)
