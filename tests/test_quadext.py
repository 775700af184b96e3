import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcbound.errors import DomainError
from qcbound.padics import INFINITY, reduce_mod, valuation
from qcbound.quadext import PAdicSqrtEmbedding, QuadExt, rational_sqrt


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


def lift_root(d, p, r, k):
    """sqrt(d) mod p^k with residue r, lifted one p-adic digit at a time."""
    s = r % p
    for j in range(1, k):
        mod = p ** (j + 1)
        s = next(t for t in range(s, mod, p ** j) if (t * t - reduce_mod(d, mod)) % mod == 0)
    return s


def digit_search_valuation(emb, xi):
    """v(xi) as the first p-adic digit of (u + v*sqrt(d))/p^m that is nonzero,
    with sqrt(d) lifted digit by digit; the search stops at v_p(norm)."""
    p = emb.p
    if not isinstance(xi, QuadExt):
        return valuation(xi, p)
    m = min(valuation(xi.u, p), valuation(xi.v, p))
    u, v = xi.u / Fraction(p) ** m, xi.v / Fraction(p) ** m
    for k in range(valuation(u * u - xi.d * v * v, p) + 1):
        mod = p ** (k + 1)
        if (reduce_mod(u, mod) + reduce_mod(v, mod) * lift_root(xi.d, p, emb.r, k + 1)) % mod:
            return m + k
    raise AssertionError("no nonzero digit up to v_p(norm)")


@st.composite
def embedded_elements(draw):
    """(embedding, xi): d a p-unit square mod p that is not a rational square,
    either root, and xi = u + v*sqrt(d) with u === -v*sqrt(d) mod p^k."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    R, q = draw(st.integers(1, p - 1)), draw(st.sampled_from([1, 2, 3, 4, 5]).filter(lambda q: q % p))
    d = Fraction(R * R + p * draw(st.integers(-40, 40)), q * q)
    assume(d.numerator % p and rational_sqrt(d) is None)
    r = (draw(st.sampled_from([1, -1])) * R * pow(q, -1, p)) % p
    emb = PAdicSqrtEmbedding(d, p, r)
    k, m = draw(st.integers(0, 6)), draw(st.integers(-2, 2))
    v = Fraction(draw(st.integers(-50, 50).filter(bool)), draw(st.integers(1, 9)))
    w = Fraction(draw(st.integers(-50, 50)), draw(st.integers(1, 9)))
    u = -v * lift_root(d, p, r, k) + w * p ** k if k else w
    return emb, QuadExt(u * Fraction(p) ** m, v * Fraction(p) ** m, d)


class TestEmbedding:
    @settings(max_examples=300, deadline=None)
    @given(embedded_elements())
    def test_residue_rule_matches_the_digit_search(self, case):
        emb, xi = case
        assert emb.valuation(xi) == digit_search_valuation(emb, xi)

    @settings(max_examples=200, deadline=None)
    @given(embedded_elements())
    def test_the_two_roots_sum_to_the_norm(self, case):
        emb, xi = case
        other = PAdicSqrtEmbedding(emb.d, emb.p, -emb.r)
        assert emb.valuation(xi) + other.valuation(xi) == valuation(xi.norm(), emb.p)

    @settings(max_examples=200, deadline=None)
    @given(embedded_elements(), rationals)
    def test_reduce(self, case, c):
        emb, xi = case
        if valuation(c, emb.p) >= 0:
            assert emb.reduce(c) == reduce_mod(c, emb.p)
        if min(valuation(xi.u, emb.p), valuation(xi.v, emb.p)) >= 0:
            assert emb.reduce(xi) == (reduce_mod(xi.u, emb.p) + reduce_mod(xi.v, emb.p) * emb.r) % emb.p
            assert (emb.reduce(xi) == 0) == (emb.valuation(xi) > 0)

    def test_valuation_rational_parts(self):
        emb = PAdicSqrtEmbedding(2, 7, 3)
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
        # sqrt(2) - s3 with s3 = sqrt(2) mod 7^3 on the root === 3 branch: its
        # valuation is the position of the first nonzero 7-adic digit of
        # sqrt(2) past the third, read from a lift mod 7^12
        emb = PAdicSqrtEmbedding(2, 7, root_mod_p=3)
        s3, s12 = lift_root(2, 7, 3, 3), lift_root(2, 7, 3, 12)
        expected = valuation(s12 - s3, 7)
        assert 3 <= expected < 12
        assert emb.valuation(QuadExt(-s3, 1, 2)) == expected

    def test_requires_unit_square(self):
        with pytest.raises(DomainError):
            PAdicSqrtEmbedding(7, 7, 0)
        with pytest.raises(DomainError):
            PAdicSqrtEmbedding(3, 7, 2)
        with pytest.raises(DomainError):
            PAdicSqrtEmbedding(2, 7, 2)
