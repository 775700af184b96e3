import random
from fractions import Fraction

import pytest

from qcbound.errors import DomainError
from qcbound.polys import Poly, discriminant, poly_gcd, rational_roots, resultant


def P(*coeffs):
    return Poly(coeffs)


class TestArithmetic:
    def test_add_mul(self):
        a = P(1, 2)       # 1 + 2x
        b = P(0, 0, 3)    # 3x^2
        assert a + b == P(1, 2, 3)
        assert a * b == P(0, 0, 3, 6)
        assert (a - a).degree == -1

    def test_divmod(self):
        f = P(-1, 0, 0, 1)          # x^3 - 1
        g = P(-1, 1)                # x - 1
        q, r = divmod(f, g)
        assert q == P(1, 1, 1)
        assert not r

    def test_eval_and_shift(self):
        f = P(1, 0, 1)              # 1 + x^2
        assert f(Fraction(2)) == 5
        shifted = f.compose_shift(Fraction(3))   # 1 + (3+t)^2 = 10 + 6t + t^2
        assert shifted == P(10, 6, 1)

    def test_derivative(self):
        assert P(5, 1, 3).derivative() == P(1, 6)

    def test_reversed(self):
        f = P(2, 0, 1)              # 2 + x^2
        assert f.reversed_coeffs() == P(1, 0, 2)
        assert f.reversed_coeffs(3) == P(0, 1, 0, 2)


class TestGcd:
    def test_common_factor(self):
        a = P(-1, 1) * P(1, 1) * P(2, 3)
        b = P(-1, 1) * P(5, 1)
        assert poly_gcd(a, b) == P(-1, 1)

    def test_coprime(self):
        assert poly_gcd(P(1, 1), P(2, 1)).degree == 0

    def test_random_products(self):
        rng = random.Random(3)
        for _ in range(50):
            g = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [1])
            a = g * Poly([rng.randint(-4, 4) for _ in range(2)] + [1])
            b = g * Poly([rng.randint(-4, 4) for _ in range(3)] + [1])
            got = poly_gcd(a, b)
            assert not a % got and not b % got
            assert got.degree >= g.monic().degree


class TestResultant:
    def test_linear_pair(self):
        # Res(x - a, x - b) = b - a up to sign convention: product of
        # differences lc-weighted; check against the definition via roots.
        a, b = Fraction(2), Fraction(5)
        r = resultant(P(-a, 1), P(-b, 1))
        assert r == b - a or r == a - b

    def test_against_product_of_roots(self):
        # Res(f, g) = lc(g)^deg f * prod f(roots of g) for monic f
        f = P(1, 2, 1)   # (x+1)^2
        g = P(-2, 0, 1)  # x^2 - 2
        # prod over roots r of g of f(r) = f(sqrt2) f(-sqrt2) = (3+2s)(3-2s) = 1
        assert resultant(g, f) == 1

    def test_discriminant_quintic(self):
        # disc(x^5 + 1) = 5^5
        assert discriminant(P(1, 0, 0, 0, 0, 1)) == 5**5

    def test_discriminant_cubic(self):
        # disc(x^3 + ax + b) = -4a^3 - 27b^2
        for a, b in [(1, 1), (-1, 0), (2, -3)]:
            f = P(b, a, 0, 1)
            assert discriminant(f) == -4 * a**3 - 27 * b**2


class TestRationalRoots:
    def test_simple(self):
        f = P(-2, 1) * P(3, 2) * P(1, 0, 1)   # roots 2, -3/2
        assert rational_roots(f) == [Fraction(-3, 2), Fraction(2)]

    def test_zero_root(self):
        f = P(0, 1) * P(-1, 1)
        assert rational_roots(f) == [Fraction(0), Fraction(1)]

    def test_no_roots(self):
        assert rational_roots(P(1, 0, 1)) == []

    def test_zero_poly_rejected(self):
        with pytest.raises(DomainError):
            rational_roots(Poly())
