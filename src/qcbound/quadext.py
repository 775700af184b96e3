"""Exact arithmetic in Q(sqrt(d)) together with a p-adic embedding.

Residue-disk centers whose y-coordinate is not rational are lifted into a
quadratic extension and represented as pairs u + v*sqrt(d) of exact rationals
(d a fixed non-square rational).  To take Newton polygons of series with such
coefficients we need the p-adic valuation along a chosen embedding
Q(sqrt(d)) -> Q_p, i.e. a choice of square root of d in Z_p; the embedding
fixes that choice by its residue mod p and computes valuations exactly by
Hensel-lifting the root to enough p-adic digits.
"""

from fractions import Fraction
from math import isqrt

from .errors import DomainError
from .padics import INFINITY, valuation


def rational_sqrt(x):
    """Exact square root of a rational, or None when x is not a square."""
    x = Fraction(x)
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class QuadExt:
    """u + v*sqrt(d) with exact rational u, v and fixed non-square d."""

    __slots__ = ("u", "v", "d")

    def __init__(self, u, v, d):
        self.u = Fraction(u)
        self.v = Fraction(v)
        self.d = Fraction(d)

    # -- structure -----------------------------------------------------------

    def __bool__(self):
        return bool(self.u) or bool(self.v)

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            if self.d != other.d and self.v and other.v:
                return NotImplemented
            return self.u == other.u and self.v == other.v
        if isinstance(other, (int, Fraction)):
            return not self.v and self.u == other
        return NotImplemented

    def __hash__(self):
        if not self.v:
            return hash(self.u)
        return hash((self.u, self.v, self.d))

    def conjugate(self):
        return QuadExt(self.u, -self.v, self.d)

    def norm(self):
        return self.u * self.u - self.d * self.v * self.v

    # -- field operations ------------------------------------------------------

    def _coerce(self, other):
        """(other as a QuadExt, the d of the result), or (None, None) for a
        foreign type.  An operand with v = 0 takes the other operand's field."""
        if isinstance(other, QuadExt):
            if other.d == self.d or not other.v:
                return other, self.d
            if self.v:
                raise DomainError("mixing distinct quadratic extensions")
            return other, other.d
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self.d), self.d
        return None, None

    def __add__(self, other):
        other, d = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadExt(self.u + other.u, self.v + other.v, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.u, -self.v, self.d)

    def __sub__(self, other):
        other, d = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadExt(self.u - other.u, self.v - other.v, d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other, d = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadExt(
            self.u * other.u + self.d * self.v * other.v,
            self.u * other.v + self.v * other.u,
            d,
        )

    __rmul__ = __mul__

    def inverse(self):
        n = self.norm()
        if not n:
            raise ZeroDivisionError("zero element of Q(sqrt(d))")
        return QuadExt(self.u / n, -self.v / n, self.d)

    def __truediv__(self, other):
        other, _ = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __repr__(self):
        if not self.v:
            return f"{self.u}"
        return f"({self.u} + {self.v}*sqrt({self.d}))"


def sqrt_mod_p(a, p):
    """A square root of a mod p for odd prime p, by direct search (p is small)."""
    a %= p
    for s in range(p):
        if s * s % p == a:
            return s
    raise DomainError(f"{a} is not a square mod {p}")


def _residue(q, modulus):
    """Residue of a p-integral rational mod an integer modulus."""
    num, den = q.numerator, q.denominator
    return num * pow(den, -1, modulus) % modulus


class PAdicSqrtEmbedding:
    """An embedding Q(sqrt(d)) -> Q_p determined by sqrt(d) === root mod p.

    Requires v_p(d) = 0 and d a square mod p.  Valuations of u + v*sqrt(d)
    are computed exactly: the root is Hensel-lifted mod p^k until a nonzero
    p-adic digit appears, which must happen at or before v_p(norm).
    """

    def __init__(self, d, p, root_mod_p=None):
        self.d = Fraction(d)
        self.p = int(p)
        if valuation(self.d, p) != 0:
            raise DomainError("embedding requires d to be a p-unit")
        d_bar = _residue(self.d, self.p)
        r = sqrt_mod_p(d_bar, self.p) if root_mod_p is None else root_mod_p % self.p
        if r * r % self.p != d_bar:
            raise DomainError("root_mod_p is not a square root of d mod p")
        self._precision = 1
        self._root = r

    def root_mod(self, k):
        """sqrt(d) mod p^k along this embedding (Hensel lifting, cached)."""
        while self._precision < k:
            new_prec = 2 * self._precision
            modulus = self.p ** new_prec
            s = self._root
            d_res = _residue(self.d, modulus)
            inv = pow(2 * s, -1, modulus)
            s = (s - (s * s - d_res) * inv) % modulus
            self._root = s
            self._precision = new_prec
        return self._root % self.p ** k

    def valuation(self, xi):
        """Exact p-adic valuation of xi in Q_p along this embedding."""
        if isinstance(xi, (int, Fraction)):
            return valuation(xi, self.p)
        if xi.d != self.d and xi.v:
            raise DomainError("element lies in a different extension")
        if not xi:
            return INFINITY
        if not xi.v:
            return valuation(xi.u, self.p)
        if not xi.u:
            return valuation(xi.v, self.p)
        p = self.p
        m = min(valuation(xi.u, p), valuation(xi.v, p))
        scale = Fraction(p) ** -m
        u, v = xi.u * scale, xi.v * scale
        cap = valuation(u * u - self.d * v * v, p)
        for k in range(cap + 1):
            modulus = p ** (k + 1)
            r = (_residue(u, modulus) + _residue(v, modulus) * self.root_mod(k + 1)) % modulus
            if r:
                # zero residue mod p^k (previous iterations) and nonzero mod
                # p^(k+1) pin the first nonzero digit at position k
                return m + k
        raise DomainError("valuation search exceeded the norm bound (is d a square?)")
