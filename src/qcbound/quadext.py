"""Exact arithmetic in Q(sqrt(d)) together with a p-adic embedding.

Residue-disk centers whose y-coordinate is not rational are lifted into a
quadratic extension (d a fixed non-square rational).  Each value has one
form: a rational value is a ``Fraction``, and any other is a ``QuadExt``
u + v*sqrt(d) of exact rationals with v != 0.  To take Newton polygons of
series with such coefficients we need the p-adic valuation along a chosen
embedding Q(sqrt(d)) -> Q_p.  For an odd prime p and a p-unit d, the residue
r of sqrt(d) mod p fixes the embedding, and the reduction u + v*r mod p of a
p-integral xi = u + v*sqrt(d) fixes every valuation.  With m = min(v_p(u),
v_p(v)):

* if v_p(u) != v_p(v), then v(xi) = m, because sqrt(d) is a unit;
* if v_p(u) = v_p(v) = m and xi/p^m reduces to a nonzero residue, v(xi) = m;
* otherwise v(xi) = v_p(u^2 - d*v^2) - m: the conjugate of xi/p^m reduces to
  2u/p^m, a unit as p is odd, and xi times its conjugate is the norm.
"""

from fractions import Fraction
from math import isqrt

from .errors import DomainError
from .padics import as_prime, reduce_mod, valuation


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
    """u + v*sqrt(d) with exact rational u, v, v != 0, and fixed non-square d.

    A value of Q(sqrt(d)) that is rational is a ``Fraction``: the constructor
    returns ``Fraction(u)`` when v = 0, and so does every operation whose
    result has no sqrt(d) part.  Operands over distinct fields raise
    DomainError.
    """

    __slots__ = ("u", "v", "d")

    def __new__(cls, u, v, d):
        v = Fraction(v)
        if not v:
            return Fraction(u)
        self = object.__new__(cls)
        self.u = Fraction(u)
        self.v = v
        self.d = Fraction(d)
        return self

    def __getnewargs__(self):   # pickle and copy call __new__ with these
        return self.u, self.v, self.d

    # -- structure -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QuadExt):
            return NotImplemented
        return self.u == other.u and self.v == other.v and self.d == other.d

    def __hash__(self):
        return hash((self.u, self.v, self.d))

    def conjugate(self):
        return QuadExt(self.u, -self.v, self.d)

    def norm(self):
        return self.u * self.u - self.d * self.v * self.v

    # -- field operations ------------------------------------------------------

    def _parts(self, other):
        """(u, v) of other in this field, or None for a foreign type."""
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise DomainError("mixing distinct quadratic extensions")
            return other.u, other.v
        if isinstance(other, (int, Fraction)):
            return other, 0
        return None

    def __add__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return QuadExt(self.u + parts[0], self.v + parts[1], self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.u, -self.v, self.d)

    def __sub__(self, other):
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        return QuadExt(self.u - parts[0], self.v - parts[1], self.d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadExt(self.u * other, self.v * other, self.d)
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        u, v = parts
        return QuadExt(self.u * u + self.d * self.v * v, self.u * v + self.v * u, self.d)

    __rmul__ = __mul__

    def inverse(self):
        n = self.norm()
        return QuadExt(self.u / n, -self.v / n, self.d)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadExt(self.u / other, self.v / other, self.d)
        if not isinstance(other, QuadExt):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __repr__(self):
        return f"({self.u} + {self.v}*sqrt({self.d}))"


class PAdicSqrtEmbedding:
    """The embedding Q(sqrt(d)) -> Q_p in which sqrt(d) has residue r mod p,
    for an odd prime p, v_p(d) = 0 and r^2 === d mod p.  It holds only d, p
    and r: ``reduce`` and ``valuation`` read the rule of the module docstring.
    """

    __slots__ = ("d", "p", "r")

    def __init__(self, d, p, root_mod_p):
        self.d = Fraction(d)
        self.p = as_prime(p)
        if valuation(self.d, self.p) != 0:
            raise DomainError("embedding requires d to be a p-unit")
        self.r = root_mod_p % self.p
        if (self.r * self.r - reduce_mod(self.d, self.p)) % self.p:
            raise DomainError("root_mod_p is not a square root of d mod p")

    def reduce(self, xi):
        """xi mod p for a p-integral xi: u + v*r for xi = u + v*sqrt(d)."""
        if not isinstance(xi, QuadExt):
            return reduce_mod(xi, self.p)
        return (reduce_mod(xi.u, self.p) + reduce_mod(xi.v, self.p) * self.r) % self.p

    def valuation(self, xi):
        """Exact p-adic valuation of xi in Q_p along this embedding."""
        if not isinstance(xi, QuadExt):
            return valuation(xi, self.p)
        if xi.d != self.d:
            raise DomainError("element lies in a different extension")
        m, mv = valuation(xi.u, self.p), valuation(xi.v, self.p)
        if m != mv:
            return min(m, mv)
        if self.reduce(xi * Fraction(self.p) ** -m):
            return m
        return valuation(xi.norm(), self.p) - m
