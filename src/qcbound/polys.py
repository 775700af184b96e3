"""Dense univariate polynomials over the exact rationals.

Coefficients are ``fractions.Fraction`` stored lowest-degree first with no
trailing zeros; the zero polynomial has an empty coefficient tuple.

Products go through one exact integer kernel, shared with the series module:
``common_denominator`` writes each factor as an integer list over its least
common denominator, ``convolve`` multiplies the two lists with a single
Kronecker-substitution integer product (of half the slots when each list is
nonzero in one residue class mod 2 only), and each output coefficient becomes
one ``Fraction``, which is normalised to lowest terms on construction.  The gcd
runs over primitive integer parts with a subresultant remainder sequence, so
intermediate coefficients stay integral; resultants go through a fraction-free
Bareiss elimination of the Sylvester matrix.  Degrees stay small here (a few
hundred at most), so the dense representation is the right trade-off.
"""

from fractions import Fraction
from math import gcd as int_gcd, lcm

from .errors import DomainError


def _trim(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


class Poly:
    """Immutable dense polynomial over Q, lowest-degree-first coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim([c if type(c) is Fraction else Fraction(c) for c in coeffs])

    @classmethod
    def const(cls, c):
        return cls([c])

    @classmethod
    def x_power(cls, n, c=1):
        return cls([0] * n + [c])

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        other = _coerce(other)
        return other is not NotImplemented and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    @property
    def leading(self):
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        return Poly(rational_convolve(a, b, len(a) + len(b) - 1))

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        den = other.coeffs
        dd = len(den) - 1
        lead = den[-1]
        if len(rem) <= dd:
            return Poly(), self
        quot = [Fraction(0)] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if not c:
                continue
            q = c / lead
            quot[i - dd] = q
            for j in range(dd + 1):
                rem[i - dd + j] -= q * den[j]
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if r:
            raise DomainError("inexact polynomial division")
        return q

    def derivative(self):
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Horner evaluation; x may be a Fraction or any ring element."""
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return Fraction(0)
        return acc

    def compose_shift(self, x0):
        """p(x0 + t) as a polynomial in t (Taylor shift)."""
        acc = Poly()
        shift = Poly([x0, 1])
        for c in reversed(self.coeffs):
            acc = acc * shift + Poly([c])
        return acc

    def reversed_coeffs(self, n=None):
        """x^n * p(1/x); n defaults to deg p."""
        if n is None:
            n = self.degree
        if n < self.degree:
            raise DomainError("reversal order below degree")
        out = [Fraction(0)] * (n + 1)
        for i, c in enumerate(self.coeffs):
            out[n - i] = c
        return Poly(out)

    def monic(self):
        if not self:
            return self
        lead = self.coeffs[-1]
        return Poly([c / lead for c in self.coeffs])

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def _coerce(other):
    if isinstance(other, Poly):
        return other
    if isinstance(other, (int, Fraction)):
        return Poly([other])
    return NotImplemented


# -- the exact integer product kernel -----------------------------------------


def common_denominator(coeffs):
    """(L, ints) with L the least common denominator and coeffs[i] = ints[i] / L."""
    den = lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def convolve(a, b, n):
    """First n coefficients of the product of two signed integer lists.

    Kronecker substitution: each list is packed into one integer with a slot
    wide enough for any coefficient of the product (largest bit lengths of
    both lists, plus the bit length of the number of terms summed, plus a
    sign bit), the two integers are multiplied once, and the slots are read
    back lowest first, a negative slot borrowing one from the next.

    Parity split: when the nonzero coefficients of a lie in one residue class
    ra mod 2 and those of b in one class rb (even-only or odd-only, as for a
    function of t^2, or t times one), the product lies in the class ra + rb.
    The strided halves a[ra::2] and b[rb::2] are then multiplied with one
    Kronecker product of half the slots, written into that class, and every
    other slot is zero; when ra + rb >= n all n are.
    """
    a, b = a[:n], b[:n]
    if not a or not b:
        return [0] * n
    ra, rb = _parity(a), _parity(b)
    if ra is None or rb is None:
        return _kronecker(a, b, n)
    r = ra + rb
    out = [0] * n
    if r < n:
        out[r::2] = _kronecker(a[ra::2], b[rb::2], len(range(r, n, 2)))
    return out


def _parity(ints):
    """0 when the odd slots of ints are zero, 1 when only they are nonzero, else None."""
    if not any(ints[1::2]):
        return 0
    return None if any(ints[0::2]) else 1


def _kronecker(a, b, n):
    """First n coefficients of the product of two nonempty integer lists, by
    one Kronecker-substitution product."""
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(len(a), len(b)).bit_length() + 1)
    width = (bits + 7) // 8
    m = min(n, len(a) + len(b) - 1)
    product = _pack(a, width) * _pack(b, width)
    slots = (product & ((1 << (8 * width * m)) - 1)).to_bytes(width * m, "little")
    half, full = 1 << (8 * width - 1), 1 << (8 * width)
    out, borrow = [], 0
    for k in range(0, width * m, width):
        c = int.from_bytes(slots[k:k + width], "little") + borrow
        borrow = c >= half
        out.append(c - full if borrow else c)
    return out + [0] * (n - m)


def rational_convolve(a, b, n):
    """First n coefficients of the product of two lists of rationals, as Fractions."""
    la, ia = common_denominator(a)
    lb, ib = common_denominator(b)
    den = la * lb
    return [Fraction(c, den) for c in convolve(ia, ib, n)]


def _pack(ints, width):
    """sum ints[i] * 2^(8 * width * i), from one byte string per sign."""
    pos = b"".join((c if c > 0 else 0).to_bytes(width, "little") for c in ints)
    neg = b"".join((-c if c < 0 else 0).to_bytes(width, "little") for c in ints)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


# -- integer helpers for the subresultant gcd --------------------------------


def primitive_int(p):
    """Return (content, integer coefficient list) with the list primitive."""
    if not p:
        return Fraction(0), []
    den, ints = common_denominator(p.coeffs)
    cont = 0
    for c in ints:
        cont = int_gcd(cont, abs(c))
    ints = [c // cont for c in ints]
    return Fraction(cont, den), ints


def _int_prem(a, b):
    """Pseudo-remainder of integer coefficient lists (lowest first)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        da = len(a) - 1
        if not a[-1]:
            a.pop()
            continue
        la = a[-1]
        a = [c * lb for c in a]
        for j in range(db + 1):
            a[da - db + j] -= la * b[j]
        while a and not a[-1]:
            a.pop()
    return a


def poly_gcd(a, b):
    """Monic gcd over Q via a primitive subresultant remainder sequence."""
    if not a:
        return b.monic()
    if not b:
        return a.monic()
    if a.degree == 0 or b.degree == 0:
        return Poly([1])
    _, fa = primitive_int(a)
    _, fb = primitive_int(b)
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while fb:
        r = _int_prem(fa, fb)
        if not any(r):
            break
        g = 0
        for c in r:
            g = int_gcd(g, abs(c))
        fa, fb = fb, [c // g for c in r]
        if len(fa) < len(fb):
            fa, fb = fb, fa
    else:
        return Poly(fa).monic()
    return Poly(fb).monic()


def resultant(a, b):
    """Res(a, b) via fraction-free Bareiss elimination of the Sylvester matrix."""
    if not a or not b:
        return Fraction(0)
    m, n = a.degree, b.degree
    if m == 0:
        return a.coeffs[0] ** n
    if n == 0:
        return b.coeffs[0] ** m
    size = m + n
    rows = []
    ra = list(reversed(a.coeffs))
    rb = list(reversed(b.coeffs))
    for i in range(n):
        rows.append([Fraction(0)] * i + ra + [Fraction(0)] * (size - i - m - 1))
    for i in range(m):
        rows.append([Fraction(0)] * i + rb + [Fraction(0)] * (size - i - n - 1))
    sign = 1
    prev = Fraction(1)
    for k in range(size - 1):
        if not rows[k][k]:
            for r in range(k + 1, size):
                if rows[r][k]:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = rows[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = (pivot * rows[i][j] - rows[i][k] * rows[k][j]) / prev
            rows[i][k] = Fraction(0)
        prev = pivot
    return sign * rows[size - 1][size - 1]


def discriminant(f):
    """disc(f) = (-1)^(d(d-1)/2) Res(f, f') / lc(f)."""
    d = f.degree
    if d < 1:
        raise DomainError("discriminant requires degree >= 1")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative()) / f.leading


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def rational_roots(f):
    """All rational roots of f, via the rational root theorem on the primitive part."""
    if not f:
        raise DomainError("zero polynomial")
    _, ints = primitive_int(f)
    low = 0
    while not ints[low]:
        low += 1
    roots = [Fraction(0)] if low else []
    a0, an = abs(ints[low]), abs(ints[-1])
    p_divs = _divisors(a0)
    q_divs = _divisors(an)
    seen = set()
    for pd in p_divs:
        for qd in q_divs:
            for cand in (Fraction(pd, qd), Fraction(-pd, qd)):
                if cand not in seen:
                    seen.add(cand)
                    if not f(cand):
                        roots.append(cand)
    return sorted(roots)
