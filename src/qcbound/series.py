"""Truncated formal power series, Newton polygons, and certified zero counts.

A ``TruncatedSeries`` stores exact coefficients c_0 .. c_{T-1} and means "the
series is known modulo t^T".  Arithmetic tracks precision: sums and products
hold the minimum of the operand truncations, differentiation loses one order,
formal integration gains one.  Coefficients are ``Fraction`` (an ``int`` is
read as one) or ``quadext.QuadExt``, whose sqrt(d) part is never zero;
valuation-dependent operations take a valuation callable for that reason.

Products and inverses run on integers.  A product writes each factor over its
least common denominator (a Q(sqrt d) factor as two integer lists, rational
and sqrt(d) parts) and takes one ``polys.convolve`` per integer product;
(u + v sqrt d)(u' + v' sqrt d) = (uu' + d vv') + (uv' + vu') sqrt d takes
three.  An inverse runs the recurrence 1/S = sum_m W_m t^m / S_0^(m+1),
W_0 = 1, W_m = -sum_k S_k S_0^(k-1) W_(m-k), on the integer numerators S of
a rational series, and 1/s = conj(s) / (s conj(s)) over Q(sqrt d), where
s conj(s) is rational.  A coefficient of any result is a ``Fraction`` exactly
when it is rational, because ``QuadExt`` returns one when the sqrt(d) part
cancels; no operation here inspects or changes coefficient types.

``IntegerSeries`` is the one integer form of a rational series, and only
this module reads or builds its numerators: integers over one denominator
it owns, known to n coefficients, no list at all for a known zero.  Its
sums, products (one ``convolve``), scales, derivatives, divided derivatives,
antiderivatives, strip of leading zeros, least terms and linear
combinations (``combination``) keep the truncations of ``TruncatedSeries``,
and ``series()`` turns each coefficient into one ``Fraction`` at the end,
so a computation run on it gives the values, types and truncations of the
Fraction one.  Disk charts keep their powers of x(t) in it, and the
Weierstrass annihilator route runs on it from chart to D(G) (``funcfield``,
``diffops``, ``coleman``).  Series over Q(sqrt d) keep the Fraction path.

Newton polygons are lower convex hulls of the points (i, v(c_i)).  Because
only finitely many coefficients are known, the slope <= -1 part of the hull
is *certified* only when no hypothetical coefficient at index >= T with
valuation >= floor_val could alter it.  Writing (M, h) for the endpoint of
the slope <= -1 segment, the worst such point is (T, floor_val), and a short
convexity argument shows the segment survives every admissible tail exactly
when M + h < T + floor_val.  Exact polynomials certify with
floor_val = INFINITY.
"""

from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, mul

from .errors import (
    DomainError,
    IndeterminatePolygonError,
    NonUnitError,
    PoleError,
    PrecisionError,
)
from .padics import INFINITY, as_prime, kappa, valuation
from .polys import common_denominator, convolve, rational_convolve
from .quadext import QuadExt


class TruncatedSeries:
    """Finite-precision formal power series; immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_polynomial(cls, coeffs, truncation):
        """Series of a polynomial, padded with exact zeros up to truncation."""
        coeffs = list(coeffs)
        if len(coeffs) > truncation:
            coeffs = coeffs[:truncation]
        return cls([Fraction(c) if isinstance(c, int) else c for c in coeffs]
                   + [Fraction(0)] * (truncation - len(coeffs)))

    @classmethod
    def zero(cls, truncation):
        return cls([Fraction(0)] * truncation)

    @classmethod
    def one(cls, truncation):
        return cls.from_polynomial([1], truncation)

    # -- structure ------------------------------------------------------------

    @property
    def truncation(self):
        return len(self.coeffs)

    def coefficient(self, i):
        """c_i; raises PrecisionError when i is beyond the truncation order."""
        if i < 0:
            raise IndexError("negative coefficient index")
        if i >= len(self.coeffs):
            raise PrecisionError(
                f"coefficient {i} not known at truncation {len(self.coeffs)}",
                needed=i + 1,
            )
        return self.coeffs[i]

    def is_known_zero(self):
        return all(not c for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def agrees_with(self, other, upto=None):
        """Equality of the first ``upto`` coefficients (default: shared precision)."""
        n = min(self.truncation, other.truncation)
        if upto is not None:
            if upto > n:
                raise PrecisionError(f"only {n} shared coefficients known", needed=upto)
            n = upto
        return all(self.coeffs[i] == other.coeffs[i] for i in range(n))

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(len(self.coeffs), len(other.coeffs))
        return TruncatedSeries([self.coeffs[i] + other.coeffs[i] for i in range(n)])

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(len(self.coeffs), len(other.coeffs))
        return TruncatedSeries([self.coeffs[i] - other.coeffs[i] for i in range(n)])

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(len(self.coeffs), len(other.coeffs))
        return TruncatedSeries(_product(self.coeffs, other.coeffs, n))

    def scale(self, c):
        """Scalar multiple; c may be int, Fraction, or a QuadExt element."""
        return TruncatedSeries([c * x for x in self.coeffs])

    def derivative(self):
        if len(self.coeffs) < 1:
            raise PrecisionError("cannot differentiate a precision-0 series", needed=2)
        return TruncatedSeries([i * self.coeffs[i] for i in range(1, len(self.coeffs))])

    def antiderivative(self, constant=0):
        out = [constant if not isinstance(constant, int) else Fraction(constant)]
        out.extend(self.coeffs[i] / (i + 1) for i in range(len(self.coeffs)))
        return TruncatedSeries(out)

    def inverse(self):
        """Multiplicative inverse; requires a nonzero constant term.

        Over Q(sqrt d) it is conj(s) / (s conj(s)): the coefficients of
        s conj(s) come back as Fractions, so both products run on the kernel.
        """
        if not self.coeffs:
            raise PrecisionError("cannot invert a precision-0 series", needed=1)
        coeffs = self.coeffs
        if not coeffs[0]:
            raise NonUnitError("series with zero constant term is not invertible")
        if not any(isinstance(c, QuadExt) for c in coeffs):
            return TruncatedSeries(_rational_inverse(coeffs))
        # 1/s = conj(s) / (s * conj(s)), and s * conj(s) has rational coefficients
        conj = [c.conjugate() if isinstance(c, QuadExt) else c for c in coeffs]
        norm = _product(coeffs, conj, len(coeffs))
        return TruncatedSeries(_product(conj, _rational_inverse(norm), len(coeffs)))

    def sqrt_unit(self):
        """Square root u of a rational series s with constant term exactly 1.

        With s = S/L in integers (L the least common denominator, so S_0 = L),
        u_n = U_n / (2^(2n-1) L^n), where U_1 = S_1 and
        U_n = (4L)^(n-1) S_n - sum_(k=1..n-1) U_k U_(n-k).
        """
        if not self.coeffs or self.coeffs[0] != 1:
            raise NonUnitError("sqrt_unit requires constant term 1")
        den, ints = common_denominator(self.coeffs)
        out, U = [self.coeffs[0]], [None]
        scale, power = 1, 2 * den
        for n in range(1, len(ints)):
            U.append(scale * ints[n] - sum(map(mul, U[1:n], U[n - 1:0:-1])))
            out.append(Fraction(U[n], power))
            scale *= 4 * den
            power *= 4 * den
        return TruncatedSeries(out)

    def __repr__(self):
        shown = []
        for i, c in enumerate(self.coeffs[:6]):
            if c:
                shown.append(f"{c}*t^{i}" if i else f"{c}")
        body = " + ".join(shown) if shown else "0"
        return f"TruncatedSeries({body} + O(t^{len(self.coeffs)}))"


def rational_series(s):
    """True for a TruncatedSeries whose coefficients are all int or Fraction."""
    return isinstance(s, TruncatedSeries) and all(isinstance(c, (int, Fraction)) for c in s.coeffs)


class IntegerSeries:
    """A rational series as integer numerators over its own denominator.

    The coefficient of t^i is ints[i] / den for i < n; ``ints`` is None when
    the series is known zero.  Sums, products, derivatives and
    antiderivatives keep ``TruncatedSeries``' truncations (the shorter
    operand; one fewer for a derivative, one more for an antiderivative) and
    do no arithmetic on a known zero.  A product is one ``convolve`` over the
    product of the denominators; a sum over one denominator adds the
    numerators, otherwise it rescales both to the lcm.  ``series`` turns
    each coefficient into one ``Fraction``: the values, types and truncation
    of the same computation on ``TruncatedSeries``.
    """

    __slots__ = ("den", "ints", "n")

    def __init__(self, den, ints, n):
        self.den, self.ints, self.n = den, ints, n

    @classmethod
    def of(cls, s):
        """A rational ``TruncatedSeries`` over its least common denominator."""
        return cls.over_one_denominator([s])[0]

    @classmethod
    def over_one_denominator(cls, series):
        """Rational ``TruncatedSeries`` over their one least common denominator,
        so that sums of their products need no rescaling."""
        den, ints = common_denominator([c for s in series for c in s.coeffs])
        out, start = [], 0
        for s in series:
            part = ints[start:start + s.truncation]
            out.append(cls(den, part if any(part) else None, s.truncation))
            start += s.truncation
        return out

    @property
    def truncation(self):
        return self.n

    def series(self):
        """The series as a ``TruncatedSeries`` of Fractions."""
        if self.ints is None:
            return TruncatedSeries.zero(self.n)
        return TruncatedSeries([Fraction(c, self.den) for c in self.ints])

    def is_known_zero(self):
        return self.ints is None or not any(self.ints)

    def stripped(self):
        """(j, s) with self = t^j s, s without the j leading known-zero
        coefficients, as ``LaurentSeries.normalized`` strips them; a known
        zero strips to a series of no coefficients."""
        ints = self.ints
        j = self.n if ints is None else next((i for i, c in enumerate(ints) if c), self.n)
        if not j:
            return 0, self
        return j, IntegerSeries(self.den, None if j == self.n else ints[j:], self.n - j)

    def least_terms(self):
        """The series over its least denominator, den and numerators divided
        by their gcd; a known zero over 1."""
        if self.is_known_zero():
            return IntegerSeries(1, None, self.n)
        g = gcd(self.den, *self.ints)
        return self if g == 1 else IntegerSeries(self.den // g, [c // g for c in self.ints], self.n)

    def shifted(self, k, n):
        """t^k times the series, cut to n coefficients."""
        end = max(min(k + self.n, n), 0)
        if not k and end == self.n:
            return self
        ints = None if self.ints is None else ([0] * k + self.ints)[:end]
        return IntegerSeries(self.den, ints, end)

    def __mul__(self, other):
        n = min(self.n, other.n)
        if self.ints is None or other.ints is None:
            return IntegerSeries(self.den * other.den, None, n)
        return IntegerSeries(self.den * other.den, convolve(self.ints, other.ints, n), n)

    def __neg__(self):
        return IntegerSeries(self.den, None if self.ints is None else [-c for c in self.ints], self.n)

    def __add__(self, other):
        n = min(self.n, other.n)
        if other.ints is None:
            return IntegerSeries(self.den, None if self.ints is None else self.ints[:n], n)
        if self.ints is None:
            return IntegerSeries(other.den, other.ints[:n], n)
        if self.den == other.den:
            return IntegerSeries(self.den, [a + b for a, b in zip(self.ints, other.ints)], n)
        den = lcm(self.den, other.den)
        ra, rb = den // self.den, den // other.den
        return IntegerSeries(den, [ra * a + rb * b for a, b in zip(self.ints, other.ints)], n)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """c * series for an integer c."""
        return IntegerSeries(self.den, None if self.ints is None else [c * x for x in self.ints], self.n)

    def derivative(self):
        """d/dt, over the same denominator."""
        if self.n < 1:
            raise PrecisionError("cannot differentiate a precision-0 series", needed=2)
        ints = None if self.ints is None else [k * c for k, c in enumerate(self.ints[1:], 1)]
        return IntegerSeries(self.den, ints, self.n - 1)

    def divided_derivative(self, k):
        """(1/k!) (d/dt)^k of the series, over the same denominator: numerators
        C(j, k) ints[j] for j >= k, known to n - k coefficients.  Past the
        truncation it raises as the k-th derivative does."""
        if k > self.n:
            raise PrecisionError("cannot differentiate a precision-0 series", needed=2)
        ints = None if self.ints is None else [comb(j, k) * c for j, c in enumerate(self.ints[k:], k)]
        return IntegerSeries(self.den, ints if ints and any(ints) else None, self.n - k)

    def antiderivative(self, constant=0):
        """The series with derivative self and constant term ``constant``,
        over lcm(den * lcm(1..n), the constant's denominator)."""
        constant = Fraction(constant)
        m = lcm(*range(1, self.n + 1))
        den = lcm(self.den * m, constant.denominator)
        head = constant.numerator * (den // constant.denominator)
        if self.ints is None:
            return IntegerSeries(den, [head] + [0] * self.n if head else None, self.n + 1)
        r = den // (self.den * m)
        return IntegerSeries(den, [head] + [c * (r * (m // k)) for k, c in enumerate(self.ints, 1)],
                             self.n + 1)


def combination(terms):
    """sum c * s over the (c, s) pairs, for rational c and series s of one
    type, known to the least truncation of the s.

    ``IntegerSeries`` terms are summed over the lcm of the c.denominator *
    s.den, each term one integer multiple of its numerators.
    """
    if not isinstance(terms[0][1], IntegerSeries):
        out = None
        for c, s in terms:
            term = s if c == 1 else s.scale(c)
            out = term if out is None else out + term
        return out
    n = min(s.n for _, s in terms)
    live = [(Fraction(c), s) for c, s in terms if c and s.ints is not None]
    if not live:
        return IntegerSeries(1, None, n)
    den = lcm(*(c.denominator * s.den for c, s in live))
    acc = [0] * n
    for c, s in live:
        w = c.numerator * (den // (c.denominator * s.den))
        acc = list(map(add, acc, map(w.__mul__, s.ints)))
    return IntegerSeries(den, acc, n)


def _product(a, b, n):
    """First n coefficients of the product of two coefficient sequences.

    Rational factors take one integer product.  Otherwise every ``QuadExt``
    coefficient must lie in one field Q(sqrt d), and the product takes three
    (two when one factor is rational).  Each coefficient k is built as a
    ``QuadExt``, which is a ``Fraction`` when its sqrt(d) part is zero.  A
    constant factor (no nonzero coefficient past index 0) scales the other
    one instead, with the same values, types and length; a factor exactly 1
    (V = 1/(dx/dt) on a chart t = x - x0) returns a copy of the other.
    """
    a, b = a[:n], b[:n]
    for const, other in ((a, b), (b, a)):
        if const and not any(const[1:]):
            c = const[0]
            if c == 1:
                out = [Fraction(x) if isinstance(x, int) else x for x in other]
            else:
                c = Fraction(c) if isinstance(c, int) else c
                out = [c * x for x in other]
            return out + [Fraction(0)] * (n - len(other))
    fields = {c.d for c in (*a, *b) if isinstance(c, QuadExt)}
    if not fields:
        return rational_convolve(a, b, n)
    if len(fields) > 1:
        raise DomainError("product of series over distinct quadratic extensions")
    d = fields.pop()
    la, ua, va = _split(a)
    lb, ub, vb = _split(b)
    den = u_den = la * lb
    uu = convolve(ua, ub, n)
    if any(va) and any(vb):
        vv = convolve(va, vb, n)
        # Karatsuba: u_a v_b + v_a u_b = (u_a + v_a)(u_b + v_b) - u_a u_b - v_a v_b
        mixed = convolve(list(map(sum, zip(ua, va))), list(map(sum, zip(ub, vb))), n)
        uv = [m - x - y for m, x, y in zip(mixed, uu, vv)]
        uu = [d.denominator * x + d.numerator * y for x, y in zip(uu, vv)]
        u_den *= d.denominator
    else:
        uv = convolve(va, ub, n) if any(va) else convolve(ua, vb, n)
    return [QuadExt(Fraction(x, u_den), Fraction(y, den), d) for x, y in zip(uu, uv)]


def _split(coeffs):
    """(L, u, v) with coeffs[i] = (u[i] + v[i] sqrt d) / L in integers."""
    parts = [(c.u, c.v) if isinstance(c, QuadExt) else (c, 0) for c in coeffs]
    den, ints = common_denominator([u for u, _ in parts] + [v for _, v in parts])
    return den, ints[:len(coeffs)], ints[len(coeffs):]


def _rational_inverse(coeffs):
    """Coefficients of 1/s for a rational series s with s_0 != 0.

    With s = S/L in integers, 1/S has coefficients W_m / S_0^(m+1), where
    W_0 = 1 and W_m = -sum_(k=1..m) S_k S_0^(k-1) W_(m-k).
    """
    den, ints = common_denominator(coeffs)
    s0 = ints[0]
    scaled = [0]
    power = 1
    for c in ints[1:]:
        scaled.append(c * power)
        power *= s0
    w = [1]
    for m in range(1, len(ints)):
        w.append(-sum(map(mul, scaled[1:m + 1], reversed(w))))
    out = []
    power = s0
    for x in w:
        out.append(Fraction(den * x, power))
        power *= s0
    return out


class LaurentSeries:
    """t^order * (truncated series); finite-precision Laurent expansions.

    Used for expansions at infinite disks and for verifying pole orders; the
    pair (order, coeffs) represents coefficients of t^(order+i) known for
    0 <= i < T.
    """

    __slots__ = ("order", "series")

    def __init__(self, order, series):
        self.order = order
        self.series = series

    @classmethod
    def from_series(cls, s):
        return cls(0, s)

    @property
    def end(self):
        # first unknown exponent
        return self.order + self.series.truncation

    def normalized(self):
        """Strip leading known-zero coefficients, raising the order."""
        coeffs = self.series.coeffs
        j = 0
        while j < len(coeffs) and not coeffs[j]:
            j += 1
        if j == 0:
            return self
        return LaurentSeries(self.order + j, TruncatedSeries(coeffs[j:]))

    def t_order(self):
        """Exponent of the first nonzero coefficient (exact order when known)."""
        norm = self.normalized()
        if not norm.series.coeffs:
            raise PrecisionError(
                f"order not determined: zero to O(t^{self.end})", needed=self.series.truncation + 8
            )
        return norm.order

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            other = LaurentSeries.from_series(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        # both operands written from the common order to the common end
        o = min(self.order, other.order)
        n = max(min(self.end, other.end) - o, 0)
        a, b = (TruncatedSeries(([Fraction(0)] * (s.order - o) + list(s.series.coeffs))[:n])
                for s in (self, other))
        return LaurentSeries(o, a + b)

    def __neg__(self):
        return LaurentSeries(self.order, -self.series)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            other = LaurentSeries.from_series(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        a, b = self.normalized(), other.normalized()
        return LaurentSeries(a.order + b.order, a.series * b.series)

    def scale(self, c):
        return LaurentSeries(self.order, self.series.scale(c))

    def inverse(self):
        """1/self; PrecisionError when no known coefficient is nonzero, since
        more terms may still show a leading one."""
        norm = self.normalized()
        if not norm.series.coeffs:
            raise PrecisionError(
                f"cannot invert: zero to O(t^{self.end})", needed=self.series.truncation + 8
            )
        return LaurentSeries(-norm.order, norm.series.inverse())

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            other = LaurentSeries.from_series(other)
        return self * other.inverse()

    def derivative(self):
        out = [(self.order + i) * c for i, c in enumerate(self.series.coeffs)]
        return LaurentSeries(self.order - 1, TruncatedSeries(out))

    def regular_part(self, context=""):
        """As a TruncatedSeries; PoleError when a known negative exponent survives."""
        if self.order >= 0:
            pad = [Fraction(0)] * self.order
            return TruncatedSeries(pad + list(self.series.coeffs))
        head = self.series.coeffs[: -self.order]
        if any(head):
            k = next(i for i, c in enumerate(head) if c)
            raise PoleError(
                f"pole of order {-(self.order + k)}{' on ' + context if context else ''}"
            )
        rest = self.series.coeffs[-self.order:]
        if not rest:
            raise PrecisionError("no regular coefficients known", needed=-self.order + 1)
        return TruncatedSeries(rest)

    def __repr__(self):
        return f"LaurentSeries(t^{self.order} * {self.series!r})"


# -- Newton polygons ----------------------------------------------------------


class NewtonPolygon:
    """Lower convex hull of (index, valuation) points with a certification flag.

    ``certified`` refers to the slope <= -1 part only: when True, revealing
    coefficients at indices >= truncation with valuation >= floor_val cannot
    change that segment.
    """

    __slots__ = ("vertices", "certified", "truncation", "floor_val")

    def __init__(self, vertices, certified, truncation, floor_val):
        self.vertices = tuple(vertices)
        self.certified = certified
        self.truncation = truncation
        self.floor_val = floor_val

    def slopes(self):
        out = []
        for (i1, v1), (i2, v2) in zip(self.vertices, self.vertices[1:]):
            out.append(Fraction(v2 - v1, i2 - i1))
        return out

    def __repr__(self):
        tag = "certified" if self.certified else "uncertified"
        return f"NewtonPolygon({list(self.vertices)}, {tag})"


def _lower_hull(points):
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop while the middle point is on or above the chord; keeps
            # endpoint-only vertices for collinear runs
            if (y2 - y1) * (pt[0] - x2) >= (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def _le_minus_one_endpoint(vertices):
    """Endpoint (M, h_M) of the slope <= -1 part, measured from index 0."""
    i, v = vertices[0]
    # indices below the first finite point count as a slope -infinity edge
    idx = 0
    while idx + 1 < len(vertices):
        (i1, v1), (i2, v2) = vertices[idx], vertices[idx + 1]
        if v2 - v1 <= -(i2 - i1):
            idx += 1
        else:
            break
    return vertices[idx]


def newton_polygon(F, p, floor_val, val=None):
    """Newton polygon of F at p, certified against tails of valuation >= floor_val.

    ``floor_val`` is the caller-supplied lower bound on the valuations of the
    unknown coefficients at indices >= truncation (INFINITY for exact
    polynomials).  ``val`` overrides the valuation map (needed for QuadExt
    coefficients).
    """
    p = as_prime(p)
    if val is None:
        val = lambda c: valuation(c, p)
    points = [(i, val(c)) for i, c in enumerate(F.coeffs) if c]
    if not points:
        raise IndeterminatePolygonError(
            f"all known coefficients vanish to O(t^{F.truncation})",
            needed=F.truncation + 8,
        )
    vertices = _lower_hull(points)
    if floor_val == INFINITY:
        certified = True
    else:
        M, hM = _le_minus_one_endpoint(vertices)
        certified = M + hM < F.truncation + floor_val
    return NewtonPolygon(vertices, certified, F.truncation, floor_val)


def slope_le_minus_one_length(NP):
    """Length M of the slope <= -1 part (x-coordinate of its endpoint)."""
    if not NP.certified:
        raise PrecisionError(
            "Newton polygon slope <= -1 part not certified at this truncation",
            needed=2 * NP.truncation,
        )
    return _le_minus_one_endpoint(NP.vertices)[0]


def zero_count_bound(F, p, floor_val, val=None):
    """Upper bound for the number of zeros z with |z| <= |p| (i.e. v(z) >= 1)."""
    return slope_le_minus_one_length(newton_polygon(F, p, floor_val, val=val))


def lowest_valuation(F, p, val=None):
    """(least index of minimal valuation, that valuation) over the known
    coefficients; (None, INFINITY) when they all vanish."""
    p = as_prime(p)
    if val is None:
        val = lambda c: valuation(c, p)
    best_i, best_v = None, INFINITY
    for i, c in enumerate(F.coeffs):
        if c:
            v = val(c)
            if v < best_v:
                best_i, best_v = i, v
    return best_i, best_v


def min_valuation_index(F, p, floor_val, val=None):
    """Least index attaining the minimal coefficient valuation.

    Certified when the minimum over the known coefficients is <= floor_val:
    unknown tail coefficients (valuation >= floor_val, index >= T) can then
    tie but never undercut or precede it.  For an algebraic function regular
    on the disk this index equals the order of vanishing of the reduction,
    hence the number of C_p zeros on the whole residue disk.
    """
    best_i, best_v = lowest_valuation(F, p, val=val)
    if best_i is None:
        raise IndeterminatePolygonError(
            f"all known coefficients vanish to O(t^{F.truncation})",
            needed=F.truncation + 8,
        )
    if best_v > floor_val:
        raise PrecisionError(
            f"minimal valuation {best_v} exceeds the tail floor {floor_val}; "
            "a later coefficient could undercut it",
            needed=2 * F.truncation,
        )
    return best_i


def slope_transfer_check(G, DG, N, p, floor_G, floor_DG, val=None):
    """Check M(G) < kappa_p * (N + min S(D(G))) for a nice operator of order N.

    This is the slope-transfer inequality used as a fuzz oracle for the
    pipeline; it is never the reported bound itself.
    """
    p = as_prime(p)
    M = slope_le_minus_one_length(newton_polygon(G, p, floor_G, val=val))
    s = min_valuation_index(DG, p, floor_DG, val=val)
    return M < kappa(p) * (N + s)
