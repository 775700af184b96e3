"""Truncated formal power series, Newton polygons, and certified zero counts.

A ``TruncatedSeries`` stores exact coefficients c_0 .. c_{T-1} and means "the
series is known modulo t^T".  Arithmetic tracks precision: sums and products
hold the minimum of the operand truncations, differentiation loses one order,
formal integration gains one.  Coefficients read through ``coeffs`` are
``Fraction`` (an ``int`` is read as one) or ``quadext.QuadExt``, whose
sqrt(d) part is never zero; valuation-dependent operations take a valuation
callable for that reason.

A series whose coefficients are all rational keeps them as integer
numerators over one positive denominator it owns, in least terms, with no
list at all for a known zero.  Its sums, products (one ``polys.convolve``),
scales, derivatives, divided derivatives, antiderivatives, inverse, square
root, strip, shift and linear combinations (``combination``) run on those
integers, and ``coeffs`` builds the Fractions once, when first read.  An
inverse runs the recurrence 1/S = sum_m W_m t^m / S_0^(m+1), W_0 = 1,
W_m = -sum_k S_k S_0^(k-1) W_(m-k), on the numerators S.  Least terms make
the form canonical, so equal rational series have equal numerators.

A series with a ``QuadExt`` coefficient keeps its coefficient tuple.  A
product with one writes each factor over its least common denominator as two
integer lists, rational and sqrt(d) parts, and takes one ``convolve`` per
integer product: (u + v sqrt d)(u' + v' sqrt d) = (uu' + d vv') +
(uv' + vu') sqrt d takes three.  Over Q(sqrt d), 1/s = conj(s) /
(s conj(s)), where s conj(s) is rational.  A result whose sqrt(d) parts all
cancel is rational and takes the integer form, so a coefficient is a
``Fraction`` exactly when it is rational; no caller picks a form.

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
from .polys import common_denominator, convolve
from .quadext import QuadExt

_ZERO = Fraction(0)


class TruncatedSeries:
    """Finite-precision formal power series; immutable.

    A rational series is ``_ints[i] / _den`` for i < truncation, with
    ``_ints`` None for a known zero; ``_coeffs`` caches its Fractions once
    read.  A series with a ``QuadExt`` coefficient has ``_den`` None and
    its coefficients in ``_coeffs``.
    """

    __slots__ = ("truncation", "_den", "_ints", "_coeffs")

    def __init__(self, coeffs):
        coeffs = tuple(c if isinstance(c, (Fraction, QuadExt)) else Fraction(c) for c in coeffs)
        self.truncation, self._coeffs = len(coeffs), coeffs
        if any(isinstance(c, QuadExt) for c in coeffs):
            self._den = self._ints = None
        else:
            den, ints = common_denominator(coeffs)
            self._den, self._ints = den, ints if any(ints) else None

    @classmethod
    def from_polynomial(cls, coeffs, truncation):
        """Series of a polynomial, padded with exact zeros up to truncation."""
        coeffs = list(coeffs)[:truncation]
        return cls(coeffs + [_ZERO] * (truncation - len(coeffs)))

    @classmethod
    def zero(cls, truncation):
        return _integer(1, None, truncation)

    @classmethod
    def one(cls, truncation):
        return cls.from_polynomial([1], truncation)

    # -- structure ------------------------------------------------------------

    @property
    def coeffs(self):
        if self._coeffs is None:
            den, ints = self._den, self._ints
            if ints is None:
                self._coeffs = (_ZERO,) * self.truncation
            elif den == 1:
                self._coeffs = tuple(map(Fraction, ints))
            else:
                self._coeffs = tuple(Fraction(c, den) for c in ints)
        return self._coeffs

    def coefficient(self, i):
        """c_i; raises PrecisionError when i is beyond the truncation order."""
        if i < 0:
            raise IndexError("negative coefficient index")
        if i >= self.truncation:
            raise PrecisionError(
                f"coefficient {i} not known at truncation {self.truncation}",
                needed=i + 1,
            )
        return self.coeffs[i]

    def is_known_zero(self):
        # a QuadExt coefficient is never zero
        return self._den is not None and self._ints is None

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self._den is not None and other._den is not None:
            return (self.truncation, self._den, self._ints) == (other.truncation, other._den, other._ints)
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
        return self.shifted(0, n) == other.shifted(0, n)

    def _lead(self):
        """Index of the first nonzero coefficient; the truncation when none is."""
        coeffs = self._ints if self._den is not None else self._coeffs
        if coeffs is None:
            return self.truncation
        return next((i for i, c in enumerate(coeffs) if c), self.truncation)

    def stripped(self):
        """(j, s) with self = t^j s and s without the j leading known-zero
        coefficients; a known zero strips to a series of no coefficients."""
        j = self._lead()
        return j, self.shifted(-j, self.truncation - j)

    def shifted(self, k, n):
        """t^k times the series, cut to n coefficients; a negative k drops the
        first -k coefficients."""
        end = max(min(k + self.truncation, n), 0)
        if not k and end == self.truncation:
            return self
        start = max(-k, 0)
        if self._den is None:
            return TruncatedSeries(((_ZERO,) * k + self._coeffs[start:])[:end])
        ints = self._ints
        if ints is None:
            return _raw(1, None, end)
        # a dropped nonzero coefficient may take a common factor with it
        dropped = end < k + self.truncation or any(ints[:start])
        ints = ([0] * k + ints[start:])[:end]
        return _integer(self._den, ints, end) if dropped else _raw(self._den, ints, end)

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.truncation, other.truncation)
        if self._den is None or other._den is None:
            return TruncatedSeries(map(add, self.coeffs[:n], other.coeffs[:n]))
        if other._ints is None:
            return self.shifted(0, n)
        if self._ints is None:
            return other.shifted(0, n)
        if self._den == other._den:
            return _integer(self._den, list(map(add, self._ints, other._ints)), n)
        den = lcm(self._den, other._den)
        ra, rb = den // self._den, den // other._den
        return _integer(den, [ra * a + rb * b for a, b in zip(self._ints, other._ints)], n)

    def __neg__(self):
        if self._den is None:
            return TruncatedSeries([-c for c in self._coeffs])
        return _raw(self._den, None if self._ints is None else [-c for c in self._ints], self.truncation)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + -other

    def __mul__(self, other):
        """The product.  A constant factor (no nonzero coefficient past index
        0) scales the other one instead, and a factor exactly 1 (V =
        1/(dx/dt) on a chart t = x - x0) returns the other, cut to length."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.truncation, other.truncation)
        for const, rest in ((self, other), (other, self)):
            c = const._constant(n)
            if c is not None:
                rest = rest.shifted(0, n)
                return rest if c == 1 else rest.scale(c)
        if self._den is None or other._den is None:
            return _quadratic_product(self, other, n)
        return _integer(self._den * other._den, convolve(self._ints, other._ints, n), n)

    def _constant(self, n):
        """c_0 when no coefficient below index n past c_0 is nonzero; 0 for a
        known zero."""
        if self.is_known_zero():
            return _ZERO
        if not n:
            return None
        if self._den is None:
            c = self._coeffs
            return None if any(c[1:n]) else c[0]
        ints = self._ints
        return None if any(ints[1:n]) else Fraction(ints[0], self._den)

    def scale(self, c):
        """Scalar multiple; c may be int, Fraction, or a QuadExt element."""
        if self._den is None or isinstance(c, QuadExt):
            return TruncatedSeries([c * x for x in self.coeffs])
        if self._ints is None:
            return self
        num = c.numerator
        return _integer(self._den * c.denominator, [num * x for x in self._ints], self.truncation)

    def derivative(self):
        if self.truncation < 1:
            raise PrecisionError("cannot differentiate a precision-0 series", needed=2)
        return self._times_exponents(0).shifted(-1, self.truncation - 1)

    def _times_exponents(self, order):
        """sum (order + i) c_i t^i: the t-derivative of t^order times the
        series, divided by t^(order - 1)."""
        if self._den is None:
            return TruncatedSeries([(order + i) * c for i, c in enumerate(self._coeffs)])
        ints = self._ints
        return _integer(self._den, None if ints is None else [(order + i) * c for i, c in enumerate(ints)],
                        self.truncation)

    def divided_derivative(self, k):
        """(1/k!) (d/dt)^k of the series: coefficients C(j, k) c_j for j >= k,
        known to truncation - k.  Past the truncation it raises as the k-th
        derivative does."""
        if k > self.truncation:
            raise PrecisionError("cannot differentiate a precision-0 series", needed=2)
        n = self.truncation - k
        if self._den is None:
            return TruncatedSeries([comb(j, k) * c for j, c in enumerate(self._coeffs[k:], k)])
        ints = self._ints
        return _integer(self._den, None if ints is None else [comb(j, k) * c for j, c in enumerate(ints[k:], k)],
                        n)

    def antiderivative(self, constant=0):
        """The series with derivative self and constant term ``constant``.

        A rational one is written over lcm(den * lcm(1..T), the constant's
        denominator) and then put in least terms."""
        if self._den is None or isinstance(constant, QuadExt):
            head = [constant if isinstance(constant, (Fraction, QuadExt)) else Fraction(constant)]
            return TruncatedSeries(head + [c / (i + 1) for i, c in enumerate(self.coeffs)])
        n = self.truncation
        m = lcm(*range(1, n + 1))
        cden = constant.denominator
        den = lcm(self._den * m, cden)
        head = constant.numerator * (den // cden)
        if self._ints is None:
            return _integer(den, [head] + [0] * n, n + 1)
        r = den // (self._den * m)
        return _integer(den, [head] + [c * (r * (m // k)) for k, c in enumerate(self._ints, 1)], n + 1)

    def inverse(self):
        """Multiplicative inverse; requires a nonzero constant term.

        With s = S/L in integers, 1/S has coefficients W_m / S_0^(m+1), where
        W_0 = 1 and W_m = -sum_(k=1..m) S_k S_0^(k-1) W_(m-k); the result is
        put over S_0^T.  Over Q(sqrt d) it is conj(s) / (s conj(s)): s
        conj(s) is rational, so both products run on the kernel.
        """
        n = self.truncation
        if not n:
            raise PrecisionError("cannot invert a precision-0 series", needed=1)
        if not (self._coeffs[0] if self._den is None else self._ints and self._ints[0]):
            raise NonUnitError("series with zero constant term is not invertible")
        if self._den is None:
            conj = TruncatedSeries([c.conjugate() if isinstance(c, QuadExt) else c for c in self._coeffs])
            return conj * (self * conj).inverse()
        ints = self._ints
        s0 = ints[0]
        scaled, power = [0], 1
        for c in ints[1:]:
            scaled.append(c * power)
            power *= s0
        w = [1]
        for m in range(1, n):
            w.append(-sum(map(mul, scaled[1:m + 1], reversed(w))))
        # W_m / S_0^(m+1) = W_m S_0^(n-1-m) / S_0^n, times L
        out, power, L = [0] * n, 1, self._den
        for m in range(n - 1, -1, -1):
            out[m] = L * w[m] * power
            power *= s0
        if power < 0:
            power, out = -power, [-c for c in out]
        return _integer(power, out, n)

    def sqrt_unit(self):
        """Square root u of a rational series s with constant term exactly 1.

        With s = S/L in integers (L the least common denominator, so S_0 = L),
        u_n = U_n / (2^(2n-1) L^n) = U_n / (2L (4L)^(n-1)), where U_1 = S_1
        and U_n = (4L)^(n-1) S_n - sum_(k=1..n-1) U_k U_(n-k); the result is
        put over 2L (4L)^(T-2).
        """
        if self._den is None:
            raise DomainError("sqrt_unit needs rational coefficients")
        L, S, n = self._den, self._ints, self.truncation
        if S is None or S[0] != L:
            raise NonUnitError("sqrt_unit requires constant term 1")
        if n == 1:
            return self
        U, scale = [None], 1
        for k in range(1, n):
            U.append(scale * S[k] - sum(map(mul, U[1:k], U[k - 1:0:-1])))
            scale *= 4 * L
        out, power = [0] * n, 1
        for k in range(n - 1, 0, -1):
            out[k] = U[k] * power
            power *= 4 * L
        # power is now (4L)^(n-1), twice 2L (4L)^(n-2)
        out[0] = den = power // 2
        return _integer(den, out, n)

    def __repr__(self):
        shown = []
        for i, c in enumerate(self.coeffs[:6]):
            if c:
                shown.append(f"{c}*t^{i}" if i else f"{c}")
        body = " + ".join(shown) if shown else "0"
        return f"TruncatedSeries({body} + O(t^{self.truncation}))"


def _raw(den, ints, n):
    """The rational series ints/den known to n coefficients, as given: den
    positive, ints None or a list with a nonzero entry, in least terms."""
    s = TruncatedSeries.__new__(TruncatedSeries)
    s.truncation, s._den, s._ints, s._coeffs = n, den, ints, None
    return s


def _integer(den, ints, n):
    """The rational series ints/den known to n coefficients, put in least terms."""
    if ints is None or not any(ints):
        return _raw(1, None, n)
    g = gcd(den, *ints)
    if g != 1:
        den, ints = den // g, [c // g for c in ints]
    return _raw(den, ints, n)


def combination(terms):
    """sum c * s over the (c, s) pairs, for rational c, known to the least
    truncation of the s.

    Rational series are summed over the lcm of the c.denominator * den, each
    term one integer multiple of its numerators; a series over Q(sqrt d)
    takes a chain of scales and sums.
    """
    n = min(s.truncation for _, s in terms)
    if any(s._den is None for _, s in terms):
        out = None
        for c, s in terms:
            term = s if c == 1 else s.scale(c)
            out = term if out is None else out + term
        return out
    live = [(c, s) for c, s in terms if c and s._ints is not None]
    if not live:
        return _raw(1, None, n)
    den = lcm(*(c.denominator * s._den for c, s in live))
    acc = [0] * n
    for c, s in live:
        w = c.numerator * (den // (c.denominator * s._den))
        acc = list(map(add, acc, map(w.__mul__, s._ints)))
    return _integer(den, acc, n)


def _quadratic_product(a, b, n):
    """First n coefficients of a product with a factor over Q(sqrt d).

    Every ``QuadExt`` coefficient must lie in one field Q(sqrt d), and the
    product takes three integer products (two when one factor is rational).
    Each coefficient k is built as a ``QuadExt``, which is a ``Fraction`` when
    its sqrt(d) part is zero; when every one is, the product is rational.
    """
    fields = {c.d for s in (a, b) if s._den is None for c in s._coeffs[:n] if isinstance(c, QuadExt)}
    if len(fields) > 1:
        raise DomainError("product of series over distinct quadratic extensions")
    la, ua, va = _split(a, n)
    lb, ub, vb = _split(b, n)
    den = u_den = la * lb
    uu = convolve(ua, ub, n)
    if any(va) and any(vb):
        d = fields.pop()
        vv = convolve(va, vb, n)
        # Karatsuba: u_a v_b + v_a u_b = (u_a + v_a)(u_b + v_b) - u_a u_b - v_a v_b
        mixed = convolve(list(map(add, ua, va)), list(map(add, ub, vb)), n)
        uv = [m - x - y for m, x, y in zip(mixed, uu, vv)]
        uu = [d.denominator * x + d.numerator * y for x, y in zip(uu, vv)]
        u_den *= d.denominator
    elif any(va) or any(vb):
        d = fields.pop()
        uv = convolve(va, ub, n) if any(va) else convolve(ua, vb, n)
    else:
        return _integer(den, uu, n)
    if not any(uv):
        return _integer(u_den, uu, n)
    return TruncatedSeries([QuadExt(Fraction(x, u_den), Fraction(y, den), d) for x, y in zip(uu, uv)])


def _split(s, n):
    """(L, u, v) with c_i = (u[i] + v[i] sqrt d) / L in integers, for i < n."""
    if s._den is not None:
        return s._den, [0] * n if s._ints is None else s._ints[:n], [0] * n
    parts = [(c.u, c.v) if isinstance(c, QuadExt) else (c, 0) for c in s._coeffs[:n]]
    den, ints = common_denominator([u for u, _ in parts] + [v for _, v in parts])
    return den, ints[:n], ints[n:]


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
        j, s = self.series.stripped()
        return LaurentSeries(self.order + j, s) if j else self

    def t_order(self):
        """Exponent of the first nonzero coefficient (exact order when known)."""
        norm = self.normalized()
        if not norm.series.truncation:
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
        return LaurentSeries(o, self.series.shifted(self.order - o, n) + other.series.shifted(other.order - o, n))

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
        if not norm.series.truncation:
            raise PrecisionError(
                f"cannot invert: zero to O(t^{self.end})", needed=self.series.truncation + 8
            )
        return LaurentSeries(-norm.order, norm.series.inverse())

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            other = LaurentSeries.from_series(other)
        return self * other.inverse()

    def derivative(self):
        return LaurentSeries(self.order - 1, self.series._times_exponents(self.order))

    def regular_part(self, context=""):
        """As a TruncatedSeries; PoleError when a known negative exponent survives."""
        s, o = self.series, self.order
        if o < 0:
            k = s._lead()
            if k < min(-o, s.truncation):
                raise PoleError(
                    f"pole of order {-(o + k)}{' on ' + context if context else ''}"
                )
            if s.truncation <= -o:
                raise PrecisionError("no regular coefficients known", needed=-o + 1)
        return s.shifted(o, o + s.truncation)

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
