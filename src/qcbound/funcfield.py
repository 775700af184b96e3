"""Arithmetic in Q(x)[y]/(y^2 - f(x)), residue-disk expansions, pole ledgers.

A ``CurveFunction`` is a(x) + b(x) y in canonical form: y^2 is eliminated via
the curve equation, the rational functions a, b are gcd-reduced with monic
denominators.  The two derivations of interest are d/dx (with dy/dx =
f'(x)/(2y)) and d/omega_0 = y d/dx, which preserves polynomial functions.

Disk expansions fix one local parameter per residue-disk kind:

* affine non-Weierstrass center (x0, y0): t = x - x0, with y expanded as
  y0 * sqrt(f(x0+t)/f(x0)).  When no lift with rational y0 exists the chart
  works over Q(sqrt(d)), d = f(x0), with the p-adic embedding chosen so that
  sqrt(d) reduces to y_bar.
* affine Weierstrass center (x_w, 0): t = y, with x recovered from y^2 = f(x)
  by Newton iteration (f'(x_w) != 0 because f is squarefree).
* infinity, even model: t = 1/x on each sheet, y = +- t^-(g+1) sqrt(fr(t))
  where fr is the reversed polynomial (constant term 1 since f is monic).
* infinity, odd model: t = x^g / y, with x = t^-2 s(t) and y = t^-(2g+1) s(t)^g
  for the unique unit series s solving the curve equation.

Pole ledgers certify membership in H^0(X, O(n*infinity + m*W)).  Orders at
infinity are read off Laurent expansions (cancellation between the a and b*y
parts is possible on even models); orders along W come from the norm
a^2 - b^2 f, whose multiplicity along roots of f is computed by gcd towers,
never by factoring f.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NonUnitError, PoleError, PrecisionError
from .hyperelliptic import DiskDescriptor, _eval_mod, poly_mod, reduce_mod
from .padics import as_prime, valuation
from .polys import Poly, poly_gcd, rational_roots
from .quadext import PAdicSqrtEmbedding, QuadExt, rational_sqrt
from .series import LaurentSeries, TruncatedSeries, poly_on_series


class RationalFunc:
    """num/den with den monic and gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, reduce=True):
        num = num if isinstance(num, Poly) else Poly(num if isinstance(num, (list, tuple)) else [num])
        den = Poly([1]) if den is None else (den if isinstance(den, Poly) else Poly(den if isinstance(den, (list, tuple)) else [den]))
        if not den:
            raise ZeroDivisionError("zero denominator")
        if reduce and num:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        if not num:
            den = Poly([1])
        lead = den.leading
        if lead != 1:
            num = num * Poly([1 / lead])
            den = den.monic()
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c):
        return cls(Poly([c]))

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunc.const(other)
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = RationalFunc(other if isinstance(other, Poly) else Poly([other]))
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return RationalFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunc(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-other if isinstance(other, RationalFunc) else RationalFunc.const(-1) * other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunc(self.num * Poly([other]), self.den, reduce=False)
        if isinstance(other, Poly):
            other = RationalFunc(other)
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return RationalFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise NonUnitError("division by the zero rational function")
        return RationalFunc(self.den, self.num)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = RationalFunc(other if isinstance(other, Poly) else Poly([other]))
        return self * other.inverse()

    def derivative(self):
        return RationalFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def infinity_degree(self):
        """deg num - deg den: pole order at x = infinity on the x-line."""
        if not self.num:
            return None
        return self.num.degree - self.den.degree

    def __repr__(self):
        if self.den == Poly([1]):
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


class CurveFunction:
    """a(x) + b(x) y on a fixed hyperelliptic model, canonical form."""

    __slots__ = ("model", "a", "b")

    def __init__(self, model, a, b=None):
        self.model = model
        self.a = a if isinstance(a, RationalFunc) else RationalFunc(a if isinstance(a, Poly) else Poly([a]))
        if b is None:
            b = RationalFunc(Poly())
        self.b = b if isinstance(b, RationalFunc) else RationalFunc(b if isinstance(b, Poly) else Poly([b]))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def x(cls, model):
        return cls(model, Poly([0, 1]))

    @classmethod
    def y(cls, model):
        return cls(model, Poly(), RationalFunc(Poly([1])))

    @classmethod
    def const(cls, model, c):
        return cls(model, Poly([c]))

    @classmethod
    def x_power_over_y(cls, model, j):
        """x^j / y, the dx-quotient of the basis differential x^j dx / y."""
        return cls(model, Poly(), RationalFunc(Poly([0] * j + [1]), model.f))

    # -- structure ------------------------------------------------------------

    def _check(self, other):
        if isinstance(other, CurveFunction):
            if other.model is not self.model and other.model.f != self.model.f:
                raise DomainError("functions live on different curves")
            return other
        if isinstance(other, (int, Fraction)):
            return CurveFunction.const(self.model, other)
        if isinstance(other, (Poly, RationalFunc)):
            return CurveFunction(self.model, other if isinstance(other, RationalFunc) else RationalFunc(other))
        return None

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return CurveFunction(self.model, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return CurveFunction(self.model, -self.a, -self.b)

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CurveFunction(self.model, self.a * other, self.b * other)
        other = self._check(other)
        if other is None:
            return NotImplemented
        f = RationalFunc(self.model.f)
        # (a1 + b1 y)(a2 + b2 y) = a1 a2 + b1 b2 f + (a1 b2 + a2 b1) y
        return CurveFunction(
            self.model,
            self.a * other.a + self.b * other.b * f,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def involution(self):
        """Hyperelliptic involution y -> -y."""
        return CurveFunction(self.model, self.a, -self.b)

    def norm(self):
        """a^2 - b^2 f, the product with the involution image."""
        return self.a * self.a - self.b * self.b * RationalFunc(self.model.f)

    def inverse(self):
        if not self:
            raise NonUnitError("division by the zero function")
        n = self.norm()
        return CurveFunction(self.model, self.a / n, (-self.b) / n)

    def __truediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def d_dx(self):
        """Derivation with dy/dx = f'(x) / (2y)."""
        fp = RationalFunc(self.model.f.derivative())
        f = RationalFunc(self.model.f)
        # b * f'/(2y) = (b f' / (2f)) y
        return CurveFunction(
            self.model,
            self.a.derivative(),
            self.b.derivative() + (self.b * fp) / (f * 2),
        )

    def d_by_omega0(self):
        """y * d/dx, the derivation dual to omega_0 = dx/y; preserves polynomials."""
        fp = RationalFunc(self.model.f.derivative())
        f = RationalFunc(self.model.f)
        return CurveFunction(
            self.model,
            self.b.derivative() * f + self.b * fp / 2,
            self.a.derivative(),
        )

    def d_dy(self):
        """(2y/f') d/dx: the coordinate derivation for t = y at Weierstrass disks.

        Its divided powers (1/n!) (d/dy)^n keep p-integrality of disk
        expansions for every odd p, unlike divided d/omega_0 powers, whose
        normalizing factorials are non-units when p <= n.
        """
        return self.d_by_omega0() * RationalFunc(Poly([2]), self.model.f.derivative())

    def is_polynomial(self):
        return self.a.den.degree == 0 and self.b.den.degree == 0

    def value_mod_p(self, x_bar, y_bar, p):
        """Reduction of the value at an affine F_p point (x_bar, y_bar)."""
        p = as_prime(p)
        out = 0
        for part, ybar_factor in ((self.a, 1), (self.b, y_bar)):
            if not part:
                continue
            den = _eval_mod(poly_mod(part.den, p), x_bar, p)
            if den == 0:
                raise PoleError(f"denominator vanishes at x = {x_bar} mod {p}")
            num = _eval_mod(poly_mod(part.num, p), x_bar, p)
            out = (out + num * pow(den, -1, p) * ybar_factor) % p
        return out

    def __repr__(self):
        if not self.b:
            return f"CurveFunction({self.a!r})"
        return f"CurveFunction({self.a!r} + ({self.b!r})*y)"


# -- pole ledgers --------------------------------------------------------------


@dataclass(frozen=True)
class PoleLedger:
    """Certified claim F in H^0(X, O(n_inf * infinity + m_W * W + extra * D)).

    ``n_inf`` counts multiples of the full divisor at infinity (degree 2 for
    even models, 1 for odd); negative entries certify zeros of that order.
    """

    n_inf: int
    m_W: int
    extra: int = 0

    def within(self, n_inf, m_W, extra=0):
        return self.n_inf <= n_inf and self.m_W <= m_W and self.extra <= extra


def _mult_along_f(poly, f):
    """min and max multiplicity of roots of f inside poly (gcd towers)."""
    if not poly:
        raise DomainError("zero polynomial has no multiplicity profile")
    # max: strip one layer of common roots per round
    max_mult = 0
    q = poly
    while True:
        g = poly_gcd(q, f)
        if g.degree == 0:
            break
        max_mult += 1
        q = q.exact_div(g)
    # min: f | poly exactly min-many times (f squarefree)
    min_mult = 0
    q = poly
    while True:
        g = poly_gcd(q, f)
        if g.degree != f.degree:
            break
        min_mult += 1
        q = q.exact_div(f.monic())
    return min_mult, max_mult


def weierstrass_order_range(F):
    """(min, max) of ord_w(F) over the Weierstrass points w, via the norm.

    The involution fixes each w, so ord_w(F) equals the multiplicity of
    (x - x_w) in a^2 - b^2 f; with the norm written as coprime P/Q, at each w
    at most one of P, Q vanishes.
    """
    if not F:
        raise DomainError("zero function")
    n = F.norm()
    f = F.model.f
    min_p, max_p = _mult_along_f(n.num, f)
    min_q, max_q = _mult_along_f(n.den, f)
    min_ord = -max_q if max_q > 0 else min_p
    max_ord = max_p if max_p > 0 else -min_q
    return min_ord, max_ord


def finite_nonweierstrass_pole_degree(F):
    """Upper bound for the polar degree away from W and infinity.

    Denominator roots aligned with f are already accounted by the W order;
    every other root contributes at most its multiplicity at each of the two
    points above it.
    """
    total = 0
    for part in (F.a, F.b):
        den = part.den
        while True:
            g = poly_gcd(den, F.model.f)
            if g.degree == 0:
                break
            den = den.exact_div(g)
        total += 2 * den.degree
    return total


def infinity_pole_order(F, T=None):
    """Max of -ord(F) over the infinite places (per-point, signed)."""
    if not F:
        raise DomainError("zero function")
    degs = [r.num.degree + r.den.degree for r in (F.a, F.b) if r]
    T = T or 2 * (max(degs) + F.model.genus + 2) + 6
    for attempt in range(4):
        worst = None
        try:
            for label in F.model.infinite_points():
                chart = infinite_chart(F.model, label, T)
                pole = -chart.laurent(F).t_order()
                worst = pole if worst is None else max(worst, pole)
            return worst
        except PrecisionError:
            T *= 2
    raise PrecisionError(f"could not resolve the order at infinity below T = {T}")


def ledger_of(F):
    """Exact pole ledger of F: orders at infinity by expansion, at W by norms.

    Entries are signed: positive for poles, negative for certified zeros on
    the whole divisor.
    """
    if not F:
        return PoleLedger(0, 0)
    min_ord, _ = weierstrass_order_range(F)
    return PoleLedger(infinity_pole_order(F), -min_ord)


def ledger_derivative(ledger, model_kind):
    """Ledger for d/dx of a function with the given ledger.

    Even model (div dx = W - 2*infinity): (n, m>0) -> (n-1, m+2) and
    (n, 0) -> (n-1, 1).  Odd model (div dx = W - 3*infinity): the infinity
    part drops by 2 instead.  Negative W entries are clamped to the m = 0
    case, which stays sound.
    """
    m = max(ledger.m_W, 0)
    new_m = m + 2 if m > 0 else 1
    if model_kind == "even":
        return PoleLedger(ledger.n_inf - 1, new_m, ledger.extra)
    return PoleLedger(ledger.n_inf - 2, new_m, ledger.extra)


def ledger_general_derivative(j, deg_W=None, deg_W0=None, deg_D=None, deg_D0=None):
    """Divisor bookkeeping for the j-th derivative in the general setting.

    For F in H^0(X, O(D)) and dx with zero divisor W (reduced form W_0; D_0
    the reduced form of D), the j-th derivative lies in
    H^0(X, O(jW + (j-1)W_0 + D + jD_0)), and in the coarser corollary form
    H^0(X, O((2j-1)W + (j+1)D)).  Returns the multiplier record, plus total
    degrees when the divisor degrees are supplied.
    """
    if j <= 0:
        record = {"W": 0, "W0": 0, "D": 1, "D0": 0, "corollary_W": 0, "corollary_D": 1}
    else:
        record = {
            "W": j,
            "W0": j - 1,
            "D": 1,
            "D0": j,
            "corollary_W": 2 * j - 1,
            "corollary_D": j + 1,
        }
    if None not in (deg_W, deg_W0, deg_D, deg_D0):
        record["degree"] = record["W"] * deg_W + record["W0"] * deg_W0 + record["D"] * deg_D + record["D0"] * deg_D0
        record["corollary_degree"] = record["corollary_W"] * deg_W + record["corollary_D"] * deg_D
    return record


# -- disk charts ---------------------------------------------------------------


class DiskChart:
    """A residue disk with its designated local parameter and expansion data.

    Holds Laurent expansions of x and y in the parameter t to relative
    precision T, the valuation map for the coefficient field (an embedding
    valuation for quadratic lifts), and a cache of powers of x(t).
    """

    def __init__(self, model, disk, T, x_laurent, y_laurent, p=None, embedding=None, center=None, description=""):
        self.model = model
        self.disk = disk
        self.T = T
        self.x = x_laurent
        self.y = y_laurent
        self.p = p
        self.embedding = embedding
        self.center = center
        self.description = description
        self._x_powers = {0: LaurentSeries(0, TruncatedSeries.from_polynomial([1], T)), 1: x_laurent}
        self.dx_dt = x_laurent.derivative()

    def valuation_of(self, c):
        if self.embedding is not None:
            return self.embedding.valuation(c)
        if self.p is None:
            raise DomainError("chart carries no prime; valuations unavailable")
        return valuation(c, self.p)

    def reduce_of(self, c):
        """Reduction of a p-integral coefficient mod p (through the embedding)."""
        if self.p is None:
            raise DomainError("chart carries no prime; reductions unavailable")
        if isinstance(c, QuadExt):
            if self.embedding is None:
                raise DomainError("quadratic coefficient on a rational chart")
            root = self.embedding.root_mod(1)
            return (reduce_mod(c.u, self.p) + reduce_mod(c.v, self.p) * root) % self.p
        return reduce_mod(c, self.p)

    def x_power(self, k):
        cached = self._x_powers.get(k)
        if cached is None:
            cached = self.x_power(k - 1) * self.x
            self._x_powers[k] = cached
        return cached

    def eval_poly(self, poly):
        acc = None
        for k, c in enumerate(poly.coeffs):
            if not c:
                continue
            term = self.x_power(k).scale(c)
            acc = term if acc is None else acc + term
        if acc is None:
            return LaurentSeries(0, TruncatedSeries.zero(self.T))
        return acc

    def eval_rational(self, r):
        if not r.num:
            return LaurentSeries(0, TruncatedSeries.zero(self.T))
        num = self.eval_poly(r.num)
        if r.den.degree == 0:
            return num
        return num / self.eval_poly(r.den)

    def laurent(self, F):
        """Laurent expansion of a CurveFunction in the local parameter."""
        out = self.eval_rational(F.a)
        if F.b:
            out = out + self.eval_rational(F.b) * self.y
        return out

    def expand(self, F):
        """Regular expansion; PoleError if F has a pole on the disk."""
        return self.laurent(F).regular_part(context=f"disk {self.disk}")


def _centered_lift(x_bar, p):
    x_bar %= p
    return x_bar if x_bar <= p // 2 else x_bar - p


def nonweierstrass_chart(model, disk, p, T, lift_scan=3):
    """Chart at an affine non-Weierstrass disk.

    Scans a few lifts x0 of x_bar looking for f(x0) an exact rational square
    (a Q-rational center); otherwise works over Q(sqrt(f(x0))) with the
    embedding picked so that sqrt reduces to y_bar.
    """
    p = as_prime(p)
    if disk.kind != "affine_nonweierstrass":
        raise DomainError(f"not a non-Weierstrass disk: {disk}")
    base = _centered_lift(disk.x_bar, p)
    chosen = None
    for k in range(lift_scan + 1):
        for sgn in ((0,) if k == 0 else (1, -1)):
            x0 = Fraction(base + sgn * k * p)
            d = model.f(x0)
            if not d:
                continue
            r = rational_sqrt(d)
            if r is not None and valuation(d, p) == 0:
                y0 = r if reduce_mod(r, p) == disk.y_bar % p else -r
                if reduce_mod(y0, p) != disk.y_bar % p:
                    continue
                chosen = (x0, y0, None)
                break
        if chosen:
            break
    embedding = None
    if chosen is None:
        x0 = Fraction(base)
        d = model.f(x0)
        if valuation(d, p) != 0:
            raise DomainError(f"f({x0}) is not a p-unit; disk center data inconsistent")
        embedding = PAdicSqrtEmbedding(d, p, root_mod_p=disk.y_bar)
        y0 = QuadExt(0, 1, d)
        chosen = (x0, y0, embedding)
    x0, y0, embedding = chosen
    d = model.f(x0)
    # y(t) = y0 * sqrt(f(x0 + t)/d); the inner series has constant term 1
    shifted = model.f.compose_shift(x0)
    unit = TruncatedSeries.from_polynomial([c / d for c in shifted.coeffs], T).sqrt_unit()
    y_series = unit.scale(y0)
    x_laurent = LaurentSeries(0, TruncatedSeries.from_polynomial([x0, 1], T))
    return DiskChart(
        model, disk, T, x_laurent, LaurentSeries(0, y_series),
        p=p, embedding=embedding, center=(x0, y0),
        description=f"t = x - {x0}" + (" over Q(sqrt(%s))" % d if embedding else ""),
    )


def weierstrass_chart(model, disk, p, T):
    """Chart at an affine Weierstrass disk: t = y, x by Newton iteration.

    Requires a rational Weierstrass center x_w with f(x_w) = 0 reducing to
    x_bar; quadratic or higher centers are reported as unsupported.
    """
    p = as_prime(p)
    if disk.kind != "affine_weierstrass":
        raise DomainError(f"not a Weierstrass disk: {disk}")
    candidates = [r for r in rational_roots(model.f)
                  if valuation(r, p) >= 0 and reduce_mod(r, p) == disk.x_bar % p]
    if not candidates:
        raise DomainError(
            f"no rational Weierstrass center above x = {disk.x_bar} mod {p}; "
            "irrational Weierstrass lifts are unsupported"
        )
    x_w = candidates[0]
    fprime = model.f.derivative()
    t2 = TruncatedSeries.from_polynomial([0, 0, 1], T)
    x_series = TruncatedSeries.from_polynomial([x_w], T)
    # Newton for f(x(t)) = t^2; error order doubles each pass
    order = 1
    while order < T:
        fx = poly_on_series(model.f.coeffs, x_series)
        fpx = poly_on_series(fprime.coeffs, x_series)
        x_series = x_series - (fx - t2) * fpx.inverse()
        order *= 2
    y_laurent = LaurentSeries(0, TruncatedSeries.from_polynomial([0, 1], T))
    return DiskChart(
        model, disk, T, LaurentSeries(0, x_series), y_laurent,
        p=p, center=(x_w, Fraction(0)), description=f"t = y at x_w = {x_w}",
    )


def infinite_chart(model, label, T, p=None):
    """Chart at an infinite disk; p is optional (needed only for valuations)."""
    if label not in model.infinite_points():
        raise DomainError(f"unknown infinite place {label!r} for this model")
    g = model.genus
    if model.kind == "even":
        sign = 1 if label == "inf+" else -1
        # t = 1/x; y = sign * t^-(g+1) sqrt(reversed f), constant term 1
        fr = model.f.reversed_coeffs()
        unit = TruncatedSeries.from_polynomial(fr.coeffs, T).sqrt_unit()
        x_laurent = LaurentSeries(-1, TruncatedSeries.from_polynomial([1], T))
        y_laurent = LaurentSeries(-(g + 1), unit.scale(sign))
        desc = f"t = 1/x on sheet {label}"
    else:
        # t = x^g / y: x = t^-2 s(t), y = t^-(2g+1) s(t)^g with s a unit series
        s = TruncatedSeries.from_polynomial([1], T)
        coeffs = model.f.coeffs
        deg = model.f.degree
        known = 0
        top = deg - 1 - next(k for k, c in enumerate(coeffs) if c)   # highest power of 1/s in use
        while known < T:
            inv_s = s.inverse()
            acc = TruncatedSeries.from_polynomial([1], T)
            inv_powers = [acc]      # inv_powers[e] = inv_s^e, each from the one before
            for _ in range(top):
                inv_powers.append(inv_powers[-1] * inv_s)
            for k in range(deg):
                c = coeffs[k]
                if not c:
                    continue
                term = inv_powers[deg - 1 - k]
                shift = TruncatedSeries.from_polynomial([0] * (2 * (deg - k)) + [1], T)
                acc = acc - (term * shift).truncate(T).scale(c)
                acc = acc.truncate(T)
            s_new = acc
            if s_new == s:
                break
            s = s_new
            known += 2
        x_laurent = LaurentSeries(-2, s)
        y_laurent = LaurentSeries(-(2 * g + 1), poly_on_series([0] * g + [1], s))
        desc = "t = x^g/y at infinity"
    disk = DiskDescriptor("infinite", label=label)
    return DiskChart(model, disk, T, x_laurent, y_laurent, p=p, description=desc)


def chart_for(model, disk, p, T):
    """Dispatch a chart construction on the disk kind."""
    if disk.kind == "affine_nonweierstrass":
        return nonweierstrass_chart(model, disk, p, T)
    if disk.kind == "affine_weierstrass":
        return weierstrass_chart(model, disk, p, T)
    if disk.kind == "infinite":
        return infinite_chart(model, disk.label, T, p=p)
    raise DomainError(f"unknown disk kind {disk.kind!r}")


def default_truncation(genus):
    """4g^2 + 10g + 16: clears every operator order plus degree bound at desk scale."""
    return 4 * genus * genus + 10 * genus + 16
