"""Arithmetic in Q(x)[y]/(y^2 - f(x)), residue-disk expansions, pole ledgers.

A ``CurveFunction`` is stored over a power of f: (A(x) + B(x) y) / (f^k E(x))
with A, B polynomials, k >= 0 and E monic and coprime to f.  E = 1 for every
function built from polynomials, the basis x^j/y and f-power quotients, the
shape of Kedlaya's reduction of B(x) y / f^k dx.  Sums, products and the two
derivations of interest, d/dx (with dy/dx = f'(x)/(2y)) and d/omega_0 =
y d/dx, have closed forms in this shape and run no gcd.  Only ``inverse`` and
an input whose denominator is not a power of f make E != 1; there the factors
of the denominator shared with f move into the f-power, and a derivation
takes one gcd(E, E') so that E grows by its radical, not by E.

Reduction happens once per function, on demand: ``a`` and ``b`` give the
reduced view a(x) + b(x) y, each part a gcd-reduced ``RationalFunc`` with a
monic denominator.  Printing, equality, hashing, values mod p and disk
expansions read the view, so they depend on the function and not on how it
was built.

Disk expansions fix one local parameter per residue-disk kind:

* affine non-Weierstrass center (x0, y0): t = x - x0, with y expanded as
  y0 * sqrt(f(x0+t)/f(x0)).  When no lift with rational y0 exists the chart
  works over Q(sqrt(d)), d = f(x0), with the p-adic embedding chosen so that
  sqrt(d) reduces to y_bar.
* affine Weierstrass center (x_w, 0): t = y, with x(t) the root of
  f(x) = t^2 at x_w (simple, as f'(x_w) != 0 for the squarefree f).
* infinity, even model: t = 1/x on each sheet, y = +- t^-(g+1) sqrt(fr(t))
  where fr is the reversed polynomial (constant term 1 since f is monic).
* infinity, odd model: t = x^g / y, with x = t^-2 s(t) and y = t^-1 x^g for
  the unique unit series s solving the curve equation f(x) = t^-2 x^(2g).

A polynomial is evaluated at a chart series in one way, as one
``series.combination`` over the table of powers of x(t), each power stored
once as an order and a series stripped of leading zeros; the two
coordinates that y^2 = f(x) defines only implicitly come from one Newton
solver on that table.

Pole ledgers certify membership in H^0(X, O(n*infinity + m*W)).  Both orders
are read from the f-power form: at infinity from the degrees of A, B, f^k and
E, along W from how many times f divides A and B.  Neither needs an expansion
or a factorisation of f.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NonUnitError, PoleError
from .hyperelliptic import DiskDescriptor, poly_mod, value_mod
from .padics import as_prime, reduce_mod, valuation
from .polys import Poly, poly_gcd, primitive_int, rational_roots
from .quadext import PAdicSqrtEmbedding, QuadExt, rational_sqrt
from .series import LaurentSeries, TruncatedSeries, combination

_ONE = Poly([1])
_HALF = Fraction(1, 2)


class RationalFunc:
    """num/den with den monic and gcd(num, den) = 1: the reduced form of one
    part of a CurveFunction, and an input type for its constructor."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = num if isinstance(num, Poly) else Poly(num if isinstance(num, (list, tuple)) else [num])
        den = Poly([1]) if den is None else (den if isinstance(den, Poly) else Poly(den if isinstance(den, (list, tuple)) else [den]))
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num and den.degree > 0:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        if not num:
            den = Poly([1])
        lead = den.leading
        if lead != 1:
            num = _scaled(num, 1 / lead)
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

    def __repr__(self):
        if self.den == Poly([1]):
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def _scaled(P, c):
    """c * P for a rational c."""
    return Poly([c * x for x in P.coeffs])


def _taylor_mod(P, x_bar, p, n):
    """The first n coefficients of P(x_bar + t) mod p, P p-integral."""
    out = []
    for c in reversed(poly_mod(P, p)):
        # out <- out * (t + x_bar) + c
        out = [(x_bar * u + v) % p for u, v in zip(out + [0], [0] + out)]
        out[0] = (out[0] + c) % p
    return (out + [0] * n)[:n]


def _times(P, Q):
    """P * Q, without the product kernel when Q is a constant (E = 1 mostly)."""
    if Q.degree == 0:
        return P if Q.coeffs[0] == 1 else _scaled(P, Q.coeffs[0])
    return P * Q


def _f_power(f, k):
    out = _ONE
    for _ in range(k):
        out = out * f
    return out


def _over_f_power(num, den, f):
    """(N, k, E) with num/den = N/(f^k E), E monic and coprime to f.

    Each round takes g = gcd(E, f), the factors of f still in E, out of E and
    multiplies N by the cofactor f/g, so that g becomes one whole f.
    """
    N, E, k = _scaled(num, 1 / den.leading), den.monic(), 0
    while E.degree > 0:
        g = poly_gcd(E, f)
        if g.degree == 0:
            break
        E = E.exact_div(g)
        if g.degree < f.degree:
            N = N * f.exact_div(g)
        k += 1
    return N, k, E


def _as_rational(c):
    if isinstance(c, RationalFunc):
        return c
    return RationalFunc(c if isinstance(c, Poly) else Poly([c]))


class CurveFunction:
    """(A(x) + B(x) y) / (f^k E(x)) on a fixed hyperelliptic model.

    A, B are polynomials, k >= 0 and E is monic and coprime to f.  The form is
    not unique (f may still divide A and B, E may share factors with both):
    the operations only keep it exact, and ``a``, ``b`` give the canonical
    reduced view (see the module docstring).
    """

    __slots__ = ("model", "A", "B", "k", "E", "_view")

    def __init__(self, model, a, b=None):
        """a(x) + b(x) y for a, b each a rational, a Poly or a RationalFunc."""
        a, b = _as_rational(a), _as_rational(Poly() if b is None else b)
        if a.den.degree == 0 and b.den.degree == 0:
            F = CurveFunction._make(model, a.num, b.num, 0, _ONE)
        else:
            Na, ka, Ea = _over_f_power(a.num, a.den, model.f)
            Nb, kb, Eb = _over_f_power(b.num, b.den, model.f)
            F = CurveFunction._make(model, Na, Poly(), ka, Ea) + CurveFunction._make(model, Poly(), Nb, kb, Eb)
        self.model, self.A, self.B, self.k, self.E = model, F.A, F.B, F.k, F.E
        self._view = (a, b)

    @classmethod
    def _make(cls, model, A, B, k, E):
        F = cls.__new__(cls)
        F.model, F.A, F.B, F.k, F.E, F._view = model, A, B, k, E, None
        return F

    # -- constructors ---------------------------------------------------------

    @classmethod
    def x(cls, model):
        return cls(model, Poly([0, 1]))

    @classmethod
    def y(cls, model):
        return cls(model, Poly(), Poly([1]))

    @classmethod
    def const(cls, model, c):
        return cls(model, Poly([c]))

    @classmethod
    def x_power_over_y(cls, model, j):
        """x^j / y = x^j y / f, the dx-quotient of the basis differential x^j dx / y."""
        return cls._make(model, Poly(), Poly.x_power(j), 1, _ONE)

    # -- the reduced view -----------------------------------------------------

    def view(self):
        """(a, b), the reduced parts of a(x) + b(x) y; computed once."""
        if self._view is None:
            den = _times(_f_power(self.model.f, self.k), self.E)
            self._view = (RationalFunc(self.A, den), RationalFunc(self.B, den))
        return self._view

    @property
    def a(self):
        return self.view()[0]

    @property
    def b(self):
        return self.view()[1]

    # -- structure ------------------------------------------------------------

    def _check(self, other):
        if isinstance(other, CurveFunction):
            if other.model is not self.model and other.model.f != self.model.f:
                raise DomainError("functions live on different curves")
            return other
        if isinstance(other, (int, Fraction, Poly, RationalFunc)):
            return CurveFunction(self.model, other)
        return None

    def __bool__(self):
        return bool(self.A) or bool(self.B)

    def __eq__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self.view() == other.view()

    def __hash__(self):
        return hash(self.view())

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        f = self.model.f
        k = max(self.k, other.k)
        m1, m2 = _f_power(f, k - self.k), _f_power(f, k - other.k)
        if self.E == other.E:
            E = self.E
        else:
            E = _times(self.E, other.E)
            m1, m2 = _times(m1, other.E), _times(m2, self.E)
        return CurveFunction._make(
            self.model,
            _times(self.A, m1) + _times(other.A, m2),
            _times(self.B, m1) + _times(other.B, m2),
            k, E,
        )

    __radd__ = __add__

    def __neg__(self):
        return CurveFunction._make(self.model, -self.A, -self.B, self.k, self.E)

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CurveFunction._make(self.model, _scaled(self.A, other), _scaled(self.B, other), self.k, self.E)
        other = self._check(other)
        if other is None:
            return NotImplemented
        # (A1 + B1 y)(A2 + B2 y) = A1 A2 + B1 B2 f + (A1 B2 + A2 B1) y
        return CurveFunction._make(
            self.model,
            self.A * other.A + self.B * other.B * self.model.f,
            self.A * other.B + other.A * self.B,
            self.k + other.k,
            _times(self.E, other.E),
        )

    __rmul__ = __mul__

    def involution(self):
        """Hyperelliptic involution y -> -y."""
        return CurveFunction._make(self.model, self.A, -self.B, self.k, self.E)

    def inverse(self):
        """1/F = f^k E (A - B y) / (A^2 - B^2 f); the norm's shared factors
        with f go into the new f-power, and the rest becomes E."""
        if not self:
            raise NonUnitError("division by the zero function")
        f = self.model.f
        N, j, E = _over_f_power(_ONE, self.A * self.A - self.B * self.B * f, f)
        m = min(j, self.k)
        top = _times(_times(_f_power(f, self.k - m), self.E), N)
        return CurveFunction._make(self.model, self.A * top, -(self.B * top), j - m, E)

    def __truediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def _split_E(self):
        """(e, h, E e) with g = gcd(E, E'), e = E/g and h = E'/g, so that
        d/dx (P/E) = (P'e - Ph) / (E e); E = 1 takes no gcd."""
        if self.E.degree == 0:
            return self.E, Poly(), self.E
        dE = self.E.derivative()
        g = poly_gcd(self.E, dE)
        e = self.E.exact_div(g)
        return e, dE.exact_div(g), self.E * e

    def _quotient_numerator(self, P, e, h):
        """P'e - Ph, the numerator of d/dx (P/E) over E e."""
        if self.E.degree == 0:
            return P.derivative()
        return P.derivative() * e - P * h

    def _dx_numerator(self, P, c, e, h):
        """(P'f - c P f')e - P f h: over f^(k+1) E e, d/dx (P/(f^k E)) for
        c = k, and d/dx (P y/(f^k E)) divided by y for c = k - 1/2."""
        if not P:
            return P
        f = self.model.f
        out = P.derivative() * f - P * _scaled(f.derivative(), c)
        if self.E.degree == 0:
            return out
        return out * e - P * f * h

    def d_dx(self):
        """Derivation with dy/dx = f'(x) / (2y).

        With D = f^k E and e, h from ``_split_E``:
        d/dx (A/D) = ((A'f - kAf')e - Afh) / (f^(k+1) E e) and
        d/dx (By/D) = ((B'f - (k - 1/2)Bf')e - Bfh) y / (f^(k+1) E e).
        So n derivatives of a squarefree E end over E^(n+1), not E^(2^n).
        """
        e, h, Ee = self._split_E()
        if not self.B and not self.k:
            return CurveFunction._make(self.model, self._quotient_numerator(self.A, e, h), Poly(), 0, Ee)
        return CurveFunction._make(
            self.model,
            self._dx_numerator(self.A, self.k, e, h),
            self._dx_numerator(self.B, self.k - _HALF, e, h),
            self.k + 1, Ee,
        )

    def d_by_omega0(self):
        """y * d/dx, the derivation dual to omega_0 = dx/y; preserves polynomials.

        y (Xa + Xb y) / (f^(k+1) E e) = (Xb f + Xa y) / (f^(k+1) E e), with Xa,
        Xb the numerators of d/dx; when k = 0, Xa = f (A'e - Ah) and the
        power of f stays 0.
        """
        e, h, Ee = self._split_E()
        Xb = self._dx_numerator(self.B, self.k - _HALF, e, h)
        if not self.k:
            return CurveFunction._make(self.model, Xb, self._quotient_numerator(self.A, e, h), 0, Ee)
        return CurveFunction._make(
            self.model, Xb * self.model.f, self._dx_numerator(self.A, self.k, e, h), self.k + 1, Ee
        )

    def d_dy(self):
        """(2y/f') d/dx: the coordinate derivation for t = y at Weierstrass disks.

        Its divided powers (1/n!) (d/dy)^n keep p-integrality of disk
        expansions for every odd p, unlike divided d/omega_0 powers, whose
        normalizing factorials are non-units when p <= n.  f' is coprime to
        the squarefree f, so it joins E.
        """
        fp = self.model.f.derivative()
        return self.d_by_omega0() * CurveFunction._make(
            self.model, Poly([2 / fp.leading]), Poly(), 0, fp.monic()
        )

    def value_mod_p(self, x_bar, y_bar, p):
        """Reduction of the value at an affine F_p point (x_bar, y_bar)."""
        p = as_prime(p)
        out = 0
        for part, ybar_factor in zip(self.view(), (1, y_bar)):
            if not part:
                continue
            den = value_mod(part.den, x_bar, p)
            if den == 0:
                raise PoleError(f"denominator vanishes at x = {x_bar} mod {p}")
            num = value_mod(part.num, x_bar, p)
            out = (out + num * pow(den, -1, p) * ybar_factor) % p
        return out

    def order_mod_p(self, x_bar, y_bar, p, limit):
        """ord of the reduction of F at an affine F_p point (x_bar, y_bar): the
        number of zeros of F on that residue disk (Weierstrass preparation).

        f^k E = c f^k E0 with E0 primitive in Z[x] (f is monic and integral),
        and F has a pole on the disk when E0(x_bar) = 0 mod p (DomainError).
        Otherwise, with lo the least valuation of the coefficients of A and B,
        p^-lo c F reduces to (a + b y)/(f^k E0), a and b the reductions of
        p^-lo A and p^-lo B.  It is nonzero, as 1 and y are independent over
        F_p(x), and its order is at most its degree, so at most ``limit``,
        F's polar degree; an order past ``limit`` is a bug (RuntimeError).

        * y_bar != 0: f^k E0 is a unit at x_bar, and the order is ord_t of
          a + b s in F_p[[t]], t = x - x_bar, s = sqrt(f(x_bar + t)), s_0 = y_bar.
        * y_bar = 0 (DomainError unless f(x_bar) = 0 mod p): x_bar is a simple
          root of f mod p at good reduction, so y is a uniformizer and x - x_bar
          has order 2.  So a has the even order 2 m(a) and b y the odd order
          2 m(b) + 1, m the multiplicity of the root x_bar mod p, and the order
          is min(2 m(a), 2 m(b) + 1) - 2k.  f^k adds no pole on the disk when
          ``weierstrass_order(F) >= 0`` (else DomainError).
        """
        p = as_prime(p)
        weierstrass = not y_bar % p
        if weierstrass and value_mod(self.model.f, x_bar, p):
            raise DomainError(f"not a point of the curve: y = 0 but f({x_bar}) != 0 mod {p}")
        if self.E.degree > 0:
            E0 = primitive_denominator(self)
            if not value_mod(E0, x_bar, p):
                raise DomainError(f"pole on this disk: {E0!r} vanishes at x = {x_bar} mod {p}")
        if not self:
            raise DomainError("zero function")
        if weierstrass and weierstrass_order(self) < 0:
            raise DomainError(f"pole along W: weierstrass_order {weierstrass_order(self)} < 0")
        scale = Fraction(p) ** -min(valuation(c, p) for P in (self.A, self.B) for c in P.coeffs if c)
        # at y_bar = 0 an order up to limit needs m(a), m(b) <= limit/2 + k
        n = limit // 2 + self.k + 1 if weierstrass else limit + 1
        a, b = (_taylor_mod(_scaled(P, scale), x_bar, p, n) for P in (self.A, self.B))
        if weierstrass:
            orders = [2 * i + j - 2 * self.k for j, part in enumerate((a, b)) for i, c in enumerate(part) if c]
            if orders and min(orders) <= limit:
                return min(orders)
        else:
            phi = _taylor_mod(self.model.f, x_bar, p, n)
            half, s = pow(2 * y_bar, -1, p), [y_bar % p]
            for i in range(n):
                if i:
                    s.append((phi[i] - sum(s[k] * s[i - k] for k in range(1, i))) * half % p)
                if (a[i] + sum(b[j] * s[i - j] for j in range(i + 1))) % p:
                    return i
        raise RuntimeError(f"reduction of {self!r} vanishes past its degree bound {limit} at x = {x_bar}")

    def __repr__(self):
        a, b = self.view()
        if not b:
            return f"CurveFunction({a!r})"
        return f"CurveFunction({a!r} + ({b!r})*y)"


# -- pole ledgers --------------------------------------------------------------


@dataclass(frozen=True)
class PoleLedger:
    """Certified claim F in H^0(X, O(n_inf * infinity + m_W * W)).

    ``n_inf`` counts multiples of the full divisor at infinity (degree 2 for
    even models, 1 for odd); negative entries certify zeros of that order.
    """

    n_inf: int
    m_W: int

    def within(self, n_inf, m_W):
        return self.n_inf <= n_inf and self.m_W <= m_W


def _f_multiplicity(P, f):
    """How many times f divides the nonzero polynomial P."""
    m = 0
    while True:
        q, r = divmod(P, f)
        if r:
            return m
        P, m = q, m + 1


def weierstrass_order(F):
    """min of ord_w(F) over the Weierstrass points w = (x_w, 0).

    y is a uniformizer at w and x - x_w has order 2, so A has the even order
    2 v_w(A), B y the odd order 2 v_w(B) + 1, and the two never cancel;
    f^k has order 2k and E is a unit at w.  Hence ord_w(F) = min(2 v_w(A),
    2 v_w(B) + 1) - 2k, and as f is squarefree the least v_w(A) over the roots
    of f is the number of times f divides A.
    """
    if not F:
        raise DomainError("zero function")
    f = F.model.f
    orders = []
    if F.A:
        orders.append(2 * _f_multiplicity(F.A, f))
    if F.B:
        orders.append(2 * _f_multiplicity(F.B, f) + 1)
    return min(orders) - 2 * F.k


def primitive_denominator(F):
    """F's E as a primitive polynomial E0 in Z[x], the pole test off W.

    E0 reduces to a nonzero polynomial mod p, and it has as many roots in the
    x-disk of x_bar as its reduction has at x_bar.  So E0 vanishes at x_bar
    mod p exactly when E has a root in that x-disk, where F may have a pole.
    """
    return Poly(primitive_int(F.E)[1])


def finite_nonweierstrass_pole_degree(F):
    """Upper bound for the polar degree away from W and infinity.

    Only E carries such poles (f^k is accounted by the W order).  A part P
    (A or B) keeps E / gcd(P, E) of it after reduction, and every root of that
    contributes at most its multiplicity at each of the two points above it.
    """
    if F.E.degree == 0:
        return 0
    return sum(2 * (F.E.degree - poly_gcd(P, F.E).degree) for P in (F.A, F.B) if P)


def infinity_pole_order(F):
    """Max of -ord(F) over the infinite places (per-point, signed).

    With n = k deg f + deg E, the A term has pole order deg A - n on an even
    model (t = 1/x) and 2(deg A - n) on an odd one (x of pole order 2); the
    B y term has deg B + g + 1 - n, respectively 2(deg B - n) + 2g + 1.  On
    an odd model the parities differ, so the larger order is F's.  On an even
    model y = +-x^(g+1)(1 + ...) on the two sheets and f, E are monic, so at
    equal orders the leading coefficients are lc(A) + lc(B) and lc(A) - lc(B):
    they cancel on one sheet at most, and the larger order is still the
    maximum over both points.
    """
    if not F:
        raise DomainError("zero function")
    model = F.model
    n = F.k * model.f.degree + F.E.degree
    g = model.genus
    orders = []
    if model.kind == "even":
        if F.A:
            orders.append(F.A.degree - n)
        if F.B:
            orders.append(F.B.degree + g + 1 - n)
    else:
        if F.A:
            orders.append(2 * (F.A.degree - n))
        if F.B:
            orders.append(2 * (F.B.degree - n) + 2 * g + 1)
    return max(orders)


def ledger_of(F):
    """Exact pole ledger of F from its f-power form.

    Entries are signed: positive for poles, negative for certified zeros on
    the whole divisor.
    """
    if not F:
        return PoleLedger(0, 0)
    return PoleLedger(infinity_pole_order(F), -weierstrass_order(F))


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
        return PoleLedger(ledger.n_inf - 1, new_m)
    return PoleLedger(ledger.n_inf - 2, new_m)


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


class _Powers:
    """The powers of one Laurent series x(t): the one way a polynomial is
    evaluated at a disk series.

    Power k is stored as (order, X_k) with x^k = t^order X_k and X_k stripped
    of leading known zeros; x^0 = 1 is known to T coefficients.  X_k for
    k >= 2 is the product of the stored X_(k-1) and X_1, so order and end
    agree with the ``LaurentSeries`` product x^(k-1) * x.  ``eval_poly`` is
    one ``series.combination`` of the powers it uses, shifted to their least
    order and cut at their least end, as a chain of sums would be; x^1
    enters it as x itself, leading zeros kept, so that the least order is
    the one x has.
    """

    __slots__ = ("T", "_x", "_powers")

    def __init__(self, x, T):
        self.T = T
        self._x = (x.order, x.series)
        j, x_stripped = x.series.stripped()
        self._powers = [(0, TruncatedSeries.one(T)), (x.order + j, x_stripped)]

    def power(self, k):
        """x^k as its stored (order, series) pair."""
        powers = self._powers
        x_order, x = powers[1]
        while len(powers) <= k:
            order, xk = powers[-1]
            powers.append((order + x_order, xk * x))
        return powers[k]

    def eval_poly(self, poly):
        terms = [(c, self._x if k == 1 else self.power(k)) for k, c in enumerate(poly.coeffs) if c]
        if not terms:
            return LaurentSeries(0, TruncatedSeries.zero(self.T))
        order = min(o for _, (o, _) in terms)
        end = min(o + X.truncation for _, (o, X) in terms)
        return LaurentSeries(order, combination([(c, X.shifted(o - order, end - order)) for c, (o, X) in terms]))


class DiskChart(_Powers):
    """A residue disk with its designated local parameter and expansion data.

    Holds Laurent expansions of x and y in the parameter t to relative
    precision T, and the valuation and reduction maps of the coefficient
    field: those of Q at a rational centre; at a quadratic one, those of its
    ``PAdicSqrtEmbedding``, read from the residue y_bar of sqrt(d).  The
    chart is the ``_Powers`` table of its x(t); ``eval_rational`` also keeps
    1/den(t) per denominator (the same few powers of f recur on one disk).
    Both caches live as long as the chart.
    """

    def __init__(self, model, disk, T, x_laurent, y_laurent, p=None, embedding=None, center=None, description=""):
        super().__init__(x_laurent, T)
        self.model = model
        self.disk = disk
        self.x = x_laurent
        self.y = y_laurent
        self.p = p
        self.embedding = embedding
        self.center = center
        self.description = description
        self.dx_dt = x_laurent.derivative()
        self._den_inverses = {}

    def valuation_of(self, c):
        if self.embedding is not None:
            return self.embedding.valuation(c)
        if self.p is None:
            raise DomainError("chart carries no prime; valuations unavailable")
        return valuation(c, self.p)

    def reduce_of(self, c):
        """Reduction of a p-integral coefficient mod p (through the embedding)."""
        if self.embedding is not None:
            return self.embedding.reduce(c)
        if self.p is None:
            raise DomainError("chart carries no prime; reductions unavailable")
        if isinstance(c, QuadExt):
            raise DomainError("quadratic coefficient on a rational chart")
        return reduce_mod(c, self.p)

    def eval_rational(self, r):
        if not r.num:
            return LaurentSeries(0, TruncatedSeries.zero(self.T))
        num = self.eval_poly(r.num)
        if r.den.degree == 0:
            return num
        inverse = self._den_inverses.get(r.den)
        if inverse is None:
            inverse = self._den_inverses[r.den] = self.eval_poly(r.den).inverse()
        return num * inverse

    def laurent(self, F):
        """Laurent expansion of a CurveFunction in the local parameter."""
        out = self.eval_rational(F.a)
        if F.b:
            out = out + self.eval_rational(F.b) * self.y
        return out

    def expand(self, F):
        """Regular expansion; PoleError if F has a pole on the disk."""
        return self.laurent(F).regular_part(context=f"disk {self.disk}")


def _newton(f, x, T, e, k):
    """x(t) = t^o s(t) solving f(x) = t^e x^k, with s known to T coefficients.

    ``x`` gives o and s mod t^n for some n >= 1; the root must be simple, so
    that P(X) = f(X) - t^e X^k has P'(x) invertible with the order it has at
    the leading term of x.  Each pass doubles n: it pads s with zeros to
    m = min(2n, T) coefficients, reads f(x), f'(x), x^k and x^(k-1) from one
    ``_Powers`` table of that x, and takes x - P(x)/P'(x), known to t^(o+m).
    """
    fprime = f.derivative()

    def times_t_e(series):
        return LaurentSeries(series.order + e, series.series)

    while x.series.truncation < T:
        m = min(2 * x.series.truncation, T)
        x = LaurentSeries(x.order, TruncatedSeries.from_polynomial(x.series.coeffs, m))
        powers = _Powers(x, m)
        value = powers.eval_poly(f) - times_t_e(powers.eval_poly(Poly.x_power(k)))
        slope = powers.eval_poly(fprime)
        if k:
            slope = slope - times_t_e(powers.eval_poly(Poly.x_power(k - 1, k)))
        x = x - value / slope
    return x


def _centered_lift(x_bar, p):
    x_bar %= p
    return x_bar if x_bar <= p // 2 else x_bar - p


_LIFT_SCAN = 3


def nonweierstrass_chart(model, disk, p, T):
    """Chart at an affine non-Weierstrass disk.

    Scans the lifts x0 of x_bar within _LIFT_SCAN multiples of p of the
    centred one for f(x0) an exact rational square (a Q-rational center);
    otherwise works over Q(sqrt(f(x0))) with the embedding picked so that
    sqrt reduces to y_bar.
    """
    p = as_prime(p)
    if disk.kind != "affine_nonweierstrass":
        raise DomainError(f"not a non-Weierstrass disk: {disk}")
    base = _centered_lift(disk.x_bar, p)
    chosen = None
    for k in range(_LIFT_SCAN + 1):
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
    x_laurent = _newton(model.f, LaurentSeries(0, TruncatedSeries([x_w])), T, 2, 0)
    y_laurent = LaurentSeries(0, TruncatedSeries.from_polynomial([0, 1], T))
    return DiskChart(
        model, disk, T, x_laurent, y_laurent,
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
        # t = x^g / y: x = t^-2 s(t) with s a unit series, y = t^-1 x^g, and
        # y^2 = f(x) reads f(x) = t^-2 x^(2g)
        x_laurent = _newton(model.f, LaurentSeries(-2, TruncatedSeries.one(1)), T, -2, 2 * g)
        x_g = _Powers(x_laurent, T).eval_poly(Poly.x_power(g))
        y_laurent = LaurentSeries(x_g.order - 1, x_g.series)
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
