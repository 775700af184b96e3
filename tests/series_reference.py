"""Plain-list reference arithmetic for ``qcbound.series``.

A series is the list of its known coefficients, Fractions or ``QuadExt``
values, and its truncation is the list's length; a Laurent series is a pair
(order, list).  Every operation is the textbook one on those lists (a
product is the O(n^2) double sum), so a test that compares
``TruncatedSeries`` or ``LaurentSeries`` with it checks the storage forms
against code that shares nothing with them.
"""

from fractions import Fraction
from math import comb, lcm

from qcbound.errors import PoleError, PrecisionError
from qcbound.quadext import QuadExt

ZERO = Fraction(0)


def exact(c):
    return c if isinstance(c, (Fraction, QuadExt)) else Fraction(c)


def add(a, b):
    return [x + y for x, y in zip(a, b)]


def neg(a):
    return [-x for x in a]


def sub(a, b):
    return add(a, neg(b))


def scale(a, c):
    return [exact(c) * x for x in a]


def mul(a, b):
    n = min(len(a), len(b))
    return [sum((a[i] * b[k - i] for i in range(k + 1)), ZERO) for k in range(n)]


def combination(terms):
    out = None
    for c, s in terms:
        term = scale(s, c)
        out = term if out is None else add(out, term)
    return out


def derivative(a):
    if not a:
        raise PrecisionError("cannot differentiate a precision-0 series", needed=2)
    return [i * a[i] for i in range(1, len(a))]


def divided_derivative(a, k):
    """(1/k!) (d/dt)^k; PrecisionError past the truncation."""
    if k > len(a):
        raise PrecisionError("cannot differentiate a precision-0 series", needed=2)
    return [comb(j, k) * a[j] for j in range(k, len(a))]


def antiderivative(a, constant=0):
    return [exact(constant)] + [a[i] / (i + 1) for i in range(len(a))]


def inverse(a):
    """b with a * b = 1: b_0 = 1/a_0, b_m = -(sum_(k=1..m) a_k b_(m-k)) / a_0."""
    b = [1 / a[0]]
    for m in range(1, len(a)):
        b.append(-sum((a[k] * b[m - k] for k in range(1, m + 1)), ZERO) / a[0])
    return [exact(c) for c in b]


def strip(a):
    """(j, a[j:]) for j the index of the first nonzero coefficient."""
    j = next((i for i, c in enumerate(a) if c), len(a))
    return j, a[j:]


def least_terms(a):
    """(den, ints) of a rational list in least terms: den the lcm of the
    coefficient denominators, ints the numerators over it, None when every
    coefficient is zero."""
    if not any(a):
        return 1, None
    den = lcm(*(c.denominator for c in a))
    return den, [int(c * den) for c in a]


def laurent_normalized(order, a):
    j, rest = strip(a)
    return order + j, rest


def laurent_add(x, y):
    """Both operands written from the common order to the common end."""
    o = min(x[0], y[0])
    n = max(min(x[0] + len(x[1]), y[0] + len(y[1])) - o, 0)
    a, b = ((([ZERO] * (order - o)) + s)[:n] for order, s in (x, y))
    return o, add(a, b)


def laurent_mul(x, y):
    (oa, a), (ob, b) = laurent_normalized(*x), laurent_normalized(*y)
    return oa + ob, mul(a, b)


def regular_part(order, a):
    if order >= 0:
        return [ZERO] * order + a
    if any(a[:-order]):
        raise PoleError("pole")
    if len(a) <= -order:
        raise PrecisionError("no regular coefficients known", needed=-order + 1)
    return a[-order:]


def matches(series, coeffs):
    """A ``TruncatedSeries`` has the values, coefficient types and truncation
    of a reference list."""
    got = list(series.coeffs)
    return got == coeffs and [type(c) for c in got] == [type(c) for c in coeffs]
