"""Exact p-adic valuations, factorial-valuation bounds, and the constant kappa_p.

Every quantity that feeds a certified bound is an exact ``fractions.Fraction``.
Logarithms are evaluated by interval arithmetic on rationals (argument
reduction into [3/4, 3/2] followed by the atanh series with an explicit tail
bound) and rounded outward, so ``kappa`` and ``factorial_ratio_bound`` return
true upper bounds, never floating-point approximations.

The valuation of 0 is the distinguished value ``INFINITY``, which compares
greater than every integer, so series code can fold over coefficients
uniformly.
"""

import math
from fractions import Fraction

from .errors import DomainError

#: Valuation of the zero element.  ``math.inf`` compares correctly against
#: ints and Fractions and is absorbed by ``min``/``max`` as expected.
INFINITY = math.inf


def is_prime(n):
    """Deterministic trial-division primality test (n is small here)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Prime(int):
    """A prime p >= 3, validated once at construction.

    p = 2 is rejected: the slope-transfer machinery genuinely needs p > 2
    (differential operators can shift slopes by v(2) there), and every
    downstream theorem assumes p >= 3.
    """

    def __new__(cls, p):
        if isinstance(p, bool) or not isinstance(p, int):
            raise DomainError(f"p must be an integer, got {p!r}")
        if p == 2:
            raise DomainError("p = 2 is not supported; the method requires p > 2")
        if p < 2 or not is_prime(p):
            raise DomainError(f"{p} is not prime")
        return super().__new__(cls, p)


def as_prime(p):
    """Coerce an int to Prime, fast-pathing existing instances."""
    return p if isinstance(p, Prime) else Prime(p)


def _check_low_level_prime(p):
    # valuation-theoretic helpers tolerate p = 2; everything else goes
    # through Prime and rejects it.
    if isinstance(p, Prime):
        return int(p)
    p = int(p)
    if p < 2 or not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return p


def valuation(r, p):
    """Exact exponent of p in the rational r; INFINITY for r = 0.

    Additive: valuation(a*b, p) == valuation(a, p) + valuation(b, p).
    """
    p = _check_low_level_prime(p)
    if isinstance(r, int):
        num, den = r, 1
    else:
        r = Fraction(r)
        num, den = r.numerator, r.denominator
    if num == 0:
        return INFINITY
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def digit_sum(n, p):
    """Sum of the base-p digits of n >= 0."""
    s = 0
    while n:
        n, d = divmod(n, p)
        s += d
    return s


def factorial_valuation(n, p):
    """v(n!) by Legendre's formula (n - digit_sum(n)) / (p - 1)."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    p = _check_low_level_prime(p)
    return (n - digit_sum(n, p)) // (p - 1)


# --- certified rational logarithm ------------------------------------------
#
# ln(x) for rational x > 0 is computed as ln(t) + k*ln(2) with t = x / 2^k
# reduced into [3/4, 3/2], and ln(t) = 2*atanh(z), z = (t-1)/(t+1), summed
# with the exact tail estimate 2|z|^(2J+3) / ((2J+3)(1-z^2)).  Everything is
# a Fraction; the returned interval genuinely contains ln(x).

_LOG2_CACHE = {}


def _atanh_interval(z, eps):
    # interval for 2*atanh(z), |z| < 1, width <= eps
    z2 = z * z
    total = Fraction(0)
    term = z
    j = 0
    while True:
        total += term / (2 * j + 1)
        j += 1
        term *= z2
        tail = 2 * abs(term) / ((2 * j + 1) * (1 - z2))
        if tail <= eps:
            break
    s = 2 * total
    if z >= 0:
        return s, s + tail
    return s - tail, s


def _log2_interval(eps):
    lo, hi = _LOG2_CACHE.get(eps, (None, None))
    if lo is None:
        lo, hi = _atanh_interval(Fraction(1, 3), eps)
        _LOG2_CACHE[eps] = (lo, hi)
    return lo, hi


def log_bounds(x, eps=Fraction(1, 10**15)):
    """Certified rational interval (lo, hi) containing ln(x), hi - lo <= 2*eps-ish.

    x must be a positive rational.  Outward rounding: ln(x) is guaranteed to
    lie in [lo, hi].
    """
    x = Fraction(x)
    if x <= 0:
        raise DomainError("log requires a positive argument")
    eps = Fraction(eps)
    k = 0
    t = x
    while t > Fraction(3, 2):
        t /= 2
        k += 1
    while t < Fraction(3, 4):
        t *= 2
        k -= 1
    z = (t - 1) / (t + 1)
    t_lo, t_hi = _atanh_interval(z, eps)
    if k == 0:
        return t_lo, t_hi
    l2_lo, l2_hi = _log2_interval(eps / (2 * abs(k)))
    if k > 0:
        return t_lo + k * l2_lo, t_hi + k * l2_hi
    return t_lo + k * l2_hi, t_hi + k * l2_lo


def factorial_ratio_bound(n1, n2, p):
    """Rational upper bound for log_p(n1) + (n2 - n1)/(p - 1).

    Dominates v(n2!/n1!) for all 1 <= n1 <= n2 and exceeds the true value of
    the bound by less than 10^-12.
    """
    if n1 < 1:
        raise DomainError("n1 must be >= 1 (log_p undefined at 0)")
    if n2 < n1:
        raise DomainError("require n1 <= n2")
    p = _check_low_level_prime(p)
    linear = Fraction(n2 - n1, p - 1)
    if n1 == 1:
        return linear
    eps = Fraction(1, 10**14)
    while True:
        n_lo, n_hi = log_bounds(Fraction(n1), eps)
        p_lo, p_hi = log_bounds(Fraction(p), eps)
        upper = n_hi / p_lo
        lower = n_lo / p_hi
        if upper - lower < Fraction(1, 10**12):
            return upper + linear
        eps /= 16


def log_p_lower(n, p):
    """Certified rational lower bound for log_p(n), n >= 1."""
    if n == 1:
        return Fraction(0)
    n_lo, _ = log_bounds(Fraction(n))
    _, p_hi = log_bounds(Fraction(int(p)))
    return n_lo / p_hi


def kappa_bounds(p, width=Fraction(1, 10**10)):
    """Certified interval (lo, hi) containing kappa_p = 1 + (p-1)/((p-2) ln p)."""
    p = as_prime(p)
    c = Fraction(p - 1, p - 2)
    eps = Fraction(1, 10**13)
    while True:
        ln_lo, ln_hi = log_bounds(Fraction(int(p)), eps)
        lo = 1 + c / ln_hi
        hi = 1 + c / ln_lo
        if hi - lo <= width:
            return lo, hi
        eps /= 16


def kappa(p):
    """Rational upper approximation of kappa_p, within 10^-10 above the real value.

    Rounded up so that downstream bounds remain valid upper bounds.
    """
    return kappa_bounds(p)[1]
