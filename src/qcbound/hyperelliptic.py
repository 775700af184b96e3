"""Hyperelliptic curve models, reduction mod p, and residue-disk bookkeeping.

Models are monic: y^2 = f(x) with f of degree 2g+2 (even model, two points at
infinity) or 2g+1 (odd model, one point at infinity).  Non-monic input is
rejected with a normalization hint rather than silently transformed, since the
divisor bookkeeping at infinity depends on the monic form.  Point counting is
naive enumeration over F_p with one table of square roots, which is exactly
right for the desk-scale primes used here.
"""

from dataclasses import dataclass
from math import isqrt

from .errors import DomainError, NormalizationError
from .padics import as_prime, reduce_mod, valuation
from .polys import Poly, discriminant


class CurveModel:
    """y^2 = f(x), f monic squarefree of degree 2g+2 (even) or 2g+1 (odd)."""

    __slots__ = ("kind", "f", "genus", "_disc")

    def __init__(self, kind, f_coeffs, genus=None):
        if kind not in ("even", "odd"):
            raise DomainError(f"model kind must be 'even' or 'odd', got {kind!r}")
        f = f_coeffs if isinstance(f_coeffs, Poly) else Poly(f_coeffs)
        if not f or not f.is_monic():
            raise NormalizationError(
                "f must be monic; rescale (x, y) -> (x/c, y/c^k) to normalize"
            )
        deg = f.degree
        if kind == "even":
            if deg < 4 or deg % 2:
                raise DomainError("even model needs deg f = 2g+2 >= 4")
            g = (deg - 2) // 2
        else:
            if deg < 3 or deg % 2 == 0:
                raise DomainError("odd model needs deg f = 2g+1 >= 3")
            g = (deg - 1) // 2
        if genus is not None and genus != g:
            raise DomainError(f"declared genus {genus} but deg f = {deg} forces genus {g}")
        self._disc = discriminant(f)
        if not self._disc:
            raise DomainError("f must be squarefree (nonzero discriminant)")
        self.kind = kind
        self.f = f
        self.genus = g

    @property
    def degree(self):
        return self.f.degree

    @property
    def basis_size(self):
        """Number of basis differentials x^i dx/y: 2g+1 on even models, 2g on odd ones."""
        return 2 * self.genus + 1 if self.kind == "even" else 2 * self.genus

    def infinite_points(self):
        """Labels of the points at infinity (two sheets for even models)."""
        return ("inf+", "inf-") if self.kind == "even" else ("inf",)

    def __repr__(self):
        return f"CurveModel({self.kind}, genus {self.genus}, f = {self.f!r})"


@dataclass(frozen=True, order=True)
class DiskDescriptor:
    """A residue disk: one F_p point of the reduced curve.

    kind is 'affine_nonweierstrass', 'affine_weierstrass', or 'infinite'.
    Affine disks carry the center (x_bar, y_bar); infinite disks carry the
    sheet label in ``label``.
    """

    kind: str
    x_bar: int = -1
    y_bar: int = -1
    label: str = ""

    def __str__(self):
        if self.kind == "infinite":
            return self.label
        return f"({self.x_bar},{self.y_bar})"


def poly_mod(f, p):
    """Coefficients of f mod p (list, lowest first)."""
    return [reduce_mod(c, p) for c in f.coeffs]


def has_smooth_reduction(curve, p):
    """True iff f is integral at p and p does not divide disc(f)."""
    p = as_prime(p)
    for c in curve.f.coeffs:
        if valuation(c, p) < 0:
            raise NormalizationError(
                f"coefficient {c} is not integral at {p}; clear denominators first"
            )
    return valuation(curve._disc, p) == 0


def good_reduction_at(curve, p):
    """True iff p does not divide disc(f), p > 2, and (even model) p != 2g+1.

    The p != 2g+1 exclusion for even models mirrors the hyperelliptic bound's
    hypothesis; plain point counting only needs ``has_smooth_reduction``.
    """
    p = as_prime(p)
    if curve.kind == "even" and int(p) == 2 * curve.genus + 1:
        return False
    return has_smooth_reduction(curve, p)


def _eval_mod(f_mod, x, p):
    acc = 0
    for c in reversed(f_mod):
        acc = (acc * x + c) % p
    return acc


def value_mod(P, x, p):
    """P(x) mod p for a p-integral polynomial P and an integer x."""
    return _eval_mod(poly_mod(P, p), x, p)


def _f_values(curve, p):
    """(p, [f(x) mod p for x in F_p], {a: the least s with s^2 = a mod p}),
    after the checks every F_p enumeration makes: good reduction at p, and
    p <= 10^5."""
    p = as_prime(p)
    if not has_smooth_reduction(curve, p):
        raise DomainError(f"{int(p)} divides disc(f): curve has bad reduction at {int(p)}")
    if p > 10**5:
        raise DomainError("naive enumeration is limited to p <= 10^5")
    f_mod = poly_mod(curve.f, p)
    roots = {s * s % p: s for s in range((p + 1) // 2)}
    return p, [_eval_mod(f_mod, x, p) for x in range(p)], roots


def count_points_fp(curve, p):
    """(total, affine_nonweierstrass, affine_weierstrass, infinite) over F_p."""
    p, values, roots = _f_values(curve, p)
    wpts = values.count(0)
    affine_nw = 2 * sum(1 for fx in values if fx and fx in roots)
    infinite = 2 if curve.kind == "even" else 1
    return affine_nw + wpts + infinite, affine_nw, wpts, infinite


def residue_disks(curve, p):
    """One DiskDescriptor per F_p point, sorted by (kind, x_bar, y_bar)."""
    p, values, roots = _f_values(curve, p)
    disks = []
    for x, fx in enumerate(values):
        if fx == 0:
            disks.append(DiskDescriptor("affine_weierstrass", x, 0))
        elif fx in roots:
            y = roots[fx]
            disks.append(DiskDescriptor("affine_nonweierstrass", x, y))
            disks.append(DiskDescriptor("affine_nonweierstrass", x, p - y))
    for label in curve.infinite_points():
        disks.append(DiskDescriptor("infinite", label=label))
    return sorted(disks)


def hasse_weil_ok(curve, p, total):
    """Loose integer Hasse-Weil window |total - (p+1)| <= 2g * floor(2 sqrt p)."""
    return abs(total - (int(p) + 1)) <= 2 * curve.genus * isqrt(4 * int(p))
