"""Residue-disk expansions of iterated integrals and the depth-2 function G.

Single integrals are the unique series I with dI/dt = (omega/dt)(t) and
I(0) = c0, where the constant stands in for the path integral from the global
base point (its computation requires global Coleman integration and is out of
scope; every zero-counting statement here is insensitive to the constants).
Double integrals follow the convention fixed by d(int omega_i omega_j)/dx =
(omega_i/dx) * int omega_j: the i-differential is integrated last.

The function G is

    G = sum a_ij int omega_i omega_j + sum a_i int omega_i + int eta + h,

with the basis differentials omega_i = x^i dx/y (i <= 2g on even models,
i <= 2g-1 on odd ones), a rational matrix/vector of constants, an optional
third-kind differential eta given as a dx-quotient, and an algebraic h.
Integrands are assembled as omega/dt, so expansions exist on Weierstrass
disks too, where the dx-quotients themselves have poles but the
differentials do not.
"""

import json
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError, PrecisionError
from .funcfield import (
    CurveFunction,
    RationalFunc,
    default_truncation,
    finite_nonweierstrass_pole_degree,
    ledger_of,
)
from .hyperelliptic import CurveModel
from .padics import Prime, as_prime
from .polys import Poly
from .series import TruncatedSeries


def default_basis(curve):
    return [CurveFunction.x_power_over_y(curve, i) for i in range(curve.basis_size)]


@dataclass
class DiskConstants:
    """Integral values at the disk center: singles c_i, doubles c_ij, c_eta."""

    singles: list
    doubles: list
    eta: Fraction = Fraction(0)


@dataclass
class ColemanSpec:
    """Everything needed to expand G on the residue disks of one curve."""

    curve: CurveModel
    p: Prime
    a_matrix: list
    a_vector: list
    h: CurveFunction = None
    eta: CurveFunction = None
    T: int = None
    constants: dict = field(default_factory=dict)   # str(disk) -> DiskConstants
    basis: list = field(init=False)    # default_basis(curve), the one basis supported

    def __post_init__(self):
        self.p = as_prime(self.p)
        self.basis = default_basis(self.curve)
        n = len(self.basis)
        self.a_matrix = _rational_matrix(self.a_matrix, n, "a_matrix")
        self.a_vector = _rational_list(self.a_vector, n, "a_vector")
        if self.h is None:
            self.h = CurveFunction.const(self.curve, 0)
        if self.T is None:
            self.T = default_truncation(self.curve.genus)
        elif isinstance(self.T, bool) or not isinstance(self.T, int) or self.T < 1:
            raise DomainError(f"T must be a positive integer, got {self.T!r}")
        if self.h:
            g = self.curve.genus
            cap = 2 * (g + 1) if self.curve.kind == "even" else 4 * g
            led = ledger_of(self.h)
            if not led.within(cap, 0) or finite_nonweierstrass_pole_degree(self.h):
                raise DomainError(
                    f"h has ledger {led}, outside the allowed space O({cap}*infinity)"
                )

    def constants_for(self, disk):
        n = len(self.basis)
        c = self.constants.get(str(disk))
        if c is None:
            return DiskConstants([Fraction(0)] * n, [[Fraction(0)] * n for _ in range(n)])
        return c


def expand_single_integral(f_quot, chart, c0=Fraction(0)):
    """Series I with dI/dt = (f_quot dx)/dt and I(0) = c0.

    The integrand is assembled as a differential, so disks where the
    dx-quotient has a pole but the differential does not (Weierstrass disks)
    expand fine; a genuine pole of the differential raises PoleError.
    """
    return _integrand(f_quot, chart).antiderivative(c0)


def _integrand(f_quot, chart):
    """(f_quot dx)/dt as a series on the chart's disk."""
    return (chart.laurent(f_quot) * chart.dx_dt).regular_part(context=f"disk {chart.disk}")


def expand_double_integral(f_i, f_j, chart, c_j=Fraction(0), c_ij=Fraction(0)):
    """Series J with dJ/dt = (f_i dx)/dt * I_j and J(0) = c_ij."""
    inner = expand_single_integral(f_j, chart, c_j)
    return (_integrand(f_i, chart) * inner).antiderivative(c_ij)


def expand_G(spec, chart):
    """The assembled series of G on the chart's disk."""
    consts = spec.constants_for(chart.disk)
    n = len(spec.basis)
    singles = [expand_single_integral(spec.basis[j], chart, consts.singles[j]) for j in range(n)]
    out = None
    for i in range(n):
        outer = None
        row = spec.a_matrix[i]
        if any(row):
            outer = _integrand(spec.basis[i], chart)
        for j in range(n):
            if not row[j]:
                continue
            J = (outer * singles[j]).antiderivative(consts.doubles[i][j]).scale(row[j])
            out = J if out is None else out + J
    for i in range(n):
        if spec.a_vector[i]:
            term = singles[i].scale(spec.a_vector[i])
            out = term if out is None else out + term
    if spec.eta is not None and spec.eta:
        term = expand_single_integral(spec.eta, chart, consts.eta)
        out = term if out is None else out + term
    if spec.h:
        term = chart.expand(spec.h)
        out = term if out is None else out + term
    if out is None:
        out = TruncatedSeries.zero(chart.T)
    return out


def certify_algebraic(F, candidate, chart, degree_bound=None):
    """True iff the candidate's expansion matches F to the full shared precision.

    Attaches an insufficient-precision warning when fewer than twice the
    expected pole-degree bound coefficients were compared.
    """
    cand = chart.expand(candidate)
    upto = min(F.truncation, cand.truncation)
    if degree_bound is not None and upto < 2 * degree_bound:
        warnings.warn(
            f"algebraic certification compared only {upto} coefficients, "
            f"below twice the degree bound {degree_bound}",
            stacklevel=2,
        )
    if upto == 0:
        raise PrecisionError("no shared coefficients to compare", needed=1)
    return F.agrees_with(cand, upto=upto)


# -- spec files -------------------------------------------------------------------


def _rational(c, what):
    try:
        return Fraction(c)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"{what}: {c!r} is not a rational number") from exc


def _rational_list(values, n, what):
    """``values`` as a list of n Fractions; DomainError for any other shape."""
    if not isinstance(values, (list, tuple)) or len(values) != n:
        raise DomainError(f"{what} must be a list of length {n}")
    return [_rational(c, what) for c in values]


def _rational_matrix(rows, n, what):
    if not isinstance(rows, (list, tuple)) or len(rows) != n:
        raise DomainError(f"{what} must be {n} x {n} for this basis")
    return [_rational_list(row, n, f"{what} row") for row in rows]


def _json_object(value, what):
    if not isinstance(value, dict):
        raise DomainError(f"{what} must be a JSON object")
    return value


def _poly_from_strings(coeffs, what):
    if not isinstance(coeffs, list):
        raise DomainError(f"{what} must be a list of rationals")
    return Poly([_rational(c, what) for c in coeffs])


def _curve_function_from_pair(curve, data, what):
    """{"a": [...], "b": [...]} as the polynomial pair a(x) + b(x) y."""
    data = _json_object(data, what)
    a = _poly_from_strings(data.get("a", []), f"{what} a")
    b = _poly_from_strings(data.get("b", []), f"{what} b")
    return CurveFunction(curve, a, RationalFunc(b))


def parse_spec_data(data):
    """Build a ColemanSpec from a parsed JSON object; DomainError on malformed input."""
    data = _json_object(data, "spec")
    cdata = _json_object(data["curve"], "curve")
    curve = CurveModel(cdata["kind"], _poly_from_strings(cdata["f"], "curve f"), genus=cdata.get("genus"))
    h = _curve_function_from_pair(curve, data["h"], "h") if "h" in data else None
    eta = _curve_function_from_pair(curve, data["eta"], "eta") if "eta" in data else None
    n = curve.basis_size
    constants = {}
    for key, val in _json_object(data.get("constants", {}), "constants").items():
        val = _json_object(val, f"constants {key}")
        constants[key] = DiskConstants(
            _rational_list(val.get("singles", ["0"] * n), n, f"constants {key} singles"),
            _rational_matrix(val.get("doubles", [["0"] * n] * n), n, f"constants {key} doubles"),
            _rational(val.get("eta", "0"), f"constants {key} eta"),
        )
    return ColemanSpec(
        curve=curve,
        p=data["p"],
        a_matrix=data["a_matrix"],
        a_vector=data.get("a_vector", ["0"] * n),
        h=h,
        eta=eta,
        T=data.get("T"),
        constants=constants,
    )


def load_spec_file(path):
    with open(path) as fh:
        return parse_spec_data(json.load(fh))
