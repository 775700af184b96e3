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
differentials do not.  On an affine chart with rational series, every
Weierstrass chart among them, ``expand_G`` runs on ``series.IntegerSeries``:
omega_j/dt is x^j from the chart's power table times the one series
omega_0/dt, and the single and double integrals, the row sums, eta and h are
integer products, antiderivatives and linear combinations; other charts run
the same steps on ``TruncatedSeries``.

The algebraic image D(G) of an operator D = sum g_k delta^k with algebraic
coefficients is derived from D itself (``algebraic_image``).  G is written as
an algebraic part plus CurveFunction multiples of the atoms I_j = int omega_j,
J_ij = int omega_i omega_j and I_eta = int eta.  The base derivation is
delta = m d/dx, with m = 1, y or 2y/f' for d/dx, d/omega_0 or d/dy, and acts
on each atom by Leibniz's rule and the convention above:

    delta(c J_ij)  = delta(c) J_ij  + c m (x^i/y) I_j,
    delta(c I_j)   = delta(c) I_j   + c m x^j/y,
    delta(c I_eta) = delta(c) I_eta + c m eta.

D kills the integrals when every atom's coefficient in sum g_k delta^k G is
exactly the zero function; D(G) is then the algebraic part, proved algebraic
by that cancellation rather than assumed.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError, PrecisionError
from .funcfield import (
    CurveFunction,
    default_truncation,
    finite_nonweierstrass_pole_degree,
    ledger_of,
)
from .hyperelliptic import CurveModel, residue_disks
from .padics import Prime, as_prime
from .polys import Poly
from .series import IntegerSeries, TruncatedSeries, combination, rational_series


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
        self.check_constants()

    def check_constants(self):
        """DomainError unless every ``constants`` key names a residue disk mod
        p; run again when a run is planned, for keys added later."""
        if self.constants:
            disks = {str(d) for d in residue_disks(self.curve, self.p)}
            for key in self.constants:
                if key not in disks:
                    raise DomainError(
                        f"constants key {key!r} is not a residue disk of this curve mod "
                        f"{int(self.p)}; keys are written (x,y), inf, inf+ or inf-"
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
    """The assembled series of G on the chart's disk.

    Each basis integrand (omega_j/dt)(t) that some term uses is built once.
    Its antiderivative with the disk constant c_j is the single integral I_j.
    Row i of the double integrals is one product and one antiderivative,
    since sum_j a_ij (int omega_i I_j + c_ij) = int omega_i (sum_j a_ij I_j)
    + sum_j a_ij c_ij; its truncation is the one the sum of the
    ``expand_double_integral`` terms would have.  The row sums and G itself
    are linear combinations (``series.combination``).

    On an affine chart with rational series (every Weierstrass chart) all of
    this runs on ``IntegerSeries``, the integrands read from the chart's power
    table (``_integer_integrand``), eta's integrand and h lifted once;
    each coefficient of G becomes one Fraction at the end, with the values,
    types and truncation of the ``TruncatedSeries`` computation that the
    other charts run.
    """
    consts = spec.constants_for(chart.disk)
    # omega_j is an outer integrand when row j is used, and I_j is needed when
    # column j or a_vector[j] is
    as_outer = [any(row) for row in spec.a_matrix]
    as_inner = [any(col) or a for col, a in zip(zip(*spec.a_matrix), spec.a_vector)]
    used = [o or i for o, i in zip(as_outer, as_inner)]
    integer = chart.disk.kind != "infinite" and rational_series(chart.y.series)
    if integer:
        lift = IntegerSeries.of
        if any(used):
            omega0 = lift(_integrand(spec.basis[0], chart)).stripped()
        integrands = [_integer_integrand(chart, j, omega0) if u else None for j, u in enumerate(used)]
    else:
        def lift(s):
            return s
        integrands = [_integrand(omega, chart) if u else None for omega, u in zip(spec.basis, used)]
    singles = [integrand.antiderivative(c) if i else None
               for integrand, i, c in zip(integrands, as_inner, consts.singles)]
    terms = []
    for row, outer, doubles in zip(spec.a_matrix, integrands, consts.doubles):
        if any(row):
            inner = combination([(a, single) for a, single in zip(row, singles) if a])
            constant = sum((a * c for a, c in zip(row, doubles) if a), Fraction(0))
            terms.append((1, (outer * inner).antiderivative(constant)))
    terms += [(a, single) for a, single in zip(spec.a_vector, singles) if a]
    if spec.eta is not None and spec.eta:
        terms.append((1, lift(_integrand(spec.eta, chart)).antiderivative(consts.eta)))
    if spec.h:
        terms.append((1, lift(chart.expand(spec.h))))
    if not terms:
        return TruncatedSeries.zero(chart.T)
    G = combination(terms)
    return G.series() if integer else G


def _integer_integrand(chart, j, omega0):
    """omega_j/dt = x^j omega_0/dt as an ``IntegerSeries``: the stripped x^j
    of the chart's power table times omega0 = (order, series), the
    ``IntegerSeries.stripped`` ``_integrand`` of omega_0, shifted to its
    order.  That integrand fails as every ``_integrand`` of the chart does
    when f(x(t)) is known zero, and on an affine chart none has a pole.

    ``_integrand`` reads x^j/y as 0 + (x^j/f) y, whose zero part is known to
    t^T, so it knows omega_j/dt to t^(T + ord dx/dt) at most; the product is
    cut there.
    """
    order, xj = chart.power(j)
    return (xj * omega0[1]).shifted(order + omega0[0], chart.T + chart.dx_dt.normalized().order)


def algebraic_image(D, spec):
    """D(G) as a CurveFunction for D = sum g_k delta^k with algebraic
    coefficients, by the atom rule of the module docstring.  DomainError names
    an atom whose coefficient in D(G) is not exactly the zero function."""
    if not D.is_algebraic():
        raise DomainError("the algebraic image needs an operator with algebraic coefficients")
    C = spec.curve
    derive = {"dx": CurveFunction.d_dx, "omega0": CurveFunction.d_by_omega0,
              "dy": CurveFunction.d_dy}[D.base]
    m = derive(CurveFunction.x(C))
    m_basis = [m * omega for omega in spec.basis]
    # atom -> (the atom delta leaves beside it, or None when that term is algebraic; its factor)
    rule, atoms = {}, {}
    for j, a in enumerate(spec.a_vector):
        rule[f"int omega_{j}"], atoms[f"int omega_{j}"] = (None, m_basis[j]), a
        for i, row in enumerate(spec.a_matrix):
            rule[f"int omega_{i} omega_{j}"] = (f"int omega_{j}", m_basis[i])
            atoms[f"int omega_{i} omega_{j}"] = row[j]
    if spec.eta is not None and spec.eta:
        rule["int eta"], atoms["int eta"] = (None, m * spec.eta), 1
    atoms = {name: CurveFunction.const(C, c) for name, c in atoms.items() if c}
    alg, image, left = spec.h, CurveFunction.const(C, 0), {}
    for k, g in enumerate(D.coeffs):
        if k:
            alg, atoms = _derivation_step(derive, rule, alg, atoms)
        if isinstance(g, CurveFunction) and g:
            image = image + g * alg
            for name, c in atoms.items():
                left[name] = left[name] + g * c if name in left else g * c
    for name, c in left.items():
        if c:
            raise DomainError(f"{D!r} leaves {name} in G with coefficient {c!r}")
    return image


def _derivation_step(derive, rule, alg, atoms):
    """delta of (alg + sum_atoms c * atom), by the atom rule."""
    out = {}
    alg = derive(alg)
    for name, c in atoms.items():
        inner, mq = rule[name]
        for target, term in ((name, derive(c)), (inner, c * mq)):
            if target is None:
                alg = alg + term
            elif term:
                out[target] = out[target] + term if target in out else term
    return alg, out


def certify_algebraic(F, candidate, chart):
    """True iff the candidate's expansion matches F to the full shared precision."""
    cand = chart.expand(candidate)
    upto = min(F.truncation, cand.truncation)
    if upto == 0:
        raise PrecisionError("no shared coefficients to compare", needed=1)
    return F.agrees_with(cand, upto=upto)


# -- spec files -------------------------------------------------------------------


def _rational(c, what):
    try:
        return Fraction(c)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
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


def _json_object(value, what, *required):
    if not isinstance(value, dict):
        raise DomainError(f"{what} must be a JSON object")
    for key in required:
        if key not in value:
            raise DomainError(f"{what} lacks the required key {key!r}")
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
    return CurveFunction(curve, a, b)


def parse_spec_data(data):
    """Build a ColemanSpec from a parsed JSON object; DomainError on malformed input."""
    data = _json_object(data, "spec", "curve", "p", "a_matrix")
    cdata = _json_object(data["curve"], "curve", "kind", "f")
    genus = cdata.get("genus")
    if genus is not None and type(genus) is not int:    # bool and float too
        raise DomainError(f"curve genus must be an integer, got {genus!r}")
    curve = CurveModel(cdata["kind"], _poly_from_strings(cdata["f"], "curve f"), genus=genus)
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
