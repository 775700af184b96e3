"""Evaluators for the closed-form point-count bounds, with certified rounding.

Every bound statement is a strict inequality #points < kappa_p * (...), so a
report carries the exact rational value (computed with the certified upper
approximation of kappa_p, rounding up) together with the largest integer
strictly below it.  Rounding kappa_p up can only enlarge the reported
integer, never invalidate it.

Inputs the machinery cannot compute (the local constants prod n_v, prod m_v
from bad-reduction data, and the rank/condition hypotheses) are opaque
positive integers with provenance strings.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError
from .padics import as_prime, kappa


def strict_integer_bound(raw):
    """Largest integer strictly less than raw."""
    raw = Fraction(raw)
    if raw.denominator == 1:
        return raw.numerator - 1
    return raw.numerator // raw.denominator


def fraction_decimal(fr, digits=4):
    """Exact decimal rendering of a Fraction, truncated toward zero."""
    fr = Fraction(fr)
    sign = "-" if fr < 0 else ""
    fr = abs(fr)
    whole, rest = divmod(fr.numerator, fr.denominator)
    frac = rest * 10**digits // fr.denominator
    return f"{sign}{whole}.{frac:0{digits}d}"


@dataclass
class BoundReport:
    """An evaluated bound: exact rational value, integer form, provenance."""

    theorem_id: str
    inputs: dict
    raw_value: Fraction
    integer_bound: int
    provenance: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "theorem_id": self.theorem_id,
            "inputs": {k: str(v) for k, v in sorted(self.inputs.items())},
            "raw_value": str(self.raw_value),
            "raw_value_decimal": fraction_decimal(self.raw_value),
            "integer_bound": self.integer_bound,
            "provenance": list(self.provenance),
        }


def _check_counts(**counts):
    for name, value in counts.items():
        if value < 0:
            raise DomainError(f"{name} must be nonnegative, got {value}")


def _check_local_constant(value, name):
    if value <= 0:
        raise DomainError(f"{name} must be a positive integer (local constants are sizes)")


def general_polynomial(g):
    return 16 * g**3 + 15 * g**2 - 16 * g + 10


def thm1_general(g, p, prod_nv, x_fp, nv_provenance="user-supplied"):
    """Rational-point bound, general curves: kappa_p (prod n_v) #X(F_p) (16g^3+15g^2-16g+10)."""
    if g < 2:
        raise DomainError("the general bound requires genus >= 2")
    p = as_prime(p)
    _check_local_constant(prod_nv, "prod n_v")
    _check_counts(x_fp=x_fp)
    poly = general_polynomial(g)
    raw = kappa(p) * prod_nv * x_fp * poly
    return BoundReport(
        "thm1_general",
        {"g": g, "p": int(p), "prod_nv": prod_nv, "x_fp": x_fp, "poly_factor": poly},
        raw,
        strict_integer_bound(raw),
        [
            f"kappa_{int(p)} upper approximation",
            f"prod n_v = {prod_nv} ({nv_provenance})",
            f"#X(F_{int(p)}) = {x_fp}",
            f"genus polynomial 16g^3+15g^2-16g+10 = {poly}",
            "per-disk bound kappa_p(16g^3+15g^2-16g+10) times the number of residue disks",
        ],
    )


def hyperelliptic_inner(g, x_fp, w_fp):
    return (2 * g + 2) * x_fp + 2 * g * w_fp + 8 * g**3 + 64 * g**2 + 20 * g + 16


def thm1_hyperelliptic(g, p, prod_nv, x_fp, w_fp, nv_provenance="user-supplied"):
    """Rational-point bound, hyperelliptic curves (p != 2g+1)."""
    if g < 2:
        raise DomainError("the hyperelliptic bound requires genus >= 2")
    p = as_prime(p)
    if int(p) == 2 * g + 1:
        raise DomainError(f"p = 2g+1 = {int(p)} is excluded by the hyperelliptic bound")
    _check_local_constant(prod_nv, "prod n_v")
    _check_counts(x_fp=x_fp, w_fp=w_fp)
    if w_fp > 2 * g + 2:
        raise DomainError(f"#W(F_p) = {w_fp} exceeds deg W = 2g+2 = {2 * g + 2}")
    inner = hyperelliptic_inner(g, x_fp, w_fp)
    raw = kappa(p) * prod_nv * inner
    return BoundReport(
        "thm1_hyperelliptic",
        {"g": g, "p": int(p), "prod_nv": prod_nv, "x_fp": x_fp, "w_fp": w_fp, "inner": inner},
        raw,
        strict_integer_bound(raw),
        [
            f"kappa_{int(p)} upper approximation",
            f"prod n_v = {prod_nv} ({nv_provenance})",
            f"inner = (2g+2)#X + 2g#W + 8g^3+64g^2+20g+16 = {inner}",
        ],
    )


def cor_potential_good(g):
    """Uniform bound for potential-good-reduction hyperelliptic curves: 24g^3+228g^2+120g+72."""
    if g < 2:
        raise DomainError("the corollary requires genus >= 2")
    raw = Fraction(24 * g**3 + 228 * g**2 + 120 * g + 72)
    return BoundReport(
        "cor_potential_good",
        {"g": g},
        raw,
        strict_integer_bound(raw),
        ["exact integer polynomial 24g^3 + 228g^2 + 120g + 72 (p = 3, Hasse-Weil maximal counts)"],
    )


def integral_inner(g, y_fp, w_fp):
    return 8 * g**3 + 44 * g**2 - 34 * g + 9 + (2 * g + 1) * y_fp + (2 * g - 1) * w_fp


def thm_integral(g, p, prod_mv, y_fp, w_fp=0, mv_provenance="user-supplied"):
    """Integral-point bound for odd hyperelliptic models (g = 1 has its own form)."""
    if g < 1:
        raise DomainError("the integral bound requires genus >= 1")
    p = as_prime(p)
    _check_local_constant(prod_mv, "prod m_v")
    _check_counts(y_fp=y_fp, w_fp=w_fp)
    if g == 1:
        raw = 2 * kappa(p) * prod_mv * y_fp
        return BoundReport(
            "thm_integral_g=1",
            {"g": g, "p": int(p), "prod_mv": prod_mv, "y_fp": y_fp},
            raw,
            strict_integer_bound(raw),
            [
                f"kappa_{int(p)} upper approximation",
                f"prod m_v = {prod_mv} ({mv_provenance})",
                f"2 kappa_p (prod m_v) #Y(F_{int(p)}), #Y = {y_fp}",
            ],
        )
    inner = integral_inner(g, y_fp, w_fp)
    raw = kappa(p) * prod_mv * inner
    return BoundReport(
        "thm_integral_g>1",
        {"g": g, "p": int(p), "prod_mv": prod_mv, "y_fp": y_fp, "w_fp": w_fp, "inner": inner},
        raw,
        strict_integer_bound(raw),
        [
            f"kappa_{int(p)} upper approximation",
            f"prod m_v = {prod_mv} ({mv_provenance})",
            f"inner = 8g^3+44g^2-34g+9 + (2g+1)#Y + (2g-1)#W = {inner}",
        ],
    )


def per_disk_bound(n_b, order, p):
    """Zero bound kappa_p (N_b + N) on one residue disk, as an integer.

    ``n_b`` is the disk's zero count (a reduction order or a ledger degree
    bound) and ``order`` the operator order N.  The count of zeros is
    nonnegative, so the strict bound is clamped at 0 (relevant only when
    N_b + N = 0, where the true statement is 'at most 0').
    """
    p = as_prime(p)
    if n_b < 0 or order < 0:
        raise DomainError("counts and orders are nonnegative")
    raw = kappa(p) * (n_b + order)
    return max(0, strict_integer_bound(raw))


def ledger_degrees(g):
    """Ledger degrees a zero count falls back to, by ``degree_ledger`` case:
    the 'hyper_nonW' output degree and the 'hyper_W' and 'integral_W'
    Weierstrass constants.  Valid for every g >= 1: the pipeline reads g = 1."""
    return {
        "hyper_nonW": 2 * (g + 1) + (4 * g + 1) * (2 * g + 2),
        "hyper_W": 2 * (4 * g**3 + 24 * g**2 - 2 * g + 4),
        "integral_W": 8 * g**3 + 36 * g**2 - 38 * g + 13,
    }


def degree_ledger(g, case):
    """Intermediate coefficient-space and output-space degrees from the proofs.

    Cases: 'general', 'hyper_nonW', 'hyper_W', 'integral_nonW', 'integral_W'.
    All entries are the displayed exact integers; the general case also
    carries the arithmetic-series identity sum_{i=g+1}^{3g} i = 4g^2+g.
    """
    if g < 2:
        raise DomainError("degree ledger requires genus >= 2")
    degrees = ledger_degrees(g)
    if case == "general":
        final = (8 * g**2 + 11 * g - 3) * (2 * g - 2) + 3 * (3 * g**2 + 3 * g + 1)
        return {
            "coefficient_space": {"D1": 8 * g**2 + 2 * g, "P": 3 * g * (2 * g + 1)},
            "output_space": {"D1": 8 * g**2 + 11 * g - 3, "P": 3 * (3 * g**2 + 3 * g + 1)},
            "index_sum_identity": sum(range(g + 1, 3 * g + 1)) == 4 * g**2 + g,
            "final_degree": final,
            "final_degree_formula": 16 * g**3 + 15 * g**2 - 19 * g + 9,
            "operator_order": 3 * g + 1,
            "final_plus_order": final + 3 * g + 1,
        }
    if case == "hyper_nonW":
        return {
            "output_space": {"inf": g + 1, "W": 4 * g + 1},
            "output_degree": degrees["hyper_nonW"],
            "both_sheets_constant": 16 * g**2 + 24 * g + 8,
            "operator_order": 2 * g + 2,
        }
    if case == "hyper_W":
        return {
            "coefficient_space_inf": 4 * g**3 + 8 * g**2 + 2 * g,
            "output_space_inf": degrees["hyper_W"] // 2,
            "weierstrass_constant": (4 * g + 2, degrees["hyper_W"]),
            "operator_order": 4 * g + 2,
        }
    if case == "integral_nonW":
        return {
            "output_space": {"W": 4 * g - 1, "inf": 2 * g - 3},
            "constant": 8 * g**2 + 4 * g - 4,
            "operator_order": 2 * g + 1,
        }
    if case == "integral_W":
        return {
            "coefficient_space_inf": 8 * g**3 + 4 * g**2 - 6 * g + 1,
            "output_space_inf": degrees["integral_W"],
            "weierstrass_constant": (4 * g, degrees["integral_W"]),
            "operator_order": 4 * g,
        }
    raise DomainError(f"unknown ledger case {case!r}")
