"""Differential operators sum g_i D^i and the determinant annihilator machinery.

Operators carry their coefficients either algebraically (CurveFunction) or as
series in a disk parameter, together with the base derivation: d/dx,
d/omega_0 = y d/dx, or d/dy = (2y/f') d/dx.  A series operator with base
'dx' is written in its disk parameter t, so there d/dx means d/dt.

Every operator meets a disk through one rewrite, ``local_operator(D,
chart)``: D becomes the series operator sum G_k (d/dt)^k in the disk's own
local parameter t, by Horner's rule over D = V(t) d/dt, V the expansion of
the base derivation applied to t.  Each Horner step, like
``compose_with_base``, is the one Leibniz composition with m d/dt.  Both
jobs read the local operator: niceness asks for p-integral G_k with the
leading one a unit, and D(F) is ``apply_series`` of it.

The annihilator of functions F_1 .. F_m built from an index set
S = {n_1 < ... < n_{m+1}} is

    sum_i (-1)^(i+1) (n_{m+1}! / n_i!) det(A^(i)) D^{n_i},

where A is the m x (m+1) matrix with entries (1/n_j!) D^{n_j} F_i and A^(i)
deletes column i.  Determinants are evaluated by a division-free expansion
shared across all minors (a subset dynamic program over columns); over
truncated series this loses no precision, unlike fraction-free elimination,
whose exact divisions by positive-order pivots would.

Rational series run on integers, as ``series.IntegerSeries``.  When every
F_i is one (``weierstrass_local_annihilator`` reads 1, x, ..., x^(m-1)
straight from the chart's power table) or a rational series, entry (i, j)
is the divided derivative (1/n_j!) D^{n_j} F_i of the ``IntegerSeries``, and
the same dynamic program runs on those, one ``convolve`` per product and
none with a known-zero factor.  Likewise ``compose_with_base`` of a series
operator whose coefficients and V are all rational series lifts the
coefficients over one common denominator and V over its own, and runs the
same ``_leibniz`` on them; and ``apply_series`` of such an operator to a
rational F sums the G_k F^(k) on them.  Each output coefficient becomes one
Fraction, at the end; curve functions and series over Q(sqrt d) keep the
generic path, through the same code.  No numerator is read here: the
integer work is ``IntegerSeries``' own.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from .errors import (
    DegenerateOperatorError,
    DomainError,
    PrecisionError,
    SearchExhaustedError,
)
from .funcfield import CurveFunction
from .hyperelliptic import residue_disks
from .padics import INFINITY, as_prime, reduce_mod, valuation
from .series import IntegerSeries, LaurentSeries, TruncatedSeries, rational_series


class DifferentialOperator:
    """sum g_i D^i with D the base derivation ('dx', 'omega0', or 'dy').

    Every coefficient is a CurveFunction or a TruncatedSeries; any other type
    raises DomainError.  Trailing zero coefficients are trimmed so the order
    is tight; a local operator (``local_operator``) keeps the order of the
    operator it rewrites.
    """

    __slots__ = ("coeffs", "base")

    def __init__(self, coeffs, base="dx"):
        if base not in ("dx", "omega0", "dy"):
            raise DomainError(f"unknown base derivation {base!r}")
        coeffs = list(coeffs)
        if not all(isinstance(c, (CurveFunction, TruncatedSeries)) for c in coeffs):
            raise DomainError("operator coefficients must be CurveFunction or TruncatedSeries")
        while coeffs and _is_zero_coeff(coeffs[-1]):
            coeffs.pop()
        if not coeffs:
            raise DegenerateOperatorError("all operator coefficients vanish")
        self.coeffs = tuple(coeffs)
        self.base = base

    @classmethod
    def _untrimmed(cls, coeffs):
        """A d/dt operator of order len(coeffs) - 1, even if its leading coefficient is known zero."""
        D = cls.__new__(cls)
        D.coeffs, D.base = tuple(coeffs), "dx"
        return D

    @property
    def order(self):
        return len(self.coeffs) - 1

    @property
    def leading(self):
        return self.coeffs[-1]

    def is_algebraic(self):
        return all(isinstance(c, CurveFunction) or _is_zero_coeff(c) for c in self.coeffs)

    def __repr__(self):
        return f"DifferentialOperator(order {self.order}, base d/{self.base})"


def _is_zero_coeff(c):
    if isinstance(c, LaurentSeries):
        c = c.series
    if isinstance(c, (TruncatedSeries, IntegerSeries)):
        return c.is_known_zero()
    return not c


@dataclass
class NicenessCertificate:
    """Witnesses for 'all coefficients p-integral, leading one a unit' at a disk.

    ``integrality_witness`` is the minimal coefficient valuation over all
    local coefficients (>= 0 required); ``unit_witness`` the valuation of the
    leading local coefficient's constant term (= 0 required).
    """

    disk: object
    ok: bool
    integrality_witness: object = None
    unit_witness: object = None
    failure_index: int = None
    failure_valuation: object = None

    def __bool__(self):
        return self.ok


# -- application ----------------------------------------------------------------


def apply_series(D, F):
    """Apply an operator with series coefficients to a series F.

    The series variable is the operator's own coordinate (base 'dx'), so the
    i-th derivative is the plain series derivative.  The result precision is
    T(F) - order, as each derivative costs one coefficient, capped by the
    truncations of the coefficients; an operator whose coefficients are all
    known zero gives a known-zero series of that precision.  When F and
    every nonzero coefficient are rational series, the coefficients are
    written over one common denominator and F over its own, and the sum of
    the G_k F^(k) runs on their integer numerators, one ``convolve`` per
    term; each output coefficient becomes one Fraction at the end.
    """
    if D.base != "dx":
        raise DomainError("series application of a d/omega0 operator needs a chart")
    if F.truncation <= D.order:
        raise PrecisionError(
            f"series precision {F.truncation} below operator order {D.order}",
            needed=D.order + 1,
        )
    terms = [(k, g) for k, g in enumerate(D.coeffs) if not _is_zero_coeff(g)]
    if any(isinstance(g, CurveFunction) for _, g in terms):
        raise DomainError("algebraic coefficients need apply_on_chart")
    if not terms:
        known = [g.truncation for g in D.coeffs if isinstance(g, TruncatedSeries)]
        return TruncatedSeries.zero(min(F.truncation - D.order, *known))
    coeffs = [g for _, g in terms]
    integer = all(map(rational_series, (F, *coeffs)))
    if integer:
        coeffs, F = IntegerSeries.over_one_denominator(coeffs), IntegerSeries.of(F)
    chain = _derivation_chain(F, terms[-1][0], "dx")
    out = None
    for (k, _), g in zip(terms, coeffs):
        term = g * chain[k]
        out = term if out is None else out + term
    return out.series() if integer else out


def _chart_derivation(chart, base):
    """The Laurent series V with base = V(t) d/dt: 1/(dx/dt), 1/(dy/dt) or y/(dx/dt)."""
    if base == "dx":
        return chart.dx_dt.inverse()
    if base == "dy":
        return chart.y.derivative().inverse()
    return chart.y / chart.dx_dt


def _leibniz(coeffs, m):
    """Coefficients of (sum_i c_i D^i) o (m D), for D = d/dx on curve functions
    or d/dt on (Laurent) series: slot i - k + 1 receives binom(i, k) c_i m^(k).

    Known-zero c_i and m^(k) are skipped; a slot nothing reaches is None,
    which counts as a zero c_i when the result is composed again.
    """
    chain = [(k, mk) for k, mk in enumerate(_derivation_chain(m, len(coeffs) - 1, "dx"))
             if not _is_zero_coeff(mk)]
    out = [None] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        if _is_zero_coeff(c):
            continue
        for k, mk in chain:
            if k > i:
                break
            term = c * mk if k in (0, i) else _scaled(c * mk, comb(i, k))
            j = i - k + 1
            out[j] = term if out[j] is None else out[j] + term
    return out


def local_operator(D, chart):
    """D written as sum G_k (d/dt)^k in the chart parameter t, base 'dx'.

    An operator that is already in the chart parameter (series coefficients,
    base 'dx', which then means d/dt) comes back unchanged.  Otherwise
    D = V(t) d/dt (``_chart_derivation``), and Horner's rule
    sum_i g_i D^i = ((g_N D + g_(N-1)) D + ...) D + g_0 composes in Laurent
    series, one ``_leibniz`` per step.  The G_k are regular parts cut to the
    chart's T: PoleError when one has a pole on the disk.  The result keeps
    the order of D even when its leading local coefficient is known zero, so
    niceness sees that slot.
    """
    if D.base == "dx" and not any(isinstance(g, CurveFunction) for g in D.coeffs):
        return D
    V = _chart_derivation(chart, D.base)
    L = []
    for g in reversed(D.coeffs):
        L = _leibniz(L, V)
        L[0] = chart.laurent(g) if isinstance(g, CurveFunction) else LaurentSeries.from_series(g)
    return DifferentialOperator._untrimmed(
        [TruncatedSeries.zero(chart.T) if G is None
         else TruncatedSeries(G.regular_part(context=f"disk {chart.disk}").coeffs[:chart.T])
         for G in L]
    )


def apply_on_chart(D, F, chart):
    """Apply D to a series F in the chart's parameter: the local operator of
    D (see ``local_operator``) applied to F as a series operator."""
    return apply_series(local_operator(D, chart), F)


def check_nice(D, p, chart=None):
    """Niceness certificate for D at a disk (or for plain series coefficients).

    With a chart, the coefficients scanned are those of ``local_operator(D,
    chart)``, with valuations taken through the chart.  Without a chart the
    coefficients must already be series in the local parameter with base
    'dx'.  Failure carries the offending coefficient index and valuation.
    """
    p = as_prime(p)
    if chart is None:
        if any(isinstance(g, CurveFunction) for g in D.coeffs):
            raise DomainError("algebraic coefficients require a chart")
        disk, coeffs, val = None, D.coeffs, (lambda c: valuation(c, p))
    else:
        disk, coeffs, val = chart.disk, local_operator(D, chart).coeffs, chart.valuation_of
    integrality = None
    fail_idx = fail_val = None
    for idx, g in enumerate(coeffs):
        for c in g.coeffs:
            if not c:
                continue
            v = val(c)
            if integrality is None or v < integrality:
                integrality = v
                if v < 0 and fail_idx is None:
                    fail_idx, fail_val = idx, v
    lead = coeffs[-1]
    if not lead.coeffs:
        raise PrecisionError("leading coefficient has no known terms", needed=2)
    unit_v = val(lead.coeffs[0]) if lead.coeffs[0] else INFINITY
    if fail_idx is not None:
        return NicenessCertificate(disk, False, integrality, unit_v, fail_idx, fail_val)
    if unit_v != 0:
        return NicenessCertificate(disk, False, integrality, unit_v, len(coeffs) - 1, unit_v)
    return NicenessCertificate(disk, True, integrality, unit_v)


# -- the determinant construction -------------------------------------------------


def _derivation_chain(F, max_order, base):
    """[F, DF, D^2 F, ...] up to max_order, for series or curve functions."""
    chain = [F]
    for _ in range(max_order):
        cur = chain[-1]
        if isinstance(cur, (TruncatedSeries, LaurentSeries, IntegerSeries)):
            chain.append(cur.derivative())
        elif base == "dx":
            chain.append(cur.d_dx())
        elif base == "dy":
            chain.append(cur.d_dy())
        else:
            chain.append(cur.d_by_omega0())
    return chain


def _index_set(S, funcs):
    """S sorted, after checking that it fits m = len(funcs) inputs and their truncations."""
    S = sorted(S)
    if len(set(S)) != len(S):
        raise DomainError("S must be strictly increasing")
    if len(S) != len(funcs) + 1:
        raise DomainError(f"need |S| = m+1 = {len(funcs) + 1}, got {len(S)}")
    for F in funcs:
        if isinstance(F, (TruncatedSeries, IntegerSeries)) and F.truncation <= S[-1]:
            raise PrecisionError(
                f"truncation {F.truncation} too low for derivative order {S[-1]}",
                needed=S[-1] + 1,
            )
    return S


def annihilator_matrix(S, funcs, base="dx"):
    """The m x (m+1) matrix with (i, j) entry (1/n_j!) D^{n_j} F_i."""
    S = _index_set(S, funcs)
    rows = []
    for F in funcs:
        chain = _derivation_chain(F, S[-1], base)
        row = []
        for n in S:
            c = Fraction(1, factorial(n))
            d = chain[n]
            row.append(_scaled(d, c))
        rows.append(row)
    return rows


def _minor_determinants(rows):
    """All maximal minors det(A^(i)) of an m x (m+1) matrix, one per deleted column.

    Division-free dynamic program: dp maps a k-subset of columns to the
    determinant of the first k rows restricted to it, expanding along the last
    row; every maximal minor shares the lower levels.  Entries need only
    ``*``, ``+``, ``-`` and unary ``-``: curve functions, series, or
    ``IntegerSeries`` divided derivatives.
    """
    m = len(rows)
    ncols = len(rows[0])
    dp = {frozenset(): None}
    for k in range(1, m + 1):
        row = rows[k - 1]
        nxt = {}
        for cols in combinations(range(ncols), k):
            colset = frozenset(cols)
            acc = None
            for pos, col in enumerate(cols):
                sub = dp[frozenset(colset - {col})]
                entry = row[col]
                term = entry if sub is None else entry * sub
                sign = 1 if (k - 1 - pos) % 2 == 0 else -1
                if acc is None:
                    acc = term if sign > 0 else -term
                else:
                    acc = acc + term if sign > 0 else acc - term
            nxt[colset] = acc
        dp = nxt
    full = frozenset(range(ncols))
    return [dp[frozenset(full - {i})] for i in range(ncols)]


def build_annihilator(S, funcs, base="dx"):
    """Nice-candidate annihilator of F_1..F_m from the index set S.

    D = sum_i (-1)^(i+1) (n_{m+1}!/n_i!) det(A^(i)) D^{n_i}; annihilates every
    F_i identically (bordered matrix with a repeated row).  ``IntegerSeries``
    and rational series inputs take the entries
    ``IntegerSeries.divided_derivative``, each row over the denominator of
    its F_i and each minor over the product of those; curve functions and
    series over Q(sqrt d) take the entries of ``annihilator_matrix``.  Both
    run ``_minor_determinants`` and give the same coefficients, types and
    truncations.
    """
    S = _index_set(S, funcs)
    if all(isinstance(F, IntegerSeries) or rational_series(F) for F in funcs):
        funcs = [F if isinstance(F, IntegerSeries) else IntegerSeries.of(F) for F in funcs]
        rows = [[F.divided_derivative(n) for n in S] for F in funcs]
        minors = [minor.series() for minor in _minor_determinants(rows)]
    else:
        minors = _minor_determinants(annihilator_matrix(S, funcs, base=base))
    if all(_is_zero_coeff(d) for d in minors):
        raise DegenerateOperatorError(
            "all maximal minors vanish: the input functions are linearly dependent"
        )
    n_top = S[-1]
    coeffs = [_zero_like(minors[0])] * (n_top + 1)
    for i, (n_i, det_i) in enumerate(zip(S, minors)):
        scalar = Fraction(factorial(n_top), factorial(n_i))
        signed = scalar if i % 2 == 0 else -scalar
        coeffs[n_i] = _scaled(det_i, signed)
    return DifferentialOperator(coeffs, base=base)


def _scaled(entry, c):
    """c * entry for a (Laurent) series or an algebraic operator entry."""
    return entry * c if isinstance(entry, CurveFunction) else entry.scale(c)


def _zero_like(template):
    if isinstance(template, TruncatedSeries):
        return TruncatedSeries.zero(template.truncation)
    return CurveFunction.const(template.model, 0)


def search_nice_S(funcs, p, N_max, chart=None):
    """Lexicographically smallest S whose annihilator is nice.

    Row-reduces the coefficient matrix (C_j(F_i) mod p) over F_p; the pivot
    columns give the first m indices (their minor has a unit determinant) and
    the next index above them completes S.  Fails when the reductions are
    linearly dependent mod (p, x^N_max).  Pass the chart when the expansions
    carry quadratic-extension coefficients.
    """
    p = as_prime(p)
    m = len(funcs)
    width = min(N_max, min(F.truncation for F in funcs))
    if chart is not None:
        val, reduce_ = chart.valuation_of, chart.reduce_of
    else:
        val, reduce_ = (lambda c: valuation(c, p)), (lambda c: reduce_mod(c, p))
    mat = []
    for F in funcs:
        row = []
        for j in range(width):
            c = F.coeffs[j]
            if val(c) < 0:
                raise DomainError(f"coefficient {c} is not p-integral")
            row.append(reduce_(c) if c else 0)
        mat.append(row)
    pivots = []
    r = 0
    for col in range(width):
        pivot_row = next((i for i in range(r, m) if mat[i][col] % p), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = pow(mat[r][col], -1, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(m):
            if i != r and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [(a - factor * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    if r < m:
        raise SearchExhaustedError(
            f"inputs are linearly dependent mod ({p}, x^{N_max}); "
            "raise N_max or change disk"
        )
    return pivots + [pivots[-1] + 1]


def compose_with_base(D1, base, chart=None):
    """D1 composed with one copy of the base derivation: D(F) = D1(base F).

    Matching bases shift the coefficient list.  A d/dx operator composed with
    d/omega0 = m d/dx expands through ``_leibniz`` into a d/dx operator with
    leading coefficient g_N * m.  For algebraic coefficients m = y; the
    result's niceness must be re-checked where y is not a unit (Weierstrass
    disks flag this).  For series coefficients, which are already written in
    a disk coordinate t (d/dx there means d/dt), pass the disk's chart:
    m = V, the expansion of y / (dx/dt).  When V and every g_i are rational
    series (always so on a Weierstrass chart), the g_i are written over one
    common denominator and V over its own, ``_leibniz`` runs on their integer
    numerators, and each output coefficient becomes one Fraction at the end;
    coefficients, types and truncations are those of the Fraction path.
    """
    if base == D1.base:
        return DifferentialOperator([_zero_like(D1.leading), *D1.coeffs], base=D1.base)
    if D1.base != "dx" or base != "omega0":
        raise DomainError("composition of a d/omega0 operator with d/dx is not supported")
    if D1.is_algebraic():
        model = next(c.model for c in D1.coeffs if isinstance(c, CurveFunction))
        out = _leibniz(D1.coeffs, CurveFunction.y(model))
    elif chart is None:
        raise DomainError("series coefficients need the chart of their disk")
    else:
        V = _chart_derivation(chart, "omega0").regular_part(context=f"disk {chart.disk}")
        if all(map(rational_series, (V, *D1.coeffs))):
            coeffs = IntegerSeries.over_one_denominator(D1.coeffs)
            out = [e if e is None else e.series() for e in _leibniz(coeffs, IntegerSeries.of(V))]
        else:
            out = _leibniz(D1.coeffs, V)
    # the nonzero leading g_N reaches every slot but the first
    out[0] = _zero_like(D1.leading)
    return DifferentialOperator(out, base="dx")


def weierstrass_orders(model):
    """S = {0, 2, ..., 2(m-1), 2m-1}, the derivative orders of the Weierstrass
    annihilators of 1, x, ..., x^(m-1); m = 2g+1 on even models, 2g on odd."""
    m = model.basis_size
    return [2 * i for i in range(m)] + [2 * m - 1]


def weierstrass_annihilator(model, p=None):
    """The all-Weierstrass-disks annihilator of 1, x, ..., x^(m-1).

    The derivative orders are S = ``weierstrass_orders(model)`` with respect
    to d/omega_0, so the leading coefficient is (up to sign) det B with B the
    even-order derivative matrix.  When p is given, det B is verified to be a
    unit at every Weierstrass disk; a zero reduction would contradict the unit
    lemma and raises a bug-trap error.
    """
    m = model.basis_size
    funcs = []
    x = CurveFunction.x(model)
    cur = CurveFunction.const(model, 1)
    for _ in range(m):
        funcs.append(cur)
        cur = cur * x
    D1 = build_annihilator(weierstrass_orders(model), funcs, base="omega0")
    if p is not None:
        _verify_unit_on_weierstrass(D1, model, p)
    return D1


def weierstrass_local_annihilator(chart):
    """The Weierstrass annihilator with divided powers in the disk coordinate.

    Same index set and annihilated functions as ``weierstrass_annihilator``,
    but built from the expansions of x^j at the given Weierstrass chart, so
    the derivation is d/dt with t = y.  Divided d/dt powers keep p-integrality
    for every odd p, so this version is nice wherever det(B) is a unit.  The
    d/omega_0-normalized algebraic form loses integrality whenever p <= max S,
    because the normalizing factorials n_j! stop being p-units; the two
    operators share the order and the leading coefficients agree at the disk
    center up to a unit (a triangular change between divided-power bases).
    """
    model = chart.model
    if chart.disk.kind != "affine_weierstrass":
        raise DomainError("local Weierstrass annihilator needs a Weierstrass chart")
    # x^k straight from the chart's power table, cut to T coefficients: at
    # x_w = 0 the table knows x^k to t^(2k + T - 2)
    funcs = [series.shifted(order, chart.T)
             for order, series in map(chart.power, range(model.basis_size))]
    return build_annihilator(weierstrass_orders(model), funcs, base="dx")


def _verify_unit_on_weierstrass(D1, model, p):
    lead = D1.coeffs[-1]
    for disk in residue_disks(model, p):
        if disk.kind == "affine_weierstrass" and lead.value_mod_p(disk.x_bar, 0, p) == 0:
            raise DomainError(
                f"internal contradiction: det(B) vanishes at the Weierstrass "
                f"disk x = {disk.x_bar} mod {p} (unit lemma violated)"
            )
