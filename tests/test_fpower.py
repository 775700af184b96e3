"""Property tests for CurveFunction over powers of f.

The gcd-reduced arithmetic it replaced is kept here as the reference: a pair
of ``RefRational`` parts a(x) + b(x) y, each reduced by a gcd after every
operation, and the polar degree read from the norm a^2 - b^2 f along W and
from Laurent expansions at infinity.  Every operation on the f-power form
must give the same reduced view, and the same polar degree.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from perfbench_support import workload_cases

from qcbound import funcfield, polys
from qcbound.errors import DomainError, PrecisionError
from qcbound.funcfield import CurveFunction, RationalFunc, infinite_chart, infinity_pole_order
from qcbound.hyperelliptic import CurveModel
from qcbound.pipeline import nonweierstrass_candidate, order2_candidate, polar_degree, uses_order2_shape
from qcbound.polys import Poly, poly_gcd

ARITH = settings(max_examples=60, deadline=None)


# -- the gcd-reduced reference ----------------------------------------------------


class RefRational:
    """num/den, gcd-reduced with a monic denominator after every operation."""

    def __init__(self, num, den=Poly([1])):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num.exact_div(g), den.exact_div(g)
        else:
            den = Poly([1])
        lead = den.leading
        self.num, self.den = num * Poly([1 / lead]), den.monic()

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        return RefRational(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RefRational(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RefRational):
            other = RefRational(other if isinstance(other, Poly) else Poly([other]))
        return RefRational(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return RefRational(self.num * other.den, self.den * other.num)

    def derivative(self):
        return RefRational(
            self.num.derivative() * self.den - self.num * self.den.derivative(), self.den * self.den
        )

    def key(self):
        return self.num, self.den

    def __repr__(self):
        return repr(RationalFunc(self.num, self.den))


class RefFunction:
    """a(x) + b(x) y with gcd-reduced RefRational parts."""

    def __init__(self, model, a, b):
        self.model, self.a, self.b = model, a, b

    def __add__(self, other):
        return RefFunction(self.model, self.a + other.a, self.b + other.b)

    def __mul__(self, other):
        f = RefRational(self.model.f)
        return RefFunction(self.model, self.a * other.a + self.b * other.b * f,
                           self.a * other.b + self.b * other.a)

    def norm(self):
        return self.a * self.a - self.b * self.b * RefRational(self.model.f)

    def inverse(self):
        n = self.norm()
        return RefFunction(self.model, self.a / n, (-self.b) / n)

    def d_dx(self):
        f, fp = RefRational(self.model.f), RefRational(self.model.f.derivative())
        return RefFunction(self.model, self.a.derivative(),
                           self.b.derivative() + (self.b * fp) / (f * 2))

    def d_by_omega0(self):
        f, fp = RefRational(self.model.f), RefRational(self.model.f.derivative())
        return RefFunction(self.model, self.b.derivative() * f + self.b * fp * Fraction(1, 2),
                           self.a.derivative())

    def d_dy(self):
        F = self.d_by_omega0()
        two_over_fp = RefRational(Poly([2]), self.model.f.derivative())
        return RefFunction(self.model, F.a * two_over_fp, F.b * two_over_fp)

    def key(self):
        return self.a.key(), self.b.key()

    def __repr__(self):
        if not self.b:
            return f"CurveFunction({self.a!r})"
        return f"CurveFunction({self.a!r} + ({self.b!r})*y)"


def view_key(F):
    return (F.a.num, F.a.den), (F.b.num, F.b.den)


def _mult_along_f(poly, f):
    """(min, max) multiplicity of the roots of f in poly, by gcd towers."""
    max_mult, q = 0, poly
    while (g := poly_gcd(q, f)).degree > 0:
        max_mult, q = max_mult + 1, q.exact_div(g)
    min_mult, q = 0, poly
    while poly_gcd(q, f).degree == f.degree:
        min_mult, q = min_mult + 1, q.exact_div(f)
    return min_mult, max_mult


def reference_weierstrass_order(F):
    """min ord_w(F) over W from the norm P/Q: at each w one of P, Q vanishes."""
    n = F.norm()
    min_p, _ = _mult_along_f(n.num, F.model.f)
    _, max_q = _mult_along_f(n.den, F.model.f)
    return -max_q if max_q > 0 else min_p


def reference_infinity_pole_order(F):
    """Max of -ord(F) over the infinite places, by expansion."""
    degs = [r.num.degree + r.den.degree for r in (F.a, F.b) if r]
    T = 2 * (max(degs) + F.model.genus + 2) + 6
    for _ in range(4):
        try:
            return max(-infinite_chart(F.model, label, T).laurent(F).t_order()
                       for label in F.model.infinite_points())
        except PrecisionError:
            T *= 2
    raise PrecisionError("order at infinity not resolved")


def reference_finite_degree(F):
    total = 0
    for part in (F.a, F.b):
        den = part.den
        while (g := poly_gcd(den, F.model.f)).degree > 0:
            den = den.exact_div(g)
        total += 2 * den.degree
    return total


def reference_polar_degree(F):
    inf_deg = 2 if F.model.kind == "even" else 1
    return (max(reference_infinity_pole_order(F), 0) * inf_deg
            + max(-reference_weierstrass_order(F), 0) * F.model.f.degree
            + reference_finite_degree(F))


def reference_of(F):
    """The reference function with F's reduced view."""
    return RefFunction(F.model, RefRational(F.a.num, F.a.den), RefRational(F.b.num, F.b.den))


# -- strategies -------------------------------------------------------------------

small = st.integers(-4, 4)
coefficient = st.builds(Fraction, small, st.integers(1, 3))


@st.composite
def curves(draw):
    """Monic squarefree f of genus 1 or 2, odd or even, often with integer roots."""
    kind = draw(st.sampled_from(["odd", "even"]))
    genus = draw(st.integers(1, 2))
    deg = 2 * genus + (1 if kind == "odd" else 2)
    roots = draw(st.lists(st.integers(-3, 3), max_size=deg, unique=True))
    rest = Poly(draw(st.lists(small, min_size=deg - len(roots), max_size=deg - len(roots))) + [1])
    f = rest
    for r in roots:
        f = f * Poly([-r, 1])
    try:
        return CurveModel(kind, f), roots
    except DomainError:
        assume(False)


@st.composite
def parts(draw, model, roots):
    """A rational function of x whose denominator mixes f, factors of f and
    factors coprime to f, or a polynomial."""
    num = Poly(draw(st.lists(coefficient, max_size=4)))
    factors = [model.f] + [Poly([-r, 1]) for r in roots] + [Poly([-s, 1]) for s in (-2, 5)] + [Poly([3, 0, 1])]
    den = Poly([draw(st.sampled_from([1, 2, Fraction(1, 3)]))])
    for factor in draw(st.lists(st.sampled_from(factors), max_size=3)):
        den = den * factor
    return num, den


@st.composite
def function_pairs(draw, count=2):
    """(model, [(CurveFunction, RefFunction)] * count) with equal values."""
    model, roots = draw(curves())
    out = []
    for _ in range(count):
        (na, da), (nb, db) = draw(parts(model, roots)), draw(parts(model, roots))
        F = CurveFunction(model, RationalFunc(na, da), RationalFunc(nb, db))
        out.append((F, RefFunction(model, RefRational(na, da), RefRational(nb, db))))
    return model, out


def assert_same(F, R):
    assert view_key(F) == R.key()
    assert repr(F) == repr(R)


# -- arithmetic -------------------------------------------------------------------


class TestAgainstGcdReference:
    @ARITH
    @given(function_pairs())
    def test_input_round_trip(self, data):
        # F * 1 forgets the input's reduced view and rebuilds it from the form
        _, [(F, R), _] = data
        assert_same(F * 1, R)
        assert F * 1 == F and hash(F * 1) == hash(F)

    @ARITH
    @given(function_pairs())
    def test_sum_and_product(self, data):
        _, [(F, R), (G, S)] = data
        assert_same(F + G, R + S)
        assert_same(F * G, R * S)
        assert_same(F - G, R + RefFunction(R.model, -S.a, -S.b))

    @ARITH
    @given(function_pairs())
    def test_derivations(self, data):
        _, [(F, R), _] = data
        assert_same(F.d_dx(), R.d_dx())
        assert_same(F.d_by_omega0(), R.d_by_omega0())
        assert_same(F.d_dy(), R.d_dy())
        assert_same(F.d_dx().d_dx(), R.d_dx().d_dx())

    @settings(max_examples=30, deadline=None)
    @given(function_pairs(count=1),
           st.lists(st.sampled_from(["d_dx", "d_by_omega0", "d_dy"]), min_size=2, max_size=4))
    def test_repeated_derivations_with_E(self, data, names):
        _, [(F, R)] = data
        assume(F.E.degree > 0)
        for name in names:
            F, R = getattr(F, name)(), getattr(R, name)()
            assert_same(F, R)

    @pytest.mark.parametrize("name", ["d_dx", "d_by_omega0", "d_dy"])
    def test_repeated_derivatives_grow_E_linearly(self, name):
        # E = (x - 4)^2 (x^2 + 3) (x + 2)^2 is coprime to f, and its radical
        # has degree 4: each derivation multiplies E by its radical, and d/dy
        # also brings f', so after the first step E grows by a fixed degree
        C = CurveModel("even", Poly([0, -1, 0, 1]) * Poly([2, 0, 0, 1]))
        E = Poly([-4, 1]) * Poly([-4, 1]) * Poly([3, 0, 1]) * Poly([2, 1])
        F = CurveFunction(C, RationalFunc(Poly([1, 2]), E), RationalFunc(Poly([0, 0, 3]), Poly([2, 1])))
        R = reference_of(F)
        degrees = [F.E.degree]
        for _ in range(6):
            F, R = getattr(F, name)(), getattr(R, name)()
            assert_same(F, R)
            degrees.append(F.E.degree)
        fp_degree = C.f.degree - 1
        step = 4 + 2 * fp_degree if name == "d_dy" else 4
        assert degrees[0] == 6
        assert [b - a for a, b in zip(degrees[1:], degrees[2:])] == [step] * 5

    def test_dy_powers_carry_odd_powers_of_fprime(self):
        # (d/dy)^n x^4 lies over f'^(2n - 1), not over f'^(2^n - 1)
        C = CurveModel("even", Poly([0, -1, 0, 1]) * Poly([2, 0, 0, 1]))
        fp = C.f.derivative().monic()
        F = CurveFunction(C, Poly.x_power(4))
        for n in range(1, 10):
            F = F.d_dy()
            assert F.E == funcfield._f_power(fp, 2 * n - 1)

    @ARITH
    @given(function_pairs())
    def test_inverse(self, data):
        _, [(F, R), (G, S)] = data
        assume(F)
        assert_same(F.inverse(), R.inverse())
        assert_same(G * F.inverse(), S * R.inverse())

    @ARITH
    @given(function_pairs())
    def test_equality_and_hash(self, data):
        _, [(F, R), (G, S)] = data
        H = G * F.d_dx() + F      # built through the form, not from an input view
        T = S * R.d_dx() + R
        assert_same(H, T)
        assert (H == F) == (T.key() == R.key())
        assert (F == G) == (R.key() == S.key())
        assert H - F == G * F.d_dx()
        assert hash(H - F) == hash(G * F.d_dx())

    def test_denominator_sharing_a_root_with_f(self):
        # f = x(x^2 + 3): 1/x is f-power form (x^2 + 3)/f, with E = 1
        C = CurveModel("odd", [0, 3, 0, 1])
        inv_x = CurveFunction(C, RationalFunc(Poly([1]), Poly([0, 1])))
        assert (inv_x.k, inv_x.E) == (1, Poly([1]))
        R = RefFunction(C, RefRational(Poly([1]), Poly([0, 1])), RefRational(Poly()))
        assert_same(inv_x * 1, R)
        assert_same(inv_x.d_dx(), R.d_dx())
        assert_same(CurveFunction.x(C).inverse(), R)
        assert CurveFunction.x(C).inverse().E == Poly([1])

    def test_arithmetic_on_f_powers_runs_no_gcd(self, monkeypatch):
        def no_gcd(*args):
            raise AssertionError("gcd called")

        monkeypatch.setattr(funcfield, "poly_gcd", no_gcd)
        monkeypatch.setattr(polys, "poly_gcd", no_gcd)
        C = CurveModel("even", Poly([0, -1, 0, 1]) * Poly([2, 0, 0, 1]))
        F = CurveFunction.x_power_over_y(C, 2) + CurveFunction(C, Poly([1, 2]), Poly([0, 3]))
        G = F * F - CurveFunction.y(C) * 5
        for H in (G.d_dx(), G.d_by_omega0(), (G * F).d_dx().d_dx()):
            assert H.E == Poly([1])
            assert H


# -- polar degree ----------------------------------------------------------------


class TestPolarDegreeAgainstNormAndExpansion:
    @settings(max_examples=25, deadline=None)
    @given(function_pairs(count=1))
    def test_random_functions(self, data):
        _, [(F, R)] = data
        assume(F)
        G = F.d_dx() * F + F.d_by_omega0()   # a form that is not reduced
        assume(G)
        for H in (F, G):
            assert polar_degree(H) == reference_polar_degree(reference_of(H))

    @pytest.mark.parametrize("genus", [1, 2])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_even_model_cancellation_at_one_infinite_point(self, genus, sign):
        # y + sign x^(g+1) + lower: the leading terms cancel on one sheet only
        f = Poly([5, 0, 1]) * Poly([1, 1] + [0] * (2 * genus - 2) + [1])
        C = CurveModel("even", f)
        y = CurveFunction.y(C)
        for lower in (Poly([1]), Poly([2, -3]), Poly([0] * genus + [7])):
            F = y + CurveFunction(C, Poly.x_power(genus + 1, sign) + lower)
            poles = [-infinite_chart(C, label, 40).laurent(F).t_order() for label in C.infinite_points()]
            assert min(poles) < max(poles) == genus + 1
            assert infinity_pole_order(F) == genus + 1
            for H in (F, F.d_dx(), F * F.d_by_omega0()):
                assert polar_degree(H) == reference_polar_degree(reference_of(H))

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("workload", ["genus2_even_p7", "genus1_batch"])
    def test_every_benchmark_candidate(self, workload, seed):
        for case in workload_cases(workload, seed):
            spec = case.spec
            cand = order2_candidate(spec) if uses_order2_shape(spec) else nonweierstrass_candidate(spec)
            if cand:
                assert polar_degree(cand) == reference_polar_degree(reference_of(cand)), case.spec_id
