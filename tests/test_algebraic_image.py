"""The algebraic image D(G) derived from the operator against hand formulas.

``coleman.algebraic_image`` applies the planned operator to G symbolically,
atom by atom.  The two closed forms below are the hand-derived images of the
order-2 operator (d/omega_0)^2 and of the non-Weierstrass operator
(d/dx)^q (d/omega_0); the symbolic image must equal them as functions, print
the same and have the same polar degree, on random curves of genus 1-3 of both
model kinds.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from perfbench_support import workload_cases

from qcbound.bounds import ledger_degrees
from qcbound.coleman import ColemanSpec, algebraic_image
from qcbound.diffops import DifferentialOperator
from qcbound.errors import DomainError
from qcbound.funcfield import CurveFunction, RationalFunc
from qcbound.hyperelliptic import CurveModel
from qcbound.pipeline import nonweierstrass_candidate, order2_candidate, polar_degree, uses_order2_shape
from qcbound.polys import Poly

# -- the hand formulas ------------------------------------------------------------


def reference_order2(spec):
    """(d/omega_0)^2 G = sum_j a_0j x^j + sum_i a_i (d/omega_0)(x^i) + (d/omega_0)^2 h."""
    C = spec.curve
    out = CurveFunction.const(C, 0)
    x_pow = CurveFunction.const(C, 1)
    for j, a in enumerate(spec.a_matrix[0]):
        if a:
            out = out + x_pow * a
        x_pow = x_pow * CurveFunction.x(C)
    x_pow = CurveFunction.const(C, 1)
    for i, a in enumerate(spec.a_vector):
        if a and i:        # (d/omega_0)^2 int omega_i = (d/omega_0)(x^i); zero for i = 0
            out = out + x_pow.d_by_omega0() * a
        x_pow = x_pow * CurveFunction.x(C)
    if spec.h:
        out = out + spec.h.d_by_omega0().d_by_omega0()
    return out


def reference_nonweierstrass(spec):
    """(d/dx)^q (d/omega_0) G, q = 2g+1 or 2g: single integrals die, double
    integrals leave the binomial sum over derivatives of x^j/y, h contributes
    (d/dx)^q (y h') and eta contributes (d/dx)^q (y eta)."""
    C = spec.curve
    q = C.basis_size
    n = len(spec.basis)
    # chains[j][m] = (d/dx)^m (x^j / y)
    chains = []
    for j in range(n):
        chain = [CurveFunction.x_power_over_y(C, j)]
        for _ in range(q - 1):
            chain.append(chain[-1].d_dx())
        chains.append(chain)
    out = CurveFunction.const(C, 0)
    for i in range(n):
        for j in range(n):
            a = spec.a_matrix[i][j]
            if not a:
                continue
            falling = 1
            for k in range(min(i, q - 1) + 1):
                piece = CurveFunction(C, Poly.x_power(i - k)) * chains[j][q - k - 1]
                out = out + piece * (comb(q, k) * falling * a)
                falling *= i - k
    for F in (spec.eta * CurveFunction.y(C) if spec.eta else None,
              spec.h.d_by_omega0() if spec.h else None):
        if F is not None:
            for _ in range(q):
                F = F.d_dx()
            out = out + F
    return out


def assert_same_image(image, expect):
    assert image == expect
    assert repr(image) == repr(expect)
    if expect:
        assert polar_degree(image) == polar_degree(expect)


# -- random specs -----------------------------------------------------------------

small = st.integers(-3, 3).map(Fraction)


@st.composite
def curves(draw):
    """Monic squarefree f of genus 1-3, odd or even."""
    kind = draw(st.sampled_from(["odd", "even"]))
    genus = draw(st.integers(1, 3))
    deg = 2 * genus + (1 if kind == "odd" else 2)
    f = Poly(draw(st.lists(small, min_size=deg, max_size=deg)) + [1])
    try:
        return CurveModel(kind, f)
    except DomainError:
        assume(False)


@st.composite
def specs(draw, order2=False):
    """A spec on a random curve: sparse A and a, h in the allowed space and, off
    the order-2 shape, eta = x^j/y or an eta with a finite pole."""
    C = draw(curves().filter(lambda C: C.kind == "odd") if order2 else curves())
    g, n = C.genus, C.basis_size
    entries = st.one_of(st.just(Fraction(0)), small)
    rows = n if not order2 else 1
    A = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(rows)]
    A += [[Fraction(0)] * n for _ in range(n - rows)]
    a = draw(st.lists(entries, min_size=n, max_size=n))
    deg_a, deg_b = (2 * g + 2, g + 1) if C.kind == "even" else (2 * g, g - 1)
    h = CurveFunction(C, Poly(draw(st.lists(small, max_size=deg_a + 1))),
                      Poly(draw(st.lists(small, max_size=deg_b + 1))))
    eta = None
    if not order2:
        eta = draw(st.one_of(
            st.none(),
            st.integers(0, n).map(lambda j: CurveFunction.x_power_over_y(C, j)),
            st.integers(-3, 3).map(lambda s: CurveFunction(C, RationalFunc(Poly([1]), Poly([-s, 1])))),
        ))
    return ColemanSpec(curve=C, p=7, a_matrix=A, a_vector=a, h=h, eta=eta)


class TestAgainstHandFormulas:
    @settings(max_examples=15, deadline=None)
    @given(specs())
    def test_nonweierstrass_image(self, spec):
        assert_same_image(nonweierstrass_candidate(spec), reference_nonweierstrass(spec))

    @settings(max_examples=15, deadline=None)
    @given(specs(order2=True))
    def test_order2_image(self, spec):
        assert uses_order2_shape(spec)
        assert_same_image(order2_candidate(spec), reference_order2(spec))

    def test_finite_pole_eta(self):
        C = CurveModel("odd", [1, 1, 0, 1])
        spec = ColemanSpec(
            curve=C, p=5,
            a_matrix=[[Fraction(0)] * 2 for _ in range(2)],
            a_vector=[Fraction(1), Fraction(0)],
            eta=CurveFunction(C, RationalFunc(Poly([1]), Poly([-2, 1]))),
        )
        assert_same_image(nonweierstrass_candidate(spec), reference_nonweierstrass(spec))

    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("workload", ["genus2_even_p7", "genus1_batch"])
    def test_benchmark_specs(self, workload, seed):
        for case in workload_cases(workload, seed):
            spec = case.spec
            if uses_order2_shape(spec):
                assert_same_image(order2_candidate(spec), reference_order2(spec))
            assert_same_image(nonweierstrass_candidate(spec), reference_nonweierstrass(spec))


class TestLiveIntegrals:
    def spec(self):
        C = CurveModel("odd", [1, 1, 0, 1])
        return ColemanSpec(curve=C, p=5, a_matrix=[[1, 2], [3, 0]], a_vector=[0, 1])

    def test_order2_operator_off_its_shape(self):
        # (d/omega_0)^2 leaves (d/omega_0)(x) int omega_0 from the row-1 entry
        spec = self.spec()
        C = spec.curve
        D = DifferentialOperator([CurveFunction.const(C, 0)] * 2 + [CurveFunction.const(C, 1)], base="omega0")
        with pytest.raises(DomainError, match="leaves int omega_0 in G"):
            algebraic_image(D, spec)

    def test_first_derivative(self):
        spec = self.spec()
        C = spec.curve
        D = DifferentialOperator([CurveFunction.const(C, 0), CurveFunction.const(C, 1)], base="dx")
        with pytest.raises(DomainError, match="leaves int omega_0 in G"):
            algebraic_image(D, spec)

    def test_series_coefficients_rejected(self):
        from qcbound.series import TruncatedSeries

        D = DifferentialOperator([TruncatedSeries.one(4)], base="dx")
        with pytest.raises(DomainError, match="algebraic coefficients"):
            algebraic_image(D, self.spec())


@pytest.mark.parametrize("workload", ["genus2_even_p7", "genus1_batch"])
def test_nonweierstrass_degree_within_ledger(workload):
    # the certified polar degree never exceeds the proof's output-ledger degree
    for seed in range(16):
        for case in workload_cases(workload, seed):
            spec = case.spec
            if uses_order2_shape(spec):
                continue
            cand = nonweierstrass_candidate(spec)
            if cand:
                assert polar_degree(cand) <= ledger_degrees(spec.curve.genus)["hyper_nonW"], case.spec_id
