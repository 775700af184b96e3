import dataclasses
import functools
import json
import random
from fractions import Fraction

import pytest
from perfbench_support import workload_cases

from qcbound.coleman import (
    ColemanSpec,
    DiskConstants,
    certify_algebraic,
    default_basis,
    expand_double_integral,
    expand_G,
    expand_single_integral,
    load_spec_file,
    parse_spec_data,
)
from qcbound.diffops import DifferentialOperator, apply_on_chart
from qcbound.errors import DomainError, PoleError
from qcbound.funcfield import CurveFunction, chart_for, nonweierstrass_chart, weierstrass_chart
from qcbound.hyperelliptic import CurveModel, DiskDescriptor, residue_disks
from qcbound.polys import Poly
from qcbound.series import IntegerSeries, TruncatedSeries


def elliptic():
    return CurveModel("odd", [1, 1, 0, 1])


def chart_01(T=10, p=5):
    return nonweierstrass_chart(elliptic(), DiskDescriptor("affine_nonweierstrass", 0, 1), p, T)


def const_quot(curve, c):
    return CurveFunction.const(curve, c)


class TestSingleIntegral:
    def test_dx_integrates_to_t(self):
        C = elliptic()
        chart = chart_01()
        I = expand_single_integral(const_quot(C, 1), chart)
        assert I.coeffs[0] == 0 and I.coeffs[1] == 1
        assert all(not c for c in I.coeffs[2:])

    def test_omega0_example(self):
        C = elliptic()
        I = expand_single_integral(CurveFunction.x_power_over_y(C, 0), chart_01())
        assert I.coeffs[0] == 0
        assert I.coeffs[1] == 1
        assert I.coeffs[2] == Fraction(-1, 4)

    def test_constant_shift(self):
        C = elliptic()
        chart = chart_01()
        f = CurveFunction.x_power_over_y(C, 1)
        base = expand_single_integral(f, chart, Fraction(0))
        shifted = expand_single_integral(f, chart, Fraction(5))
        assert shifted.coeffs[0] == 5
        assert shifted.coeffs[1:] == base.coeffs[1:]

    def test_defining_ode(self):
        C = elliptic()
        chart = chart_01()
        f = CurveFunction.x_power_over_y(C, 1)
        I = expand_single_integral(f, chart)
        lhs = I.derivative()
        rhs = (chart.laurent(f) * chart.dx_dt).regular_part()
        assert lhs.agrees_with(rhs, upto=min(lhs.truncation, rhs.truncation))

    def test_weierstrass_disk_regular_differential(self):
        # x^i/y has a pole at a Weierstrass center but omega_i does not
        C = CurveModel("odd", [0, -1, 0, 1])          # y^2 = x^3 - x
        disk = DiskDescriptor("affine_weierstrass", 0, 0)
        chart = weierstrass_chart(C, disk, 5, 12)
        I = expand_single_integral(CurveFunction.x_power_over_y(C, 0), chart)
        assert I.coeffs[0] == 0
        assert I.truncation >= 10

    def test_pole_on_disk(self):
        C = elliptic()
        chart = chart_01()
        bad = CurveFunction.x(C).inverse()            # dx/x has a pole at x=0
        with pytest.raises(PoleError):
            expand_single_integral(bad, chart)


class TestDoubleIntegral:
    def test_dt_dt(self):
        C = elliptic()
        chart = chart_01()
        one = const_quot(C, 1)
        J = expand_double_integral(one, one, chart)
        assert J.coeffs[2] == Fraction(1, 2)
        assert J.coeffs[0] == 0 and J.coeffs[1] == 0

    def test_shuffle_square(self):
        C = elliptic()
        chart = chart_01(T=12)
        f0 = CurveFunction.x_power_over_y(C, 0)
        J = expand_double_integral(f0, f0, chart)
        I = expand_single_integral(f0, chart)
        half_sq = (I * I).scale(Fraction(1, 2))
        assert J.agrees_with(half_sq, upto=min(J.truncation, half_sq.truncation))

    def test_initial_value(self):
        C = elliptic()
        chart = chart_01()
        f0 = CurveFunction.x_power_over_y(C, 0)
        J = expand_double_integral(f0, f0, chart, Fraction(2), Fraction(7))
        assert J.coeffs[0] == 7

    def test_defining_ode(self):
        C = elliptic()
        chart = chart_01(T=12)
        f0 = CurveFunction.x_power_over_y(C, 0)
        f1 = CurveFunction.x_power_over_y(C, 1)
        c_j = Fraction(3)
        J = expand_double_integral(f0, f1, chart, c_j)
        I = expand_single_integral(f1, chart, c_j)
        lhs = J.derivative()
        rhs = (chart.laurent(f0) * chart.dx_dt).regular_part() * I
        assert lhs.agrees_with(rhs, upto=min(lhs.truncation, rhs.truncation))


def elliptic_spec(a=Fraction(2), b=Fraction(3), p=5, T=16):
    C = elliptic()
    return ColemanSpec(
        curve=C,
        p=p,
        a_matrix=[[a, 1], [0, 0]],
        a_vector=[0, 0],
        h=CurveFunction.const(C, b),
        T=T,
    )


def affine_charts(spec):
    """The chart of every affine disk with a rational or quadratic centre."""
    for disk in residue_disks(spec.curve, spec.p):
        if disk.kind == "infinite":
            continue
        try:
            yield chart_for(spec.curve, disk, spec.p, spec.T)
        except DomainError:       # irrational Weierstrass centre
            continue


def constituent_sum(spec, chart):
    """G as the sum of one ``expand_double_integral`` per nonzero a_ij, one
    ``expand_single_integral`` per nonzero a_i, eta and h."""
    consts = spec.constants_for(chart.disk)
    basis = spec.basis
    terms = [
        expand_double_integral(basis[i], basis[j], chart, consts.singles[j], consts.doubles[i][j]).scale(a)
        for i, row in enumerate(spec.a_matrix) for j, a in enumerate(row) if a
    ]
    terms += [expand_single_integral(basis[i], chart, consts.singles[i]).scale(a)
              for i, a in enumerate(spec.a_vector) if a]
    if spec.eta:
        terms.append(expand_single_integral(spec.eta, chart, consts.eta))
    if spec.h:
        terms.append(chart.expand(spec.h))
    return functools.reduce(TruncatedSeries.__add__, terms)


class TestExpandG:
    def test_zero_spec(self):
        C = elliptic()
        spec = ColemanSpec(curve=C, p=5, a_matrix=[[0, 0], [0, 0]], a_vector=[0, 0], T=8)
        G = expand_G(spec, chart_01(T=8))
        assert G.is_known_zero()

    def test_assembly_matches_constituents(self):
        rng = random.Random(31)
        C = elliptic()
        chart = chart_01(T=12)
        basis = default_basis(C)
        a = [[Fraction(rng.randint(-5, 5)) for _ in range(2)] for _ in range(2)]
        v = [Fraction(rng.randint(-5, 5)) for _ in range(2)]
        spec = ColemanSpec(curve=C, p=5, a_matrix=a, a_vector=v, h=CurveFunction.const(C, 4), T=12)
        G = expand_G(spec, chart)
        manual = TruncatedSeries.from_polynomial([4], 12)
        for i in range(2):
            for j in range(2):
                if a[i][j]:
                    manual = manual + expand_double_integral(basis[i], basis[j], chart).scale(a[i][j])
            if v[i]:
                manual = manual + expand_single_integral(basis[i], chart).scale(v[i])
        assert G.agrees_with(manual, upto=min(G.truncation, manual.truncation))

    @pytest.mark.parametrize("workload", ["genus1_batch", "genus2_even_p7"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_workload_assembly_matches_constituents(self, workload, seed):
        # expand_G builds each basis integrand once and takes one product per
        # row of A; the constituent expansions build theirs per entry, and the
        # sums must agree exactly, types included
        for case in workload_cases(workload, seed):
            for chart in affine_charts(case.spec):
                G = expand_G(case.spec, chart)
                manual = constituent_sum(case.spec, chart)
                assert G == manual, (case.spec_id, str(chart.disk))
                assert [type(c) for c in G.coeffs] == [type(c) for c in manual.coeffs]

    def test_disk_constants_enter_once_per_row(self, monkeypatch):
        # the workloads carry no disk constants, so give every affine disk of
        # genus2_even_p7 its own, the two disks of the Q(sqrt 60) pair included
        (case,) = workload_cases("genus2_even_p7", 3)
        rng = random.Random(3)
        n = len(case.spec.basis)

        def draw():
            return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))

        disks = [d for d in residue_disks(case.spec.curve, case.spec.p) if d.kind != "infinite"]
        constants = {str(d): DiskConstants([draw() for _ in range(n)], [[draw() for _ in range(n)] for _ in range(n)])
                     for d in disks}
        spec = dataclasses.replace(case.spec, constants=constants)
        charts = list(affine_charts(spec))
        assert len(charts) == len(disks) == 7
        pair = [chart.disk for chart in charts if chart.embedding is not None]
        assert len(pair) == 2 and constants[str(pair[0])] != constants[str(pair[1])]
        a = spec.a_matrix
        rows = sum(any(row) for row in a)
        singles = sum(bool(any(col) or v) for col, v in zip(zip(*a), spec.a_vector))
        assert 0 < rows < sum(map(bool, sum(a, [])))     # fewer rows than entries
        # rational charts integrate IntegerSeries, the Q(sqrt 60) pair
        # TruncatedSeries: count both
        calls = []
        for kind in (TruncatedSeries, IntegerSeries):
            monkeypatch.setattr(kind, "antiderivative",
                                lambda s, constant=0, f=kind.antiderivative: calls.append(1) or f(s, constant))
        for chart in charts:
            calls.clear()
            G = expand_G(spec, chart)
            assert len(calls) == rows + singles, str(chart.disk)
            manual = constituent_sum(spec, chart)
            assert G == manual, str(chart.disk)
            assert [type(c) for c in G.coeffs] == [type(c) for c in manual.coeffs]
            assert G.coeffs[0] != expand_G(case.spec, chart).coeffs[0]

    def test_builds_only_the_integrands_in_use(self, monkeypatch):
        # a_matrix[0][1] and a_vector[1] use omega_0 as an outer integrand and
        # I_1 as an inner one; omega_2 is never built, on the integer route of
        # a rational chart (which builds the Fraction omega_0/dt once, as the
        # factor of every x^j omega_0/dt) or on the Fraction route of a
        # Q(sqrt d) one
        import qcbound.coleman as coleman

        C = CurveModel("even", [2, 1, 0, 0, 1])
        spec = ColemanSpec(curve=C, p=7, a_matrix=[[0, 1, 0], [0, 0, 0], [0, 0, 0]], a_vector=[0, 1, 0], T=16)
        built = []
        integrand, integer_integrand = coleman._integrand, coleman._integer_integrand
        monkeypatch.setattr(coleman, "_integrand", lambda f, chart: built.append(f) or integrand(f, chart))
        monkeypatch.setattr(coleman, "_integer_integrand", lambda chart, j, omega0: built.append(spec.basis[j])
                            or integer_integrand(chart, j, omega0))
        charts = 0
        for disk in residue_disks(C, 7):
            if disk.kind == "infinite":
                continue
            chart = chart_for(C, disk, 7, 16)
            built.clear()
            G = expand_G(spec, chart)
            shared = [] if chart.embedding is not None else spec.basis[:1]
            assert built == shared + spec.basis[:2], str(disk)
            omega_0, omega_1 = spec.basis[:2]
            assert G == expand_double_integral(omega_0, omega_1, chart) + expand_single_integral(omega_1, chart)
            charts += 1
        assert charts == 10

    def test_linearity_in_matrix(self):
        C = elliptic()
        chart = chart_01(T=10)
        s1 = ColemanSpec(curve=C, p=5, a_matrix=[[1, 0], [0, 0]], a_vector=[0, 0], T=10)
        s2 = ColemanSpec(curve=C, p=5, a_matrix=[[0, 0], [0, 1]], a_vector=[0, 0], T=10)
        s12 = ColemanSpec(curve=C, p=5, a_matrix=[[3, 0], [0, 2]], a_vector=[0, 0], T=10)
        G = expand_G(s12, chart)
        combo = expand_G(s1, chart).scale(3) + expand_G(s2, chart).scale(2)
        assert G.agrees_with(combo, upto=min(G.truncation, combo.truncation))

    def test_elliptic_dg_is_x_plus_a(self):
        # (d/omega_0)^2 G = x + a for G = int w0 w1 + a int w0 w0 + b
        C = elliptic()
        a = Fraction(2)
        spec = elliptic_spec(a=a)
        D = DifferentialOperator(
            [CurveFunction.const(C, 0), CurveFunction.const(C, 0), CurveFunction.const(C, 1)],
            base="omega0",
        )
        for disk in residue_disks(C, 5):
            if disk.kind == "infinite":
                continue
            chart = chart_for(C, disk, 5, spec.T)
            G = expand_G(spec, chart)
            DG = apply_on_chart(D, G, chart)
            candidate = CurveFunction.x(C) + CurveFunction.const(C, a)
            assert certify_algebraic(DG, candidate, chart)

    def test_h_ledger_validated(self):
        C = elliptic()
        too_big = CurveFunction(C, Poly([0, 0, 0, 0, 1]))    # x^4: pole order 8 > 4g = 4
        with pytest.raises(DomainError):
            ColemanSpec(curve=C, p=5, a_matrix=[[0, 0], [0, 0]], a_vector=[0, 0], h=too_big)

    def test_certify_rejects_perturbation(self):
        C = elliptic()
        chart = chart_01(T=10)
        cand = CurveFunction.x(C) + CurveFunction.const(C, 1)
        F = chart.expand(cand)
        assert certify_algebraic(F, cand, chart)
        perturbed = TruncatedSeries(tuple(F.coeffs[:3]) + (F.coeffs[3] + 1,) + tuple(F.coeffs[4:]))
        assert not certify_algebraic(perturbed, cand, chart)


class TestSpecFiles:
    def test_roundtrip(self, tmp_path):
        data = {
            "curve": {"kind": "odd", "genus": 1, "f": ["1", "1", "0", "1"]},
            "p": 5,
            "T": 12,
            "a_matrix": [["2", "1"], ["0", "0"]],
            "a_vector": ["0", "0"],
            "h": {"a": ["3"], "b": []},
            "constants": {"(0,1)": {"singles": ["1/2", "0"], "doubles": [["0", "0"], ["0", "0"]]}},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        spec = load_spec_file(path)
        assert spec.curve.genus == 1
        assert spec.a_matrix[0][0] == 2
        assert spec.h == CurveFunction.const(spec.curve, 3)
        assert spec.constants_for(DiskDescriptor("affine_nonweierstrass", 0, 1)).singles[0] == Fraction(1, 2)
        # unlisted disks default to zero constants
        assert spec.constants_for(DiskDescriptor("affine_nonweierstrass", 3, 1)).singles == [0, 0]

    def test_constants_keys_name_residue_disks(self):
        # the Python API checks the keys as the spec files do
        zero = DiskConstants([0, 0], [[0, 0], [0, 0]])
        spec = ColemanSpec(curve=elliptic(), p=5, a_matrix=[[1, 0], [0, 0]], a_vector=[0, 0],
                           constants={"(0,1)": zero, "inf": zero})
        assert spec.constants_for(DiskDescriptor("affine_nonweierstrass", 0, 1)) is zero
        for key in ("(0, 1)", "(9,9)", "inf-"):
            with pytest.raises(DomainError, match="is not a residue disk of this curve mod 5"):
                ColemanSpec(curve=elliptic(), p=5, a_matrix=[[1, 0], [0, 0]], a_vector=[0, 0],
                            constants={key: zero})

    def test_dimension_validation(self):
        with pytest.raises(DomainError):
            parse_spec_data(
                {
                    "curve": {"kind": "odd", "f": ["1", "1", "0", "1"]},
                    "p": 5,
                    "a_matrix": [["1"]],
                }
            )
