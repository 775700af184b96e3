from fractions import Fraction

import pytest

from qcbound.bounds import (
    cor_potential_good,
    degree_ledger,
    fraction_decimal,
    general_polynomial,
    hyperelliptic_inner,
    integral_inner,
    ledger_degrees,
    per_disk_bound,
    strict_integer_bound,
    thm1_general,
    thm1_hyperelliptic,
    thm_integral,
)
from qcbound.errors import DomainError
from qcbound import padics
from qcbound.padics import Prime, kappa, kappa_bounds


class TestStrictSemantics:
    def test_non_integer(self):
        assert strict_integer_bound(Fraction(7, 2)) == 3

    def test_integer(self):
        assert strict_integer_bound(Fraction(4)) == 3

    def test_fraction_decimal(self):
        assert fraction_decimal(Fraction(7, 2)) == "3.5000"
        assert fraction_decimal(Fraction(-1, 3), 3) == "-0.333"


class TestThm1General:
    def test_example_g2_p3(self):
        rep = thm1_general(2, 3, 1, 10)
        assert rep.inputs["poly_factor"] == 166
        assert abs(float(rep.raw_value) - 2.8204784532536746 * 1660) < 1e-5
        assert rep.integer_bound == 4681
        assert rep.integer_bound < rep.raw_value <= rep.integer_bound + 1

    def test_polynomial_identity_degree_plus_order(self):
        for g in range(2, 11):
            ledger = degree_ledger(g, "general")
            assert ledger["final_degree"] == ledger["final_degree_formula"]
            assert ledger["final_plus_order"] == general_polynomial(g)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            thm1_general(1, 3, 1, 10)
        with pytest.raises(DomainError):
            thm1_general(2, 3, 0, 10)


class TestThm1Hyperelliptic:
    def test_example_g2_p3(self):
        rep = thm1_hyperelliptic(2, 3, 1, 10, 4)
        assert rep.inputs["inner"] == 452
        assert abs(float(rep.raw_value) - 2.8204784532536746 * 452) < 1e-6

    def test_assembly_identity(self):
        # per-disk sums (both sheets + Weierstrass) collapse to the inner formula
        for g in range(2, 11):
            nw = degree_ledger(g, "hyper_nonW")
            w = degree_ledger(g, "hyper_W")
            for x_fp in (0, 1, 7, 30):
                for w_fp in (0, 1, 2 * g + 2):
                    lhs = (
                        nw["both_sheets_constant"]
                        + (2 * g + 2) * (x_fp - w_fp)
                        + w["weierstrass_constant"][0] * w_fp
                        + w["weierstrass_constant"][1]
                    )
                    assert lhs == hyperelliptic_inner(g, x_fp, w_fp)

    def test_excluded_prime(self):
        with pytest.raises(DomainError):
            thm1_hyperelliptic(2, 5, 1, 10, 4)

    def test_w_cap(self):
        with pytest.raises(DomainError):
            thm1_hyperelliptic(2, 3, 1, 10, 7)


class TestCorollary:
    def test_values(self):
        assert cor_potential_good(2).raw_value == 1416
        assert cor_potential_good(3).raw_value == 3132
        assert cor_potential_good(2).integer_bound == 1415

    def test_domination_at_p3(self):
        # Hasse-Weil-maximal counts at p = 3 never push the hyperelliptic
        # bound above the corollary polynomial
        for g in range(2, 11):
            x_max = 4 + 6 * g       # p + 1 + 2g * floor(2 sqrt 3)
            rep = thm1_hyperelliptic(g, 3, 1, x_max, 4)
            assert rep.raw_value <= cor_potential_good(g).raw_value


class TestIntegral:
    def test_g1_example(self):
        rep = thm_integral(1, 5, 1, 8)
        assert abs(float(rep.raw_value) - 2 * 1.8284465794128584 * 8) < 1e-6
        assert rep.integer_bound == 29
        assert rep.theorem_id == "thm_integral_g=1"

    def test_g2_example(self):
        rep = thm_integral(2, 3, 1, 4, 1)
        assert rep.inputs["inner"] == 204

    def test_assembly_identity(self):
        for g in range(2, 11):
            nw = degree_ledger(g, "integral_nonW")
            w = degree_ledger(g, "integral_W")
            for y_fp in (0, 1, 9):
                for w_fp in (0, 1, 2 * g + 1):
                    lhs = (
                        nw["constant"]
                        + (2 * g + 1) * (y_fp - w_fp)
                        + w["weierstrass_constant"][0] * w_fp
                        + w["weierstrass_constant"][1]
                    )
                    assert lhs == integral_inner(g, y_fp, w_fp)


class TestPerDisk:
    def test_example_kappa5_times_3(self):
        assert per_disk_bound(1, 2, 5) == 5    # kappa_5 * 3 = 5.485...

    def test_zero_case(self):
        assert per_disk_bound(0, 0, 5) == 0

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            per_disk_bound(-1, 2, 5)

    def test_kappa_computed_once_per_prime(self, monkeypatch):
        calls = []
        real = padics.kappa_bounds
        monkeypatch.setattr(padics, "kappa_bounds", lambda p: calls.append(int(p)) or real(p))
        kappa.cache_clear()
        try:
            bounds = [per_disk_bound(n_b, 3, 7) for n_b in range(6)] + [per_disk_bound(2, 3, Prime(7))]
            assert calls == [7]
            assert bounds == [strict_integer_bound(real(7)[1] * (n_b + 3)) for n_b in (*range(6), 2)]
            per_disk_bound(1, 2, 5)
            assert calls == [7, 5]
        finally:
            kappa.cache_clear()


class TestRounding:
    def test_upward_kappa_never_decreases_bound(self):
        # coarse vs fine kappa approximations
        for p in (3, 5, 7):
            coarse = kappa(p)
            fine = kappa_bounds(p, width=Fraction(1, 10**20))[1]
            for k in (1, 3, 166, 452):
                assert strict_integer_bound(coarse * k) >= strict_integer_bound(fine * k)

    def test_report_serialization_stable(self):
        rep = thm1_hyperelliptic(2, 3, 1, 10, 4)
        d1 = rep.to_json_dict()
        d2 = thm1_hyperelliptic(2, 3, 1, 10, 4).to_json_dict()
        assert d1 == d2
        assert isinstance(d1["raw_value"], str)


class TestDegreeLedger:
    def test_general_g2(self):
        led = degree_ledger(2, "general")
        assert led["final_degree"] == 159
        assert led["output_space"] == {"D1": 51, "P": 57}
        assert led["index_sum_identity"] is True

    def test_hyper_w_g2(self):
        led = degree_ledger(2, "hyper_W")
        assert led["coefficient_space_inf"] == 4 * 8 + 8 * 4 + 4
        assert led["operator_order"] == 10

    def test_unknown_case(self):
        with pytest.raises(DomainError):
            degree_ledger(2, "nope")

    def test_ledger_degrees(self):
        # the pipeline reads these three at g = 1 as well, where degree_ledger
        # refuses: the even genus-1 infinite disks take 24
        assert ledger_degrees(1) == {"hyper_nonW": 24, "hyper_W": 60, "integral_W": 19}
        for g in range(2, 9):
            degrees = ledger_degrees(g)
            assert degrees["hyper_nonW"] == 8 * g**2 + 12 * g + 4
            assert degree_ledger(g, "hyper_nonW")["output_degree"] == degrees["hyper_nonW"]
            assert degree_ledger(g, "hyper_W")["weierstrass_constant"][1] == degrees["hyper_W"]
            assert 2 * degree_ledger(g, "hyper_W")["output_space_inf"] == degrees["hyper_W"]
            assert degree_ledger(g, "integral_W")["output_space_inf"] == degrees["integral_W"]
