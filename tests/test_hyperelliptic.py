import random

import pytest

from qcbound.errors import DomainError, NormalizationError
from qcbound.hyperelliptic import (
    CurveModel,
    DiskDescriptor,
    count_points_fp,
    good_reduction_at,
    hasse_weil_ok,
    residue_disks,
    value_mod,
)


def curve_x5_plus_1():
    return CurveModel("odd", [1, 0, 0, 0, 0, 1])        # y^2 = x^5 + 1


def curve_x6_plus_1():
    return CurveModel("even", [1, 0, 0, 0, 0, 0, 1])    # y^2 = x^6 + 1


class TestCurveModel:
    def test_genus_inferred(self):
        assert curve_x5_plus_1().genus == 2
        assert curve_x6_plus_1().genus == 2
        assert CurveModel("odd", [1, 1, 0, 1]).genus == 1

    def test_genus_validated(self):
        with pytest.raises(DomainError):
            CurveModel("odd", [1, 0, 0, 0, 0, 1], genus=3)

    def test_monic_required(self):
        with pytest.raises(NormalizationError):
            CurveModel("odd", [1, 0, 0, 2])

    def test_squarefree_required(self):
        # (x-1)^2 (x+2) = x^3 - 3x + 2
        with pytest.raises(DomainError):
            CurveModel("odd", [2, -3, 0, 1])

    def test_degree_parity(self):
        with pytest.raises(DomainError):
            CurveModel("even", [1, 0, 0, 1])


class TestGoodReduction:
    def test_good_at_3(self):
        assert good_reduction_at(curve_x5_plus_1(), 3)

    def test_bad_at_5(self):
        assert not good_reduction_at(curve_x5_plus_1(), 5)  # 5 | disc = 5^5

    def test_even_model_excludes_2g_plus_1(self):
        c = CurveModel("even", [1, 1, 0, 0, 1])  # genus 1 even model
        assert not good_reduction_at(c, 3)

    def test_non_integral_rejected(self):
        from fractions import Fraction

        c = CurveModel("odd", [Fraction(1, 3), 1, 0, 1])
        with pytest.raises(NormalizationError):
            good_reduction_at(c, 3)


class TestCounting:
    def test_x5_plus_1_at_3(self):
        total, nw, w, inf = count_points_fp(curve_x5_plus_1(), 3)
        assert (total, nw, w, inf) == (4, 2, 1, 1)

    def test_weierstrass_count(self):
        assert count_points_fp(curve_x5_plus_1(), 3)[2] == 1
        assert count_points_fp(curve_x6_plus_1(), 7)[2] == 0

    def test_split_weierstrass(self):
        # f = x(x-1)(x+1)(x-2)(x+2) has all roots in F_11
        from qcbound.polys import Poly

        f = Poly([1])
        for r in (0, 1, -1, 2, -2):
            f = f * Poly([-r, 1])
        c = CurveModel("odd", f)
        assert count_points_fp(c, 11)[2] == 5

    def test_totals_add_up_and_hasse_weil(self):
        rng = random.Random(17)
        checked = 0
        while checked < 25:
            kind = rng.choice(["even", "odd"])
            deg = 7 if kind == "odd" else 6
            coeffs = [rng.randint(-6, 6) for _ in range(deg)] + [1]
            try:
                c = CurveModel(kind, coeffs)
            except DomainError:
                continue
            p = rng.choice([3, 7, 11, 13])
            if not good_reduction_at(c, p):
                continue
            total, nw, w, inf = count_points_fp(c, p)
            assert total == nw + w + inf
            assert hasse_weil_ok(c, p, total)
            assert sum(1 for x in range(p) if value_mod(c.f, x, p) == 0) == w
            checked += 1

    def test_x6_plus_1_at_5(self):
        c = curve_x6_plus_1()
        total, *_ = count_points_fp(c, 5)
        assert hasse_weil_ok(c, 5, total)

    def test_bad_reduction_raises(self):
        with pytest.raises(DomainError):
            count_points_fp(curve_x5_plus_1(), 5)


class TestResidueDisks:
    def test_x5_plus_1_at_3(self):
        disks = residue_disks(curve_x5_plus_1(), 3)
        kinds = [d.kind for d in disks]
        assert kinds.count("affine_nonweierstrass") == 2
        assert kinds.count("affine_weierstrass") == 1
        assert kinds.count("infinite") == 1
        w = next(d for d in disks if d.kind == "affine_weierstrass")
        assert (w.x_bar, w.y_bar) == (2, 0)
        nw_centers = sorted((d.x_bar, d.y_bar) for d in disks if d.kind == "affine_nonweierstrass")
        assert nw_centers == [(0, 1), (0, 2)]

    def test_even_model_two_infinite_disks(self):
        disks = residue_disks(curve_x6_plus_1(), 5)
        labels = sorted(d.label for d in disks if d.kind == "infinite")
        assert labels == ["inf+", "inf-"]

    def test_no_weierstrass_disks(self):
        # x^6 + x + 2 mod 5 has no roots: 2,4,1,4,4,4 for x=0..4... verified below
        c = CurveModel("even", [2, 1, 0, 0, 0, 0, 1])
        if good_reduction_at(c, 5):
            disks = residue_disks(c, 5)
            from qcbound.hyperelliptic import value_mod

            roots = [x for x in range(5) if value_mod(c.f, x, 5) == 0]
            assert bool(roots) == any(d.kind == "affine_weierstrass" for d in disks)

    def test_deterministic_order(self):
        a = residue_disks(curve_x5_plus_1(), 3)
        b = residue_disks(curve_x5_plus_1(), 3)
        assert a == b

    @pytest.mark.parametrize("kind, f", [
        ("odd", [1, 1, 0, 1]),
        ("odd", [1, 0, 0, 0, 0, 1]),
        ("even", [1, 0, 0, 0, 0, 0, 1]),
        ("even", [2, -1, 3, 0, 1]),
    ])
    def test_square_root_table_gives_the_search_listing(self, kind, f):
        # the listing from one search per x for the least square root
        c = CurveModel(kind, f)
        for p in (3, 7, 11, 13, 101, 211):
            if not good_reduction_at(c, p):
                continue
            expect = [DiskDescriptor("infinite", label=label) for label in c.infinite_points()]
            for x in range(p):
                fx = value_mod(c.f, x, p)
                if fx == 0:
                    expect.append(DiskDescriptor("affine_weierstrass", x, 0))
                elif pow(fx, (p - 1) // 2, p) == 1:
                    y = next(s for s in range(p) if s * s % p == fx)
                    expect += [DiskDescriptor("affine_nonweierstrass", x, y),
                               DiskDescriptor("affine_nonweierstrass", x, p - y)]
            assert residue_disks(c, p) == sorted(expect)

    def test_enumeration_limit(self):
        # the limit of count_points_fp; a search per x would not finish here
        with pytest.raises(DomainError, match="limited to p <= 10"):
            residue_disks(CurveModel("odd", [1, 1, 0, 1]), 1000003)
