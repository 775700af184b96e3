"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one line per
criterion.  Budgets are asserted with the stated limits.
"""

import random
import time
from fractions import Fraction

from qcbound.bounds import (
    cor_potential_good,
    degree_ledger,
    general_polynomial,
    hyperelliptic_inner,
    integral_inner,
    strict_integer_bound,
    thm1_hyperelliptic,
    thm_integral,
)
from qcbound.coleman import ColemanSpec
from qcbound.diffops import (
    DifferentialOperator,
    apply_series,
    build_annihilator,
    check_nice,
    search_nice_S,
    weierstrass_annihilator,
    weierstrass_local_annihilator,
)
from qcbound.errors import DegenerateOperatorError, PrecisionError
from qcbound.funcfield import (
    CurveFunction,
    infinite_chart,
    nonweierstrass_chart,
    weierstrass_chart,
)
from qcbound.hyperelliptic import CurveModel, residue_disks
from qcbound.padics import INFINITY, factorial_valuation, kappa, valuation
from qcbound.pipeline import nonweierstrass_candidate, run_pipeline
from qcbound.polys import Poly
from qcbound.series import (
    TruncatedSeries,
    min_valuation_index,
    newton_polygon,
    slope_le_minus_one_length,
    slope_transfer_check,
    zero_count_bound,
)


def _report(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, f"budget {self.seconds}s exceeded: {elapsed:.1f}s"
        return elapsed


def test_criterion_01_formula_reproduction():
    budget = Budget(1)
    assert cor_potential_good(2).raw_value == 1416
    assert cor_potential_good(3).raw_value == 3132
    budget.check()
    _report(1, "corollary polynomial: g=2 -> 1416, g=3 -> 3132 (exact)")


def test_criterion_02_degree_ledger_identities():
    budget = Budget(1)
    for g in range(2, 11):
        led = degree_ledger(g, "general")
        assert led["final_degree"] == (8 * g**2 + 11 * g - 3) * (2 * g - 2) + 3 * (3 * g**2 + 3 * g + 1)
        assert led["final_degree"] == 16 * g**3 + 15 * g**2 - 19 * g + 9
        assert led["final_plus_order"] == general_polynomial(g)
        # hyperelliptic assembly collapse
        nw, w = degree_ledger(g, "hyper_nonW"), degree_ledger(g, "hyper_W")
        for x_fp, w_fp in ((0, 0), (5, 1), (11, 2 * g + 2)):
            lhs = (
                nw["both_sheets_constant"] + (2 * g + 2) * (x_fp - w_fp)
                + w["weierstrass_constant"][0] * w_fp + w["weierstrass_constant"][1]
            )
            assert lhs == hyperelliptic_inner(g, x_fp, w_fp)
        # integral assembly collapse
        inw, iw = degree_ledger(g, "integral_nonW"), degree_ledger(g, "integral_W")
        for y_fp, w_fp in ((0, 0), (7, 1), (9, 2 * g + 1)):
            lhs = (
                inw["constant"] + (2 * g + 1) * (y_fp - w_fp)
                + iw["weierstrass_constant"][0] * w_fp + iw["weierstrass_constant"][1]
            )
            assert lhs == integral_inner(g, y_fp, w_fp)
    budget.check()
    _report(2, "degree-ledger and assembly identities hold exactly for g = 2..10")


def test_criterion_03_legendre_suite():
    budget = Budget(10)
    from qcbound.padics import log_p_lower

    for p in (3, 5, 7, 11):
        acc = 0
        shifted = [Fraction(0)] * 2001
        for n in range(1, 2001):
            m = n
            while m % p == 0:
                m //= p
                acc += 1
            assert factorial_valuation(n, p) == acc
            shifted[n] = acc - Fraction(n, p - 1)
        # v(n2!/n1!) <= log_p(n1) + (n2-n1)/(p-1) for every 1 <= n1 <= n2 <= 2000
        suffix_max = [Fraction(-10**9)] * 2002
        for n in range(2000, 0, -1):
            suffix_max[n] = max(shifted[n], suffix_max[n + 1])
        for n1 in range(1, 2001):
            assert suffix_max[n1] - shifted[n1] <= log_p_lower(n1, p)
    elapsed = budget.check()
    _report(3, f"Legendre formula and the factorial-ratio inequality on n <= 2000 ({elapsed:.1f}s)")


def test_criterion_04_newton_polygon_oracle():
    budget = Budget(30)
    rng = random.Random(404)
    for trial in range(500):
        p = rng.choice([3, 5, 7])
        n_factors = rng.randint(1, 6)
        f = Poly([1])
        expected = 0
        for _ in range(n_factors):
            k = rng.randint(0, 3)
            num = rng.choice([x for x in range(-9, 10) if x % p and x])
            den = rng.choice([x for x in range(1, 10) if x % p])
            root = Fraction(num, den) * Fraction(p) ** k
            if k >= 1:
                expected += 1
            f = f * Poly([-root, 1])
        series = TruncatedSeries.from_polynomial(f.coeffs, f.degree + 1)
        assert zero_count_bound(series, p, floor_val=INFINITY) == expected
    elapsed = budget.check()
    _report(4, f"500 factored polynomials: polygon zero count equals the root count ({elapsed:.1f}s)")


def test_criterion_05_annihilation_property():
    budget = Budget(60)
    rng = random.Random(505)
    done = 0
    while done < 100:
        m = rng.randint(1, 3)
        T = 12
        funcs = [
            TruncatedSeries([Fraction(rng.randint(-9, 9)) for _ in range(T)])
            for _ in range(m)
        ]
        S = sorted(rng.sample(range(T - 1), m + 1))
        try:
            D = build_annihilator(S, funcs)
        except DegenerateOperatorError:
            continue
        for F in funcs:
            assert apply_series(D, F).is_known_zero()
        done += 1
    # expansions of x^i / y on a genus-2 model
    C = CurveModel("odd", [1, 0, 0, 0, 0, 1])
    for p in (7, 11):
        disk = next(d for d in residue_disks(C, p) if d.kind == "affine_nonweierstrass")
        chart = nonweierstrass_chart(C, disk, p, 18)
        funcs = [chart.expand(CurveFunction.x_power_over_y(C, i)) for i in range(4)]
        S = search_nice_S(funcs, p, 14, chart=chart)
        D = build_annihilator(S, funcs)
        for F in funcs:
            assert apply_series(D, F).is_known_zero()
        cert = check_nice(D, p) if chart.embedding is None else None
    elapsed = budget.check()
    _report(5, f"100 random tuples and curve expansions annihilated exactly ({elapsed:.1f}s)")


def test_criterion_06_elliptic_end_to_end():
    budget = Budget(60)
    kp = kappa(5)
    instances = [(Fraction(1), Fraction(1)), (Fraction(-1), Fraction(0)), (Fraction(2), Fraction(1))]
    for a_spec, b_spec in instances:
        C = CurveModel("odd", [b_spec, a_spec, 0, 1])
        assert valuation(-4 * a_spec**3 - 27 * b_spec**2, 5) == 0, "instance must have good reduction"
        spec = ColemanSpec(
            curve=C, p=5,
            a_matrix=[[a_spec, 1], [0, 0]],
            a_vector=[0, 0],
            h=CurveFunction.const(C, b_spec),
            T=20,
        )
        result = run_pipeline(spec)
        assert result.ok, [x.error for x in result.failed()]
        expect = CurveFunction.x(C) + CurveFunction.const(C, a_spec)
        for ana in result.analyses:
            if ana.disk.kind == "infinite":
                continue
            # D(G) is algebraic_image's exact output, and N_b the order of its
            # reduction mod p on Weierstrass and non-Weierstrass disks alike
            assert ana.certified is True
            assert ana.dg_candidate == expect
            assert ana.order == 2
            # N_b read off the reduction of x + a_spec
            if (ana.disk.x_bar + a_spec) % 5 == 0:
                expected_nb = 2 if ana.disk.kind == "affine_weierstrass" else 1
            else:
                expected_nb = 0
            assert ana.n_b == expected_nb
            assert ana.bound == max(0, strict_integer_bound(kp * (expected_nb + 2)))
    elapsed = budget.check()
    _report(6, f"elliptic pipeline certifies D(G) = x + a and the per-disk bounds ({elapsed:.1f}s)")


def test_criterion_07_genus2_even_end_to_end():
    budget = Budget(300)
    rng = random.Random(707)
    f = Poly([0, -1, 0, 1]) * Poly([2, 0, 0, 1])   # (x^3 - x)(x^3 + 2), Weierstrass x in {0, 1, -1}
    C = CurveModel("even", f)
    g = C.genus
    n = 2 * g + 1
    spec = ColemanSpec(
        curve=C, p=7,
        a_matrix=[[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])) for _ in range(n)] for _ in range(n)],
        a_vector=[Fraction(rng.randint(-9, 9)) for _ in range(n)],
        h=CurveFunction(C, Poly([rng.randint(-5, 5) for _ in range(g + 2)])),
    )
    # algebraic image and its ledger, verified by expansion at infinity and at
    # a Weierstrass center
    cand = nonweierstrass_candidate(spec)
    for label in ("inf+", "inf-"):
        chart = infinite_chart(C, label, 30)
        assert chart.laurent(cand).t_order() >= -(g + 1)
    wdisks = [d for d in residue_disks(C, 7) if d.kind == "affine_weierstrass"]
    assert wdisks
    wchart = weierstrass_chart(C, wdisks[0], 7, 30)
    assert wchart.laurent(cand).t_order() >= -(4 * g + 1)
    # full pipeline: certification on non-Weierstrass disks, niceness + det(B)
    # certificates on Weierstrass disks
    result = run_pipeline(spec)
    assert result.ok, [x.error for x in result.failed()]
    saw_nw = saw_w = False
    for ana in result.analyses:
        if ana.disk.kind == "affine_nonweierstrass":
            saw_nw = True
            assert ana.certified is True
            assert ana.nice.ok
        elif ana.disk.kind == "affine_weierstrass":
            saw_w = True
            assert ana.nice.ok
    assert saw_nw and saw_w
    # det(B) unit certificate at every Weierstrass disk (raises on failure)
    D1 = weierstrass_annihilator(C, p=7)
    for disk in wdisks:
        assert D1.leading.value_mod_p(disk.x_bar, 0, 7) != 0
        chart = weierstrass_chart(C, disk, 7, 24)
        cert = check_nice(weierstrass_local_annihilator(chart), 7)
        assert cert.ok and cert.unit_witness == 0
    elapsed = budget.check()
    _report(7, f"genus-2 even pipeline at p=7: ledgers, certificates, niceness ({elapsed:.1f}s)")


def test_criterion_08_slope_transfer_fuzz():
    budget = Budget(120)
    rng = random.Random(808)
    done = 0
    while done < 500:
        p = rng.choice([3, 5, 7])
        T = 14
        # exact polynomial G with engineered p-divisibilities
        coeffs = []
        for _ in range(T):
            c = rng.randint(-9, 9)
            coeffs.append(Fraction(c * p ** rng.randint(0, 5)))
        if not any(coeffs):
            continue
        G = TruncatedSeries.from_polynomial(coeffs, T)
        # random nice operator: p-integral coefficients, unit leading term
        N = rng.randint(1, 3)
        op_coeffs = []
        for i in range(N + 1):
            cs = [Fraction(rng.randint(-9, 9) * p ** rng.randint(0, 2)) for _ in range(T)]
            op_coeffs.append(TruncatedSeries(cs))
        lead = list(op_coeffs[-1].coeffs)
        lead[0] = Fraction(rng.choice([c for c in range(1, p)]))
        op_coeffs[-1] = TruncatedSeries(lead)
        D = DifferentialOperator(op_coeffs)
        assert check_nice(D, p).ok
        DG = apply_series(D, G)
        try:
            ok = slope_transfer_check(G, DG, N, p, floor_G=INFINITY, floor_DG=0)
        except PrecisionError:
            continue
        assert ok, (p, N)
        # cross-check against the raw inequality
        M = slope_le_minus_one_length(newton_polygon(G, p, floor_val=INFINITY))
        s = min_valuation_index(DG, p, floor_val=0)
        assert M < kappa(p) * (N + s), (p, M, N, s)
        done += 1
    elapsed = budget.check()
    _report(8, f"500 slope-transfer instances: M < kappa_p (N + min S(D(G))) ({elapsed:.1f}s)")


def test_criterion_09_bound_consistency():
    budget = Budget(1)
    for g in range(2, 11):
        x_max = 4 + 6 * g           # Hasse-Weil maximal #X(F_3)
        rep = thm1_hyperelliptic(g, 3, 1, x_max, 4)
        assert rep.raw_value <= cor_potential_good(g).raw_value
    budget.check()
    _report(9, "hyperelliptic bound at p=3 with maximal counts stays below the corollary")


def test_criterion_10_integral_evaluator():
    budget = Budget(1)
    rep = thm_integral(1, 5, 1, 8)
    assert rep.integer_bound == 29
    rep2 = thm_integral(2, 3, 1, 4, 1)
    assert rep2.inputs["inner"] == 204
    budget.check()
    _report(10, "integral bounds: g=1 strict bound 29; g=2 inner value 204 (exact)")
