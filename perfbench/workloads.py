"""Seeded workload generators for the pipeline benchmark.

The generators are copied from the test-suite rather than imported from it,
so that editing a test can never change what the benchmark measures.

Every workload turns the benchmark seed into a list of ``Case`` tuples.  The
seed first resolves to one of RECORDED_SEEDS generator seeds (see
``resolve_seed``), because the correctness gate compares each result with a
reference recorded for exactly that input; ``reference.json`` holds one
entry per workload and generator seed.  The library only ever receives the
generated specs.
"""

import random
from collections import namedtuple
from fractions import Fraction

# order2_a is the constant a of an odd genus-1 spec whose candidate is x + a
# (checked by the hand-derived oracle); None for every other spec.
Case = namedtuple("Case", "spec_id spec order2_a", defaults=(None,))

# Generator seeds 0..15 have a recorded reference for every workload.
RECORDED_SEEDS = 16


def resolve_seed(seed):
    """The generator seed that benchmark seed ``seed`` selects (seeds 0..15 select themselves)."""
    return seed % RECORDED_SEEDS


def _draw(rng, lo, hi, nonzero=False):
    while True:
        c = rng.randint(lo, hi)
        if c or not nonzero:
            return c


def genus2_even_p7(q, seed):
    """y^2 = (x^3 - x)(x^3 + 2) at p = 7, T = 52 (test-suite ``genus2_even_spec``)."""
    rng = random.Random(seed)
    f = q.Poly([0, -1, 0, 1]) * q.Poly([2, 0, 0, 1])
    C = q.CurveModel("even", f)
    n = 2 * C.genus + 1
    a = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
    v = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
    h = q.CurveFunction(C, q.Poly([rng.randint(-3, 3) for _ in range(C.genus + 2)]))
    spec = q.ColemanSpec(curve=C, p=7, a_matrix=a, a_vector=v, h=h, T=52)
    return [Case(f"g2-even-p7-s{seed}", spec)]


GENUS1_PRIMES = (5, 7, 11, 13)
GENUS1_SPECS = 12
# The curves are drawn once, from this fixed seed; the benchmark seed draws the
# constants only.  Random curves per seed would change the disk structure
# (108 to 141 disks, different quadratic centres), and with it the work of a
# pass by a third, which would hide any regression under the seed spread.
GENUS1_CURVE_SEED = 0


def _good_curve(q, rng, kind, degree, p):
    """Random monic integral f of the given degree; kept only on good reduction at p."""
    while True:
        coeffs = [rng.randint(-6, 6) for _ in range(degree)] + [1]
        try:
            C = q.CurveModel(kind, coeffs)
        except q.DomainError:       # not squarefree over Q
            continue
        if q.has_smooth_reduction(C, p):
            return C


def genus1_batch(q, seed):
    """Alternating odd order-2-shape specs and even quartics carrying eta = x^3/y.

    Specs 2m and 2m+1 share the prime GENUS1_PRIMES[m % 4].  Curves are filtered
    on good reduction only, never on whether the pipeline succeeds, so disks
    above irrational Weierstrass centres fail with the documented DomainError.
    """
    curve_rng, rng = random.Random(GENUS1_CURVE_SEED), random.Random(seed)
    specs = []
    for k in range(GENUS1_SPECS):
        p = GENUS1_PRIMES[(k // 2) % len(GENUS1_PRIMES)]
        if k % 2 == 0:
            C = _good_curve(q, curve_rng, "odd", 3, p)
            a, b = rng.randint(-6, 6), _draw(rng, -4, 4, nonzero=True)
            spec = q.ColemanSpec(
                curve=C, p=p,
                a_matrix=[[Fraction(a), Fraction(1)], [Fraction(0), Fraction(0)]],
                a_vector=[Fraction(0), Fraction(0)],
                h=q.CurveFunction.const(C, b),
                T=20,
            )
            specs.append(Case(f"g1-{k}-odd-p{p}", spec, a))
        else:
            C = _good_curve(q, curve_rng, "even", 4, p)
            a_matrix = [[Fraction(0)] * 3 for _ in range(3)]
            a_matrix[0][1] = Fraction(_draw(rng, -4, 4, nonzero=True))
            a_vector = [Fraction(0), Fraction(rng.randint(-3, 3)), Fraction(0)]
            spec = q.ColemanSpec(
                curve=C, p=p,
                a_matrix=a_matrix,
                a_vector=a_vector,
                eta=q.CurveFunction.x_power_over_y(C, 3),
                T=24,
            )
            specs.append(Case(f"g1-{k}-even-p{p}", spec))
    return specs


Workload = namedtuple("Workload", "name why make")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "genus2_even_p7",
            "spec-level candidate and polar_degree work repeats on 4 non-Weierstrass "
            "disks, 2 of them over Q(sqrt 60), and only this workload has "
            "Weierstrass-annihilator work on 3 disks; seed 3 is the ROADMAP baseline",
            genus2_even_p7,
        ),
        Workload(
            "genus1_batch",
            "12 short-series genus-1 specs at p in {5,7,11,13}: kernel set-up is not "
            "amortised, per-spec cost counts, and eta brings RationalFunc denominators; "
            "the seed draws the constants on a fixed set of curves",
            genus1_batch,
        ),
    )
}
