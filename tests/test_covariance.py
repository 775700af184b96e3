"""Translation and sheet-swap covariance of the per-disk results, oracles
independent of the recorded reference.

Under x = X + s with s in Z, the model y^2 = f(x) becomes y^2 = f_s(X) with
f_s(X) = f(X + s): monic, integral and of good reduction at the same primes.
The basis differentials pull back as omega_j = sum_k C(j,k) s^(j-k) omega'_k,
so with M[j][k] = C(j,k) s^(j-k) the spec (a, v, h, eta) becomes
(M^T a M, M^T v, h(X + s), eta(X + s)), since dx = dX, and the disk
(x_bar, y_bar) becomes
(x_bar - s mod p, y_bar); infinite disks keep their labels.  On matching
disks the zero count, its method, the operator order, the bound, the
certification, niceness and success must agree.  The lifts, the chart
parameters and the niceness witnesses are not compared: the chart centres
move with the model.

Specs: every genus1_batch spec of generator seed 3 (the six odd
order-2-shape ones and the six even quartics carrying eta = x^3/y) with s in
{1, -2, p}, and genus2_even_p7 seed 3 with s = 1.

Under the weighted scaling X = u^a x, Y = u^b y by a p-unit u, with
(a, b) = (2, 2g+1) on odd models and (1, g+1) on even ones, y^2 = f(x)
becomes Y^2 = u^(2b) f(X/u^a), monic and integral for an integer u, of good
reduction at p.  The basis differentials pull back as
omega_j = lambda_j omega'_j with lambda_j = u^(2g-1-2j) (odd) or u^(g-j)
(even), so the spec (a, v, h, eta) becomes (lambda_i lambda_j a_ij,
lambda_j v_j, h(X/u^a, Y/u^b), eta(X/u^a, Y/u^b) / u^a), since
dx = dX / u^a, and the disk (x_bar, y_bar) becomes (u^a x_bar, u^b y_bar)
mod p; the labels inf+ and inf- keep their sheets, as Y/X^(g+1) = y/x^(g+1).
Every seed-3 spec of both workloads is scaled by u in {2, -3}, and the
fields compared under translation, with the total bound, must agree.

Under the involution y -> -y, omega_j pulls back to -omega_j, so the spec
(a, v, h, eta) becomes (a, -v, h o iota, iota^* eta) on the same model, and
the disk (x_bar, y_bar) becomes (x_bar, -y_bar).  A non-Weierstrass disk is
then compared with its conjugate, whose chart is built on its own: the
niceness witnesses must agree too.  The two infinite disks of an even model
are bounded jointly, so they keep their labels.  Every seed-3 spec of both
workloads is swapped, eta specs included.
"""

from fractions import Fraction
from math import comb

import pytest
from perfbench_support import workload_cases

from qcbound import ColemanSpec, CurveFunction, CurveModel, Poly
from qcbound.funcfield import RationalFunc
from qcbound.pipeline import run_pipeline

SEED = 3


def pulled_back(F, Cs, s):
    """The curve function F(X + s, y) on the shifted model Cs."""
    return CurveFunction(Cs, *(RationalFunc(part.num.compose_shift(s), part.den.compose_shift(s))
                               for part in F.view()))


def shifted_spec(spec, s):
    """The spec pulled back through x = X + s."""
    C = spec.curve
    Cs = CurveModel(C.kind, C.f.compose_shift(s))
    n = len(spec.basis)
    M = [[Fraction(comb(j, k) * s ** (j - k)) if k <= j else Fraction(0) for k in range(n)]
         for j in range(n)]
    a = [[sum(M[i][k] * spec.a_matrix[i][j] * M[j][l] for i in range(n) for j in range(n))
          for l in range(n)] for k in range(n)]
    v = [sum(M[j][k] * spec.a_vector[j] for j in range(n)) for k in range(n)]
    eta = None if spec.eta is None else pulled_back(spec.eta, Cs, s)
    return ColemanSpec(curve=Cs, p=spec.p, a_matrix=a, a_vector=v, h=pulled_back(spec.h, Cs, s),
                       eta=eta, T=spec.T)


def disk_key(disk, s, p):
    """The disk's name on the model shifted by s."""
    if disk.kind == "infinite":
        return disk.label
    return (disk.kind, (disk.x_bar - s) % p, disk.y_bar)


def compared(ana):
    return {
        "n_b": ana.n_b,
        "n_b_method": ana.n_b_method,
        "order": ana.order,
        "bound": ana.bound,
        "certified_algebraic": ana.certified,
        "nice_ok": None if ana.nice is None else ana.nice.ok,
        "ok": ana.error is None,
    }


def _pairs():
    out = []
    for case in workload_cases("genus1_batch", SEED):
        out += [(case, s) for s in (1, -2, int(case.spec.p))]
    out += [(case, 1) for case in workload_cases("genus2_even_p7", SEED)]
    return out


PAIRS = _pairs()


@pytest.fixture(scope="module")
def original_runs():
    """run_pipeline of each unshifted spec, shared by its shifts."""
    return {}


@pytest.mark.parametrize("case,s", PAIRS, ids=[f"{c.spec_id}-shift{s}" for c, s in PAIRS])
def test_translation_covariance(original_runs, case, s):
    spec = case.spec
    p = int(spec.p)
    if case.spec_id not in original_runs:
        original_runs[case.spec_id] = run_pipeline(spec)
    before = {disk_key(a.disk, s, p): compared(a) for a in original_runs[case.spec_id].analyses}
    after = {disk_key(a.disk, 0, p): compared(a) for a in run_pipeline(shifted_spec(spec, s)).analyses}
    assert before.keys() == after.keys()
    for key in before:
        assert after[key] == before[key], key


def test_pair_count():
    # six odd and six eta-carrying even genus1_batch specs at three shifts,
    # one genus-2 spec at one
    assert len(PAIRS) == 37


def swapped_spec(spec):
    """The spec pulled back through y -> -y."""
    assert not spec.constants
    return ColemanSpec(curve=spec.curve, p=spec.p, a_matrix=[list(row) for row in spec.a_matrix],
                       a_vector=[-c for c in spec.a_vector], h=spec.h.involution(),
                       eta=spec.eta.involution() if spec.eta is not None else None, T=spec.T)


def swapped_key(disk, p):
    """The disk's name after y -> -y."""
    if disk.kind == "infinite":
        return disk.label
    return (disk.kind, disk.x_bar, -disk.y_bar % p)


def compared_with_witnesses(ana):
    nice = ana.nice
    return {**compared(ana),
            "witnesses": None if nice is None else (nice.integrality_witness, nice.unit_witness)}


SWAP_CASES = [case for workload in ("genus1_batch", "genus2_even_p7")
              for case in workload_cases(workload, SEED)]


@pytest.mark.parametrize("case", SWAP_CASES, ids=[c.spec_id for c in SWAP_CASES])
def test_sheet_swap_covariance(original_runs, case):
    spec = case.spec
    p = int(spec.p)
    if case.spec_id not in original_runs:
        original_runs[case.spec_id] = run_pipeline(spec)
    original = original_runs[case.spec_id]
    swapped = run_pipeline(swapped_spec(spec))
    before = {swapped_key(a.disk, p): compared_with_witnesses(a) for a in original.analyses}
    after = {disk_key(a.disk, 0, p): compared_with_witnesses(a) for a in swapped.analyses}
    assert before.keys() == after.keys()
    for key in before:
        assert after[key] == before[key], key
    assert swapped.total_bound == original.total_bound


def weights(C):
    """(a, b) with X = u^a x and Y = u^b y."""
    g = C.genus
    return (2, 2 * g + 1) if C.kind == "odd" else (1, g + 1)


def substituted(P, c, scale=1):
    """scale * P(c X) as a Poly."""
    return Poly([scale * coef * c ** k for k, coef in enumerate(P.coeffs)])


def scaled_function(F, Cu, u, a, b):
    """F(X / u^a, Y / u^b) on the scaled model Cu."""
    c = Fraction(1, u ** a)
    A, B = F.view()
    return CurveFunction(Cu, RationalFunc(substituted(A.num, c), substituted(A.den, c)),
                         RationalFunc(substituted(B.num, c, Fraction(1, u ** b)), substituted(B.den, c)))


def scaled_spec(spec, u):
    """The spec pulled back through x = X / u^a, y = Y / u^b."""
    C = spec.curve
    a, b = weights(C)
    g = C.genus
    Cu = CurveModel(C.kind, substituted(C.f, Fraction(1, u ** a), Fraction(u ** (2 * b))))
    n = len(spec.basis)
    lam = [Fraction(u) ** (2 * g - 1 - 2 * j if C.kind == "odd" else g - j) for j in range(n)]
    A = [[lam[i] * spec.a_matrix[i][j] * lam[j] for j in range(n)] for i in range(n)]
    v = [lam[j] * spec.a_vector[j] for j in range(n)]
    eta = None
    if spec.eta is not None:
        eta = scaled_function(spec.eta, Cu, u, a, b) * CurveFunction.const(Cu, Fraction(1, u ** a))
    return ColemanSpec(curve=Cu, p=spec.p, a_matrix=A, a_vector=v, h=scaled_function(spec.h, Cu, u, a, b),
                       eta=eta, T=spec.T)


def scaled_key(disk, u, C, p):
    """The disk's name on the model scaled by u."""
    if disk.kind == "infinite":
        return disk.label
    a, b = weights(C)
    return (disk.kind, u ** a * disk.x_bar % p, u ** b * disk.y_bar % p)


SCALES = [(case, u) for case in SWAP_CASES for u in (2, -3)]


@pytest.mark.parametrize("case,u", SCALES, ids=[f"{c.spec_id}-u{u}" for c, u in SCALES])
def test_weighted_scaling_covariance(original_runs, case, u):
    spec = case.spec
    p = int(spec.p)
    if case.spec_id not in original_runs:
        original_runs[case.spec_id] = run_pipeline(spec)
    original = original_runs[case.spec_id]
    scaled = run_pipeline(scaled_spec(spec, u))
    before = {scaled_key(an.disk, u, spec.curve, p): compared(an) for an in original.analyses}
    after = {disk_key(an.disk, 0, p): compared(an) for an in scaled.analyses}
    assert before.keys() == after.keys()
    for key in before:
        assert after[key] == before[key], key
    assert scaled.total_bound == original.total_bound


def test_scaled_model_is_the_pullback():
    # y^2 = f(x) at (x, y) = (X / u^a, Y / u^b) is Y^2 = f_u(X), and G's
    # basis differentials scale by lambda_j
    C = CurveModel("even", [2, 1, 0, 0, 1])
    spec = ColemanSpec(curve=C, p=7, a_matrix=[[1, 0, 0], [0, 0, 0], [0, 0, 0]], a_vector=[0, 0, 0], T=16)
    Cu = scaled_spec(spec, 2).curve
    assert Cu.f == Poly([32, 8, 0, 0, 1])
    X, Y = CurveFunction.x(Cu), CurveFunction.y(Cu)
    x = scaled_function(CurveFunction.x(C), Cu, 2, 1, 2)
    y = scaled_function(CurveFunction.y(C), Cu, 2, 1, 2)
    assert x * CurveFunction.const(Cu, 2) == X and y * CurveFunction.const(Cu, 4) == Y
    assert scaled_spec(spec, 2).a_matrix[0][0] == 4     # lambda_0 = u^g
