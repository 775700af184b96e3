"""Correctness gate: recorded reference, pipeline invariants, hand-derived oracle."""

import hashlib
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def spec_digest(spec):
    """Fingerprint of the generated input, so a changed generator is told apart
    from a changed result."""
    C = spec.curve
    return _digest([
        C.kind, [str(c) for c in C.f.coeffs], int(spec.p), spec.T,
        [[str(c) for c in row] for row in spec.a_matrix],
        [str(c) for c in spec.a_vector], repr(spec.h), repr(spec.eta),
    ])


def result_digest(result_json):
    return _digest(result_json)


def load_reference(workload, seed):
    """Recorded {spec_id: {"spec": digest, "result": digest}} for one input."""
    with open(REFERENCE_PATH) as fh:
        recorded = json.load(fh)
    return recorded[workload][str(seed)]


def check_case(case, result, result_json, reference):
    """Messages for every failed check on one spec's result (empty when correct)."""
    failures = []
    expected = reference.get(case.spec_id)
    if expected is None:
        failures.append(f"{case.spec_id}: no recorded reference")
    elif expected["spec"] != spec_digest(case.spec):
        failures.append(f"{case.spec_id}: generated spec differs from the recorded one")
    elif expected["result"] != result_digest(result_json):
        failures.append(f"{case.spec_id}: result_to_json differs from the recorded reference")
    for a in result.analyses:
        if a.disk.kind == "affine_nonweierstrass":
            if a.certified is not True or a.nice is None or not a.nice.ok:
                failures.append(f"{case.spec_id} {a.disk}: non-Weierstrass disk not certified and nice")
    bounds = [a.bound for a in result.analyses]
    if result.ok and (None in bounds or result.total_bound != sum(bounds)):
        failures.append(f"{case.spec_id}: total_bound is not the sum of the per-disk bounds")
    if case.order2_a is not None:
        failures.extend(_order2_oracle(case, result))
    return failures


def _order2_oracle(case, result):
    """Odd genus-1 specs with a = [[a, 1], [0, 0]], zero a-vector and constant h.

    (d/omega_0)^2 G = x + a.  On a non-Weierstrass disk x = x0 + t with x0 = x_bar
    mod p, so x + a = (x0 + a) + t: the first coefficient of least valuation is
    t^1 exactly when x_bar + a = 0 mod p, else t^0.  Hence n_b is 1 or 0.
    """
    p = int(case.spec.p)
    out = []
    for a in result.analyses:
        if a.disk.kind != "affine_nonweierstrass":
            continue
        expected = 1 if (a.disk.x_bar + case.order2_a) % p == 0 else 0
        if a.n_b != expected:
            out.append(f"{case.spec_id} {a.disk}: oracle expects n_b = {expected}, got {a.n_b} ({a.error})")
    return out
