"""The algebraic route to a disk's local operator, kept as the oracle.

A plan holds only the d/dx factor D1 of its operator D = D1 o d/omega_0,
and ``analyze_disk`` builds L = ``compose_with_base(local_operator(D1,
chart), "omega0", chart)``.  The oracle builds D itself first, as an
algebraic operator whose coefficients are functions over powers of f, and
writes it in the chart parameter with ``local_operator(D, chart)``.
"""

from qcbound import pipeline
from qcbound.diffops import compose_with_base, local_operator, weierstrass_local_annihilator


def algebraic_operator(spec):
    """D = D1 o d/omega_0 of a spec's disks with a candidate: (d/omega_0)^2
    on the order-2 shape, else (d/dx)^q (d/omega_0)."""
    if pipeline.uses_order2_shape(spec):
        return pipeline._order2_operator(spec.curve)
    return pipeline._nonweierstrass_operator(spec.curve)


def oracle_local_operator(plan, disk, chart):
    """L of ``disk`` by the algebraic route; the composed Weierstrass
    annihilator on the disks that have no candidate."""
    if plan.operators[disk.kind].D1 is None:
        return compose_with_base(weierstrass_local_annihilator(chart), "omega0", chart)
    return local_operator(algebraic_operator(plan.spec), chart)
