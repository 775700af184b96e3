"""Command-line driver: counting, bounds, operators, disk analysis, pipeline.

Exit codes: 0 success, 1 precision or degeneracy failures, 2 invalid input
(including unmet hypotheses, missing attestations and unopenable files).  A
closed stdout (``qcbound ... | head``) exits 1 silently, by the SIGPIPE recipe
of the Python docs: stdout is pointed at os.devnull.  All output is
deterministic for fixed inputs: tables use fixed ordering and the JSON
reports are dumped with sorted keys.

Curve files contain one line: ``kind g c_0 c_1 ... c_deg`` (coefficients of
the monic f, lowest degree first).  Pipeline specs are the JSON documents
described in the coleman module.
"""

import argparse
import json
import os
import sys
from contextlib import nullcontext

from . import bounds as bounds_mod
from .coleman import _rational, parse_spec_data
from .diffops import check_nice, weierstrass_annihilator, weierstrass_local_annihilator, weierstrass_orders
from .errors import DegenerateOperatorError, DomainError, PrecisionError
from .funcfield import chart_for, default_truncation, weierstrass_chart
from .hyperelliptic import (
    CurveModel,
    DiskDescriptor,
    count_points_fp,
    good_reduction_at,
    has_smooth_reduction,
    hasse_weil_ok,
    residue_disks,
)
from .padics import Prime
from .pipeline import analyze_disk, result_to_json, run_pipeline


def _coefficients(texts, what):
    """Curve coefficients from their text forms; DomainError on a malformed one."""
    return [_rational(c, f"{what} coefficient") for c in texts]


def _opened(path, mode="r"):
    """open(path, mode); a file that cannot be opened is invalid input."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise DomainError(str(exc)) from exc


def load_curve_file(path):
    with _opened(path) as fh:
        parts = fh.read().split()
    if len(parts) < 3:
        raise DomainError("curve file needs: kind g c_0 c_1 ... c_deg")
    kind, genus = parts[0], int(parts[1])
    return CurveModel(kind, _coefficients(parts[2:], "curve file"), genus=genus)


def curve_from_args(args):
    if getattr(args, "curve", None):
        return load_curve_file(args.curve)
    if getattr(args, "kind", None) and getattr(args, "f", None):
        return CurveModel(args.kind, _coefficients(args.f.split(","), "--f"))
    raise DomainError("provide --curve FILE or --kind with --f c0,c1,...")


def _write_out(args, payload):
    """Write the report to the --out file, which ``main`` opened before the
    command ran, so that an unopenable path fails before any output."""
    if args.out:
        json.dump(payload, args.out, indent=2, sort_keys=True)
        args.out.write("\n")


def cmd_count(args):
    curve = curve_from_args(args)
    p = Prime(args.p)
    if not has_smooth_reduction(curve, p):
        print(f"error: {int(p)} | disc(f): bad reduction at {int(p)}", file=sys.stderr)
        return 2
    total, nw, w, inf = count_points_fp(curve, p)
    print(f"curve: {curve.kind} model, genus {curve.genus}, p = {int(p)}")
    print(f"{'class':<24}{'count':>8}")
    print(f"{'total':<24}{total:>8}")
    print(f"{'non-Weierstrass':<24}{nw:>8}")
    print(f"{'Weierstrass (affine)':<24}{w:>8}")
    print(f"{'infinite':<24}{inf:>8}")
    print(f"Hasse-Weil window: {'ok' if hasse_weil_ok(curve, p, total) else 'VIOLATED'}")
    _write_out(args, {
        "total": total, "non_weierstrass": nw, "weierstrass": w, "infinite": inf,
        "hasse_weil_ok": hasse_weil_ok(curve, p, total),
    })
    return 0


def _require(condition, message):
    if not condition:
        raise DomainError(message)


def _truncation(args, default):
    """The --T option when given (it must be a positive integer), else default."""
    if args.T is None:
        return default
    _require(args.T >= 1, f"--T must be a positive integer, got {args.T}")
    return args.T


def cmd_bound(args):
    curve = curve_from_args(args)
    g = curve.genus
    if args.corollary:
        _require(args.attest_condition, "the corollary requires --attest-condition A|B")
        _require(args.attest_rank_eq_g, "the corollary requires --attest-rank-eq-g")
        _require(
            args.attest_potential_good,
            "the corollary requires --attest-potential-good (potential good reduction everywhere)",
        )
        _require(good_reduction_at(curve, 3), "the corollary needs good reduction at 3")
        report = bounds_mod.cor_potential_good(g)
    elif args.integral:
        _require(curve.kind == "odd", "--integral needs an odd model (rational Weierstrass point at infinity)")
        _require(args.attest_rank_eq_g, "the integral bound requires --attest-rank-eq-g")
        _require(args.mv is not None, "the integral bound requires --mv (prod of local constants m_v)")
        p = Prime(args.p)
        _require(has_smooth_reduction(curve, p), f"bad reduction at {int(p)}")
        total, _, w, inf = count_points_fp(curve, p)
        report = bounds_mod.thm_integral(g, p, args.mv, total - inf, w, mv_provenance=args.mv_note)
    else:
        _require(args.attest_rank_eq_g, "rational-point bounds require --attest-rank-eq-g")
        _require(args.attest_condition, "rational-point bounds require --attest-condition A|B")
        _require(args.nv is not None, "rational-point bounds require --nv (prod of local constants n_v)")
        p = Prime(args.p)
        _require(has_smooth_reduction(curve, p), f"bad reduction at {int(p)}")
        total, _, w, _ = count_points_fp(curve, p)
        if args.general:
            report = bounds_mod.thm1_general(g, p, args.nv, total, nv_provenance=args.nv_note)
        else:
            _require(good_reduction_at(curve, p), f"p = 2g+1 = {int(p)} excluded for even models")
            report = bounds_mod.thm1_hyperelliptic(
                g, p, args.nv, total, w, nv_provenance=args.nv_note
            )
    attests = []
    if args.attest_rank_eq_g:
        attests.append("user attests rank = g")
    if args.attest_condition:
        attests.append(f"user attests Condition {args.attest_condition}")
    if getattr(args, "attest_potential_good", False):
        attests.append("user attests potential good reduction at all primes")
    report.provenance.extend(attests)
    print(f"theorem: {report.theorem_id}")
    for key, value in sorted(report.inputs.items()):
        print(f"  {key} = {value}")
    print(f"raw bound (certified rational): {report.raw_value} "
          f"~ {bounds_mod.fraction_decimal(report.raw_value)}")
    print(f"integer bound (strict):         {report.integer_bound}")
    for line in report.provenance:
        print(f"  [{line}]")
    _write_out(args, report.to_json_dict())
    return 0


def cmd_operator(args):
    curve = curve_from_args(args)
    p = Prime(args.p)
    _require(has_smooth_reduction(curve, p), f"bad reduction at {int(p)}")
    T = _truncation(args, default_truncation(curve.genus))
    q = curve.basis_size
    print(f"non-Weierstrass disks: D = (d/dx)^{q} (d/omega_0), order {q + 1}")
    D1 = weierstrass_annihilator(curve, p=p)
    orders = ", ".join(map(str, weierstrass_orders(curve)))
    print(f"Weierstrass operator D_1: order {D1.order} (d/omega_0 powers {orders})")
    wdisks = [d for d in residue_disks(curve, p) if d.kind == "affine_weierstrass"]
    if not wdisks:
        print("no affine Weierstrass disks at this prime")
    code = 0
    for disk in wdisks:
        lead_val = D1.leading.value_mod_p(disk.x_bar, 0, p)
        line = f"disk {disk}: det(B) = {lead_val} mod {int(p)} (unit)"
        try:
            chart = weierstrass_chart(curve, disk, p, T)
            cert = check_nice(weierstrass_local_annihilator(chart), p)
            line += f"; divided-power local operator nice: {cert.ok}"
        except DomainError as exc:
            line += f"; local chart unavailable ({exc})"
        except PrecisionError as exc:
            line += f"; insufficient precision ({exc})"
            code = 1
        print(line)
    return code


def parse_disk(text, curve):
    if text in ("inf", "inf+", "inf-"):
        if text not in curve.infinite_points():
            raise DomainError(f"this model's infinite disks are {curve.infinite_points()}")
        return DiskDescriptor("infinite", label=text)
    try:
        x_s, y_s = text.split(",")
        x_bar, y_bar = int(x_s), int(y_s)
    except ValueError as exc:
        raise DomainError("disk must be 'x,y' or inf/inf+/inf-") from exc
    kind = "affine_weierstrass" if y_bar == 0 else "affine_nonweierstrass"
    return DiskDescriptor(kind, x_bar, y_bar)


def _load_spec(args):
    """The --spec file, with the --T option applied."""
    with _opened(args.spec) as fh:
        spec = parse_spec_data(json.load(fh))
    spec.T = _truncation(args, spec.T)
    return spec


def cmd_analyze_disk(args):
    curve = curve_from_args(args) if not args.spec else None
    if args.spec:
        spec = _load_spec(args)
        curve = spec.curve
    p = Prime(args.p)
    if args.spec:
        _require(int(p) == int(spec.p), f"--p {int(p)} differs from the spec's p = {int(spec.p)}")
    disk = parse_disk(args.disk, curve)
    disks = residue_disks(curve, p)
    _require(disk in disks, f"{args.disk} is not a residue disk of this curve mod {int(p)}")
    if args.spec:
        ana = analyze_disk(spec, disk)
        print(f"disk {disk} [{disk.kind}]")
        print(f"  parameter: {ana.parameter}")
        print(f"  lift:      {ana.lift}")
        print(f"  operator:  {ana.operator} (order {ana.order})")
        if ana.nice is not None:
            print(f"  nice:      {ana.nice.ok}")
        if ana.dg_candidate is not None:
            print(f"  D(G) =     {ana.dg_candidate!r} (certified: {ana.certified})")
        if ana.error:
            print(f"  error:     {ana.error}")
            return 1
        print(f"  N_b = {ana.n_b} ({ana.n_b_method}); per-disk bound {ana.bound}")
        return 0
    T = _truncation(args, default_truncation(curve.genus))
    chart = chart_for(curve, disk, p, T)
    print(f"disk {disk} [{disk.kind}]")
    print(f"  parameter: {chart.description}")
    print(f"  lift:      {chart.center}")
    print(f"  truncation: {T}")
    return 0


def cmd_pipeline(args):
    spec = _load_spec(args)
    result = run_pipeline(spec)
    print(f"pipeline: {spec.curve.kind} model, genus {spec.curve.genus}, p = {int(spec.p)}, T = {spec.T}")
    header = f"{'disk':<12}{'kind':<24}{'order':>6}{'N_b':>6}{'bound':>7}  notes"
    print(header)
    for ana in result.analyses:
        n_b = "-" if ana.n_b is None else ana.n_b
        bound = "-" if ana.bound is None else ana.bound
        notes = []
        if ana.certified is True:
            notes.append("certified")
        if ana.nice is not None:
            notes.append("nice" if ana.nice.ok else "NOT NICE")
        if ana.error:
            notes.append(f"ERROR: {ana.error}")
            if ana.needed_T:
                notes.append(f"needs T >= {ana.needed_T}")
        if ana.n_b_method:
            notes.append(ana.n_b_method)
        print(f"{str(ana.disk):<12}{ana.disk.kind:<24}{ana.order:>6}{n_b:>6}{bound:>7}  {'; '.join(notes)}")
    print(f"note: {result.infinite_note}")
    if result.total_bound is not None:
        print(f"disk-sum total bound: {result.total_bound} (inner sum {result.inner_sum})")
    _write_out(args, result_to_json(result))
    return 0 if result.ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qcbound",
        description="Certified p-adic zero-count bounds on hyperelliptic residue disks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_curve_args(sp):
        sp.add_argument("--curve", help="curve file: 'kind g c_0 c_1 ... c_deg'")
        sp.add_argument("--kind", choices=["even", "odd"], help="model kind for inline --f")
        sp.add_argument("--f", help="inline coefficients of monic f, lowest first, comma-separated")

    sp = sub.add_parser("count", help="point counts over F_p by residue-disk class")
    add_curve_args(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("bound", help="evaluate a closed-form point-count bound")
    add_curve_args(sp)
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--nv", type=int, help="product of local constants n_v (rational points)")
    sp.add_argument("--mv", type=int, help="product of local constants m_v (integral points)")
    sp.add_argument("--nv-note", default="user-supplied", help="provenance note for --nv")
    sp.add_argument("--mv-note", default="user-supplied", help="provenance note for --mv")
    theorem = sp.add_mutually_exclusive_group()
    theorem.add_argument("--general", action="store_true", help="use the general-curve bound")
    theorem.add_argument("--corollary", action="store_true", help="potential-good-reduction uniform bound")
    theorem.add_argument("--integral", action="store_true", help="integral-point bound (odd models)")
    sp.add_argument("--attest-rank-eq-g", action="store_true",
                    help="user attests the Mordell-Weil rank equals the genus")
    sp.add_argument("--attest-condition", choices=["A", "B"],
                    help="user attests Condition A or B (not verifiable here)")
    sp.add_argument("--attest-potential-good", action="store_true",
                    help="user attests potential good reduction at all primes")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("operator", help="construct disk operators and unit certificates")
    add_curve_args(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--T", type=int)
    sp.set_defaults(func=cmd_operator)

    sp = sub.add_parser("analyze-disk", help="chart and (with --spec) zero data of one disk")
    add_curve_args(sp)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--disk", required=True, help="'x,y' or inf / inf+ / inf-")
    sp.add_argument("--spec", help="pipeline spec file (JSON)")
    sp.add_argument("--T", type=int)
    sp.set_defaults(func=cmd_analyze_disk)

    sp = sub.add_parser("pipeline", help="full per-disk analysis from a spec file")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--T", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _opened(args.out, "w") if getattr(args, "out", None) else nullcontext() as out:
            args.out = out
            code = args.func(args)
        sys.stdout.flush()   # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (PrecisionError, DegenerateOperatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
