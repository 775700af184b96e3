"""Alternate the benchmark between a parent checkout and this one.

    python3 tools/ab_pairs.py PARENT_DIR --workload genus2_even_p7 --seed 3 --pairs 10

PARENT_DIR is a second checkout of the parent commit (for example
``git worktree add ../parent HEAD~1``).  Each pair runs
``perfbench/run.py --trace 0`` once in each checkout for the ``run_seconds``
of BENCHMARK.json, one after the other,
and swaps which side goes first from one pair to the next, so that a drift
of the machine lands on both sides alike.  Before the first pair both
checkouts are copied into sibling directories ``parent`` and ``change`` of
one temporary directory (their files, hidden entries, bytecode caches and
perfbench/out/ aside), so that both sides run from paths of the same length
and depth; ``peak_rss_mb`` read about 1.4% apart for the same code run from
two different directories.  Each side runs its own sources and writes its
own perfbench/out/ in its copy.  Every run starts with no bytecode cache:
PYTHONDONTWRITEBYTECODE=1 and PYTHONPYCACHEPREFIX set to a fresh empty
directory, so that both sides compile their sources as a fresh checkout
does, and ``setup_s``, which imports the library, measures that compile.

For every end-to-end metric of BENCHMARK.json this prints the median of
each side, the parent's quartiles, the median over pairs of the ratio
change / parent, in how many pairs the change was better, the change of the
median against the metric's relative bound (``+8.4% of 10%``), in how many
pairs the change alone was worse than the parent by more than that bound,
and whether the change's median is worse than the parent's by more than the
bound; then each side's failed and attempted operations summed over its
runs.  The margin and the pairs over the bound only inform: the verdict and
the exit code read the medians.  A metric that is not worse is
"unresolved" when the spread of the parent's quartiles exceeds that bound,
unless every run of the change beat every run of the parent: the runs then
cannot tell a change within the bound from noise.  Exits 1 when any run fails its correctness gate, when the
change's failed share is above the parent's or when a metric is worse than
its bound, 0 otherwise.

The two sides compare programs only when they run the same benchmark: when
BENCHMARK.json or any file under perfbench/ (perfbench/out/ and bytecode
caches aside) differs between PARENT_DIR and this checkout, it names the
files and exits 2 before any run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout, args, seconds):
    """The last stdout line of one benchmark run in ``checkout``, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory() as cache:
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": cache}
        proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{checkout}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def copy_checkout(checkout, dest):
    """Copy the files of ``checkout`` to ``dest``, leaving out hidden entries
    (.git, tool caches), bytecode caches and perfbench/out/."""
    def ignore(directory, names):
        return [name for name in names if name.startswith(".") or name == "__pycache__"
                or (name == "out" and Path(directory) == checkout / "perfbench")]

    shutil.copytree(checkout, dest, ignore=ignore)
    return dest


def _benchmark_files(checkout):
    """{relative path: bytes} of BENCHMARK.json and perfbench/, outputs aside."""
    files = {}
    for path in [checkout / "BENCHMARK.json", *sorted((checkout / "perfbench").rglob("*"))]:
        rel = path.relative_to(checkout)
        if path.is_file() and rel.parts[:2] != ("perfbench", "out") and "__pycache__" not in rel.parts:
            files[rel.as_posix()] = path.read_bytes()
    return files


def benchmark_differences(parent):
    """Paths of the benchmark files that differ between ``parent`` and this checkout."""
    ours, theirs = _benchmark_files(ROOT), _benchmark_files(parent)
    return sorted(name for name in ours.keys() | theirs.keys() if ours.get(name) != theirs.get(name))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    differences = benchmark_differences(args.parent.resolve())
    if differences:
        print("the benchmark differs between the checkouts: " + ", ".join(differences), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as copies:
        sides = {"parent": copy_checkout(args.parent.resolve(), Path(copies) / "parent"),
                 "change": copy_checkout(ROOT, Path(copies) / "change")}
        return run_pairs(args, sides)


def worse_by(parent, change, lower):
    """How much worse ``change`` is than ``parent``; negative when better."""
    return change - parent if lower else parent - change


def run_pairs(args, sides):
    """Run the pairs in the checkouts ``sides`` and print the comparison; the exit code."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    operations = {side: {"failed": 0, "attempted": 0} for side in sides}
    correct = True
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            out = run_once(sides[side], args, seconds)
            correct &= out["correct"]
            for key in operations[side]:
                operations[side][key] += out[key]
            for m in metrics:
                values[side][m["name"]].append(out["metrics"][m["name"]]["value"])
        print(f"pair {i + 1}: " + "  ".join(
            f"{m['name']} {values['parent'][m['name']][-1]:.4g} -> {values['change'][m['name']][-1]:.4g}"
            for m in metrics), flush=True)
    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs at --seconds {seconds}")
    print(f"{'metric':<14} {'parent':>10} {'parent q1-q3':>21} {'change':>10} {'ratio':>8}  better"
          f"  {'median vs bound':>15}  over  bound")
    beyond_bound = []
    for m in metrics:
        name = m["name"]
        parent, change = values["parent"][name], values["change"][name]
        ratios = [c / p for p, c in zip(parent, change) if p]
        lower = m["better"] == "lower"
        better = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        ratio = f"{statistics.median(ratios):.3f}" if ratios else "-"
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
        quartiles = f"{q1:.4g}-{q3:.4g}"
        mp, mc = statistics.median(parent), statistics.median(change)
        spread = q3 - q1
        beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
        margin = f"{mc / mp - 1:+.1%} of {m['bound']:.0%}" if mp else "-"
        over = sum(worse_by(p, c, lower) > m["bound"] * abs(p) for p, c in zip(parent, change))
        if worse_by(mp, mc, lower) > m["bound"] * abs(mp):
            beyond_bound.append(name)
            verdict = f"WORSE than {m['bound']:.0%}"
        elif spread > m["bound"] * abs(mp) and not beats_all:
            verdict = f"unresolved (parent spread {spread / abs(mp) if mp else float('inf'):.0%})"
        else:
            verdict = f"within {m['bound']:.0%}"
        print(f"{name:<14} {mp:>10.4g} {quartiles:>21} {mc:>10.4g} "
              f"{ratio:>8}  {better}/{args.pairs}  {margin:>15}  {over}/{args.pairs}  {verdict}")
    for side, ops in operations.items():
        print(f"{side}: {ops['failed']}/{ops['attempted']} operations failed")
    share = {side: ops["failed"] / max(ops["attempted"], 1) for side, ops in operations.items()}
    more_failures = share["change"] > share["parent"]
    if not correct:
        print("a run failed its correctness gate", file=sys.stderr)
    if more_failures:
        print("the change fails a larger share of operations than the parent", file=sys.stderr)
    if beyond_bound:
        print("worse than the bound: " + ", ".join(beyond_bound), file=sys.stderr)
    return 0 if correct and not more_failures and not beyond_bound else 1


if __name__ == "__main__":
    sys.exit(main())
