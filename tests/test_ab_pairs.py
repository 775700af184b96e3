"""tools/ab_pairs.py on stubbed benchmark runs: failed and attempted totals,
the bounds of BENCHMARK.json, the margin of each median against its bound
and the pairs over it, metrics the parent's spread leaves unresolved,
the environment of each run, the sibling copies both sides run from, and the
refusal of two checkouts whose benchmarks differ."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def parent(tmp_path):
    """A parent checkout that shares this checkout's benchmark."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    return tmp_path


@pytest.mark.parametrize("parent_failed, change_failed, code", [(1, 1, 0), (2, 1, 0), (1, 2, 1)])
def test_exit_1_when_the_change_fails_a_larger_share(monkeypatch, capsys, parent,
                                                      parent_failed, change_failed, code):
    ab = load_ab_pairs()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def run_once(checkout, args, seconds):
        failed = change_failed if checkout.name == "change" else parent_failed
        return {"correct": True, "attempted": 10, "failed": failed,
                "metrics": {name: {"value": 1.0} for name in names}}

    monkeypatch.setattr(ab, "run_once", run_once)
    assert ab.main([str(parent), "--workload", "genus1_batch", "--pairs", "2"]) == code
    out = capsys.readouterr().out
    assert f"parent: {2 * parent_failed}/20 operations failed" in out
    assert f"change: {2 * change_failed}/20 operations failed" in out


def stub_run_once(ab, change_metrics):
    """run_once returning 1.0 for every metric, and ``change_metrics`` on the change side."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def run_once(checkout, args, seconds):
        values = {name: 1.0 for name in names}
        if checkout.name == "change":
            values.update(change_metrics)
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {name: {"value": v} for name, v in values.items()}}

    return run_once


@pytest.mark.parametrize("change_metrics, code", [
    ({"setup_s": 1.3}, 1),
    ({"setup_s": 1.1}, 0),
    ({"setup_s": 0.5}, 0),
    ({"disks_ok_frac": 0.9}, 1),
    ({"disks_ok_frac": 0.97}, 0),
])
def test_exit_1_when_a_median_is_worse_than_its_bound(monkeypatch, capsys, parent, change_metrics, code):
    ab = load_ab_pairs()
    monkeypatch.setattr(ab, "run_once", stub_run_once(ab, change_metrics))
    assert ab.main([str(parent), "--workload", "genus1_batch", "--pairs", "2"]) == code
    captured = capsys.readouterr()
    (name,) = change_metrics
    row = next(line for line in captured.out.splitlines() if line.startswith(name))
    assert row.endswith("WORSE than 25%" if name == "setup_s" else "WORSE than 5%") == bool(code)
    assert (f"worse than the bound: {name}" in captured.err) == bool(code)


@pytest.mark.parametrize("parent_runs, change_runs, verdict, code", [
    # parent quartiles 0.7-1.3 around a median of 1: a 60% spread against 25%
    ([0.6, 1.0, 1.0, 1.4], [1.0] * 4, "unresolved (parent spread 60%)", 0),
    ([0.6, 1.0, 1.0, 1.4], [0.9, 1.1, 1.2, 0.8], "unresolved (parent spread 60%)", 0),
    ([0.6, 1.0, 1.0, 1.4], [0.5] * 4, "within 25%", 0),           # every change run beats every parent run
    ([0.6, 1.0, 1.0, 1.4], [1.3] * 4, "WORSE than 25%", 1),
    ([0.98, 1.0, 1.0, 1.02], [1.1] * 4, "within 25%", 0),         # a tight parent resolves the bound
])
def test_unresolved_when_the_parent_spreads_past_the_bound(monkeypatch, capsys, parent,
                                                           parent_runs, change_runs, verdict, code):
    ab = load_ab_pairs()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    runs = {"parent": iter(parent_runs), "change": iter(change_runs)}

    def run_once(checkout, args, seconds):
        values = {name: 1.0 for name in names}
        values["setup_s"] = next(runs["change" if checkout.name == "change" else "parent"])
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {name: {"value": v} for name, v in values.items()}}

    monkeypatch.setattr(ab, "run_once", run_once)
    assert ab.main([str(parent), "--workload", "genus1_batch", "--pairs", "4"]) == code
    rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines() if line.strip()}
    assert rows["setup_s"].endswith(verdict)
    assert rows["pipeline_s"].endswith("within 25%")


@pytest.mark.parametrize("change_runs, margin, over, verdict, code", [
    # a median 9% up, with 2 of the 6 pairs past the 10% bound on their own
    ([1.09, 1.05, 1.12, 1.09, 1.15, 1.08], "+9.0% of 10%", "2/6", "within 10%", 0),
    ([1.11] * 6, "+11.0% of 10%", "6/6", "WORSE than 10%", 1),
])
def test_margin_and_pairs_over_the_bound(monkeypatch, capsys, parent, change_runs, margin, over, verdict, code):
    ab = load_ab_pairs()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    runs = iter(change_runs)

    def run_once(checkout, args, seconds):
        values = {name: 1.0 for name in names}
        if checkout.name == "change":
            values["peak_rss_mb"] = next(runs)
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {name: {"value": v} for name, v in values.items()}}

    monkeypatch.setattr(ab, "run_once", run_once)
    assert ab.main([str(parent), "--workload", "genus1_batch", "--pairs", "6"]) == code
    rows = {line.split()[0]: line for line in capsys.readouterr().out.splitlines() if line.strip()}
    assert rows["peak_rss_mb"].endswith(f"{margin}  {over}  {verdict}")
    assert rows["pipeline_s"].endswith("+0.0% of 25%  0/6  within 25%")


def test_runs_start_with_no_bytecode_cache(monkeypatch, tmp_path):
    ab = load_ab_pairs()
    envs = []
    line = json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {}})

    def run(cmd, cwd, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        assert cache.is_dir() and not any(cache.iterdir())
        envs.append(env)
        return subprocess.CompletedProcess(cmd, 0, stdout=line + "\n", stderr="")

    monkeypatch.setattr(ab.subprocess, "run", run)
    args = ab.argparse.Namespace(workload="genus1_batch", seed=3)
    for _ in range(2):
        assert ab.run_once(tmp_path, args, 1)["correct"]
    assert [env["PYTHONDONTWRITEBYTECODE"] for env in envs] == ["1", "1"]
    assert envs[0]["PYTHONPYCACHEPREFIX"] != envs[1]["PYTHONPYCACHEPREFIX"]


@pytest.mark.parametrize("edit, named", [
    (lambda parent: (parent / "BENCHMARK.json").write_text("{}"), ["BENCHMARK.json"]),
    (lambda parent: (parent / "perfbench" / "workloads.py").write_text("# edited\n"), ["perfbench/workloads.py"]),
    (lambda parent: (parent / "perfbench" / "extra.py").write_text(""), ["perfbench/extra.py"]),
    (lambda parent: (parent / "perfbench" / "checks.py").unlink(), ["perfbench/checks.py"]),
    (lambda parent: shutil.rmtree(parent / "perfbench"), None),
])
def test_exit_2_when_the_benchmarks_differ(monkeypatch, capsys, parent, edit, named):
    ab = load_ab_pairs()

    def run_once(*args):
        raise AssertionError("no run may start")

    monkeypatch.setattr(ab, "run_once", run_once)
    edit(parent)
    assert ab.main([str(parent), "--workload", "genus1_batch", "--pairs", "2"]) == 2
    err = capsys.readouterr().err
    assert "the benchmark differs between the checkouts" in err
    for name in named or ["perfbench/run.py", "perfbench/reference.json"]:
        assert name in err


def test_benchmark_outputs_are_not_compared(monkeypatch, capsys, parent):
    ab = load_ab_pairs()
    monkeypatch.setattr(ab, "run_once", stub_run_once(ab, {}))
    (parent / "perfbench" / "out").mkdir()
    (parent / "perfbench" / "out" / "last.json").write_text("{}")
    (parent / "perfbench" / "__pycache__").mkdir()
    (parent / "perfbench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"\0")
    assert ab.benchmark_differences(parent) == []
    assert ab.main([str(parent), "--workload", "genus1_batch", "--pairs", "2"]) == 0


def test_both_sides_run_from_sibling_copies(monkeypatch, parent):
    ab = load_ab_pairs()
    (parent / "src").mkdir()
    (parent / "src" / "lib.py").write_text("# parent\n")
    (parent / "perfbench" / "out").mkdir()
    (parent / "perfbench" / "out" / "last.json").write_text("{}")
    (parent / ".git").mkdir()
    checkouts = []
    stubbed = stub_run_once(ab, {})

    def run_once(checkout, args, seconds):
        checkouts.append(checkout)
        assert (checkout / "BENCHMARK.json").is_file() and (checkout / "perfbench" / "run.py").is_file()
        assert not (checkout / "perfbench" / "out").exists() and not (checkout / ".git").exists()
        assert not any(checkout.rglob("__pycache__"))
        source = checkout / "src" / ("lib.py" if checkout.name == "parent" else "qcbound/diffops.py")
        assert source.is_file()
        return stubbed(checkout, args, seconds)

    monkeypatch.setattr(ab, "run_once", run_once)
    assert ab.main([str(parent), "--workload", "genus1_batch", "--pairs", "2"]) == 0
    assert {c.name for c in checkouts} == {"parent", "change"} and len(checkouts) == 4
    (copies,) = {c.parent for c in checkouts}
    assert copies not in (parent, parent.parent, ab.ROOT, ab.ROOT.parent)
    assert not copies.exists()
