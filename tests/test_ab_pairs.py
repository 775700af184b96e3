"""tools/ab_pairs.py on stubbed benchmark runs: failed and attempted totals,
the bounds of BENCHMARK.json and the environment of each run."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("parent_failed, change_failed, code", [(1, 1, 0), (2, 1, 0), (1, 2, 1)])
def test_exit_1_when_the_change_fails_a_larger_share(monkeypatch, capsys, tmp_path,
                                                      parent_failed, change_failed, code):
    ab = load_ab_pairs()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def run_once(checkout, args, seconds):
        failed = change_failed if checkout == ab.ROOT else parent_failed
        return {"correct": True, "attempted": 10, "failed": failed,
                "metrics": {name: {"value": 1.0} for name in names}}

    monkeypatch.setattr(ab, "run_once", run_once)
    assert ab.main([str(tmp_path), "--workload", "genus1_batch", "--pairs", "2"]) == code
    out = capsys.readouterr().out
    assert f"parent: {2 * parent_failed}/20 operations failed" in out
    assert f"change: {2 * change_failed}/20 operations failed" in out


def stub_run_once(ab, change_metrics):
    """run_once returning 1.0 for every metric, and ``change_metrics`` on the change side."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    def run_once(checkout, args, seconds):
        values = {name: 1.0 for name in names}
        if checkout == ab.ROOT:
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
def test_exit_1_when_a_median_is_worse_than_its_bound(monkeypatch, capsys, tmp_path, change_metrics, code):
    ab = load_ab_pairs()
    monkeypatch.setattr(ab, "run_once", stub_run_once(ab, change_metrics))
    assert ab.main([str(tmp_path), "--workload", "genus1_batch", "--pairs", "2"]) == code
    captured = capsys.readouterr()
    (name,) = change_metrics
    row = next(line for line in captured.out.splitlines() if line.startswith(name))
    assert row.endswith("WORSE than 25%" if name == "setup_s" else "WORSE than 5%") == bool(code)
    assert (f"worse than the bound: {name}" in captured.err) == bool(code)


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
