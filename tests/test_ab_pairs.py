"""tools/ab_pairs.py on stubbed benchmark runs: failed and attempted totals."""

import importlib.util
import json
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
