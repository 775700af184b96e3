import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcbound.cli import main, parse_disk
from qcbound.hyperelliptic import CurveModel, residue_disks
from qcbound.polys import Poly

ROOT = Path(__file__).resolve().parent.parent


def write_curve(tmp_path, line, name="curve.txt"):
    path = tmp_path / name
    path.write_text(line + "\n")
    return str(path)


def elliptic_spec_data(f=("1", "1", "0", "1"), a="2", b="3", p=5, T=16):
    return {
        "curve": {"kind": "odd", "genus": 1, "f": list(f)},
        "p": p,
        "T": T,
        "a_matrix": [[a, "1"], ["0", "0"]],
        "a_vector": ["0", "0"],
        "h": {"a": [b], "b": []},
    }


def spec_with_curve(**changes):
    data = elliptic_spec_data()
    return {**data, "curve": {**data["curve"], **changes}}


def spec_without(*path):
    """The elliptic spec with the key at ``path`` (keys from the top) deleted."""
    data = elliptic_spec_data()
    inner = data
    for key in path[:-1]:
        inner[key] = dict(inner[key])
        inner = inner[key]
    del inner[path[-1]]
    return data


def write_spec(tmp_path, data):
    path = tmp_path / "spec.json"
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def elliptic_spec_file(tmp_path, **kwargs):
    return write_spec(tmp_path, elliptic_spec_data(**kwargs))


class TestCount:
    def test_x5_plus_1(self, tmp_path, capsys):
        curve = write_curve(tmp_path, "odd 2 1 0 0 0 0 1")
        assert main(["count", "--curve", curve, "--p", "3"]) == 0
        out = capsys.readouterr().out
        assert "total" in out and "4" in out

    def test_bad_reduction_exit_2(self, tmp_path, capsys):
        curve = write_curve(tmp_path, "odd 2 1 0 0 0 0 1")
        assert main(["count", "--curve", curve, "--p", "5"]) == 2
        err = capsys.readouterr().err
        assert "disc" in err and "5" in err

    def test_byte_stable(self, tmp_path, capsys):
        curve = write_curve(tmp_path, "odd 2 1 0 0 0 0 1")
        main(["count", "--curve", curve, "--p", "3"])
        first = capsys.readouterr().out
        main(["count", "--curve", curve, "--p", "3"])
        second = capsys.readouterr().out
        assert first == second

    def test_inline_coeffs(self, capsys):
        assert main(["count", "--kind", "odd", "--f", "1,1,0,1", "--p", "5"]) == 0

    def test_inline_zero_denominator_exit_2(self, capsys):
        assert main(["count", "--kind", "odd", "--f", "1,1/0,0,1", "--p", "5"]) == 2
        assert "'1/0' is not a rational number" in capsys.readouterr().err

    def test_curve_file_zero_denominator_exit_2(self, tmp_path, capsys):
        curve = write_curve(tmp_path, "odd 1 1 1/0 0 1")
        assert main(["count", "--curve", curve, "--p", "5"]) == 2
        assert "'1/0' is not a rational number" in capsys.readouterr().err

    def test_python_m_qcbound(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "qcbound", "count", "--kind", "odd", "--f", "1,0,0,1", "--p", "5"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Hasse-Weil window: ok" in proc.stdout

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_is_not_invalid_input(self, unbuffered):
        # as in `qcbound operator ... | head -1`: the reader has gone before
        # the output is written; exit 1 with no error line and no traceback
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qcbound", "operator", "--kind", "even",
                 "--f", "0,-2,0,2,0,-1,1", "--p", "7", "--T", "24"],
                cwd=ROOT, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == ""

    def test_unopenable_out_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        assert main(["count", "--kind", "odd", "--f", "1,0,0,1", "--p", "5", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "No such file or directory" in captured.err
        assert captured.out == ""   # the --out file is opened before the table is printed


class TestBound:
    def test_refuses_without_attestation(self, tmp_path, capsys):
        curve = write_curve(tmp_path, "even 2 2 0 -1 -2 0 0 1")
        code = main(["bound", "--curve", curve, "--p", "3", "--nv", "1"])
        assert code == 2
        assert "attest" in capsys.readouterr().err

    def test_hyperelliptic_bound(self, tmp_path, capsys):
        # f = (x^3-x)(x^3+2), good reduction at 3? disc check happens inside
        curve = write_curve(tmp_path, "even 2 0 -2 0 2 0 -1 1")
        code = main([
            "bound", "--curve", curve, "--p", "7", "--nv", "2",
            "--attest-rank-eq-g", "--attest-condition", "A",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "thm1_hyperelliptic" in out
        assert "integer bound" in out

    def test_corollary(self, tmp_path, capsys):
        curve = write_curve(tmp_path, "even 2 0 -2 0 2 0 -1 1")
        code = main([
            "bound", "--curve", curve, "--corollary",
            "--attest-rank-eq-g", "--attest-condition", "B", "--attest-potential-good",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "1416" in out

    def test_integral(self, tmp_path, capsys):
        curve = write_curve(tmp_path, "odd 1 1 1 0 1")
        code = main([
            "bound", "--curve", curve, "--p", "5", "--integral", "--mv", "1",
            "--attest-rank-eq-g",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "thm_integral" in out

    def test_general_bound(self, tmp_path, capsys):
        curve = write_curve(tmp_path, "even 2 0 -2 0 2 0 -1 1")
        code = main([
            "bound", "--curve", curve, "--p", "7", "--nv", "1", "--general",
            "--attest-rank-eq-g", "--attest-condition", "B",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "thm1_general" in out

    @pytest.mark.parametrize(
        "pair", [("--general", "--corollary"), ("--general", "--integral"), ("--corollary", "--integral")]
    )
    def test_theorem_flags_exclusive_exit_2(self, capsys, pair):
        argv = [
            "bound", "--kind", "odd", "--f", "1,2,0,0,0,1", "--p", "7", "--mv", "1", "--nv", "1",
            "--attest-rank-eq-g", "--attest-condition", "A", "--attest-potential-good", *pair,
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "not allowed with argument" in captured.err
        assert captured.out == ""

    def test_out_file(self, tmp_path):
        curve = write_curve(tmp_path, "even 2 0 -2 0 2 0 -1 1")
        out_path = tmp_path / "report.json"
        main([
            "bound", "--curve", curve, "--p", "7", "--nv", "1",
            "--attest-rank-eq-g", "--attest-condition", "A", "--out", str(out_path),
        ])
        data = json.loads(out_path.read_text())
        assert data["theorem_id"] == "thm1_hyperelliptic"
        assert "raw_value" in data and "integer_bound" in data


class TestOperator:
    def test_genus2_even(self, tmp_path, capsys):
        curve = write_curve(tmp_path, "even 2 0 -2 0 2 0 -1 1")
        code = main(["operator", "--curve", curve, "--p", "7", "--T", "24"])
        out = capsys.readouterr().out
        assert code == 0
        assert "det(B)" in out
        assert "nice: True" in out
        assert "d/omega_0 powers 0, 2, 4, 6, 8, 9)" in out

    def test_genus1_odd_orders(self, capsys):
        # S = {0, 2, 3} for m = 2g = 2
        assert main(["operator", "--kind", "odd", "--f", "1,1,0,1", "--p", "5"]) == 0
        out = capsys.readouterr().out
        assert "Weierstrass operator D_1: order 3 (d/omega_0 powers 0, 2, 3)" in out

    def test_precision_shortfall_named_on_each_disk(self, capsys):
        # T = 3 is too short for the derivative order 3 of S = {0, 2, 3}: each
        # Weierstrass disk reports it on its own line, and the run exits 1
        code = main(["operator", "--kind", "odd", "--f", "0,-1,0,1", "--p", "5", "--T", "3"])
        out = capsys.readouterr().out
        assert code == 1
        lines = {line.split(":")[0]: line for line in out.splitlines() if line.startswith("disk ")}
        assert sorted(lines) == ["disk (0,0)", "disk (1,0)", "disk (4,0)"]
        assert all(line.endswith("; insufficient precision (truncation 3 too low for derivative order 3)")
                   for line in lines.values())


class TestAnalyzeDisk:
    def test_chart_only(self, tmp_path, capsys):
        curve = write_curve(tmp_path, "odd 1 1 1 0 1")
        code = main(["analyze-disk", "--curve", curve, "--p", "5", "--disk", "0,1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "t = x" in out

    def test_with_spec(self, tmp_path, capsys):
        spec = elliptic_spec_file(tmp_path)
        code = main(["analyze-disk", "--spec", spec, "--p", "5", "--disk", "0,1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "certified: True" in out
        assert "N_b" in out

    def test_second_infinite_disk_counted_jointly(self, tmp_path, capsys):
        # alone as in a run, inf- reports 0: inf+ carries the joint bound
        data = {"curve": {"kind": "even", "genus": 1, "f": ["2", "1", "0", "0", "1"]}, "p": 7, "T": 16,
                "a_matrix": [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]], "a_vector": ["0", "0", "0"]}
        spec = write_spec(tmp_path, data)
        assert main(["analyze-disk", "--spec", spec, "--p", "7", "--disk", "inf-"]) == 0
        out = capsys.readouterr().out
        assert "N_b = 0 (counted jointly with the other infinite disk); per-disk bound 0" in out

    def test_invalid_disk(self, tmp_path, capsys):
        curve = write_curve(tmp_path, "odd 1 1 1 0 1")
        assert main(["analyze-disk", "--curve", curve, "--p", "5", "--disk", "1,1"]) == 2

    @pytest.mark.parametrize("kind, f, p", [
        ("odd", [1, 1, 0, 1], 5),
        ("even", [2, 1, 0, 0, 1], 7),
        ("odd", [0, 4, 0, -5, 0, 1], 11),
        ("even", (Poly([0, -1, 0, 1]) * Poly([2, 0, 0, 1])).coeffs, 7),
    ])
    def test_printed_disk_parses_back(self, kind, f, p):
        # str(disk) is the form reports print and spec constants keys use
        C = CurveModel(kind, f)
        for disk in residue_disks(C, p):
            assert parse_disk(str(disk), C) == disk

    def test_printed_disk_on_the_command_line(self, tmp_path, capsys):
        curve = write_curve(tmp_path, "odd 1 1 1 0 1")
        assert main(["analyze-disk", "--curve", curve, "--p", "5", "--disk", "(0,1)"]) == 0
        assert "disk (0,1)" in capsys.readouterr().out
        assert main(["analyze-disk", "--curve", curve, "--p", "5", "--disk", "(0,1"]) == 2

    def test_infinite_disk_chart(self, tmp_path, capsys):
        curve = write_curve(tmp_path, "odd 1 1 1 0 1")
        code = main(["analyze-disk", "--curve", curve, "--p", "5", "--disk", "inf"])
        out = capsys.readouterr().out
        assert code == 0
        assert "x^g/y" in out

    def test_wrong_infinite_label(self, tmp_path):
        curve = write_curve(tmp_path, "odd 1 1 1 0 1")
        assert main(["analyze-disk", "--curve", curve, "--p", "5", "--disk", "inf+"]) == 2


class TestTruncationOption:
    @pytest.mark.parametrize("T", ["0", "-2", "-5"])
    @pytest.mark.parametrize("command", ["operator", "analyze-disk", "analyze-disk-spec", "pipeline"])
    def test_nonpositive_T_exit_2(self, tmp_path, capsys, command, T):
        curve = write_curve(tmp_path, "odd 1 1 1 0 1")
        spec = elliptic_spec_file(tmp_path)
        argv = {
            "operator": ["operator", "--curve", curve, "--p", "5"],
            "analyze-disk": ["analyze-disk", "--curve", curve, "--p", "5", "--disk", "0,1"],
            "analyze-disk-spec": ["analyze-disk", "--spec", spec, "--p", "5", "--disk", "0,1"],
            "pipeline": ["pipeline", "--spec", spec],
        }[command]
        assert main(argv + ["--T", T]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "--T" in captured.err
        assert captured.out == ""

    def test_positive_T_is_used(self, tmp_path, capsys):
        curve = write_curve(tmp_path, "odd 1 1 1 0 1")
        assert main(["analyze-disk", "--curve", curve, "--p", "5", "--disk", "0,1", "--T", "1"]) == 0
        assert "truncation: 1" in capsys.readouterr().out


class TestPipeline:
    def test_elliptic_run(self, tmp_path, capsys):
        spec = elliptic_spec_file(tmp_path)
        out_path = tmp_path / "pipe.json"
        code = main(["pipeline", "--spec", spec, "--out", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "disk-sum total bound" in out
        data = json.loads(out_path.read_text())
        assert data["total_bound"] is not None
        affine = [d for d in data["disks"] if d["kind"] != "infinite"]
        assert all(d["certified_algebraic"] for d in affine)

    def test_low_precision_exit_1(self, tmp_path, capsys):
        spec = elliptic_spec_file(tmp_path, T=2)
        code = main(["pipeline", "--spec", spec])
        assert code == 1
        assert "ERROR" in capsys.readouterr().out

    def test_T1_reports_needed_T(self, tmp_path, capsys):
        # at T = 1 the chart's dx/dt is known only as zero to O(t^0): a
        # precision shortfall with a larger T to retry at, not a non-unit
        spec = elliptic_spec_file(tmp_path, T=1)
        out_path = tmp_path / "pipe.json"
        assert main(["pipeline", "--spec", spec, "--out", str(out_path)]) == 1
        affine = [d for d in json.loads(out_path.read_text())["disks"] if d["kind"] != "infinite"]
        assert affine
        for d in affine:
            assert d["error"].startswith("insufficient precision")
            assert d["needed_T"] > 1

    def test_unopenable_out_file_exit_2(self, tmp_path, capsys):
        spec = elliptic_spec_file(tmp_path)
        out = tmp_path / "missing" / "pipe.json"
        assert main(["pipeline", "--spec", spec, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "No such file or directory" in captured.err
        assert captured.out == ""   # refused before the run, not after it

    def test_missing_spec_exit_2(self, tmp_path):
        assert main(["pipeline", "--spec", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize(
        "data, field",
        [
            ({**elliptic_spec_data(), "a_matrix": 5}, "a_matrix"),
            ({**elliptic_spec_data(), "h": {"a": 3}}, "h a"),
            ([elliptic_spec_data()], "spec"),
            ({**elliptic_spec_data(), "T": "20"}, "T"),
            ({**elliptic_spec_data(), "constants": {"(0,1)": {"singles": ["1"]}}}, "singles"),
            ({**elliptic_spec_data(), "p": None}, "p"),
            ({**elliptic_spec_data(), "p": [5]}, "p"),
            ({**elliptic_spec_data(), "p": 7.9}, "p"),
            ({**elliptic_spec_data(), "T": True}, "T"),
            ({**elliptic_spec_data(), "constants": {"(0, 1)": {}}}, "constants key"),
            ({**elliptic_spec_data(), "constants": {"(9,9)": {}}}, "constants key"),
            (json.dumps({**elliptic_spec_data(), "a_vector": ["A", "0"]}).replace('"A"', "1e400"), "a_vector"),
            ({**elliptic_spec_data(), "a_vector": [float("inf"), "0"]}, "a_vector"),    # written as Infinity
            (spec_with_curve(genus="1"), "curve genus"),
            (spec_with_curve(genus=True), "curve genus"),
            (spec_with_curve(genus=1.0), "curve genus"),
            (spec_without("curve"), "required key 'curve'"),
            (spec_without("curve", "kind"), "required key 'kind'"),
            (spec_without("curve", "f"), "required key 'f'"),
            (spec_without("p"), "required key 'p'"),
            (spec_without("a_matrix"), "required key 'a_matrix'"),
        ],
        ids=[
            "a_matrix_scalar", "h_part_scalar", "top_level_list", "T_string", "singles_too_short",
            "p_null", "p_list", "p_float", "T_bool", "constants_key_spaced", "constants_key_no_disk",
            "a_vector_1e400", "a_vector_Infinity", "genus_string", "genus_bool", "genus_float",
            "no_curve", "no_kind", "no_f", "no_p", "no_a_matrix",
        ],
    )
    def test_malformed_spec_exit_2(self, tmp_path, capsys, data, field):
        assert main(["pipeline", "--spec", write_spec(tmp_path, data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err, err

    @pytest.mark.parametrize("key", ["(0, 1)", "(9,9)", "inf+"])
    @pytest.mark.parametrize("command", ["pipeline", "analyze-disk"])
    def test_constants_key_not_a_disk_exit_2(self, tmp_path, capsys, command, key):
        spec = write_spec(tmp_path, {**elliptic_spec_data(), "constants": {"(0,1)": {}, key: {}}})
        argv = {
            "pipeline": ["pipeline", "--spec", spec],
            "analyze-disk": ["analyze-disk", "--spec", spec, "--p", "5", "--disk", "0,1"],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: constants key {key!r} is not a residue disk")
        assert "(x,y), inf, inf+ or inf-" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("disk", ["0,1", "2,5"])
    def test_analyze_disk_prime_mismatch_exit_2(self, tmp_path, capsys, disk):
        # the spec is at p = 5; both are residue disks mod 7 only
        spec = elliptic_spec_file(tmp_path, p=5)
        assert main(["analyze-disk", "--spec", spec, "--p", "7", "--disk", disk]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "p = 5" in captured.err
        assert captured.out == ""

    def test_byte_stable(self, tmp_path, capsys):
        spec = elliptic_spec_file(tmp_path)
        main(["pipeline", "--spec", spec])
        first = capsys.readouterr().out
        main(["pipeline", "--spec", spec])
        second = capsys.readouterr().out
        assert first == second
