import json

import pytest

from qcbound.cli import main


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


def write_spec(tmp_path, data):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
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

    def test_invalid_disk(self, tmp_path, capsys):
        curve = write_curve(tmp_path, "odd 1 1 1 0 1")
        assert main(["analyze-disk", "--curve", curve, "--p", "5", "--disk", "1,1"]) == 2

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

    def test_missing_spec_exit_2(self, tmp_path):
        assert main(["pipeline", "--spec", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize(
        "data",
        [
            {**elliptic_spec_data(), "a_matrix": 5},
            {**elliptic_spec_data(), "h": {"a": 3}},
            [elliptic_spec_data()],
            {**elliptic_spec_data(), "T": "20"},
            {**elliptic_spec_data(), "constants": {"(0,1)": {"singles": ["1"]}}},
            {**elliptic_spec_data(), "p": None},
            {**elliptic_spec_data(), "p": [5]},
            {**elliptic_spec_data(), "p": 7.9},
            {**elliptic_spec_data(), "T": True},
        ],
        ids=[
            "a_matrix_scalar", "h_part_scalar", "top_level_list", "T_string", "singles_too_short",
            "p_null", "p_list", "p_float", "T_bool",
        ],
    )
    def test_malformed_spec_exit_2(self, tmp_path, capsys, data):
        assert main(["pipeline", "--spec", write_spec(tmp_path, data)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

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
