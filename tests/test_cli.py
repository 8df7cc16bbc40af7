import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import hadstab
from hadstab import MAX_BRANCHES
from hadstab.cli import main
from hadstab.report import MAX_SWEEP_POWERS
from hadstab.roots import MAX_ROOT_DEGREE
from hadstab.thresholds import MAX_GRID_RATIOS

F1_JSON = {
    "degree": 5,
    "coeffs": [[0.7, 0], [0.2, 0], [0.9, 0], [0, 0], [0, 0]],
}
G1_JSON = {
    "degree": 5,
    "coeffs": [[3, 0], [2, 0], [2.5, 0], [0, 0], [0, 0]],
}
STABLE_JSON = {"degree": 2, "coeffs": [[0.5, 0], [0.3, 0]]}
FRACTIONAL_JSON = {
    "terms": [
        {"pow": [5, 2]},
        {"pow": [1, 1], "coeff": [0.9, 0]},
        {"pow": [1, 2], "coeff": [0.2, 0]},
        {"pow": [0, 1], "coeff": [0.7, 0]},
    ]
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, obj in [
        ("f1", F1_JSON),
        ("g1", G1_JSON),
        ("stable", STABLE_JSON),
        ("frac", FRACTIONAL_JSON),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestAnalyze:
    def test_unstable_example(self, capsys, files):
        code, out = run(capsys, "analyze", "--poly", files["f1"])
        assert code == 0
        assert out["stable"] is False
        assert out["status"] == "Unstable"
        assert len(out["roots"]) == 5
        crits = {c["criterion"]: c["satisfied"] for c in out["criteria"]}
        assert crits == {"Fujiwara": False, "Necessary": True}
        assert out["fujiwara_bound"] is None

    def test_stable_with_bound(self, capsys, files):
        code, out = run(capsys, "analyze", "--poly", files["stable"])
        assert code == 0
        assert out["stable"] is True
        assert out["fujiwara_bound"] is not None
        assert out["fujiwara_bound"] < 1.0

    def test_witness_flag(self, capsys, files):
        _, bare = run(capsys, "analyze", "--poly", files["stable"])
        assert "witness" not in bare["criteria"][0]
        _, full = run(capsys, "analyze", "--poly", files["stable"], "--witness")
        assert full["criteria"][0]["witness"]

    def test_fractional_input_reduced(self, capsys, files):
        code, out = run(capsys, "analyze", "--poly", files["frac"])
        assert code == 0
        assert out["commensurate_base"] == 0.5
        assert out["input"]["degree"] == 5

    def test_missing_file(self, capsys, tmp_path):
        code = main(["analyze", "--poly", str(tmp_path / "nope.json")])
        assert code == 2

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["analyze", "--poly", str(bad)]) == 2

    def test_wrong_schema(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"degree": 3, "coeffs": [[1, 0]]}))
        assert main(["analyze", "--poly", str(bad)]) == 2

    def test_unknown_flag(self, capsys, files):
        assert main(["analyze", "--poly", files["f1"], "--bogus"]) == 2

    def test_fractional_input_above_root_degree_cap(self, capsys, tmp_path):
        # Powers 1025/2 and 1/2 reduce to degree 1025 at base 1/2: within the
        # commensurate cap, above the root finder's.
        degree = MAX_ROOT_DEGREE + 1
        path = tmp_path / "fine.json"
        path.write_text(
            json.dumps(
                {"terms": [{"pow": [degree, 2]}, {"pow": [1, 2], "coeff": [0.5, 0]}]}
            )
        )
        assert main(["analyze", "--poly", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"got {degree}" in captured.err

    @pytest.mark.parametrize(
        "text",
        [
            '{"degree": 2, "coeffs": [[NaN, 0], [0.5, 0]]}',
            '{"degree": 1, "coeffs": [[0.5, -Infinity]]}',
            '{"degree": 1, "coeffs": [[true, false]]}',
            '{"terms": [{"pow": [3, 2]}, {"pow": [1, 2], "coeff": [NaN, 0]}]}',
            '{"terms": [{"pow": [3, 2]}, {"pow": [true, 2], "coeff": [0.5, 0]}]}',
        ],
    )
    def test_non_finite_and_boolean_input(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["analyze", "--poly", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_deterministic_output(self, capsys, files):
        _, a = run(capsys, "analyze", "--poly", files["f1"])
        code = main(["analyze", "--poly", files["f1"]])
        b = json.loads(capsys.readouterr().out)
        assert a == b


class TestPower:
    def test_integer_power(self, capsys, files):
        code, out = run(capsys, "power", "--poly", files["f1"], "--p", "2")
        assert code == 0
        assert out["branch_count"] == 1
        assert out["exponent"] == "2"

    def test_rational_all_branches(self, capsys, files):
        code, out = run(
            capsys, "power", "--poly", files["f1"], "--p", "1/2", "--all-branches"
        )
        assert code == 0
        assert out["branch_count"] == 8
        assert len(out["branches"]) == 8
        assert out["combined"]["status"] in {"Stable", "Unstable", "Marginal"}

    def test_all_branches_solved_once(self, capsys, files, monkeypatch):
        shapes = []
        eigvals = np.linalg.eigvals

        def counting(a):
            shapes.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        code, out = run(
            capsys, "power", "--poly", files["f1"], "--p", "1/2", "--all-branches"
        )
        assert code == 0
        # The principal branch, then all eight members in one stacked solve.
        assert shapes == [(1, 5, 5), (8, 5, 5)]
        worst = max(b["max_modulus"] for b in out["branches"])
        assert out["combined"]["max_modulus"] == worst

    def test_branch_cap(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"degree": 17, "coeffs": [[0.01, 0]] * 17}))
        code, out = run(capsys, "power", "--poly", str(path), "--p", "1/2")
        assert code == 0
        assert out["branch_count"] == 2**17
        assert main(["power", "--poly", str(path), "--p", "1/2", "--all-branches"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"at most {MAX_BRANCHES}" in captured.err

    def test_negative_exponent(self, capsys, files):
        # "--p -1/2" reads as an option; the value must be attached.
        code, out = run(capsys, "power", "--poly", files["f1"], "--p=-1/2")
        assert code == 0
        assert out["exponent"] == "-1/2"

    def test_bad_exponent(self, capsys, files):
        assert main(["power", "--poly", files["f1"], "--p", "1.5"]) == 2


class TestProduct:
    def test_hadamard(self, capsys, files):
        code, out = run(capsys, "product", "--f", files["f1"], "--g", files["g1"])
        assert code == 0
        assert out["product"]["coeffs"][0] == [2.1, 0.0]
        assert out["szego"] is False

    def test_szego_criterion(self, capsys, files):
        code, out = run(
            capsys,
            "product",
            "--f",
            files["stable"],
            "--g",
            files["stable"],
            "--szego",
            "--criterion",
            "a",
        )
        assert code == 0
        assert out["criterion"]["criterion"] == "Thm3a"
        assert out["criterion"]["satisfied"] is True

    def test_degree_mismatch(self, capsys, files):
        assert main(["product", "--f", files["f1"], "--g", files["stable"]]) == 2


class TestThreshold:
    def test_grid(self, capsys, files):
        code, out = run(
            capsys,
            "threshold",
            "--poly",
            files["f1"],
            "--mode",
            "max",
            "--method",
            "grid",
            "--grid-n",
            "300",
        )
        assert code == 0
        assert out["kind"] == "SufficientMax"
        assert out["method"] == "GridSearch"
        assert out["grid_n"] == 300

    def test_exact_and_onset(self, capsys, files):
        code, exact = run(
            capsys,
            "threshold", "--poly", files["f1"], "--mode", "max", "--method", "exact",
        )
        assert code == 0
        code, onset = run(
            capsys,
            "threshold", "--poly", files["f1"], "--mode", "max", "--method", "onset",
        )
        assert code == 0
        assert onset["value"] <= exact["value"] + 1e-9
        assert onset["bracket"][1] - onset["bracket"][0] <= 1e-6

    def test_not_applicable_exit_code(self, capsys, files):
        assert main(["threshold", "--poly", files["g1"], "--mode", "max"]) == 1

    def test_uncertifiable_bracket_is_not_applicable(self, tmp_path):
        # Run as a process: numpy's RuntimeWarnings would reach its stderr.
        path = tmp_path / "growing.json"
        path.write_text(json.dumps({"degree": 3, "coeffs": [[0.05, 0], [1.3, 0], [0.2, 0]]}))
        env = {**os.environ, "PYTHONPATH": str(Path(hadstab.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "hadstab.cli", "threshold", "--poly", str(path),
             "--mode", "max", "--method", "onset"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("not applicable: no stable power found")
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize(
        "coeffs", [(1.5,), (0.5, 1.1), (0.05, 1.9, 0.2), (0.05, 2.5, 0.2)]
    )
    def test_overflowing_stable_end_is_not_applicable(self, capsys, tmp_path, coeffs):
        # No positive power is stable, and the stable end doubles until a
        # coefficient of the principal power overflows.
        path = tmp_path / "growing.json"
        poly = {"degree": len(coeffs), "coeffs": [[c, 0] for c in coeffs]}
        path.write_text(json.dumps(poly))
        code = main(
            ["threshold", "--poly", str(path), "--mode", "max", "--method", "onset"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("not applicable: no stable power found")
        assert "overflows" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("method", ["onset", "exact"])
    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_is_input_error(self, capsys, files, method, tol):
        code = main(
            ["threshold", "--poly", files["f1"], "--mode", "max", "--method", method,
             "--tol", tol]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: tol must be positive and finite")

    def test_grid_cap_is_input_error(self, capsys, files):
        # F1 has 3 support indices.
        grid_n = MAX_GRID_RATIOS // 3 + 1
        code = main(
            ["threshold", "--poly", files["f1"], "--mode", "max", "--grid-n", str(grid_n)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "at most" in captured.err

    def test_default_method_is_grid(self, capsys, files):
        code, out = run(
            capsys, "threshold", "--poly", files["f1"], "--mode", "max",
            "--grid-n", "120",
        )
        assert code == 0
        assert out["method"] == "GridSearch"


class TestSweep:
    def test_writes_artifacts(self, capsys, files, tmp_path):
        out_dir = tmp_path / "sw"
        code, out = run(
            capsys,
            "sweep", "--poly", files["f1"],
            "--from", "1", "--to", "6", "--step", "1",
            "--out", str(out_dir),
        )
        assert code == 0
        assert out["records"] == 6
        assert out["unstable_powers"] == [1.0, 2.0, 3.0]
        csv_lines = (out_dir / "sweep.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 7
        root = ET.fromstring((out_dir / "sweep.svg").read_text())
        markers = [e for e in root.iter() if e.get("class") == "root"]
        assert len(markers) == 6 * 5

    def test_empty_range(self, capsys, files, tmp_path):
        out_dir = tmp_path / "sw"
        code, out = run(
            capsys,
            "sweep", "--poly", files["f1"],
            "--from", "5", "--to", "1", "--step", "1",
            "--out", str(out_dir),
        )
        assert code == 0
        assert out["records"] == 0
        assert (out_dir / "sweep.csv").read_text().startswith("p,stable")
        assert not (out_dir / "sweep.svg").exists()
        assert out["svg"] is None

    def test_stop_below_start_by_less_than_a_step(self, capsys, files, tmp_path):
        code, out = run(
            capsys,
            "sweep", "--poly", files["f1"],
            "--from", "1", "--to", "0.5", "--step", "1",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert out["records"] == 0
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1  # header
        assert out["svg"] is None

    def test_bad_step(self, capsys, files, tmp_path):
        assert (
            main(
                ["sweep", "--poly", files["f1"], "--from", "1", "--to", "2",
                 "--step", "0", "--out", str(tmp_path)]
            )
            == 2
        )

    @pytest.mark.parametrize(
        "bounds",
        [
            ("nan", "2", "1"),
            ("1", "nan", "1"),
            ("1", "2", "nan"),
            ("-inf", "2", "1"),
            ("1", "inf", "1"),
            ("1", "2", "inf"),
        ],
    )
    def test_non_finite_bounds_are_input_errors(self, capsys, files, tmp_path, bounds):
        start, stop, step = bounds
        code = main(
            ["sweep", "--poly", files["f1"], f"--from={start}", f"--to={stop}",
             f"--step={step}", "--out", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: sweep bounds and step must be finite")
        assert not (tmp_path / "sweep.csv").exists()

    def test_power_cap_is_input_error(self, capsys, files, tmp_path):
        code = main(
            ["sweep", "--poly", files["f1"], "--from", "0", "--to", str(MAX_SWEEP_POWERS),
             "--step", "1", "--out", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert f"at most {MAX_SWEEP_POWERS}" in captured.err
        assert not (tmp_path / "sweep.csv").exists()

    def test_byte_identical_reruns(self, capsys, files, tmp_path):
        args = [
            "sweep", "--poly", files["f1"],
            "--from", "1", "--to", "4", "--step", "1",
        ]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        capsys.readouterr()
        assert (tmp_path / "a/sweep.csv").read_bytes() == (
            tmp_path / "b/sweep.csv"
        ).read_bytes()
        assert (tmp_path / "a/sweep.svg").read_bytes() == (
            tmp_path / "b/sweep.svg"
        ).read_bytes()


class TestReproduce:
    def test_example_one(self, capsys, tmp_path):
        code, out = run(
            capsys, "reproduce", "--example", "1", "--out", str(tmp_path / "rep")
        )
        assert code == 0
        rows = {r["quantity"]: r["abs_deviation"] for r in out["comparison"]}
        assert rows["f_pstar_max_grid"] <= 0.01
        assert rows["g_pstar_min_grid"] <= 0.01
        report = json.loads((tmp_path / "rep/report.json").read_text())
        assert report["integer_sweep"]["f_unstable_powers"] == [1, 2, 3]

    def test_bad_example_flag(self, capsys, tmp_path):
        assert main(["reproduce", "--example", "7", "--out", str(tmp_path)]) == 2

    def test_no_command_is_input_error(self, capsys):
        assert main([]) == 2


class TestExitCodes:
    def test_numerical_failure_maps_to_3(self, capsys, files, monkeypatch):
        from hadstab.errors import UnconvergedError

        def boom(f):
            raise UnconvergedError("synthetic stall", partial=None)

        monkeypatch.setattr("hadstab.cli.find_roots", boom)
        assert main(["analyze", "--poly", files["f1"]]) == 3
