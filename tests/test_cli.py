import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from fractions import Fraction
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import hadstab
from hadstab import (
    MAX_BRANCHES,
    BranchSet,
    MonicPolynomial,
    StabilityVerdict,
    Status,
    cli,
    find_roots,
    hadamard_power,
    report,
    roots,
)
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


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, obj in [
        ("f1", F1_JSON),
        ("g1", G1_JSON),
        ("stable", STABLE_JSON),
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

    def test_missing_file(self, capsys, tmp_path):
        code = main(["analyze", "--poly", str(tmp_path / "nope.json")])
        assert code == 2

    def test_not_utf8(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        assert main(["analyze", "--poly", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: ")

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
            # Integers beyond the float range, and a literal beyond Python's
            # 4,300-digit limit on reading an int.
            pytest.param(
                '{"degree": 1, "coeffs": [[1%s, 0]]}' % ("0" * 400), id="400-digit-coeff"
            ),
            pytest.param(
                '{"degree": 2, "coeffs": [[0.5, 0], [0, -1%s]]}' % ("0" * 4000),
                id="4000-digit-coeff",
            ),
            pytest.param(
                '{"terms": [{"pow": [3, 2]}, {"pow": [1, 2], "coeff": [1%s, 0]}]}'
                % ("0" * 4000),
                id="4000-digit-term-coeff",
            ),
            pytest.param(
                '{"degree": 1%s, "coeffs": [[0.5, 0]]}' % ("0" * 5000), id="5000-digit-degree"
            ),
            pytest.param(
                '{"terms": [{"pow": [1%s, 1]}]}' % ("0" * 400), id="400-digit-pow"
            ),
            # Powers 1 and 0 over 10^400: the base 10^-400 is below the float range.
            pytest.param(
                '{"terms": [{"pow": [1, 1%s]}, {"pow": [0, 1], "coeff": [0.5, 0]}]}'
                % ("0" * 400),
                id="base-below-float",
            ),
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--poly", "{f}"],
            ["power", "--poly", "{f}", "--p", "1"],
            ["product", "--f", "{f}", "--g", "{f}"],
            ["threshold", "--poly", "{f}", "--mode", "max", "--method", "grid"],
            ["threshold", "--poly", "{f}", "--mode", "min", "--method", "exact"],
            ["threshold", "--poly", "{f}", "--mode", "max", "--method", "onset"],
            ["sweep", "--poly", "{f}", "--from", "1", "--to", "3", "--step", "1", "--out", "{out}"],
        ],
        ids=lambda argv: "-".join(a for a in argv if a in ("grid", "exact", "onset")) or argv[0],
    )
    def test_modulus_beyond_float_is_input_error(self, capsys, tmp_path, argv):
        """Finite parts whose modulus overflows a float are refused when the
        file is read: not an OverflowError traceback from abs, and not a
        numerical failure (exit 3) in analyze."""
        path = tmp_path / "big.json"
        path.write_text('{"degree": 2, "coeffs": [[1.5e308, 1.5e308], [0.5, 0]]}')
        argv = [a.format(f=path, out=tmp_path / "sw") for a in argv]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: coefficients must be finite\n")

    @pytest.mark.parametrize(
        "terms, message",
        [
            ([], "'terms' must be a non-empty list"),
            ([{"coeff": [1, 0]}], "each term needs a 'pow': [num, den]"),
            ([{"pow": [0, 1]}], "leading power must be positive"),
            (
                [{"pow": [1, 1]}, {"pow": [-1, 1], "coeff": [0.5, 0]}],
                "powers must be positive except a constant term",
            ),
            ([{"pow": [1, 1], "coeff": [2, 0]}], "leading coefficient must be exactly 1"),
        ],
        ids=["no-terms", "no-pow", "zero-pow", "negative-constant", "leading-coeff"],
    )
    def test_fractional_refusals(self, capsys, tmp_path, terms, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"terms": terms}))
        assert main(["analyze", "--poly", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

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
        # All eight members in one stacked solve; member 0 is the principal
        # branch, so it is not solved again.
        assert shapes == [(8, 5, 5)]
        assert {k: v for k, v in out["principal"].items() if k != "poly"} == {
            k: v for k, v in out["branches"][0].items() if k != "branch"
        }
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

    def test_branch_work_budget(self, capsys, tmp_path, monkeypatch):
        """--all-branches refuses (exit 2) a set whose branches x degree^2
        exceed cli.MAX_BRANCH_ELEMENTS = 2^20, before any member is built;
        the count alone is under MAX_BRANCHES."""
        assert cli.MAX_BRANCH_ELEMENTS == 2**20
        path = tmp_path / "wide.json"
        coeffs = [[0.1, 0.01 * k] if k % 24 < 15 else [0, 0] for k in range(24)]
        path.write_text(json.dumps({"degree": 24, "coeffs": coeffs}))
        monkeypatch.setattr(BranchSet, "table", property(lambda self: pytest.fail("table built")))
        assert main(["power", "--poly", str(path), "--p", "3/2", "--all-branches"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: f^[3/2] has 32768 branches of degree 24: 18874368 branches "
            "x degree^2 exceed the --all-branches budget of 1048576\n"
        )

    @pytest.mark.parametrize("budget, code", [(8 * 25, 0), (8 * 25 - 1, 2)])
    def test_branch_work_budget_edge(self, capsys, files, monkeypatch, budget, code):
        """F1 at 1/2 has 8 branches of degree 5: 200 elements."""
        monkeypatch.setattr(cli, "MAX_BRANCH_ELEMENTS", budget)
        assert main(["power", "--poly", files["f1"], "--p", "1/2", "--all-branches"]) == code
        assert ("budget of 199" in capsys.readouterr().err) == (code == 2)

    def test_branch_payloads_and_combined_rule(self, capsys, tmp_path):
        """Over seeded exponents, each ``branches[i]`` is the payload of its
        member's own ``find_roots``, and ``combined`` is Unstable if any member
        is, Stable if every member is, Marginal otherwise, with the worst
        modulus of all members.  s^2 + 1 at 1/2 has the Marginal members
        s^2 +- 1."""
        rng = random.Random(97)
        cases = [(MonicPolynomial((1.0, 0.0)), Fraction(1, 2))]
        for i in range(40):
            m = 2 + i % 3
            coeffs = tuple(
                complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9) if i % 2 else 0.0)
                for _ in range(rng.randint(1, 5))
            )
            cases.append((MonicPolynomial(coeffs), Fraction(rng.randint(1, 2 * m), m)))
        path = tmp_path / "f.json"
        seen = set()
        for f, p in cases:
            path.write_text(json.dumps(f.to_json()))
            code, out = run(capsys, "power", "--poly", str(path), "--p", str(p), "--all-branches")
            assert code == 0
            bset = hadamard_power(f, p)
            root_sets = [find_roots(member) for member in bset]
            assert out["branch_count"] == len(out["branches"]) == len(root_sets)
            for entry, index, rs in zip(out["branches"], bset.indices(), root_sets):
                expected = {"branch": list(index), **cli._verdict_payload(rs)}
                assert entry == json.loads(report.dumps(expected)), (f, p)
            statuses = {entry["status"] for entry in out["branches"]}
            if "Unstable" in statuses:
                status = Status.UNSTABLE
            elif statuses == {"Stable"}:
                status = Status.STABLE
            else:
                status = Status.MARGINAL
            worst = max(rs.max_modulus for rs in root_sets)
            combined = StabilityVerdict(status, worst).to_json()
            assert out["combined"] == json.loads(report.dumps(combined)), (f, p)
            seen.add(status)
        assert seen == set(Status)

    @pytest.mark.parametrize(
        "chunk_elements, position, all_branches",
        [(None, 5, True), (2 * 5 * 5, 5, True), (None, 0, True), (None, 0, False)],
        ids=["None", "50", "principal", "principal alone"],
    )
    def test_uncertified_member_names_its_branch(
        self, capsys, files, monkeypatch, chunk_elements, position, all_branches
    ):
        """A member that fails to certify exits 3 naming its position among
        all members and its index, whether it is solved in the first block
        or, two rows at a time, in the third.  Under --all-branches the
        principal's verdict is read from member 0, so an uncertified
        principal is named as that branch; without it, as no branch."""
        bset = hadamard_power(MonicPolynomial.from_json(F1_JSON), Fraction(1, 2))
        target = list(bset.indices())[position]
        bad = np.array(next(bset.members([target])).coeffs + (1.0 + 0j,))
        if chunk_elements:
            monkeypatch.setattr(roots, "_CHUNK_ELEMENTS", chunk_elements)
        residuals = roots._scaled_residuals

        def spoiled(asc, moduli, z):
            res = residuals(asc, moduli, z)
            res[(asc == bad).all(axis=1)] = 1.0
            return res

        monkeypatch.setattr(roots, "_scaled_residuals", spoiled)
        argv = ["power", "--poly", files["f1"], "--p", "1/2"]
        assert main(argv + ["--all-branches"] * all_branches) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        name = f"branch {position} (index {target}): " if all_branches else ""
        assert captured.err == (
            f"numerical failure: {name}root iteration failed to certify "
            "(max residual 1.000e+00)\n"
        )

    def test_huge_denominator(self, capsys, tmp_path):
        """1/10^20 on two coefficients has 10^40 branches: printed as a
        count, refused (exit 2) under --all-branches."""
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"degree": 2, "coeffs": [[0.1, 0], [0.1, 0]]}))
        p = "1/" + str(10**20)
        code, out = run(capsys, "power", "--poly", str(path), "--p", p)
        assert code == 0
        assert out["branch_count"] == 10**40
        assert main(["power", "--poly", str(path), "--p", p, "--all-branches"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"at most {MAX_BRANCHES}" in captured.err

    @pytest.mark.parametrize(
        "degree, p, printed",
        [
            (2, "1" + "0" * 400, False),  # the value overflows a float
            (10, "1/1" + "0" * 500, False),  # a count of 5001 digits
            (10, "1/" + str(10**430), False),  # 4301 digits
            (10, "1/" + str(10**430 - 1), True),  # 4300 digits
            (1024, "1/1" + "0" * 4298, False),  # refused before it is formed
        ],
        ids=["value-overflow", "5001-digits", "4301-digits", "4300-digits", "degree-1024"],
    )
    def test_exponent_overflow(self, capsys, tmp_path, degree, p, printed):
        """An exponent whose value is not a float, or whose branch count has
        too many digits to print, exits 2; a count that prints is unchanged."""
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"degree": degree, "coeffs": [[0.5, 0]] * degree}))
        code = main(["power", "--poly", str(path), "--p", p])
        captured = capsys.readouterr()
        if printed:
            assert code == 0
            den = cli._parse_exponent(p).denominator
            assert json.loads(captured.out)["branch_count"] == den**degree
        else:
            assert code == 2
            assert captured.out == ""
            assert captured.err.startswith("error: ")

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
    def test_eigenvalue_failure_is_not_a_traceback(self, capsys, tmp_path):
        """The degree-7 input whose principal power at p = 128 LAPACK cannot
        solve (``tests/test_roots.py``, F220): the onset search ends in exit
        0 or in BracketError (exit 1), never in a raised LinAlgError."""
        coeffs = (0.0, 2.5457630447573854, 1.7460793442894533, 2.1800808902204083,
                  1.3158851629179142, 3.4557940835957077, 3.2527793174347632)
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"degree": 7, "coeffs": [[c, 0] for c in coeffs]}))
        code = main(["threshold", "--poly", str(path), "--mode", "max", "--method", "onset"])
        captured = capsys.readouterr()
        assert code in (0, 1)
        if code == 1:
            assert captured.err.startswith("not applicable: no stable power found")

    @pytest.mark.parametrize(
        "coeffs, mode, value",
        [([[1e-10, 0], [0.5, 0]], "max", 0.112488690573),
         ([[1e10, 0], [2.0, 0]], "min", -0.112488690573),
         ([[0.999999, 0], [0.999999, 0]], "max", 693146.833966)],
    )
    def test_exact_far_from_one_and_near_it(self, capsys, tmp_path, coeffs, mode, value):
        """A modulus whose powers overflow at the bracket's start, and moduli
        whose p0 lies beyond 2^16: exit 0 with the sum equation's root, not
        a traceback or "no sign change"."""
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"degree": 2, "coeffs": coeffs}))
        code, out = run(
            capsys, "threshold", "--poly", str(path), "--mode", mode, "--method", "exact"
        )
        assert code == 0
        assert out["method"] == "EquationSolve"
        assert out["value"] == pytest.approx(value, abs=1e-9)

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

    def test_onset_tolerance_within_the_band_exits_3(self, capsys, files):
        """On example 1's f the boundary band is about 4.1e-8 wide in p: at
        tol 1e-8 the checks beside the crossing and every bisection midpoint
        read Marginal, so a clean crossing exits 3; tol 1e-7 finds it."""
        argv = ["threshold", "--poly", files["f1"], "--mode", "max", "--method", "onset"]
        assert main(argv + ["--tol", "1e-8"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numerical failure: verdict stays within the boundary band around"
            " p = 3.354572191886171\n"
        )
        code, out = run(capsys, *argv, "--tol", "1e-7")
        assert (code, out["method"], out["value"]) == (0, "Newton", 3.35457220398)

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

    def test_first_overflowing_power_is_named(self, capsys, files, tmp_path):
        """0.2^p overflows at p = -460 and -450, not at -440; the error names
        the first in sorted order, and no artifact is written."""
        code = main(
            ["sweep", "--poly", files["f1"], "--from", "-460", "--to", "-440",
             "--step", "10", "--out", str(tmp_path)]
        )
        assert code == 2
        assert capsys.readouterr() == (
            "",
            "error: |(0.2+0j)|^-460.0 overflows the floating-point range\n",
        )
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


class TestOutputDirectory:
    """An unusable --out exits 2 before anything is solved."""

    @pytest.mark.parametrize("command", ["sweep", "reproduce"])
    @pytest.mark.parametrize("under_file", [False, True])
    def test_unusable_out_is_input_error(
        self, capsys, files, tmp_path, monkeypatch, command, under_file
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        out = blocker / "sub" if under_file else blocker

        def refuse(*args):
            raise AssertionError("solved before --out was checked")

        for solver in ("sweep", "pstar_grid", "pstar_exact", "auto_onset"):
            monkeypatch.setattr(hadstab.report, solver, refuse)
        if command == "sweep":
            argv = ["sweep", "--poly", files["f1"], "--from", "1", "--to", "3", "--step", "1"]
        else:
            argv = ["reproduce", "--example", "1"]
        code = main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in captured.err
        assert blocker.read_text() == "kept"

    @pytest.mark.parametrize("command", ["sweep", "reproduce"])
    def test_unwritable_artifact_is_input_error(self, capsys, files, tmp_path, command):
        # The directory exists, but an artifact's name is taken by a directory.
        name = "sweep.csv" if command == "sweep" else "report.json"
        (tmp_path / name).mkdir()
        if command == "sweep":
            argv = ["sweep", "--poly", files["f1"], "--from", "1", "--to", "3", "--step", "1"]
        else:
            argv = ["reproduce", "--example", "1"]
        code = main(argv + ["--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {tmp_path}: ")

    @pytest.mark.parametrize("command", ["sweep", "reproduce"])
    def test_solver_error_is_not_a_write_error(self, files, tmp_path, monkeypatch, command):
        # Only creating and writing --out map an OSError to "cannot write".
        def failing(*args, **kwargs):
            raise OSError("not from --out")

        monkeypatch.setattr(hadstab.report, "sweep", failing)
        if command == "sweep":
            argv = ["sweep", "--poly", files["f1"], "--from", "1", "--to", "3", "--step", "1"]
        else:
            argv = ["reproduce", "--example", "1"]
        with pytest.raises(OSError, match="not from --out"):
            main(argv + ["--out", str(tmp_path)])


class TestParserReuse:
    """``main`` builds its parser once per process; reusing it changes no
    exit code and no byte of stdout or stderr."""

    def test_repeated_calls_match_a_fresh_parser(self, capsys, files, tmp_path, monkeypatch):
        argvs = [
            ["threshold", "--poly", files["f1"], "--mode", "max", "--method", "exact"],
            ["threshold", "--poly", files["f1"], "--mode", "sideways"],  # usage error
            ["threshold", "--poly", files["f1"]],  # a required option missing
            ["--help"],
            ["sweep", "--help"],
            ["analyze", "--poly", str(tmp_path / "missing.json")],  # input error
            ["threshold", "--poly", files["g1"], "--mode", "max"],  # not applicable
            ["power", "--poly", files["f1"], "--p", "3/2"],
            [],
        ]

        def outcomes():
            seen = []
            for argv in argvs * 2:
                code = main(list(argv))
                captured = capsys.readouterr()
                seen.append((code, captured.out, captured.err))
            return seen

        reused = outcomes()
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh one per call
        fresh = outcomes()
        assert reused == fresh
        assert [code for code, _, _ in reused[: len(argvs)]] == [0, 2, 2, 0, 0, 2, 1, 0, 2]
        assert reused[: len(argvs)] == reused[len(argvs) :]

    def test_rebound_command_is_called(self, capsys, files, monkeypatch):
        main(["threshold", "--poly", files["f1"], "--mode", "max"])  # parser built
        calls = []
        monkeypatch.setattr(cli, "cmd_threshold", lambda args: calls.append(args.mode) or 0)
        assert main(["threshold", "--poly", files["f1"], "--mode", "max"]) == 0
        assert calls == ["max"]


class TestExitCodes:
    def test_numerical_failure_maps_to_3(self, capsys, files, monkeypatch):
        from hadstab.errors import UnconvergedError

        def boom(f):
            raise UnconvergedError("synthetic stall", partial=None)

        monkeypatch.setattr("hadstab.cli.find_roots", boom)
        assert main(["analyze", "--poly", files["f1"]]) == 3

    @pytest.mark.parametrize(
        "coeffs, codes",
        [
            # arg(1500 + 5e-324 i) underflows, which cmath.phase refuses.
            ([[1500, 5e-324], [0.5, 0]], [0, 0, 0, 0, 1, 1]),
            # Its angle underflows too, and 1e300^2 overflows.
            ([[1e300, 1e-300], [0.5, 0]], [2, 2, 2, 0, 1, 1]),
        ],
        ids=["subnormal-imag", "overflowing-power"],
    )
    def test_angle_that_underflows_is_not_a_traceback(self, capsys, tmp_path, coeffs, codes):
        """Every command that raises a coefficient to a power exits with a
        documented code and no traceback when a coefficient's angle
        underflows; an uncaught OverflowError would have escaped main."""
        path = tmp_path / "tiny_angle.json"
        path.write_text(json.dumps({"degree": 2, "coeffs": coeffs}))
        argvs = [
            ["power", "--poly", str(path), "--p=2"],
            ["power", "--poly", str(path), "--p=2", "--all-branches"],
            ["sweep", "--poly", str(path), "--from", "1", "--to", "3", "--step", "1",
             "--out", str(tmp_path / "sw")],
            ["analyze", "--poly", str(path)],
            ["threshold", "--poly", str(path), "--mode", "max", "--method", "onset"],
            ["threshold", "--poly", str(path), "--mode", "min", "--method", "onset"],
        ]
        seen = []
        for argv in argvs:
            seen.append(main(argv))
            assert "Traceback" not in capsys.readouterr().err
        assert seen == codes


# Hostile coefficient values: signed zeros, the smallest subnormal, values
# near the ends of the float range, and moduli within 1e-6 of 1, split by
# the side of 1 their moduli lie on.
_HOSTILE_BELOW = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1 - 1e-6, -(1 - 1e-7))
_HOSTILE_ABOVE = (0.0, -0.0, 1e300, -1e300, 1.7e308, -1.7e308, 1 + 1e-6, -(1 + 1e-7))
_HOSTILE_ONE = (1.0, -1.0)


def _hostile_poly(rng, degrees=(1, 12)):
    """A polynomial whose degree is drawn from ``degrees`` and whose
    coefficients are hostile values or polar draws.  A third of them draw
    from values below 1 (mode max's Theorem 1), a third from values above 1
    (mode min's), and a third mix both with moduli of exactly 1.  A fifth of
    the hostile values get a hostile imaginary part too, so a modulus may
    overflow."""
    degree = rng.randint(*degrees)
    side = rng.randrange(3)
    pool = (_HOSTILE_BELOW + _HOSTILE_ABOVE + _HOSTILE_ONE, _HOSTILE_BELOW, _HOSTILE_ABOVE)[side]
    moduli = ((0.05, 4.0), (0.05, 1 - 1e-6), (1 + 1e-6, 4.0))[side]
    coeffs = []
    for _ in range(degree):
        if rng.random() < 0.5:
            imag = rng.choice(pool) if rng.random() < 0.2 else 0.0
            coeffs.append([rng.choice(pool), imag])
            continue
        m = rng.uniform(*moduli)
        if side == 0 and rng.random() < 0.5:
            m = 1.0 + rng.uniform(-1e-6, 1e-6)
        t = rng.uniform(-math.pi, math.pi) if rng.random() < 0.5 else 0.0
        coeffs.append([m * math.cos(t), m * math.sin(t)])
    return {"degree": degree, "coeffs": coeffs}


def _hostile_call(capsys, argv, seconds, where):
    """The exit code of ``main(argv)``, asserted to be a documented one,
    reached within ``seconds``, with neither a traceback nor a warning."""
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), where
    assert elapsed < seconds, (where, elapsed)
    assert not caught, (where, [str(w.message) for w in caught])
    assert "Traceback" not in err and "Warning" not in err, where
    return code


class TestHostileThreshold:
    """``threshold`` on hostile inputs: every method in both modes exits
    with a documented code, within a time bound, and writes neither a
    traceback nor a warning."""

    SECONDS_PER_CALL = 2.0

    def test_seeded_hostile_inputs(self, capsys, tmp_path):
        rng = random.Random(6606)
        path = tmp_path / "hostile.json"
        seen = set()
        for _ in range(80):
            poly = _hostile_poly(rng)
            path.write_text(json.dumps(poly))
            for method in ("grid", "exact", "onset"):
                for mode in ("max", "min"):
                    argv = ["threshold", "--poly", str(path), "--mode", mode, "--method", method]
                    where = (poly, method, mode)
                    seen.add(_hostile_call(capsys, argv, self.SECONDS_PER_CALL, where))
        assert seen == {0, 1, 2, 3}


class TestHostileSubcommands:
    """``analyze``, ``power``, ``product`` and a short ``sweep`` on hostile
    inputs of degree 1-40, held to ``TestHostileThreshold``'s contract.
    ``power`` runs plain and with --all-branches, at integer, fractional
    and negative powers."""

    SECONDS_PER_CALL = 2.0
    # --all-branches solves up to cli.MAX_BRANCH_ELEMENTS companion-matrix
    # entries, measured at up to 6 s at that cap.
    SECONDS_PER_ALL_BRANCHES = 10.0
    POWERS = ("2", "-3", "3/2", "5/4", "-1/2", "-2/3")

    def test_seeded_hostile_inputs(self, capsys, tmp_path):
        rng = random.Random(6607)
        f, g = tmp_path / "f.json", tmp_path / "g.json"
        seen = {}
        for _ in range(40):
            poly = _hostile_poly(rng, (1, 40))
            n = poly["degree"]
            f.write_text(json.dumps(poly))
            g.write_text(json.dumps(_hostile_poly(rng, (n, n))))
            p = rng.choice(self.POWERS)
            product = rng.choice(([], ["--szego"], ["--criterion", "a"]))
            for argv in (
                ["analyze", "--poly", str(f)],
                ["power", "--poly", str(f), f"--p={p}"],
                ["power", "--poly", str(f), f"--p={p}", "--all-branches"],
                ["product", "--f", str(f), "--g", str(g), *product],
                ["sweep", "--poly", str(f), "--from", "0.5", "--to", "2", "--step", "0.5",
                 "--out", str(tmp_path)],
            ):
                branches = "--all-branches" in argv
                seconds = self.SECONDS_PER_ALL_BRANCHES if branches else self.SECONDS_PER_CALL
                code = _hostile_call(capsys, argv, seconds, (poly, argv))
                seen.setdefault(argv[0] + " --all-branches" * branches, set()).add(code)
        # Every command both answers and refuses on this corpus.
        assert len(seen) == 5 and all({0, 2} <= codes for codes in seen.values()), seen

    def test_nan_iterates_fail_fast(self, capsys, tmp_path):
        """All 243 branches at p = -2/3 have coefficients up to 3.4e215, and
        their Aberth iterates go NaN.  Each row stops at the sweep that made
        it NaN, not at the 200-sweep cap, which took over 2 s; the
        eigenvalues then put three roots at 0, whose residual |a_0| /
        (1 + |a_0|) rounds to 1."""
        path = tmp_path / "tiny.json"
        coeffs = [-5e-324, -1e-300, 1e-300, -1e-300, 0.10881414421078223]
        path.write_text(json.dumps({"degree": 5, "coeffs": [[c, 0] for c in coeffs]}))
        start = time.perf_counter()
        code = main(["power", "--poly", str(path), "--p=-2/3", "--all-branches"])
        elapsed = time.perf_counter() - start
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure: branch 0 (index (0, 0, 0, 0, 0)): "
            "root iteration failed to certify (max residual 1.000e+00)\n"
        )
        assert elapsed < 0.5, elapsed
