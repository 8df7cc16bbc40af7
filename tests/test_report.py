import hashlib
import xml.etree.ElementTree as ET

import pytest

from hadstab import InvalidInputError, MonicPolynomial
from hadstab.cli import main
from hadstab.report import (
    EXPERIMENT_POLYS,
    MAX_SWEEP_POWERS,
    reproduce_example,
    round12,
    sweep,
    sweep_csv,
    sweep_powers,
    sweep_svg,
)

F1 = EXPERIMENT_POLYS[1]["f"]


def svg_elements(text):
    root = ET.fromstring(text)
    markers = [e for e in root.iter() if e.get("class") == "root"]
    circles = [e for e in root.iter() if e.get("class") == "unit-circle"]
    return markers, circles


class TestSweep:
    def test_records_sorted_and_complete(self):
        records = sweep(F1, [3.0, 1.0, 2.0])
        assert [r.p for r in records] == [1.0, 2.0, 3.0]
        assert all(len(r.roots) == F1.degree for r in records)

    def test_verdicts(self):
        records = sweep(F1, [1.0, 4.0])
        assert not records[0].stable
        assert records[1].stable

    def test_csv_schema(self):
        records = sweep(F1, [1.0, 2.0])
        text = sweep_csv(records, F1.degree)
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header[:3] == ["p", "stable", "max_modulus"]
        assert header[3:5] == ["root_re_1", "root_im_1"]
        assert len(header) == 3 + 2 * F1.degree
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "false"

    def test_empty_csv_keeps_header(self):
        text = sweep_csv([], F1.degree)
        assert text.count("\n") == 1
        assert text.startswith("p,stable,max_modulus")

    def test_svg_marker_counts(self):
        records = sweep(F1, [1.0, 2.0, 5.0])
        markers, circles = svg_elements(sweep_svg(records))
        assert len(markers) == 3 * F1.degree
        assert len(circles) == 1

    def test_svg_color_split(self):
        records = sweep(F1, [1.0, 5.0])
        markers, _ = svg_elements(sweep_svg(records))
        fills = {m.get("fill") for m in markers}
        assert fills == {"#000000", "#9e9e9e"}


class TestSweepPowers:
    def test_inclusive_range(self):
        assert sweep_powers(1.0, 4.0, 1.0) == [1.0, 2.0, 3.0, 4.0]
        assert sweep_powers(0.0, 0.3, 0.1) == [0.0, 0.1, 0.2, 0.30000000000000004]
        assert sweep_powers(5.0, 1.0, 1.0) == []

    def test_stop_below_start_by_less_than_a_step(self):
        # The count (stop - start) / step lies in (-1, 0): no power, not start.
        assert sweep_powers(1.0, 0.5, 1.0) == []
        assert sweep_powers(1.0, 0.0, 1.0) == []
        assert sweep_powers(1.0, 1.0, 1.0) == [1.0]

    @pytest.mark.parametrize(
        "bounds",
        [
            (float("nan"), 2.0, 1.0),
            (1.0, float("nan"), 1.0),
            (1.0, 2.0, float("nan")),
            (float("-inf"), 2.0, 1.0),
            (1.0, float("inf"), 1.0),
            (1.0, 2.0, float("inf")),
        ],
    )
    def test_non_finite_rejected(self, bounds):
        with pytest.raises(InvalidInputError, match="finite"):
            sweep_powers(*bounds)

    def test_power_cap(self):
        assert len(sweep_powers(1.0, MAX_SWEEP_POWERS, 1.0)) == MAX_SWEEP_POWERS
        with pytest.raises(InvalidInputError, match="at most"):
            sweep_powers(0.0, MAX_SWEEP_POWERS, 1.0)  # cap + 1 powers
        with pytest.raises(InvalidInputError, match="at most"):
            sweep_powers(-1e308, 1e308, 1e-300)  # the count overflows


class TestRound12:
    def test_fixes_format(self):
        assert round12(3.4124375149898001) == 3.41243751499
        assert round12(0.0) == 0.0
        assert round12(float("inf")) == float("inf")


class TestReproduce:
    def test_example_one_artifacts(self, tmp_path):
        out = tmp_path / "rep"
        payload = reproduce_example(1, out)
        names = {p.name for p in out.iterdir()}
        assert names == {
            "report.json",
            "table.csv",
            "sweep_f.csv",
            "sweep_f.svg",
            "sweep_g.csv",
            "sweep_g.svg",
        }
        rows = {r["quantity"]: r for r in payload["comparison"]}
        assert set(rows) == {
            "f_pstar_max_grid",
            "g_pstar_min_grid",
            "f_onset",
            "g_onset",
        }
        assert rows["f_onset"]["abs_deviation"] <= 1e-3
        assert payload["integer_sweep"]["f_unstable_powers"] == [1, 2, 3]
        assert payload["integer_sweep"]["g_unstable_powers"] == [-1]

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        reproduce_example(1, a)
        reproduce_example(1, b)
        for name in ("report.json", "table.csv", "sweep_f.csv", "sweep_f.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    # sha256 of the artifacts that carry the paper's values.  The sweep
    # CSV/SVG files hold raw roots, whose last digits follow the root finder,
    # and are not pinned.
    GOLDEN = {
        1: {
            "report.json": "48ecce107f4d0f63252b7e19a797590a0868ec3a188ed81d8ed5b777042a09a3",
            "table.csv": "d95dbd0f8f495edb7633bbc4732f38087b8d44db63b9ffb767e92a858f9675f4",
        },
        2: {
            "report.json": "d8ef0964c2084ff68898c3fdb542f40269618c3037d066791f27d7a908ee2f64",
            "table.csv": "f51420b1c9be93d8239a0ac8f6bfcf46d227f3b445b608c6abd298a1d3c36e28",
        },
    }

    @pytest.mark.parametrize("example", [1, 2])
    def test_golden_bytes(self, tmp_path, example):
        assert main(["reproduce", "--example", str(example), "--out", str(tmp_path)]) == 0
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in self.GOLDEN[example]
        }
        assert digests == self.GOLDEN[example]

    def test_unknown_example(self, tmp_path):
        with pytest.raises(ValueError):
            reproduce_example(3, tmp_path)
