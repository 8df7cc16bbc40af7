import hashlib
import itertools
import random
import xml.etree.ElementTree as ET

import pytest

from conftest import random_monic
from hadstab import InvalidInputError, MonicPolynomial
from hadstab.cli import main
from hadstab.report import (
    EXPERIMENT_POLYS,
    MAX_SWEEP_POWERS,
    SVG_NS,
    SweepRecord,
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


def _csv_reference(records, degree):
    """``sweep_csv`` as it was before its one-template form: one f-string
    per value."""
    header = ["p", "stable", "max_modulus"]
    for i in range(1, degree + 1):
        header += [f"root_re_{i}", f"root_im_{i}"]
    lines = [",".join(header)]
    for rec in records:
        row = [f"{rec.p:.12g}", "true" if rec.stable else "false", f"{rec.max_modulus:.12g}"]
        for z in rec.roots:
            row += [f"{z.real:.12g}", f"{z.imag:.12g}"]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _svg_half(records):
    """The SVG's half-width as the per-root loop took it."""
    half = 1.1
    for rec in records:
        for z in rec.roots:
            half = max(half, 1.05 * abs(z))
    return half


def _svg_reference(records):
    """``sweep_svg`` as it was before its one-template form: the scale from
    every root's ``abs``, and one f-string per marker."""
    size = 560
    scale = (size / 2) / _svg_half(records)
    cx = cy = size / 2

    def sx(v):
        return f"{cx + v * scale:.2f}"

    def sy(v):
        return f"{cy - v * scale:.2f}"

    parts = [
        f'<svg xmlns="{SVG_NS}" version="1.1" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'  <circle class="unit-circle" cx="{cx}" cy="{cy}" r="{scale:.2f}" '
        'fill="none" stroke="#404040" stroke-width="1"/>',
    ]
    for rec in records:
        color = "#9e9e9e" if rec.stable else "#000000"
        for z in rec.roots:
            parts.append(
                f'  <circle class="root" cx="{sx(z.real)}" cy="{sy(z.imag)}" '
                f'r="2" fill="{color}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@pytest.fixture(scope="module")
def seeded_sweeps():
    return list(_seeded_sweeps())


def _seeded_sweeps():
    """(label, degree, records): degrees 1-12, real and complex, over 1 and
    300 powers, whose records are all Stable, all Unstable, or both."""
    rng = random.Random(2727)
    many = [-5.0 + 65.0 * i / 299 for i in range(300)]
    for degree, real in itertools.product(range(1, 13), (True, False)):
        # sum |a_k| < 1 is Stable at every p >= 1; |a_0| > 1 is Unstable at
        # every p > 0; moduli below 1 are Unstable at p < 0 and Stable at
        # p = 60, where sum |a_k|^p < 1.
        classes = [
            ("stable", (0.01, 0.9 / degree), [1.0 + i / 10 for i in range(300)], {True}),
            ("unstable", (1.2, 3.0), [1.0 + i / 10 for i in range(300)], {False}),
            ("mixed", (0.05, 0.95), many, {True, False}),
        ]
        for name, moduli, powers, verdicts in classes:
            f = random_monic(rng, degree, moduli, real=real)
            for ps in ([powers[0]], powers) if name != "mixed" else (powers,):
                records = sweep(f, ps)
                assert {r.stable for r in records} == verdicts
                yield f"{name}-{degree}-{'real' if real else 'complex'}-{len(ps)}", degree, records


SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e16, 0.1 + 0.2, 1.0, -2.5e-7]


def _hand_built():
    """Records holding signed zeros, a subnormal, 1e300, 1e16 and 0.1 + 0.2,
    with 0 to 7 roots each, as (degree, records) with degree 3."""
    rng = random.Random(27)
    records = []
    for i, p in enumerate(SPECIAL):
        count = [0, 1, 3, 7][i % 4]
        roots = tuple(complex(rng.choice(SPECIAL), rng.choice(SPECIAL)) for _ in range(count))
        worst = max((abs(z) for z in roots), default=0.0)
        records.append(SweepRecord(p, i % 3 == 0, worst, roots))
    return 3, records


class TestRenderingBytes:
    """``sweep_csv`` and ``sweep_svg`` render each file from one template;
    their bytes are those of the f-string renderers they replaced."""

    def test_seeded_sweeps(self, seeded_sweeps):
        checked = 0
        for label, degree, records in seeded_sweeps:
            assert sweep_csv(records, degree) == _csv_reference(records, degree), label
            assert sweep_svg(records) == _svg_reference(records), label
            checked += 1
        assert checked == 12 * 2 * 5

    def test_hand_built_records(self):
        degree, records = _hand_built()
        for subset in (records, records[:1], records[::-1], records[4:7]):
            assert sweep_csv(subset, degree) == _csv_reference(subset, degree)
            assert sweep_svg(subset) == _svg_reference(subset)
        text = sweep_csv(records, degree)
        assert "\n-0,true,0\n" in text and ",4.94065645841e-324," in text
        assert ",1e+16," in text and ",0.3," in text and ",-1e+300," in text

    def test_root_count_other_than_degree(self):
        records = sweep(F1, [1.0, 2.0])
        short = [SweepRecord(r.p, r.stable, r.max_modulus, r.roots[:2]) for r in records]
        for degree in (0, 1, F1.degree, 9):
            assert sweep_csv(records, degree) == _csv_reference(records, degree)
            assert sweep_csv(short + records, degree) == _csv_reference(short + records, degree)

    def test_empty(self):
        assert sweep_csv([], F1.degree) == _csv_reference([], F1.degree)
        assert sweep_svg([]) == _svg_reference([])

    def test_scale_from_max_modulus(self, seeded_sweeps):
        """The SVG reads its scale from ``max_modulus``: on every seeded
        sweep each record's ``max_modulus`` is the largest ``abs`` of its
        roots, so 1.05 times the largest equals the per-root loop's value."""
        for label, _, records in seeded_sweeps:
            for rec in records:
                assert rec.max_modulus == max(abs(z) for z in rec.roots), label
            half = max([1.1] + [1.05 * rec.max_modulus for rec in records])
            assert half == _svg_half(records), label


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
            "report.json": "ff7299d8b3c3f59c873696d296c3b77ad8be1960ff6325d51dfb5de8edd0f6a2",
            "table.csv": "cabd6199eef40be797c1ea851304160a2d95629cde0060e28f681fa27613d097",
        },
        2: {
            "report.json": "df267c2987d307f809a1531e6c835e21f05403657c86446565a0ab21d74bbe4e",
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
