"""Sweep records, CSV/SVG rendering, and the built-in experiment reports.

All emitted artifacts are deterministic: numbers are rounded to 12
significant digits before formatting, records are sorted by power, and no
timestamps enter data files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import InvalidInputError
from .poly import MonicPolynomial, principal_power
from .roots import Status, classify, find_roots_many
from .thresholds import auto_onset, pstar_exact, pstar_grid

SVG_NS = "http://www.w3.org/2000/svg"

# Most powers one sweep range may hold; each is a principal power to solve
# and a row of the CSV and SVG.
MAX_SWEEP_POWERS = 1 << 16


def round12(x: float) -> float:
    """Round to 12 significant digits; fixes the emitted float format."""
    if x == 0 or not math.isfinite(x):
        return x
    return float(f"{x:.12g}")


def fmt12(x: float) -> str:
    return f"{x:.12g}"


def json_ready(obj):
    """Recursively round floats so identical runs emit identical bytes."""
    if isinstance(obj, float):
        return round12(obj)
    if isinstance(obj, dict):
        return {k: json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    return obj


def dumps(obj) -> str:
    return json.dumps(json_ready(obj), indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class SweepRecord:
    p: float
    stable: bool
    max_modulus: float
    roots: tuple[complex, ...]


def sweep_powers(start: float, stop: float, step: float) -> list[float]:
    """The powers start, start + step, ... through stop (to within 1e-9
    steps); none when stop is below start by more than that.

    A bound or step that is not finite, a step that is not positive, and a
    range of more than MAX_SWEEP_POWERS powers raise InvalidInputError
    before any list is built.
    """
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise InvalidInputError(
            f"sweep bounds and step must be finite, got {start}, {stop}, {step}"
        )
    if step <= 0:
        raise InvalidInputError("step must be positive")
    span = (stop - start) / step + 1e-9  # may overflow to inf
    if span >= MAX_SWEEP_POWERS:
        raise InvalidInputError(
            f"sweep from {start} to {stop} by {step} has about {span:.3g} powers; "
            f"at most {MAX_SWEEP_POWERS} are supported"
        )
    if span < 0:  # stop is below start
        return []
    return [start + i * step for i in range(math.floor(span) + 1)]


def sweep(f: MonicPolynomial, powers: Sequence[float]) -> list[SweepRecord]:
    """Evaluate the principal power branch at every requested power.

    Every power of f has the degree of f, so all are solved as one batch.
    """
    ps = sorted(powers)
    root_sets = find_roots_many(principal_power(f, p) for p in ps)
    records = []
    for p, rs in zip(ps, root_sets):
        m = rs.max_modulus
        records.append(
            SweepRecord(p, classify(m) is Status.STABLE, m, rs.roots)
        )
    return records


def sweep_csv(records: Sequence[SweepRecord], degree: int) -> str:
    header = ["p", "stable", "max_modulus"]
    for i in range(1, degree + 1):
        header += [f"root_re_{i}", f"root_im_{i}"]
    lines = [",".join(header)]
    for rec in records:
        row = [fmt12(rec.p), "true" if rec.stable else "false", fmt12(rec.max_modulus)]
        for z in rec.roots:
            row += [fmt12(z.real), fmt12(z.imag)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def sweep_svg(records: Sequence[SweepRecord], size: int = 560) -> str:
    """Scatter of every root over the sweep with the unit circle drawn.

    Markers are black on the unstable side and gray on the stable side.  The
    image contains exactly one unit-circle element and one marker per root
    per swept power.
    """
    half = 1.1
    for rec in records:
        for z in rec.roots:
            half = max(half, 1.05 * abs(z))
    scale = (size / 2) / half
    cx = cy = size / 2

    def sx(v: float) -> str:
        return f"{cx + v * scale:.2f}"

    def sy(v: float) -> str:
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


# Built-in experiment inputs: two real and two complex quintic/quartic
# polynomials, all unstable at p = 1.
EXPERIMENT_POLYS = {
    1: {
        "f": MonicPolynomial((0.7, 0.2, 0.9, 0.0, 0.0)),
        "g": MonicPolynomial((3.0, 2.0, 2.5, 0.0, 0.0)),
    },
    2: {
        "f": MonicPolynomial((-0.9j, 0.7, 0.0, 0.2 - 0.4j)),
        "g": MonicPolynomial((1.0 - 0.5j, 0.0, 2.0 - 1.0j, -1.5)),
    },
}

# Reference values the experiments are compared against.
REFERENCE_VALUES = {
    1: {
        "f_pstar_max_grid": 3.40372,
        "g_pstar_min_grid": -1.24121,
        "f_onset": 3.35457,
        "g_onset": -1.01579,
    },
    2: {
        "f_pstar_max_grid": 3.69323,
        "g_pstar_min_grid": -3.40696,
    },
}


def _table_row(name: str, computed: float, reference: float) -> dict:
    return {
        "quantity": name,
        "computed": computed,
        "reference": reference,
        "abs_deviation": abs(computed - reference),
    }


def reproduce_example(example: int, out_dir: Path, grid_n: int = 1000) -> dict:
    """Recompute one built-in experiment end to end and write its artifacts.

    The output directory receives report.json, table.csv (computed vs
    reference values with absolute deviations) and per-polynomial sweep
    CSV/SVG files over the integer powers 1..100 (f) and -100..-1 (g).
    """
    if example not in EXPERIMENT_POLYS:
        raise ValueError(f"unknown example {example!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    f = EXPERIMENT_POLYS[example]["f"]
    g = EXPERIMENT_POLYS[example]["g"]
    refs = REFERENCE_VALUES[example]

    grid_f = pstar_grid(f, "max", grid_n)
    grid_g = pstar_grid(g, "min", grid_n)
    exact_f = pstar_exact(f, "max")
    exact_g = pstar_exact(g, "min")
    onset_f = auto_onset(f, "max", tol=1e-6)
    onset_g = auto_onset(g, "min", tol=1e-6)

    rows = [
        _table_row("f_pstar_max_grid", grid_f.value, refs["f_pstar_max_grid"]),
        _table_row("g_pstar_min_grid", grid_g.value, refs["g_pstar_min_grid"]),
    ]
    if "f_onset" in refs:
        rows.append(_table_row("f_onset", onset_f.value, refs["f_onset"]))
        rows.append(_table_row("g_onset", onset_g.value, refs["g_onset"]))

    sweep_f = sweep(f, [float(p) for p in range(1, 101)])
    sweep_g = sweep(g, [float(q) for q in range(-100, 0)])
    unstable_f = [int(r.p) for r in sweep_f if not r.stable]
    unstable_g = [int(r.p) for r in sweep_g if not r.stable]

    report = {
        "example": example,
        "inputs": {"f": f.to_json(), "g": g.to_json()},
        "grid_n": grid_n,
        "thresholds": {
            "f_pstar_max_grid": grid_f.to_json(),
            "g_pstar_min_grid": grid_g.to_json(),
            "f_pstar_max_exact": exact_f.to_json(),
            "g_pstar_min_exact": exact_g.to_json(),
            "f_onset": onset_f.to_json(),
            "g_onset": onset_g.to_json(),
        },
        "comparison": rows,
        "integer_sweep": {
            "f_unstable_powers": unstable_f,
            "g_unstable_powers": unstable_g,
        },
    }

    (out_dir / "report.json").write_text(dumps(report))
    table_lines = ["quantity,computed,reference,abs_deviation"]
    for row in rows:
        table_lines.append(
            f"{row['quantity']},{fmt12(row['computed'])},"
            f"{fmt12(row['reference'])},{fmt12(row['abs_deviation'])}"
        )
    (out_dir / "table.csv").write_text("\n".join(table_lines) + "\n")
    (out_dir / "sweep_f.csv").write_text(sweep_csv(sweep_f, f.degree))
    (out_dir / "sweep_g.csv").write_text(sweep_csv(sweep_g, g.degree))
    (out_dir / "sweep_f.svg").write_text(sweep_svg(sweep_f))
    (out_dir / "sweep_g.svg").write_text(sweep_svg(sweep_g))
    return report
