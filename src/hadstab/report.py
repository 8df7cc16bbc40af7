"""Sweep records, CSV/SVG rendering, and the built-in experiment reports.

A sweep computes the principal powers of all its powers as one array of
coefficient rows (``poly.principal_rows``), solves them as one batch
(``roots.find_root_rows``) and reads each record from its row of sorted
roots and the row's largest root modulus, which the solve returns with it;
no polynomial or root set is built per power, and no array is handled here.

All emitted artifacts are deterministic: numbers are rounded to 12
significant digits before formatting, records are sorted by power, and no
timestamps enter data files.  ``sweep_csv`` and ``sweep_svg`` each format
their whole file with one ``%`` of one template, joined from one row
template per root count; no value is formatted by a call of its own.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import InvalidInputError, describe, integer, real, reals
from .poly import MonicPolynomial, principal_rows
from .roots import Status, check_degree, classify, find_root_rows
from .thresholds import auto_onset, pstar_exact, pstar_grid

SVG_NS = "http://www.w3.org/2000/svg"

# Most powers one sweep range may hold; each is a principal power to solve
# and a row of the CSV and SVG.
MAX_SWEEP_POWERS = 1 << 16

_SVG_SIZE = 560  # pixels, width and height of a sweep's SVG
_GRID_N = 1000  # lattice resolution of the grid thresholds ``reproduce_example`` reports


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
    """One swept power: its verdict, its largest root modulus and its roots.

    ``max_modulus`` is the largest ``abs`` of ``roots``, bit for bit (the
    solver takes it with ``np.hypot``, which equals ``abs``); ``sweep_svg``
    reads its scale from it.
    """

    p: float
    stable: bool
    max_modulus: float
    roots: tuple[complex, ...]


def write_artifacts(out_dir: Path, artifacts: dict[str, str]) -> None:
    """Create ``out_dir`` if needed and write each named text into it.

    An OSError from either means the directory is unusable and is raised as
    InvalidInputError ("cannot write <out_dir>: ...").
    """
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in artifacts.items():
            (out_dir / name).write_text(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {out_dir}: {exc}") from exc


def sweep_powers(start: float, stop: float, step: float) -> list[float]:
    """The powers start, start + step, ... through stop (to within 1e-9
    steps); none when stop is below start by more than that.

    A bound or step that is not finite, a step that is not positive, and a
    range of more than MAX_SWEEP_POWERS powers raise InvalidInputError
    before any list is built.
    """
    start, stop, step = (real(x, "sweep bounds and step must be real numbers, not") for x in (start, stop, step))
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

    Every power of f has the degree of f, so all are solved as one batch:
    the coefficient rows of all powers (``principal_rows``) go to
    ``find_root_rows``, and each record is read from its row of roots, as
    ``find_roots`` would have returned them.  An UnconvergedError's ``row``
    is the power's position in sorted order; a degree above
    ``MAX_ROOT_DEGREE`` raises UnsupportedDegreeError before any row is
    built.  The powers are checked by ``principal_rows``' rule before they
    are sorted, so a value that does not compare is refused by name.
    """
    check_degree(f.degree)
    ps = sorted(reals(powers, "powers"))
    z, _, worst = find_root_rows(principal_rows(f, ps))
    return [
        SweepRecord(p, classify(m) is Status.STABLE, m, tuple(zs))
        for p, m, zs in zip(ps, worst.tolist(), z.tolist())
    ]


def sweep_csv(records: Sequence[SweepRecord], degree: int) -> str:
    """The header and one row per record: p, stable, max_modulus, then the
    real and imaginary part of each root, all at 12 significant digits.

    The whole file is one ``%`` of one template, joined from one row
    template per root count.
    """
    header = ["p", "stable", "max_modulus"]
    for i in range(1, degree + 1):
        header += [f"root_re_{i}", f"root_im_{i}"]
    rows: dict[int, str] = {}
    template = [",".join(header) + "\n"]
    values: list = []
    for rec in records:
        k = len(rec.roots)
        if k not in rows:
            rows[k] = "%.12g,%s,%.12g" + ",%.12g,%.12g" * k + "\n"
        template.append(rows[k])
        values += (rec.p, "true" if rec.stable else "false", rec.max_modulus)
        for z in rec.roots:
            values += (z.real, z.imag)
    return "".join(template) % tuple(values)


def sweep_svg(records: Sequence[SweepRecord]) -> str:
    """Scatter of every root over the sweep with the unit circle drawn.

    Markers are black on the unstable side and gray on the stable side.  The
    image contains exactly one unit-circle element and one marker per root
    per swept power.  The view's half-width is 1.05 times the largest
    ``max_modulus``, and at least 1.1.  Rounding is monotone, so this is 1.05
    times the largest root modulus bit for bit, as a loop over every root
    would take it.  The whole file is one ``%`` of one template.
    """
    half = 1.1
    for rec in records:
        half = max(half, 1.05 * rec.max_modulus)
    scale = (_SVG_SIZE / 2) / half
    cx = cy = _SVG_SIZE / 2
    marker = '  <circle class="root" cx="%.2f" cy="%.2f" r="2" fill="%s"/>\n'
    template = [
        f'<svg xmlns="{SVG_NS}" version="1.1" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">\n'
        f'  <circle class="unit-circle" cx="{cx}" cy="{cy}" r="{scale:.2f}" '
        'fill="none" stroke="#404040" stroke-width="1"/>\n'
    ]
    values: list = []
    for rec in records:
        color = "#9e9e9e" if rec.stable else "#000000"
        template.append(marker * len(rec.roots))
        for z in rec.roots:
            values += (cx + z.real * scale, cy - z.imag * scale, color)
    template.append("</svg>\n")
    return "".join(template) % tuple(values)


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


def reproduce_example(example: int, out_dir: Path) -> dict:
    """Recompute one built-in experiment end to end and write its artifacts.

    The output directory receives report.json, table.csv (computed vs
    reference values with absolute deviations) and per-polynomial sweep
    CSV/SVG files over the integer powers 1..100 (f) and -100..-1 (g).  A
    directory that cannot be created or written raises InvalidInputError
    (``write_artifacts``).
    """
    if integer(example, "unknown example") not in EXPERIMENT_POLYS:
        raise InvalidInputError(f"unknown example {describe(example)}")
    out_dir = Path(out_dir)
    write_artifacts(out_dir, {})  # before the solve, so a bad directory fails fast
    f = EXPERIMENT_POLYS[example]["f"]
    g = EXPERIMENT_POLYS[example]["g"]
    refs = REFERENCE_VALUES[example]

    grid_f = pstar_grid(f, "max", _GRID_N)
    grid_g = pstar_grid(g, "min", _GRID_N)
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
        "grid_n": _GRID_N,
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

    table_lines = ["quantity,computed,reference,abs_deviation"]
    for row in rows:
        table_lines.append(
            f"{row['quantity']},{fmt12(row['computed'])},"
            f"{fmt12(row['reference'])},{fmt12(row['abs_deviation'])}"
        )
    write_artifacts(
        out_dir,
        {
            "report.json": dumps(report),
            "table.csv": "\n".join(table_lines) + "\n",
            "sweep_f.csv": sweep_csv(sweep_f, f.degree),
            "sweep_g.csv": sweep_csv(sweep_g, g.degree),
            "sweep_f.svg": sweep_svg(sweep_f),
            "sweep_g.svg": sweep_svg(sweep_g),
        },
    )
    return report
