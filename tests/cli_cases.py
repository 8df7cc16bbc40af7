"""The console-script cases: one table, run two ways by one check function.

A case is an argv whose ``{tmp}`` stands for a temporary directory, the
polynomial files written there first, the exit code, the stdout JSON fields
that must match, the whole stderr, and the files the command must write.
``tests/test_cli_cases.py`` runs every case in process through
``hadstab.cli.main``; run as a script, this module runs every case by
subprocess through the ``hadstab`` console script on PATH::

    python tests/cli_cases.py

A new CLI behaviour to pin is one more ``Case`` in ``CASES``.
"""

from __future__ import annotations

import functools
import json
import operator
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple


class Near(NamedTuple):
    """A number within ``tol`` of ``value``."""

    value: float
    tol: float

    def __call__(self, got) -> bool:
        return abs(got - self.value) <= self.tol


class Above(NamedTuple):
    """A number above ``bound``."""

    bound: float

    def __call__(self, got) -> bool:
        return got > self.bound


class Length(NamedTuple):
    """A list of ``n`` entries."""

    n: int

    def __call__(self, got) -> bool:
        return len(got) == self.n


@dataclass(frozen=True)
class Case:
    """``hadstab`` run on ``argv`` (split on spaces) after ``files`` are
    written.  ``out`` maps a dotted path into the stdout JSON to its value or
    matcher; with no ``out``, stdout must be empty.  ``err`` is the whole
    stderr, with ``{tmp}`` standing for the directory, or a matcher of it.
    ``writes`` names the files, relative to ``{tmp}``, that the command must
    leave."""

    id: str
    argv: str
    files: dict[str, str] = field(default_factory=dict)
    code: int = 0
    out: dict[str, object] | None = None
    err: object = ""
    writes: tuple[str, ...] = ()


def _matches(got, want) -> bool:
    try:
        return want(got) if callable(want) else got == want
    except TypeError:  # a matcher given a value of another type
        return False


def check(case: Case, run: Callable[[list[str]], tuple[int, str, str]], tmp) -> None:
    """Write ``case.files`` into the directory ``tmp``, run the case through
    ``run(argv) -> (exit code, stdout, stderr)``, and raise AssertionError
    naming every difference, followed by the case's stdout and stderr."""
    tmp = Path(tmp)
    for name, text in case.files.items():
        (tmp / name).write_text(text)
    code, out, err = run([a.replace("{tmp}", str(tmp)) for a in case.argv.split()])
    want_err = case.err.replace("{tmp}", str(tmp)) if isinstance(case.err, str) else case.err
    problems = []
    if code != case.code:
        problems.append(f"exit {code}, expected {case.code}")
    if not _matches(err, want_err):
        problems.append(f"stderr is not {want_err!r}")
    if case.out is None:
        if out:
            problems.append("stdout is not empty")
    else:
        try:
            doc = json.loads(out)
        except ValueError:
            doc = None
            problems.append("stdout is not JSON")
        for path, want in case.out.items() if doc is not None else ():
            try:
                got = functools.reduce(operator.getitem, path.split("."), doc)
            except (KeyError, IndexError, TypeError):
                problems.append(f"{path} is missing")
                continue
            if not _matches(got, want):
                problems.append(f"{path} is {got!r}, expected {want!r}")
    problems += [f"{name} was not written" for name in case.writes if not (tmp / name).is_file()]
    if problems:
        raise AssertionError(
            f"{case.id}: " + "; ".join(problems) + f"\n--- stdout ---\n{out}\n--- stderr ---\n{err}"
        )


F1 = '{"degree": 5, "coeffs": [[0.7, 0], [0.2, 0], [0.9, 0], [0, 0], [0, 0]]}'
G1 = '{"degree": 5, "coeffs": [[3.0, 0], [2.0, 0], [2.5, 0], [0, 0], [0, 0]]}'
DEGREE_33 = '{"degree": 33, "coeffs": [[0.7, 0], ' + "[0, 0], " * 31 + "[0.9, 0]]}"
DEGREE_1030 = json.dumps({"degree": 1030, "coeffs": [[0.0005, 0]] * 1030})
# s^256 - 17 s^255 + 0.5: its root near 17 has |z|^256 beyond the float range.
R17 = json.dumps({"degree": 256, "coeffs": [[0.5, 0]] + [[0, 0]] * 254 + [[-17, 0]]})
# s^3 + 2^64 s^2 + 1: two roots near +-2^-32 i beside one near -2^64.
SCALED = json.dumps({"degree": 3, "coeffs": [[1, 0], [0, 0], [2**64, 0]]})
# Example 1's f at p = 27/8: the principal branch alone, and member 0 of
# --all-branches, print this object.
PRINCIPAL_27_8 = {
    "margin": -0.000990038345954,
    "max_modulus": 0.999009961654,
    "poly": {
        "coeffs": [[0.300058466256, 0.0], [0.00437498164563, 0.0], [0.700758653329, 0.0], [0.0, 0.0], [0.0, 0.0]],
        "degree": 5,
    },
    "roots": [
        [-0.0801317307425, 0.601570165251],
        [-0.0801317307425, -0.601570165251],
        [0.579636711569, 0.692476425369],
        [0.579636711569, -0.692476425369],
        [-0.999009961654, 0.0],
    ],
    "stable": True,
    "status": "Stable",
}
MIN = "threshold --poly {tmp}/g1.json --mode min --method"

CASES = [
    Case(
        "reproduce-example-1",
        "reproduce --example 1 --out {tmp}/ex1",
        out={
            "comparison": [
                {"abs_deviation": 0.008717514898, "computed": 3.4124375149,
                 "quantity": "f_pstar_max_grid", "reference": 3.40372},
                {"abs_deviation": 6.04315421375e-05, "computed": -1.24127043154,
                 "quantity": "g_pstar_min_grid", "reference": -1.24121},
                {"abs_deviation": 2.20398416761e-06, "computed": 3.35457220398,
                 "quantity": "f_onset", "reference": 3.35457},
                {"abs_deviation": 9.63977602186e-08, "computed": -1.0157899036,
                 "quantity": "g_onset", "reference": -1.01579},
            ],
        },
        writes=tuple(f"ex1/{name}" for name in (
            "report.json", "table.csv", "sweep_f.csv", "sweep_f.svg", "sweep_g.csv", "sweep_g.svg",
        )),
    ),
    Case(
        "power-1/2-all-branches",
        "power --poly {tmp}/f1.json --p 1/2 --all-branches",
        {"f1.json": F1},
        out={
            "branch_count": 8, "branches": Length(8),
            "principal.status": "Unstable", "principal.max_modulus": 1.14207074176,
            "combined.status": "Unstable", "combined.max_modulus": 1.23077100839,
        },
    ),
    # All 512 branches of example 1's f at 27/8 are printed: the principal
    # one is Stable and the combined verdict Unstable, although 27/8 lies
    # past the principal branch's onset 3.3546.
    Case(
        "power-27/8-all-branches",
        "power --poly {tmp}/f1.json --p 27/8 --all-branches",
        {"f1.json": F1},
        out={
            "branch_count": 512, "branches": Length(512), "principal": PRINCIPAL_27_8,
            "combined.status": "Unstable", "combined.max_modulus": 1.00143924698,
        },
    ),
    # --p is read as a fraction in lowest terms, its sign on the numerator;
    # a zero denominator is an input error.
    Case("power-6/4", "power --poly {tmp}/f1.json --p 6/4", {"f1.json": F1}, out={"exponent": "3/2"}),
    Case("power-10/-4", "power --poly {tmp}/f1.json --p=10/-4", {"f1.json": F1}, out={"exponent": "-5/2"}),
    Case("power-0/7", "power --poly {tmp}/f1.json --p=0/7", {"f1.json": F1}, out={"exponent": "0"}),
    Case("power--1/2", "power --poly {tmp}/f1.json --p=-1/2", {"f1.json": F1}, out={"exponent": "-1/2"}),
    Case(
        "power-1/0", "power --poly {tmp}/f1.json --p 1/0", {"f1.json": F1},
        code=2, err="error: exponent denominator must be nonzero\n",
    ),
    Case("power-27/8", "power --poly {tmp}/f1.json --p 27/8", {"f1.json": F1}, out={"principal": PRINCIPAL_27_8}),
    # With one support index the root is p = 0, and the first midpoint
    # below it, p = -32, overflows (1e-10)^p: it counts as above 1.
    Case(
        "threshold-exact-overflowing-powers",
        "threshold --poly {tmp}/tiny.json --mode max --method exact",
        {"tiny.json": '{"degree": 1, "coeffs": [[1e-10, 0]]}'},
        out={"method": "EquationSolve", "value": -4.54747350886e-13, "bracket": [-9.09494701773e-13, 0.0]},
    ),
    # Two support indices at grid_n 2: the one composition is (1, 1).
    Case(
        "threshold-grid-n-2",
        "threshold --poly {tmp}/grid2.json --mode max --method grid --grid-n 2",
        {"grid2.json": '{"degree": 2, "coeffs": [[0.7347426466626976, 0], [0.2535044348801034, 0]]}'},
        out={"value": 2.24876221637, "grid_n": 2},
    ),
    # Stable on about [0.443, 0.565] and Unstable again up to about 0.81:
    # the onset is the last crossing, not the first.
    Case(
        "threshold-onset-last-crossing",
        "threshold --poly {tmp}/found7.json --mode max --method onset",
        {"found7.json": '{"degree": 7, "coeffs": [[-0.08236623741318755, -0.020053098849155526], '
                        '[0, 0], [0, 0], [0, 0], [0.010043444828165759, 0.23125266418922988], '
                        '[0.41257330525942437, 0.4276641753939637], '
                        '[-0.010449170319921926, -0.0584363405720814]]}'},
        out={"value": Above(0.8)},
    ),
    # Example 1's f crosses the unit circle at p = 3.354572203984166993
    # (40-digit arithmetic); the Newton tail prints it to 12 digits, as it
    # does example 2's crossings of f (mode max) and g (mode min).
    Case(
        "threshold-onset-newton-example-1",
        "threshold --poly {tmp}/f1.json --mode max --method onset",
        {"f1.json": F1},
        out={"method": "Newton", "value": Near(3.35457220398, 1e-11)},
    ),
    Case(
        "threshold-onset-newton-example-2-f",
        "threshold --poly {tmp}/f2.json --mode max --method onset",
        {"f2.json": '{"degree": 4, "coeffs": [[0, -0.9], [0.7, 0], [0, 0], [0.2, -0.4]]}'},
        out={"method": "Newton", "value": 3.35720894408},
    ),
    Case(
        "threshold-onset-newton-example-2-g",
        "threshold --poly {tmp}/g2.json --mode min --method onset",
        {"g2.json": '{"degree": 4, "coeffs": [[1.0, -0.5], [0, 0], [2.0, -1.0], [-1.5, 0]]}'},
        out={"method": "Newton", "value": -3.23420450506},
    ),
    # s^33 + 0.9 s^32 + 0.7, above the Schur-Cohn cap: every status and
    # branch-set verdict comes from the root finder alone.
    Case(
        "threshold-onset-degree-33",
        "threshold --poly {tmp}/deg33.json --mode max --method onset",
        {"deg33.json": DEGREE_33},
        out={"value": 3.37952025573, "bracket": [3.37951983986, 3.37952067159]},
    ),
    Case(
        "power-7/2-degree-33-all-branches",
        "power --poly {tmp}/deg33.json --p 7/2 --all-branches",
        {"deg33.json": DEGREE_33},
        out={"branch_count": 4, "combined.status": "Stable", "combined.max_modulus": 0.997958486683},
    ),
    # Mode min is mode max mirrored to p < 0: example 1's g, as printed.
    Case("threshold-min-grid", f"{MIN} grid", {"g1.json": G1}, out={"value": -1.24127043154, "bracket": None}),
    Case(
        "threshold-min-exact", f"{MIN} exact", {"g1.json": G1},
        out={"value": -1.24055896548, "bracket": [-1.24055896548, -1.24055896548]},
    ),
    Case(
        "threshold-min-onset", f"{MIN} onset", {"g1.json": G1},
        out={"value": -1.0157899036, "bracket": [-1.0157901536, -1.0157896536]},
    ),
    # analyze and product solve one polynomial at a time through find_roots.
    Case(
        "analyze-witness", "analyze --poly {tmp}/f1.json --witness", {"f1.json": F1},
        out={"status": "Unstable", "max_modulus": 1.09237876079},
    ),
    Case(
        "product-szego-criterion-a",
        "product --f {tmp}/f1.json --g {tmp}/g1.json --szego --criterion a",
        {"f1.json": F1, "g1.json": G1},
        out={"status": "Unstable", "max_modulus": 1.18334852194},
    ),
    # A 400-digit coefficient overflows a float; a 5,000-digit degree is past
    # the 4,300 digits Python reads into an int.
    Case(
        "analyze-400-digit-coefficient", "analyze --poly {tmp}/bigint.json",
        {"bigint.json": '{"degree": 1, "coeffs": [[1' + "0" * 400 + ", 0]]}"},
        code=2, err="error: each coefficient must be an [re, im] pair of real numbers, not a 401-digit integer\n",
    ),
    Case(
        "analyze-5000-digit-degree", "analyze --poly {tmp}/bigdeg.json",
        {"bigdeg.json": '{"degree": 1' + "0" * 5000 + ', "coeffs": [[0.5, 0]]}'},
        code=2,
        err="error: {tmp}/bigdeg.json: malformed JSON (an integer literal of 5001 digits; at most 4300 are read)\n",
    ),
    # Both parts are finite, but |a_0| overflows a float.
    Case(
        "power-modulus-beyond-float", "power --poly {tmp}/bigmod.json --p 1",
        {"bigmod.json": '{"degree": 2, "coeffs": [[1.5e308, 1.5e308], [0.5, 0]]}'},
        code=2, err="error: coefficients must be finite\n",
    ),
    # 10^400 overflows; the error names the first coefficient that does.
    Case(
        "power-400-overflows", "power --poly {tmp}/ovf.json --p 400",
        {"ovf.json": '{"degree": 3, "coeffs": [[1e-3, 0], [2, 0], [10, 0]]}'},
        code=2, err="error: |(10+0j)|^400.0 overflows the floating-point range\n",
    ),
    # On example 1's f, 0.2^-450 overflows (0.7^-450 and 0.9^-450 do not).
    Case(
        "power--450-overflows", "power --poly {tmp}/f1.json --p=-450", {"f1.json": F1},
        code=2, err="error: |(0.2+0j)|^-450.0 overflows the floating-point range\n",
    ),
    # arg(1500 + 5e-324 i) is below the float range; the power is still
    # taken, with that angle.
    Case(
        "power-underflowing-angle", "power --poly {tmp}/tinyangle.json --p=2",
        {"tinyangle.json": '{"degree": 2, "coeffs": [[1500, 5e-324], [0.5, 0]]}'},
        out={"principal.status": "Unstable", "principal.max_modulus": 1500.0},
    ),
    # README's fractional example reduces to integer order at base 1/2; a
    # file without terms is an input error.
    Case(
        "analyze-fractional", "analyze --poly {tmp}/frac.json",
        {"frac.json": '{"terms": [{"pow": [5, 2]}, {"pow": [1, 1], "coeff": [0.9, 0]}, '
                      '{"pow": [1, 2], "coeff": [0.2, 0]}, {"pow": [0, 1], "coeff": [0.7, 0]}]}'},
        out={"commensurate_base": 0.5, "input.degree": 5},
    ),
    Case(
        "analyze-no-terms", "analyze --poly {tmp}/noterms.json", {"noterms.json": '{"terms": []}'},
        code=2, err="error: 'terms' must be a non-empty list\n",
    ),
    # 1.3^p grows without bound: the stable end doubles from 64 until the
    # principal power at p = 4096 overflows, which is not applicable.
    Case(
        "threshold-onset-no-stable-end",
        "threshold --poly {tmp}/grow.json --mode max --method onset",
        {"grow.json": '{"degree": 3, "coeffs": [[0.05, 0], [1.3, 0], [0.2, 0]]}'},
        code=1,
        err="not applicable: no stable power found while expanding the bracket: the principal "
            "power at p = 4096.0 is out of range (|(1.3+0j)|^4096.0 overflows the floating-point "
            "range)\n",
    ),
    # A root whose |z|^n overflows certifies: its residual is taken through
    # 1 / z.
    Case(
        "analyze-root-beyond-the-power-range", "analyze --poly {tmp}/r17.json", {"r17.json": R17},
        out={"status": "Unstable", "max_modulus": 17.0, "roots": Length(256)},
    ),
    # Root moduli 29 orders apart certify: Aberth tests each root's step
    # against its own modulus, so the small pair is not frozen at the scale
    # of the large root.
    Case(
        "analyze-badly-scaled-row", "analyze --poly {tmp}/scaled.json", {"scaled.json": SCALED},
        out={
            "status": "Unstable", "max_modulus": 1.84467440737e+19,
            "roots": [[0.0, 2.32830643654e-10], [0.0, -2.32830643654e-10], [-1.84467440737e+19, 0.0]],
        },
    ),
    # C(1030, 515) is beyond the float range: --szego at degree 1030 is an
    # input error naming the degree; without it, root finding refuses it.
    Case(
        "product-szego-degree-1030", "product --f {tmp}/deg1030.json --g {tmp}/deg1030.json --szego",
        {"deg1030.json": DEGREE_1030},
        code=2, err="error: Szego weights need degree <= 1029, got 1030\n",
    ),
    Case(
        "product-degree-1030", "product --f {tmp}/deg1030.json --g {tmp}/deg1030.json",
        {"deg1030.json": DEGREE_1030},
        code=2, err="error: root finding needs degree <= 1024, got 1030\n",
    ),
    Case(
        "sweep-1-to-100", "sweep --poly {tmp}/f1.json --from 1 --to 100 --step 1 --out {tmp}/sw",
        {"f1.json": F1},
        out={"records": 100, "unstable_powers": [1.0, 2.0, 3.0]},
        writes=("sw/sweep.csv", "sw/sweep.svg"),
    ),
]


def _console_script(argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run(["hadstab", *argv], capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    failed = []
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                check(case, _console_script, tmp)
            except AssertionError as exc:
                print(f"FAIL {exc}", flush=True)
                failed.append(case.id)
                continue
        print(f"ok   {case.id}", flush=True)
    print(f"{len(CASES) - len(failed)} of {len(CASES)} cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
