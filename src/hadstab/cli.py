"""Command-line front end.

Subcommands: analyze, power, product, threshold, sweep, reproduce.  JSON goes
to stdout; sweep and reproduce write CSV/SVG artifacts into --out.  Exit
codes: 0 success, 1 theorem hypotheses unmet, 2 input error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import report
from .criteria import (
    fujiwara_bound,
    necessary_condition,
    satisfies_stability_condition,
    theorem3_check,
)
from .errors import (
    InvalidInputError,
    NotApplicableError,
    NumericalError,
    UnsupportedInputError,
    real,
)
from .poly import (
    FractionalPolynomial,
    MonicPolynomial,
    hadamard_power,
    hadamard_product,
    principal_power,
    szego_product,
    to_integer_order,
)
from .roots import (
    RootSet,
    StabilityVerdict,
    branch_root_sets,
    find_roots,
)
from .thresholds import auto_onset, pstar_exact, pstar_grid


def _json_int(text: str) -> int:
    """A JSON integer literal, or a ValueError naming its length where it has
    more digits than the interpreter converts (4,300 by default)."""
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("-"))
        raise ValueError(
            f"an integer literal of {digits} digits; at most {sys.get_int_max_str_digits()} are read"
        ) from None


def _load_poly(path: str) -> tuple[MonicPolynomial, float | None]:
    """Read a polynomial file; fractional inputs are reduced to integer order.

    Returns (polynomial, alpha) with alpha the commensurate base when the
    file held a fractional polynomial, else None.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text, parse_int=_json_int)
    except ValueError as exc:  # JSONDecodeError, or _json_int's refusal
        raise InvalidInputError(f"{path}: malformed JSON ({exc})") from exc
    if isinstance(obj, dict) and "terms" in obj:
        alpha, poly = to_integer_order(FractionalPolynomial.from_json(obj))
        base = float(alpha)
        if not base > 0.0:
            raise InvalidInputError("commensurate base underflows the floating-point range")
        return poly, base
    return MonicPolynomial.from_json(obj), None


def _emit(payload: dict) -> None:
    sys.stdout.write(report.dumps(payload))


def _verdict_payload(rs: RootSet) -> dict:
    return {**rs.to_json(), **StabilityVerdict.of(rs.max_modulus).to_json()}


_MAX_COUNT_DIGITS = 4300  # Python's default limit on printing an int
# Largest branches x degree^2, the companion-matrix elements of all members,
# that ``power --all-branches`` solves and prints.  At the cap it took 1.4 s
# (degree 16, 4,096 branches) to 6 s and 34 MB of JSON (degree 4, 65,536
# branches) on a shared 2-vCPU host.  MAX_BRANCHES alone bounds the count,
# not the work: 32,768 branches at degree 24 took 25 s and wrote 68 MB.
MAX_BRANCH_ELEMENTS = 1 << 20


def _parse_exponent(text: str) -> Fraction:
    """Parse 'K/M' or integer shorthand 'K' into the exponent in lowest terms."""
    try:
        p = Fraction(*(int(part) for part in text.strip().split("/")))
    except (TypeError, ValueError):  # not one or two integers
        raise InvalidInputError(f"cannot parse rational exponent {text!r}") from None
    except ZeroDivisionError:
        raise InvalidInputError("exponent denominator must be nonzero") from None
    real(p, "exponent overflows the floating-point range:")
    return p


def _branch_count(p: Fraction, size: int) -> int:
    """m ** size for p = k/m, refused (InvalidInputError) when too long to
    print.  Decided from size log10(m), good to a digit, before a long count
    is formed (seconds at m ~ 10^4299 and size 1024), then on the count."""
    m = p.denominator
    if size * math.log10(m) <= _MAX_COUNT_DIGITS + 1:
        count = m**size
        if count < 10**_MAX_COUNT_DIGITS:
            return count
    raise InvalidInputError(f"f^[{p}] has {m}^{size} branches, too many to print")


def cmd_analyze(args) -> int:
    f, alpha = _load_poly(args.poly)
    payload = _verdict_payload(find_roots(f))
    fuj = satisfies_stability_condition(f)
    nec = necessary_condition(f)
    criteria = [fuj.to_json(), nec.to_json()]
    if not args.witness:
        for entry in criteria:
            entry.pop("witness", None)
    bound = None
    if fuj.satisfied and fuj.witness is not None:
        bound = fujiwara_bound(f, fuj.witness)
    out = {
        "input": f.to_json(),
        "commensurate_base": alpha,
        **payload,
        "criteria": criteria,
        "fujiwara_bound": bound,
    }
    _emit(out)
    return 0


def cmd_power(args) -> int:
    f, _ = _load_poly(args.poly)
    p = _parse_exponent(args.p)
    branch_count = _branch_count(p, len(f.support))
    principal = principal_power(f, p.numerator / p.denominator)
    out = {
        "exponent": str(p),
        "branch_count": branch_count,
        "principal": {"poly": principal.to_json()},
    }
    if args.all_branches:
        bset = hadamard_power(f, p)
        elements = branch_count * f.degree**2
        if elements > MAX_BRANCH_ELEMENTS:
            raise UnsupportedInputError(
                f"f^[{p}] has {branch_count} branches of degree {f.degree}: "
                f"{elements} branches x degree^2 exceed the --all-branches "
                f"budget of {MAX_BRANCH_ELEMENTS}"
            )
        root_sets = branch_root_sets(bset)
        # Member 0 is the principal branch, bit for bit.
        out["principal"].update(_verdict_payload(root_sets[0]))
        worst = max(rs.max_modulus for rs in root_sets)
        out["combined"] = StabilityVerdict.of(worst).to_json()
        out["branches"] = [
            {"branch": list(idx), **_verdict_payload(rs)}
            for idx, rs in zip(bset.indices(), root_sets)
        ]
    else:
        out["principal"].update(_verdict_payload(find_roots(principal)))
    _emit(out)
    return 0


def cmd_product(args) -> int:
    f, _ = _load_poly(args.f)
    g, _ = _load_poly(args.g)
    prod = szego_product(f, g) if args.szego else hadamard_product(f, g)
    payload = _verdict_payload(find_roots(prod))
    out = {
        "szego": bool(args.szego),
        "product": prod.to_json(),
        **payload,
        "stability_condition": satisfies_stability_condition(prod).to_json(),
    }
    if args.criterion:
        out["criterion"] = theorem3_check(f, g, args.criterion).to_json()
    _emit(out)
    return 0


def cmd_threshold(args) -> int:
    f, _ = _load_poly(args.poly)
    if args.method == "grid":
        result = pstar_grid(f, args.mode, args.grid_n)
    elif args.method == "exact":
        result = pstar_exact(f, args.mode, args.tol)
    else:
        result = auto_onset(f, args.mode, args.tol)
    _emit(result.to_json())
    return 0


def cmd_sweep(args) -> int:
    f, _ = _load_poly(args.poly)
    powers = report.sweep_powers(getattr(args, "from"), args.to, args.step)
    out_dir = Path(args.out)
    report.write_artifacts(out_dir, {})  # before the solve, so a bad --out fails fast
    records = report.sweep(f, powers)
    artifacts = {"sweep.csv": report.sweep_csv(records, f.degree)}
    if records:
        artifacts["sweep.svg"] = report.sweep_svg(records)
    report.write_artifacts(out_dir, artifacts)
    _emit(
        {
            "records": len(records),
            "unstable_powers": [r.p for r in records if not r.stable],
            "csv": str(out_dir / "sweep.csv"),
            "svg": str(out_dir / "sweep.svg") if records else None,
        }
    )
    return 0


def cmd_reproduce(args) -> int:
    out_dir = Path(args.out)
    payload = report.reproduce_example(args.example, out_dir)
    _emit({"out": str(out_dir), "comparison": payload["comparison"]})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hadstab",
        description=(
            "Schur stability of coefficient-wise products and powers of "
            "complex monic polynomials"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="stability verdict and coefficient criteria")
    p.add_argument("--poly", required=True, help="polynomial JSON file")
    p.add_argument("--witness", action="store_true", help="include weight witnesses")

    p = sub.add_parser("power", help="rational coefficient-wise power")
    p.add_argument("--poly", required=True)
    p.add_argument(
        "--p",
        required=True,
        help="exponent K/M (integer shorthand ok); write a negative one as --p=-1/2",
    )
    p.add_argument("--all-branches", action="store_true", dest="all_branches")

    p = sub.add_parser("product", help="coefficient-wise product of two polynomials")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--szego", action="store_true", help="apply binomial weights")
    p.add_argument("--criterion", choices=["a", "b", "c"])

    p = sub.add_parser("threshold", help="power thresholds")
    p.add_argument("--poly", required=True)
    p.add_argument("--mode", required=True, choices=["max", "min"])
    p.add_argument("--method", choices=["grid", "exact", "onset"], default="grid")
    p.add_argument("--grid-n", type=int, default=1000, dest="grid_n")
    p.add_argument(
        "--tol",
        type=float,
        default=1e-6,
        help="resolution in p; for onset it must exceed the 1e-9 band's width in p, or it exits 3",
    )

    p = sub.add_parser("sweep", help="stability sweep over a power range")
    p.add_argument("--poly", required=True)
    p.add_argument("--from", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--out", default=".")

    p = sub.add_parser("reproduce", help="rerun a built-in experiment")
    p.add_argument("--example", type=int, required=True, choices=[1, 2])
    p.add_argument("--out", default=".")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs far more than
    an exact threshold, and parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # The command function is looked up when it runs, not bound into the
    # cached parser, so that a function rebound on this module is the one
    # called.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotApplicableError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
