"""Hostile values through every public numeric parameter: each call returns
or raises a HadstabError, never a raw exception."""

import math
import signal
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hadstab import HadstabError, InvalidInputError, MonicPolynomial, criteria, poly, report, thresholds

F1 = MonicPolynomial((0.7, 0.2, 0.9, 0.0, 0.0))
PAIRS = [[0.7, 0], [0.2, 0], [0.9, 0], [0, 0], [0, 0]]
LONG = 10**5000


def _numpy_scalars() -> list:
    """Every numpy scalar type, each at the values it can be built from."""
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for t in sorted(set(np.sctypeDict.values()), key=lambda t: t.__name__):
            for args in [(1,), (-1,), (0.5,), (math.nan,), ("1e400",), (b"1",), (1, "s")]:
                try:
                    out.append(t(*args))
                except (TypeError, ValueError, OverflowError):
                    pass
    return out


# Each is tried on every parameter; the rest of FIXED is drawn from.
PROBE = [
    Decimal("sNaN"), Decimal("NaN"), Decimal("Infinity"), Decimal("1e400"),
    np.timedelta64(1, "s"), np.datetime64(1, "s"), np.longdouble("1e400"), np.clongdouble(1 + 1j),
    LONG, Fraction(LONG, 3), Fraction(1, LONG), 10**400,
    True, "1", b"1", None, [1], math.nan, math.inf, -1, 1j, np.int64(2**62), np.float32(0.5),
]
# Drawn by their index, since Python prints no int of over 4,300 digits.
FIXED = PROBE + _numpy_scalars() + [
    Decimal("-Infinity"), -LONG, Fraction(-LONG - 1, LONG), [LONG], [[1], [LONG]], False, -math.inf,
]
DRAWN = st.one_of(
    st.integers(),
    st.floats(),
    st.complex_numbers(),
    st.fractions(),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.recursive(st.none() | st.integers(), lambda inner: st.lists(inner, max_size=2), max_leaves=3),
)

# Each public numeric parameter, as a call that varies it alone, with
# example 1's f everywhere else.
PARAMETERS = {
    "MonicPolynomial coefficient": lambda v: MonicPolynomial((v, 0.2, 0.9, 0.0, 0.0)),
    "from_json degree": lambda v: MonicPolynomial.from_json({"degree": v, "coeffs": PAIRS}),
    "from_json coefficient part": lambda v: MonicPolynomial.from_json({"degree": 1, "coeffs": [[v, 0]]}),
    "principal_power p": lambda v: poly.principal_power(F1, v),
    "principal_rows p": lambda v: poly.principal_rows(F1, [v]),
    "report.sweep p": lambda v: report.sweep(F1, [v]),
    "report.sweep first of two p": lambda v: report.sweep(F1, [v, 1.0]),
    "principal_rows powers": lambda v: poly.principal_rows(F1, v),
    "hadamard_power p": lambda v: poly.hadamard_power(F1, v),
    "FractionalPolynomial power": lambda v: poly.FractionalPolynomial(((v, 1.0), (Fraction(0), 0.7))),
    "sweep_powers stop": lambda v: report.sweep_powers(1.0, v, 1.0),
    "szego_weight n": lambda v: poly.szego_weight(v),
    "sharpness_witness n": lambda v: criteria.sharpness_witness(v, {0: 1.0}),
    "sharpness_witness weight": lambda v: criteria.sharpness_witness(3, {0: v}),
    "sharpness_witness weights": lambda v: criteria.sharpness_witness(3, v),
    "theorem3_check variant": lambda v: criteria.theorem3_check(F1, F1, v),
    "sharpness_witness eps": lambda v: criteria.sharpness_witness(3, {0: 1.0}, v),
    "pstar_exact tol": lambda v: thresholds.pstar_exact(F1, "max", v),
    "auto_onset tol": lambda v: thresholds.auto_onset(F1, "max", v),
    "pstar_exact mode": lambda v: thresholds.pstar_exact(F1, v),
    "pstar_grid grid_n": lambda v: thresholds.pstar_grid(F1, "max", v),
    "exact_onset interval end": lambda v: thresholds.exact_onset(F1, "increasing", (3.0, v)),
    "exact_onset interval": lambda v: thresholds.exact_onset(F1, "increasing", v),
    "SimplexWeights index": lambda v: criteria.SimplexWeights((v,), (0.5,)),
    "SimplexWeights weight": lambda v: criteria.SimplexWeights((0,), (v,)),
    "synthesize_witness modulus": lambda v: criteria.synthesize_witness({0: v}),
}


# Calls that once escaped as a raw TypeError (values that do not compare, and
# containers of the wrong shape) or MemoryError (a witness of degree 2^62).
REFUSED = {
    "report.sweep(F1, [None, 1.0])": lambda: report.sweep(F1, [None, 1.0]),
    "theorem3_check(F1, F1, [])": lambda: criteria.theorem3_check(F1, F1, []),
    "sharpness_witness(3, [1.0])": lambda: criteria.sharpness_witness(3, [1.0]),
    "exact_onset(F1, 'increasing', 5)": lambda: thresholds.exact_onset(F1, "increasing", 5),
    "principal_rows(F1, 5)": lambda: poly.principal_rows(F1, 5),
    "sharpness_witness(np.int64(2**62), {0: 1.0})": lambda: criteria.sharpness_witness(np.int64(2**62), {0: 1.0}),
}


@pytest.mark.parametrize("name", REFUSED)
def test_wrong_shapes_are_refused(name):
    with pytest.raises(InvalidInputError):
        REFUSED[name]()


def _on_every_probe_value(test):
    """Each ``PROBE`` value as an explicit example of ``test``."""
    for i in range(len(PROBE)):
        test = example(index=i, drawn=None)(test)
    return test


class _Slow(Exception):
    """A call ran past its 5 s alarm."""


def _alarm(signum, frame):
    raise _Slow


@pytest.mark.parametrize("name", PARAMETERS)
@settings(max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(index=st.none() | st.integers(0, len(FIXED) - 1), drawn=DRAWN)
@_on_every_probe_value
def test_hostile_values_are_refused_or_answered(name, index, drawn):
    value = drawn if index is None else FIXED[index]
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(5)
    try:
        PARAMETERS[name](value)
    except HadstabError:
        pass
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
