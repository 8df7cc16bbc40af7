"""Power thresholds for coefficient-wise (Hadamard) powers.

Four families of results live here:

* sufficient-stability thresholds from the weighted coefficient bound, both
  as a weight-grid search (``pstar_grid``) and as an exact 1-D equation solve
  (``pstar_exact``);
* instability bounds from the binomial necessary condition (``beta_star``)
  and the lowest-support-index sign test (``kstar_test``);
* the exact stability onset of the principal power branch
  (``exact_onset`` / ``auto_onset``).  ``auto_onset`` finds the last
  crossing, the paper's p* for the principal branch: one status scan below
  the stable end that Theorem 1 gives (``pstar_exact``) brackets it, and
  Newton's method on F(p, t) = f^[p](e^{it}) = 0 locates the crossing in
  that bracket, from one uncertified companion eigenvalue, checked by the
  statuses just beside it (``_newton_onset``).  Where Newton declines, and
  in ``exact_onset``, the bracket is bisected on the status, one power per
  step.  Every status comes from a ``roots.row_statuses`` batch of
  principal rows (``poly.principal_rows``), which the Schur-Cohn recursion
  on the coefficients decides, and the root finder only where the
  recursion cannot; that is the only way a search reaches the root finder.
  No polynomial object is built per power;
* a determinant-based boundary indicator (``guardian_map``) that vanishes
  exactly when a root reaches the unit circle and changes sign across simple
  crossings.  No search runs on it: it is kept as an oracle independent of
  the root finder and the Schur-Cohn recursion, against which the onset
  brackets are checked.

Mode 'min' is mode 'max' under p -> -p, and a 'decreasing' onset is an
'increasing' one, so every search runs in q = sign * p, where Unstable
powers lie below Stable ones.  The mode ('max' +1, 'min' -1) or direction
('increasing' +1, 'decreasing' -1) sets only the sign, the result's kind
and the error texts.  Statuses are taken at p = sign * q, and each result
maps back to p with its bracket sorted.  Sums are rounded as in p
(``_sum``), so every result is bit for bit that of a search run in p.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    BracketError,
    InvalidInputError,
    MarginalZoneError,
    NotApplicableError,
    UnconvergedError,
    UnsupportedDegreeError,
    describe,
    integer,
    real,
)
from .poly import MonicPolynomial, principal_power, principal_rows, real_form
from .roots import Status, companion_matrix, row_statuses

_MAX_BISECT = 200
# auto_onset's scan grid: the powers P i/31 below its stable end P.
_SCAN_POINTS = 31
# The Newton tail of auto_onset takes at most this many steps, and stops once
# a step moves q and t by at most _NEWTON_RTOL of their size (at least 1).
_NEWTON_STEPS = 12
_NEWTON_RTOL = 1e-12
# Where Theorem 1 does not apply, auto_onset's stable end doubles from 64 at
# most up to this power.
_EXPANSION_CAP = 2.0 ** 16
# Maximum degree of the real carrier polynomial in guardian_map; the compound
# matrix has dimension C(degree, 2).
_GUARDIAN_DEGREE_CAP = 12
# Largest weight grid pstar_grid reads: |support| * grid_n per-index ratios,
# held as one float64 array and partitioned through one int64 index array
# (32 MiB each at the cap).
MAX_GRID_RATIOS = 1 << 22
# A NaN or infinite tolerance would end every bisection before its first step.
_TOL = "tol must be positive and finite, not"


class Kind(str, Enum):
    SUFFICIENT_MAX = "SufficientMax"
    SUFFICIENT_MIN = "SufficientMin"
    INSTABILITY_MAX = "InstabilityMax"
    INSTABILITY_MIN = "InstabilityMin"
    EXACT_ONSET = "ExactOnset"


class Method(str, Enum):
    GRID_SEARCH = "GridSearch"
    EQUATION_SOLVE = "EquationSolve"
    BISECTION = "Bisection"
    NEWTON = "Newton"


class HalfLine(str, Enum):
    NONPOSITIVE = "p<=0"
    NONNEGATIVE = "p>=0"
    BOTH = "both"


@dataclass(frozen=True)
class ThresholdResult:
    kind: Kind
    value: float
    method: Method
    bracket: tuple[float, float] | None = None
    grid_resolution: int | None = None

    def to_json(self) -> dict:
        if math.isinf(self.value):
            value = "inf" if self.value > 0 else "-inf"
        else:
            value = self.value
        return {
            "kind": self.kind.value,
            "value": value,
            "method": self.method.value,
            "bracket": None if self.bracket is None else list(self.bracket),
            "grid_n": self.grid_resolution,
        }


class KStarResult(NamedTuple):
    kstar: int
    unstable_for: HalfLine


def _sign(name: str, value: str, plus: str, minus: str) -> float:
    """+1.0 for ``plus`` and -1.0 for ``minus``: the orientation q = sign * p
    in which a search sees Unstable powers below Stable ones."""
    if value == plus:
        return 1.0
    if value == minus:
        return -1.0
    raise InvalidInputError(f"{name} must be {plus!r} or {minus!r}, not {describe(value)}")


def _sufficient_kind(sign: float) -> Kind:
    return Kind.SUFFICIENT_MAX if sign > 0 else Kind.SUFFICIENT_MIN


def _sum(sign: float, a: float, b: float) -> float:
    """a + b in q = sign * p, rounded as the sum of the two powers p: where
    it cancels, that sum is +0.0, so sign * q is bit for bit the p of a
    search run in p."""
    return sign * (sign * a + sign * b)


def _theorem1_moduli(f: MonicPolynomial, sign: float) -> list[float]:
    """Coefficient moduli on the support, validating the hypothesis that they
    all sit below 1 (mode 'max', sign +1) or above 1 (mode 'min', sign -1)."""
    moduli = []
    for k in f.support:
        m = abs(f.coeffs[k])
        if sign * (m - 1.0) >= 0.0:
            raise NotApplicableError(
                f"|a_{k}| = {m} {'>=' if sign > 0 else '<='} 1: "
                "no finite stabilizing power threshold",
                index=k,
            )
        moduli.append(m)
    return moduli


def _vacuous(sign: float, method: Method, grid_n: int | None = None) -> ThresholdResult:
    # Empty support: every power of s^n is s^n, stable for all p.
    kind = _sufficient_kind(sign)
    return ThresholdResult(kind, -sign * math.inf, method, None, grid_n)


def _lattice_optimum(moduli: list[float], sign: float, resolution: int) -> float:
    """Exact optimum of the weight-grid objective over lattice weights.

    The grid consists of weights c_k / R over integer compositions
    (c_1, ..., c_d) of R = resolution with every part >= 1, and the value of
    a composition is the largest per-index ratio q_k(c_k) = sign ln(c_k/R) /
    ln m_k, in q = sign * p.  Each q_k falls as c grows, so a level v is
    reached iff the smallest parts with q_k(c_k) <= v fit into R, that is,
    iff at most R - d of the d*R ratios q_k(c) exceed v.  The optimum is
    therefore an order statistic, not a search: the (R - d + 1)-th largest
    ratio counted with multiplicity, rank (d - 1)(R + 1) from below, read
    with one partition instead of enumerating the simplex (C(R-1, d-1)
    points).  It is mapped back to p at the (k, c) it was read from
    (cross-checked against brute force in the test suite).
    """
    R = resolution
    d = len(moduli)
    if R < max(2, d):
        raise InvalidInputError(f"grid_n must be at least max(2, |support|) = {max(2, d)}")
    if d * R > MAX_GRID_RATIOS:
        raise InvalidInputError(
            f"grid_n = {describe(R)} over {d} support indices: the ratio count, |support| x grid_n, "
            f"is {describe(d * R)}; at most {MAX_GRID_RATIOS} are supported"
        )
    logs = np.log(np.array(moduli))
    ratios = np.log(np.arange(1, R + 1) / R)[None, :] / (sign * logs)[:, None]
    rank = (d - 1) * (R + 1)
    k, col = divmod(int(np.argpartition(ratios, rank, axis=None)[rank]), R)
    return float(math.log((col + 1) / R) / logs[k])


def pstar_grid(f: MonicPolynomial, mode: str, grid_n: int) -> ThresholdResult:
    """Grid approximation of the sufficient power threshold.

    mode 'max' (all support moduli < 1): minimizes, over lattice weights at
    the given resolution, the largest of ln(lambda_k)/ln|a_k|; every power
    beyond the returned value has all branches Schur stable.  mode 'min'
    (all moduli > 1) maximizes the smallest ratio and guards powers below the
    returned value.  The value is the exact lattice optimum, read as one
    order statistic of the |support| * grid_n per-index ratios
    (``_lattice_optimum``).  The grid approaches the exact threshold from
    the stable side, so grid >= exact for 'max' and grid <= exact for 'min'.
    A grid of more than MAX_GRID_RATIOS ratios raises InvalidInputError
    before any array is built.
    """
    sign = _sign("mode", mode, "max", "min")
    grid_n = integer(grid_n, "grid_n must be an integer, not")
    if not f.support:
        return _vacuous(sign, Method.GRID_SEARCH, grid_n)
    value = _lattice_optimum(_theorem1_moduli(f, sign), sign, grid_n)
    kind = _sufficient_kind(sign)
    return ThresholdResult(kind, value, Method.GRID_SEARCH, None, grid_n)


def pstar_exact(f: MonicPolynomial, mode: str, tol: float = 1e-6) -> ThresholdResult:
    """Exact sufficient power threshold via the sum equation.

    Lemma: the optimum of the weight-grid objective over the full weight
    simplex equals the unique p0 with ``sum_k |a_k|^p0 = 1``.  For mode 'max'
    (all moduli < 1): weights lambda_k = |a_k|^p0 are admissible and give
    max-ratio p0, so the infimum is at most p0; conversely any weights whose
    max-ratio is some r < p0 must satisfy lambda_k >= |a_k|^r, and since the
    sum of |a_k|^p is strictly decreasing in p its value at r exceeds 1,
    contradicting the simplex budget.  Mode 'min' is the mirror image under
    p -> -p: the search runs in q = sign * p (sign +1 for 'max', -1 for
    'min'), where the sum is strictly decreasing under either hypothesis, so
    q0 is unique and bisection (then narrowed far below ``tol``) brackets it
    with a certified sign change.  The bracket starts at [-64, 64], where
    every term at q = -64 exceeds 1 or overflows (counted as above 1), and
    its upper end doubles until the sign changes, which it does once m^p
    underflows to 0.  The value and the sorted bracket are mapped back to p.
    """
    sign = _sign("mode", mode, "max", "min")
    if not 0 < (tol := real(tol, _TOL)) < math.inf:  # NaN too
        raise InvalidInputError(f"{_TOL} {tol}")
    if not f.support:
        return _vacuous(sign, Method.EQUATION_SOLVE)
    moduli = _theorem1_moduli(f, sign)

    def above(q: float) -> bool:  # True where sum_k m^p > 1, below q0
        try:
            return math.fsum(m ** (sign * q) for m in moduli) > 1.0
        except OverflowError:
            return True

    lo, hi = -64.0, 64.0
    while above(hi):
        hi *= 2.0

    target = min(tol, 1e-12)
    for _ in range(_MAX_BISECT):
        if hi - lo <= target:
            break
        mid = 0.5 * _sum(sign, lo, hi)
        if mid <= lo or mid >= hi:  # float resolution exhausted
            break
        if above(mid):
            lo = mid
        else:
            hi = mid
    a, b = sorted((sign * lo, sign * hi))
    kind = _sufficient_kind(sign)
    return ThresholdResult(kind, 0.5 * (a + b), Method.EQUATION_SOLVE, (a, b))


def beta_star(f: MonicPolynomial, mode: str) -> ThresholdResult:
    """Instability bound from the binomial necessary condition.

    mode 'max': over support indices with |a_k| > 1, the smallest
    ln C(n,k) / ln |a_k|; every power >= it makes some coefficient violate
    |a_k^p| < C(n,k), so no such power is Schur stable.  mode 'min' mirrors
    this over indices with 0 < |a_k| < 1 and guards powers <= the bound.
    """
    sign = _sign("mode", mode, "max", "min")
    indices = [k for k in f.support if sign * (abs(f.coeffs[k]) - 1.0) > 0.0]
    if not indices:
        raise NotApplicableError(
            f"no support index with {'|a_k| > 1' if sign > 0 else '0 < |a_k| < 1'}"
        )
    n = f.degree
    ratios = [math.log(math.comb(n, k)) / math.log(abs(f.coeffs[k])) for k in indices]
    kind = Kind.INSTABILITY_MAX if sign > 0 else Kind.INSTABILITY_MIN
    value = sign * min(sign * r for r in ratios)
    return ThresholdResult(kind, value, Method.EQUATION_SOLVE)


def kstar_test(f: MonicPolynomial) -> KStarResult:
    """Sign test at the lowest support index k*.

    |a_{k*}| is the modulus of a product of roots (up to sign), so it pins an
    instability half-line: powers p <= 0 when |a_{k*}| <= 1, powers p >= 0
    when |a_{k*}| >= 1, both when the modulus is exactly 1.
    """
    if not f.support:
        raise NotApplicableError("empty support: every power is stable")
    kstar = f.support[0]
    m = abs(f.coeffs[kstar])
    if m == 1.0:
        return KStarResult(kstar, HalfLine.BOTH)
    if m < 1.0:
        return KStarResult(kstar, HalfLine.NONPOSITIVE)
    return KStarResult(kstar, HalfLine.NONNEGATIVE)


def _statuses(
    f: MonicPolynomial, sign: float, qs: list[float]
) -> Callable[[float], Status]:
    """The principal-branch status at p = sign * q, looked up by q.

    The powers ``qs`` are decided as one ``row_statuses`` batch.  If that
    batch fails, each of them is solved alone when first looked up and
    remembered, so only a failure that the search reaches raises, as it
    would have alone.
    """
    try:
        known = dict(zip(qs, row_statuses(principal_rows(f, [sign * q for q in qs]))))
    except (InvalidInputError, UnconvergedError):  # overflow, or no certificate
        known = {}

    def status(q: float) -> Status:
        if q not in known:
            known[q] = row_statuses(principal_rows(f, [sign * q]))[0]
        return known[q]

    return status


def exact_onset(
    f: MonicPolynomial,
    direction: str,
    search_interval: tuple[float, float],
    tol: float = 1e-6,
) -> ThresholdResult:
    """Bisect the power at which the maximum root modulus crosses 1.

    The stability indicator is the status of the principal branch of f^[p],
    decided by the Schur-Cohn recursion with the root finder as its fallback
    (``roots.row_statuses``).  The interval must be finite and must
    already bracket the change ('increasing' means Unstable at the left end
    and Stable at the right end); it is validated from one status batch of
    both ends, not assumed.  The direction sets only the sign of
    q = sign * p (+1 'increasing', -1 'decreasing'), in which the search
    runs with Unstable powers below Stable ones; the value and the sorted
    bracket are mapped back to p.  A Marginal verdict at the midpoint
    triggers a close-out attempt at mid +- tol/2; if the band cannot be
    escaped the onset is uncertifiable at this tolerance and
    MarginalZoneError is raised.  Where the maximum modulus crosses 1 more
    than once, the result is one of the crossings.
    """
    if not 0 < (tol := real(tol, _TOL)) < math.inf:  # NaN too
        raise InvalidInputError(f"{_TOL} {tol}")
    try:
        lo, hi = search_interval
    except (TypeError, ValueError):  # not an iterable of two
        raise InvalidInputError(f"search interval must be a pair, not {describe(search_interval)}") from None
    lo, hi = (real(x, "search interval ends must be real numbers, not") for x in (lo, hi))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidInputError(f"search interval [{lo}, {hi}] must be finite")
    if not lo < hi:
        raise InvalidInputError(f"empty search interval [{lo}, {hi}]")
    sign = _sign("direction", direction, "increasing", "decreasing")
    need = (Status.UNSTABLE, Status.STABLE)[:: int(sign)]  # at (lo, hi)
    status = _statuses(f, 1.0, [lo, hi])
    actual = (status(lo), status(hi))
    if actual != need:
        raise BracketError(
            f"interval [{lo}, {hi}] has verdicts ({actual[0].value}, "
            f"{actual[1].value}), need ({need[0].value}, {need[1].value})"
        )
    return _bisect_onset(f, sign, *sorted((sign * lo, sign * hi)), tol)


def _bisect_onset(
    f: MonicPolynomial, sign: float, lo: float, hi: float, tol: float
) -> ThresholdResult:
    """``exact_onset`` on a bracket [lo, hi] in q = sign * p, Unstable at lo
    and Stable at hi, whose end verdicts are already known: plain bisection
    on the status, one single-row ``row_statuses`` batch per step and at
    most ``_MAX_BISECT`` steps.  A Marginal midpoint closes out."""
    for _ in range(_MAX_BISECT):
        if hi - lo <= tol:
            break
        mid = 0.5 * _sum(sign, lo, hi)
        st = row_statuses(principal_rows(f, [sign * mid]))[0]
        if st is Status.UNSTABLE:
            lo = mid
        elif st is Status.STABLE:
            hi = mid
        else:
            return _close_out(f, sign, mid, lo, hi, tol)
    return _onset_result(sign, lo, hi)


def _close_out(
    f: MonicPolynomial, sign: float, mid: float, lo: float, hi: float, tol: float
) -> ThresholdResult:
    """The onset at a Marginal point ``mid`` of the bracket [lo, hi] in q:
    the bracket mid -+ tol/2, clipped to [lo, hi], if its ends, one status
    batch, are Unstable and Stable; otherwise the onset is uncertifiable at
    this tolerance.  The two sums round apart, so where their ends lie more
    than tol apart in exact arithmetic, the Stable end is pulled in to the
    last float within tol of the Unstable one."""
    lo2 = max(lo, _sum(sign, mid, -0.5 * tol))
    hi2 = min(hi, _sum(sign, mid, 0.5 * tol))
    top = Fraction(lo2) + Fraction(tol)
    if hi2 > top:
        hi2 = float(top)
        if hi2 > top:
            hi2 = math.nextafter(hi2, -math.inf)
    if lo2 < hi2:
        status = _statuses(f, sign, [lo2, hi2])
        if status(lo2) is Status.UNSTABLE and status(hi2) is Status.STABLE:
            return _onset_result(sign, lo2, hi2)
    raise MarginalZoneError(
        f"verdict stays within the boundary band around p = {sign * mid}"
    )


def _newton_onset(
    f: MonicPolynomial, sign: float, lo: float, hi: float, tol: float
) -> ThresholdResult | None:
    """The crossing inside the bracket [lo, hi] in q = sign * p, Unstable at
    lo and Stable at hi, found by Newton's method; None where it declines.

    A root of f^[p] is on the unit circle at e^{it} exactly where
    F(q, t) = e^{int} + sum_k c_k = 0, c_k = |a_k|^p e^{i(p arg a_k + kt)},
    two real equations in (q, t) with the closed-form derivatives
    dF/dq = sign sum_k c_k (ln|a_k| + i arg a_k) and
    dF/dt = i (n e^{int} + sum_k k c_k).  The steps start at the bracket's
    midpoint and the angle of the largest-modulus eigenvalue of that row's
    companion matrix, one ``np.linalg.eigvals`` call: a start needs no
    certificate, since the check below decides what is kept, so the root
    finder's polish, residual test and sort are not paid for.  The steps
    are plain 2x2 real Newton in ``math`` and ``cmath``, so the iterates do
    not depend on numpy's BLAS or SIMD paths.
    A converged q is accepted only if lo < q < hi and one status batch reads
    Unstable at q - tol/4 and Stable at q + tol/4, each clipped to the
    bracket: the value is then a crossing, and the bracket's ends are
    certified as bisection's are.  The bracket is tol/2 wide, the narrowest
    bisection ends with, so that its ends rounded to 12 digits stay within
    tol.  An overflow, eigenvalues that do not converge, a zero or
    non-finite Jacobian, no convergence within ``_NEWTON_STEPS`` steps, or a
    check that fails or raises declines.
    """
    mid = 0.5 * _sum(sign, lo, hi)
    try:
        eig = np.linalg.eigvals(companion_matrix(principal_rows(f, [sign * mid])[0, :-1]))
    except (InvalidInputError, np.linalg.LinAlgError):  # overflow, or no QR convergence
        return None
    z = complex(eig[np.argmax(np.abs(eig))])
    n = f.degree
    terms = []  # (k, |a_k|, arg a_k, ln|a_k| + i arg a_k) on the support
    for k, a in enumerate(f.coeffs):
        if a != 0:
            r, theta = abs(a), math.atan2(a.imag, a.real)
            terms.append((k, r, theta, complex(math.log(r), theta)))
    q, t = mid, math.atan2(z.imag, z.real)
    try:
        for _ in range(_NEWTON_STEPS):
            p = sign * q
            lead = cmath.rect(1.0, n * t)
            F, Fq, Ft = lead, 0j, n * lead
            for k, r, theta, log_a in terms:
                c = cmath.rect(r**p, p * theta + k * t)
                F += c
                Fq += c * log_a
                Ft += k * c
            Fq, Ft = sign * Fq, 1j * Ft
            det = Fq.real * Ft.imag - Ft.real * Fq.imag
            if det == 0.0 or not math.isfinite(det):
                return None
            dq = (Ft.real * F.imag - F.real * Ft.imag) / det
            dt = (F.real * Fq.imag - Fq.real * F.imag) / det
            q, t = q + dq, t + dt
            if max(abs(dq) / max(1.0, abs(q)), abs(dt) / max(1.0, abs(t))) <= _NEWTON_RTOL:
                break
        else:
            return None
    except (OverflowError, ValueError):  # |a_k|^p, or an infinite angle
        return None
    if not lo < q < hi:
        return None
    lo2 = max(lo, _sum(sign, q, -0.25 * tol))
    hi2 = min(hi, _sum(sign, q, 0.25 * tol))
    status = _statuses(f, sign, [lo2, hi2])
    try:
        if status(lo2) is not Status.UNSTABLE or status(hi2) is not Status.STABLE:
            return None
    except (InvalidInputError, UnconvergedError):
        return None
    bracket = tuple(sorted((sign * lo2, sign * hi2)))
    return ThresholdResult(Kind.EXACT_ONSET, sign * q, Method.NEWTON, bracket)


def _onset_result(sign: float, lo: float, hi: float) -> ThresholdResult:
    a, b = sorted((sign * lo, sign * hi))
    return ThresholdResult(Kind.EXACT_ONSET, 0.5 * (a + b), Method.BISECTION, (a, b))


def auto_onset(f: MonicPolynomial, mode: str, tol: float = 1e-6) -> ThresholdResult:
    """The last crossing of the principal power's stability, the paper's p*:
    every scanned power beyond it is Stable.

    The search runs in q = sign * p, sign +1 for mode 'max' and -1 for
    'min', which mirrors it to p < 0; the mode sets nothing else.  The far
    end P is the stable side of ``pstar_exact``'s bracket, beyond which
    Theorem 1 makes every branch stable, so it is not solved.  Where Theorem
    1 does not apply (a support modulus on the wrong side of 1, or no
    support), P is the first Stable power of 64, 128, ..., and crossings
    beyond it are not looked for.  One status batch decides the powers
    P i/31, i < 31, and 1e-3, 1e-2, 0.1, 0.25, 0.5, 1, 2, 4, ... below P,
    so that an onset below the grid spacing still gets a narrow bracket;
    q = 0 is solved only when none of them is Unstable.  The last strictly
    Unstable power and the next one scanned (or P) bracket the onset.  Where
    the next power is Stable, ``_newton_onset`` finds the crossing of F(p, t)
    = f^[p](e^{it}) = 0 inside the bracket, starting from the companion
    eigenvalues of its midpoint row, and checks it with one status batch at
    the crossing -+ tol/4
    (method Newton: the value is the crossing, the bracket the two checked
    powers).  Where Newton declines, the bracket is bisected on the status,
    one power per step, without solving its ends again (method Bisection); a
    Marginal next power closes out as a Marginal midpoint does.  The powers
    are looked up from the top down to the last Unstable one, so if the
    batch fails, only a failure the search reaches raises.  Raises
    BracketError when no end can be found, including when a stable-end
    candidate's principal power overflows or its verdict cannot be
    certified.
    """
    sign = _sign("mode", mode, "max", "min")
    if not 0 < (tol := real(tol, _TOL)) < math.inf:  # NaN too
        raise InvalidInputError(f"{_TOL} {tol}")
    try:
        bracket = pstar_exact(f, mode).bracket
    except NotApplicableError:
        bracket = None
    if bracket is None:  # outside Theorem 1, or no support
        top = _doubled_stable_end(f, sign)
    else:
        top = max(sign * p for p in bracket)

    scan = [top * i / _SCAN_POINTS for i in range(1, _SCAN_POINTS)]
    scan += [1e-3, 1e-2, 0.1, 0.25, 0.5]
    step = 1.0
    while step < top:
        scan.append(step)
        step *= 2.0
    scanned = sorted({q for q in scan if 0.0 < q < top})
    status = _statuses(f, sign, scanned)
    qs = [0.0, *scanned, top]
    j = len(qs) - 2
    while j > 0 and status(qs[j]) is not Status.UNSTABLE:
        j -= 1
    if j == 0 and status(0.0) is not Status.UNSTABLE:
        raise BracketError(
            "no strictly unstable power found between 0 and the stable region"
        )
    if j + 2 == len(qs) or status(qs[j + 1]) is Status.STABLE:
        newton = _newton_onset(f, sign, qs[j], qs[j + 1], tol)
        if newton is not None:
            return newton
        return _bisect_onset(f, sign, qs[j], qs[j + 1], tol)
    return _close_out(f, sign, qs[j + 1], qs[j], qs[j + 2], tol)


def _doubled_stable_end(f: MonicPolynomial, sign: float) -> float:
    """The first q of 64, 128, ... up to ``_EXPANSION_CAP`` whose power
    p = sign * q is Stable, from one status batch looked up upward."""
    qs = [2.0**k for k in range(6, int(math.log2(_EXPANSION_CAP)) + 1)]
    status = _statuses(f, sign, qs)
    for q in qs:
        try:
            if status(q) is Status.STABLE:
                return q
        except UnsupportedDegreeError:
            raise
        except InvalidInputError as exc:  # a coefficient overflows
            raise BracketError(
                f"no stable power found while expanding the bracket: the "
                f"principal power at p = {sign * q} is out of range ({exc})"
            ) from exc
        except UnconvergedError as exc:
            raise BracketError(
                f"no stable power found while expanding the bracket: the verdict "
                f"at p = {sign * q} cannot be certified ({exc})"
            ) from exc
    raise BracketError("no stable power found while expanding the bracket")


def _compound2(K: np.ndarray) -> np.ndarray:
    """Second multiplicative compound: all 2x2 minors; its eigenvalues are the
    pairwise products (i < j) of the eigenvalues of K."""
    m = K.shape[0]
    pairs = list(itertools.combinations(range(m), 2))
    first = np.array([p[0] for p in pairs])
    second = np.array([p[1] for p in pairs])
    C = np.empty((len(pairs), len(pairs)))
    for row, (i, j) in enumerate(pairs):
        C[row] = K[i, first] * K[j, second] - K[i, second] * K[j, first]
    return C


def guardian_map(f: MonicPolynomial, p: float) -> float:
    """Boundary indicator r(1) r(-1) det(C2(K) - I) for the power at p.

    r is the principal branch of f^[p] itself when that polynomial is real,
    and its real form conj(r0) * r0 otherwise, so r always has real
    coefficients and carries the root moduli of f^[p].  K is the companion
    matrix of r and C2 its second multiplicative compound, hence the
    determinant is the product of (z_i z_j - 1) over root pairs i < j.
    Within the family of polynomials with all roots in the closed unit disc
    the value vanishes iff r has a root on the unit circle, and it changes
    sign at simple crossings: a conjugate pair contributes the single factor
    |z|^2 - 1, a real root the factor r(1) or r(-1).
    """
    g = principal_power(f, real(p, "powers must be real numbers, not"))
    r = g if g.is_real else real_form(g)
    if r.degree > _GUARDIAN_DEGREE_CAP:
        raise UnsupportedDegreeError(
            f"guardian determinant needs carrier degree <= {_GUARDIAN_DEGREE_CAP}, "
            f"got {r.degree}"
        )
    asc = np.array([c.real for c in r.coeffs])
    K = companion_matrix(asc)
    C = _compound2(K)
    det = float(np.linalg.det(C - np.eye(C.shape[0])))
    return float(r(1.0).real * r(-1.0).real * det)
