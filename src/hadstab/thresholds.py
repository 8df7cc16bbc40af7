"""Power thresholds for coefficient-wise (Hadamard) powers.

Four families of results live here:

* sufficient-stability thresholds from the weighted coefficient bound, both
  as a weight-grid search (``pstar_grid``) and as an exact 1-D equation solve
  (``pstar_exact``);
* instability bounds from the binomial necessary condition (``beta_star``)
  and the lowest-support-index sign test (``kstar_test``);
* the exact stability onset, located by bisecting the stability status of
  the principal power branch (``exact_onset`` / ``auto_onset``).  Each status
  comes from ``roots.schur_cohn_statuses``: the Schur-Cohn recursion on the
  coefficients decides it, and the root finder only where the recursion
  cannot;
* a determinant-based boundary indicator (``guardian_map`` /
  ``guardian_onset``) that vanishes exactly when a root reaches the unit
  circle and changes sign across simple crossings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    BracketError,
    InvalidInputError,
    MarginalZoneError,
    NotApplicableError,
    UnconvergedError,
    UnsupportedDegreeError,
)
from .poly import MonicPolynomial, principal_power, real_form
from .roots import Status, chunk_rows, companion_matrix, schur_cohn_statuses

_MAX_BISECT = 200
# Onset bisection decides the midpoints of up to this many levels as one batch.
_LOOKAHEAD = 3
_EXPANSION_CAP = 2.0 ** 16
# Maximum degree of the real carrier polynomial in guardian_map; the compound
# matrix has dimension C(degree, 2).
_GUARDIAN_DEGREE_CAP = 12
# Largest weight grid pstar_grid searches: |support| * grid_n per-index
# ratios, held as float64 and sorted (32 MiB at the cap).
MAX_GRID_RATIOS = 1 << 22


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
    GUARDIAN_MAP = "GuardianMap"


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


def _check_tol(tol: float) -> None:
    # Written so that NaN fails too: a NaN or infinite tolerance would end
    # every bisection before its first step.
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidInputError(f"tol must be positive and finite, got {tol}")


def _check_interval(search_interval: tuple[float, float]) -> tuple[float, float]:
    """The bounds of a search interval, which must be finite and nonempty."""
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidInputError(f"search interval [{lo}, {hi}] must be finite")
    if not lo < hi:
        raise InvalidInputError(f"empty search interval [{lo}, {hi}]")
    return lo, hi


def _mode_kind(mode: str) -> Kind:
    if mode == "max":
        return Kind.SUFFICIENT_MAX
    if mode == "min":
        return Kind.SUFFICIENT_MIN
    raise InvalidInputError(f"mode must be 'max' or 'min', not {mode!r}")


def _theorem1_moduli(f: MonicPolynomial, mode: str) -> list[float]:
    """Coefficient moduli on the support, validating the hypothesis that they
    all sit on the correct side of 1 for the requested mode."""
    _mode_kind(mode)
    moduli = []
    for k in f.support:
        m = abs(f.coeffs[k])
        if mode == "max" and m >= 1.0:
            raise NotApplicableError(
                f"|a_{k}| = {m} >= 1: no finite stabilizing power threshold", index=k
            )
        if mode == "min" and m <= 1.0:
            raise NotApplicableError(
                f"|a_{k}| = {m} <= 1: no finite stabilizing power threshold", index=k
            )
        moduli.append(m)
    return moduli


def _vacuous(mode: str, method: Method, grid_n: int | None = None) -> ThresholdResult:
    # Empty support: every power of s^n is s^n, stable for all p.
    value = -math.inf if mode == "max" else math.inf
    return ThresholdResult(_mode_kind(mode), value, method, None, grid_n)


def _lattice_optimum(moduli: list[float], mode: str, resolution: int) -> float:
    """Exact optimum of the weight-grid objective over lattice weights.

    The grid consists of weights c_k / R over integer compositions
    (c_1, ..., c_d) of R = resolution with every part >= 1.  Rather than
    enumerating the simplex (C(R-1, d-1) points), the optimum is found
    parametrically: the achieved value is always one of the d*R per-index
    ratios ln(c/R)/ln m_k, a target ratio V is achievable iff the minimal
    parts c_k(V) = ceil(R m_k^V) fit into the budget R, and achievability is
    monotone in V.  Binary search over the sorted candidate ratios therefore
    returns exactly the enumeration optimum (cross-checked against brute
    force in the test suite).
    """
    R = resolution
    d = len(moduli)
    if R < max(2, d):
        raise InvalidInputError(f"grid_n must be at least max(2, |support|) = {max(2, d)}")
    if d * R > MAX_GRID_RATIOS:
        raise InvalidInputError(
            f"grid_n = {R} over {d} support indices needs {d * R} ratios; "
            f"at most {MAX_GRID_RATIOS} are supported"
        )
    logs = np.log(np.array(moduli))
    ratios = np.log(np.arange(1, R + 1) / R)[None, :] / logs[:, None]
    candidates = np.unique(ratios)

    def parts_for(v: float) -> list[int]:
        out = []
        for m, L in zip(moduli, logs):
            c = max(1, math.ceil(R * (m ** v) - 1e-12))
            # Float guard: the defining inequality ln(c/R) >= v ln(m) must hold.
            while c < R and math.log(c / R) < v * L:
                c += 1
            out.append(c)
        return out

    def feasible(v: float) -> bool:
        return sum(parts_for(v)) <= R

    lo, hi = 0, len(candidates) - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            best = candidates[mid]
            if mode == "max":
                hi = mid - 1  # smaller max-ratio still achievable?
            else:
                lo = mid + 1  # larger min-ratio still achievable?
        elif mode == "max":
            lo = mid + 1
        else:
            hi = mid - 1
    if best is None:
        raise InvalidInputError("no lattice weight vector fits the resolution")
    parts = parts_for(best)
    parts[0] += R - sum(parts)  # distribute leftover: ratios only improve
    values = [math.log(c / R) / L for c, L in zip(parts, logs)]
    return max(values) if mode == "max" else min(values)


def pstar_grid(f: MonicPolynomial, mode: str, grid_n: int) -> ThresholdResult:
    """Grid approximation of the sufficient power threshold.

    mode 'max' (all support moduli < 1): minimizes, over lattice weights at
    the given resolution, the largest of ln(lambda_k)/ln|a_k|; every power
    beyond the returned value has all branches Schur stable.  mode 'min'
    (all moduli > 1) maximizes the smallest ratio and guards powers below the
    returned value.  The grid approaches the exact threshold from the stable
    side, so grid >= exact for 'max' and grid <= exact for 'min'.  A grid
    of more than MAX_GRID_RATIOS ratios (|support| * grid_n) raises
    InvalidInputError before any array is built.
    """
    kind = _mode_kind(mode)
    if not f.support:
        return _vacuous(mode, Method.GRID_SEARCH, grid_n)
    moduli = _theorem1_moduli(f, mode)
    value = _lattice_optimum(moduli, mode, grid_n)
    return ThresholdResult(kind, value, Method.GRID_SEARCH, None, grid_n)


def pstar_exact(f: MonicPolynomial, mode: str, tol: float = 1e-6) -> ThresholdResult:
    """Exact sufficient power threshold via the sum equation.

    Lemma: the optimum of the weight-grid objective over the full weight
    simplex equals the unique p0 with ``sum_k |a_k|^p0 = 1``.  For mode 'max'
    (all moduli < 1): weights lambda_k = |a_k|^p0 are admissible and give
    max-ratio p0, so the infimum is at most p0; conversely any weights whose
    max-ratio is some q < p0 must satisfy lambda_k >= |a_k|^q, and since the
    sum of |a_k|^p is strictly decreasing in p its value at q exceeds 1,
    contradicting the simplex budget.  Mode 'min' is the mirror image.
    The sum is strictly monotone under either hypothesis, so p0 is unique and
    bisection (then narrowed far below ``tol``) brackets it with a certified
    sign change.
    """
    kind = _mode_kind(mode)
    _check_tol(tol)
    if not f.support:
        return _vacuous(mode, Method.EQUATION_SOLVE)
    moduli = _theorem1_moduli(f, mode)

    def s(p: float) -> float:
        return math.fsum(m ** p for m in moduli) - 1.0

    # mode 'max': s is strictly decreasing; 'min': strictly increasing.
    lo, hi = -64.0, 64.0
    decreasing = mode == "max"

    def high_side(p: float) -> bool:  # True where s(p) > 0
        return s(p) > 0.0

    while high_side(lo) != decreasing and abs(lo) < _EXPANSION_CAP:
        lo *= 2.0
    while high_side(hi) == decreasing and abs(hi) < _EXPANSION_CAP:
        hi *= 2.0
    if high_side(lo) != decreasing or high_side(hi) == decreasing:
        raise NotApplicableError("sum equation has no sign change in the search range")

    target = min(tol, 1e-12)
    for _ in range(_MAX_BISECT):
        if hi - lo <= target:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # float resolution exhausted
            break
        if high_side(mid) == decreasing:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(kind, 0.5 * (lo + hi), Method.EQUATION_SOLVE, (lo, hi))


def beta_star(f: MonicPolynomial, mode: str) -> ThresholdResult:
    """Instability bound from the binomial necessary condition.

    mode 'max': over support indices with |a_k| > 1, the smallest
    ln C(n,k) / ln |a_k|; every power >= it makes some coefficient violate
    |a_k^p| < C(n,k), so no such power is Schur stable.  mode 'min' mirrors
    this over indices with 0 < |a_k| < 1 and guards powers <= the bound.
    """
    if mode == "max":
        kind = Kind.INSTABILITY_MAX
        indices = [k for k in f.support if abs(f.coeffs[k]) > 1.0]
        which = "|a_k| > 1"
    elif mode == "min":
        kind = Kind.INSTABILITY_MIN
        indices = [k for k in f.support if abs(f.coeffs[k]) < 1.0]
        which = "0 < |a_k| < 1"
    else:
        raise InvalidInputError(f"mode must be 'max' or 'min', not {mode!r}")
    if not indices:
        raise NotApplicableError(f"no support index with {which}")
    n = f.degree
    ratios = [math.log(math.comb(n, k)) / math.log(abs(f.coeffs[k])) for k in indices]
    value = min(ratios) if mode == "max" else max(ratios)
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


def _onset_statuses(direction: str) -> tuple[Status, Status]:
    """Expected verdicts at (lo, hi) for a valid onset bracket."""
    if direction == "increasing":
        return Status.UNSTABLE, Status.STABLE
    if direction == "decreasing":
        return Status.STABLE, Status.UNSTABLE
    raise InvalidInputError(
        f"direction must be 'increasing' or 'decreasing', not {direction!r}"
    )


def _status(g: MonicPolynomial) -> Status:
    return schur_cohn_statuses([g])[0]


def _principal_status(f: MonicPolynomial, p: float) -> Status:
    return _status(principal_power(f, p))


def _batch_statuses(f: MonicPolynomial, ps: list[float]) -> list[Status] | None:
    """Principal-branch statuses at the powers ``ps`` from one batch, or None
    when any of them fails.  The caller then solves the powers it needs one
    at a time, so only a failure it reaches raises, as it would have alone.
    """
    try:
        return schur_cohn_statuses([principal_power(f, p) for p in ps])
    except (InvalidInputError, UnconvergedError):  # overflow, or no certificate
        return None


def exact_onset(
    f: MonicPolynomial,
    direction: str,
    search_interval: tuple[float, float],
    tol: float = 1e-6,
) -> ThresholdResult:
    """Bisect the power at which the maximum root modulus crosses 1.

    The stability indicator is the status of the principal branch of f^[p],
    decided by the Schur-Cohn recursion with the root finder as its fallback
    (``roots.schur_cohn_statuses``).  The interval must be finite and must
    already bracket the change ('increasing' means Unstable at the left end
    and Stable at the right end); it is validated, not assumed.  A Marginal
    verdict at the midpoint triggers a close-out attempt at mid +- tol/2; if
    the band cannot be escaped the onset is uncertifiable at this tolerance
    and MarginalZoneError is raised.  Where the maximum modulus crosses 1
    more than once, the result is one of the crossings.
    """
    _check_tol(tol)
    lo, hi = _check_interval(search_interval)
    lo_status, hi_status = _onset_statuses(direction)
    actual_lo, actual_hi = _principal_status(f, lo), _principal_status(f, hi)
    if actual_lo is not lo_status or actual_hi is not hi_status:
        raise BracketError(
            f"interval [{lo}, {hi}] has verdicts ({actual_lo.value}, "
            f"{actual_hi.value}), need ({lo_status.value}, {hi_status.value})"
        )
    return _bisect_onset(f, lo, hi, lo_status, hi_status, tol)


def _midpoint_tree(lo: float, hi: float, tol: float, levels: int) -> dict[int, float]:
    """Midpoints of the next ``levels`` bisection levels below [lo, hi].

    Nodes are numbered in heap order: node i splits its bracket at its
    midpoint into node 2i+1 below and node 2i+2 above.  A node whose bracket
    is already within ``tol`` is left out with all below it, because
    bisection stops there.
    """
    brackets = {0: (lo, hi)}
    mids = {}
    for node in range(2**levels - 1):
        if node not in brackets or brackets[node][1] - brackets[node][0] <= tol:
            continue
        a, b = brackets[node]
        mids[node] = mid = 0.5 * (a + b)
        brackets[2 * node + 1], brackets[2 * node + 2] = (a, mid), (mid, b)
    return mids


def _bisect_onset(
    f: MonicPolynomial,
    lo: float,
    hi: float,
    lo_status: Status,
    hi_status: Status,
    tol: float,
) -> ThresholdResult:
    """``exact_onset`` on a bracket whose end verdicts are already known.

    Each round decides the statuses of the midpoints of the next levels,
    every one the walk could reach, as one ``schur_cohn_statuses`` batch:
    the recursion decides them, and the rows it cannot go to the root finder
    together.  The walk then makes the same lo/hi decisions as plain
    bisection, so brackets and values do not depend on the lookahead.  A
    round takes ``_LOOKAHEAD`` levels, or fewer where their 2^L - 1
    midpoints would not fit in one chunk of the root solver: split into
    chunks, a fallback batch would gain nothing, and the points the walk
    skips would be extra solves.  At one level a round is a step of plain
    bisection.  ``_MAX_BISECT`` caps the steps walked, not the points solved.
    A Marginal midpoint closes out one point at a time, and a round whose
    batch fails walks one point at a time, so a point the walk never reaches
    cannot raise.
    """
    # The largest L <= _LOOKAHEAD with 2^L - 1 <= chunk_rows.
    levels = min(_LOOKAHEAD, (chunk_rows(f.degree) + 1).bit_length() - 1)
    steps = 0
    while steps < _MAX_BISECT and hi - lo > tol:
        mids = _midpoint_tree(lo, hi, tol, min(levels, _MAX_BISECT - steps))
        solved = _batch_statuses(f, list(mids.values()))
        statuses = None if solved is None else dict(zip(mids, solved))
        node = 0
        while node in mids:
            mid = mids[node]
            st = _principal_status(f, mid) if statuses is None else statuses[node]
            steps += 1
            if st is lo_status:
                lo, node = mid, 2 * node + 2
            elif st is hi_status:
                hi, node = mid, 2 * node + 1
            else:
                lo2 = max(lo, mid - 0.5 * tol)
                hi2 = min(hi, mid + 0.5 * tol)
                if (
                    lo2 < hi2
                    and _principal_status(f, lo2) is lo_status
                    and _principal_status(f, hi2) is hi_status
                ):
                    return _onset_result(lo2, hi2)
                raise MarginalZoneError(
                    f"verdict stays within the boundary band around p = {mid}"
                )
    return _onset_result(lo, hi)


def _onset_result(lo: float, hi: float) -> ThresholdResult:
    value = 0.5 * (lo + hi)
    return ThresholdResult(Kind.EXACT_ONSET, value, Method.BISECTION, (lo, hi))


def auto_onset(f: MonicPolynomial, mode: str, tol: float = 1e-6) -> ThresholdResult:
    """Onset with a self-constructed bracket.

    mode 'max' searches increasing p: the stable end starts at 64 and doubles
    until the verdict there is Stable, the unstable end is the first strictly
    Unstable point on a ladder rising from 0 (the zeroth power itself can sit
    exactly on the unit circle).  mode 'min' mirrors to negative powers.  The
    bracket is then bisected as by ``exact_onset``, without solving its ends
    again.  Raises BracketError when either end cannot be found, including
    when a stable-end candidate's principal power overflows or its verdict
    cannot be certified.
    """
    _mode_kind(mode)
    _check_tol(tol)
    sign = 1.0 if mode == "max" else -1.0

    stable_end = sign * 64.0
    while True:
        try:
            power = principal_power(f, stable_end)
        except InvalidInputError as exc:  # a coefficient overflows
            raise BracketError(
                f"no stable power found while expanding the bracket: the "
                f"principal power at p = {stable_end} is out of range ({exc})"
            ) from exc
        try:
            if _status(power) is Status.STABLE:
                break
        except UnconvergedError as exc:
            raise BracketError(
                f"no stable power found while expanding the bracket: the verdict "
                f"at p = {stable_end} cannot be certified ({exc})"
            ) from exc
        stable_end *= 2.0
        if abs(stable_end) > _EXPANSION_CAP:
            raise BracketError("no stable power found while expanding the bracket")

    unstable_end = None
    ladder = [0.0, 1e-3, 1e-2, 0.1, 0.25, 0.5]
    step = 1.0
    while step < abs(stable_end):
        ladder.append(step)
        step *= 2.0
    for candidate in ladder:
        p = sign * candidate
        if _principal_status(f, p) is Status.UNSTABLE:
            unstable_end = p
            break
    if unstable_end is None:
        raise BracketError(
            "no strictly unstable power found between 0 and the stable region"
        )
    if mode == "max":
        return _bisect_onset(
            f, unstable_end, stable_end, Status.UNSTABLE, Status.STABLE, tol
        )
    return _bisect_onset(
        f, stable_end, unstable_end, Status.STABLE, Status.UNSTABLE, tol
    )


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
    g = principal_power(f, float(p))
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


def guardian_onset(
    f: MonicPolynomial,
    search_interval: tuple[float, float],
    tol: float = 1e-6,
) -> ThresholdResult:
    """Locate a stability onset as a sign change of the guardian map."""
    _check_tol(tol)
    lo, hi = _check_interval(search_interval)
    flo, fhi = guardian_map(f, lo), guardian_map(f, hi)
    if flo == 0.0 or fhi == 0.0 or (flo > 0) == (fhi > 0):
        raise BracketError(
            f"guardian map does not change sign over [{lo}, {hi}]"
        )
    for _ in range(_MAX_BISECT):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fmid = guardian_map(f, mid)
        if fmid == 0.0:
            lo = hi = mid
            break
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return ThresholdResult(
        Kind.EXACT_ONSET, 0.5 * (lo + hi), Method.GUARDIAN_MAP, (lo, hi)
    )
