"""Root finding and exact Schur stability decisions.

Each polynomial is solved by one root candidate, and by the other only where
the first fails to certify.  Up to degree 15, the single-row crossover (see
``_EIGVALS_MAX_DEGREE``), the first is companion-matrix eigenvalues refined
by a few Newton steps (Edelman & Murakami 1995); above it, Ehrlich-Aberth
simultaneous iteration, started from the Newton polygon of the coefficient
moduli: each edge of the upper convex hull of (k, log|a_k|) puts as many
points as it is long on a circle of its own radius, near the root moduli
(Bini 1996), and an edge k1 -> k2 of two or more points puts them at the
angles of the roots of its two-term truncation a_k2 z^k2 + a_k1 z^k1, which
about halves the sweeps that uniform angles took.
Roots certify when the candidate settled and every root's scaled residual,
the backward error |p(z)| / (1 + sum_k |a_k| |z|^k), is within one flat
tolerance, ``_RESIDUAL_TOL``; an iteration that did not settle never
certifies.  A root outside the unit circle is evaluated through w = 1 / z
(``_scaled_residuals``), so no residual of a finite root overflows.
Residuals are scaled backward errors, so clusters of near-multiple roots
degrade per-root accuracy without breaking the certificate.

Aberth sweeps only the roots still moving (Bini & Fiorentino, Numer.
Algorithms 23, 2000), and every stopping test reads a root against its own
modulus, not the row's largest, so the small roots of a badly scaled row are
not frozen at the scale of its large ones.  A root is frozen for good once
its step is within 1e-14 (1 + |z_i|), and a row settles when no root is left
moving.  A row whose Newton polygon is one edge starts at the n-th roots of
one number, whose pairwise sums sum_j 1 / (z_i - z_j) are (n - 1) / (2 z_i)
exactly, so its first sweep takes them in closed form.  A row also settles
on its Newton steps w_i = p / p', without its pairwise sums, once they
contract quadratically: with S_i the modulus of root i's pairwise sum at
the row's last full sweep, z_i - w_i lies about |w_i|^2 S_i from the root,
so the row settles there when each is at most 1e-16 (1 + |z_i|), every
|w_i| S_i is at most 1e-3 (the step is in Newton's quadratic range) and
max|w| has shrunk 1000-fold since the previous sweep (steps that are noise
at rounding level do not shrink so).  From sweep ``_ROUNDING_SWEEP`` on, a
row with a moving root whose |p(z_i)| is within 4 (n + 1) eps
sum_k |a_k| |z_i|^k, the rounding level of p, stops unsettled: its steps
are noise from there on, and a point where p is flat at rounding level can
lie far from the root (a degree-160 row read a root modulus of 1.047 for an
exact 0.99925), so the row goes to the fallback candidate at once instead
of after ``_MAX_SWEEPS`` sweeps.  Aberth and the
residuals evaluate from a table of the powers z^0 .. z^n of their points,
built by doubling in about log2 n array multiplies (``_powers``).  Each
Aberth sweep of a row builds the table of its moving roots, takes p and p'
from it with one matrix product, the stacked coefficients of p and p' times
the (n + 1, m) table (``_values_and_slopes``), and each moving root's
pairwise sum sum_j 1 / (z_i - z_j) over all n roots of its row as
reciprocals taken in place.  The certificate instead sums its table
elementwise in ascending order (``_evaluate``) for |p| and the residual
scale 1 + sum_k |a_k| |z|^k.  Those residuals are reported and decide
certification, so their bits are kept independent of how a BLAS build blocks
a product; and at the small degrees where most rows are certified, a product
per row is no faster (about 10% slower for 100 rows at n = 5).  Aberth's
table and pairwise block and the residuals' table and products are written
into one scratch workspace per thread (``_scratch``), grown to the largest
request and kept across calls, so a solve reuses mapped pages instead of
faulting in fresh ones; rows above degree 256 take arrays of their own.
The Newton steps after the eigenvalues keep Horner's rule, p and p' as the
two rows of one accumulator (``_horner_pair``): at a multiple-root cluster
the table's derivative can fall to rounding level and throw a root out of
the cluster.

Polynomials of one degree are solved as a batch of coefficient rows
(``find_root_rows``): Aberth sweeps each row from its start to its end
before the next (``_sweep_row``), the eigenvalues come from one stacked
``(k, n, n)`` solve, and the residuals of all rows are computed together.
Every step is elementwise per row, a matrix product of the same shape for
every row, or a row's own sweep, so a row's result does not depend on the
batch it was solved in.  Rows are processed in chunks sized from the
degree, which bounds the memory of the stacked arrays.
``find_root_rows`` is the one place that certifies rows, raises for the
first that fails, and takes each row's worst root modulus (by ``np.hypot``,
which equals Python's ``abs`` bit for bit); given a limit, it stops after
the first row above it.
``find_roots`` packs one polynomial into a row for it and wraps its sorted
row in a root set; batch callers, ``report.sweep`` among them, pass their
rows straight to it.

Branch sets take the same path, with the rows that ``BranchSet.rows``
gathers: ``branch_root_sets`` solves every member, and ``branch_set_stable``
the rotation representatives that can still change its verdict.  Every
verdict, of one polynomial or of a set, is ``StabilityVerdict.of`` the worst
root modulus: some member is Unstable exactly when the worst modulus is, and
every member Stable exactly when it is.

The Schur-Cohn recursion (``_schur_cohn``) decides from the coefficients
alone, on all rows of a batch at once and with a running bound on its
rounding error, whether each row's roots lie inside a circle.  One function
sets its batch up, ``_decide_rows``, at 1 + BOUNDARY_BAND and at a radius
its caller names, and it alone reads the degree cap, above which it decides
nothing.  Callers that read only a status, the onset searches, use
``row_statuses``, which names 1 - BOUNDARY_BAND, the band's other edge.
``branch_set_stable`` root-finds a short first chunk of members outright, and
that gives w, the worst modulus so far.  Every later chunk names w: the
outer edge stops it at the first member that is certainly Unstable, and w
skips the members that certainly cannot raise it.  Both hand the rows the
recursion cannot decide to ``find_root_rows`` at one place (``_solve``), so
the roots stay the one root-finding path and the only source of moduli.
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass
from enum import Enum
from itertools import islice

import numpy as np

from .errors import InvalidInputError, UnconvergedError, UnsupportedDegreeError
from .poly import BranchSet, MonicPolynomial

# Verdicts within this band of the unit circle are Marginal: onset bisection
# must be able to see the crossing instead of a premature classification.
BOUNDARY_BAND = 1e-9

# Largest degree the root finder accepts.  Each candidate holds n x n complex
# arrays per row (16 n^2 bytes each), and a power table holds (n + 1) x n
# complex values per row, about 17 MB at n = 1024; the eigenvalue solve costs
# O(n^3).
MAX_ROOT_DEGREE = 1024
# Eigenvalues first up to this degree, Aberth first above: the single-row
# crossover.  Eigenvalues-first over Aberth-first time (per-row minima of 7
# runs of ``find_roots`` on 24 of the benchmark's known-roots rows per degree,
# ``bench/inputs.scan_input``; quartiles over the rows, medians in brackets;
# 2 shared vCPUs) is 0.82-0.93 (0.91) at n = 13, 0.99-1.02 (1.01) at 15,
# 1.02-1.09 (1.06) at 16, 1.17-1.28 (1.24) at 18, 1.28-1.41 (1.34) at 20,
# 1.37-1.49 (1.42) at 21 and 1.46-1.65 (1.56) at 22.  Rows that Aberth stops
# at rounding level (repeated roots) take about three times as long above the
# cap: 17 sweeps, then the eigenvalues (2.0 ms against 0.6 ms at n = 16).
_EIGVALS_MAX_DEGREE = 15
# Largest degree whose statuses the Schur-Cohn recursion decides; rows above
# it go to the root finder.  Its error bound compounds with every step: of
# 200 rows with roots uniform in discs of radius 0.5 to 1.5, it leaves 17
# undecided at degree 16, 143 at 32 and 194 at 48 (measured in
# tests/test_roots.py).
_SCHUR_COHN_MAX_DEGREE = 32

_MAX_SWEEPS = 200
# Aberth's rounding-level stop runs from this sweep on, counting from 0.
# Rows that settle do so well before it (none of the 866 Aberth calls over
# the verdict-scan benchmark's seeds 3 and 5, passes 0-13, reaches it, and no
# row there takes more than 10 sweeps), and the test costs a second product
# over the power table.
_ROUNDING_SWEEP = 16
# A root certifies when its scaled residual (``_scaled_residuals``), a
# backward error relative to the coefficients, is at most this.
_RESIDUAL_TOL = 1e-10
# Radius of the circle for roots at the origin, relative to the smallest
# Newton-polygon circle.
_ZERO_CIRCLE = 0.5
# A chunk of rows holds at most this many n x n matrix entries (128 KiB of
# complex values per stacked array), and always at least one row.
_CHUNK_ELEMENTS = 1 << 13
# The first chunk of branch representatives, root-found with no recursion
# batch to give w (see branch_set_stable), holds at most this many n x n
# matrix entries: 10 rows at degree 5, 4 at 8, 1 from 16.
_FIRST_CHUNK_ELEMENTS = 256
# Largest scratch workspace a thread keeps, in complex values: what a
# degree-256 row needs, 2 (n + 1) n for the residuals (Aberth needs
# (2 n + 1) n), 2.1 MB.  Without it each call above degree ~110 faulted in
# fresh pages for its O(n^2) arrays, about 500 minor faults per verdict-scan
# item above degree 125; larger rows are rare, and a workspace kept at their
# size would hold up to 34 MB (degree 1024) per thread for good.
_WORKSPACE_CAP = 2 * 257 * 256
_workspace = threading.local()


class Status(str, Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    MARGINAL = "Marginal"


@dataclass(frozen=True)
class RootSet:
    """All n roots in nondecreasing modulus order with their residuals.

    ``residuals[i]`` is the scaled backward error |f(z_i)| / (1 + sum_k
    |a_k| |z_i|^k), taken through 1 / z_i outside the unit circle (see
    ``_scaled_residuals``); ``converged[i]`` says whether it is within
    ``_RESIDUAL_TOL``, the one tolerance of every polynomial.  A set that
    certifies has every root converged; one with a root that is not is only
    ever an UnconvergedError's partial result.  ``max_modulus`` is the largest
    root modulus as the row core took it (``find_root_rows``): bit for bit
    ``max(abs(z) for z in roots)`` where no root is NaN, and NaN where one is.
    """

    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    converged: tuple[bool, ...]
    max_modulus: float

    def to_json(self) -> dict:
        return {
            "roots": [[z.real, z.imag] for z in self.roots],
            "max_modulus": self.max_modulus,
        }


def classify(max_modulus: float) -> Status:
    if max_modulus < 1.0 - BOUNDARY_BAND:
        return Status.STABLE
    if max_modulus > 1.0 + BOUNDARY_BAND:
        return Status.UNSTABLE
    return Status.MARGINAL


@dataclass(frozen=True)
class StabilityVerdict:
    status: Status
    max_modulus: float

    @classmethod
    def of(cls, max_modulus: float) -> "StabilityVerdict":
        """The verdict of a largest root modulus, or of the worst over a set."""
        return cls(classify(max_modulus), max_modulus)

    @property
    def margin(self) -> float:
        return self.max_modulus - 1.0

    def to_json(self) -> dict:
        return {
            "status": self.status.value,
            "stable": self.status is Status.STABLE,
            "max_modulus": self.max_modulus,
            "margin": self.margin,
        }


def companion_matrix(coeffs: np.ndarray) -> np.ndarray:
    """Companion matrices of monic polynomials, stacked over leading axes.

    ``coeffs[..., k]`` is a_k for k < n (the leading 1 is implicit); the
    result has shape ``coeffs.shape + (n,)`` and the dtype of ``coeffs``.
    """
    n = coeffs.shape[-1]
    K = np.zeros(coeffs.shape + (n,), dtype=coeffs.dtype)
    K[..., 1:, :-1] = np.eye(n - 1)
    K[..., :, -1] = -coeffs
    return K


def _horner_pair(desc: np.ndarray, z: np.ndarray) -> np.ndarray:
    """p and p' of row i at the points z[i] by Horner's rule, as a (2, k, n)
    array.

    ``desc`` (n + 1, 2, k, n) holds the descending coefficients of p and of
    p' per row, p' padded with a leading zero, each repeated across the
    row's points.  Every step is then one multiply and one add on arrays of
    one shape, which numpy runs without broadcasting; 0 z + n is exactly n
    for finite z.
    """
    zz = np.empty(desc.shape[1:], dtype=z.dtype)
    zz[:] = z
    acc = desc[0].copy()
    for c in desc[1:]:
        acc *= zz
        acc += c
    return acc


def _scratch(size: int) -> np.ndarray:
    """A flat complex buffer of at least ``size`` values, its contents
    undefined: this thread's workspace, first grown to ``size`` if it is
    smaller, or above ``_WORKSPACE_CAP`` an array of the caller's own.  A
    caller writes its intermediates into it, returns none of them, and
    calls nothing that takes the workspace while it holds them."""
    if size > _WORKSPACE_CAP:
        return np.empty(size, dtype=complex)
    buf = getattr(_workspace, "buf", None)
    if buf is None or buf.size < size:
        buf = _workspace.buf = np.empty(size, dtype=complex)
    return buf


def _powers(z: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """z^0 .. z^n of every point, as an ``(n + 1,) + z.shape`` table.

    Built by doubling: with z^0 .. z^m in the table, z^(m+1) .. z^(2m) are
    z^1 .. z^m times z^m, one array multiply, so the table takes about
    log2 n of them.  Given ``out``, a flat buffer of at least (n + 1)
    z.size values, the table is the start of it.
    """
    shape = (n + 1,) + z.shape
    if out is None:
        V = np.empty(shape, dtype=z.dtype)
    else:
        V = out[: math.prod(shape)].reshape(shape)
    V[0], V[1] = 1.0, z
    m = 1
    while m < n:
        top = min(2 * m, n)
        np.multiply(V[1 : top - m + 1], V[m], out=V[m + 1 : top + 1])
        m = top
    return V


def _evaluate(V: np.ndarray, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row i of the (k, d) ascending coefficients at the points of row i of
    the power table ``V`` (see ``_powers``).

    One product, written into ``out`` if given (an array of the product's
    shape and dtype, which may be V itself), and one sum over the power
    axis, which adds the terms of each point in ascending order whatever the
    batch, so a row's values do not depend on the rows solved with it.
    """
    return np.multiply(V[: c.shape[1]], c.T[:, :, None], out=out).sum(axis=0)


def _newton_polygon(logs: list[float]) -> list[tuple[int, int, float]]:
    """Starting circles (first index, point count, radius) for one row of
    log|a_0| .. log|a_n|, with -inf for a zero coefficient.

    Each edge k1 -> k2 of the upper convex hull of (k, log|a_k|) holds
    k2 - k1 roots near the radius (|a_k1| / |a_k2|)^(1/(k2 - k1)) (Bini,
    Numer. Algorithms 13, 1996).  Zero low coefficients a_0 .. a_{j-1} put j
    roots at the origin; their points go on a circle inside the first one,
    because coincident points would divide by zero.
    """
    hull: list[tuple[int, float]] = []
    for k, y in enumerate(logs):
        if y == -math.inf:
            continue
        # Drop the last vertex while it lies on or below the chord to (k, y);
        # collinear points go too, so neighbouring circles never coincide.
        while len(hull) > 1:
            (k0, y0), (k1, y1) = hull[-2], hull[-1]
            if (y1 - y0) * (k - k0) > (y - y0) * (k1 - k0):
                break
            hull.pop()
        hull.append((k, y))
    circles = [
        (k1, k2 - k1, math.exp((y1 - y2) / (k2 - k1)))
        for (k1, y1), (k2, y2) in zip(hull, hull[1:])
    ]
    if hull[0][0] > 0:
        circles.insert(0, (0, hull[0][0], _ZERO_CIRCLE * circles[0][2]))
    return circles


def _binomial_phase(low: complex, high: complex) -> float:
    """The argument theta of -a_k1 / a_k2, as arg a_k1 - arg a_k2 + pi: the
    roots of a_k2 z^k2 + a_k1 z^k1 off the origin are at the angles
    (theta + 2 pi j) / (k2 - k1).  The difference takes no quotient, so it
    cannot overflow; ``math.atan2``, unlike ``cmath.phase``, returns an
    angle that underflows instead of raising."""
    return math.atan2(low.imag, low.real) - math.atan2(high.imag, high.real) + math.pi


def _start(asc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Aberth starting points for every row, on its Newton-polygon circles,
    and a (k,) mask of the rows whose polygon is one edge.

    An edge k1 -> k2 of two or more points puts them at the roots of its
    two-term truncation a_k2 z^k2 + a_k1 z^k1 off the origin, on the edge's
    circle.  A one-point edge and the circle of roots at the origin space
    their points at uniform angles from an offset of their own, so that no
    two circles line up.  Every point is then turned by 0.5 / n, so the
    points of a one-edge row are the n-th roots of one number.
    """
    k, n = asc.shape[0], asc.shape[1] - 1
    with np.errstate(divide="ignore"):  # log 0 = -inf marks a zero coefficient
        logs = np.log(np.abs(asc)).tolist()
    polygons = [_newton_polygon(y) for y in logs]
    # Each circle with the phase of its binomial, NaN where its points are
    # spaced uniformly (a one-point edge, or the origin's circle: a_0 = 0).
    circles = [
        (k1, d, radius, _binomial_phase(row[k1], row[k1 + d]) if d > 1 and row[k1] else math.nan)
        for polygon, row in zip(polygons, asc.tolist())
        for k1, d, radius in polygon
    ]
    # One row per point: its circle's first index, point count, radius, phase.
    first, size, radius, theta = np.repeat(circles, [c[1] for c in circles], axis=0).T
    j = np.arange(k * n) % n - first  # position on the point's circle
    # The 0.375 offset breaks conjugate symmetry so real-coefficient inputs do
    # not lock the iteration onto the real axis.
    uniform = 2.0 * np.pi * ((j + 0.375) / size + first / n) + 0.5 / n
    binomial = (theta + 2.0 * np.pi * j) / size + 0.5 / n
    angles = np.where(np.isnan(theta), uniform, binomial)
    return (radius * np.exp(1j * angles)).reshape(k, n), np.array([len(p) == 1 for p in polygons])


def _values_and_slopes(pd: np.ndarray, V: np.ndarray) -> np.ndarray:
    """p and p' at the points of a power table (see ``_powers``).

    ``pd`` holds the ascending coefficients of p and of p' (padded with a
    zero): (2, n + 1) for one row, whose (n + 1, m) table ``V`` gives a
    (2, m) array, or (k, 2, n + 1) for k rows, whose (n + 1, k, n) table
    gives a (k, 2, n) array.  One matrix product per row, a ``zgemm`` of the
    same shape for every row, so a row's bits do not depend on its batch;
    the view ``V.swapaxes(0, -2)`` gives each row's table without a copy.
    """
    return np.matmul(pd, V.swapaxes(0, -2))


def _sweep_row(pd: np.ndarray, rounding: np.ndarray, z: np.ndarray, one: bool) -> bool:
    """``_aberth`` on one row, from its start points ``z``, updated in place,
    to its end; ``pd`` and ``rounding`` are the row's slices of its arrays,
    and ``one`` its one-edge flag.  Returns whether the row settled."""
    n = z.size
    ws = _scratch((2 * n + 1) * n)
    table, pairs = ws[: (n + 1) * n], ws[(n + 1) * n :]
    act = index = np.arange(n)  # the roots still moving
    full = None  # after a full sweep: max|w| and each active root's S_i
    for sweep in range(_MAX_SWEEPS):
        za, m = z[act], act.size
        V = _powers(za, n, table)
        pv, dpv = _values_and_slopes(pd, V)
        if np.count_nonzero(dpv) < m:
            z[act] = za + np.where(dpv == 0, 1e-8 * (1 + np.abs(za)), 0.0)
            full = None
            continue
        w = pv / dpv
        size = np.abs(w)
        step = size.max()
        if full is not None and step <= 1e-3 * full[0]:
            reach = size * full[1]  # |w_i| S_i
            if reach.max() <= 1e-3 and (reach * size <= 1e-16 * (1.0 + np.abs(za))).all():
                z[act] = za - w
                return True
        if sweep == 0 and one:  # the n-th roots of one number
            denom = (0.5 * (n - 1)) / za
        else:
            diff = np.subtract(za[:, None], z, out=pairs[: m * n].reshape(m, n))
            diff[index[:m], act] = np.inf
            denom = np.reciprocal(diff, out=diff).sum(axis=1)
        sums = np.abs(denom)
        np.multiply(w, denom, out=denom)
        np.subtract(1.0, denom, out=denom)
        denom[denom == 0] = 1e-30
        delta = w / denom
        za -= delta
        z[act] = za
        modulus = np.abs(za)
        if not math.isfinite(modulus.max()):  # a NaN or inf iterate never settles
            return False
        moving = np.abs(delta) > 1e-14 * (1.0 + modulus)
        if not np.count_nonzero(moving):
            return True
        if sweep >= _ROUNDING_SWEEP and (
            np.abs(pv[moving]) <= rounding @ np.abs(V[:, moving])
        ).any():
            return False  # at rounding level
        act, full = act[moving], (step, sums[moving])
    return False


def _aberth(asc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ehrlich-Aberth sweeps on every row of ascending coefficients, each
    sweeping only its active roots (Bini & Fiorentino, Numer. Algorithms 23,
    2000).

    The start points (``_start``), the coefficients of p and p' and the
    rounding bound are built for the whole batch; then each row is swept to
    its end before the next (``_sweep_row``), so a row's bits do not depend
    on the rows solved with it.  A sweep of a row takes p and p' at its
    active roots from one power table and one matrix product
    (``_values_and_slopes``), and each active root's pairwise sum
    sum_j 1 / (z_i - z_j) over all n roots of its row as reciprocals taken
    in place; on sweep 0 of a row whose Newton polygon is one edge, as
    (n - 1) / (2 z_i) instead.  Each test reads a root against its own
    modulus.  A root leaves the active set for good once its step is within
    1e-14 (1 + |z_i|).  On a sweep after a full one, a row settles on its
    Newton steps w_i = p / p', applying z_i - w_i without its pairwise sums,
    when max|w| has shrunk at least 1000-fold since that sweep and, with S_i
    the modulus of root i's pairwise sum there, every |w_i| S_i is at most
    1e-3 and every |w_i|^2 S_i, the predicted distance of z_i - w_i from the
    root, is at most 1e-16 (1 + |z_i|).  The contraction is tested
    first, so a sweep that cannot settle pays one comparison for it.  From
    sweep ``_ROUNDING_SWEEP`` on (counting from 0), a row stops unsettled
    once some root still active has |p(z_i)| within the rounding level of p,
    4 (n + 1) eps sum_k |a_k| |z_i|^k.  A row stops unsettled once an
    updated root is not finite: from a NaN or infinity every later step is
    NaN.  A row with a vanishing derivative at an active root nudges those
    roots and skips the sweep.  The power table and the pairwise block of a
    sweep are written into the thread's workspace (``_scratch``).  Returns
    the (k, n) iterates, the last one for a row that did not settle, and a
    (k,) mask of the rows that settled: those left with no active root.
    """
    k, n = asc.shape[0], asc.shape[1] - 1
    if n == 1:
        return -asc[:, :1], np.ones(k, dtype=bool)
    pd = np.zeros((k, 2, n + 1), dtype=complex)
    pd[:, 0] = asc
    pd[:, 1, :-1] = asc[:, 1:] * np.arange(1, n + 1)
    # Coefficients of the rounding bound 4 (n + 1) eps sum_k |a_k| |z|^k.
    rounding = 4 * (n + 1) * np.finfo(float).eps * np.abs(asc)
    z, one = _start(asc)
    return z, np.array([_sweep_row(*row) for row in zip(pd, rounding, z, one)], dtype=bool)


def _eigenvalues(asc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Companion eigenvalues of every row refined by three Newton steps, and
    the rows whose eigenvalue iteration converged.  If LAPACK fails on the
    stack, its matrices are solved one at a time (the same bits), and those
    that fail again are left unsettled with NaN roots."""
    K = companion_matrix(asc[:, :-1])
    try:
        z, settled = np.linalg.eigvals(K), np.ones(len(K), dtype=bool)
    except np.linalg.LinAlgError:
        z = np.full(K.shape[:2], np.nan, dtype=complex)
        settled = np.zeros(len(K), dtype=bool)
        for i, k in enumerate(K):
            with contextlib.suppress(np.linalg.LinAlgError):
                z[i], settled[i] = np.linalg.eigvals(k), True
    # Horner's rule, not the power table: at the 4-fold cluster
    # (s - (1 - 2^-8))^4 the table's p' falls to 3e-14 and a step throws a
    # root 1.8e-2 away, where Horner's keeps it within 2.4e-4.
    n = z.shape[1]
    desc = np.zeros((n + 1, 2) + z.shape, dtype=complex)
    desc[:, 0] = asc.T[::-1, :, None]
    desc[1:, 1] = (asc.T[:0:-1] * np.arange(n, 0, -1)[:, None])[:, :, None]
    # A zero derivative gives a step that is not finite, which the test
    # rejects, as it rejects steps that blow up (multiple-root clusters).
    # Three steps keep every dyadic cluster (s - (1 +- 2^-e))^k, e = 2..9, at
    # the status of its exact roots but (s - (1 - 2^-7))^7: with one step
    # (s - (1 - 2^-6))^8 read Unstable (1.00209583280677), and with none
    # (s - (1 - 2^-8))^6 did too (1.0004001367752249).
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            pv, dpv = _horner_pair(desc, z)
            step = pv / dpv
            z = z - np.where(np.abs(step) < 0.5 * (1 + np.abs(z)), step, 0.0)
    return z, settled


def _scaled_residuals(asc: np.ndarray, moduli: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per-root scaled backward errors |p(z)| / (1 + sum_k |a_k| |z|^k);
    ``moduli`` holds |a_0| .. |a_n| per row.

    A root outside the unit circle is evaluated through w = 1 / z: its
    column of the power table holds w^n .. w^0, the table reversed, so the
    same two sums give |sum_k a_k w^(n-k)| / (|w|^n + sum_k |a_k| |w|^(n-k)),
    the quotient above times |w|^n / |w|^n.  No power then exceeds 1 in
    modulus, so a finite root whose |z|^n is beyond the float range still
    gets a finite residual.  The power table and the products go into the
    thread's workspace (``_scratch``): the reversed columns, then the
    coefficient product, then the modulus table, whose product with the
    moduli is taken in place.
    """
    k, n = z.shape
    size = (n + 1) * k * n
    ws = _scratch(2 * size)
    flip = np.flatnonzero(np.abs(z) > 1.0)  # the roots taken through 1 / z
    if flip.size:
        z = z.copy()
        points = z.reshape(-1)
        points[flip] = 1.0 / points[flip]
    V, rest = _powers(z, n, ws), ws[size : 2 * size]
    lead = 1.0
    if flip.size:
        table = V.reshape(n + 1, -1)
        taken = rest[: (n + 1) * flip.size].reshape(n + 1, -1)
        table[:, flip] = np.take(table, flip, axis=1, out=taken, mode="clip")[::-1]
        lead = np.abs(V[0])  # 1, or |w|^n for a root taken through w = 1 / z
    p = np.abs(_evaluate(V, asc, rest.reshape(V.shape)))
    mod = np.abs(V, out=rest.view(float)[:size].reshape(V.shape))
    return p / (lead + _evaluate(mod, moduli, mod))


def _candidate(solve, asc, moduli):
    """Roots and residuals from ``solve``, its settled rows, and the rows it
    certifies: settled, with every residual within ``_RESIDUAL_TOL``."""
    z, settled = solve(asc)
    res = _scaled_residuals(asc, moduli, z)
    return z, res, settled, settled & (res <= _RESIDUAL_TOL).all(axis=1)


def _solve_rows(asc: np.ndarray, moduli: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unsorted roots, their scaled residuals and a certified mask for every
    row of ascending monic coefficients ``asc`` (k, n + 1), with ``moduli``
    their moduli.

    A row with a_0 .. a_{n-1} all zero is s^n: n roots at the origin, no
    iteration.  The other rows go to the first candidate for the degree, and
    those it does not certify to the fallback.  Iterates far from the roots
    can overflow; such rows fail to certify on their own, so callers run it
    under ``np.errstate(all="ignore")``: numpy's warnings would only be noise
    on stderr.
    """
    k, n = asc.shape[0], asc.shape[1] - 1
    live = asc[:, :-1].any(axis=1)
    if not live.all():
        z, res = np.zeros((k, n), dtype=complex), np.zeros((k, n))
        certified = np.ones(k, dtype=bool)
        if live.any():
            z[live], res[live], certified[live] = _solve_rows(asc[live], moduli[live])
        return z, res, certified
    first, fallback = (
        (_eigenvalues, _aberth) if n <= _EIGVALS_MAX_DEGREE else (_aberth, _eigenvalues)
    )
    z, res, _, certified = _candidate(first, asc, moduli)
    retry = np.flatnonzero(~certified)
    if retry.size:
        z2, res2, settled, ok = _candidate(fallback, asc[retry], moduli[retry])
        certified[retry] = ok
        # An iterate that did not settle is never returned, even as a partial.
        z[retry[settled]], res[retry[settled]] = z2[settled], res2[settled]
    return z, res, certified


def _root_sets(z: np.ndarray, res: np.ndarray, worst: np.ndarray) -> list[RootSet]:
    """Each row of sorted roots as a RootSet, from ``find_root_rows``' arrays."""
    rows = zip(z.tolist(), res.tolist(), (res <= _RESIDUAL_TOL).tolist(), worst.tolist())
    return [RootSet(tuple(zs), tuple(errs), tuple(flags), m) for zs, errs, flags, m in rows]


@np.errstate(all="ignore")  # see _solve_rows
def _solve_chunk(
    asc: np.ndarray, offset: int, limit: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``find_root_rows`` of one chunk; ``offset`` is the row of ``asc[0]``
    in the whole batch.  Returns fewer rows than ``asc`` holds when one
    exceeds ``limit``: the last row returned is then the first such row."""
    # np.hypot, not np.abs: it equals Python's abs (libm hypot) bit for bit,
    # and so the residual scale and each worst modulus (RootSet.max_modulus).
    moduli = np.hypot(asc.real, asc.imag)
    z, res, certified = _solve_rows(asc, moduli)
    worst = np.hypot(z.real, z.imag).max(axis=1)
    stop = ~certified | (worst > limit)
    k = int(np.argmax(stop)) + 1 if stop.any() else len(asc)
    # Each row by root modulus, as find_roots sorts it.
    at = np.arange(k)[:, None], np.argsort(np.abs(z[:k]), axis=1, kind="stable")
    z, res = z[at], res[at]
    if not certified[k - 1]:
        raise UnconvergedError(
            f"root iteration failed to certify (max residual {res[-1].max():.3e})",
            partial=_root_sets(z[-1:], res[-1:], worst[k - 1 : k])[0],
            row=offset + k - 1,
        )
    return z, res, worst[:k]


def chunk_rows(degree: int) -> int:
    """Rows of this degree solved together as one stacked chunk."""
    return max(1, _CHUNK_ELEMENTS // (degree * degree))


def check_degree(n: int) -> None:
    """Raise UnsupportedDegreeError for a degree above MAX_ROOT_DEGREE."""
    if n > MAX_ROOT_DEGREE:
        raise UnsupportedDegreeError(
            f"root finding needs degree <= {MAX_ROOT_DEGREE}, got {n}"
        )


def find_root_rows(
    asc: np.ndarray, limit: float = math.inf
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots of the rows of ascending monic coefficients ``asc`` (k, n + 1),
    each row sorted by modulus as ``find_roots`` sorts it, with their scaled
    residuals and each row's largest root modulus, the only producer of
    ``RootSet.max_modulus``: (j, n), (j, n) and (j,) arrays.  A row
    certifies when its candidate settled and every residual is within
    ``_RESIDUAL_TOL``.

    The rows are solved ``chunk_rows(n)`` at a time and returned through the
    first whose largest modulus exceeds ``limit``, so j = k unless one does;
    no chunk after it is solved.  Raises UnconvergedError for the first row
    before that point that fails to certify, with ``row`` its position in
    ``asc`` and its sorted root set as the partial result; a degree above
    MAX_ROOT_DEGREE raises UnsupportedDegreeError before anything is solved.
    """
    k, n = asc.shape[0], asc.shape[1] - 1
    if not k:
        return np.zeros((0, n), dtype=complex), np.zeros((0, n)), np.zeros(0)
    check_degree(n)
    size = chunk_rows(n)
    if k <= size:
        return _solve_chunk(asc, 0, limit)
    parts = []
    for i in range(0, k, size):
        parts.append(_solve_chunk(asc[i : i + size], i, limit))
        if parts[-1][2][-1] > limit:
            break
    return tuple(np.concatenate(columns) for columns in zip(*parts))


def _row(f: MonicPolynomial) -> np.ndarray:
    """f as a batch of one coefficient row, its degree checked before the
    row is built."""
    check_degree(f.degree)
    return np.array([f.coeffs + (1.0 + 0j,)])


def find_roots(f: MonicPolynomial) -> RootSet:
    """All roots of f, nondecreasing in modulus, each certified by its
    scaled residual (see ``find_root_rows``).

    Raises UnconvergedError (with the partial result attached) when neither
    the first candidate for the degree nor the fallback certifies; a degree
    above MAX_ROOT_DEGREE raises UnsupportedDegreeError before any array is
    allocated.
    """
    return _root_sets(*find_root_rows(_row(f)))[0]


def is_schur_stable(f: MonicPolynomial) -> StabilityVerdict:
    """Exact stability decision: all roots strictly inside the unit disc.
    The verdict of the row core's worst modulus of f's one row, as
    ``find_roots(f).max_modulus``, with no root set built."""
    return StabilityVerdict.of(find_root_rows(_row(f))[2].item())


@np.errstate(all="ignore")  # a column whose scale overflows is left undecided
def _schur_cohn(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each column of the (n + 1, k) ascending coefficients ``a`` is
    Schur stable, and whether the floating-point recursion could decide it.

    A polynomial p of degree m is stable iff |a_0| < |a_m| and the degree
    m - 1 polynomial (conj(a_m) p - a_0 p*) / z is stable (Marden 1966,
    sections 42-43).  Each column is scaled to largest modulus 1, and
    ``err`` bounds the distance of each of its entries from those of some
    complex multiple of the exact recursion's column, which has the same
    roots.  With A = |a_m|, B = |a_0| and q = (B + err) / (A - err), a step
    moves the entries by at most err (A + B + 1 + q + 2 err) through the
    errors of its inputs, the error of a_m taken as a rescaling, and by
    4 eps (A + B) through rounding; scaling the new column by its largest
    modulus s divides that by s and adds eps.  A and B are each within
    err + eps of their exact values, so a step whose margin A - B lies
    within 2 (err + eps) of 0 leaves its column undecided.  Columns are laid
    out so that a_m and a_0 of all of them are contiguous rows: the batches
    are small, and numpy's cost is per call.
    """
    eps = np.finfo(float).eps
    n, k = a.shape[0] - 1, a.shape[1]
    stable, decided = np.zeros(k, dtype=bool), np.zeros(k, dtype=bool)
    mod = np.abs(a)
    s = mod.max(axis=0)
    a, mod = a / s, mod / s
    err = np.full(k, 4 * eps)  # the scaling of the input
    cols = np.arange(k)  # original column of each column still running
    for m in range(n, 0, -1):
        top, low = mod[m], mod[0]
        margin = top - low
        tol = 2 * (err + eps)
        keep = margin > tol
        if np.count_nonzero(keep) < keep.size:
            decided[cols[margin < -tol]] = True  # certainly not stable
            cols, a, err, top, low = cols[keep], a[:, keep], err[keep], top[keep], low[keep]
            if not cols.size:
                return stable, decided
        if m == 1:
            break
        c = np.conj(a)
        b = c[m] * a[1:] - a[0] * c[m - 1 :: -1]
        mod = np.abs(b)
        s = mod.max(axis=0)
        a = b / s
        mod /= s
        both, q = top + low, (low + err) / (top - err)
        err = (err * (both + q + 2 * err + 1) + 4 * eps * both) / s + eps
    stable[cols] = decided[cols] = True
    return stable, decided


@np.errstate(all="ignore")  # a coefficient that overflows leaves its column undecided
def _decide_rows(asc: np.ndarray, inner: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One ``_schur_cohn`` batch of the rows of ascending coefficients ``asc``
    (k, n + 1) scaled to a_k rho^k, the polynomial at rho z, at rho =
    1 + BOUNDARY_BAND and ``inner``, read as three (k,) masks: ``above``, a
    root modulus is certainly 1 + BOUNDARY_BAND or more; ``inside``, every
    root modulus is certainly below ``inner``; ``known``, both radii are
    decided.  Above degree ``_SCHUR_COHN_MAX_DEGREE`` all are False, and no
    batch runs."""
    k, n = asc.shape[0], asc.shape[1] - 1
    if n > _SCHUR_COHN_MAX_DEGREE:
        return (np.zeros(k, dtype=bool),) * 3
    rho = np.array([1.0 + BOUNDARY_BAND, inner]) ** np.arange(n + 1)[:, None]
    # Columns 0 .. k-1 hold the rows at 1 + BOUNDARY_BAND, k .. 2k-1 at inner.
    stable, decided = _schur_cohn((asc.T[:, None] * rho[:, :, None]).reshape(n + 1, -1))
    return decided[:k] & ~stable[:k], decided[k:] & stable[k:], decided[:k] & decided[k:]


def _solve(asc: np.ndarray, rows, limit: float = math.inf):
    """``find_root_rows(asc[rows], limit)``, its UnconvergedError raised
    with ``row`` the failing row's position in ``asc``."""
    try:
        return find_root_rows(asc[rows], limit)
    except UnconvergedError as exc:
        raise UnconvergedError(str(exc), partial=exc.partial, row=rows[exc.row]) from exc


def row_statuses(asc: np.ndarray) -> list[Status]:
    """The status ``is_schur_stable`` gives each row of ascending monic
    coefficients ``asc`` (k, n + 1), decided with no roots where it can be.

    The recursion runs at both edges of the boundary band
    (``_decide_rows(asc, 1 - BOUNDARY_BAND)``): Stable where every root
    modulus is certainly below 1 - BOUNDARY_BAND, Unstable where one is
    certainly 1 + BOUNDARY_BAND or more, Marginal where both edges are
    certain and neither holds.  The rows it leaves undecided, which above
    its degree cap are all of them, are classified by their largest root
    modulus, solved as one batch.
    """
    above, inside, known = (m.tolist() for m in _decide_rows(asc, 1.0 - BOUNDARY_BAND))
    statuses = [
        Status.STABLE if i else Status.UNSTABLE if a else Status.MARGINAL if both else None
        for a, i, both in zip(above, inside, known)
    ]
    rest = [i for i, st in enumerate(statuses) if st is None]
    if rest:
        for i, m in zip(rest, _solve(asc, rest)[2].tolist()):
            statuses[i] = classify(m)
    return statuses


def _branch_error(b: BranchSet, block: list, exc: UnconvergedError) -> UnconvergedError:
    """``exc`` naming row ``exc.row`` of the members ``block`` of b by its
    position in the full enumeration and its branch index."""
    index = block[exc.row]
    return UnconvergedError(
        f"branch {b.position(index)} (index {index}): {exc}", partial=exc.partial
    )


def branch_root_sets(b: BranchSet) -> list[RootSet]:
    """Root sets of every member of b, in enumeration order, each exactly as
    ``find_roots`` returns it; the members are gathered by ``b.rows`` and
    solved ``chunk_rows`` at a time.  A member that fails to certify raises
    UnconvergedError naming the branch."""
    n = b.base.degree
    check_degree(n)  # before the table is built
    indices, sets = b.indices(), []
    while block := list(islice(indices, chunk_rows(n))):
        try:
            sets += _root_sets(*find_root_rows(b.rows(block)))
        except UnconvergedError as exc:
            raise _branch_error(b, block, exc) from exc
    return sets


def branch_set_stable(b: BranchSet) -> StabilityVerdict:
    """Stability of a rational power means stability of every branch.

    Only one member per rotation orbit is taken
    (``BranchSet.rotation_representatives``): rotations keep every root
    modulus.  The representatives come in chunks, principal branch first,
    gathered straight from the coefficient table into arrays.  The first
    chunk holds min(chunk_rows(n), max(1, _FIRST_CHUNK_ELEMENTS // n^2))
    rows (10 at degree 5, 1 from degree 16) and goes straight to
    ``find_root_rows``; its worst modulus is w.  Every later chunk holds
    ``chunk_rows(n)`` rows and is first read by ``_decide_rows`` at w, the
    worst modulus solved so far.  A row with a root modulus certainly
    1 + BOUNDARY_BAND or more cuts the chunk after itself; a row with every
    root modulus certainly below w cannot raise it and is skipped.  Above
    its degree cap ``_decide_rows`` decides nothing, so every row of the
    chunk goes on.  ``find_root_rows`` solves the rows that are left,
    through the first whose modulus exceeds 1 + BOUNDARY_BAND, which ends
    the fold; if it puts a cut row within that limit (a disagreement at the
    band edge), the rest of the chunk is solved too.  The verdict is
    that of the worst modulus (``StabilityVerdict.of``): over all members
    for Stable and Marginal sets; for Unstable sets over the representatives
    up to and including the first Unstable one, a lower bound that still
    exceeds 1 + BOUNDARY_BAND.

    The first chunk is solved whole even when its first row is Unstable,
    and a set whose first Unstable representative lies just past it pays a
    second ``find_root_rows`` call where a single one would have reached it.

    A solved member that fails to certify raises UnconvergedError naming its
    branch by its position in the full enumeration and its index, with its
    sorted root set as the partial result.  A member after the first chunk
    that the recursion places inside w is never root-found, so it can no
    longer raise.
    """
    n = b.base.degree
    check_degree(n)  # before the table is built
    limit = 1.0 + BOUNDARY_BAND
    reps = b.rotation_representatives()
    size = chunk_rows(n)
    first = min(size, max(1, _FIRST_CHUNK_ELEMENTS // (n * n)))
    found: list[float] = []  # the worst modulus of each solve; w is their max
    while block := list(islice(reps, size if found else first)):
        asc = b.rows(block)
        cut = inside = np.zeros(len(block), dtype=bool)
        if found:
            cut, inside, _ = _decide_rows(asc, max(found))
        # Each solve ends at a cut row or at the end of the chunk.
        keep = np.flatnonzero(~inside)
        for rows in np.split(keep, np.flatnonzero(cut[keep]) + 1):
            if rows.size:
                try:
                    moduli = _solve(asc, rows, limit)[2]
                except UnconvergedError as exc:
                    raise _branch_error(b, block, exc) from exc
                found.append(float(moduli.max()))
                if moduli[-1] > limit:
                    return StabilityVerdict.of(max(found))
    return StabilityVerdict.of(max(found))
