"""Root finding and exact Schur stability decisions.

Each polynomial is solved by one root candidate, and by the other only where
the first fails to certify.  Up to degree 32 the first is companion-matrix
eigenvalues refined by a few Newton steps, the cheaper one there (Edelman &
Murakami 1995); above it, Ehrlich-Aberth simultaneous iteration, started from
the Newton polygon of the coefficient moduli: each edge of the upper convex
hull of (k, log|a_k|) puts as many points as it is long on a circle of its
own radius, near the root moduli (Bini 1996).  Roots certify when every
per-root residual is within tolerance or, checked only for the rows whose
residuals fall short, when they reconstruct the monic polynomial's
coefficients; an iteration that did not settle never certifies.  Residuals
are scaled backward errors, so clusters of near-multiple roots degrade
per-root accuracy without breaking the certificate.

Aberth and the residuals evaluate from a table of the powers z^0 .. z^n of
all points, built by doubling in about log2 n array multiplies (``_powers``).
Each Aberth sweep takes p and p' from its table with one matrix product per
row, the stacked coefficients of p and p' times that row's (n + 1, n) slice
(``_values_and_slopes``); the pairwise sums sum_j 1 / (z_i - z_j) are
reciprocals taken in place.  The certificate instead sums its table
elementwise in ascending order (``_evaluate``) for |p| and the residual
scale 1 + sum_k |a_k| |z|^k.  Those residuals are reported and decide
certification, so their bits are kept independent of how a BLAS build
blocks a product; and at the small degrees where most rows are certified, a
product per row is no faster (about 10% slower for 100 rows at n = 5).  The
Newton steps after the eigenvalues keep Horner's rule: at a multiple-root
cluster the table's derivative can fall to rounding level and throw a root
out of the cluster.

Polynomials of one degree are solved as a batch of coefficient rows
(``find_root_rows``): the Aberth sweeps run on a ``(k, n)`` iterate in which
each row leaves the loop once it settles, the eigenvalues come from one
stacked ``(k, n, n)`` solve, and the residuals and reconstructions of all
rows are computed together.  Every step is elementwise per row or a matrix
product of the same shape for every row, so a row's result does not depend
on the batch it was solved in.  Rows are processed in chunks sized from the
degree, which bounds the memory of the stacked arrays.  ``find_root_rows``
is the one place that certifies rows, raises for the first that fails, and
takes each row's worst root modulus (by ``np.hypot``, which equals Python's
``abs`` bit for bit); given a limit, it stops after the first row above it.
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
rounding error, whether each row's roots lie inside a circle
(``_schur_cohn_at``).  Callers that read only a status, the onset searches,
use ``row_statuses``, which runs it at both edges of the boundary band.
``branch_set_stable`` runs it at 1 + BOUNDARY_BAND, to stop at the first
member that is certainly Unstable, and at the worst modulus found so far, to
skip the members that certainly cannot raise it.  The rows it cannot decide,
and every row above degree 32, go to ``find_root_rows`` as rows, so the
roots stay the one root-finding path and the only source of moduli.
"""

from __future__ import annotations

import contextlib
import math
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
_EIGVALS_MAX_DEGREE = 32  # eigenvalues first up to here, Aberth first above
# Largest degree whose statuses the Schur-Cohn recursion decides; rows above
# it go to the root finder.  Its error bound compounds with every step: of
# 200 rows with roots uniform in discs of radius 0.5 to 1.5, it leaves 17
# undecided at degree 16, 143 at 32 and 194 at 48 (measured in
# tests/test_roots.py).
_SCHUR_COHN_MAX_DEGREE = 32

_MAX_SWEEPS = 200
_RECONSTRUCTION_TOL = 1e-8
# Radius of the circle for roots at the origin, relative to the smallest
# Newton-polygon circle.
_ZERO_CIRCLE = 0.5
# A chunk of rows holds at most this many n x n matrix entries (128 KiB of
# complex values per stacked array), and always at least one row.
_CHUNK_ELEMENTS = 1 << 13


class Status(str, Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    MARGINAL = "Marginal"


@dataclass(frozen=True)
class RootSet:
    """All n roots in nondecreasing modulus order with their residuals.

    ``residuals[i]`` is the scaled backward error |f(z_i)| / (1 + sum_k
    |a_k| |z_i|^k); a root is flagged unconverged when it exceeds the
    residual tolerance for the polynomial.
    """

    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    converged: tuple[bool, ...]

    @property
    def max_modulus(self) -> float:
        return max(abs(z) for z in self.roots)

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


def _tolerances(moduli: np.ndarray) -> np.ndarray:
    """The residual tolerance 1e-10 (1 + max_k |a_k|) of every row of
    coefficient moduli |a_0| .. |a_n|."""
    return 1e-10 * (1.0 + moduli[:, :-1].max(axis=1))


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


def _horner(desc: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Row i of the (k, n+1) descending coefficients evaluated at z[i]."""
    # A batch of one iterates over scalars: adding broadcast (k, 1) columns
    # would make a single solve slower than it was before batching.
    coeffs = desc[0] if len(desc) == 1 else desc.T[:, :, None]
    acc = np.empty_like(z)
    acc[...] = coeffs[0]
    for c in coeffs[1:]:
        acc *= z
        acc += c
    return acc


def _powers(z: np.ndarray, n: int) -> np.ndarray:
    """z^0 .. z^n of every point, as an ``(n + 1,) + z.shape`` table.

    Built by doubling: with z^0 .. z^m in the table, z^(m+1) .. z^(2m) are
    z^1 .. z^m times z^m, one array multiply, so the table takes about
    log2 n of them.
    """
    V = np.empty((n + 1,) + z.shape, dtype=z.dtype)
    V[0], V[1] = 1.0, z
    m = 1
    while m < n:
        top = min(2 * m, n)
        np.multiply(V[1 : top - m + 1], V[m], out=V[m + 1 : top + 1])
        m = top
    return V


def _evaluate(V: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Row i of the (k, d) ascending coefficients at the points of row i of
    the power table ``V`` (see ``_powers``).

    One product and one sum over the power axis, which adds the terms of
    each point in ascending order whatever the batch, so a row's values do
    not depend on the rows solved with it.
    """
    return (V[: c.shape[1]] * c.T[:, :, None]).sum(axis=0)


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


def _start(asc: np.ndarray) -> np.ndarray:
    """Aberth starting points for every row: Newton-polygon circles, each
    turned by its own offset so that no two circles line up."""
    k, n = asc.shape[0], asc.shape[1] - 1
    with np.errstate(divide="ignore"):  # log 0 = -inf marks a zero coefficient
        logs = np.log(np.abs(asc)).tolist()
    circles = [c for row in logs for c in _newton_polygon(row)]
    # One row per point: its circle's first index, point count and radius.
    first, size, radius = np.repeat(circles, [c[1] for c in circles], axis=0).T
    j = np.arange(k * n) % n - first  # position on the point's circle
    # The 0.375 offset breaks conjugate symmetry so real-coefficient inputs do
    # not lock the iteration onto the real axis.
    angles = 2.0 * np.pi * ((j + 0.375) / size + first / n) + 0.5 / n
    return (radius * np.exp(1j * angles)).reshape(k, n)


def _values_and_slopes(pd: np.ndarray, V: np.ndarray) -> np.ndarray:
    """p and p' of every row at that row's points, as a (k, 2, n) array.

    ``pd`` (k, 2, n + 1) holds the ascending coefficients of p and of p'
    (padded with a zero) per row, ``V`` the power table of the points (see
    ``_powers``).  One matrix product per row, a ``zgemm`` of the same shape
    for every row, so a row's bits do not depend on its batch; the view
    ``V.transpose(1, 0, 2)`` gives each row's (n + 1, n) table without a copy.
    """
    return np.matmul(pd, V.transpose(1, 0, 2))


def _aberth(asc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ehrlich-Aberth sweeps on every row of ascending coefficients.

    Each sweep takes p and p' at all points from one power table and one
    matrix product per row (``_values_and_slopes``), and the pairwise sums
    sum_j 1 / (z_i - z_j) as reciprocals taken in place.  Returns the (k, n)
    iterates, the last one for a row that never settles, and a (k,) mask of
    the rows that settled, which stop iterating at once.
    """
    k, n = asc.shape[0], asc.shape[1] - 1
    if n == 1:
        return -asc[:, :1], np.ones(k, dtype=bool)
    pd = np.zeros((k, 2, n + 1), dtype=complex)
    pd[:, 0] = asc
    pd[:, 1, :-1] = asc[:, 1:] * np.arange(1, n + 1)
    z = _start(asc)
    out = np.empty((k, n), dtype=complex)
    settled = np.zeros(k, dtype=bool)
    rows = np.arange(k)  # original row of each row still iterating
    diag = np.arange(n)
    for _ in range(_MAX_SWEEPS):
        pv, dpv = _values_and_slopes(pd, _powers(z, n)).transpose(1, 0, 2)
        if dpv.all():
            moving = slice(None)  # a view instead of a copy
        else:
            # Rows with a vanishing derivative are nudged and skip this sweep.
            zero = dpv == 0
            stalled = zero.any(axis=1)
            zs = z[stalled]
            z[stalled] = zs + np.where(zero[stalled], 1e-8 * (1 + np.abs(zs)), 0.0)
            moving = ~stalled
        zk = z[moving]
        w = pv[moving] / dpv[moving]
        diff = zk[:, :, None] - zk[:, None, :]
        diff[:, diag, diag] = np.inf
        s = np.reciprocal(diff, out=diff).sum(axis=2)
        denom = 1.0 - w * s
        denom = np.where(denom == 0, 1e-30, denom)
        delta = w / denom
        zk = zk - delta
        z[moving] = zk
        done = np.zeros(len(z), dtype=bool)
        done[moving] = np.abs(delta).max(axis=1) <= 1e-14 * (
            1.0 + np.abs(zk).max(axis=1)
        )
        if done.any():
            out[rows[done]] = z[done]
            settled[rows[done]] = True
            keep = ~done
            if not keep.any():
                break
            rows, z, pd = rows[keep], z[keep], pd[keep]
    else:
        out[rows] = z
    return out, settled


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
    desc = asc[:, ::-1]
    deriv = desc[:, :-1] * np.arange(z.shape[1], 0, -1)
    for _ in range(3):
        dpv = _horner(deriv, z)
        safe = dpv != 0
        step = np.where(safe, _horner(desc, z) / np.where(safe, dpv, 1.0), 0.0)
        # Reject steps that blow up (multiple-root clusters).
        step = np.where(np.abs(step) < 0.5 * (1 + np.abs(z)), step, 0.0)
        z = z - step
    return z, settled


def _scaled_residuals(asc: np.ndarray, moduli: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per-root scaled backward errors; ``moduli`` holds |a_0| .. |a_n| per
    row."""
    V = _powers(z, z.shape[1])
    return np.abs(_evaluate(V, asc)) / (1.0 + _evaluate(np.abs(V), moduli))


def _reconstructs(asc: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per row, whether the monic polynomial with the roots ``z`` reproduces
    the ascending coefficients ``asc``.

    The product of (s - z_j) is expanded for all rows at once, one root per
    step, as ``np.poly`` expands one row; its BLAS dot products may round
    the coefficients differently in the last bit.
    """
    k, n = z.shape
    desc = np.zeros((k, n + 1), dtype=complex)
    desc[:, 0] = 1.0
    for j in range(n):
        desc[:, 1 : j + 2] -= desc[:, : j + 1] * z[:, j, None]
    err = np.abs(desc[:, ::-1] - asc) / np.maximum(1.0, np.abs(asc))
    return err.max(axis=1) <= _RECONSTRUCTION_TOL


def _candidate(solve, asc, moduli, tol):
    """Roots and residuals from ``solve``, its settled rows, and the rows it
    certifies (settled, and reconstructing or with residuals within tol)."""
    z, settled = solve(asc)
    res = _scaled_residuals(asc, moduli, z)
    ok = (res <= tol[:, None]).all(axis=1)
    if not ok.all():  # reconstruction only where the residuals fall short
        ok[~ok] = _reconstructs(asc[~ok], z[~ok])
    return z, res, settled, settled & ok


def _solve_rows(
    asc: np.ndarray, moduli: np.ndarray, tol: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unsorted roots, their scaled residuals and a certified mask for every
    row of ascending monic coefficients ``asc`` (k, n + 1), with ``moduli``
    their moduli and ``tol`` (k,) the residual tolerance of each row.

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
            z[live], res[live], certified[live] = _solve_rows(
                asc[live], moduli[live], tol[live]
            )
        return z, res, certified
    first, fallback = (
        (_eigenvalues, _aberth) if n <= _EIGVALS_MAX_DEGREE else (_aberth, _eigenvalues)
    )
    z, res, _, certified = _candidate(first, asc, moduli, tol)
    retry = np.flatnonzero(~certified)
    if retry.size:
        z2, res2, settled, ok = _candidate(fallback, asc[retry], moduli[retry], tol[retry])
        certified[retry] = ok
        # An iterate that did not settle is never returned, even as a partial.
        z[retry[settled]], res[retry[settled]] = z2[settled], res2[settled]
    return z, res, certified


def _root_sets(z: np.ndarray, res: np.ndarray, tol: np.ndarray) -> list[RootSet]:
    """Each row of sorted roots as a RootSet."""
    converged = res <= tol[:, None]
    return [
        RootSet(tuple(zs), tuple(residuals), tuple(flags))
        for zs, residuals, flags in zip(z.tolist(), res.tolist(), converged.tolist())
    ]


@np.errstate(all="ignore")  # see _solve_rows
def _solve_chunk(
    asc: np.ndarray, offset: int, limit: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``find_root_rows`` of one chunk; ``offset`` is the row of ``asc[0]``
    in the whole batch.  Returns fewer rows than ``asc`` holds when one
    exceeds ``limit``: the last row returned is then the first such row."""
    # np.hypot, not np.abs: it equals Python's abs (libm hypot) bit for bit,
    # and so the residual scale and RootSet.max_modulus.
    moduli = np.hypot(asc.real, asc.imag)
    tol = _tolerances(moduli)
    z, res, certified = _solve_rows(asc, moduli, tol)
    worst = np.hypot(z.real, z.imag).max(axis=1)
    stop = ~certified | (worst > limit)
    k = int(np.argmax(stop)) + 1 if stop.any() else len(asc)
    # Each row by root modulus, as find_roots sorts it.
    at = np.arange(k)[:, None], np.argsort(np.abs(z[:k]), axis=1, kind="stable")
    z, res = z[at], res[at]
    if not certified[k - 1]:
        raise UnconvergedError(
            f"root iteration failed to certify (max residual {res[-1].max():.3e})",
            partial=_root_sets(z[-1:], res[-1:], tol[k - 1 : k])[0],
            row=offset + k - 1,
        )
    return z, res, tol[:k], worst[:k]


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Roots of the rows of ascending monic coefficients ``asc`` (k, n + 1),
    each row sorted by modulus as ``find_roots`` sorts it, with their scaled
    residuals, each row's residual tolerance and its largest root modulus
    (bit for bit ``RootSet.max_modulus``): (j, n), (j, n), (j,) and (j,)
    arrays.

    The rows are solved ``chunk_rows(n)`` at a time and returned through the
    first whose largest modulus exceeds ``limit``, so j = k unless one does;
    no chunk after it is solved.  Raises UnconvergedError for the first row
    before that point that fails to certify, with ``row`` its position in
    ``asc`` and its sorted root set as the partial result; a degree above
    MAX_ROOT_DEGREE raises UnsupportedDegreeError before anything is solved.
    """
    k, n = asc.shape[0], asc.shape[1] - 1
    if not k:
        return np.zeros((0, n), dtype=complex), np.zeros((0, n)), np.zeros(0), np.zeros(0)
    check_degree(n)
    size = chunk_rows(n)
    if k <= size:
        return _solve_chunk(asc, 0, limit)
    parts = []
    for i in range(0, k, size):
        parts.append(_solve_chunk(asc[i : i + size], i, limit))
        if parts[-1][3][-1] > limit:
            break
    return tuple(np.concatenate(columns) for columns in zip(*parts))


def find_roots(f: MonicPolynomial) -> RootSet:
    """All roots of f, nondecreasing in modulus, certified by reconstruction.

    Raises UnconvergedError (with the partial result attached) when neither
    the first candidate for the degree nor the fallback certifies; a degree
    above MAX_ROOT_DEGREE raises UnsupportedDegreeError before any array is
    allocated.
    """
    check_degree(f.degree)  # before the row is built
    row = np.array([f.coeffs + (1.0 + 0j,)])
    return _root_sets(*find_root_rows(row)[:3])[0]


def is_schur_stable(f: MonicPolynomial) -> StabilityVerdict:
    """Exact stability decision: all roots strictly inside the unit disc."""
    return StabilityVerdict.of(find_roots(f).max_modulus)


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
def _schur_cohn_at(asc: np.ndarray, radii: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """``_schur_cohn`` of the rows of ascending coefficients ``asc``
    (k, n + 1) scaled to a_k rho^k, the polynomial at rho z, for each rho in
    ``radii``, as one batch: (len(radii), k) arrays, row r for radii[r].

    A row certainly stable at rho has every root modulus below rho; one
    certainly not stable has a root modulus of rho or more.
    """
    k, n = asc.shape[0], asc.shape[1] - 1
    rho = np.array(radii) ** np.arange(n + 1)[:, None]
    # Columns 0 .. k-1 hold the rows at radii[0], k .. 2k-1 at radii[1], ...
    stable, decided = _schur_cohn((asc.T[:, None] * rho[:, :, None]).reshape(n + 1, -1))
    return stable.reshape(len(radii), k), decided.reshape(len(radii), k)


def _recursion_statuses(asc: np.ndarray) -> list[Status | None]:
    """Statuses of the rows of ascending monic coefficients ``asc`` as
    ``classify`` draws them, None where the recursion cannot decide.

    The rows run at both edges of the boundary band (``_schur_cohn_at``):
    Stable where the inner one is certainly stable (every root modulus below
    1 - BOUNDARY_BAND), Unstable where the outer one is certainly not (a root
    modulus of 1 + BOUNDARY_BAND or more), Marginal where both are certain
    and neither holds.
    """
    stable, decided = _schur_cohn_at(asc, [1.0 - BOUNDARY_BAND, 1.0 + BOUNDARY_BAND])
    (inner, outer), (inner_known, outer_known) = stable.tolist(), decided.tolist()
    statuses: list[Status | None] = [None] * len(inner)
    for i in range(len(inner)):
        if inner_known[i] and inner[i]:
            statuses[i] = Status.STABLE
        elif outer_known[i] and not outer[i]:
            statuses[i] = Status.UNSTABLE
        elif inner_known[i] and outer_known[i]:
            statuses[i] = Status.MARGINAL
    return statuses


def row_statuses(asc: np.ndarray) -> list[Status]:
    """The status ``is_schur_stable`` gives each row of ascending monic
    coefficients ``asc`` (k, n + 1), decided from the coefficients by the
    Schur-Cohn recursion where it can be, with no roots.

    The rows the recursion leaves undecided, and every row of degree above
    ``_SCHUR_COHN_MAX_DEGREE``, go to ``find_root_rows`` as one batch and are
    classified by their largest root modulus; its UnconvergedError is raised
    with ``row`` the row's position in ``asc``.
    """
    k, n = asc.shape[0], asc.shape[1] - 1
    statuses: list[Status | None] = [None] * k
    if k and n <= _SCHUR_COHN_MAX_DEGREE:
        statuses = _recursion_statuses(asc)
    rest = [i for i, st in enumerate(statuses) if st is None]
    if rest:
        try:
            worst = find_root_rows(asc[rest])[3]
        except UnconvergedError as exc:
            raise UnconvergedError(str(exc), partial=exc.partial, row=rest[exc.row]) from exc
        for i, m in zip(rest, worst.tolist()):
            statuses[i] = classify(m)
    return statuses


def _solve_branches(
    b: BranchSet, indices: list[tuple[int, ...]], asc: np.ndarray, limit: float = math.inf
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``find_root_rows(asc, limit)`` of the members of b with the branch
    ``indices``, whose rows ``asc`` holds.  An uncertified row raises
    UnconvergedError naming its branch by its position in the full
    enumeration and its index."""
    try:
        return find_root_rows(asc, limit)
    except UnconvergedError as exc:
        index = indices[exc.row]
        raise UnconvergedError(
            f"branch {b.position(index)} (index {index}): {exc}", partial=exc.partial
        ) from exc


def branch_root_sets(b: BranchSet) -> list[RootSet]:
    """Root sets of every member of b, in enumeration order, each exactly as
    ``find_roots`` returns it; the members are gathered by ``b.rows`` and
    solved ``chunk_rows`` at a time.  A member that fails to certify raises
    UnconvergedError naming the branch."""
    n = b.base.degree
    check_degree(n)  # before the table is built
    indices, sets = b.indices(), []
    while block := list(islice(indices, chunk_rows(n))):
        sets += _root_sets(*_solve_branches(b, block, b.rows(block))[:3])
    return sets


def branch_set_stable(b: BranchSet) -> StabilityVerdict:
    """Stability of a rational power means stability of every branch.

    Only one member per rotation orbit is taken
    (``BranchSet.rotation_representatives``): rotations keep every root
    modulus.  The representatives come ``chunk_rows`` at a time, principal
    branch first, gathered straight from the coefficient table into arrays.
    Up to degree ``_SCHUR_COHN_MAX_DEGREE`` a chunk first takes one
    ``_schur_cohn_at`` batch at two radii.  At 1 + BOUNDARY_BAND, a row that
    is certainly not stable cuts the chunk after itself.  At w, the worst
    modulus solved so far, a row that is certainly stable cannot raise it
    and is skipped; the first chunk has no w, so it is only cut.
    ``find_root_rows`` solves the rows that are left, through the first
    whose modulus exceeds 1 + BOUNDARY_BAND, which ends the fold; if it puts
    a cut row within that limit (a disagreement at the band edge), the rest
    of the chunk is solved too.  The verdict is that of the worst modulus
    (``StabilityVerdict.of``): over all members for Stable and Marginal
    sets; for Unstable sets over the representatives up to and including the
    first Unstable one, a lower bound that still exceeds 1 + BOUNDARY_BAND.

    A solved member that fails to certify raises UnconvergedError naming its
    branch by its position in the full enumeration and its index, with its
    sorted root set as the partial result.  A member the recursion places
    inside w is never root-found, so it can no longer raise.
    """
    n = b.base.degree
    check_degree(n)  # before the table is built
    limit = 1.0 + BOUNDARY_BAND
    reps = b.rotation_representatives()
    found: list[float] = []  # the worst modulus of each solve; w is their max
    while block := list(islice(reps, chunk_rows(n))):
        asc = b.rows(block)
        cut = inside = np.zeros(len(block), dtype=bool)
        if n <= _SCHUR_COHN_MAX_DEGREE:
            stable, decided = _schur_cohn_at(asc, [limit, max(found)] if found else [limit])
            cut = decided[0] & ~stable[0]
            if found:
                inside = decided[1] & stable[1]
        # Each solve ends at a cut row or at the end of the chunk.
        keep = np.flatnonzero(~inside)
        for rows in np.split(keep, np.flatnonzero(cut[keep]) + 1):
            if rows.size:
                moduli = _solve_branches(b, [block[i] for i in rows], asc[rows], limit)[3]
                found.append(float(moduli.max()))
                if moduli[-1] > limit:
                    return StabilityVerdict.of(max(found))
    return StabilityVerdict.of(max(found))
