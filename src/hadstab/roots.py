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

Polynomials of one degree are solved as a batch (``find_roots_many``): the
Aberth sweeps run on a ``(k, n)`` iterate in which each row leaves the loop
once it settles, the eigenvalues come from one stacked ``(k, n, n)`` solve,
and the residuals and reconstructions of all rows are computed together.
Every step is elementwise per row or a matrix product of the same shape for
every row, so a row's result does not depend on the batch it was solved in;
``find_roots`` is a batch of one.  Rows are processed in chunks sized from
the degree, which bounds the memory of the stacked arrays.
``branch_set_stable`` feeds the same core (``_solve_rows``) with rows
gathered from a branch set's coefficient table, without building a
polynomial or a root set per member.

Callers that read only a status, the onset searches, use
``schur_cohn_statuses``: the Schur-Cohn recursion decides it from the
coefficients alone, on all rows of a batch at once and with a running bound
on its rounding error, at both edges of the boundary band.  The rows it
cannot decide, and every row above degree 32, go to ``is_schur_stable_many``,
so the roots stay the one root-finding path and the only source of moduli.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from .criteria import SimplexWeights
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


@dataclass(frozen=True)
class StabilityVerdict:
    status: Status
    max_modulus: float

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


def residual_tolerance(f: MonicPolynomial) -> float:
    return 1e-10 * (1.0 + max((abs(c) for c in f.coeffs), default=0.0))


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
    an all-True settled mask."""
    z = np.linalg.eigvals(companion_matrix(asc[:, :-1]))
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
    return z, np.ones(len(z), dtype=bool)


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
    """Each row of ``_solve_rows`` output as a RootSet sorted by modulus."""
    order = np.argsort(np.abs(z), axis=1, kind="stable")
    z = np.take_along_axis(z, order, axis=1)
    res = np.take_along_axis(res, order, axis=1)
    converged = res <= tol[:, None]
    return [
        RootSet(tuple(zs), tuple(residuals), tuple(flags))
        for zs, residuals, flags in zip(z.tolist(), res.tolist(), converged.tolist())
    ]


def _uncertified(res: np.ndarray) -> str:
    return f"root iteration failed to certify (max residual {res.max():.3e})"


@np.errstate(all="ignore")  # see _solve_rows
def _solve_chunk(polys: list[MonicPolynomial], offset: int) -> list[RootSet]:
    """Root sets of one chunk; ``offset`` is the batch row of ``polys[0]``."""
    asc = np.array([f.coeffs + (1.0 + 0j,) for f in polys])
    # Python's abs (libm hypot): np.abs on complex arrays can differ from it
    # in the last bit, and the residual scale has always used it.
    moduli = np.array([[abs(c) for c in f.coeffs] + [1.0] for f in polys])
    tol = np.array([residual_tolerance(f) for f in polys])
    z, res, certified = _solve_rows(asc, moduli, tol)
    out = _root_sets(z, res, tol)
    if not certified.all():
        i = int(np.argmin(certified))
        raise UnconvergedError(_uncertified(res[i]), partial=out[i], row=offset + i)
    return out


def chunk_rows(degree: int) -> int:
    """Rows of this degree solved together as one stacked chunk."""
    return max(1, _CHUNK_ELEMENTS // (degree * degree))


def _check_degree(n: int) -> None:
    if n > MAX_ROOT_DEGREE:
        raise UnsupportedDegreeError(
            f"root finding needs degree <= {MAX_ROOT_DEGREE}, got {n}"
        )


def _solve(polys: Iterable[MonicPolynomial]) -> Iterator[RootSet]:
    """Root sets in input order, solving one chunk of rows at a time."""
    it = iter(polys)
    first = next(it, None)
    if first is None:
        return
    n = first.degree
    _check_degree(n)
    size = chunk_rows(n)
    chunk, offset = [first, *islice(it, size - 1)], 0
    while chunk:
        if any(f.degree != n for f in chunk):
            raise InvalidInputError("find_roots_many needs polynomials of one degree")
        yield from _solve_chunk(chunk, offset)
        offset += len(chunk)
        chunk = list(islice(it, size))


def find_roots_many(polys: Iterable[MonicPolynomial]) -> list[RootSet]:
    """Root sets of polynomials of one degree, each exactly as ``find_roots``
    returns it, solved in batches.

    Raises UnconvergedError for the first polynomial, in input order, whose
    root set fails to certify; its ``row`` is that polynomial's position.
    Degrees above MAX_ROOT_DEGREE raise UnsupportedDegreeError before any
    array is allocated.
    """
    return list(_solve(polys))


def find_roots(f: MonicPolynomial) -> RootSet:
    """All roots of f, nondecreasing in modulus, certified by reconstruction.

    Raises UnconvergedError (with the partial result attached) when neither
    the first candidate for the degree nor the fallback certifies.
    """
    return find_roots_many([f])[0]


def classify(max_modulus: float) -> Status:
    if max_modulus < 1.0 - BOUNDARY_BAND:
        return Status.STABLE
    if max_modulus > 1.0 + BOUNDARY_BAND:
        return Status.UNSTABLE
    return Status.MARGINAL


def _verdict(rs: RootSet) -> StabilityVerdict:
    return StabilityVerdict(classify(rs.max_modulus), rs.max_modulus)


def is_schur_stable(f: MonicPolynomial) -> StabilityVerdict:
    """Exact stability decision: all roots strictly inside the unit disc."""
    return _verdict(find_roots(f))


def is_schur_stable_many(polys: Iterable[MonicPolynomial]) -> list[StabilityVerdict]:
    """``is_schur_stable`` of each polynomial of one degree, solved in batches
    by ``find_roots_many``, whose errors it raises."""
    return [_verdict(rs) for rs in find_roots_many(polys)]


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


def _recursion_statuses(asc: np.ndarray) -> list[Status | None]:
    """Statuses of the rows of ascending monic coefficients ``asc`` as
    ``classify`` draws them, None where the recursion cannot decide.

    The rows run scaled to a_k rho^k, the polynomial at rho z, for rho on
    both edges of the boundary band: Stable where the inner one is certainly
    stable (every root modulus below 1 - BOUNDARY_BAND), Unstable where the
    outer one is certainly not (a root modulus of 1 + BOUNDARY_BAND or more),
    Marginal where both are certain and neither holds.
    """
    k, n = asc.shape[0], asc.shape[1] - 1
    rho = np.array([1.0 - BOUNDARY_BAND, 1.0 + BOUNDARY_BAND]) ** np.arange(n + 1)[:, None]
    # Columns 0 .. k-1 hold the inner rows, k .. 2k-1 the outer ones.
    stable, decided = _schur_cohn((asc.T[:, None] * rho[:, :, None]).reshape(n + 1, 2 * k))
    stable, decided = stable.tolist(), decided.tolist()
    statuses: list[Status | None] = [None] * k
    for i in range(k):
        if decided[i] and stable[i]:
            statuses[i] = Status.STABLE
        elif decided[k + i] and not stable[k + i]:
            statuses[i] = Status.UNSTABLE
        elif decided[i] and decided[k + i]:
            statuses[i] = Status.MARGINAL
    return statuses


def schur_cohn_statuses(polys: Iterable[MonicPolynomial]) -> list[Status]:
    """The status ``is_schur_stable_many`` gives each polynomial of one
    degree, decided from the coefficients by the Schur-Cohn recursion where
    it can be, with no roots.

    The rows the recursion leaves undecided, and every row of degree above
    ``_SCHUR_COHN_MAX_DEGREE``, go to ``is_schur_stable_many`` as one batch;
    its UnconvergedError is raised with ``row`` the polynomial's position in
    ``polys``.
    """
    polys = list(polys)
    if not polys:
        return []
    n = polys[0].degree
    if any(f.degree != n for f in polys):
        raise InvalidInputError("schur_cohn_statuses needs polynomials of one degree")
    statuses: list[Status | None] = [None] * len(polys)
    if n <= _SCHUR_COHN_MAX_DEGREE:
        statuses = _recursion_statuses(np.array([f.coeffs + (1.0 + 0j,) for f in polys]))
    rest = [i for i, st in enumerate(statuses) if st is None]
    if rest:
        try:
            verdicts = is_schur_stable_many([polys[i] for i in rest])
        except UnconvergedError as exc:
            raise UnconvergedError(str(exc), partial=exc.partial, row=rest[exc.row]) from exc
        for i, v in zip(rest, verdicts):
            statuses[i] = v.status
    return statuses


def branch_root_sets(b: BranchSet) -> list[RootSet]:
    """Root sets of every member of b, in enumeration order, solved as one
    batch.

    A member that fails to certify raises UnconvergedError naming the branch.
    """
    try:
        return find_roots_many(b)
    except UnconvergedError as exc:
        index = next(islice(b.indices(), exc.row, None))
        raise UnconvergedError(
            f"branch {exc.row} (index {index}): {exc}", partial=exc.partial
        ) from exc


def combined_verdict(root_sets: Iterable[RootSet]) -> StabilityVerdict:
    """Stability of a rational power from the root sets of all its branches.

    Stable iff every member is Stable, Unstable if any member is, Marginal
    otherwise; the reported modulus is the worst across members.
    """
    worst = 0.0
    any_unstable = False
    all_stable = True
    for rs in root_sets:
        m = rs.max_modulus
        worst = max(worst, m)
        status = classify(m)
        if status is Status.UNSTABLE:
            any_unstable = True
        if status is not Status.STABLE:
            all_stable = False
    if any_unstable:
        return StabilityVerdict(Status.UNSTABLE, worst)
    if all_stable:
        return StabilityVerdict(Status.STABLE, worst)
    return StabilityVerdict(Status.MARGINAL, worst)


def _branch_blocks(
    b: BranchSet,
) -> Iterator[tuple[list[tuple[int, ...]], np.ndarray, np.ndarray, np.ndarray]]:
    """Rotation representatives of b as blocks of rows (indices, asc,
    moduli, tol), ready for ``_solve_rows``: the principal branch alone, then
    ``chunk_rows`` rows at a time.

    Rows are gathered from ``b.table``; ``tol`` is ``residual_tolerance`` of
    each member, 1e-10 (1 + max_k |a_k|).
    """
    n, support = b.base.degree, list(b.base.support)
    shape = (len(support), b.exponent.den)
    values = np.array(b.table[0], dtype=complex).reshape(shape)
    moduli = np.array(b.table[1]).reshape(shape)
    at = np.arange(len(support))
    it = b.rotation_representatives()
    block = list(islice(it, 1))
    while block:
        ls = np.array(block, dtype=np.intp).reshape(len(block), len(support))
        asc = np.zeros((len(block), n + 1), dtype=complex)
        mod = np.zeros((len(block), n + 1))
        asc[:, support] = values[at, ls]
        mod[:, support] = moduli[at, ls]
        asc[:, n] = mod[:, n] = 1.0
        yield block, asc, mod, 1e-10 * (1.0 + mod[:, :n].max(axis=1))
        block = list(islice(it, chunk_rows(n)))


@np.errstate(all="ignore")  # see _solve_rows
def branch_set_stable(b: BranchSet) -> StabilityVerdict:
    """Stability of a rational power means stability of every branch.

    Only one member per rotation orbit is solved
    (``BranchSet.rotation_representatives``): rotations keep every root
    modulus.  The principal branch is solved first and alone, then the
    other representatives in blocks of ``chunk_rows`` rows, each gathered
    straight from the coefficient table into arrays; no member polynomial or
    root set is built.  The fold stops at the first Unstable member, and no
    block is built after it.  For Stable and Marginal sets ``max_modulus``
    is the worst over all members; for Unstable sets it is the worst over
    the representatives up to and including the first Unstable one, a lower
    bound that still exceeds 1 + BOUNDARY_BAND.

    A member that fails to certify raises UnconvergedError naming its branch
    by its position in the full enumeration and its index, with its sorted
    root set as the partial result.
    """
    _check_degree(b.base.degree)
    worst, all_stable = 0.0, True
    for block, asc, moduli, tol in _branch_blocks(b):
        z, res, certified = _solve_rows(asc, moduli, tol)
        # np.hypot, not np.abs: it equals Python's abs bit for bit.  The
        # comparisons below are ``classify`` on every row at once.
        mods = np.hypot(z.real, z.imag).max(axis=1)
        stop = ~certified | (mods > 1.0 + BOUNDARY_BAND)
        if stop.any():
            i = int(np.argmax(stop))
            if not certified[i]:
                index = block[i]
                raise UnconvergedError(
                    f"branch {b.position(index)} (index {index}): "
                    + _uncertified(res[i]),
                    partial=_root_sets(z[i : i + 1], res[i : i + 1], tol[i : i + 1])[0],
                )
            worst = max(worst, float(mods[: i + 1].max()))
            return StabilityVerdict(Status.UNSTABLE, worst)
        worst = max(worst, float(mods.max()))
        all_stable = all_stable and bool((mods < 1.0 - BOUNDARY_BAND).all())
    return StabilityVerdict(Status.STABLE if all_stable else Status.MARGINAL, worst)


def fujiwara_bound(f: MonicPolynomial, w: SimplexWeights) -> float:
    """A-priori bound max_k (|a_k| / lambda_k)^(1/(n-k)) on all root moduli.

    The weights must be indexed exactly by the support of f.
    """
    if w.support != f.support:
        raise InvalidInputError(
            f"weights indexed by {w.support} do not match support {f.support}"
        )
    n = f.degree
    table = w.as_dict()
    return max(
        (abs(f.coeffs[k]) / table[k]) ** (1.0 / (n - k)) for k in f.support
    )
