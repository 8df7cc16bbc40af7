"""Batched root finding: equality with per-polynomial solves, chunking,
error attribution and the work it does."""

import dataclasses
import math
import random
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import fail_row, monic_rows, random_monic
from hadstab import (
    InvalidInputError,
    MonicPolynomial,
    UnconvergedError,
    Status,
    UnsupportedDegreeError,
    auto_onset,
    branch_set_stable,
    find_roots,
    hadamard_power,
    is_schur_stable,
    principal_power,
    report,
    roots,
)
from hadstab.roots import MAX_ROOT_DEGREE, branch_root_sets, classify

F1 = report.EXPERIMENT_POLYS[1]["f"]


def _batch(polys):
    """Root sets of polynomials of one degree from one ``find_root_rows``
    call on their rows."""
    return roots._root_sets(*roots.find_root_rows(monic_rows(polys)))


def _bits(rs):
    """A root set as raw bytes, so equality is bit for bit (signed zeros too)."""
    return (
        np.array(rs.roots, dtype=complex).tobytes(),
        np.array(rs.residuals, dtype=float).tobytes(),
        rs.converged,
    )


def _seed_horner(cs, z):
    acc = np.full_like(z, cs[0])
    for c in cs[1:]:
        acc = acc * z + c
    return acc


def _seed_evaluate(V, cs):
    """Ascending coefficients ``cs`` at the points of the power table ``V``."""
    return (V[: len(cs)] * cs[:, None]).sum(axis=0)


def _seed_values(pd, V):
    """p and p' (the rows of ``pd``, ascending) at the points of the power
    table ``V``, as one matrix product."""
    return pd @ V


def _seed_find_roots(f, horner=_seed_horner, values=_seed_values):
    """The solver's rule written for one polynomial at a time, kept as the
    reference: the companion candidate first up to degree 21, where it is
    the cheaper one for a single polynomial, and Aberth above, the other
    only if the first does not certify.  Aberth sweeps only the roots still
    moving.  Aberth and the residuals evaluate from a table of powers of the
    points (Aberth by one matrix product for p and p', the residuals term by
    term), the Newton polish by Horner's rule.  Returns the sorted roots and
    residuals as raw bytes."""
    n = f.degree
    asc = np.array(list(f.coeffs) + [1.0 + 0j])
    if not f.support:
        return np.zeros(n, dtype=complex).tobytes(), np.zeros(n).tobytes()
    desc = asc[::-1]
    deriv = desc[:-1] * np.arange(n, 0, -1)
    tol = 1e-10 * (1.0 + max(abs(c) for c in f.coeffs))

    def powers(z):
        # z^(m+1) .. z^(2m) as z^1 .. z^m times z^m, one broadcast multiply
        # as in the solver: for a single point, numpy's complex multiply by
        # a broadcast operand can round differently from a product of two
        # one-element arrays.
        V = [np.ones_like(z), z]
        while len(V) <= n:
            m = len(V) - 1
            V += list(np.array(V[1 : min(m, n - m) + 1]) * V[m])
        return np.array(V)

    def start():
        # Newton polygon by gift wrapping: from each vertex, the next one ends
        # the steepest chord (the farthest on ties).  Edge k1 -> k2 of two or
        # more points puts them at the roots of a_k2 z^k2 + a_k1 z^k1 on its
        # circle; a one-point edge puts its point at a uniform angle turned by
        # 2 pi k1 / n, and roots at the origin go at uniform angles on half
        # the first edge's radius.  Every point is turned by 0.5 / n.
        z = np.empty(n, dtype=complex)

        def circle(k1, count, radius, binomial=False):
            j = np.arange(count)
            if binomial and count > 1:
                low, high = asc[k1], asc[k1 + count]
                theta = math.atan2(low.imag, low.real) - math.atan2(high.imag, high.real) + math.pi
                angles = (theta + 2.0 * np.pi * j) / count + 0.5 / n
            else:
                angles = 2.0 * np.pi * ((j + 0.375) / count + k1 / n) + 0.5 / n
            z[k1 : k1 + count] = radius * np.exp(1j * angles)

        with np.errstate(divide="ignore"):
            logs = np.log(np.abs(asc)).tolist()
        points = [(k, y) for k, y in enumerate(logs) if y > -math.inf]
        (k1, y1), rest = points[0], points[1:]
        zeros = k1  # a_0 .. a_{k1-1} vanish
        while rest:
            k2, y2 = rest[0]
            for k, y in rest[1:]:
                if (y - y1) * (k2 - k1) >= (y2 - y1) * (k - k1):
                    k2, y2 = k, y
            radius = math.exp((y1 - y2) / (k2 - k1))
            if zeros and k1 == zeros:
                circle(0, zeros, 0.5 * radius)
            circle(k1, k2 - k1, radius, binomial=True)
            rest = [(k, y) for k, y in rest if k > k2]
            k1, y1 = k2, y2
        return z

    def aberth():
        # Each sweep moves only the active roots, each against all n; a root
        # leaves for good once its step is small.  From sweep 16 on, an
        # active root with |p| at rounding level leaves the row unsettled.
        if n == 1:
            return np.array([-asc[0]])
        z = start()
        pd = np.array([asc, np.append(asc[1:] * np.arange(1, n + 1), 0.0)])
        bound = 4 * (n + 1) * np.finfo(float).eps * np.abs(asc)
        act = np.arange(n)
        for sweep in range(200):
            za = z[act]
            V = powers(za)
            pv, dpv = values(pd, V)
            stalled = dpv == 0
            if stalled.any():
                z[act] = za + np.where(stalled, 1e-8 * (1 + np.abs(za)), 0.0)
                continue
            w = pv / dpv
            diff = za[:, None] - z[None, :]
            diff[np.arange(len(act)), act] = np.inf
            denom = 1.0 - w * np.reciprocal(diff).sum(axis=1)
            delta = w / np.where(denom == 0, 1e-30, denom)
            z[act] = za - delta
            moving = ~(np.abs(delta) <= 1e-14 * (1.0 + np.max(np.abs(z))))
            if not moving.any():
                return z
            if sweep >= 16 and np.any((np.abs(pv) <= bound @ np.abs(V))[moving]):
                return None
            act = act[moving]
        return None

    def companion():
        K = np.zeros((n, n), dtype=complex)
        K[1:, :-1] = np.eye(n - 1)
        K[:, -1] = -asc[:-1]
        z = np.linalg.eigvals(K)
        for _ in range(3):
            dpv = horner(deriv, z)
            safe = dpv != 0
            step = np.where(safe, horner(desc, z) / np.where(safe, dpv, 1.0), 0.0)
            z = z - np.where(np.abs(step) < 0.5 * (1 + np.abs(z)), step, 0.0)
        return z

    def residuals(z):
        V = powers(z)
        moduli = np.array([abs(c) for c in asc[:-1]] + [1.0])
        return np.abs(_seed_evaluate(V, asc)) / (1.0 + _seed_evaluate(np.abs(V), moduli))

    def reconstructs(z):
        err = np.abs(np.poly(z)[::-1] - asc) / np.maximum(1.0, np.abs(asc))
        return bool(np.max(err) <= 1e-8)

    def certifies(z):
        return bool(np.all(residuals(z) <= tol)) or reconstructs(z)

    first, second = (companion, aberth) if n <= 21 else (aberth, companion)
    z = first()
    if z is None or not certifies(z):
        other = second()  # None where the iteration did not settle
        if other is not None:
            z = other
    res = residuals(z)
    order = np.argsort(np.abs(z), kind="stable")
    return z[order].tobytes(), res[order].tobytes()


def _random_roots(rng, n, radius):
    return [
        radius * rng.uniform(0.3, 1.0) * complex(math.cos(t), math.sin(t))
        for t in (rng.uniform(0.0, 2.0 * math.pi) for _ in range(n))
    ]


def _expand(zs):
    """The monic polynomial with the roots ``zs``, by ``np.poly``."""
    return MonicPolynomial(tuple(complex(c) for c in np.poly(np.array(zs))[::-1][:-1]))


def _known_roots(rng, n, radius):
    return _expand(_random_roots(rng, n, radius))


def _repeated_roots(rng, n):
    """(s - 0.9)^n, and rows whose random roots each repeat 2, 3, 4 or 6
    times."""
    rows = [_expand([0.9] * n)]
    for mult, radius in ((2, 0.9), (2, 1.1), (3, 0.95), (4, 1.05), (6, 0.8)):
        rows.append(_expand(np.repeat(_random_roots(rng, n // mult, radius), mult)))
    return rows


def _dyadic_clusters():
    """(s - (1 - 2^-e))^k wherever every coefficient is exact in binary64."""
    out = []
    for e in range(2, 10):
        for k in range(2, 9):
            a = 1 - Fraction(1, 2**e)
            exact = [math.comb(k, j) * (-a) ** (k - j) for j in range(k)]
            if all(Fraction(float(c)) == c for c in exact):
                out.append(MonicPolynomial(tuple(complex(float(c)) for c in exact)))
    return out


def _corpus():
    """Same-degree groups covering every path through the batched solver."""
    rng = random.Random(20240817)
    groups = [[random_monic(rng, 1) for _ in range(12)]]
    zero = MonicPolynomial((0j,) * 6)
    mixed = [random_monic(rng, 6, density=0.6) for _ in range(10)]
    groups.append([zero, *mixed[:4], zero, zero, *mixed[4:], zero])
    for n in (3, 5, 8, 13, 20):
        groups.append([random_monic(rng, n, real=n % 2 == 0) for _ in range(25)])
    groups.append([_known_roots(rng, 100, r) for r in (0.9, 1.1, 0.95, 1.2)])
    clusters = _dyadic_clusters()
    for k in sorted({f.degree for f in clusters}):
        groups.append([f for f in clusters if f.degree == k])
    groups.append([principal_power(F1, p / 3) for p in range(-30, 60)])
    # Above degree 21 Aberth comes first.  Simple roots at degree 24 and 30,
    # each over two chunks, where some rows settle and the others stop at
    # rounding level and go to the eigenvalues; and repeated roots at degree
    # 24, which all do.
    band = random.Random(2232)
    radii = (0.8, 0.95, 1.05, 1.2)
    for n, count in ((24, 16), (30, 10)):
        groups.append([_known_roots(band, n, radii[i % 4]) for i in range(count)])
    groups.append(_repeated_roots(band, 24))
    # Degree 130 and 160, one row per chunk: rows that Aberth settles on
    # their Newton steps, in the range where the scratch workspace is kept
    # instead of allocated per call.
    high = random.Random(130160)
    for n in (130, 160):
        groups.append([random_monic(high, n, (0.05, 0.9)) for _ in range(3)])
    # Degree 40: rows that settle, in two chunks.
    groups.append([random_monic(rng, 40, (0.05, 0.9)) for _ in range(7)])
    return groups


CORPUS = _corpus()


@pytest.fixture
def eigvals_calls(monkeypatch):
    """Shapes of the stacked companion matrices passed to ``eigvals``."""
    calls = []
    eigvals = np.linalg.eigvals

    def counting(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return calls


@pytest.fixture
def schur_cohn_batches(monkeypatch):
    """Row counts of the Schur-Cohn batches ``roots._decide_rows`` runs, each
    row at two radii."""
    calls = []
    schur_cohn = roots._schur_cohn

    def counting(a):
        calls.append(a.shape[1] // 2)
        return schur_cohn(a)

    monkeypatch.setattr(roots, "_schur_cohn", counting)
    return calls


@pytest.fixture
def aberth_calls(monkeypatch):
    """Shapes of the stacked coefficient rows passed to ``roots._aberth``."""
    calls = []
    aberth = roots._aberth

    def counting(asc):
        calls.append(asc.shape)
        return aberth(asc)

    monkeypatch.setattr(roots, "_aberth", counting)
    return calls


def _spoiled(solve, *targets):
    """A candidate that returns NaN roots for the rows of ``targets``."""
    rows = [np.array(f.coeffs + (1.0 + 0j,)) for f in targets]

    def spoiled(asc):
        z, settled = solve(asc)
        hit = np.array([any((a == r).all() for r in rows) for a in asc])
        return np.where(hit[:, None], np.nan, z), settled

    return spoiled


def _tolerances_failing(bad, otherwise=None):
    """A ``roots._tolerances`` that gives -1 to every row whose coefficient
    moduli |a_0| .. |a_{n-1}| are in ``bad``, so that no residual certifies
    it, and ``otherwise`` (default: the real tolerance) to the others."""
    tolerances = roots._tolerances

    def failing(moduli):
        tol = tolerances(moduli) if otherwise is None else np.full(len(moduli), otherwise)
        hit = [tuple(row[:-1]) in bad for row in moduli.tolist()]
        return np.where(hit, -1.0, tol)

    return failing


def _sorted_roots(z):
    return z[np.argsort(np.abs(z), kind="stable")].tobytes()


class TestBatchEqualsSingle:
    def test_corpus_covers_unsettled_rows_across_chunks(self):
        big = next(g for g in CORPUS if g[0].degree == 100)
        assert len(big) > roots._CHUNK_ELEMENTS // 100**2
        _, settled = roots._aberth(monic_rows(big))
        assert not settled.any()

    def test_equals_seed_solver(self):
        for group in CORPUS:
            for rs, f in zip(_batch(group), group):
                assert _bits(rs)[:2] == _seed_find_roots(f)

    def test_bit_identical_on_corpus(self):
        for group in CORPUS:
            batch = _batch(group)
            assert len(batch) == len(group)
            for f, rs in zip(group, batch):
                assert _bits(rs) == _bits(find_roots(f))

    @pytest.mark.parametrize("elements", [1, 2 * 36, 7 * 36])
    def test_chunk_boundaries_do_not_change_results(self, monkeypatch, elements):
        rng = random.Random(5)
        group = [random_monic(rng, 6) for _ in range(20)]
        whole = [_bits(rs) for rs in _batch(group)]
        monkeypatch.setattr(roots, "_CHUNK_ELEMENTS", elements)
        assert [_bits(rs) for rs in _batch(group)] == whole

    def test_stalled_rows_match_seed_and_single_solves(self, monkeypatch):
        stalls = {"horner": 0, "polish": 0}  # and Aberth's stalls per degree

        def vanishing(z, out):
            # Zero derivative values by a rule on the bits of z alone, so a
            # row stalls on the same sweeps in any batch and in the seed
            # solver.
            hit = np.ascontiguousarray(z).view(np.uint64)[..., ::2] % 5 == 0
            return int(hit.sum()), np.where(hit, 0, out)

        def horner_hook(horner):
            # The derivative's leading coefficient is n, not 1.
            def evaluate(desc, z):
                out = horner(desc, z)
                if np.all(desc[..., 0] != 1):
                    count, out = vanishing(z, out)
                    stalls["horner"] += count
                return out

            return evaluate

        def pair_hook(horner_pair):
            # p' is the second of the two rows of the accumulator.
            def evaluate(desc, z):
                out = horner_pair(desc, z)
                count, out[1] = vanishing(z, out[1])
                stalls["polish"] += count
                return out

            return evaluate

        def table_hook(values):
            # p' is the second of the two rows of values per point set.
            def hooked(pd, V):
                out = values(pd, V)
                count, out[..., 1, :] = vanishing(V[1], out[..., 1, :])  # V[1]: the points
                n = V.shape[-1]
                stalls[n] = stalls.get(n, 0) + count
                return out

            return hooked

        monkeypatch.setattr(roots, "_horner_pair", pair_hook(roots._horner_pair))
        monkeypatch.setattr(roots, "_values_and_slopes", table_hook(roots._values_and_slopes))
        seed = dict(horner=horner_hook(_seed_horner), values=table_hook(_seed_values))
        # Eigenvalues first at degree 3-6 (the stalls hit the Newton polish
        # by Horner's rule), Aberth first at degree 40 (they hit the
        # derivative from the power table).
        for group in CORPUS[1:4] + CORPUS[-1:]:
            batch = _batch(group)
            for f, rs in zip(group, batch):
                assert _bits(rs) == _bits(find_roots(f))
                assert _bits(rs)[:2] == _seed_find_roots(f, **seed)
        assert stalls["horner"] > 0 and stalls["polish"] > 0 and stalls[40] > 0

    def test_reconstruction_matches_np_poly(self):
        """The row-wise product expansion decides as ``np.poly`` does, on
        roots that reconstruct and on roots pushed past the tolerance.

        The two expansions round differently (numpy's convolution goes
        through BLAS dot products).  Each is within about n eps times the
        coefficients of prod(s + |z_j|) of the exact product, so a row whose
        ``np.poly`` error is within twice that of the tolerance may be
        decided either way, and is not compared."""
        eps = np.finfo(float).eps
        tol = roots._RECONSTRUCTION_TOL
        outcomes = set()
        for group in CORPUS:
            live = [f for f in group if f.support]
            asc = monic_rows(live)
            scale = np.maximum(1.0, np.abs(asc))
            n = asc.shape[1] - 1
            zc = np.linalg.eigvals(roots.companion_matrix(asc[:, :-1]))
            for shift in (0.0, 1e-10, 1e-9, 1e-8, 1e-6):
                z = zc * (1.0 + shift)
                err = np.array(
                    [np.max(np.abs(np.poly(zi)[::-1] - ai) / si)
                     for ai, zi, si in zip(asc, z, scale)]
                )
                slack = 2 * n * eps * np.array(
                    [np.max(np.poly(-np.abs(zi)).real[::-1] / si)
                     for zi, si in zip(z, scale)]
                )
                clear = np.abs(err - tol) > slack
                want = err <= tol
                got = roots._reconstructs(asc, z)
                assert (got == want)[clear].all()
                outcomes.update(want[clear].tolist())
        assert outcomes == {True, False}

    def test_scaled_residuals_match_the_horner_loop(self):
        """Residuals from the power table agree with Horner's rule over the
        scale summed power by power, within 4 (n + 1) eps of the scale: at
        the roots, and away from them where |p| is not at rounding level."""
        eps = np.finfo(float).eps
        for group in CORPUS:
            live = [f for f in group if f.support]
            asc = monic_rows(live)
            moduli = np.array([[abs(c) for c in f.coeffs] + [1.0] for f in live])
            n = asc.shape[1] - 1
            z = roots.find_root_rows(asc)[0]
            for points in (z, 1.1 * z, 0.7 * z + 0.1j):
                vals = np.zeros_like(points)
                for c in asc.T[::-1]:
                    vals = vals * points + c[:, None]
                vals = np.abs(vals)
                scale, zp = np.ones_like(vals), np.ones_like(points)
                for m in moduli[:, :-1].T:
                    scale = scale + m[:, None] * np.abs(zp)
                    zp = zp * points
                want = vals / (scale + np.abs(zp))
                got = roots._scaled_residuals(asc, moduli, points)
                assert (np.abs(got - want) <= 4 * (n + 1) * eps).all()


def _largest_abs_bits(rs):
    """``max_modulus`` and the largest Python ``abs`` of the roots, each as
    ``float.hex`` (bit for bit, NaN included)."""
    return rs.max_modulus.hex(), max(abs(z) for z in rs.roots).hex()


class TestMaxModulusField:
    """``RootSet.max_modulus`` is a field that the row core fills from the
    worst modulus it took; no root set recomputes it."""

    def test_is_a_field(self):
        assert "max_modulus" in {f.name for f in dataclasses.fields(roots.RootSet)}

    def test_equals_largest_abs(self):
        """Over every path of the batched solver, one polynomial at a time
        and as branch-set members."""
        sets = [rs for group in CORPUS for rs in _batch(group)]
        sets += [find_roots(f) for group in CORPUS for f in group]
        sets += branch_root_sets(hadamard_power(F1, Fraction(27, 8)))
        assert len(sets) > 1000
        for rs in sets:
            assert type(rs.max_modulus) is float
            got, want = _largest_abs_bits(rs)
            assert got == want, rs

    @pytest.mark.parametrize("p", [Fraction(-400), Fraction(-420), Fraction(-801, 2)])
    def test_partial_equals_largest_abs(self, p):
        """F1's powers near -400 fail to certify (max residual nan); the
        partial of the error carries the row core's modulus too."""
        with pytest.raises(UnconvergedError, match="failed to certify") as info:
            branch_root_sets(hadamard_power(F1, p))
        got, want = _largest_abs_bits(info.value.partial)
        assert got == want and math.isfinite(info.value.partial.max_modulus)

    def test_partial_of_nan_roots(self, monkeypatch):
        """Neither candidate settles and the eigenvalues fail: the partial's
        roots are all NaN, and so is its modulus."""
        group = [MonicPolynomial((0.3, 0.2)), MonicPolynomial((0.5, -0.1))]
        monkeypatch.setattr(roots, "_MAX_SWEEPS", 0)
        monkeypatch.setattr(roots, "_eigenvalues", _spoiled(roots._eigenvalues, group[1]))
        with pytest.raises(UnconvergedError) as info:
            _batch(group)
        assert _largest_abs_bits(info.value.partial) == ("nan", "nan")


class TestBatchContract:
    def test_empty(self):
        z, res, tol, worst = roots.find_root_rows(np.zeros((0, 6), dtype=complex))
        assert (z.shape, res.shape, tol.shape, worst.shape) == ((0, 5), (0, 5), (0,), (0,))

    def test_degree_cap_before_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated an array above the degree cap")

        f = MonicPolynomial((0.5,) + (0j,) * MAX_ROOT_DEGREE)
        monkeypatch.setattr(roots.np, "zeros", refuse)
        monkeypatch.setattr(roots.np, "array", refuse)
        with pytest.raises(UnsupportedDegreeError, match=str(MAX_ROOT_DEGREE)):
            find_roots(f)

    def test_first_failing_row_is_reported(self, monkeypatch):
        rng = random.Random(9)
        group = [random_monic(rng, 4) for _ in range(9)]
        bad = {tuple(abs(c) for c in group[i].coeffs) for i in (5, 7)}
        monkeypatch.setattr(roots, "_CHUNK_ELEMENTS", 2 * 16)
        monkeypatch.setattr(
            roots, "_reconstructs", lambda asc, z: np.zeros(len(z), dtype=bool)
        )
        monkeypatch.setattr(roots, "_tolerances", _tolerances_failing(bad, 1.0))
        with pytest.raises(UnconvergedError) as info:
            roots.find_root_rows(monic_rows(group))
        assert info.value.row == 5
        assert len(info.value.partial.roots) == 4


def _count_chunks(monkeypatch):
    """Record the offset of every chunk ``roots._solve_chunk`` solves."""
    offsets = []
    solve_chunk = roots._solve_chunk

    def counting(asc, offset, limit):
        offsets.append(offset)
        return solve_chunk(asc, offset, limit)

    monkeypatch.setattr(roots, "_solve_chunk", counting)
    return offsets


def _prefix_length(worst, limit):
    """Rows through the first whose largest modulus exceeds ``limit``."""
    above = np.flatnonzero(worst > limit)
    return int(above[0]) + 1 if above.size else len(worst)


class TestRowLimit:
    """``find_root_rows(asc, limit)`` is the unlimited solve cut after the
    first row whose largest modulus exceeds ``limit``; no row after it is
    solved or can raise."""

    # F1's principal powers from p = 59/3 down: Stable rows, then Unstable.
    POWERS = [principal_power(F1, p / 3) for p in range(59, -31, -1)]

    @pytest.mark.parametrize("elements", [1 << 13, 3 * 25, 25])
    def test_prefix_of_the_unlimited_solve(self, monkeypatch, elements):
        monkeypatch.setattr(roots, "_CHUNK_ELEMENTS", elements)
        rng = random.Random(71)
        for group in (self.POWERS, [random_monic(rng, 5, (0.05, 1.2)) for _ in range(40)]):
            asc = monic_rows(group)
            full = roots.find_root_rows(asc)
            worst = full[3]
            assert worst.tolist() == [find_roots(f).max_modulus for f in group]
            size = roots.chunk_rows(5)
            # Cut at the first row, at rows inside the group (a row equal to
            # the limit does not cut), and nowhere.
            ranked = np.sort(worst).tolist()
            limits = (0.0, 1.0 + roots.BOUNDARY_BAND, ranked[10], ranked[-2], ranked[-1],
                      math.inf)
            lengths = set()
            for limit in limits:
                j = _prefix_length(worst, limit)
                lengths.add(j)
                chunks = _count_chunks(monkeypatch)
                got = roots.find_root_rows(asc, limit)
                assert [a.tobytes() for a in got] == [a[:j].tobytes() for a in full]
                assert len(chunks) == -(-j // size)
            assert len(lengths) >= 3  # the limits cut at different rows

    @pytest.mark.parametrize("after", [1, 3], ids=["same chunk", "later chunk"])
    def test_uncertified_row_after_the_stop_does_not_raise(self, monkeypatch, after):
        asc = monic_rows(self.POWERS)
        limit = 1.0 + roots.BOUNDARY_BAND
        monkeypatch.setattr(roots, "_CHUNK_ELEMENTS", 3 * 25)
        full = roots.find_root_rows(asc)
        j = _prefix_length(full[3], limit)
        assert 0 < j < len(asc) and j % 3 != 0  # the stop row is not last in its chunk
        bad = j - 1 + after
        monkeypatch.setattr(
            roots, "_reconstructs", lambda asc, z: np.zeros(len(z), dtype=bool)
        )
        monkeypatch.setattr(
            roots, "_tolerances",
            _tolerances_failing({tuple(abs(c) for c in self.POWERS[bad].coeffs)}),
        )
        got = roots.find_root_rows(asc, limit)
        assert [a.tobytes() for a in got] == [a[:j].tobytes() for a in full]
        with pytest.raises(UnconvergedError) as info:
            roots.find_root_rows(asc)
        assert info.value.row == bad


class TestFallback:
    """The other candidate runs only on the rows that the first candidate
    for the degree fails to certify."""

    def test_first_candidate_changes_above_degree_21(self, eigvals_calls, aberth_calls):
        """Up to degree 21, where the eigenvalues are the cheaper candidate
        for one polynomial, they come first; one degree above, Aberth does,
        and a row it certifies never reaches ``eigvals``."""
        rng = random.Random(21)
        at_cap, above = (random_monic(rng, n, (0.05, 0.9)) for n in (21, 22))
        find_roots(at_cap)
        assert eigvals_calls == [(1, 21, 21)] and aberth_calls == []
        find_roots(above)
        assert eigvals_calls == [(1, 21, 21)] and aberth_calls == [(1, 23)]

    def test_eigenvalue_failure_falls_back_to_aberth(self, monkeypatch, aberth_calls):
        rng = random.Random(11)
        group = [random_monic(rng, 5) for _ in range(6)]
        whole = _batch(group)
        assert aberth_calls == []
        monkeypatch.setattr(roots, "_eigenvalues", _spoiled(roots._eigenvalues, group[2]))
        spoiled = _batch(group)
        assert aberth_calls == [(1, 6)]  # that row alone
        za, settled = roots._aberth(np.array([group[2].coeffs + (1.0 + 0j,)]))
        assert settled[0]
        assert _bits(spoiled[2])[0] == _sorted_roots(za[0])
        assert abs(spoiled[2].max_modulus - whole[2].max_modulus) < 1e-12
        for i in (0, 1, 3, 4, 5):
            assert _bits(spoiled[i]) == _bits(whole[i])

    def test_unsettled_iteration_falls_back_to_eigenvalues(
        self, eigvals_calls, aberth_calls
    ):
        big = next(g for g in CORPUS if g[0].degree == 100)
        batch = _batch(big)  # one row per chunk at degree 100
        assert aberth_calls == [(1, 101)] * len(big)
        assert eigvals_calls == [(1, 100, 100)] * len(big)
        for f, rs in zip(big, batch):
            zc, _ = roots._eigenvalues(np.array([f.coeffs + (1.0 + 0j,)]))
            assert _bits(rs)[0] == _sorted_roots(zc[0])

    def test_fallback_runs_on_failed_rows_only(self, monkeypatch, eigvals_calls):
        group = CORPUS[-1]  # degree 40, chunks of 5 and 2 rows
        whole = _batch(group)
        assert eigvals_calls == []
        monkeypatch.setattr(roots, "_aberth", _spoiled(roots._aberth, group[1], group[6]))
        spoiled = _batch(group)
        assert eigvals_calls == [(1, 40, 40), (1, 40, 40)]
        for i in (1, 6):
            zc, _ = roots._eigenvalues(np.array([group[i].coeffs + (1.0 + 0j,)]))
            assert _bits(spoiled[i])[0] == _sorted_roots(zc[0])
        for i in (0, 2, 3, 4, 5):
            assert _bits(spoiled[i]) == _bits(whole[i])

    @pytest.mark.parametrize("degree", [5, 40])
    def test_neither_candidate_certifies(self, monkeypatch, degree):
        rng = random.Random(degree)
        group = [random_monic(rng, degree, (0.05, 0.9)) for _ in range(7)]
        monkeypatch.setattr(roots, "_CHUNK_ELEMENTS", 4 * degree**2)
        monkeypatch.setattr(roots, "_MAX_SWEEPS", 0)  # no row settles
        monkeypatch.setattr(roots, "_eigenvalues", _spoiled(roots._eigenvalues, group[6]))
        with pytest.raises(UnconvergedError, match="failed to certify") as info:
            roots.find_root_rows(monic_rows(group))
        assert info.value.row == 6  # second chunk, row 2
        # The partial holds the eigenvalues, never an iterate that did not
        # settle.
        partial = info.value.partial.roots
        assert len(partial) == degree
        assert all(math.isnan(z.real) for z in partial)


class TestBranchSetChunks:
    def test_later_chunk_failure_names_the_branch(self, monkeypatch):
        f = MonicPolynomial((0.05, 0.04j, 0.03, -0.02))
        bset = hadamard_power(f, Fraction(1, 2))
        assert branch_set_stable(bset).status is Status.STABLE
        reps = list(bset.rotation_representatives())
        assert (len(bset), len(reps)) == (16, 8)
        target = reps[5]  # third chunk of two, and solved alone in it
        bad = np.array(next(bset.members([target])).coeffs + (1.0 + 0j,))
        monkeypatch.setattr(roots, "_CHUNK_ELEMENTS", 2 * 16)
        monkeypatch.setattr(
            roots, "_reconstructs", lambda asc, z: np.zeros(len(z), dtype=bool)
        )
        residuals = roots._scaled_residuals

        def spoiled(asc, moduli, z):
            res = residuals(asc, moduli, z)
            res[(asc == bad).all(axis=1)] = 1.0
            return res

        monkeypatch.setattr(roots, "_scaled_residuals", spoiled)
        with pytest.raises(UnconvergedError) as info:
            branch_set_stable(bset)
        # Named by its position among all 16 members, not among the 8 solved.
        assert bset.position(target) == 9
        assert str(info.value).startswith(
            f"branch 9 (index {target}): root iteration failed to certify"
        )
        partial = info.value.partial
        assert partial.residuals == (1.0,) * 4 and partial.converged == (False,) * 4
        moduli = [abs(z) for z in partial.roots]
        assert moduli == sorted(moduli)

    # 27 rotation representatives whose first Unstable one is the 16th.
    SET = hadamard_power(
        MonicPolynomial((0.01 + 0.01j, 0.02 + 0.02j, 0.01 + 0.06j, -0.01 + 0.01j)),
        Fraction(1, 3),
    )

    def _spoil(self, monkeypatch, target):
        """Make the member with branch index ``target`` fail to certify."""
        bad = self.SET.rows([target])[0]
        monkeypatch.setattr(
            roots, "_reconstructs", lambda asc, z: np.zeros(len(z), dtype=bool)
        )
        residuals = roots._scaled_residuals

        def spoiled(asc, moduli, z):
            res = residuals(asc, moduli, z)
            res[(asc == bad).all(axis=1)] = 1.0
            return res

        monkeypatch.setattr(roots, "_scaled_residuals", spoiled)

    @pytest.mark.parametrize(
        "rows_per_chunk, rep",
        [(512, 16), (512, 26), (4, 16), (4, 20)],
        ids=["one chunk, next row", "one chunk, last row", "same chunk", "later chunk"],
    )
    def test_uncertified_member_after_the_first_unstable_is_not_reached(
        self, monkeypatch, rows_per_chunk, rep
    ):
        reps = list(self.SET.rotation_representatives())
        assert len(reps) == 27
        expected = branch_set_stable(self.SET)
        assert expected.status is Status.UNSTABLE
        monkeypatch.setattr(roots, "_CHUNK_ELEMENTS", rows_per_chunk * 16)
        self._spoil(monkeypatch, reps[rep])
        # Chunks of 4: the 16th representative (index 15) is the last row of
        # the chunk 12-15.
        assert branch_set_stable(self.SET) == expected

    def test_uncertified_member_before_the_first_unstable_raises(self, monkeypatch):
        # With chunks of 4 the solved rows are 0-3, 4 and 7, 8 and 15 (see
        # TestWorkCounters).  Representative 7 has a larger modulus than any
        # row before it, so the recursion cannot place it inside w.  It is
        # the second row solved from the chunk 4-7 but the chunk's fourth
        # row, so the name must be read through the solved rows.
        reps = list(self.SET.rotation_representatives())
        monkeypatch.setattr(roots, "_CHUNK_ELEMENTS", 4 * 16)
        self._spoil(monkeypatch, reps[7])
        with pytest.raises(UnconvergedError) as info:
            branch_set_stable(self.SET)
        position = self.SET.position(reps[7])
        assert str(info.value).startswith(f"branch {position} (index {reps[7]}): ")

    def test_member_inside_w_is_never_root_found(self, monkeypatch):
        # Representative 14 (modulus 0.848) lies inside w = 0.998, the
        # modulus of representative 8, when its chunk 12-15 is reached: it is
        # skipped, so its failure to certify can no longer raise.
        reps = list(self.SET.rotation_representatives())
        expected = branch_set_stable(self.SET)
        monkeypatch.setattr(roots, "_CHUNK_ELEMENTS", 4 * 16)
        self._spoil(monkeypatch, reps[14])
        assert branch_set_stable(self.SET) == expected

    def test_cut_row_within_the_limit_goes_on_with_its_chunk(self, monkeypatch):
        """A row the recursion calls certainly not stable at 1 +
        BOUNDARY_BAND but the root finder puts within it (a disagreement at
        the band edge) does not end the fold: the rest of its chunk is
        solved too."""
        f = MonicPolynomial((0.03, 0.02j, 0.01, -0.025, 0.005))
        bset = hadamard_power(f, Fraction(2, 3))
        expected = branch_set_stable(bset)
        assert expected.status is Status.STABLE
        decide_rows = roots._decide_rows

        def cutting_row_1(asc, inner):
            above, inside, known = decide_rows(asc, inner)
            above[1] = True
            return above, inside, known

        monkeypatch.setattr(roots, "_decide_rows", cutting_row_1)
        solved = _solved_representatives(monkeypatch, bset)
        assert branch_set_stable(bset) == expected
        # The first chunk, 0-9, takes no batch.  The recursion cuts the
        # second, 10-80, after its row 1 (representative 11); of the rows
        # after it, those not inside w are solved too.
        assert solved == [list(range(10)), [10, 11], [27, 30, 59, 76, 77]]

    def test_uncertified_row_past_a_skipped_one_is_named(self, monkeypatch):
        """The second chunk, 10-80, solves 10, 11, 27, 30, 59, 76 and 77.
        With 11 forced inside w and skipped, 27 is the second row solved but
        row 17 of the chunk, and a failure there names representative 27."""
        f = MonicPolynomial((0.03, 0.02j, 0.01, -0.025, 0.005))
        bset = hadamard_power(f, Fraction(2, 3))
        reps = list(bset.rotation_representatives())
        decide_rows = roots._decide_rows

        def skipping_row_1(asc, inner):
            above, inside, known = decide_rows(asc, inner)
            inside[1] = True
            return above, inside, known

        monkeypatch.setattr(roots, "_decide_rows", skipping_row_1)
        solved = _solved_representatives(monkeypatch, bset)
        assert branch_set_stable(bset).status is Status.STABLE
        assert solved == [list(range(10)), [10, 27, 30, 59, 76, 77]]
        fail_row(monkeypatch, bset.rows([reps[27]])[0])
        with pytest.raises(UnconvergedError) as info:
            branch_set_stable(bset)
        position = bset.position(reps[27])
        assert str(info.value).startswith(f"branch {position} (index {reps[27]}): ")

    def test_first_chunk_takes_no_recursion_batch(self, monkeypatch, schur_cohn_batches):
        """A set whose representatives all fit in the first chunk is
        root-found at once, with no Schur-Cohn batch."""
        f = MonicPolynomial((0.05, 0.04j, 0.03, -0.02))
        bset = hadamard_power(f, Fraction(1, 2))
        expected = _reference_verdict(bset)
        solved = _solved_representatives(monkeypatch, bset)
        verdict = branch_set_stable(bset)
        assert (verdict.status, verdict.max_modulus) == expected
        assert expected[0] is Status.STABLE
        # 8 representatives, within the first chunk of 16 at degree 4.
        assert solved == [list(range(8))]
        assert schur_cohn_batches == []

    def test_first_chunk_size(self, monkeypatch):
        """The first chunk holds min(chunk_rows(n), max(1, 256 // n^2))
        representatives at every degree, above the recursion's cap too."""
        expected = {5: 10, 8: 4, 16: 1, 33: 1}
        assert roots.chunk_rows(33) == 7
        rng = random.Random(25)
        for n, rows in expected.items():
            # Five small coefficients at 1/2: 16 representatives, all
            # Stable, so the first solve is never cut short.
            coeffs = [0j] * n
            for k in (0, 1, 2, n - 2, n - 1):
                coeffs[k] = complex(rng.uniform(0.001, 0.01), rng.uniform(0.001, 0.01))
            bset = hadamard_power(MonicPolynomial(tuple(coeffs)), Fraction(1, 2))
            assert len(list(bset.rotation_representatives())) == 16
            with monkeypatch.context() as m:
                solved = _solved_representatives(m, bset)
                assert branch_set_stable(bset).status is Status.STABLE
            assert solved[0] == list(range(rows)), n

    @pytest.mark.parametrize(
        "p, status, worst",
        [
            (Fraction(3, 2), Status.UNSTABLE, 1.0369896574048159),
            (Fraction(7, 2), Status.STABLE, 0.9979584866827084),
            (Fraction(2, 3), Status.UNSTABLE, 1.058808983607084),
        ],
        ids=["3/2", "7/2", "2/3"],
    )
    def test_above_the_cap_runs_no_recursion(
        self, monkeypatch, schur_cohn_batches, p, status, worst
    ):
        """At degree 33 ``_decide_rows`` decides nothing and runs no batch:
        the representatives after the first chunk of one are all solved,
        and the verdicts keep their bits."""
        f = MonicPolynomial((0.7,) + (0j,) * 31 + (0.9,))
        assert f.degree == roots._SCHUR_COHN_MAX_DEGREE + 1
        bset = hadamard_power(f, p)
        solved = _solved_representatives(monkeypatch, bset)
        verdict = branch_set_stable(bset)
        assert (verdict.status, verdict.max_modulus) == (status, worst)
        assert schur_cohn_batches == []
        assert solved[0] == [0]
        if status is Status.STABLE:
            assert solved == [[0], [1]]


def _solved_representatives(monkeypatch, bset):
    """A list that records, for each ``find_root_rows`` call, the positions
    among the rotation representatives of bset of the rows it is given."""
    reps = list(bset.rotation_representatives())
    position = {row: i for i, row in enumerate(map(tuple, bset.rows(reps).tolist()))}
    calls = []
    find_root_rows = roots.find_root_rows

    def recording(asc, limit=math.inf):
        calls.append([position[row] for row in map(tuple, asc.tolist())])
        return find_root_rows(asc, limit)

    monkeypatch.setattr(roots, "find_root_rows", recording)
    return calls


def _reference_verdict(bset):
    """The verdict rule on root sets of the rotation representatives, one
    member polynomial at a time: stop at the first Unstable member, the worst
    modulus through it, else over all of them."""
    worst, all_stable = 0.0, True
    for rs in _batch(bset.members(bset.rotation_representatives())):
        worst = max(worst, rs.max_modulus)
        status = classify(rs.max_modulus)
        if status is Status.UNSTABLE:
            return status, worst
        all_stable = all_stable and status is Status.STABLE
    return (Status.STABLE if all_stable else Status.MARGINAL), worst


def _branch_corpus():
    """Seeded branch sets for m = 2..6: real inputs of both signs and complex
    ones, zero coefficients, support up to 7, plus s^3 (empty support) and
    s^2 + 1 at 1/2, whose branches s^2 +- 1 are Marginal."""
    rng = random.Random(58)
    cases = [
        (MonicPolynomial((0j, 0j, 0j)), Fraction(1, 3)),
        (MonicPolynomial((1.0, 0.0)), Fraction(1, 2)),
    ]
    for i in range(200):
        m = 2 + i % 5
        real = i % 3 == 0
        if i % 10 == 9:  # degree 8 with one zero coefficient
            m = 2 + i % 20 // 10
            coeffs = list(random_monic(rng, 8, (0.02, 1.5), real=real).coeffs)
            coeffs[rng.randrange(8)] = 0j
            f = MonicPolynomial(tuple(coeffs))
        else:
            f = random_monic(rng, rng.randint(1, 7), (0.02, 1.5), density=0.7, real=real)
        if real:
            f = MonicPolynomial(tuple(c * rng.choice((1, -1)) for c in f.coeffs))
        p = Fraction(rng.randint(1, 2 * m), m)
        if p.denominator ** len(f.support) <= 3**7:
            cases.append((f, p))
    return cases


def _recursion_corpus():
    """1,500 seeded branch sets: m = 2..4, degree 1..6 and coefficient moduli
    in (0.05, 1.2), a third of them real, whose conjugate members tie in
    modulus;
    s^3, s^2 + 1 at 1/2 (Marginal), a set of degree 33 that only the root
    finder solves, and the two inputs of ``test_overflow_warns_nothing``;
    and s^n + e^(i theta), whose members all have every root on the circle."""
    rng = random.Random(2461)
    fs = [
        (MonicPolynomial((0j, 0j, 0j)), Fraction(1, 3)),
        (MonicPolynomial((1.0, 0.0)), Fraction(1, 2)),
        (MonicPolynomial((0.3,) + (0j,) * 31 + (0.2j,)), Fraction(1, 2)),
        (MonicPolynomial((0.2,) + (0j,) * 6 + (1e90,)), Fraction(1, 2)),
        (MonicPolynomial((1.0,) + (0j,) * 38 + (1e16,)), Fraction(1, 2)),
    ]
    for n in range(1, 5):
        for m in range(2, 5):
            theta = rng.uniform(-math.pi, math.pi)
            f = MonicPolynomial((complex(math.cos(theta), math.sin(theta)),) + (0j,) * (n - 1))
            fs += [(f, Fraction(k, m)) for k in range(1, m) if math.gcd(k, m) == 1]
    while len(fs) < 1500:
        m = rng.randint(2, 4)
        real = len(fs) % 3 == 0
        f = random_monic(rng, rng.randint(1, 6), (0.05, 1.2), density=0.8, real=real)
        if real:
            f = MonicPolynomial(tuple(c * rng.choice((1, -1)) for c in f.coeffs))
        if m ** len(f.support) <= 256:
            fs.append((f, Fraction(rng.randint(1, 2 * m), m)))
    return [hadamard_power(f, p) for f, p in fs]


class TestBranchSetAgreement:
    def test_equals_member_solves(self):
        """Status and max_modulus equal, bit for bit, the verdict folded from
        ``find_root_rows`` on the member polynomials."""
        counts = {s: 0 for s in Status}
        supports = set()
        for f, p in _branch_corpus():
            bset = hadamard_power(f, p)
            verdict = branch_set_stable(bset)
            status, worst = _reference_verdict(bset)
            assert verdict.status is status, (f, p)
            assert type(verdict.max_modulus) is float
            assert verdict.max_modulus == worst, (f, p)
            counts[status] += 1
            supports.add(len(f.support))
        assert counts[Status.MARGINAL] >= 1
        assert counts[Status.STABLE] >= 40 and counts[Status.UNSTABLE] >= 40
        assert {0, 7} <= supports

    def test_root_sets_equal_member_solves(self):
        """``branch_root_sets``, gathered from the branch table, equals
        ``find_root_rows`` on the member polynomials bit for bit, in
        enumeration order."""
        for f, p in _branch_corpus()[::4]:
            bset = hadamard_power(f, p)
            expected = [_bits(rs) for rs in _batch(bset)]
            assert [_bits(rs) for rs in branch_root_sets(bset)] == expected, (f, p)

    def test_root_sets_across_chunks(self, monkeypatch):
        """The same with three rows a chunk: 27 members in nine blocks."""
        f = MonicPolynomial((0.05, 0.04j, 0.03, -0.02))
        bset = hadamard_power(f, Fraction(1, 3))
        expected = [_bits(rs) for rs in _batch(bset)]
        monkeypatch.setattr(roots, "_CHUNK_ELEMENTS", 3 * 16)
        assert roots.chunk_rows(4) == 3
        assert [_bits(rs) for rs in branch_root_sets(bset)] == expected

    @pytest.mark.filterwarnings("error")
    def test_equals_member_solves_at_every_chunk_size(self, monkeypatch):
        """Status and max_modulus equal the reference bit for bit on 1,500
        seeded sets at three chunk sizes, so the rows the recursion cuts or
        skips never change a verdict; a set the reference cannot certify
        raises for the same branch."""
        corpus = _recursion_corpus()
        assert len(corpus) >= 1500
        expected = []
        for bset in corpus:
            try:
                expected.append(_reference_verdict(bset))
            except UnconvergedError as exc:
                expected.append(exc.row)  # the representative that failed
        counts = {s: 0 for s in Status}
        for status, _ in filter(lambda e: isinstance(e, tuple), expected):
            counts[status] += 1
        assert counts[Status.MARGINAL] >= 20, counts
        assert counts[Status.STABLE] >= 400 and counts[Status.UNSTABLE] >= 400, counts
        assert expected.count(0) == 2  # the overflow inputs, at the principal
        for elements in (1, 4 * 25, roots._CHUNK_ELEMENTS):
            monkeypatch.setattr(roots, "_CHUNK_ELEMENTS", elements)
            for bset, want in zip(corpus, expected):
                if isinstance(want, int):
                    index = list(bset.rotation_representatives())[want]
                    with pytest.raises(UnconvergedError) as info:
                        branch_set_stable(bset)
                    name = f"branch {bset.position(index)} (index {index}): "
                    assert str(info.value).startswith(name)
                    continue
                verdict = branch_set_stable(bset)
                assert (verdict.status, verdict.max_modulus) == want, (bset, elements)

    @pytest.mark.filterwarnings("error")
    def test_scaling_overflow_warns_nothing(self):
        """A branch coefficient one ulp below the float maximum overflows
        when the recursion scales it to 1 + BOUNDARY_BAND; the row goes to
        the root finder instead, with no warning from numpy."""
        big = np.nextafter(np.finfo(float).max, 0)
        bset = hadamard_power(MonicPolynomial((0.5, big ** (2 / 3))), Fraction(3, 2))
        assert abs(bset.table[1, 0]) > np.finfo(float).max / (1.0 + roots.BOUNDARY_BAND)
        verdict = branch_set_stable(bset)
        assert (verdict.status, verdict.max_modulus) == _reference_verdict(bset)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "f",
        [
            # The root near -1e45 overflows z^8 (eigenvalues first), and the
            # one near -1e8 overflows z^40 (Aberth first).
            MonicPolynomial((0.2,) + (0j,) * 6 + (1e90,)),
            MonicPolynomial((1.0,) + (0j,) * 38 + (1e16,)),
        ],
    )
    def test_overflow_warns_nothing(self, f):
        bset = hadamard_power(f, Fraction(1, 2))
        with pytest.raises(UnconvergedError, match=r"^branch 0 \(index \(0, 0\)\)"):
            branch_set_stable(bset)


def _sweep_per_polynomial(f, powers):
    """``report.sweep`` by the per-polynomial path: one principal power and
    one root set per power."""
    ps = sorted(powers)
    return [
        report.SweepRecord(p, classify(rs.max_modulus) is Status.STABLE, rs.max_modulus, rs.roots)
        for p, rs in zip(ps, _batch(principal_power(f, p) for p in ps))
    ]


class TestSweepRows:
    """``report.sweep`` reads principal rows and sorted root rows, never a
    polynomial or a root set per power."""

    def test_equals_per_polynomial_path(self):
        rng = random.Random(606)
        for n in (3, 4, 5, 6, 7, 8, 40):
            for real in (True, False):
                if n == 40:  # 5 rows per chunk: the sweep spans 20 chunks
                    f = random_monic(rng, n, (0.05, 0.9), real=real)
                    powers = [0.05 * p for p in range(1, 101)]
                else:
                    f = random_monic(rng, n, (0.05, 3.0), density=0.8, real=real)
                    powers = [0.25 * p for p in range(-40, 41)] + [0.0, 1 / 3]
                rng.shuffle(powers)
                got, want = report.sweep(f, powers), _sweep_per_polynomial(f, powers)
                assert got == want
                assert [np.array(r.roots).tobytes() for r in got] == [
                    np.array(r.roots).tobytes() for r in want
                ]
                assert [r.max_modulus for r in got] == [r.max_modulus for r in want]

    def test_uncertified_row_is_its_sorted_position(self, monkeypatch):
        bad = principal_power(F1, 3.0)
        monkeypatch.setattr(roots, "_CHUNK_ELEMENTS", 2 * 25)  # two rows per chunk
        monkeypatch.setattr(
            roots, "_reconstructs", lambda asc, z: np.zeros(len(z), dtype=bool)
        )
        moduli = {tuple(abs(c) for c in bad.coeffs)}
        monkeypatch.setattr(roots, "_tolerances", _tolerances_failing(moduli))
        with pytest.raises(UnconvergedError) as alone:
            find_roots(bad)
        with pytest.raises(UnconvergedError) as info:
            report.sweep(F1, [5.0, 1.0, 3.0, 2.0, 4.0])
        assert info.value.row == 2
        assert _bits(info.value.partial) == _bits(alone.value.partial)

    def test_no_polynomial_per_power(self, monkeypatch):
        built = []
        post_init = MonicPolynomial.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(MonicPolynomial, "__post_init__", counting)
        assert len(report.sweep(F1, [float(p) for p in range(1, 101)])) == 100
        auto_onset(F1, "max")
        auto_onset(report.EXPERIMENT_POLYS[2]["g"], "min")
        assert built == []
        MonicPolynomial((0.5,))
        assert len(built) == 1  # the seam counts

    def test_degree_cap_before_allocation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built rows above the degree cap")

        f = MonicPolynomial((0.5,) + (0j,) * MAX_ROOT_DEGREE)
        monkeypatch.setattr(report, "principal_rows", refuse)
        with pytest.raises(UnsupportedDegreeError, match=str(MAX_ROOT_DEGREE)):
            report.sweep(f, [float(p) for p in range(1000)])

    def test_non_finite_power_is_input_error(self):
        for p in (math.nan, math.inf):
            with pytest.raises(InvalidInputError, match="coefficients must be finite"):
                report.sweep(F1, [1.0, p])


def _in_new_thread(solve):
    """``solve()`` run in a thread of its own, so with a fresh workspace."""
    out = []
    thread = threading.Thread(target=lambda: out.append(solve()))
    thread.start()
    thread.join()
    return out[0]


class TestWorkspace:
    """The scratch workspace each thread keeps (``roots._scratch``) changes
    no result, and holds no more than ``roots._WORKSPACE_CAP`` values."""

    ROWS = [random_monic(random.Random(n), n, (0.05, 0.9)) for n in (60, 160, 300)]

    def test_state_changes_no_result(self):
        row, big, above = self.ROWS
        assert (2 * above.degree + 1) * above.degree > roots._WORKSPACE_CAP
        fresh = _in_new_thread(lambda: _bits(find_roots(row)))
        find_roots(big)
        assert _bits(find_roots(row)) == fresh
        find_roots(above)
        assert _bits(find_roots(row)) == fresh
        assert roots._workspace.buf.size <= roots._WORKSPACE_CAP

    def test_kept_across_calls(self):
        row, big, above = self.ROWS

        def solves():
            find_roots(big)
            kept = roots._workspace.buf
            find_roots(row)
            find_roots(above)  # above the cap: its arrays are its own
            return kept, roots._workspace.buf

        kept, after = _in_new_thread(solves)
        assert after is kept
        assert kept.size == 2 * 161 * 160  # the residuals' need at degree 160

    def test_threads_get_the_bits_of_serial_solves(self):
        rng = random.Random(2)
        groups = [
            [random_monic(rng, rng.randint(60, 160), (0.05, 0.9)) for _ in range(20)]
            for _ in range(2)
        ]
        serial = [[_bits(find_roots(f)) for f in group] for group in groups]
        start = threading.Barrier(len(groups))
        out = [None] * len(groups)

        def solve(i):
            start.wait()
            out[i] = [_bits(find_roots(f)) for f in groups[i]]

        threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(groups))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert out == serial

    def test_warm_solve_allocates_little(self):
        # A degree-160 row that Aberth settles: its table, pairwise block
        # and residual products were about 1,090 KiB of fresh arrays per
        # call; the workspace leaves about 290 KiB.
        f = self.ROWS[1]
        find_roots(f)
        tracemalloc.start()
        try:
            find_roots(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 400 * 1024


class TestWorkCounters:
    """Deterministic work per call, counted without wall time."""

    def test_degree_100_corpus_rows_stop_at_rounding_level(self, monkeypatch):
        # Their roots reach rounding level before the step test fires, so
        # each row stops at the first sweep that may test for it, not after
        # _MAX_SWEEPS, and goes to the eigenvalues (TestFallback).
        big = next(g for g in CORPUS if g[0].degree == 100)
        sweeps = []
        powers = roots._powers

        def counting(z, n, *out):
            sweeps[-1] += 1
            return powers(z, n, *out)

        monkeypatch.setattr(roots, "_powers", counting)
        for row in monic_rows(big):
            sweeps.append(0)
            _, settled = roots._aberth(row[None])
            assert not settled.any()
        assert sweeps == [roots._ROUNDING_SWEEP + 1] * len(big)

    def test_sweep_of_100_powers_is_one_stacked_solve(self, eigvals_calls):
        records = report.sweep(F1, [float(p) for p in range(1, 101)])
        assert len(records) == 100
        assert eigvals_calls == [(100, 5, 5)]

    def test_sweep_of_100_powers_certifies_as_arrays(self, monkeypatch):
        calls = []
        reconstructs = roots._reconstructs

        def counting(asc, z):
            calls.append({tuple(row[:-1]) for row in asc.tolist()})
            return reconstructs(asc, z)

        monkeypatch.setattr(roots, "_reconstructs", counting)
        powers = [float(p) for p in range(1, 101)]
        whole = report.sweep(F1, powers)
        # The residuals of every row certify, so none is reconstructed.
        assert calls == []
        # Rows whose residuals cannot certify go to the reconstruction as
        # one stack, and no other row does.
        bad = [principal_power(F1, p) for p in powers[::7]]
        moduli = {tuple(abs(c) for c in f.coeffs) for f in bad}
        monkeypatch.setattr(roots, "_tolerances", _tolerances_failing(moduli))
        assert report.sweep(F1, powers) == whole
        assert calls == [{f.coeffs for f in bad}]

    def test_sweep_chunks_by_degree(self, eigvals_calls, aberth_calls):
        rng = random.Random(3)
        f = random_monic(rng, 40, modulus_range=(0.05, 0.9))
        report.sweep(f, [0.05 * p for p in range(1, 101)])
        rows = roots._CHUNK_ELEMENTS // 40**2
        expected = [min(rows, 100 - start) for start in range(0, 100, rows)]
        # Aberth is the first candidate above degree 32 and certifies every
        # row, so the eigenvalue fallback never runs.
        assert aberth_calls == [(k, 41) for k in expected]
        assert eigvals_calls == []

    def test_dyadic_clusters_never_iterate(self, eigvals_calls, aberth_calls):
        """Exact multiple roots, on which Aberth never settles, are certified
        by their eigenvalues, the first candidate at these degrees."""
        clusters = _dyadic_clusters()
        assert len(clusters) == 50
        for k in sorted({f.degree for f in clusters}):
            roots.find_root_rows(monic_rows(f for f in clusters if f.degree == k))
        for f in clusters:
            find_roots(f)
        assert aberth_calls == []
        assert len(eigvals_calls) == 7 + len(clusters)

    def test_branch_set_is_one_stacked_solve(self, eigvals_calls):
        f = MonicPolynomial((0.03, 0.02j, 0.01, -0.025, 0.005))
        bset = hadamard_power(f, Fraction(2, 3))
        assert branch_set_stable(bset).status is Status.STABLE
        # One member per rotation orbit: 3^4 of the 3^5 branches.  The first
        # chunk of 10 is solved whole and gives w; of the other 71, the 7
        # the recursion cannot place inside w are solved as one stack.
        assert eigvals_calls == [(10, 5, 5), (7, 5, 5)]

    def test_principal_unstable_set_is_one_chunk(self, eigvals_calls, schur_cohn_batches):
        f = MonicPolynomial((1.5, 0.0, 1.2j, -0.9, 1.1, 0.8 - 0.4j, 1.3, 0.7))
        bset = hadamard_power(f, Fraction(1, 3))
        assert len(bset) == 3**7
        assert branch_set_stable(bset).status is Status.UNSTABLE
        # 729 representatives; the first chunk of 4 at degree 8 is solved
        # whole, with no recursion batch, and its first row decides.
        assert eigvals_calls == [(4, 8, 8)]
        assert schur_cohn_batches == []
        assert is_schur_stable(bset.principal).status is Status.UNSTABLE

    def test_no_chunk_after_the_first_unstable_branch(self, eigvals_calls, monkeypatch):
        f = MonicPolynomial((0.01 + 0.01j, 0.02 + 0.02j, 0.01 + 0.06j, -0.01 + 0.01j))
        bset = hadamard_power(f, Fraction(1, 3))
        statuses = [
            classify(rs.max_modulus)
            for rs in _batch(bset.members(bset.rotation_representatives()))
        ]
        assert len(statuses) == 27
        assert statuses.index(Status.UNSTABLE) == 15
        eigvals_calls.clear()
        monkeypatch.setattr(roots, "_CHUNK_ELEMENTS", 4 * 16)
        assert branch_set_stable(bset).status is Status.UNSTABLE
        # Chunks of 4 through the one holding row 15: rows 0-3, then of
        # 4-15 only 4, 7, 8 and 15, the rest lying inside the worst modulus
        # so far.  No chunk after row 15's is gathered or solved.
        assert eigvals_calls == [(4, 4, 4), (2, 4, 4), (1, 4, 4), (1, 4, 4)]

    # A first chunk of 10 of 81 representatives, then chunks of 16: of
    # those, rows 10 and 11 lie outside the first chunk's w, and row 77's
    # modulus ties that of row 10, the worst, so the recursion cannot place
    # it strictly inside.  In chunks of 4 of 27 (the first chunk also holds
    # 4 at degree 4) with the first Unstable row at 15, rows 5, 6 and 9-14
    # lie inside.
    @pytest.mark.parametrize(
        "bset, rows_per_chunk, expected",
        [
            (
                hadamard_power(
                    MonicPolynomial((0.03, 0.02j, 0.01, -0.025, 0.005)), Fraction(2, 3)
                ),
                16,
                [list(range(10)), [10, 11], [77]],
            ),
            (TestBranchSetChunks.SET, 4, [[0, 1, 2, 3], [4, 7], [8], [15]]),
        ],
        ids=["all stable", "other unstable"],
    )
    def test_rows_root_found(self, monkeypatch, bset, rows_per_chunk, expected):
        """The rows that reach ``find_root_rows``, as positions among the
        rotation representatives."""
        n = bset.base.degree
        monkeypatch.setattr(roots, "_CHUNK_ELEMENTS", rows_per_chunk * n * n)
        solved = _solved_representatives(monkeypatch, bset)
        branch_set_stable(bset)
        assert solved == expected
