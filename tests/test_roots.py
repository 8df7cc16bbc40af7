import cmath
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import fail_row, monic_rows, random_monic
from hadstab import (
    BOUNDARY_BAND,
    BracketError,
    InvalidInputError,
    MonicPolynomial,
    SimplexWeights,
    Status,
    UnconvergedError,
    auto_onset,
    branch_set_stable,
    find_roots,
    fujiwara_bound,
    hadamard_power,
    is_schur_stable,
    principal_power,
    principal_rows,
    real_form,
    synthesize_witness,
)
from hadstab import roots
from hadstab.roots import classify, find_root_rows, row_statuses

F1 = MonicPolynomial((0.7, 0.2, 0.9, 0.0, 0.0))
# Its principal power at p = 128 has coefficients up to about 1e69, and
# LAPACK's eigenvalue iteration fails to converge on its companion matrix
# (numpy 2.4, scipy-openblas).
F220 = MonicPolynomial(
    (0.0, 2.5457630447573854, 1.7460793442894533, 2.1800808902204083,
     1.3158851629179142, 3.4557940835957077, 3.2527793174347632)
)


class TestFindRoots:
    def test_s2_plus_1(self):
        rs = find_roots(MonicPolynomial((1.0, 0.0)))
        got = sorted(rs.roots, key=lambda z: z.imag)
        assert got[0] == pytest.approx(-1j, abs=1e-12)
        assert got[1] == pytest.approx(1j, abs=1e-12)
        assert rs.max_modulus == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_power_of_s(self):
        for n in (1, 3, 7):
            rs = find_roots(MonicPolynomial((0j,) * n))
            assert rs.roots == (0j,) * n
            assert rs.max_modulus == 0.0

    def test_degree_one(self):
        rs = find_roots(MonicPolynomial((-2.5 + 1j,)))
        assert rs.roots[0] == pytest.approx(2.5 - 1j, abs=1e-14)

    def test_modulus_order(self, rng):
        for _ in range(30):
            f = random_monic(rng, rng.randint(2, 9))
            rs = find_roots(f)
            mods = [abs(z) for z in rs.roots]
            assert mods == sorted(mods)
            assert len(rs.roots) == f.degree

    def test_multiple_root(self):
        # (s - 0.5)^4
        f = MonicPolynomial((0.0625, -0.5, 1.5, -2.0))
        rs = find_roots(f)
        assert len(rs.roots) == 4
        for z in rs.roots:
            assert z == pytest.approx(0.5, abs=1e-3)

    def test_reconstruction_over_spec_domain(self, rng):
        # degrees up to 10, coefficient moduli up to 1e3
        for _ in range(200):
            f = random_monic(rng, rng.randint(1, 10), modulus_range=(1e-3, 1e3))
            rs = find_roots(f)
            recon = np.poly(np.array(rs.roots))[::-1]
            asc = np.array(list(f.coeffs) + [1.0 + 0j])
            err = np.abs(recon - asc) / np.maximum(1.0, np.abs(asc))
            assert err.max() <= 1e-8

    def test_residuals_reported(self):
        rs = find_roots(F1)
        assert len(rs.residuals) == 5
        assert all(r >= 0 for r in rs.residuals)
        assert all(rs.converged)

    def test_json(self):
        obj = find_roots(MonicPolynomial((1.0, 0.0))).to_json()
        assert set(obj) == {"roots", "max_modulus"}
        assert len(obj["roots"]) == 2


def _from_dyadic_roots(zs, bits=40):
    """Monic polynomial with roots rounded to Gaussian dyadics x/2^bits + i
    y/2^bits, multiplied out exactly in integers and rounded once per
    coefficient, and the exact largest modulus of those roots."""
    scale = 1 << bits
    dyadic = [(round(z.real * scale), round(z.imag * scale)) for z in zs]
    re, im = [1], [0]  # ascending coefficients of prod (s - (x + iy))
    for x, y in dyadic:
        re, im = (
            [-x * a + y * b + c for a, b, c in zip(re + [0], im + [0], [0] + re)],
            [-x * b - y * a + c for a, b, c in zip(re + [0], im + [0], [0] + im)],
        )
    n = len(dyadic)
    coeffs = tuple(
        complex(re[k] / scale ** (n - k), im[k] / scale ** (n - k)) for k in range(n)
    )
    top = max(math.hypot(x, y) for x, y in dyadic) / scale
    return MonicPolynomial(coeffs), top


def _jittered_circle(rng, n, radius):
    offset = rng.uniform(0.0, 2.0 * math.pi)
    return [
        radius
        * (1.0 + rng.uniform(-0.005, 0.005))
        * complex(math.cos(t), math.sin(t))
        for t in (offset + 2.0 * math.pi * (j + rng.uniform(-0.2, 0.2)) / n for j in range(n))
    ]


class TestAberthStart:
    """The Newton-polygon start: high-degree solves settle in few sweeps."""

    @pytest.fixture
    def power_tables(self, monkeypatch):
        """Number of power tables built, one per Aberth sweep."""
        calls = []
        powers = roots._powers

        def counting(z, n, *out):
            calls.append(z.shape)
            return powers(z, n, *out)

        monkeypatch.setattr(roots, "_powers", counting)
        return calls

    @pytest.mark.parametrize(
        "degree, radius",
        [(120, 1.3), (128, 0.95), (137, 0.6), (150, 1.4), (160, 1.25), (160, 0.8)],
    )
    def test_high_degree_settles_and_certifies(self, power_tables, degree, radius):
        rng = random.Random(degree * 1000 + round(radius * 100))
        zs = _jittered_circle(rng, degree - degree // 4, radius)
        zs += _jittered_circle(rng, degree // 4, radius * rng.uniform(0.3, 0.9))
        f, top = _from_dyadic_roots(zs)
        _, settled = roots._aberth(np.array([f.coeffs + (1.0 + 0j,)]))
        assert settled.all()
        assert 1 <= len(power_tables) <= 8  # sweeps
        rs = find_roots(f)  # raises UnconvergedError unless certified
        assert abs(rs.max_modulus - top) <= 1e-9

    def test_edges_start_at_their_binomial_roots(self):
        # s^30 - c: one edge of 30 points, started on the 30th roots of c,
        # turned by 0.5 / 30.
        n, c = 30, 3e-5 * cmath.exp(2.1j)
        start = roots._start(np.array([[-c] + [0j] * (n - 1) + [1.0 + 0j]]))[0]
        rho = abs(c) ** (1 / n)
        turn = cmath.exp(0.5j / n)
        expected = [c ** (1 / n) * cmath.exp(2j * math.pi * j / n) * turn for j in range(n)]
        assert max(abs(z - w) for z, w in zip(start, expected)) <= 1e-15 * rho
        # Only one-point edges, and a_0 = a_1 = 0: every point keeps its
        # uniform angle on its circle, turned by 2 pi k1 / n, bit for bit.
        n = 9
        asc = np.array(
            [[0j, 0j] + [math.exp(-0.1 * (n - k) ** 2) * cmath.exp(1j * k) for k in range(2, n)]
             + [1.0 + 0j]]
        )
        circles = roots._newton_polygon([-math.inf] * 2 + np.log(np.abs(asc[0, 2:])).tolist())
        assert [size for _, size, _ in circles] == [2] + [1] * (n - 2)
        expected = np.concatenate([
            radius * np.exp(1j * (2.0 * np.pi * ((np.arange(size) + 0.375) / size + first / n) + 0.5 / n))
            for first, size, radius in circles
        ])
        assert roots._start(asc)[0].tobytes() == expected.tobytes()

    def test_zero_low_coefficients_settle_without_warnings(self, rng):
        # a_0 = a_1 = 0: two roots at the origin, whose starting points must
        # not coincide.
        rows = [
            (0j, 0j) + random_monic(rng, n, modulus_range=(0.1, 2.0)).coeffs[2:]
            for n in (4, 5, 8, 13, 20)
            for _ in range(4)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for coeffs in rows:
                _, settled = roots._aberth(np.array([coeffs + (1.0 + 0j,)]))
                assert settled.all()
                rs = find_roots(MonicPolynomial(coeffs))
                assert max(abs(z) for z in rs.roots[:2]) <= 1e-12


class TestAberthFreeze:
    """Each root leaves the sweeps once it settles, for good; a row at
    rounding level stops early and is left to the eigenvalues."""

    @pytest.mark.parametrize("degree", [64, 160])
    @pytest.mark.parametrize("radius", [0.9, 1.0])
    def test_uniform_disc_stops_at_rounding_level(self, monkeypatch, degree, radius):
        # Roots uniform in a disc reach rounding level before the step test
        # fires; Aberth stops at the first sweep that may test for it, not
        # after _MAX_SWEEPS, and the eigenvalues answer.
        sweeps = [0]
        powers = roots._powers

        def counting(z, n, *out):
            sweeps[0] += 1
            return powers(z, n, *out)

        for seed in range(3):
            rng = random.Random(seed * 1000 + degree)
            zs = [
                radius * math.sqrt(rng.random()) * complex(math.cos(t), math.sin(t))
                for t in (rng.uniform(0.0, 2.0 * math.pi) for _ in range(degree))
            ]
            f, top = _from_dyadic_roots(zs)
            monkeypatch.setattr(roots, "_powers", counting)
            sweeps[0] = 0
            _, settled = roots._aberth(np.array([f.coeffs + (1.0 + 0j,)]))
            monkeypatch.setattr(roots, "_powers", powers)
            assert not settled.any()
            assert sweeps[0] == roots._ROUNDING_SWEEP + 1
            rs = find_roots(f)  # raises UnconvergedError unless certified
            # These roots are well conditioned: the coefficients, exact before
            # one rounding each, have moduli up to about 1e3.
            assert abs(rs.max_modulus - top) <= 1e-9

    def test_ill_conditioned_row_keeps_its_verdict(self):
        # 160 roots uniform in the unit disc, multiplied out in floats
        # (max |a_k| about 8e6).  The exact roots of these coefficients (by
        # multiprecision Aberth from the eigenvalues) have max modulus
        # 0.999254.  Many of Aberth's points reach rounding level far from a
        # root, one at modulus 1.047; the row must not settle there.
        rng = np.random.default_rng(160)
        radii = np.sqrt(rng.uniform(size=160))
        angles = rng.uniform(0.0, 2.0 * np.pi, 160)
        asc = np.poly(radii * np.exp(1j * angles))[::-1]
        _, settled = roots._aberth(asc[None])
        assert not settled.any()
        verdict = is_schur_stable(MonicPolynomial(tuple(asc[:-1].tolist())))
        assert verdict.status is Status.STABLE
        assert abs(verdict.max_modulus - 0.999254) <= 1e-5

    def test_row_settles_on_newton_steps(self, monkeypatch):
        # A degree-100 row of jittered circles, like the benchmark's scan
        # rows: every sweep but the last takes the pairwise sums; the last
        # finds every Newton step within the freeze test and settles on them.
        rng = random.Random(100)
        zs = _jittered_circle(rng, 75, 0.95) + _jittered_circle(rng, 25, 0.5)
        f, top = _from_dyadic_roots(zs)
        counts = {"sweeps": 0, "sums": 0}
        values, reciprocal = roots._values_and_slopes, np.reciprocal

        def counting_values(pd, V):
            counts["sweeps"] += 1
            return values(pd, V)

        def counting_reciprocal(*args, **kwargs):
            counts["sums"] += 1
            return reciprocal(*args, **kwargs)

        monkeypatch.setattr(roots, "_values_and_slopes", counting_values)
        monkeypatch.setattr(np, "reciprocal", counting_reciprocal)
        _, settled = roots._aberth(np.array([f.coeffs + (1.0 + 0j,)]))
        monkeypatch.undo()
        assert settled.all()
        assert counts["sweeps"] >= 2
        assert counts["sums"] == counts["sweeps"] - 1
        assert abs(find_roots(f).max_modulus - top) <= 1e-9

    @pytest.mark.parametrize("degree", [40, 100])
    def test_frozen_root_never_moves(self, monkeypatch, degree):
        # The points of each sweep's power table are the active roots; after
        # t sweeps, every root not among those of sweep t + 1 keeps its value
        # to the end.
        rng = random.Random(degree)
        zs = _jittered_circle(rng, degree, 0.9)
        asc = np.array([_from_dyadic_roots(zs)[0].coeffs + (1.0 + 0j,)])
        swept = []
        powers = roots._powers

        def recording(z, n, *out):
            swept.append(z.copy())
            return powers(z, n, *out)

        monkeypatch.setattr(roots, "_powers", recording)
        final, settled = roots._aberth(asc)
        assert settled.all()
        monkeypatch.setattr(roots, "_powers", powers)
        frozen = np.zeros(degree, dtype=bool)
        for t in range(1, len(swept)):
            monkeypatch.setattr(roots, "_MAX_SWEEPS", t)
            z, _ = roots._aberth(asc)
            now = ~np.isin(z[0], swept[t])
            assert len(swept[t]) == np.count_nonzero(~now)
            assert (now >= frozen).all()  # a frozen root never becomes active
            assert (z[0][now] == final[0][now]).all()
            frozen = now
        assert 0 < np.count_nonzero(frozen) < degree  # roots freeze one by one


def _exact_powers(z, n):
    """z^0 .. z^n in exact rational arithmetic, as (re, im) Fractions."""
    x, y = Fraction(z.real), Fraction(z.imag)
    out = [(Fraction(1), Fraction(0))]
    for _ in range(n):
        a, b = out[-1]
        out.append((a * x - b * y, a * y + b * x))
    return out


def _with_slopes(asc):
    """Ascending coefficients of p and p' stacked per row, p' padded with a
    zero, as ``roots._aberth`` passes them to ``_values_and_slopes``."""
    pd = np.zeros((len(asc), 2, asc.shape[1]), dtype=complex)
    pd[:, 0] = asc
    pd[:, 1, :-1] = asc[:, 1:] * np.arange(1, asc.shape[1])
    return pd


class TestPowerTable:
    """The power table from which Aberth and the residuals evaluate."""

    def test_exact_on_dyadic_points(self):
        # Every power up to 32 of these points is exact in binary64.
        points = [0.5, -0.75, 0.5 + 0.5j, 1j, -2.0, 0.0, 1.5j, 0.25 - 0.25j]
        for n in (1, 2, 5, 16, 17, 32):
            z = np.array([points[:4], points[4:]], dtype=complex)
            V = roots._powers(z, n)
            assert V.shape == (n + 1, 2, 4)
            for (i, j), zij in np.ndenumerate(z):
                for k, (re, im) in enumerate(_exact_powers(zij, n)):
                    assert V[k, i, j] == complex(float(re), float(im)), (zij, k)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 31, 64, 160, 1024])
    def test_matches_repeated_multiplication(self, n):
        rng = np.random.default_rng(n)
        radius = rng.uniform(0.5, 2.0, (3, n)) ** (1.0 / max(1.0, math.log2(n)))
        z = radius * np.exp(2j * np.pi * rng.uniform(size=(3, n)))
        V = roots._powers(z, n)
        ref = np.ones_like(V)
        for k in range(1, n + 1):
            ref[k] = ref[k - 1] * z
        k = np.arange(n + 1)[:, None, None]
        eps = np.finfo(float).eps
        assert (np.abs(V - ref) <= k * eps * np.abs(ref)).all()

    # 64, 100 and 160: sizes where BLAS blocks the matrix products differently.
    @pytest.mark.parametrize("degree", [1, 5, 33, 40, 64, 100, 160])
    def test_batch_rows_equal_single_rows(self, degree):
        rng = random.Random(degree)
        polys = [random_monic(rng, degree, (0.05, 0.9)) for _ in range(5)]
        asc = np.array([f.coeffs + (1.0 + 0j,) for f in polys])
        moduli = np.array([[abs(c) for c in f.coeffs] + [1.0] for f in polys])
        z, settled = roots._aberth(asc)
        assert settled.all()
        V = roots._powers(z, degree)
        pv = roots._evaluate(V, asc)
        pd = _with_slopes(asc)
        both = roots._values_and_slopes(pd, V)
        res = roots._scaled_residuals(asc, moduli, z)
        for i in range(len(polys)):
            row = slice(i, i + 1)
            zi, _ = roots._aberth(asc[row])
            assert zi.tobytes() == z[row].tobytes()
            assert roots._powers(z[row], degree).tobytes() == V[:, row].tobytes()
            assert roots._evaluate(V[:, row], asc[row]).tobytes() == pv[row].tobytes()
            assert roots._values_and_slopes(pd[row], V[:, row]).tobytes() == both[row].tobytes()
            assert (
                roots._scaled_residuals(asc[row], moduli[row], z[row]).tobytes()
                == res[row].tobytes()
            )

    @pytest.mark.parametrize("degree", [2, 5, 40, 100, 160])
    def test_products_match_ascending_sums(self, degree):
        """Aberth's p and p' from one matrix product per row agree with the
        elementwise ascending sums over the table, within 4 (n + 1) eps of
        sum_k |c_k| |z|^k."""
        rng = random.Random(degree)
        polys = [random_monic(rng, degree, (0.05, 3.0)) for _ in range(3)]
        pd = _with_slopes(np.array([f.coeffs + (1.0 + 0j,) for f in polys]))
        z = roots._start(pd[:, 0]) * 1.05
        V = roots._powers(z, degree)
        got = roots._values_and_slopes(pd, V)
        eps = np.finfo(float).eps
        for i, c in enumerate((pd[:, 0], pd[:, 1])):
            scale = roots._evaluate(np.abs(V), np.abs(c))
            err = np.abs(got[:, i] - roots._evaluate(V, c))
            assert (err <= 4 * (degree + 1) * eps * scale).all()

    @pytest.mark.parametrize("degree", [100, 160])
    def test_overflowing_iterate_is_quiet(self, degree):
        # One root near -1500: 1500^100 overflows, so no evaluation of p at
        # that root is finite.
        f = MonicPolynomial((1.0,) + (0j,) * (degree - 2) + (1500.0,))
        asc = np.array([f.coeffs + (1.0 + 0j,)])
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(roots._powers(roots._start(asc), degree)).all()
        with np.errstate(all="ignore"):
            z, settled = roots._aberth(asc)
        # A step that is not finite never freezes its root, and the row stops
        # at the sweep that made it NaN, before the NaN spreads to the others.
        assert not settled.any() and np.isnan(z).sum() == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                rs = find_roots(f)
            except UnconvergedError as exc:
                assert len(exc.partial.roots) == degree
            else:
                assert abs(rs.max_modulus - 1500.0) < 1e-6


class TestStabilityVerdict:
    def test_stable_example(self):
        v = is_schur_stable(MonicPolynomial((0.25, 0.0)))
        assert v.status is Status.STABLE
        assert v.max_modulus == pytest.approx(0.5, abs=1e-12)
        assert v.margin == pytest.approx(-0.5, abs=1e-12)

    def test_unstable_sharpness_polynomial(self):
        # s^2 - 0.5 s - 0.5 has the root s = 1
        v = is_schur_stable(MonicPolynomial((-0.5, -0.5)))
        assert v.status is not Status.STABLE
        assert v.max_modulus >= 1.0 - BOUNDARY_BAND

    def test_marginal_band(self):
        v = is_schur_stable(MonicPolynomial((1.0, 0.0)))  # roots on the circle
        assert v.status is Status.MARGINAL

    def test_agreement_with_real_form(self, rng):
        for _ in range(40):
            f = random_monic(rng, rng.randint(1, 6))
            a = is_schur_stable(f)
            if abs(a.max_modulus - 1.0) < 1e-6:
                continue
            b = is_schur_stable(real_form(f))
            assert a.status is b.status


def _cluster(n=7, r=Fraction(127, 128)):
    """(s - r)^n, whose coefficients are exactly representable."""
    return MonicPolynomial(
        tuple(complex(math.comb(n, k) * (-r) ** (n - k)) for k in range(n))
    )


def _root_statuses(polys):
    """The status of each polynomial from its largest root modulus, all
    solved as one batch of rows."""
    return [classify(m) for m in find_root_rows(monic_rows(polys))[3].tolist()]


def _no_roots(monkeypatch):
    def refuse(asc):
        raise AssertionError("root finder called")

    monkeypatch.setattr(roots, "find_root_rows", refuse)


class TestSchurCohnStatuses:
    def test_agrees_with_roots(self, monkeypatch):
        """300 seeded inputs of degree 3-8, contracting and expanding, real
        and complex, each at 64 powers on [-4, 6]: every status the
        recursion decides is the root finder's, and at most 20 rows are left
        to the root finder."""
        undecided = []
        find = roots.find_root_rows

        def counting(asc, limit=math.inf):
            undecided.append(len(asc))
            return find(asc, limit)

        monkeypatch.setattr(roots, "find_root_rows", counting)
        rng = random.Random(1905)
        rows = 0
        for i in range(300):
            moduli = (0.05, 0.95) if i % 2 == 0 else (1.05, 4.0)
            f = random_monic(rng, 3 + i % 6, moduli, density=0.7, real=i % 4 < 2)
            polys = [principal_power(f, p) for p in np.linspace(-4.0, 6.0, 64)]
            got = row_statuses(monic_rows(polys))
            assert got == _root_statuses(polys)
            rows += len(got)
        assert rows == 19200
        assert sum(undecided) <= 20  # the rows that reached the root finder

    def test_known_wrong_cluster_goes_to_roots(self):
        """Roots call the 7-fold cluster at 1 - 2^-7 Unstable.  The recursion
        cannot certify either edge of the band there, so the status stays
        the root finder's."""
        f = _cluster()
        asc = np.array(f.coeffs + (1.0 + 0j,))
        for rho in (1.0 - BOUNDARY_BAND, 1.0 + BOUNDARY_BAND):
            _, decided = roots._schur_cohn((asc * rho ** np.arange(8))[:, None])
            assert not decided[0]
        assert row_statuses(monic_rows([f])) == [is_schur_stable(f).status]

    def test_marginal_without_roots(self, monkeypatch):
        _no_roots(monkeypatch)
        assert row_statuses(monic_rows([MonicPolynomial((1.0, 0.0))])) == [Status.MARGINAL]

    def test_decides_without_roots(self, monkeypatch):
        _no_roots(monkeypatch)
        polys = [MonicPolynomial((0.25, 0.0)), MonicPolynomial((-0.5, 2.0))]
        assert row_statuses(monic_rows(polys)) == [Status.STABLE, Status.UNSTABLE]

    def test_undecided_rows_grow_with_degree(self):
        """The measurement behind the degree cap: of 200 rows with roots
        uniform in discs of radius 0.5 to 1.5, the recursion leaves 0
        undecided at degree 8, 17 at 16, 143 at 32 and 194 at 48."""
        rng = random.Random(32)
        undecided = []
        for n in (8, 16, 32, 48):
            rows = []
            for _ in range(200):
                r = rng.uniform(0.5, 1.5)
                zs = [
                    r * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
                    for _ in range(n)
                ]
                rows.append(np.poly(zs)[::-1])
            _, decided = roots._schur_cohn(np.array(rows).T)
            undecided.append(int(np.count_nonzero(~decided)))
        assert undecided[0] == 0
        assert undecided == sorted(set(undecided))
        assert undecided[2] > 100 and undecided[3] > 180

    def test_degree_cap(self, monkeypatch):
        """Rows above the cap never enter the recursion; rows at it do, and
        s^n + 0.5 is decided there."""
        cap = roots._SCHUR_COHN_MAX_DEGREE
        degrees = []
        core = roots._schur_cohn

        def recording(a):
            degrees.append(a.shape[0] - 1)
            return core(a)

        monkeypatch.setattr(roots, "_schur_cohn", recording)
        above = MonicPolynomial((0.5,) + (0j,) * cap)
        assert row_statuses(monic_rows([above])) == [is_schur_stable(above).status]
        assert degrees == []
        at = MonicPolynomial((0.5,) + (0j,) * (cap - 1))
        _no_roots(monkeypatch)
        assert row_statuses(monic_rows([at])) == [Status.STABLE]
        assert degrees == [cap]

    def test_batch_equals_single(self):
        rng = random.Random(77)
        polys = [random_monic(rng, 5, (0.3, 3.0)) for _ in range(40)]
        polys += [
            MonicPolynomial((1.0, 0j, 0j, 0j, 0j)),  # on the circle
            _cluster(5),  # undecided, solved by roots
            MonicPolynomial((0.5, 0j, 0j, 0j, 0j)),
        ]
        batch = row_statuses(monic_rows(polys))
        assert batch == [row_statuses(monic_rows([g]))[0] for g in polys]
        assert batch == _root_statuses(polys)
        assert set(batch) == set(Status)

    def test_fallback_error_names_the_row(self, monkeypatch):
        bad = _cluster()

        def failing(asc, offset, limit):
            raise UnconvergedError("forced failure", row=offset)

        monkeypatch.setattr(roots, "_solve_chunk", failing)
        decided = MonicPolynomial((0.25,) + (0j,) * 6)
        with pytest.raises(UnconvergedError) as err:
            row_statuses(monic_rows([decided, decided, bad]))
        assert err.value.row == 2

    def test_fallback_error_names_the_row_past_a_decided_one(self, monkeypatch):
        """The rows the recursion leaves undecided are 0 and 2: the failing
        one is the second row solved and row 2 of the batch."""
        good, decided = _cluster(r=Fraction(63, 64)), MonicPolynomial((0.25,) + (0j,) * 6)
        asc = monic_rows([good, decided, _cluster()])
        above, inside, known = roots._decide_rows(asc, 1.0 - BOUNDARY_BAND)
        assert (above | inside | known).tolist() == [False, True, False]
        fail_row(monkeypatch, asc[2])
        assert row_statuses(asc[:2]) == [Status.STABLE, Status.STABLE]
        with pytest.raises(UnconvergedError) as err:
            row_statuses(asc)
        assert err.value.row == 2

    def test_decide_rows(self):
        """One row with a root modulus certainly outside the band, one with
        every root certainly inside it, and s^4 + 1, whose roots lie on the
        circle: both edges are decided for it, and it is neither."""
        polys = [
            MonicPolynomial((-16.0, 0j, 0j, 0j)),
            MonicPolynomial((0.0625, 0j, 0j, 0j)),
            MonicPolynomial((1.0, 0j, 0j, 0j)),
        ]
        above, inside, known = roots._decide_rows(monic_rows(polys), 1.0 - BOUNDARY_BAND)
        assert above.tolist() == [True, False, False]
        assert inside.tolist() == [False, True, False]
        assert known.tolist() == [True, True, True]

    def test_empty_batch(self):
        assert row_statuses(np.zeros((0, 3), dtype=complex)) == []

    @pytest.mark.filterwarnings("error")
    def test_scaling_overflow_warns_nothing(self):
        """A coefficient one ulp below the float maximum overflows when
        scaled to the outer edge of the band; its column is left undecided
        and the root finder decides it, with no warning from numpy."""
        big = np.nextafter(np.finfo(float).max, 0)
        asc = np.array([[0.5, big, 1.0]], dtype=complex)
        above, inside, known = roots._decide_rows(asc, 1.0 - BOUNDARY_BAND)
        assert not (above | inside | known).any()
        assert row_statuses(asc) == [Status.UNSTABLE]


class TestBranchSetStable:
    def test_integer_power_matches_single(self):
        b = hadamard_power(F1, 2)
        assert branch_set_stable(b).status is is_schur_stable(b.principal).status

    def test_small_coefficient_both_branches_stable(self):
        f = MonicPolynomial((0j, 0.01j))
        verdict = branch_set_stable(hadamard_power(f, Fraction(1, 2)))
        assert verdict.status is Status.STABLE
        assert verdict.max_modulus == pytest.approx(0.1, abs=1e-9)

    def test_large_coefficient_both_branches_unstable(self):
        f = MonicPolynomial((0j, 4j))
        verdict = branch_set_stable(hadamard_power(f, Fraction(1, 2)))
        assert verdict.status is Status.UNSTABLE
        assert verdict.max_modulus == pytest.approx(2.0, abs=1e-9)

    def test_worst_modulus_is_max_over_members(self):
        """The worst over all members for Stable sets; for Unstable sets,
        which stop at the first Unstable member, a lower bound on it that
        still lies above the boundary band."""
        for coeffs, status in [
            ((-0.4, 0.3, 0.0), Status.UNSTABLE),
            ((-0.04, 0.03j, 0.0), Status.STABLE),
        ]:
            bset = hadamard_power(MonicPolynomial(coeffs), Fraction(1, 2))
            verdict = branch_set_stable(bset)
            worst = max(is_schur_stable(m).max_modulus for m in bset)
            assert verdict.status is status
            if status is Status.UNSTABLE:
                assert 1.0 + BOUNDARY_BAND < verdict.max_modulus <= worst
            else:
                assert verdict.max_modulus == pytest.approx(worst, rel=1e-12)

    def test_orbit_reduction_matches_full_enumeration(self):
        """Against an independent reference: ``classify`` of the largest
        modulus over the roots of every member, gathered by ``bset.rows``."""
        rng = random.Random(41)
        counts = {s: 0 for s in Status}
        for i in range(150):
            m = 2 + i % 5
            real = i % 2 == 0
            f = random_monic(
                rng, rng.randint(1, 6), modulus_range=(0.02, 1.5),
                density=0.8, real=real,
            )
            if real:  # both signs, so rotations meet negative coefficients
                f = MonicPolynomial(tuple(c * rng.choice((1, -1)) for c in f.coeffs))
            p = Fraction(rng.randint(1, 2 * m), m)
            bset = hadamard_power(f, p)
            if len(bset) > 400:
                continue
            reduced = branch_set_stable(bset)
            worst = float(find_root_rows(bset.rows(list(bset.indices())))[3].max())
            status = classify(worst)
            assert reduced.status is status, (f, p)
            if status is Status.STABLE:
                assert reduced.max_modulus == pytest.approx(worst, rel=1e-12)
            counts[status] += 1
        assert counts[Status.STABLE] >= 30 and counts[Status.UNSTABLE] >= 30
class TestFujiwaraBound:
    def test_tight_single_term(self):
        f = MonicPolynomial((0.5, 0.0))
        bound = fujiwara_bound(f, SimplexWeights((0,), (1.0,)))
        assert bound == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert find_roots(f).max_modulus == pytest.approx(bound, abs=1e-9)

    def test_attained_at_root_one(self):
        f = MonicPolynomial((-0.5, -0.5))
        bound = fujiwara_bound(f, SimplexWeights((0, 1), (0.5, 0.5)))
        assert bound == pytest.approx(1.0, abs=1e-12)

    def test_support_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            fujiwara_bound(F1, SimplexWeights((0, 1), (0.5, 0.5)))

    def test_dominates_all_roots(self, rng):
        # randomized weights over the support, 1000 instances
        for _ in range(1000):
            f = random_monic(rng, rng.randint(2, 8), density=0.8)
            support = f.support
            raw = [rng.uniform(0.05, 1.0) for _ in support]
            total = sum(raw) / rng.uniform(0.3, 1.0)  # leave budget slack
            weights = SimplexWeights(
                support, tuple(min(1.0, r / total) for r in raw)
            )
            bound = fujiwara_bound(f, weights)
            assert find_roots(f).max_modulus <= bound * (1 + 1e-9)


def _eigvals_failing_on(monkeypatch, rows):
    """Make ``np.linalg.eigvals`` fail, as LAPACK can, on any stack holding
    the companion matrix of one of ``rows`` (ascending, with the leading 1)."""
    eigvals = np.linalg.eigvals
    bad = [roots.companion_matrix(row[:-1]) for row in rows]

    def failing(a):
        stack = a.reshape((-1,) + a.shape[-2:])
        if any(np.array_equal(m, b) for m in stack for b in bad):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", failing)


class TestEigenvalueFailure:
    """A companion matrix on which LAPACK fails leaves its row unsettled, for
    the fallback and then UnconvergedError; no LinAlgError escapes."""

    def test_row_unsettled_others_keep_their_bits(self, monkeypatch):
        rows = principal_rows(F1, [0.5, 1.0, 2.0, 3.0])
        with np.errstate(all="ignore"):
            ref, _ = roots._eigenvalues(rows)
            _eigvals_failing_on(monkeypatch, rows[1:2])
            z, settled = roots._eigenvalues(rows)
        assert settled.tolist() == [True, False, True, True]
        assert np.isnan(z[1]).all()
        keep = [0, 2, 3]
        assert np.array_equal(z[keep].view(np.uint64), ref[keep].view(np.uint64))

    def test_fallback_certifies_the_row(self, monkeypatch):
        f = principal_power(F1, 2.0)
        expected = find_roots(f)
        _eigvals_failing_on(monkeypatch, [np.array(f.coeffs + (1.0,))])
        aberth, rows = roots._aberth, []
        monkeypatch.setattr(roots, "_aberth", lambda asc: rows.append(len(asc)) or aberth(asc))
        got = find_roots(f)
        assert rows == [1]
        assert all(got.converged)
        assert got.max_modulus == pytest.approx(expected.max_modulus, rel=1e-12)

    def test_no_candidate_raises_unconverged(self, monkeypatch):
        f = principal_power(F1, 2.0)
        _eigvals_failing_on(monkeypatch, [np.array(f.coeffs + (1.0,))])
        monkeypatch.setattr(
            roots,
            "_aberth",
            lambda asc: (np.full((len(asc), asc.shape[1] - 1), np.nan, dtype=complex),
                         np.zeros(len(asc), dtype=bool)),
        )
        with pytest.raises(UnconvergedError, match="failed to certify"):
            find_roots(f)

    def test_input_where_lapack_fails(self):
        """Whatever LAPACK build decides F220 at p = 128, the outcome is a
        root set or UnconvergedError, and the onset search's an onset or
        BracketError."""
        try:
            find_roots(principal_power(F220, 128.0))
        except UnconvergedError:
            pass
        try:
            auto_onset(F220, "max")
        except BracketError:
            pass
