import itertools
import math
import random
import types
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_monic
import hadstab.thresholds as th
from hadstab import (
    BracketError,
    HadstabError,
    HalfLine,
    InvalidInputError,
    Kind,
    MarginalZoneError,
    Method,
    MonicPolynomial,
    NotApplicableError,
    Status,
    ThresholdResult,
    UnconvergedError,
    UnsupportedDegreeError,
    auto_onset,
    beta_star,
    branch_set_stable,
    exact_onset,
    guardian_map,
    hadamard_power,
    is_schur_stable,
    kstar_test,
    necessary_condition,
    principal_power,
    principal_rows,
    pstar_exact,
    pstar_grid,
    roots,
)

F1 = MonicPolynomial((0.7, 0.2, 0.9, 0.0, 0.0))
G1 = MonicPolynomial((3.0, 2.0, 2.5, 0.0, 0.0))
F2 = MonicPolynomial((-0.9j, 0.7, 0.0, 0.2 - 0.4j))
G2 = MonicPolynomial((1.0 - 0.5j, 0.0, 2.0 - 1.0j, -1.5))


def brute_force_grid(moduli, mode, R):
    """Independent oracle: enumerate every composition of R and take the
    min of max-ratios (mode max) or max of min-ratios (mode min)."""
    d = len(moduli)
    logs = [math.log(m) for m in moduli]
    best = None
    for combo in itertools.product(range(1, R), repeat=d - 1):
        rest = R - sum(combo)
        if rest < 1:
            continue
        parts = list(combo) + [rest]
        ratios = [math.log(c / R) / L for c, L in zip(parts, logs)]
        v = max(ratios) if mode == "max" else min(ratios)
        if (
            best is None
            or (mode == "max" and v < best)
            or (mode == "min" and v > best)
        ):
            best = v
    return best


def random_contracting(rng, max_degree=8):
    """Random polynomial with every support modulus strictly below 1."""
    return random_monic(
        rng, rng.randint(2, max_degree), modulus_range=(0.05, 0.9), density=0.8
    )


def random_expanding(rng, max_degree=8):
    return random_monic(
        rng, rng.randint(2, max_degree), modulus_range=(1.1, 10.0), density=0.8
    )


class TestGridAgainstBruteForce:
    def test_single_term_is_zero(self):
        f = MonicPolynomial((0.5, 0.0))
        assert pstar_grid(f, "max", 100).value == pytest.approx(0.0, abs=1e-15)

    def test_matches_enumeration_max(self, rng):
        for _ in range(12):
            f = random_contracting(rng, max_degree=5)
            d = len(f.support)
            R = rng.choice([8, 13, 21]) + d
            got = pstar_grid(f, "max", R).value
            want = brute_force_grid(list(f.coefficient_moduli().values()), "max", R)
            assert got == pytest.approx(want, abs=1e-12)

    def test_matches_enumeration_min(self, rng):
        for _ in range(12):
            f = random_expanding(rng, max_degree=5)
            d = len(f.support)
            R = rng.choice([8, 13, 21]) + d
            got = pstar_grid(f, "min", R).value
            want = brute_force_grid(list(f.coefficient_moduli().values()), "min", R)
            assert got == pytest.approx(want, abs=1e-12)


class TestGridOrderStatistic:
    """The grid value is the exact lattice optimum, one order statistic of
    the per-index ratios, wherever enumeration can check it."""

    def test_matches_enumeration_on_seeded_grids(self):
        rng = random.Random(2022)
        for _ in range(400):
            d = rng.randint(1, 4)
            R = rng.randint(max(2, d), 20)
            mode = rng.choice(("max", "min"))
            moduli = (0.05, 0.95) if mode == "max" else (1.05, 20.0)
            f = random_monic(rng, d, modulus_range=moduli, real=rng.random() < 0.5)
            got = pstar_grid(f, mode, R).value
            want = brute_force_grid(list(f.coefficient_moduli().values()), mode, R)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (f.coeffs, mode, R)

    def test_grid_n_equal_to_the_support(self):
        """At grid_n = |support| the one composition is all ones."""
        moduli = (0.7347426466626976, 0.2535044348801034)
        got = pstar_grid(MonicPolynomial(moduli), "max", 2).value
        assert got == math.log(0.5) / math.log(moduli[0]) == 2.248762216368081

    def test_optimum_that_a_float_guard_missed(self):
        moduli = (0.1189334839458477, 0.5683562157553206, 0.20035618571565775, 0.11353335295494403)
        got = pstar_grid(MonicPolynomial(moduli), "max", 5).value
        assert got == 1.6217336553767032
        assert got == pytest.approx(brute_force_grid(list(moduli), "max", 5), rel=1e-12)


class TestPstarGrid:
    def test_example_one_f(self):
        res = pstar_grid(F1, "max", 1000)
        assert res.kind is Kind.SUFFICIENT_MAX
        assert res.method is Method.GRID_SEARCH
        assert res.grid_resolution == 1000
        assert abs(res.value - 3.40372) <= 0.01

    def test_example_one_g(self):
        res = pstar_grid(G1, "min", 1000)
        assert res.kind is Kind.SUFFICIENT_MIN
        assert abs(res.value - (-1.24121)) <= 0.01

    def test_example_two(self):
        assert abs(pstar_grid(F2, "max", 1000).value - 3.69323) <= 0.02
        assert abs(pstar_grid(G2, "min", 1000).value - (-3.40696)) <= 0.02

    def test_hypothesis_violation_names_index(self):
        with pytest.raises(NotApplicableError) as err:
            pstar_grid(G1, "max", 100)
        assert err.value.index == 0
        with pytest.raises(NotApplicableError):
            pstar_grid(F1, "min", 100)

    def test_mixed_moduli_rejected(self):
        f = MonicPolynomial((0.5, 2.0))
        with pytest.raises(NotApplicableError):
            pstar_grid(f, "max", 100)
        with pytest.raises(NotApplicableError):
            pstar_grid(f, "min", 100)

    def test_empty_support_sentinel(self):
        f = MonicPolynomial((0j, 0j, 0j))
        assert pstar_grid(f, "max", 100).value == -math.inf
        assert pstar_grid(f, "min", 100).value == math.inf

    def test_resolution_too_small(self):
        with pytest.raises(InvalidInputError):
            pstar_grid(F1, "max", 2)

    def test_bad_mode(self):
        with pytest.raises(InvalidInputError):
            pstar_grid(F1, "median", 100)

    def test_stability_beyond_grid_threshold(self):
        res = pstar_grid(F1, "max", 200)
        for delta in (0.01, 0.5):
            power = principal_power(F1, res.value + delta)
            assert is_schur_stable(power).status is Status.STABLE


class TestPstarExact:
    def test_example_one_f(self):
        res = pstar_exact(F1, "max")
        assert res.method is Method.EQUATION_SOLVE
        assert abs(res.value - 3.40372) <= 0.01
        # the defining equation is satisfied to near machine precision
        s = sum(m ** res.value for m in (0.7, 0.2, 0.9))
        assert abs(s - 1.0) <= 1e-10

    def test_example_one_g(self):
        res = pstar_exact(G1, "min")
        assert abs(res.value - (-1.24121)) <= 0.01
        s = sum(m ** res.value for m in (3.0, 2.0, 2.5))
        assert abs(s - 1.0) <= 1e-10

    def test_single_term_threshold_is_zero(self):
        res = pstar_exact(MonicPolynomial((0.5, 0.0)), "max")
        assert res.value == pytest.approx(0.0, abs=1e-10)

    def test_bracket_certifies_sign_change(self):
        res = pstar_exact(F1, "max", tol=1e-6)
        lo, hi = res.bracket
        assert hi - lo <= 1e-6
        s = lambda p: sum(m ** p for m in (0.7, 0.2, 0.9)) - 1.0
        assert s(lo) >= 0.0 >= s(hi)

    def test_grid_dominates_exact(self, rng):
        for _ in range(25):
            f = random_contracting(rng)
            exact = pstar_exact(f, "max").value
            grid = pstar_grid(f, "max", 500).value
            assert grid >= exact - 1e-12

    def test_grid_below_exact_for_min_mode(self, rng):
        for _ in range(15):
            f = random_expanding(rng)
            exact = pstar_exact(f, "min").value
            grid = pstar_grid(f, "min", 500).value
            assert grid <= exact + 1e-12

    def test_stability_beyond_threshold_all_branches(self):
        from fractions import Fraction

        p0 = pstar_exact(F1, "max").value
        for delta in (0.01, 0.1, 1.0):
            frac = Fraction(p0 + delta).limit_denominator(4)
            if float(frac) <= p0:
                frac = Fraction(math.ceil((p0 + delta) * 4), 4)
            verdict = branch_set_stable(hadamard_power(F1, frac))
            assert verdict.status is Status.STABLE

    def test_empty_support_sentinel(self):
        f = MonicPolynomial((0j,))
        assert pstar_exact(f, "max").value == -math.inf

    @pytest.mark.parametrize(
        "moduli, mode",
        [((1e-10, 0.5), "max"), ((1e-5, 0.5), "max"), ((1e10, 2.0), "min")],
    )
    def test_overflowing_term_counts_as_above_one(self, moduli, mode):
        """m^p overflows at the bracket's start (2^-16 > m, or m > 2^16):
        the sum is then above 1, not an OverflowError."""
        f = MonicPolynomial(moduli)
        res = pstar_exact(f, mode)
        lo, hi = res.bracket
        s = lambda p: sum(m ** p for m in moduli) - 1.0
        if mode == "max":
            assert s(lo) >= 0.0 >= s(hi)
            assert pstar_grid(f, mode, 500).value >= res.value - 1e-12
        else:
            assert s(lo) <= 0.0 <= s(hi)
            assert pstar_grid(f, mode, 500).value <= res.value + 1e-12

    @pytest.mark.parametrize(
        "moduli, mode, value, bracket",
        [
            ((1e-10,), "max", -4.547473508864641e-13, (-9.094947017729282e-13, 0.0)),
            ((1e10,), "min", 4.547473508864641e-13, (0.0, 9.094947017729282e-13)),
        ],
        ids=["max", "min"],
    )
    def test_single_index_overflows_below_its_root(self, moduli, mode, value, bracket):
        """With one support index the root is q = 0, and the midpoint q = -32
        overflows m^p: it counts as above 1, so the bracket closes on 0."""
        res = pstar_exact(MonicPolynomial(moduli), mode)
        assert (res.value, res.bracket) == (value, bracket)
        assert [math.copysign(1.0, x) for x in res.bracket] == [math.copysign(1.0, x) for x in bracket]

    @pytest.mark.parametrize(
        "m, mode", [(0.999999, "max"), (1.000001, "min"), (1.0 - 2.0**-53, "max")]
    )
    def test_bracket_doubles_until_the_sign_changes(self, m, mode):
        """p0 = ln 2 / -ln m lies far beyond 2^16 when m is this close to 1;
        the bracket's far end doubles out to it (mode max: the upper end,
        mode min: the lower one) and stops once m^p underflows."""
        res = pstar_exact(MonicPolynomial((m, m)), mode)
        assert abs(res.value) > 2.0**16
        assert res.value == pytest.approx(math.log(2.0) / -math.log(m), rel=1e-9)
        lo, hi = res.bracket
        assert 2.0 * m**lo - 1.0 >= 0.0 >= 2.0 * m**hi - 1.0 or mode == "min"
        assert 2.0 * m**lo - 1.0 <= 0.0 <= 2.0 * m**hi - 1.0 or mode == "max"


class TestBetaStar:
    def test_example_g_zero_bound(self):
        res = beta_star(G1, "max")
        assert res.kind is Kind.INSTABILITY_MAX
        assert res.value == pytest.approx(0.0, abs=1e-15)
        # beyond the bound every power is unstable
        for p in (0.5, 1.0, 2.0):
            assert is_schur_stable(principal_power(G1, p)).status is Status.UNSTABLE

    def test_example_f_zero_bound(self):
        res = beta_star(F1, "min")
        assert res.kind is Kind.INSTABILITY_MIN
        assert res.value == pytest.approx(0.0, abs=1e-15)

    def test_formula_values(self):
        # support moduli 3, 2, 2.5 at indices 0, 1, 2 of a quintic
        ratios = [
            math.log(math.comb(5, 0)) / math.log(3.0),
            math.log(math.comb(5, 1)) / math.log(2.0),
            math.log(math.comb(5, 2)) / math.log(2.5),
        ]
        assert beta_star(G1, "max").value == pytest.approx(min(ratios))

    def test_equality_case(self):
        n = 5
        f = MonicPolynomial((0j, float(n), 0j, 0j, 0j))  # |a_1| = C(5,1)
        res = beta_star(f, "max")
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert not necessary_condition(hadamard_power(f, 1).principal).satisfied

    def test_not_applicable_when_set_empty(self):
        with pytest.raises(NotApplicableError):
            beta_star(F1, "max")
        with pytest.raises(NotApplicableError):
            beta_star(G1, "min")

    def test_instability_at_sampled_powers(self, rng):
        for _ in range(10):
            f = random_expanding(rng, max_degree=6)
            bound = beta_star(f, "max").value
            for i in range(1, 11):
                p = bound + 0.3 * i
                assert is_schur_stable(principal_power(f, p)).status is Status.UNSTABLE


class TestKStar:
    def test_example_f(self):
        assert kstar_test(F1) == (0, HalfLine.NONPOSITIVE)

    def test_example_g(self):
        assert kstar_test(G1) == (0, HalfLine.NONNEGATIVE)

    def test_unit_modulus_gives_both(self):
        theta = 0.7
        f = MonicPolynomial((0j, complex(math.cos(theta), math.sin(theta)), 0j))
        assert kstar_test(f) == (1, HalfLine.BOTH)

    def test_empty_support(self):
        with pytest.raises(NotApplicableError):
            kstar_test(MonicPolynomial((0j, 0j)))


class TestExactOnset:
    def test_example_one_f(self):
        res = exact_onset(F1, "increasing", (0.0, 5.0), tol=1e-6)
        assert res.method is Method.BISECTION
        assert abs(res.value - 3.35457) <= 1e-3
        lo, hi = res.bracket
        assert hi - lo <= 1e-6
        assert is_schur_stable(principal_power(F1, lo)).status is Status.UNSTABLE
        assert is_schur_stable(principal_power(F1, hi)).status is Status.STABLE

    def test_example_one_g(self):
        res = exact_onset(G1, "decreasing", (-5.0, 0.0), tol=1e-6)
        assert abs(res.value - (-1.01579)) <= 1e-3

    def test_invalid_bracket(self):
        with pytest.raises(BracketError):
            exact_onset(F1, "increasing", (4.0, 5.0))  # stable at both ends
        with pytest.raises(BracketError):
            exact_onset(F1, "increasing", (0.0, 1.0))  # unstable at both ends
        with pytest.raises(BracketError):
            exact_onset(F1, "decreasing", (0.0, 5.0))  # swapped direction

    def test_empty_interval(self):
        with pytest.raises(InvalidInputError):
            exact_onset(F1, "increasing", (2.0, 2.0))

    def test_auto_onset_matches_manual(self):
        auto = auto_onset(F1, "max", tol=1e-6)
        manual = exact_onset(F1, "increasing", (0.0, 64.0), tol=1e-6)
        assert auto.value == pytest.approx(manual.value, abs=1e-6)

    def test_auto_onset_root_finds(self, monkeypatch):
        """One scan batch below Theorem 1's stable end, then the Newton
        tail: its start from the companion eigenvalues of the bracket's
        midpoint row, and one status batch of the two check points.  The
        recursion decides every status, so no row is root-found."""
        calls = _count_status_rows(monkeypatch)
        solves = _count_root_solves(monkeypatch)
        res = auto_onset(F1, "max", tol=1e-6)
        # P = 3.40275 from pstar_exact: the scan holds P i/31 for i < 31 and
        # 1e-3, 1e-2, 0.1, 0.25, 0.5, 1, 2; it brackets the onset between
        # 30 P/31 and P, and Newton's crossing is checked at +- tol/4.
        assert calls == [37, 2]
        assert solves == []
        assert res.method is Method.NEWTON
        assert res.value == 3.3545722039841674
        assert res.bracket == (3.3545719539841676, 3.3545724539841673)

    @pytest.mark.parametrize(
        "f, mode, rows, value, bracket",
        [
            (F1, "max", [37] + [1] * 17, 3.354572296567293,
             (3.3545718778428046, 3.3545727152917815)),
            (G1, "min", [36] + [1] * 16, -1.0157900265309912,
             (-1.015790331844339, -1.0157897212176432)),
        ],
    )
    def test_declined_onset_root_finds(self, monkeypatch, f, mode, rows, value, bracket):
        """Where the Newton tail declines, the scan batch is followed by
        plain bisection of its bracket, one single-row status batch per
        step, all decided without roots."""
        _decline_newton(monkeypatch)
        calls = _count_status_rows(monkeypatch)
        solves = _count_root_solves(monkeypatch)
        res = auto_onset(f, mode, tol=1e-6)
        assert calls == rows
        assert solves == []
        assert res.method is Method.BISECTION
        assert (res.value, res.bracket) == (value, bracket)

    def test_exact_onset_root_finds(self, monkeypatch):
        """Both bracket ends as one batch, then 23 steps of plain bisection,
        one single-row status batch each, all decided without roots.  The
        root solver's chunk size does not reach the search: with a chunk of
        one row the batches, value and bracket are the same."""
        want = _sequential_bisect_onset(F1, 0.0, 5.0, Status.UNSTABLE, Status.STABLE, 1e-6)
        for chunk_elements in (roots._CHUNK_ELEMENTS, F1.degree**2):
            with monkeypatch.context() as m:
                m.setattr(roots, "_CHUNK_ELEMENTS", chunk_elements)
                calls = _count_status_rows(m)
                solves = _count_root_solves(m)
                got = exact_onset(F1, "increasing", (0.0, 5.0), 1e-6)
            assert calls == [2] + [1] * 23
            assert solves == []
            assert (got.value, got.bracket) == (want.value, want.bracket)

    def test_left_end_error_comes_first(self, monkeypatch):
        """Where both ends of the interval fail, the left end's error is
        raised, in either direction, as if each end were decided alone."""
        f = MonicPolynomial((10.0, 0.01))  # overflows at p = 400 and p = -400
        for direction in ("increasing", "decreasing"):
            with pytest.raises(InvalidInputError, match=r"\^-400.0 overflows"):
                exact_onset(f, direction, (-400.0, 400.0))
        monkeypatch.setattr(roots, "_SCHUR_COHN_MAX_DEGREE", 0)

        def uncertified(asc, offset, limit):
            raise UnconvergedError(f"no certificate at a_0 = {asc[0, 0]}", row=offset)

        monkeypatch.setattr(roots, "_solve_chunk", uncertified)
        a0 = principal_rows(F1, [1.0])[0, 0]
        got = _outcome(exact_onset, F1, "increasing", (1.0, 5.0), 1e-6)
        assert got == (UnconvergedError, f"no certificate at a_0 = {a0}", 0)

    def test_auto_onset_uncertifiable_stable_end(self):
        # A unit modulus keeps Theorem 1 from applying, so the stable end
        # doubles from 64.  At p = 64 the row s^3 + 2^64 s^2 + 1 certifies;
        # at p = 128 the row s^3 + 2^128 s^2 + 1 has two roots near
        # +-2^-64 i beside one near -2^128, and neither candidate finds them
        # to a residual within the tolerance (Aberth's stopping tests, set
        # by 1 + |z_i|, end their steps far above their modulus, and read
        # 7.8e-4; the eigenvalues put them at 0).
        f = MonicPolynomial((1.0, 0.0, 2.0))
        with pytest.raises(BracketError, match=r"p = 128\.0 cannot be certified"):
            auto_onset(f, "max")

    def test_auto_onset_degree_beyond_the_root_finder(self):
        # Outside Theorem 1 (a unit modulus) the stable end doubles from 64;
        # its statuses need roots, which degree 1025 is refused.
        f = MonicPolynomial((1.0,) + (0.0,) * roots.MAX_ROOT_DEGREE)
        with pytest.raises(UnsupportedDegreeError, match="got 1025"):
            auto_onset(f, "max")

    def test_example_two_integer_transition(self):
        for p in (1, 2, 3):
            assert is_schur_stable(principal_power(F2, p)).status is Status.UNSTABLE
        assert is_schur_stable(principal_power(F2, 4)).status is Status.STABLE
        res = auto_onset(F2, "max", tol=1e-3)
        assert 3.0 < res.value < 4.0

    def test_marginal_midpoint_close_out(self, monkeypatch):
        # a narrow marginal band around the crossing is stepped over
        def fake_status(row):
            p = math.log(abs(row[0])) / math.log(0.5)
            if abs(p - 2.0) < 1e-9:
                return Status.MARGINAL
            return Status.UNSTABLE if p < 2.0 else Status.STABLE

        monkeypatch.setattr(th, "row_statuses", lambda asc: [fake_status(r) for r in asc])
        f = MonicPolynomial((0.5, 0.0))
        res = th.exact_onset(f, "increasing", (0.0, 4.0), tol=1e-4)
        lo, hi = res.bracket
        assert lo <= 2.0 <= hi
        assert hi - lo <= 1e-4

    def test_marginal_zone_error(self, monkeypatch):
        # a marginal band wider than the tolerance cannot be certified
        def fake_status(row):
            p = math.log(abs(row[0])) / math.log(0.5)
            if abs(p - 2.0) < 0.5:
                return Status.MARGINAL
            return Status.UNSTABLE if p < 2.0 else Status.STABLE

        monkeypatch.setattr(th, "row_statuses", lambda asc: [fake_status(r) for r in asc])
        f = MonicPolynomial((0.5, 0.0))
        with pytest.raises(MarginalZoneError):
            th.exact_onset(f, "increasing", (0.0, 4.0), tol=1e-4)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_close_out_bracket_within_tol(self, monkeypatch, sign):
        """At mid = 3, mid -+ tol/2 round to 2.9999995 and 3.0000005, which
        lie tol + 1.4e-16 apart; the Stable end is pulled in by one ulp, to
        the last float within tol of the Unstable one."""
        mid, tol = 3.0, 1e-6
        assert Fraction(3.0000005) - Fraction(2.9999995) > tol
        monkeypatch.setattr(
            th, "_statuses",
            lambda f, sign, qs: lambda q: Status.UNSTABLE if q < mid else Status.STABLE,
        )
        res = th._close_out(F1, sign, mid, 2.0, 4.0, tol)
        a, b = res.bracket
        assert Fraction(b) - Fraction(a) <= tol
        want = (2.9999995, 3.0000004999999996)
        assert (a, b) == (want if sign > 0 else (-want[1], -want[0]))
        assert res.method is Method.BISECTION


def _sequential_bisect_onset(f, lo, hi, lo_status, hi_status, tol):
    """Plain bisection, one root-find per step, kept as the reference for
    ``thresholds._bisect_onset``, which reads statuses instead."""
    status = lambda p: is_schur_stable(principal_power(f, p)).status
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        st = status(mid)
        if st is lo_status:
            lo = mid
        elif st is hi_status:
            hi = mid
        else:
            lo2 = max(lo, mid - 0.5 * tol)
            hi2 = min(hi, mid + 0.5 * tol)
            if lo2 < hi2 and status(lo2) is lo_status and status(hi2) is hi_status:
                lo, hi = lo2, hi2
                break
            raise MarginalZoneError(
                f"verdict stays within the boundary band around p = {mid}"
            )
    value = 0.5 * (lo + hi)
    return ThresholdResult(Kind.EXACT_ONSET, value, Method.BISECTION, (lo, hi))


def _sequential_in_q(f, sign, lo, hi, tol):
    """``_sequential_bisect_onset`` called as ``thresholds._bisect_onset``
    is: on the bracket [lo, hi] in q = sign * p, Unstable at lo."""
    a, b = sorted((sign * lo, sign * hi))
    ends = (Status.UNSTABLE, Status.STABLE) if sign > 0 else (Status.STABLE, Status.UNSTABLE)
    return _sequential_bisect_onset(f, a, b, *ends, tol)


def _status(f, p):
    """The principal-branch status at p, from ``thresholds._statuses``."""
    return th._statuses(f, 1.0, [p])(p)


def _outcome(search, *args):
    """A search's result, or its error as (type, message, row)."""
    try:
        return search(*args)
    except HadstabError as exc:
        return type(exc), str(exc), getattr(exc, "row", None)


def _decline_newton(monkeypatch):
    """Make auto_onset's Newton tail decline, so that it bisects its scan
    bracket with ``_bisect_onset``."""
    monkeypatch.setattr(th, "_newton_onset", lambda f, sign, lo, hi, tol: None)


def _count_status_rows(monkeypatch):
    """Record the row count of every status batch the onset searches ask
    ``roots.row_statuses`` for."""
    calls = []
    statuses = th.row_statuses

    def counting(asc):
        calls.append(len(asc))
        return statuses(asc)

    monkeypatch.setattr(th, "row_statuses", counting)
    return calls


def _count_root_solves(monkeypatch):
    """Record the row count of every chunk the root finder solves."""
    calls = []
    solve_chunk = roots._solve_chunk

    def counting(asc, offset, limit):
        calls.append(len(asc))
        return solve_chunk(asc, offset, limit)

    monkeypatch.setattr(roots, "_solve_chunk", counting)
    return calls


def _failing_solve(monkeypatch, bad):
    """Send every status to the root finder, past the recursion, and make
    every root-find of the polynomial ``bad`` raise UnconvergedError,
    batched or alone; returns the list of rows that raised."""
    monkeypatch.setattr(roots, "_SCHUR_COHN_MAX_DEGREE", 0)
    raised = []
    solve_chunk = roots._solve_chunk

    def chunk(asc, offset, limit):
        for i, row in enumerate(asc.tolist()):
            if tuple(row[:-1]) == bad.coeffs:
                raised.append(offset + i)
                raise UnconvergedError("forced failure", row=offset + i)
        return solve_chunk(asc, offset, limit)

    monkeypatch.setattr(roots, "_solve_chunk", chunk)
    return raised


class TestLookaheadBisection:
    """``thresholds._bisect_onset`` walks exactly the steps of the
    independent root-finding reference ``_sequential_bisect_onset``."""

    def test_equals_sequential_bisection(self, monkeypatch):
        _decline_newton(monkeypatch)

        def onsets(f):
            """Lookahead and reference outcomes agree; count the onsets."""
            found = 0
            for mode in ("max", "min"):
                for tol in (1e-6, 1e-4):
                    got = _outcome(auto_onset, f, mode, tol)
                    with monkeypatch.context() as m:
                        m.setattr(th, "_bisect_onset", _sequential_in_q)
                        want = _outcome(auto_onset, f, mode, tol)
                    assert got == want
                    if isinstance(want, ThresholdResult):
                        assert (got.value, got.bracket) == (want.value, want.bracket)
                        found += 1
            return found

        assert [onsets(f) for f in (F1, G1, F2)] == [2, 2, 2]
        rng = random.Random(4711)
        seeded = 0
        for i in range(60):
            moduli = (0.05, 0.95) if i % 2 == 0 else (1.05, 4.0)
            f = random_monic(rng, 3 + i % 5, moduli, density=0.7, real=i % 4 < 2)
            seeded += onsets(f) > 0
            if seeded == 30:
                break
        assert seeded == 30

    def test_failing_point_off_the_walk_does_not_raise(self, monkeypatch):
        # From [0, 64] the walk visits 32, 16 and 8, one point at a time, so
        # 48 is never solved.
        want = exact_onset(F1, "increasing", (0.0, 64.0), 1e-6)
        raised = _failing_solve(monkeypatch, principal_power(F1, 48.0))
        assert exact_onset(F1, "increasing", (0.0, 64.0), 1e-6) == want
        assert raised == []

    def test_failing_point_on_the_walk_raises_as_alone(self, monkeypatch):
        _failing_solve(monkeypatch, principal_power(F1, 16.0))
        got = _outcome(exact_onset, F1, "increasing", (0.0, 64.0), 1e-6)
        monkeypatch.setattr(th, "_bisect_onset", _sequential_in_q)
        want = _outcome(exact_onset, F1, "increasing", (0.0, 64.0), 1e-6)
        assert got == want == (UnconvergedError, "forced failure", 0)

    def test_exact_onset_equals_sequential_bisection(self):
        """exact_onset in either direction, on intervals on either side of 0
        and straddling it, walks the steps of plain bisection in p; an
        interval whose ends do not bracket the direction's change raises."""
        ends = {
            "increasing": (Status.UNSTABLE, Status.STABLE),
            "decreasing": (Status.STABLE, Status.UNSTABLE),
        }
        intervals = [(0.0, 5.0), (-5.0, 0.0), (-3.0, 7.5), (-4.0, 4.0)]
        onsets = set()
        rng = random.Random(1919)
        for i in range(48):
            moduli = (0.05, 0.95) if i % 2 == 0 else (1.05, 4.0)
            f = random_monic(rng, 2 + i % 7, moduli, density=0.7, real=i % 4 < 2)
            for direction, interval in itertools.product(ends, intervals):
                got = _outcome(exact_onset, f, direction, interval, 1e-6)
                if tuple(_status(f, p) for p in interval) != ends[direction]:
                    assert got[0] is BracketError
                    assert got[1].startswith(f"interval [{interval[0]}, {interval[1]}]")
                    continue
                want = _outcome(_sequential_bisect_onset, f, *interval, *ends[direction], 1e-6)
                assert got == want
                if isinstance(want, ThresholdResult):
                    assert (got.value, got.bracket) == (want.value, want.bracket)
                    onsets.add((direction, interval))
        assert onsets == {
            ("increasing", (0.0, 5.0)),
            ("increasing", (-3.0, 7.5)),
            ("increasing", (-4.0, 4.0)),
            ("decreasing", (-5.0, 0.0)),
            ("decreasing", (-3.0, 7.5)),
            ("decreasing", (-4.0, 4.0)),
        }


# The degree-7 input on which the first crossing from 0 (0.4423) is not the
# paper's p*: its principal power is Unstable again from about 0.565 to 0.81.
FOUND7 = MonicPolynomial(
    (
        -0.08236623741318755 - 0.020053098849155526j,
        0j,
        0j,
        0j,
        0.010043444828165759 + 0.23125266418922988j,
        0.41257330525942437 + 0.4276641753939637j,
        -0.010449170319921926 - 0.0584363405720814j,
    )
)
SCAN = 31  # auto_onset's grid: P i/31 for i = 1..31
REFERENCE = 1025  # points of the dense reference grid over (0, P]


def _far_end(f, mode):
    """auto_onset's stable end P: the stable side of pstar_exact's bracket
    under Theorem 1, the doubled stable end elsewhere."""
    sign = 1.0 if mode == "max" else -1.0
    try:
        lo, hi = pstar_exact(f, mode).bracket
    except NotApplicableError:
        return sign * th._doubled_stable_end(f, sign)
    return hi if mode == "max" else lo


def _unstable_runs(f, mode, beyond):
    """Runs of consecutive strictly Unstable powers of the reference grid
    over (0, P] (mirrored in mode min) with |p| > ``beyond``, as (first,
    last) magnitudes."""
    top = abs(_far_end(f, mode))
    sign = 1.0 if mode == "max" else -1.0
    qs = [top * i / REFERENCE for i in range(1, REFERENCE + 1)]
    statuses = roots.row_statuses(principal_rows(f, [sign * q for q in qs]))
    runs, run = [], None
    for q, st in zip(qs, statuses):
        if st is Status.UNSTABLE and q > beyond:
            run = (q, q) if run is None else (run[0], q)
        elif run is not None:
            runs.append(run)
            run = None
    return runs + ([run] if run is not None else [])


def _ladder_onset(f, mode, tol):
    """The onset from the first crossing's bracket, kept as a reference: the
    first strictly Unstable power of 0, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1, 2,
    4, ... below the doubled stable end, bisected up to that end."""
    sign = 1.0 if mode == "max" else -1.0
    stable = sign * th._doubled_stable_end(f, sign)
    ladder = [0.0, 1e-3, 1e-2, 0.1, 0.25, 0.5]
    ladder += [2.0**k for k in range(17) if 2.0**k < abs(stable)]
    for q in ladder:
        if _status(f, sign * q) is Status.UNSTABLE:
            if mode == "max":
                return exact_onset(f, "increasing", (sign * q, stable), tol)
            return exact_onset(f, "decreasing", (stable, sign * q), tol)
    raise BracketError("no strictly unstable power found between 0 and the stable region")


def _unstable_end(res):
    """|p| at the Unstable end of an onset bracket."""
    return abs(res.bracket[0] if res.value > 0 else res.bracket[1])


def _stable_end(res):
    return abs(res.bracket[1] if res.value > 0 else res.bracket[0])


def _seeded(rng, mode, degree, real, moduli):
    """A polynomial of the given degree with about 30% zero coefficients and
    log-uniform moduli; real ones take either sign exactly."""
    lo, hi = moduli
    while True:
        coeffs = []
        for _ in range(degree):
            if rng.random() < 0.3:
                coeffs.append(0j)
                continue
            m = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            if real:
                coeffs.append(complex(rng.choice((-m, m))))
            else:
                t = rng.uniform(-math.pi, math.pi)
                coeffs.append(m * complex(math.cos(t), math.sin(t)))
        f = MonicPolynomial(tuple(coeffs))
        if f.support:
            return f


@pytest.fixture(scope="module")
def seeded_onsets():
    """(f, mode, onset) of the first 220 seeded Theorem-1 inputs with an
    onset: degree 3-7, real and complex, both modes."""
    rng = random.Random(8088)
    found = []
    i = 0
    while len(found) < 220:
        mode = ("max", "min")[i % 2]
        moduli = (0.05, 0.95) if mode == "max" else (1.05, 4.0)
        f = _seeded(rng, mode, 3 + i % 5, i % 4 < 2, moduli)
        i += 1
        try:
            found.append((f, mode, auto_onset(f, mode)))
        except (BracketError, MarginalZoneError):
            pass
    return found


class TestLastCrossing:
    """auto_onset returns the last crossing below Theorem 1's stable end, at
    the resolution of its scan."""

    def test_found_input(self):
        res = auto_onset(FOUND7, "max")
        assert 0.80 < res.value <= pstar_exact(FOUND7, "max").value
        lo, hi = res.bracket
        assert is_schur_stable(principal_power(FOUND7, lo)).status is Status.UNSTABLE
        assert is_schur_stable(principal_power(FOUND7, hi)).status is Status.STABLE
        assert _unstable_runs(FOUND7, "max", hi) == []
        # The first crossing from 0, for comparison.
        assert _ladder_onset(FOUND7, "max", 1e-6).value < 0.45

    def test_no_unstable_run_past_the_bracket_wider_than_the_scan(self, seeded_onsets):
        """Past the bracket, the dense reference grid finds no Unstable power
        except in runs narrower than one scan spacing, which can fall
        between two scanned powers."""
        narrow = 0
        for f, mode, res in seeded_onsets:
            spacing = abs(_far_end(f, mode)) / SCAN
            runs = _unstable_runs(f, mode, _stable_end(res))
            assert all(last - first < spacing for first, last in runs), (f, mode)
            narrow += bool(runs)
        assert narrow <= len(seeded_onsets) // 50

    def test_single_crossing_keeps_its_value(self, seeded_onsets):
        """The value moves by less than tol from the first crossing's, unless
        the input is certified to cross again: its new Unstable end lies
        past the first crossing's Stable end."""
        moved = 0
        for f, mode, res in seeded_onsets:
            first = _ladder_onset(f, mode, 1e-6)
            if abs(res.value - first.value) >= 1e-6:
                assert _unstable_end(res) > _stable_end(first), (f, mode)
                moved += 1
        assert 0 < moved < len(seeded_onsets) // 2

    def test_guardian_map_changes_sign(self, seeded_onsets):
        """The guardian map (Saydy, Tits & Abed, MCSS 3, 1990), an
        independent boundary indicator, changes sign across the bracket of
        every onset with a carrier of degree <= 12.  It does so only at
        simple crossings, so inputs whose roots have a rotational symmetry
        (gcd of n - k over the support above 1), which cross in
        groups, are left out."""
        checked = 0
        for f, mode, res in seeded_onsets:
            if math.gcd(*(f.degree - k for k in f.support)) > 1:
                continue
            try:
                a, b = (guardian_map(f, p) for p in res.bracket)
            except UnsupportedDegreeError:
                continue
            assert min(a, b) <= 0.0 <= max(a, b), (f, mode, a, b)
            checked += 1
        assert checked >= 100

    @pytest.mark.parametrize(
        "coeffs, small",
        [
            # P = 124.3, so the first grid power is 4.01.
            ((0.9872917113706355 - 0.08014250033734097j, 0.03924331383629129 + 0.9962835275391093j), (1.0, 2.0)),
            # P = 0.314: the onset lies between the first two small powers.
            ((0j, 0.21484601530011327 - 0.12452718533961812j, 0.0034585253126661096 - 0.03684102930275337j), (1e-3, 1e-2)),
        ],
    )
    def test_onset_below_the_grid_spacing(self, coeffs, small):
        f = MonicPolynomial(coeffs)
        res = auto_onset(f, "max")
        assert res.value < _far_end(f, "max") / SCAN
        assert small[0] <= res.bracket[0] < res.bracket[1] <= small[1]
        first = _ladder_onset(f, "max", 1e-6)
        assert abs(res.value - first.value) < 1e-6

    @pytest.mark.parametrize("mode", ["max", "min"])
    @pytest.mark.parametrize(
        "onset, at_zero, ends",
        [
            (0.3, Status.MARGINAL, (0.25, 0.5)),  # between two small powers
            (5e-4, Status.UNSTABLE, (0.0, 1e-3)),  # below them: p = 0 is solved
        ],
    )
    def test_onset_below_the_grid_spacing_when_p_is_huge(
        self, monkeypatch, mode, onset, at_zero, ends
    ):
        """At moduli 0.999999, P is about 693,147 and the first grid power
        about 22,360; the small powers, and p = 0 below them, still bracket
        the onset."""
        m = 0.999999 if mode == "max" else 1 / 0.999999
        f = MonicPolynomial((m, m))

        def fake_status(row):
            q = abs(math.log(abs(row[0])) / math.log(m))
            if q == 0.0:
                return at_zero
            return Status.UNSTABLE if q < onset else Status.STABLE

        monkeypatch.setattr(th, "row_statuses", lambda asc: [fake_status(r) for r in asc])
        assert abs(_far_end(f, mode)) > 693_000
        res = auto_onset(f, mode)
        assert abs(abs(res.value) - onset) < 1e-6
        assert ends[0] <= _unstable_end(res) < _stable_end(res) <= ends[1]

    @staticmethod
    def _fake_marginal_scan_point(monkeypatch, width):
        """f = (0.5, 0.5), P = 1: Unstable below the scan power 20/31,
        Marginal within ``width`` of it, Stable above."""
        f = MonicPolynomial((0.5, 0.5))
        q = _far_end(f, "max") * 20 / SCAN

        def fake_status(row):
            p = math.log(abs(row[0])) / math.log(0.5)
            if abs(p - q) <= width:
                return Status.MARGINAL
            return Status.UNSTABLE if p < q else Status.STABLE

        monkeypatch.setattr(th, "row_statuses", lambda asc: [fake_status(r) for r in asc])
        return f, q

    def test_marginal_scan_point_closes_out(self, monkeypatch):
        f, q = self._fake_marginal_scan_point(monkeypatch, 1e-9)
        res = auto_onset(f, "max", tol=1e-4)
        assert res.bracket == (q - 0.5e-4, q + 0.5e-4)

    def test_marginal_zone_at_a_scan_point(self, monkeypatch):
        f, q = self._fake_marginal_scan_point(monkeypatch, 1e-3)
        with pytest.raises(MarginalZoneError, match=f"p = {q}"):
            auto_onset(f, "max", tol=1e-4)

    def test_failing_point_below_the_last_unstable_does_not_raise(self, monkeypatch):
        """A scan batch that fails is solved one power at a time from the
        top down, so a power below the last Unstable one is never solved."""
        top = _far_end(F1, "max")
        _decline_newton(monkeypatch)
        monkeypatch.setattr(roots, "_SCHUR_COHN_MAX_DEGREE", 0)
        want = auto_onset(F1, "max")
        raised = _failing_solve(monkeypatch, principal_power(F1, top * 5 / SCAN))
        assert auto_onset(F1, "max") == want
        assert len(raised) == 1  # the batch, not the walk

    def test_failing_point_above_the_last_unstable_raises(self, monkeypatch):
        _decline_newton(monkeypatch)
        _failing_solve(monkeypatch, principal_power(F1, _far_end(F1, "max") * 30 / SCAN))
        got = _outcome(auto_onset, F1, "max", 1e-6)
        assert got[:2] == (UnconvergedError, "forced failure")

    def test_outside_theorem_one_wrong_side_modulus(self):
        """A modulus on the wrong side of 1 for the mode: the outcome is the
        first crossing's, errors and texts included."""
        rng = random.Random(97)
        for i in range(40):
            mode = ("max", "min")[i % 2]
            f = _seeded(rng, mode, 3 + i % 5, i % 4 < 2, (0.05, 0.95) if mode == "max" else (1.05, 4.0))
            coeffs = list(f.coeffs)
            k = rng.choice(f.support)
            coeffs[k] *= (1.2 if mode == "max" else 0.8) / abs(coeffs[k])
            f = MonicPolynomial(tuple(coeffs))
            assert _outcome(auto_onset, f, mode, 1e-6) == _outcome(_ladder_onset, f, mode, 1e-6)

    def test_outside_theorem_one_unit_modulus(self):
        """A modulus exactly 1: a BracketError is the first crossing's, text
        included.  A value moves by less than tol, unless a strictly
        Unstable power lies past the first crossing's Stable end; then the
        first crossing is not p*, and the search for the last one may end
        in a marginal zone."""
        rng = random.Random(98)
        valued = 0
        for i in range(60):
            mode = ("max", "min")[i % 2]
            f = _seeded(rng, mode, 3 + i % 5, i % 4 < 2, (0.05, 0.95) if mode == "max" else (1.05, 4.0))
            coeffs = list(f.coeffs)
            coeffs[rng.choice(f.support)] = rng.choice((1, -1, 1j, -1j, 0.6 + 0.8j))
            f = MonicPolynomial(tuple(coeffs))
            got, want = _outcome(auto_onset, f, mode, 1e-6), _outcome(_ladder_onset, f, mode, 1e-6)
            if not isinstance(want, ThresholdResult):
                assert want[0] is not BracketError or got == want
                continue
            valued += 1
            if not (isinstance(got, ThresholdResult) and abs(got.value - want.value) < 1e-6):
                assert _unstable_runs(f, mode, _stable_end(want)), (f, mode)
        assert valued > 0


# F1's crossing from 40-digit mpmath.findroot on F(p, t) = f^[p](e^{it}),
# at t = pi: 3.354572203984166993.
F1_CROSSING = 3.354572203984166993


class TestNewtonOnset:
    """auto_onset's Newton tail on F(p, t) = f^[p](e^{it}): an accepted
    crossing lies inside the bracket bisection gives, with checked ends,
    and a declined tail leaves bisection's outcome as it was."""

    def test_example_one_f_is_the_crossing(self):
        res = auto_onset(F1, "max")
        assert res.method is Method.NEWTON
        assert abs(res.value - F1_CROSSING) <= 4 * math.ulp(F1_CROSSING)

    def test_seeded_crossings_lie_inside_the_bisection_bracket(self, monkeypatch):
        """300 seeded onsets, degree 3-7, both modes, real and complex, half
        from ``_seeded`` and half from ``random_monic``.  The tail itself
        never reaches the root finder: its start is a companion eigenvalue,
        and the recursion decides its check batch."""
        rng = random.Random(3131)
        tol = 1e-6
        accepted = found = i = 0
        inside, solved = [], []
        newton, find_root_rows, solve_chunk = th._newton_onset, roots.find_root_rows, roots._solve_chunk

        def tail(*args):
            inside.append(True)
            try:
                return newton(*args)
            finally:
                inside.pop()

        def recording(solve, name):
            def wrapped(*args):
                if inside:
                    solved.append(name)
                return solve(*args)

            return wrapped

        monkeypatch.setattr(th, "_newton_onset", tail)
        monkeypatch.setattr(roots, "find_root_rows", recording(find_root_rows, "find_root_rows"))
        monkeypatch.setattr(roots, "_solve_chunk", recording(solve_chunk, "_solve_chunk"))
        while found < 300:
            mode = ("max", "min")[i % 2]
            moduli = (0.05, 0.95) if mode == "max" else (1.05, 4.0)
            if i % 8 < 4:
                f = _seeded(rng, mode, 3 + i % 5, i % 3 == 0, moduli)
            else:
                f = random_monic(rng, 3 + i % 5, moduli, density=0.7, real=i % 3 == 0)
            i += 1
            got = _outcome(auto_onset, f, mode, tol)
            with monkeypatch.context() as m:
                _decline_newton(m)
                want = _outcome(auto_onset, f, mode, tol)
            if not isinstance(want, ThresholdResult):
                assert got == want
                continue
            found += 1
            if got.method is not Method.NEWTON:
                assert got == want
                continue
            accepted += 1
            lo, hi = got.bracket
            assert want.bracket[0] < got.value < want.bracket[1], (f, mode)
            assert lo < got.value < hi
            assert hi - lo <= tol
            ends = (Status.UNSTABLE, Status.STABLE) if mode == "max" else (Status.STABLE, Status.UNSTABLE)
            assert (_status(f, lo), _status(f, hi)) == ends, (f, mode)
        assert accepted >= 0.95 * found
        assert solved == []

    # The outcomes of bisection, which auto_onset returned before the tail.
    BISECTED = [
        (F1, "max", 3.354572296567293, (3.3545718778428046, 3.3545727152917815)),
        (G1, "min", -1.0157900265309912, (-1.015790331844339, -1.0157897212176432)),
        (G2, "min", -3.234204299994482, (-3.2342047189531047, -3.2342038810358584)),
    ]

    @pytest.mark.parametrize("f, mode, value, bracket", BISECTED)
    def test_no_convergence_declines_to_bisection(self, monkeypatch, f, mode, value, bracket):
        monkeypatch.setattr(th, "_NEWTON_STEPS", 1)  # one step from the midpoint
        res = auto_onset(f, mode)
        assert res == ThresholdResult(Kind.EXACT_ONSET, value, Method.BISECTION, bracket)

    @pytest.mark.parametrize("failure", ["no-convergence", "overflow"])
    @pytest.mark.parametrize("f, mode, value, bracket", BISECTED)
    def test_start_failure_declines_to_bisection(
        self, monkeypatch, f, mode, value, bracket, failure
    ):
        """The start row's eigenvalues do not converge, or the row
        overflows: the tail declines before its first step."""
        starts = []
        if failure == "no-convergence":

            def eigvals(a):
                starts.append(a.shape)
                raise np.linalg.LinAlgError("Eigenvalues did not converge")

            monkeypatch.setattr(np.linalg, "eigvals", eigvals)
            want = [(f.degree, f.degree)]
        else:
            newton, rows = th._newton_onset, th.principal_rows

            def overflowing(f, ps):
                starts.append(len(ps))
                raise InvalidInputError(f"|{f.coeffs[0]}|^{ps[0]} overflows the floating-point range")

            def tail(*args):
                monkeypatch.setattr(th, "principal_rows", overflowing)
                try:
                    return newton(*args)
                finally:
                    monkeypatch.setattr(th, "principal_rows", rows)

            monkeypatch.setattr(th, "_newton_onset", tail)
            want = [1]
        res = auto_onset(f, mode)
        assert starts == want
        assert res == ThresholdResult(Kind.EXACT_ONSET, value, Method.BISECTION, bracket)

    @pytest.mark.parametrize("f, mode, value, bracket", BISECTED)
    def test_marginal_check_declines_to_bisection(self, monkeypatch, f, mode, value, bracket):
        """Only the check batch, the one status batch the tail asks for,
        reads Marginal."""
        inside, checks = [], []
        newton, statuses = th._newton_onset, th._statuses

        def tail(*args):
            inside.append(True)
            try:
                return newton(*args)
            finally:
                inside.pop()

        def marginal_in_tail(f, sign, qs):
            status = statuses(f, sign, qs)
            if inside:
                checks.append(len(qs))
                return lambda q: Status.MARGINAL
            return status

        monkeypatch.setattr(th, "_newton_onset", tail)
        monkeypatch.setattr(th, "_statuses", marginal_in_tail)
        res = auto_onset(f, mode)
        assert checks == [2]
        assert res == ThresholdResult(Kind.EXACT_ONSET, value, Method.BISECTION, bracket)

    @pytest.mark.parametrize("term", [0j, complex(math.nan, 0.0)], ids=["zero", "nan"])
    @pytest.mark.parametrize("f, mode, value, bracket", BISECTED)
    def test_singular_jacobian_declines_to_bisection(
        self, monkeypatch, f, mode, value, bracket, term
    ):
        """Every term of F is 0, or NaN: the first step's Jacobian is zero,
        or not finite, and the tail declines there."""
        terms = []

        def rect(r, phi):
            terms.append(phi)
            return term

        monkeypatch.setattr(th, "cmath", types.SimpleNamespace(rect=rect))
        res = auto_onset(f, mode)
        assert len(terms) == 1 + len(f.support)  # one step, then the decline
        assert res == ThresholdResult(Kind.EXACT_ONSET, value, Method.BISECTION, bracket)

    @pytest.mark.parametrize("error", [OverflowError, ValueError])
    @pytest.mark.parametrize("f, mode, value, bracket", BISECTED)
    def test_step_error_declines_to_bisection(self, monkeypatch, f, mode, value, bracket, error):
        """A term of F raises OverflowError (|a_k|^p) or ValueError (an
        infinite angle) during the steps: the tail declines."""
        raised = []

        def rect(r, phi):
            raised.append(error)
            raise error("a term of F")

        monkeypatch.setattr(th, "cmath", types.SimpleNamespace(rect=rect))
        res = auto_onset(f, mode)
        assert raised == [error]
        assert res == ThresholdResult(Kind.EXACT_ONSET, value, Method.BISECTION, bracket)

    @pytest.mark.parametrize(
        "error",
        [InvalidInputError("|a|^p overflows"), UnconvergedError("no certificate")],
        ids=["invalid-input", "unconverged"],
    )
    @pytest.mark.parametrize("f, mode, value, bracket", BISECTED)
    def test_raising_check_declines_to_bisection(
        self, monkeypatch, f, mode, value, bracket, error
    ):
        """The check batch's lookup raises, as a power that overflows or a
        row without a certificate does: the tail declines."""
        inside, checks = [], []
        newton, statuses = th._newton_onset, th._statuses

        def tail(*args):
            inside.append(True)
            try:
                return newton(*args)
            finally:
                inside.pop()

        def raising_in_tail(f, sign, qs):
            status = statuses(f, sign, qs)
            if not inside:
                return status

            def lookup(q):
                checks.append(q)
                raise error

            return lookup

        monkeypatch.setattr(th, "_newton_onset", tail)
        monkeypatch.setattr(th, "_statuses", raising_in_tail)
        res = auto_onset(f, mode)
        assert len(checks) == 1
        assert res == ThresholdResult(Kind.EXACT_ONSET, value, Method.BISECTION, bracket)


class TestModeMin:
    """Mode min is mode max under p -> -p.  These pin its results to the
    last bit, which the golden hashes of ``report.json``, rounded to 12
    digits, do not.  ``onset`` is auto_onset with its Newton tail declined,
    the bisection it falls back to; ``newton`` is auto_onset as it is."""

    @pytest.mark.parametrize(
        "g, search, value, bracket",
        [
            (G1, "grid", -1.2412704315421375, None),
            (G1, "exact", -1.2405589654831601, (-1.2405589654836149, -1.2405589654827054)),
            (G1, "onset", -1.0157900265309912, (-1.015790331844339, -1.0157897212176432)),
            (G2, "grid", -3.409177046823969, None),
            (G2, "exact", -3.404652169404926, (-3.404652169405381, -3.4046521694044714)),
            (G2, "onset", -3.234204299994482, (-3.2342047189531047, -3.2342038810358584)),
            (G1, "newton", -1.0157899036022398, (-1.0157901536022398, -1.0157896536022397)),
            (G2, "newton", -3.234204505061299, (-3.234204755061299, -3.2342042550612993)),
        ],
    )
    def test_full_precision(self, monkeypatch, g, search, value, bracket):
        if search == "onset":
            _decline_newton(monkeypatch)
        res = {
            "grid": lambda: pstar_grid(g, "min", 1000),
            "exact": lambda: pstar_exact(g, "min"),
            "onset": lambda: auto_onset(g, "min"),
            "newton": lambda: auto_onset(g, "min"),
        }[search]()
        assert (res.value, res.bracket) == (value, bracket)

    def test_cancelling_sum_is_positive_zero(self):
        """The midpoint of -a and a is p = +0.0, as a search run in p
        reaches it, in either orientation; not -0.0."""
        # A single support index: the sum |2|^p is 1 at p = 0, the first midpoint.
        res = pstar_exact(MonicPolynomial((2.0, 0.0)), "min")
        assert repr(res.bracket) == "(0.0, 9.094947017729282e-13)"
        # The first midpoint of [-4, 4], p = 0, is Marginal and cannot be closed out.
        f = MonicPolynomial(
            (
                -2.3825657790519257 + 0.27165471521229295j,
                -2.6618670107857825 - 0.8482718150189165j,
                -1.104228769710814 - 0.5712470917765305j,
            )
        )
        with pytest.raises(MarginalZoneError, match=r"around p = 0\.0$"):
            exact_onset(f, "decreasing", (-4.0, 4.0))


class TestOrderingChain:
    def test_example_one(self):
        lo = beta_star(F1, "min").value
        onset = auto_onset(F1, "max", tol=1e-6).value
        exact = pstar_exact(F1, "max").value
        grid = pstar_grid(F1, "max", 1000).value
        assert lo <= onset <= exact + 1e-9 <= grid + 1e-9

    def test_random_instances(self, rng):
        checked = 0
        attempts = 0
        while checked < 100 and attempts < 400:
            attempts += 1
            f = random_contracting(rng, max_degree=6)
            if is_schur_stable(principal_power(f, 0.0)).status is not Status.UNSTABLE:
                continue  # onset undefined when the zeroth power is marginal
            lo = beta_star(f, "min").value
            onset = auto_onset(f, "max", tol=1e-4).value
            exact = pstar_exact(f, "max").value
            grid = pstar_grid(f, "max", 150).value
            assert lo <= onset + 1e-4
            assert onset <= exact + 1e-4
            assert exact <= grid + 1e-12
            checked += 1
        assert checked == 100


class TestGuardianMap:
    def test_zero_on_unit_circle_roots(self):
        f = MonicPolynomial((1.0, 0.0))  # roots +-i
        assert abs(guardian_map(f, 1.0)) <= 1e-12

    def test_nonzero_strictly_inside(self):
        f = MonicPolynomial((0.25, 0.0))
        assert abs(guardian_map(f, 1.0)) > 1e-6

    def test_sign_change_across_onset(self):
        a, b = guardian_map(F1, 3.3), guardian_map(F1, 3.4)
        assert a > 0 > b

    def test_complex_input_uses_real_carrier(self):
        val = guardian_map(F2, 2.0)
        assert math.isfinite(val)

    def test_degree_cap(self):
        f = MonicPolynomial(tuple([0.1j] * 7))  # real carrier degree 14
        with pytest.raises(UnsupportedDegreeError):
            guardian_map(f, 1.0)


class TestInputBounds:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-6, True])
    @pytest.mark.parametrize(
        "search",
        [
            lambda tol: auto_onset(F1, "max", tol),
            lambda tol: exact_onset(F1, "increasing", (0.0, 5.0), tol),
            lambda tol: pstar_exact(F1, "max", tol),
        ],
        ids=["auto_onset", "exact_onset", "pstar_exact"],
    )
    def test_tolerance_must_be_positive_and_finite(self, search, tol):
        with pytest.raises(InvalidInputError, match="tol must be positive and finite"):
            search(tol)

    @pytest.mark.parametrize(
        "interval", [(0.0, math.inf), (-math.inf, 5.0), (math.nan, 5.0), (0.0, math.nan)]
    )
    @pytest.mark.parametrize(
        "search",
        [lambda interval: exact_onset(F1, "increasing", interval)],
        ids=["exact_onset"],
    )
    def test_interval_must_be_finite(self, search, interval):
        with pytest.raises(InvalidInputError, match=r"search interval \[.*\] must be finite"):
            search(interval)

    @pytest.mark.parametrize("grid_n", [1000.0, True])
    def test_grid_n_must_be_an_integer(self, grid_n):
        with pytest.raises(InvalidInputError, match="grid_n must be an integer"):
            pstar_grid(F1, "max", grid_n)

    def test_numpy_integer_grid_n(self):
        res = pstar_grid(F1, "max", np.int64(100))
        assert res == pstar_grid(F1, "max", 100)
        assert type(res.to_json()["grid_n"]) is int

    def test_grid_cap(self, monkeypatch):
        # F1 has 3 support indices: 100 grid points need 300 ratios.
        monkeypatch.setattr(th, "MAX_GRID_RATIOS", 300)
        assert pstar_grid(F1, "max", 100).grid_resolution == 100
        with pytest.raises(InvalidInputError) as exc:
            pstar_grid(F1, "max", 101)
        assert str(exc.value) == (
            "grid_n = 101 over 3 support indices: the ratio count, |support| x grid_n,"
            " is 303; at most 300 are supported"
        )

    def test_grid_cap_names_a_long_grid_by_its_digits(self):
        """A grid_n too long to print reads as a noun phrase in both places
        (it read "needs a 5001-digit integer ratios")."""
        with pytest.raises(InvalidInputError) as exc:
            pstar_grid(F1, "max", 10**5000)
        assert str(exc.value) == (
            "grid_n = a 5001-digit integer over 3 support indices: the ratio count,"
            f" |support| x grid_n, is a 5001-digit integer; at most {th.MAX_GRID_RATIOS}"
            " are supported"
        )

    def test_grid_cap_before_allocation(self, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("ratio table built")

        monkeypatch.setattr(th.np, "arange", no_table)
        f = MonicPolynomial((0.5,))  # one support index: grid_n ratios
        with pytest.raises(InvalidInputError, match="at most"):
            pstar_grid(f, "max", th.MAX_GRID_RATIOS + 1)


class TestThresholdResultJson:
    def test_plain(self):
        obj = pstar_grid(F1, "max", 100).to_json()
        assert obj["kind"] == "SufficientMax"
        assert obj["method"] == "GridSearch"
        assert obj["grid_n"] == 100
        assert obj["bracket"] is None

    def test_values_are_python_floats(self):
        results = [
            pstar_grid(F1, "max", 100),
            pstar_grid(G1, "min", 100),
            pstar_exact(F1, "max"),
            beta_star(G1, "max"),
            exact_onset(F1, "increasing", (0.0, 5.0)),
            auto_onset(G1, "min"),
        ]
        for res in results:
            assert type(res.value) is float
            assert res.bracket is None or [type(x) for x in res.bracket] == [float, float]

    def test_sentinel_serialization(self):
        obj = pstar_grid(MonicPolynomial((0j,)), "max", 100).to_json()
        assert obj["value"] == "-inf"
