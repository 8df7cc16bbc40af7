import itertools
import math
import random

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
    guardian_onset,
    hadamard_power,
    is_schur_stable,
    kstar_test,
    necessary_condition,
    principal_power,
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
        """Bracket search one point at a time, then bisection three levels
        per batch, without deciding the bracket ends a second time.  The
        recursion decides every status, so no root is found."""
        calls = _count_status_rows(monkeypatch)
        solves = _count_root_solves(monkeypatch)
        res = auto_onset(F1, "max", tol=1e-6)
        # Stable end at 64, unstable end at 0, then 26 bisection steps: eight
        # rounds of 7 midpoints and a last round of 2 levels.
        assert calls == [1, 1] + [7] * 8 + [3]
        assert solves == []
        assert res.bracket == (3.3545713424682617, 3.354572296142578)

    def test_exact_onset_root_finds(self, monkeypatch):
        """Both bracket ends one at a time, then 23 bisection steps in rounds
        of three levels, all decided without roots."""
        calls = _count_status_rows(monkeypatch)
        solves = _count_root_solves(monkeypatch)
        exact_onset(F1, "increasing", (0.0, 5.0), 1e-6)
        assert calls == [1, 1] + [7] * 7 + [3]
        assert solves == []

    def test_auto_onset_uncertifiable_stable_end(self):
        # 1.3^p grows without bound, so no power is stable; the solve at
        # p = 2048 overflows and cannot be certified.
        f = MonicPolynomial((0.05, 1.3, 0.2))
        with pytest.raises(BracketError, match="p = 2048.0"):
            auto_onset(f, "max")

    def test_example_two_integer_transition(self):
        for p in (1, 2, 3):
            assert is_schur_stable(principal_power(F2, p)).status is Status.UNSTABLE
        assert is_schur_stable(principal_power(F2, 4)).status is Status.STABLE
        res = auto_onset(F2, "max", tol=1e-3)
        assert 3.0 < res.value < 4.0

    def test_marginal_midpoint_close_out(self, monkeypatch):
        # a narrow marginal band around the crossing is stepped over
        def fake_status(poly):
            p = math.log(abs(poly.coeffs[0])) / math.log(0.5)
            if abs(p - 2.0) < 1e-9:
                return Status.MARGINAL
            return Status.UNSTABLE if p < 2.0 else Status.STABLE

        monkeypatch.setattr(
            th, "schur_cohn_statuses", lambda polys: [fake_status(g) for g in polys]
        )
        f = MonicPolynomial((0.5, 0.0))
        res = th.exact_onset(f, "increasing", (0.0, 4.0), tol=1e-4)
        lo, hi = res.bracket
        assert lo <= 2.0 <= hi
        assert hi - lo <= 1e-4

    def test_marginal_zone_error(self, monkeypatch):
        # a marginal band wider than the tolerance cannot be certified
        def fake_status(poly):
            p = math.log(abs(poly.coeffs[0])) / math.log(0.5)
            if abs(p - 2.0) < 0.5:
                return Status.MARGINAL
            return Status.UNSTABLE if p < 2.0 else Status.STABLE

        monkeypatch.setattr(
            th, "schur_cohn_statuses", lambda polys: [fake_status(g) for g in polys]
        )
        f = MonicPolynomial((0.5, 0.0))
        with pytest.raises(MarginalZoneError):
            th.exact_onset(f, "increasing", (0.0, 4.0), tol=1e-4)


def _sequential_bisect_onset(f, lo, hi, lo_status, hi_status, tol):
    """Plain bisection, one root-find per step, kept as the reference for the
    batched lookahead in ``thresholds._bisect_onset``."""
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


def _outcome(search, *args):
    """A search's result, or its error as (type, message, row)."""
    try:
        return search(*args)
    except HadstabError as exc:
        return type(exc), str(exc), getattr(exc, "row", None)


def _count_status_rows(monkeypatch):
    """Record the row count of every status batch the onset searches ask
    ``roots.schur_cohn_statuses`` for."""
    calls = []
    statuses = th.schur_cohn_statuses

    def counting(polys):
        polys = list(polys)
        calls.append(len(polys))
        return statuses(polys)

    monkeypatch.setattr(th, "schur_cohn_statuses", counting)
    return calls


def _count_root_solves(monkeypatch):
    """Record the row count of every chunk the root finder solves."""
    calls = []
    solve_chunk = roots._solve_chunk

    def counting(polys, offset):
        calls.append(len(polys))
        return solve_chunk(polys, offset)

    monkeypatch.setattr(roots, "_solve_chunk", counting)
    return calls


def _failing_solve(monkeypatch, bad):
    """Send every status to the root finder, past the recursion, and make
    every root-find of the polynomial ``bad`` raise UnconvergedError,
    batched or alone; returns the list of rows that raised."""
    monkeypatch.setattr(roots, "_SCHUR_COHN_MAX_DEGREE", 0)
    raised = []
    solve_chunk = roots._solve_chunk

    def chunk(polys, offset):
        for i, g in enumerate(polys):
            if g == bad:
                raised.append(offset + i)
                raise UnconvergedError("forced failure", row=offset + i)
        return solve_chunk(polys, offset)

    monkeypatch.setattr(roots, "_solve_chunk", chunk)
    return raised


class TestLookaheadBisection:
    """The batched lookahead walks exactly the steps of plain bisection."""

    def test_equals_sequential_bisection(self, monkeypatch):
        def onsets(f):
            """Lookahead and reference outcomes agree; count the onsets."""
            found = 0
            for mode in ("max", "min"):
                for tol in (1e-6, 1e-4):
                    got = _outcome(auto_onset, f, mode, tol)
                    with monkeypatch.context() as m:
                        m.setattr(th, "_bisect_onset", _sequential_bisect_onset)
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
        # From [0, 64] the walk visits 32, 16 and 8; 48 is solved in the
        # same batch but never reached.
        want = exact_onset(F1, "increasing", (0.0, 64.0), 1e-6)
        raised = _failing_solve(monkeypatch, principal_power(F1, 48.0))
        assert exact_onset(F1, "increasing", (0.0, 64.0), 1e-6) == want
        assert raised == [2]  # row 2 of the batch 32, 16, 48, 8, 24, 40, 56

    def test_failing_point_on_the_walk_raises_as_alone(self, monkeypatch):
        _failing_solve(monkeypatch, principal_power(F1, 16.0))
        got = _outcome(exact_onset, F1, "increasing", (0.0, 64.0), 1e-6)
        monkeypatch.setattr(th, "_bisect_onset", _sequential_bisect_onset)
        want = _outcome(exact_onset, F1, "increasing", (0.0, 64.0), 1e-6)
        assert got == want == (UnconvergedError, "forced failure", 0)

    @pytest.mark.parametrize("rows, levels", [(1, 1), (2, 1), (3, 2), (6, 2), (7, 3)])
    def test_levels_fit_one_chunk(self, monkeypatch, rows, levels):
        """Where a chunk of the root solver holds fewer rows than three
        levels of midpoints, a round takes as many levels as fit; one level
        is plain bisection, one single-row status batch per step."""
        want = _sequential_bisect_onset(
            F1, 0.0, 5.0, Status.UNSTABLE, Status.STABLE, 1e-6
        )
        monkeypatch.setattr(roots, "_CHUNK_ELEMENTS", rows * F1.degree**2)
        calls = _count_status_rows(monkeypatch)
        got = exact_onset(F1, "increasing", (0.0, 5.0), 1e-6)
        assert (got.value, got.bracket) == (want.value, want.bracket)
        assert calls[:2] == [1, 1]  # the bracket ends
        assert max(calls[2:]) == 2**levels - 1
        if levels == 1:
            assert calls[2:] == [1] * 23


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

    def test_guardian_onset_agrees_with_bisection(self):
        root_loc = exact_onset(F1, "increasing", (0.0, 5.0), tol=1e-6)
        det_loc = guardian_onset(F1, (3.0, 4.0), tol=1e-6)
        assert det_loc.method is Method.GUARDIAN_MAP
        assert det_loc.value == pytest.approx(root_loc.value, abs=1e-4)

    def test_guardian_onset_requires_sign_change(self):
        with pytest.raises(BracketError):
            guardian_onset(F1, (4.0, 5.0))


class TestInputBounds:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-6])
    @pytest.mark.parametrize(
        "search",
        [
            lambda tol: auto_onset(F1, "max", tol),
            lambda tol: exact_onset(F1, "increasing", (0.0, 5.0), tol),
            lambda tol: pstar_exact(F1, "max", tol),
            lambda tol: guardian_onset(F1, (3.0, 4.0), tol),
        ],
        ids=["auto_onset", "exact_onset", "pstar_exact", "guardian_onset"],
    )
    def test_tolerance_must_be_positive_and_finite(self, search, tol):
        with pytest.raises(InvalidInputError, match="tol must be positive and finite"):
            search(tol)

    @pytest.mark.parametrize(
        "interval", [(0.0, math.inf), (-math.inf, 5.0), (math.nan, 5.0), (0.0, math.nan)]
    )
    @pytest.mark.parametrize(
        "search",
        [
            lambda interval: exact_onset(F1, "increasing", interval),
            lambda interval: guardian_onset(F1, interval),
        ],
        ids=["exact_onset", "guardian_onset"],
    )
    def test_interval_must_be_finite(self, search, interval):
        with pytest.raises(InvalidInputError, match=r"search interval \[.*\] must be finite"):
            search(interval)

    def test_grid_cap(self, monkeypatch):
        # F1 has 3 support indices: 100 grid points need 300 ratios.
        monkeypatch.setattr(th, "MAX_GRID_RATIOS", 300)
        assert pstar_grid(F1, "max", 100).grid_resolution == 100
        with pytest.raises(InvalidInputError, match="at most 300"):
            pstar_grid(F1, "max", 101)

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

    def test_sentinel_serialization(self):
        obj = pstar_grid(MonicPolynomial((0j,)), "max", 100).to_json()
        assert obj["value"] == "-inf"
