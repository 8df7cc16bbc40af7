import abc
import enum
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_monic
from hadstab import (
    BranchSet,
    CriterionId,
    CriterionOutcome,
    InvalidInputError,
    MonicPolynomial,
    SimplexWeights,
    Status,
    auto_onset,
    find_roots,
    hadamard_product,
    is_schur_stable,
    necessary_condition,
    principal_rows,
    pstar_exact,
    pstar_grid,
    report,
    satisfies_stability_condition,
    sharpness_witness,
    stabilizing_partner,
    synthesize_witness,
    szego_product,
    theorem3_check,
)

F1 = MonicPolynomial((0.7, 0.2, 0.9, 0.0, 0.0))
G1 = MonicPolynomial((3.0, 2.0, 2.5, 0.0, 0.0))


class _Index(enum.IntEnum):
    ONE = 1


class _Weight(float):
    pass


class TestSimplexWeights:
    def test_valid(self):
        w = SimplexWeights((0, 2), (0.25, 0.5))
        assert w.as_dict() == {0: 0.25, 2: 0.5}

    @pytest.mark.parametrize(
        "support,weights",
        [
            ((), ()),
            ((1, 0), (0.2, 0.2)),
            ((0, 0), (0.2, 0.2)),
            ((0,), (0.0,)),
            ((0,), (1.5,)),
            ((0, 1), (0.7, 0.7)),
            ((0, 1), (0.5,)),
            ((-1,), (0.5,)),
        ],
    )
    def test_invalid(self, support, weights):
        with pytest.raises(InvalidInputError):
            SimplexWeights(support, weights)

    def test_json(self):
        assert SimplexWeights((1,), (0.5,)).to_json() == {"1": 0.5}

    @pytest.mark.parametrize("index", [0.5, True, "a"])
    def test_non_integer_index_rejected(self, index):
        """A float was truncated to 0, True taken as 1, and text raised a
        raw ValueError."""
        with pytest.raises(InvalidInputError, match="weight indices must be integers"):
            SimplexWeights((index,), (0.5,))

    def test_numpy_integer_index(self):
        w = SimplexWeights((np.int64(1),), (0.5,))
        assert w.support == (1,) and type(w.support[0]) is int

    @pytest.mark.parametrize("weight", ["a", True])
    def test_non_real_weight_rejected(self, weight):
        """Text raised a raw ValueError, and True was taken as 1.0."""
        with pytest.raises(InvalidInputError, match="weights must be real numbers"):
            SimplexWeights((0,), (weight,))

    def test_numpy_weight(self):
        assert SimplexWeights((0,), (np.float32(0.5),)).weights == (0.5,)

    def test_subclass_index_and_weight(self):
        """Not the exact built-in type, so checked by the ``numbers`` ABCs."""
        w = SimplexWeights((_Index.ONE,), (_Weight(0.5),))
        assert w == SimplexWeights((1,), (0.5,))
        assert type(w.support[0]) is int and type(w.weights[0]) is float


class TestStabilityCondition:
    def test_satisfied_with_witness(self):
        out = satisfies_stability_condition(MonicPolynomial((0.5, 0.3)))
        assert out.criterion_id is CriterionId.FUJIWARA
        assert out.satisfied
        w = out.witness.as_dict()
        assert w[0] > 0.5 and w[1] > 0.3
        assert sum(w.values()) <= 1 + 1e-12

    def test_example_inputs_fail(self):
        assert not satisfies_stability_condition(F1).satisfied
        assert not satisfies_stability_condition(G1).satisfied

    def test_empty_support_vacuous(self):
        out = satisfies_stability_condition(MonicPolynomial((0j, 0j)))
        assert out.satisfied and out.witness is None
        assert is_schur_stable(MonicPolynomial((0j, 0j))).status is Status.STABLE

    def test_boundary_sum_not_satisfied(self):
        assert not satisfies_stability_condition(MonicPolynomial((0.5, 0.5))).satisfied

    @given(st.lists(st.floats(0.01, 0.5), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_witness_dominates_strictly(self, mods):
        total = sum(mods)
        mods = [m / total * 0.9 for m in mods]
        w = synthesize_witness(dict(enumerate(mods)))
        table = w.as_dict()
        assert all(table[k] > m for k, m in enumerate(mods))
        assert sum(table.values()) <= 1 + 1e-12

    def test_witness_of_no_moduli_rejected(self):
        # This divided by zero.
        with pytest.raises(InvalidInputError, match="moduli must be non-empty"):
            synthesize_witness({})

    def test_witness_of_text_modulus_rejected(self):
        # This raised a raw TypeError.
        with pytest.raises(InvalidInputError, match="moduli must be real numbers"):
            synthesize_witness({0: "a"})

    def test_witness_of_text_index_rejected(self):
        # Sorting the indices raised a raw TypeError.
        with pytest.raises(InvalidInputError, match="weight indices must be integers"):
            synthesize_witness({0: 0.1, "a": 0.1})

    @pytest.mark.parametrize("modulus", [-0.5, math.nan])
    def test_witness_of_negative_or_nan_modulus_rejected(self, modulus):
        # -0.5 returned the weights (1.0,).
        with pytest.raises(InvalidInputError, match="moduli must be nonnegative"):
            synthesize_witness({0: modulus})

    @pytest.mark.parametrize("moduli", [{0: 0.5, 1: 0.5}, {0: 1.5}])
    def test_witness_of_moduli_summing_to_one_rejected(self, moduli):
        with pytest.raises(InvalidInputError, match="moduli must sum to less than 1"):
            synthesize_witness(moduli)

    def test_soundness_sample(self, rng):
        hits = 0
        for _ in range(300):
            f = random_monic(rng, rng.randint(2, 8), modulus_range=(0.01, 0.6))
            target = rng.uniform(0.1, 0.95)
            total = sum(abs(c) for c in f.coeffs)
            f = MonicPolynomial(tuple(c * target / total for c in f.coeffs))
            out = satisfies_stability_condition(f)
            if out.satisfied:
                hits += 1
                assert is_schur_stable(f).status is Status.STABLE
        assert hits > 250


class TestSharpnessWitness:
    def test_root_at_one(self):
        p = sharpness_witness(2, {0: 0.5, 1: 0.5})
        assert p(1.0) == pytest.approx(0.0, abs=1e-15)
        assert is_schur_stable(p).max_modulus >= 1 - 1e-9

    def test_excess_weights_unstable(self):
        p = sharpness_witness(3, {0: 0.2, 1: 0.3, 2: 0.6}, eps=0.1)
        assert is_schur_stable(p).status is Status.UNSTABLE

    def test_concentrated_weight_gives_roots_of_unity(self):
        p = sharpness_witness(4, {0: 1.0})
        rs = find_roots(p)
        for z in rs.roots:
            assert abs(z) == pytest.approx(1.0, abs=1e-9)

    def test_accepts_simplex_weights(self):
        w = SimplexWeights((0, 1), (0.5, 0.5))
        assert sharpness_witness(2, w)(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_sum_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            sharpness_witness(2, {0: 0.5, 1: 0.4})
        with pytest.raises(InvalidInputError):
            sharpness_witness(2, {0: 0.5, 1: 0.5}, eps=0.2)

    def test_bad_indices_rejected(self):
        with pytest.raises(InvalidInputError):
            sharpness_witness(2, {5: 1.0})

    @pytest.mark.parametrize("index", [0.5, "1", True])
    def test_non_integer_index_rejected(self, index):
        """A float or text raised a raw TypeError, and True was index 1."""
        with pytest.raises(InvalidInputError, match="weight indices must be integers"):
            sharpness_witness(3, {index: 1.0})

    def test_numpy_integer_index(self):
        assert sharpness_witness(3, {np.int64(1): 1.0}) == sharpness_witness(3, {1: 1.0})

    def test_empty_weights_rejected(self):
        with pytest.raises(InvalidInputError, match="weights must be non-empty"):
            sharpness_witness(3, {})

    @pytest.mark.parametrize("weights", [{0: 0.0, 1: 1.0}, {0: -0.5, 1: 1.5}])
    def test_non_positive_weights_rejected(self, weights):
        with pytest.raises(InvalidInputError, match="weights must be positive"):
            sharpness_witness(3, weights)

    @pytest.mark.parametrize(
        "weights",
        [{0: "a"}, {0: True, 1: 1e-300}],
        ids=["text", "bool"],
    )
    def test_non_real_weights_rejected(self, weights):
        """Text raised a raw TypeError, and True was taken as 1.0, which
        returned s^3 - 1e-300 s - 1."""
        with pytest.raises(InvalidInputError, match="weights must be real numbers"):
            sharpness_witness(3, weights)

    @pytest.mark.parametrize("eps", [-0.1, math.nan])
    def test_negative_or_nan_eps_rejected(self, eps):
        # Both eps checks were false for NaN, which returned s^2 - 0.3 s - 0.3.
        with pytest.raises(InvalidInputError, match="eps must be nonnegative"):
            sharpness_witness(2, {0: 0.3, 1: 0.3}, eps=eps)

    @pytest.mark.parametrize("n", [True, 2.0, 1.5])
    def test_bool_and_float_degrees_rejected(self, n):
        with pytest.raises(InvalidInputError, match="degree must be an integer"):
            sharpness_witness(n, {0: 1.0})

    def test_numpy_integer_degree(self):
        assert sharpness_witness(np.int64(2), {0: 1.0}) == sharpness_witness(2, {0: 1.0})

    def test_random_sharpness(self, rng):
        for n in range(1, 9):
            for _ in range(20):
                raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
                s = sum(raw)
                weights = {k: v / s for k, v in enumerate(raw)}
                p = sharpness_witness(n, weights)
                assert is_schur_stable(p).max_modulus >= 1 - 1e-9


class TestNecessaryCondition:
    def test_violation_at_middle_index(self):
        out = necessary_condition(MonicPolynomial((0.1, 3.0)))
        assert not out.satisfied
        assert is_schur_stable(MonicPolynomial((0.1, 3.0))).status is Status.UNSTABLE

    def test_example_g_violates_at_constant_term(self):
        assert not necessary_condition(G1).satisfied
        assert abs(G1.coeffs[0]) >= math.comb(5, 0)

    def test_stable_implies_satisfied(self, rng):
        for _ in range(200):
            f = random_monic(rng, rng.randint(2, 8), modulus_range=(0.01, 2.0))
            if is_schur_stable(f).status is Status.STABLE:
                assert necessary_condition(f).satisfied


class TestTheorem3:
    def test_variant_a_all_ones_partner(self):
        f = MonicPolynomial((0.5, 0.3))
        g = MonicPolynomial((1.0, 1.0))
        out = theorem3_check(f, g, "a")
        assert out.satisfied and out.criterion_id is CriterionId.THM3A
        assert satisfies_stability_condition(hadamard_product(f, g)).satisfied

    def test_variant_b_binomial_cap(self):
        f = MonicPolynomial((0.5, 0.3))
        g = MonicPolynomial((1.0, 2.0))  # |b_1| = 2 = C(2,1)
        out = theorem3_check(f, g, "b")
        assert out.satisfied
        assert satisfies_stability_condition(szego_product(f, g)).satisfied

    def test_variant_b_rejects_above_cap(self):
        f = MonicPolynomial((0.5, 0.3))
        g = MonicPolynomial((1.0, 2.0 + 1e-9))
        assert not theorem3_check(f, g, "b").satisfied

    def test_variant_c_two_unstable_factors(self):
        f = MonicPolynomial((0.6, 0.6))
        assert not satisfies_stability_condition(f).satisfied
        out = theorem3_check(f, f, "c")
        assert out.satisfied
        prod = hadamard_product(f, f)
        assert satisfies_stability_condition(prod).satisfied
        assert is_schur_stable(prod).status is Status.STABLE

    def test_variant_b_requires_f_condition(self):
        f = MonicPolynomial((0.8, 0.4))  # sum 1.2, fails the sum test
        assert theorem3_check(f, MonicPolynomial((0.1, 0.2)), "b") == CriterionOutcome(
            CriterionId.THM3B, False, None
        )

    def test_variant_c_rejects_a_large_square_sum(self):
        f = MonicPolynomial((0.8, 0.1))
        g = MonicPolynomial((0.1, 0.7))  # 0.8^2 + 0.7^2 = 1.13
        assert theorem3_check(f, g, "c") == CriterionOutcome(CriterionId.THM3C, False, None)

    def test_variant_c_without_common_support_has_no_witness(self):
        f = MonicPolynomial((5.0, 0.0))
        g = MonicPolynomial((0.0, 7.0))
        assert theorem3_check(f, g, "c") == CriterionOutcome(CriterionId.THM3C, True, None)

    def test_variant_c_does_not_require_f_condition(self):
        f = MonicPolynomial((0.8, 0.4))  # sum 1.2, fails the sum test
        g = MonicPolynomial((0.1, 0.2))
        assert theorem3_check(f, g, "c").satisfied

    def test_regression_partner_can_be_unstable(self):
        # The hypotheses bound g's coefficients but never ask g to be stable.
        f = MonicPolynomial((0.5, 0.3))
        g = MonicPolynomial((-1.0, 1.0))  # s^2 + s - 1, root ~ -1.618
        assert is_schur_stable(g).status is Status.UNSTABLE
        out = theorem3_check(f, g, "a")
        assert out.satisfied
        prod = hadamard_product(f, g)
        assert satisfies_stability_condition(prod).satisfied
        assert is_schur_stable(prod).status is Status.STABLE

    def test_degree_mismatch(self):
        with pytest.raises(InvalidInputError):
            theorem3_check(F1, MonicPolynomial((1.0,)), "a")

    def test_unknown_variant(self):
        with pytest.raises(InvalidInputError):
            theorem3_check(F1, G1, "d")

    def test_disjoint_supports_vacuous(self):
        f = MonicPolynomial((0.5, 0.0, 0.0))
        g = MonicPolynomial((0.0, 7.0, 0.0))
        out = theorem3_check(f, g, "a")
        assert out.satisfied
        assert hadamard_product(f, g).support == ()


class TestStabilizingPartner:
    def test_example_values(self):
        f = MonicPolynomial((5.0, 10.0))
        g = stabilizing_partner(f)
        assert g.coeffs[0] == pytest.approx(0.25 / (2 * 6))
        assert g.coeffs[1] == pytest.approx(0.25 / (2 * 11))

    def test_power_of_s_maps_to_itself(self):
        f = MonicPolynomial((0j, 0j, 0j))
        assert stabilizing_partner(f) == f

    def test_guarantees_hold(self):
        f = MonicPolynomial((5.0, 10.0))
        g = stabilizing_partner(f)
        assert satisfies_stability_condition(g).satisfied
        assert satisfies_stability_condition(hadamard_product(f, g)).satisfied
        assert satisfies_stability_condition(szego_product(f, g)).satisfied

    def test_random_partners(self, rng):
        for _ in range(150):
            f = random_monic(rng, rng.randint(2, 8), modulus_range=(0.01, 50.0))
            g = stabilizing_partner(f)
            assert satisfies_stability_condition(g).satisfied
            assert is_schur_stable(g).status is Status.STABLE
            for prod in (hadamard_product(f, g), szego_product(f, g)):
                assert satisfies_stability_condition(prod).satisfied
                assert is_schur_stable(prod).status is Status.STABLE


class TestNoAbcCheckOnPlainNumbers:
    """On plain float, int and complex values no per-coefficient check asks
    a ``numbers`` ABC, whose ``isinstance`` costs about 0.7 us a value.  The
    count does not depend on timing, so it guards the criteria's speed."""

    def _abc_checks(self, monkeypatch, call) -> int:
        count = 0
        original = abc.ABCMeta.__instancecheck__

        def counted(cls, instance):
            nonlocal count
            count += 1
            return original(cls, instance)

        monkeypatch.setattr(abc.ABCMeta, "__instancecheck__", counted)
        call()
        monkeypatch.undo()
        return count

    def test_plain_inputs(self, monkeypatch):
        rng = random.Random(40)
        coeffs = tuple(
            0.01 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(80)
        )
        f = MonicPolynomial(coeffs)
        g = stabilizing_partner(f)
        assert theorem3_check(f, g, "a").satisfied  # reaches both product checks
        calls = {
            "MonicPolynomial": lambda: (MonicPolynomial((0.7, 0.2, 0.9, 0, 0.0)), MonicPolynomial(coeffs)),
            "satisfies_stability_condition": lambda: (
                satisfies_stability_condition(F1),
                satisfies_stability_condition(f),
            ),
            "synthesize_witness": lambda: synthesize_witness(f.coefficient_moduli()),
            "theorem3_check": lambda: theorem3_check(f, g, "a"),
            "szego_product": lambda: szego_product(f, g),
        }
        counts = {name: self._abc_checks(monkeypatch, call) for name, call in calls.items()}
        assert counts == dict.fromkeys(calls, 0)

    def test_plain_powers_and_thresholds(self, monkeypatch):
        """The power and threshold checks on the experiments and branch-sets
        paths: float powers, float tolerances, an int grid and a
        ``Fraction`` exponent."""
        powers = [float(p) for p in range(1, 101)]
        calls = {
            "principal_rows": lambda: principal_rows(F1, powers),
            "report.sweep": lambda: report.sweep(F1, powers),
            "pstar_exact": lambda: pstar_exact(F1, "max", 1e-6),
            "auto_onset": lambda: auto_onset(F1, "max", 1e-6),
            "pstar_grid": lambda: pstar_grid(F1, "max", 1000),
            "BranchSet": lambda: BranchSet(F1, Fraction(27, 8)),
        }
        counts = {name: self._abc_checks(monkeypatch, call) for name, call in calls.items()}
        assert counts == dict.fromkeys(calls, 0)
