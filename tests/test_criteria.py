import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_monic
from hadstab import (
    CriterionId,
    CriterionOutcome,
    InvalidInputError,
    MonicPolynomial,
    SimplexWeights,
    Status,
    find_roots,
    hadamard_product,
    is_schur_stable,
    necessary_condition,
    satisfies_stability_condition,
    sharpness_witness,
    stabilizing_partner,
    synthesize_witness,
    szego_product,
    theorem3_check,
)

F1 = MonicPolynomial((0.7, 0.2, 0.9, 0.0, 0.0))
G1 = MonicPolynomial((3.0, 2.0, 2.5, 0.0, 0.0))


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
