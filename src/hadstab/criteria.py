"""Coefficient-based sufficient and necessary conditions for Schur stability.

The workhorse is the weighted coefficient bound: if positive weights
``lambda_k`` summing to at most 1 dominate every coefficient modulus on the
support, all roots lie strictly inside the unit disc.  Existence of such
weights is equivalent to the strict sum test ``sum |a_k| < 1`` (give each
index its modulus plus an equal share of the slack), so the check is exact
and O(n) and the returned witness is auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .errors import InvalidInputError, UnsupportedDegreeError, describe, integer, real
from .poly import _MAX_SZEGO_DEGREE, MAX_COMMENSURATE_DEGREE, MonicPolynomial
from .poly import hadamard_product, szego_product, szego_weight

# Float slack on simplex membership checks; witnesses are built to sum to 1.
_SUM_SLACK = 1e-12

_INDICES = "weight indices must be integers, not"
_WEIGHTS = "weights must be real numbers, not"


class CriterionId(str, Enum):
    FUJIWARA = "Fujiwara"
    NECESSARY = "Necessary"
    THM3A = "Thm3a"
    THM3B = "Thm3b"
    THM3C = "Thm3c"


@dataclass(frozen=True)
class SimplexWeights:
    """Positive weights on a support set with sum at most 1.

    ``support`` is a sorted tuple of coefficient indices, ``weights`` the
    matching lambda values, each in (0, 1].
    """

    support: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        support = tuple([integer(k, _INDICES) for k in self.support])
        weights = tuple([real(w, _WEIGHTS) for w in self.weights])
        if not support:
            raise InvalidInputError("weight support must be non-empty")
        if len(support) != len(weights):
            raise InvalidInputError("support and weights must have equal length")
        if any(k < 0 for k in support):
            raise InvalidInputError("support indices must be nonnegative")
        if any(a >= b for a, b in zip(support, support[1:])):
            raise InvalidInputError("support must be strictly increasing")
        if any(not 0.0 < w <= 1.0 for w in weights):
            raise InvalidInputError("weights must lie in (0, 1]")
        if sum(weights) > 1.0 + _SUM_SLACK:
            raise InvalidInputError("weights must sum to at most 1")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)

    def as_dict(self) -> dict[int, float]:
        return dict(zip(self.support, self.weights))

    def to_json(self) -> dict:
        return {str(k): w for k, w in zip(self.support, self.weights)}


@dataclass(frozen=True)
class CriterionOutcome:
    criterion_id: CriterionId
    satisfied: bool
    witness: SimplexWeights | None = None

    def to_json(self) -> dict:
        return {
            "criterion": self.criterion_id.value,
            "satisfied": self.satisfied,
            "witness": None if self.witness is None else self.witness.to_json(),
        }


def synthesize_witness(moduli: Mapping[int, float]) -> SimplexWeights:
    """Weights lambda_k = m_k + slack/d for nonnegative moduli summing to below 1."""
    d = len(moduli)
    if not d:
        raise InvalidInputError("moduli must be non-empty")
    moduli = {integer(k, _INDICES): real(m, "moduli must be real numbers, not") for k, m in moduli.items()}
    if any(not m >= 0 for m in moduli.values()):  # NaN too
        raise InvalidInputError("moduli must be nonnegative")
    total = sum(moduli.values())
    if total >= 1.0:
        raise InvalidInputError("moduli must sum to less than 1")
    share = (1.0 - total) / d
    support = tuple(sorted(moduli))
    weights = tuple(min(moduli[k] + share, 1.0) for k in support)
    return SimplexWeights(support, weights)


def satisfies_stability_condition(f: MonicPolynomial) -> CriterionOutcome:
    """Strict sum test for the weighted coefficient bound.

    Satisfied iff the support is empty or ``sum_k |a_k| < 1``; on success the
    witness dominates every coefficient modulus strictly.  A satisfied outcome
    certifies Schur stability.
    """
    if not f.support:
        return CriterionOutcome(CriterionId.FUJIWARA, True, None)
    if sum(f.moduli) >= 1.0:
        return CriterionOutcome(CriterionId.FUJIWARA, False, None)
    return CriterionOutcome(CriterionId.FUJIWARA, True, synthesize_witness(f.coefficient_moduli()))


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
        (m / table[k]) ** (1.0 / (n - k)) for k, m in zip(f.support, f.moduli)
    )


def sharpness_witness(n: int, weights, eps: float = 0.0) -> MonicPolynomial:
    """The polynomial s^n - sum lambda_k s^k, which always has a root of
    modulus at least 1 when the weights sum to 1 + eps with eps >= 0.

    ``weights`` may be a SimplexWeights (only valid for eps = 0) or a plain
    {index: lambda} mapping, since sums above 1 leave the weight simplex.
    A degree above ``MAX_COMMENSURATE_DEGREE``, the largest that any other
    entry point builds a coefficient list of, raises UnsupportedDegreeError
    before the list is built.
    """
    n = integer(n, "degree must be an integer, not")
    if n < 1:
        raise InvalidInputError(f"degree must be >= 1, not {describe(n)}")
    if n > MAX_COMMENSURATE_DEGREE:  # the coefficient list has n entries
        raise UnsupportedDegreeError(
            f"a witness needs degree <= {MAX_COMMENSURATE_DEGREE}, got {describe(n)}"
        )
    if not (eps := real(eps, "eps must be nonnegative, not")) >= 0:  # NaN too
        raise InvalidInputError("eps must be nonnegative")
    try:
        table = weights.as_dict() if isinstance(weights, SimplexWeights) else dict(weights)
    except (TypeError, ValueError):  # not a mapping, nor a sequence of pairs
        raise InvalidInputError(f"weights must be a mapping of index to weight, not {describe(weights)}") from None
    table = {integer(k, _INDICES): real(w, _WEIGHTS) for k, w in table.items()}
    if not table:
        raise InvalidInputError("weights must be non-empty")
    if any(not 0 <= k < n for k in table):
        raise InvalidInputError("weight indices must lie in 0..n-1")
    if any(w <= 0 for w in table.values()):
        raise InvalidInputError("weights must be positive")
    total = sum(table.values())
    if abs(total - (1.0 + eps)) > _SUM_SLACK:
        raise InvalidInputError(
            f"weights sum to {total}, expected {1.0 + eps}"
        )
    coeffs = [0j] * n
    for k, w in table.items():
        coeffs[k] = complex(-w, 0.0)
    return MonicPolynomial(tuple(coeffs))


def necessary_condition(f: MonicPolynomial) -> CriterionOutcome:
    """Satisfied iff |a_k| < C(n, k) for every k; a violation forces a root of
    modulus at least 1, so the polynomial is not Schur stable."""
    n = f.degree
    ok = all(abs(c) < math.comb(n, k) for k, c in enumerate(f.coeffs))
    return CriterionOutcome(CriterionId.NECESSARY, ok, None)


_VARIANTS = {
    "a": CriterionId.THM3A,
    "b": CriterionId.THM3B,
    "c": CriterionId.THM3C,
}


def theorem3_check(
    f: MonicPolynomial, g: MonicPolynomial, variant: str
) -> CriterionOutcome:
    """Sufficient conditions for stability of the products of f and g.

    variant a: f passes the stability condition and |b_k| <= 1 on the common
    support; then both the Hadamard and the weighted (Szego) product pass it.
    variant b: as (a) with |b_k| <= C(n, k); then the weighted product passes.
    variant c: sum of max(|a_k|, |b_k|)^2 over the common support < 1; then
    both products pass.  None of the variants requires g itself to be stable,
    and variant c does not even require f to be.  Every variant refuses a
    degree whose weighted product cannot be formed (``szego_weight``).
    """
    if f.degree != g.degree:
        raise InvalidInputError(f"degree mismatch: {f.degree} vs {g.degree}")
    if not isinstance(variant, str) or variant not in _VARIANTS:
        raise InvalidInputError(f"variant must be one of a, b, c, not {describe(variant)}")
    cid = _VARIANTS[variant]
    n = f.degree
    if n > _MAX_SZEGO_DEGREE:
        szego_weight(n)  # refuses it, before variant b's caps C(n, k) leave the float range
    common = sorted(set(f.support) & set(g.support))

    if variant in ("a", "b"):
        base = satisfies_stability_condition(f)
        if not base.satisfied:
            return CriterionOutcome(cid, False, None)
        cap = (lambda k: 1.0) if variant == "a" else (lambda k: float(math.comb(n, k)))
        if any(abs(g.coeffs[k]) > cap(k) for k in common):
            return CriterionOutcome(cid, False, None)
        witness = base.witness
    else:
        total = sum(max(abs(f.coeffs[k]), abs(g.coeffs[k])) ** 2 for k in common)
        if total >= 1.0:
            return CriterionOutcome(cid, False, None)
        if common:
            witness = synthesize_witness(
                {k: max(abs(f.coeffs[k]), abs(g.coeffs[k])) ** 2 for k in common}
            )
        else:
            witness = None

    # The guaranteed products must pass the sum test; this is a consequence of
    # the hypotheses, so a failure here would be an internal inconsistency.
    if variant in ("a", "c"):
        assert sum(hadamard_product(f, g).moduli) < 1.0
    assert sum(szego_product(f, g).moduli) < 1.0
    return CriterionOutcome(cid, True, witness)


def stabilizing_partner(f: MonicPolynomial) -> MonicPolynomial:
    """A stable polynomial g whose Hadamard and weighted products with f are
    both stable, for any monic f.

    With d = |support| and lambda_k = 1/(2d), the choice
    ``b_k = lambda_k / (2 (1 + |a_k|))`` keeps g, f o g and the weighted
    product all strictly inside the sum test.  Empty support gives g = s^n.
    """
    n = f.degree
    if not f.support:
        return MonicPolynomial((0j,) * n)
    lam = 1.0 / (2 * len(f.support))
    coeffs = [0j] * n
    for k, m in zip(f.support, f.moduli):
        coeffs[k] = complex(lam / (2.0 * (1.0 + m)), 0.0)
    return MonicPolynomial(tuple(coeffs))
