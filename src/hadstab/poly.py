"""Polynomial data model and coefficient-wise algebra.

Everything here manipulates monic polynomials through their coefficient
vectors: the Hadamard (coefficient-wise) product, integer and rational
Hadamard powers with lazy branch enumeration, the binomial-reciprocal weight
polynomial, complex conjugation, the real form ``conj(f) * f``, and the
reduction of commensurate fractional-order polynomials to ordinary ones.

Coefficients are stored ascending, ``a_0`` first, with the leading 1 implicit,
so list index k matches the power of s it multiplies.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InvalidInputError, UnsupportedInputError

# Degree cap for the commensurate reduction; beyond this the common power base
# is so fine that the integer-order polynomial is useless in practice.
MAX_COMMENSURATE_DEGREE = 10_000

# Largest branch set a rational Hadamard power may have; beyond it the
# branches cannot all be root-found in reasonable time.
MAX_BRANCHES = 1 << 16


def _finite_coeffs(values: Iterable) -> tuple[complex, ...]:
    cs = tuple(complex(c) for c in values)
    if not all(map(cmath.isfinite, cs)):
        raise InvalidInputError("coefficients must be finite")
    return cs


def _is_number(x) -> bool:
    """A JSON number; booleans are ints to Python but not numbers here."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@dataclass(frozen=True)
class MonicPolynomial:
    """A degree-n monic polynomial over the complex numbers.

    ``coeffs`` holds exactly n entries ``(a_0, ..., a_{n-1})``; the leading
    coefficient 1 is implicit.  A coefficient belongs to the support iff it is
    exactly zero in both parts; no epsilon is involved.  NaN and infinite
    coefficients are rejected.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        cs = _finite_coeffs(self.coeffs)
        if len(cs) < 1:
            raise InvalidInputError("monic polynomial needs degree >= 1")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    @property
    def support(self) -> tuple[int, ...]:
        """Indices k with a_k != 0, ascending (exact-zero test)."""
        return tuple(k for k, c in enumerate(self.coeffs) if c != 0)

    @property
    def is_real(self) -> bool:
        return all(c.imag == 0.0 for c in self.coeffs)

    def __call__(self, s: complex) -> complex:
        acc = complex(1.0)
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc

    def coefficient_moduli(self) -> dict[int, float]:
        """{k: |a_k|} over the support."""
        return {k: abs(self.coeffs[k]) for k in self.support}

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "coeffs": [[c.real, c.imag] for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj) -> "MonicPolynomial":
        if not isinstance(obj, Mapping):
            raise InvalidInputError("polynomial JSON must be an object")
        try:
            degree = obj["degree"]
            pairs = obj["coeffs"]
        except KeyError as exc:
            raise InvalidInputError(f"polynomial JSON missing key {exc}") from None
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
            raise InvalidInputError("degree must be a positive integer")
        if not isinstance(pairs, Sequence) or len(pairs) != degree:
            raise InvalidInputError("coeffs must list exactly `degree` [re, im] pairs")
        coeffs = []
        for pair in pairs:
            if (
                not isinstance(pair, Sequence)
                or len(pair) != 2
                or not all(map(_is_number, pair))
            ):
                raise InvalidInputError("each coefficient must be an [re, im] pair")
            coeffs.append(complex(pair[0], pair[1]))
        return cls(tuple(coeffs))


def all_ones(n: int) -> MonicPolynomial:
    """s^n + s^(n-1) + ... + 1, the identity of the Hadamard product."""
    if n < 1:
        raise InvalidInputError("degree must be >= 1")
    return MonicPolynomial((1.0 + 0j,) * n)


@dataclass(frozen=True)
class RationalExponent:
    """A rational power k/m kept in lowest terms with m >= 1."""

    num: int
    den: int = 1

    def __post_init__(self):
        num, den = self.num, self.den
        if den == 0:
            raise InvalidInputError("exponent denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(abs(num), den)
        if g > 1:
            num //= g
            den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def value(self) -> float:
        return self.num / self.den

    @property
    def is_integer(self) -> bool:
        return self.den == 1

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __str__(self) -> str:
        return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"

    @classmethod
    def parse(cls, text: str) -> "RationalExponent":
        """Parse 'K/M' or integer shorthand 'K'."""
        parts = text.strip().split("/")
        try:
            if len(parts) == 1:
                return cls(int(parts[0]))
            if len(parts) == 2:
                return cls(int(parts[0]), int(parts[1]))
        except ValueError:
            pass
        raise InvalidInputError(f"cannot parse rational exponent {text!r}")

    @classmethod
    def coerce(cls, p) -> "RationalExponent":
        if isinstance(p, RationalExponent):
            return p
        if isinstance(p, int):
            return cls(p)
        if isinstance(p, Rational):
            return cls(int(p.numerator), int(p.denominator))
        if isinstance(p, str):
            return cls.parse(p)
        raise InvalidInputError(f"not a rational exponent: {p!r}")


@dataclass(frozen=True)
class BranchSet:
    """The finite set of polynomials constituting a rational Hadamard power.

    One member per choice of m-th root at every nonzero coefficient, so
    ``m ** |support|`` members in all; zero coefficients stay zero on every
    branch (0^p = 0 by convention) and contribute no branching.  A branch
    index records, per support index in ascending order, which root
    ``l in {0, ..., m-1}`` the member picked.  Members are built on demand,
    in ``itertools.product`` order of their indices; none is stored, only
    the m values of each nonzero coefficient (``table``).
    """

    base: MonicPolynomial
    exponent: RationalExponent

    def __len__(self) -> int:
        return self.exponent.den ** len(self.base.support)

    def __iter__(self) -> Iterator[MonicPolynomial]:
        return self.members(self.indices())

    def indices(self) -> Iterator[tuple[int, ...]]:
        """Branch indices of all members, in enumeration order."""
        return itertools.product(range(self.exponent.den), repeat=len(self.base.support))

    def rotation_representatives(self) -> Iterator[tuple[int, ...]]:
        """Branch indices that meet every orbit of the rotations s -> w s.

        Rotating a member by an m-th root of unity w = e^{2 pi i j/m} and
        renormalizing to monic gives the member whose index is l_k + j(k-n)
        mod m at each support index k, and keeps every root modulus.  At the
        support index k* with the smallest g = gcd(n-k*, m) (lowest k on
        ties) every orbit takes a value below g, so only those indices are
        enumerated; for prime m each orbit is met exactly once.  The order is
        that of ``indices``, principal branch first.
        """
        n, m = self.base.degree, self.exponent.den
        support = self.base.support
        ranges = [range(m)] * len(support)
        if support:
            pos = min(range(len(support)), key=lambda i: math.gcd(n - support[i], m))
            ranges[pos] = range(math.gcd(n - support[pos], m))
        return itertools.product(*ranges)

    @functools.cached_property
    def table(
        self,
    ) -> tuple[tuple[tuple[complex, ...], ...], tuple[tuple[float, ...], ...]]:
        """Per support index in ascending order, the m values its coefficient
        takes (root l = 0..m-1) and their moduli.

        The moduli are Python's ``abs`` of the values, as ``abs`` of a
        member's coefficients would give them.  Built on first use; a power
        that overflows raises InvalidInputError then.
        """
        f, m = self.base, self.exponent.den
        pval = self.exponent.num / m
        values = tuple(
            tuple(_power_coeff(f.coeffs[k], pval, 2.0 * math.pi * l / m) for l in range(m))
            for k in f.support
        )
        return values, tuple(tuple(abs(c) for c in row) for row in values)

    def members(self, indices: Iterable[Sequence[int]]) -> Iterator[MonicPolynomial]:
        """The member for each branch index, built as the iteration reaches it."""
        support, values = self.base.support, self.table[0]
        for ls in indices:
            cs = [0j] * self.base.degree
            for k, choices, l in zip(support, values, ls):
                cs[k] = choices[l]
            yield MonicPolynomial(tuple(cs))

    def position(self, index: Sequence[int]) -> int:
        """Where the member with this branch index comes in ``indices``."""
        return functools.reduce(lambda i, l: i * self.exponent.den + l, index, 0)

    @property
    def principal(self) -> MonicPolynomial:
        """The member with l = 0 at every coefficient."""
        return next(self.members([(0,) * len(self.base.support)]))


def _power_coeff(a: complex, p: float, extra_angle: float = 0.0) -> complex:
    """|a|^p (cos(p arg a + extra) + i sin(p arg a + extra)); 0 maps to 0."""
    if a == 0:
        return 0j
    r = abs(a)
    theta = cmath.phase(a)  # principal argument in (-pi, pi]
    ang = p * theta + extra_angle
    try:
        mag = r ** p
    except OverflowError:
        raise InvalidInputError(
            f"|{a}|^{p} overflows the floating-point range"
        ) from None
    return mag * complex(math.cos(ang), math.sin(ang))


def hadamard_product(f: MonicPolynomial, g: MonicPolynomial) -> MonicPolynomial:
    """Coefficient-wise product; degrees must match."""
    if f.degree != g.degree:
        raise InvalidInputError(
            f"degree mismatch: {f.degree} vs {g.degree}"
        )
    return MonicPolynomial(tuple(a * b for a, b in zip(f.coeffs, g.coeffs)))


def szego_weight(n: int) -> MonicPolynomial:
    """Weight polynomial with coefficient 1/C(n,k) at s^k (implicit 1 at s^n)."""
    if n < 1:
        raise InvalidInputError("degree must be >= 1")
    return MonicPolynomial(tuple(1.0 / math.comb(n, k) for k in range(n)))


def szego_product(f: MonicPolynomial, g: MonicPolynomial) -> MonicPolynomial:
    """Hadamard product of f, g and the binomial-reciprocal weight polynomial."""
    return hadamard_product(hadamard_product(f, g), szego_weight(f.degree))


def hadamard_power(f: MonicPolynomial, p) -> BranchSet:
    """All branches of the coefficient-wise power f^[p] for rational p.

    For integer p the set is a singleton.  For p = k/m in lowest terms every
    nonzero coefficient has m admissible values,
    ``|a|^p (cos(p arg a + 2 pi l / m) + i sin(...))`` for l = 0..m-1, giving
    ``m ** |support|`` member polynomials, built lazily by the returned
    BranchSet.  p = 0 sends every nonzero coefficient to 1 and keeps zeros at
    zero.  Sets of more than MAX_BRANCHES members raise
    UnsupportedInputError.
    """
    bset = BranchSet(f, RationalExponent.coerce(p))
    if len(bset) > MAX_BRANCHES:
        raise UnsupportedInputError(
            f"f^[{bset.exponent}] has {bset.exponent.den}^{len(f.support)} "
            f"branches; at most {MAX_BRANCHES} are supported"
        )
    return bset


def principal_power(f: MonicPolynomial, p: float) -> MonicPolynomial:
    """Principal branch of f^[p] for an arbitrary real exponent.

    Coefficient k becomes |a_k|^p e^{i p arg(a_k)} with the principal
    argument; zero coefficients stay zero.  This is the single-valued path
    used by power sweeps and onset bisection.
    """
    return MonicPolynomial(tuple(_power_coeff(a, p) for a in f.coeffs))


def conjugate(f: MonicPolynomial) -> MonicPolynomial:
    """Polynomial whose coefficients are the complex conjugates of f's."""
    return MonicPolynomial(tuple(c.conjugate() for c in f.coeffs))


def real_form(f: MonicPolynomial) -> MonicPolynomial:
    """The convolution product conj(f) * f, a real polynomial of degree 2n.

    Its roots are the roots of f together with their conjugates, so it has
    the same maximum root modulus as f.  Imaginary parts of the product are
    pure rounding residue and are forced to exactly 0.
    """
    a = list(f.coeffs) + [1.0 + 0j]
    b = [c.conjugate() for c in a]
    n = f.degree
    prod = [0j] * (2 * n + 1)
    for i, x in enumerate(b):
        if x == 0:
            continue
        for j, y in enumerate(a):
            prod[i + j] += x * y
    return MonicPolynomial(tuple(complex(c.real, 0.0) for c in prod[:-1]))


def _as_power(value) -> Fraction:
    if isinstance(value, float):
        raise InvalidInputError(
            "fractional powers must be exact rationals, not floats"
        )
    try:
        return Fraction(value)
    except (TypeError, ValueError):
        raise InvalidInputError(f"not a rational power: {value!r}") from None


@dataclass(frozen=True)
class FractionalPolynomial:
    """s^{sigma_n} + a_{n-1} s^{sigma_{n-1}} + ... with rational powers.

    ``terms`` lists (power, coefficient) pairs with strictly decreasing
    powers; the first term is the leading one and must carry coefficient 1.
    All powers are positive except a possible constant term at power 0.
    Powers are exact rationals; floats are rejected because tolerance-based
    exponent matching is ill-posed.
    """

    terms: tuple[tuple[Fraction, complex], ...]
    commensurate_base: Fraction | None = None

    def __post_init__(self):
        if not self.terms:
            raise InvalidInputError("fractional polynomial needs at least the leading term")
        powers = [_as_power(p) for p, _ in self.terms]
        terms = tuple(zip(powers, _finite_coeffs(c for _, c in self.terms)))
        if any(p2 >= p1 for p1, p2 in zip(powers, powers[1:])):
            raise InvalidInputError("powers must be strictly decreasing")
        if powers[-1] < 0 or (len(powers) > 1 and powers[-2] <= 0):
            raise InvalidInputError("powers must be positive except a constant term")
        if powers[0] <= 0:
            raise InvalidInputError("leading power must be positive")
        if terms[0][1] != 1:
            raise InvalidInputError("leading coefficient must be exactly 1")
        base = self.commensurate_base
        if base is not None:
            base = _as_power(base)
            if base <= 0:
                raise InvalidInputError("commensurate base must be positive")
            for p in powers:
                if (p / base).denominator != 1:
                    raise InvalidInputError(
                        f"power {p} is not an integer multiple of base {base}"
                    )
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "commensurate_base", base)

    def to_json(self) -> dict:
        out = []
        for i, (p, c) in enumerate(self.terms):
            entry: dict = {"pow": [p.numerator, p.denominator]}
            if i > 0:  # leading coefficient is implicit
                entry["coeff"] = [c.real, c.imag]
            out.append(entry)
        return {"terms": out}

    @classmethod
    def from_json(cls, obj) -> "FractionalPolynomial":
        if not isinstance(obj, Mapping) or "terms" not in obj:
            raise InvalidInputError("fractional polynomial JSON must have 'terms'")
        raw = obj["terms"]
        if not isinstance(raw, Sequence) or not raw:
            raise InvalidInputError("'terms' must be a non-empty list")
        terms = []
        for i, entry in enumerate(raw):
            if not isinstance(entry, Mapping) or "pow" not in entry:
                raise InvalidInputError("each term needs a 'pow': [num, den]")
            pw = entry["pow"]
            if (
                not isinstance(pw, Sequence)
                or len(pw) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in pw)
                or pw[1] == 0
            ):
                raise InvalidInputError("'pow' must be a pair of integers, denominator nonzero")
            power = Fraction(pw[0], pw[1])
            if "coeff" in entry:
                pair = entry["coeff"]
                if (
                    not isinstance(pair, Sequence)
                    or len(pair) != 2
                    or not all(map(_is_number, pair))
                ):
                    raise InvalidInputError("'coeff' must be an [re, im] pair")
                coeff = complex(pair[0], pair[1])
                if i == 0 and coeff != 1:
                    raise InvalidInputError("leading coefficient must be 1")
            elif i == 0:
                coeff = 1.0 + 0j
            else:
                raise InvalidInputError("non-leading terms must carry 'coeff'")
            terms.append((power, coeff))
        return cls(tuple(terms))


def to_integer_order(f: FractionalPolynomial) -> tuple[Fraction, MonicPolynomial]:
    """Reduce a commensurate fractional polynomial to an ordinary one.

    Returns (alpha, F) where alpha is the largest rational with every power an
    integer multiple of it, and F is the polynomial obtained by substituting
    w = s^alpha.  f is Schur stable iff F is, so every stability criterion and
    power threshold transfers verbatim.
    """
    powers = [p for p, _ in f.terms]
    lcm_den = 1
    for p in powers:
        lcm_den = lcm_den * p.denominator // math.gcd(lcm_den, p.denominator)
    scaled = [p.numerator * (lcm_den // p.denominator) for p in powers]
    g = 0
    for v in scaled:
        g = math.gcd(g, v)
    alpha = Fraction(g, lcm_den)
    degree = powers[0] / alpha
    if degree.denominator != 1:
        raise UnsupportedInputError("powers admit no common rational divisor")
    degree = int(degree)
    if degree > MAX_COMMENSURATE_DEGREE:
        raise UnsupportedInputError(
            f"commensurate reduction needs degree {degree}; powers are "
            "effectively non-commensurate"
        )
    coeffs = [0j] * degree
    for p, c in f.terms[1:]:
        coeffs[int(p / alpha)] = c
    return alpha, MonicPolynomial(tuple(coeffs))
