"""Polynomial data model and coefficient-wise algebra.

Everything here manipulates monic polynomials through their coefficient
vectors: the Hadamard (coefficient-wise) product, integer and rational
Hadamard powers with lazy branch enumeration, the binomial-reciprocal weight
polynomial, the real form ``conj(f) * f``, and the reduction of commensurate
fractional-order polynomials to ordinary ones.

Coefficients are stored ascending, ``a_0`` first, with the leading 1 implicit,
so list index k matches the power of s it multiplies.  Every coefficient of
every power, principal rows and branch tables alike, is |a_k|^p e^{i(p arg a_k
+ t)} evaluated by one function, ``_polar_powers``.  It takes arg a_k with
``math.atan2``, which also answers where the angle underflows.  It runs cos
and sin in numpy over all coefficients and powers at once; they equal libm's
bit for bit (the tests check this).  |a_k|^p stays Python's ``**``, so every
element keeps the bits of the scalar ``r**p * complex(cos(ang), sin(ang))``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import InvalidInputError, UnsupportedDegreeError, UnsupportedInputError
from .errors import describe, finite_complexes, integer, rational, real, reals

# Degree cap for the commensurate reduction; beyond this the common power base
# is so fine that the integer-order polynomial is useless in practice.
MAX_COMMENSURATE_DEGREE = 10_000

# Largest branch set a rational Hadamard power may have; beyond it the
# branches cannot all be root-found in reasonable time.
MAX_BRANCHES = 1 << 16

_MAX_SZEGO_DEGREE = 1029  # C(1030, 515) is beyond the float range


def _json_pair(pair, name: str) -> complex:
    """A JSON ``[re, im]`` pair of real numbers as a complex."""
    if not isinstance(pair, Sequence) or len(pair) != 2:
        raise InvalidInputError(f"{name} must be an [re, im] pair")
    return complex(*(real(x, f"{name} must be an [re, im] pair of real numbers, not") for x in pair))


@dataclass(frozen=True)
class MonicPolynomial:
    """A degree-n monic polynomial over the complex numbers.

    ``coeffs`` holds exactly n entries ``(a_0, ..., a_{n-1})``; the leading
    coefficient 1 is implicit.  A coefficient belongs to the support iff it is
    exactly zero in both parts; no epsilon is involved.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        cs = finite_complexes(self.coeffs)
        if len(cs) < 1:
            raise InvalidInputError("monic polynomial needs degree >= 1")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    @property
    def support(self) -> tuple[int, ...]:
        """Indices k with a_k != 0, ascending (exact-zero test: a complex is
        false exactly when both parts are zero, of either sign)."""
        return tuple(itertools.compress(range(len(self.coeffs)), self.coeffs))

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
        degree = integer(degree, "degree must be an integer, not")
        if not isinstance(pairs, Sequence) or len(pairs) != degree:
            raise InvalidInputError("coeffs must list exactly `degree` [re, im] pairs")
        return cls(tuple(_json_pair(pair, "each coefficient") for pair in pairs))


@dataclass(frozen=True)
class BranchSet:
    """The finite set of polynomials constituting a rational Hadamard power.

    One member per choice of m-th root at every nonzero coefficient, so
    ``m ** |support|`` members in all; zero coefficients stay zero on every
    branch (0^p = 0 by convention) and contribute no branching.  A branch
    index records, per support index in ascending order, which root
    ``l in {0, ..., m-1}`` the member picked.  Members are built on demand,
    in ``itertools.product`` order of their indices; none is stored, only
    the m values of each nonzero coefficient (``table``).  Sets of more than
    MAX_BRANCHES members raise UnsupportedInputError, decided without forming
    the count (at m >= 2, 17 nonzero coefficients are too many), so ``len``
    always fits an index.  ``exponent`` is kept as the ``Fraction`` k/m in
    lowest terms.
    """

    base: MonicPolynomial
    exponent: Fraction

    def __post_init__(self):
        p = rational(self.exponent, "not a rational exponent:")
        real(p, "exponent overflows the floating-point range:")  # every member's float k/m
        object.__setattr__(self, "exponent", p)
        m, s = p.denominator, len(self.base.support)
        if s and (m > MAX_BRANCHES or m ** min(s, MAX_BRANCHES.bit_length()) > MAX_BRANCHES):
            shown = describe(p)  # a long part goes by its digit count
            count = f"f^[p] for p = {shown} has m^{s}" if shown.startswith("a ") else f"f^[{p}] has {m}^{s}"
            raise UnsupportedInputError(
                f"{count} branches; at most {MAX_BRANCHES} are supported"
            )

    def __len__(self) -> int:
        return self.exponent.denominator ** len(self.base.support)

    def __iter__(self) -> Iterator[MonicPolynomial]:
        return self.members(self.indices())

    def indices(self) -> Iterator[tuple[int, ...]]:
        """Branch indices of all members, in enumeration order."""
        return itertools.product(range(self.exponent.denominator), repeat=len(self.base.support))

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
        n, m = self.base.degree, self.exponent.denominator
        support = self.base.support
        ranges = [range(m)] * len(support)
        if support:
            pos = min(range(len(support)), key=lambda i: math.gcd(n - support[i], m))
            ranges[pos] = range(math.gcd(n - support[pos], m))
        return itertools.product(*ranges)

    @functools.cached_property
    def table(self) -> np.ndarray:
        """The (|support|, m) array of the m values of each nonzero
        coefficient, ``_polar_powers`` at (k/m, 2 pi l/m), l = 0..m-1;
        (0, 0) with no support, whatever m.  Built on first use; a power
        that overflows raises InvalidInputError then.
        """
        m = self.exponent.denominator
        pval = self.exponent.numerator / m
        angles = range(m if self.base.support else 0)
        return _polar_powers(self.base, [(pval, 2.0 * math.pi * l / m) for l in angles])

    def rows(self, indices: Sequence[Sequence[int]]) -> np.ndarray:
        """The members for the branch ``indices``, gathered from ``table`` as
        the rows of ascending coefficients, with the leading 1, of one
        (len(indices), n + 1) complex array."""
        support = list(self.base.support)
        ls = np.array(indices, dtype=np.intp).reshape(len(indices), len(support))
        asc = np.zeros((len(indices), self.base.degree + 1), dtype=complex)
        asc[:, support] = self.table[np.arange(len(support)), ls]
        asc[:, -1] = 1.0
        return asc

    def members(self, indices: Iterable[Sequence[int]]) -> Iterator[MonicPolynomial]:
        """The member for each branch index, built from its row (``rows``) as
        the iteration reaches it."""
        for ls in indices:
            yield MonicPolynomial(tuple(self.rows([ls])[0, :-1].tolist()))

    def position(self, index: Sequence[int]) -> int:
        """Where the member with this branch index comes in ``indices``."""
        return functools.reduce(lambda i, l: i * self.exponent.denominator + l, index, 0)

    @property
    def principal(self) -> MonicPolynomial:
        """The member with l = 0 at every coefficient."""
        return next(self.members([(0,) * len(self.base.support)]))


def _marked(op, *args) -> float:
    """``op(*args)``, or -1.0, which no |a|^p is, where it overflows."""
    try:
        return op(*args)
    except OverflowError:
        return -1.0


def _polar_powers(f: MonicPolynomial, pairs: Sequence[tuple[float, float]]) -> np.ndarray:
    """The (|support|, len(pairs)) array of |a_k|^p e^{i(p arg a_k + t)}, arg
    principal, for each nonzero a_k, ascending, and each (p, t) in ``pairs``.

    The argument is ``math.atan2(a.imag, a.real)``: it equals ``cmath.phase``
    bit for bit wherever that succeeds, and returns the angle where
    ``cmath.phase`` raises OverflowError because the angle underflows.  The
    angles p arg a_k + t and their cos and sin are numpy arrays over all
    coefficients and pairs at once; numpy's cos and sin equal libm's bit for
    bit (the tests check this premise).  |a_k|^p stays Python's ``**`` per
    element, because numpy's ``power`` differs from it in the last bit on
    some pairs.  The product is written out as Python multiplies a float by
    a complex, so every element has the bits of the scalar expression
    ``r**p * complex(cos(ang), sin(ang))``.

    The first failing element, in pair order and then a_k order, raises
    InvalidInputError: ``|a|^p overflows ...`` where ``**`` overflows (found
    by a second pass that marks them with ``_marked``; a p with a part of
    more than 20 digits is named by its digit count, ``errors.describe``),
    else ``coefficients must be finite``.
    """
    polar = [(a, abs(a), math.atan2(a.imag, a.real)) for a in f.coeffs if a != 0]
    if not polar:  # no element, whatever the powers
        return np.empty((0, len(pairs)), dtype=complex)
    ps, ts = [p for p, _ in pairs], [t for _, t in pairs]
    marked = False
    try:
        mag = np.array([[r**p for p in ps] for _, r, _ in polar], dtype=float)
        pv = np.array(ps, dtype=float)
    except OverflowError:  # a p beyond the float range marks its whole column
        marked = True
        mag = np.array([[_marked(pow, r, p) for p in ps] for _, r, _ in polar], dtype=float)
        pv = np.array([_marked(float, p) for p in ps], dtype=float)
    with np.errstate(all="ignore"):  # a non-finite angle; its element is refused below
        ang = np.multiply.outer([theta for _, _, theta in polar], pv)
        ang += np.array(ts, dtype=float)
        c, s = np.cos(ang), np.sin(ang)
        out = np.empty(ang.shape, dtype=complex)
        out.real = mag * c - 0.0 * s
        out.imag = mag * s + 0.0 * c
    if marked or not np.isfinite(out).all():
        bad = ~np.isfinite(out) | (mag < 0)
        j, i = np.argwhere(bad.T)[0]  # pair j, then a_k at support position i
        if mag[i, j] < 0:
            p = describe(ps[j])  # a long part goes by its digit count
            p = f"p with {p} p" if p.startswith("a ") else ps[j]
            raise InvalidInputError(f"|{polar[i][0]}|^{p} overflows the floating-point range")
        raise InvalidInputError("coefficients must be finite")
    return out


def hadamard_product(f: MonicPolynomial, g: MonicPolynomial) -> MonicPolynomial:
    """Coefficient-wise product; degrees must match."""
    if f.degree != g.degree:
        raise InvalidInputError(
            f"degree mismatch: {f.degree} vs {g.degree}"
        )
    return MonicPolynomial(tuple(a * b for a, b in zip(f.coeffs, g.coeffs)))


def szego_weight(n: int) -> MonicPolynomial:
    """Weight polynomial with coefficient 1/C(n,k) at s^k (implicit 1 at s^n),
    from C(n, k+1) = C(n, k) (n-k) / (k+1) in ints, formed once per degree
    and shared (a MonicPolynomial is immutable).  A degree above 1029
    raises UnsupportedDegreeError before any weight is formed."""
    n = integer(n, "degree must be an integer, not")
    if n < 1:
        raise InvalidInputError("degree must be >= 1")
    if n > _MAX_SZEGO_DEGREE:
        raise UnsupportedDegreeError(f"Szego weights need degree <= {_MAX_SZEGO_DEGREE}, got {describe(n)}")
    return _szego_weight(n)


# Enough for every degree of a scan over degrees 8-160; the largest entries
# (degree 1029) hold about 40 KB each.
@functools.lru_cache(maxsize=256)
def _szego_weight(n: int) -> MonicPolynomial:
    binomials = itertools.accumulate(range(n - 1), lambda c, k: c * (n - k) // (k + 1), initial=1)
    return MonicPolynomial(tuple(1.0 / c for c in binomials))


def szego_product(f: MonicPolynomial, g: MonicPolynomial) -> MonicPolynomial:
    """Hadamard product of f, g and the binomial-reciprocal weight polynomial,
    (a_k b_k) w_k with w_k the weight's complex coefficient: the bits of
    ``hadamard_product(hadamard_product(f, g), szego_weight(n))`` and its
    refusals, in its order (a degree mismatch, a non-finite a_k b_k, then
    the degree cap), without the intermediate polynomial."""
    if f.degree != g.degree:
        raise InvalidInputError(f"degree mismatch: {f.degree} vs {g.degree}")
    ab = finite_complexes(map(operator.mul, f.coeffs, g.coeffs))
    return MonicPolynomial(tuple(map(operator.mul, ab, szego_weight(f.degree).coeffs)))


def hadamard_power(f: MonicPolynomial, p) -> BranchSet:
    """All branches of the coefficient-wise power f^[p] for rational p:
    ``BranchSet(f, p)``, whose ``exponent`` is p as a ``Fraction``.

    For integer p the set is a singleton.  For p = k/m in lowest terms every nonzero coefficient has m admissible
    values, ``|a|^p (cos(p arg a + 2 pi l / m) + i sin(...))`` for
    l = 0..m-1, giving ``m ** |support|`` member polynomials, built lazily by
    the returned BranchSet.  p = 0 sends every nonzero coefficient to 1 and
    keeps zeros at zero.  Sets of more than MAX_BRANCHES members raise
    UnsupportedInputError (see ``BranchSet``).
    """
    return BranchSet(f, p)


def principal_power(f: MonicPolynomial, p: float) -> MonicPolynomial:
    """Principal branch of f^[p] for an arbitrary real exponent: the row of
    ``principal_rows(f, [p])``, with its errors.

    Coefficient k becomes |a_k|^p e^{i p arg(a_k)} with the principal
    argument; zero coefficients stay zero.
    """
    return MonicPolynomial(tuple(principal_rows(f, [p])[0, :-1].tolist()))


def principal_rows(f: MonicPolynomial, ps: Sequence[float]) -> np.ndarray:
    """The principal branches of f^[p] for every p in ``ps``, as the rows of
    one ``(len(ps), n + 1)`` complex array of ascending coefficients with
    the leading 1; the power sweeps and onset searches read these rows.

    The support columns are ``_polar_powers`` at (p, 0), so ``principal_power``
    has these bits by construction.  A power that overflows a coefficient, or
    makes one non-finite, raises InvalidInputError for the first such power.
    """
    ps = reals(ps, "powers")  # an int beyond the float range is named below
    rows = np.zeros((len(ps), f.degree + 1), dtype=complex)
    rows[:, -1] = 1.0
    rows[:, list(f.support)] = _polar_powers(f, [(p, 0.0) for p in ps]).T
    return rows


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


@dataclass(frozen=True)
class FractionalPolynomial:
    """s^{sigma_n} + a_{n-1} s^{sigma_{n-1}} + ... with rational powers.

    ``terms`` lists (power, coefficient) pairs with strictly decreasing
    powers; the first term is the leading one and must carry coefficient 1.
    All powers are positive except a possible constant term at power 0.
    Powers are exact rationals: tolerance-based exponent matching is ill-posed.
    """

    terms: tuple[tuple[Fraction, complex], ...]

    def __post_init__(self):
        if not self.terms:
            raise InvalidInputError("fractional polynomial needs at least the leading term")
        powers = [rational(p, "not a rational power:") for p, _ in self.terms]
        terms = tuple(zip(powers, finite_complexes(c for _, c in self.terms)))
        if any(p2 >= p1 for p1, p2 in zip(powers, powers[1:])):
            raise InvalidInputError("powers must be strictly decreasing")
        if powers[-1] < 0 or (len(powers) > 1 and powers[-2] <= 0):
            raise InvalidInputError("powers must be positive except a constant term")
        if powers[0] <= 0:
            raise InvalidInputError("leading power must be positive")
        real(powers[0], "leading power overflows the floating-point range:")  # the base is a float
        if terms[0][1] != 1:
            raise InvalidInputError("leading coefficient must be exactly 1")
        object.__setattr__(self, "terms", terms)

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
            if not isinstance(pw, Sequence) or len(pw) != 2 or pw[1] == 0:
                raise InvalidInputError("'pow' must be a pair of integers, denominator nonzero")
            power = Fraction(*(integer(x, "'pow' must be a pair of integers, not") for x in pw))
            if "coeff" in entry:
                coeff = _json_pair(entry["coeff"], "'coeff'")
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
    lcm_den = math.lcm(*(p.denominator for p in powers))
    g = math.gcd(*(p.numerator * (lcm_den // p.denominator) for p in powers))
    alpha = Fraction(g, lcm_den)
    degree = int(powers[0] / alpha)
    if degree > MAX_COMMENSURATE_DEGREE:
        raise UnsupportedInputError(
            f"commensurate reduction needs degree {degree}; powers are "
            "effectively non-commensurate"
        )
    coeffs = [0j] * degree
    for p, c in f.terms[1:]:
        coeffs[int(p / alpha)] = c
    return alpha, MonicPolynomial(tuple(coeffs))
