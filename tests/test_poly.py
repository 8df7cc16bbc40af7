import cmath
import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_monic
from hadstab import (
    MAX_BRANCHES,
    FractionalPolynomial,
    InvalidInputError,
    MonicPolynomial,
    UnsupportedDegreeError,
    UnsupportedInputError,
    find_roots,
    hadamard_power,
    hadamard_product,
    principal_power,
    principal_rows,
    real_form,
    szego_product,
    szego_weight,
    poly,
    theorem3_check,
    to_integer_order,
)
from hadstab.cli import _parse_exponent as parse_exponent

F1 = MonicPolynomial((0.7, 0.2, 0.9, 0.0, 0.0))  # s^5 + 0.9 s^2 + 0.2 s + 0.7
G1 = MonicPolynomial((3.0, 2.0, 2.5, 0.0, 0.0))


def approx_coeffs(p: MonicPolynomial, expected, tol=1e-12):
    assert p.degree == len(expected)
    for got, want in zip(p.coeffs, expected):
        assert got == pytest.approx(want, abs=tol)


def _snap(x: float) -> float:
    # keep the zero-coefficient path reachable without subnormal moduli,
    # whose negative powers overflow
    return 0.0 if abs(x) < 1e-6 else x


finite_complex = st.tuples(
    st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False)
).map(lambda t: complex(_snap(t[0]), _snap(t[1])))


class TestMonicPolynomial:
    def test_degree_and_support(self):
        assert F1.degree == 5
        assert F1.support == (0, 1, 2)

    def test_support_and_moduli_are_kept(self):
        # Computed on first use and kept: the polynomial is immutable.  The
        # moduli are aligned with the support, and neither takes part in
        # equality.
        p = MonicPolynomial((3 - 4j, 0j, -0.25, 0.0))
        assert p.support is p.support and p.moduli is p.moduli
        assert (p.support, p.moduli) == ((0, 2), (5.0, 0.25))
        assert p.coefficient_moduli() == {0: 5.0, 2: 0.25}
        q = MonicPolynomial(p.coeffs)
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q)

    def test_exact_zero_support(self):
        p = MonicPolynomial((1e-300, 0.0, complex(0.0, 1e-12)))
        assert p.support == (0, 2)

    @pytest.mark.parametrize("zero", [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
    def test_signed_zero_outside_support(self, zero):
        assert MonicPolynomial((zero, zero)).support == ()
        assert MonicPolynomial((zero, 0.5)).support == (1,)

    def test_empty_coeffs_rejected(self):
        with pytest.raises(InvalidInputError):
            MonicPolynomial(())

    def test_evaluation(self):
        p = MonicPolynomial((2.0, -3.0))  # s^2 - 3s + 2
        assert p(1.0) == pytest.approx(0.0)
        assert p(2.0) == pytest.approx(0.0)
        assert p(0.0) == pytest.approx(2.0)

    def test_json_round_trip(self):
        p = MonicPolynomial((1 + 2j, 0j, -0.5j))
        assert MonicPolynomial.from_json(p.to_json()) == p

    @pytest.mark.parametrize(
        "obj",
        [
            42,
            {},
            {"degree": 2},
            {"degree": 0, "coeffs": []},
            {"degree": 2, "coeffs": [[1, 0]]},
            {"degree": 1, "coeffs": [[1, 0, 0]]},
            {"degree": 1, "coeffs": ["x"]},
            {"degree": 1, "coeffs": [[True, False]]},
            {"degree": 1, "coeffs": [[0.5, True]]},
            {"degree": True, "coeffs": [[0.5, 0]]},
            {"degree": 1, "coeffs": [[float("nan"), 0]]},
            {"degree": 1, "coeffs": [[0, float("-inf")]]},
            pytest.param({"degree": 1, "coeffs": [[10**400, 0]]}, id="re-beyond-float"),
            pytest.param({"degree": 1, "coeffs": [[0.5, -(10**400)]]}, id="im-beyond-float"),
            pytest.param({"degree": 1, "coeffs": [[1.5e308, 1.5e308]]}, id="modulus-beyond-float"),
        ],
    )
    def test_malformed_json(self, obj):
        with pytest.raises(InvalidInputError):
            MonicPolynomial.from_json(obj)

    @pytest.mark.parametrize(
        "c",
        [
            float("nan"),
            float("inf"),
            complex(0.5, float("nan")),
            complex("-infj"),
            pytest.param(10**400, id="int-beyond-float"),
            # Finite parts whose modulus overflows, refused before abs raises.
            pytest.param(complex(1.5e308, 1.5e308), id="modulus-beyond-float"),
            pytest.param(complex(1e308, -1.7e308), id="modulus-beyond-float-2"),
        ],
    )
    def test_non_finite_coefficients_rejected(self, c):
        with pytest.raises(InvalidInputError, match="coefficients must be finite"):
            MonicPolynomial((0.5, c))

    @pytest.mark.parametrize(
        "c, shown",
        [
            # True was taken as 1+0j, text was parsed, and bytes raised a raw
            # TypeError.
            (True, "True"),
            (np.True_, "True"),
            ("0.5", "'0.5'"),
            (b"1", "b'1'"),
            (None, "None"),
        ],
    )
    def test_non_number_coefficients_rejected(self, c, shown):
        with pytest.raises(InvalidInputError, match=rf"coefficients must be numbers, not .*{shown}"):
            MonicPolynomial((c, 0.5))
        with pytest.raises(InvalidInputError, match="coefficients must be numbers"):
            FractionalPolynomial(((Fraction(1), 1.0), (Fraction(0), c)))

    def test_number_types_accepted(self):
        values = (3, np.int64(2), np.float32(0.5), np.complex128(0.25j), Fraction(1, 4), Decimal("0.125"))
        assert MonicPolynomial(values).coeffs == (3, 2, 0.5, 0.25j, 0.25, 0.125)

    def test_largest_representable_modulus_accepted(self):
        c = complex(1.2e308, 1.2e308)  # modulus 1.697e308, below the float maximum
        assert MonicPolynomial((c, 0.5)).coeffs[0] == c


class TestRationalExponent:
    """A Hadamard exponent is a ``Fraction`` in lowest terms with int parts:
    ``BranchSet`` checks a library one with ``_coerce.rational``, and the CLI
    reads ``K/M`` text into one with ``cli._parse_exponent``."""

    def test_lowest_terms(self):
        p = parse_exponent("6/4")
        assert (p.numerator, p.denominator) == (3, 2)
        assert hadamard_power(F1, p).exponent == Fraction(3, 2)

    def test_sign_normalization(self):
        p = parse_exponent("3/-2")
        assert (p.numerator, p.denominator) == (-3, 2)
        assert str(parse_exponent("10/-4")) == "-5/2"

    def test_integer(self):
        """An integer exponent has denominator 1, so its set is a singleton."""
        assert parse_exponent("4").denominator == 1
        assert len(hadamard_power(F1, 4)) == 1
        assert parse_exponent("1/3").denominator == 3
        assert len(hadamard_power(F1, Fraction(1, 3))) == 27

    def test_zero(self):
        p = parse_exponent("0/7")
        assert (p.numerator, p.denominator) == (0, 1)
        assert hadamard_power(F1, 0).exponent == Fraction(0)

    def test_parse(self):
        assert parse_exponent("3/2") == Fraction(3, 2)
        assert parse_exponent("-2") == Fraction(-2)
        with pytest.raises(InvalidInputError, match="cannot parse rational exponent '1.5'"):
            parse_exponent("1.5")

    def test_zero_denominator(self):
        with pytest.raises(InvalidInputError, match="exponent denominator must be nonzero"):
            parse_exponent("1/0")

    @pytest.mark.parametrize("num, den", [(True, 2), (1, True), (1.5, 2), (3, 2.0)])
    def test_parts_must_be_integers(self, num, den):
        with pytest.raises(InvalidInputError, match="cannot parse rational exponent"):
            parse_exponent(f"{num}/{den}")

    def test_numpy_integer_parts(self):
        """A Fraction of numpy integers keeps them as its parts; the
        exponent's parts are ints."""
        p = hadamard_power(F1, Fraction(np.int64(6), np.int64(4))).exponent
        got = (p, str(p), type(p.numerator), type(p.denominator))
        assert got == (Fraction(3, 2), "3/2", int, int)
        assert type(hadamard_power(F1, np.int64(2)).exponent.numerator) is int

    def test_value_overflow_is_invalid_input(self):
        """A k/m beyond the float range is refused when the exponent is
        checked, so the float power never raises OverflowError; a huge
        numerator and denominator with a representable ratio are kept."""
        unbranched = MonicPolynomial((0j,))  # no support: no branch count
        for p in [Fraction(10**400), Fraction(-(10**400), 3)]:
            with pytest.raises(InvalidInputError, match="overflows"):
                poly.BranchSet(unbranched, p)
        with pytest.raises(InvalidInputError, match="overflows"):
            parse_exponent("1" + "0" * 400)
        p = poly.BranchSet(unbranched, Fraction(10**400 + 1, 10**400)).exponent
        assert p.numerator / p.denominator == 1.0
        p = parse_exponent("1/1" + "0" * 500)
        assert p.numerator / p.denominator == 0.0


class TestDegreeArguments:
    @pytest.mark.parametrize("make", [szego_weight])
    @pytest.mark.parametrize("n", [True, False, 2.0, 1.5])
    def test_bool_and_float_degrees_are_refused(self, make, n):
        with pytest.raises(InvalidInputError, match="degree must be an integer"):
            make(n)

    @pytest.mark.parametrize("make", [szego_weight])
    def test_numpy_integer_degree(self, make):
        assert make(np.int64(3)) == make(3)

    @pytest.mark.parametrize("make", [szego_weight])
    def test_degree_below_one(self, make):
        with pytest.raises(InvalidInputError, match="degree must be >= 1"):
            make(0)


class TestHadamardProduct:
    def test_all_ones_is_identity(self):
        ones = MonicPolynomial((1.0,) * 5)
        assert hadamard_product(F1, ones) == F1
        assert hadamard_product(ones, F1) == F1

    def test_coefficientwise(self):
        approx_coeffs(hadamard_product(F1, G1), [2.1, 0.4, 2.25, 0.0, 0.0])

    def test_annihilator(self):
        zero = MonicPolynomial((0j,) * 5)
        assert hadamard_product(F1, zero) == zero

    def test_degree_mismatch(self):
        with pytest.raises(InvalidInputError):
            hadamard_product(F1, MonicPolynomial((1.0,)))

    @given(
        st.lists(finite_complex, min_size=1, max_size=6),
        st.lists(finite_complex, min_size=1, max_size=6),
        st.lists(finite_complex, min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_commutative_associative(self, a, b, c):
        n = max(len(a), len(b), len(c))
        a, b, c = (xs + [1 + 0j] * (n - len(xs)) for xs in (a, b, c))
        f, g, h = MonicPolynomial(a), MonicPolynomial(b), MonicPolynomial(c)
        assert hadamard_product(f, g) == hadamard_product(g, f)
        lhs = hadamard_product(hadamard_product(f, g), h)
        rhs = hadamard_product(f, hadamard_product(g, h))
        for x, y in zip(lhs.coeffs, rhs.coeffs):
            assert x == pytest.approx(y, rel=1e-12, abs=1e-15)


class TestSzego:
    def test_weight_n2(self):
        approx_coeffs(szego_weight(2), [1.0, 0.5])

    def test_weight_n5_middle(self):
        assert szego_weight(5).coeffs[2] == pytest.approx(1 / 10)

    def test_weight_n1(self):
        approx_coeffs(szego_weight(1), [1.0])

    def test_product_of_ones_is_weight(self):
        ones = MonicPolynomial((1.0, 1.0))
        got = szego_product(ones, ones)
        assert got == szego_weight(2)

    def test_product_arithmetic(self):
        f = MonicPolynomial((1.0, 1.0))
        g = MonicPolynomial((2.0, 2.0))
        approx_coeffs(szego_product(f, g), [2.0, 1.0])

    @pytest.mark.parametrize("n", [1, 2, 57, 160, 1029])
    def test_weight_bits(self, n):
        """The binomials from their recurrence are exact, so every weight
        has the bits of ``1.0 / math.comb(n, k)``."""
        assert szego_weight(n).coeffs == tuple(complex(1.0 / math.comb(n, k)) for k in range(n))

    def test_degree_beyond_the_float_range(self):
        """C(1030, 515) is beyond the float range: degree 1029 is the last
        whose weights are all formed, and 1030 is refused by name, before
        any weight, wherever the weighted product is needed; this was a raw
        OverflowError."""
        f, g = (MonicPolynomial((0.0005,) * n) for n in (1029, 1030))
        assert len(szego_product(f, f).coeffs) == 1029
        assert all(theorem3_check(f, f, v).satisfied for v in "abc")
        text = "Szego weights need degree <= 1029, got 1030"
        calls = [lambda: szego_weight(1030), lambda: szego_product(g, g)]
        calls += [lambda v=v: theorem3_check(g, g, v) for v in "abc"]
        for call in calls:
            with pytest.raises(UnsupportedDegreeError, match=text):
                call()
        with pytest.raises(UnsupportedDegreeError, match=r"got a 5001-digit integer"):
            szego_weight(10**5000)

    @given(
        st.lists(finite_complex, min_size=2, max_size=6),
        st.lists(finite_complex, min_size=2, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, a, b):
        n = max(len(a), len(b))
        a, b = (xs + [0j] * (n - len(xs)) for xs in (a, b))
        f, g = MonicPolynomial(a), MonicPolynomial(b)
        assert szego_product(f, g) == szego_product(g, f)


class TestHadamardPower:
    def test_square_roots_of_i(self):
        f = MonicPolynomial((0j, 1j))  # s^2 + i s
        bset = hadamard_power(f, Fraction(1, 2))
        assert len(bset) == 2
        key = lambda z: (z.real, z.imag)
        got = sorted((m.coeffs[1] for m in bset), key=key)
        want = sorted(
            [
                complex(math.cos(math.pi / 4), math.sin(math.pi / 4)),
                complex(math.cos(5 * math.pi / 4), math.sin(5 * math.pi / 4)),
            ],
            key=key,
        )
        for x, y in zip(got, want):
            assert x == pytest.approx(y, abs=1e-15)
        assert all(m.coeffs[0] == 0 for m in bset)

    def test_integer_square(self):
        bset = hadamard_power(F1, 2)
        assert len(bset) == 1
        approx_coeffs(bset.principal, [0.49, 0.04, 0.81, 0.0, 0.0])

    @pytest.mark.parametrize("p", [1.5, "3/2", "2"])
    def test_float_and_string_powers_are_refused(self, p):
        """A power is an int, a ``Fraction`` or any ``numbers.Rational``;
        the CLI reads text into a ``Fraction`` first."""
        with pytest.raises(InvalidInputError, match="not a rational exponent"):
            hadamard_power(F1, p)

    def test_integer_reciprocal(self):
        bset = hadamard_power(G1, -1)
        approx_coeffs(bset.principal, [1 / 3, 0.5, 0.4, 0.0, 0.0])

    def test_power_zero_maps_nonzero_to_one(self):
        bset = hadamard_power(F1, 0)
        approx_coeffs(bset.principal, [1.0, 1.0, 1.0, 0.0, 0.0])

    def test_branch_count(self):
        bset = hadamard_power(F1, Fraction(1, 3))
        assert len(bset) == 3 ** 3
        assert len(set(bset.indices())) == 27

    def test_zero_coefficients_never_branch(self):
        bset = hadamard_power(F1, Fraction(1, 2))
        for member in bset:
            assert member.coeffs[3] == 0
            assert member.coeffs[4] == 0

    def test_boolean_power_is_refused(self):
        with pytest.raises(InvalidInputError, match="not a rational exponent: True"):
            hadamard_power(F1, True)
        assert hadamard_power(F1, np.int64(2)).exponent == Fraction(2)

    def test_direct_set_checks_its_exponent(self):
        """``BranchSet`` applies the exponent rule itself: a ``Fraction`` or
        an int is kept as a ``Fraction``, and a float is refused."""
        assert poly.BranchSet(F1, Fraction(1, 2)) == hadamard_power(F1, Fraction(1, 2))
        assert type(poly.BranchSet(F1, 2).exponent) is Fraction
        with pytest.raises(InvalidInputError, match="not a rational exponent: 0.5"):
            poly.BranchSet(F1, 0.5)

    def test_singleton_for_integers(self):
        assert len(hadamard_power(G1, 5)) == 1

    @given(
        st.lists(finite_complex, min_size=1, max_size=4),
        st.integers(-3, 3),
        st.integers(1, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_branch_moduli_are_branch_independent(self, coeffs, num, den):
        f = MonicPolynomial(coeffs)
        p = Fraction(num, den)
        bset = hadamard_power(f, p)
        pval = p.numerator / p.denominator
        for member in bset:
            for k in range(f.degree):
                base = abs(f.coeffs[k])
                if base == 0:
                    assert member.coeffs[k] == 0
                else:
                    assert abs(member.coeffs[k]) == pytest.approx(
                        base ** pval, rel=1e-12
                    )

    @given(
        st.lists(finite_complex, min_size=1, max_size=5),
        st.integers(-3, 3),
        st.integers(-3, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_integer_power_addition(self, coeffs, p, q):
        f = MonicPolynomial(coeffs)
        lhs = hadamard_power(f, p + q).principal
        a = hadamard_power(f, p).principal
        b = hadamard_power(f, q).principal
        for k in range(f.degree):
            if f.coeffs[k] == 0:
                assert lhs.coeffs[k] == 0
            else:
                assert lhs.coeffs[k] == pytest.approx(
                    a.coeffs[k] * b.coeffs[k], rel=1e-12, abs=1e-250
                )

    def test_principal_power_matches_branch_zero(self):
        p = Fraction(3, 2)
        principal = hadamard_power(F1, p).principal
        direct = principal_power(F1, p.numerator / p.denominator)
        assert principal == direct


def _power_of(a, p, t=0.0):
    """|a|^p (cos(p arg a + t) + i sin(p arg a + t)) for one coefficient,
    0 for a zero one: the reference for every power the library builds."""
    if a == 0:
        return 0j
    ang = p * math.atan2(a.imag, a.real) + t
    return abs(a) ** p * complex(math.cos(ang), math.sin(ang))


def _rows_of(f, ps):
    """The reference for ``principal_rows``: ``_power_of`` per coefficient."""
    return np.array(
        [[_power_of(a, p) for a in f.coeffs] + [1.0 + 0j] for p in ps], dtype=complex
    ).reshape(len(ps), f.degree + 1)


def _same_bits(a, b):
    return a.shape == b.shape and (a.view(np.uint64) == b.view(np.uint64)).all()


class TestPrincipalRows:
    POWERS = [0.0, -0.0, 1.0, 2.0, 3.0, -1.0, -2.5, 0.5, 1 / 3, -7 / 3, 12.75, 100.0, -100.0]

    def test_bit_identical_to_principal_power(self):
        """Seeded real and complex inputs with zero coefficients and negative
        reals, at zero, negative, fractional and integer powers, one power
        and many: every bit of every row, and of ``principal_power``, is the
        scalar reference's."""
        rng = random.Random(1212)
        checked = 0
        for i in range(200):
            n = 2 + i % 9
            coeffs = []
            for _ in range(n):
                u = rng.random()
                if u < 0.2:
                    coeffs.append(0j)
                elif u < 0.5:
                    coeffs.append(complex(rng.choice((-1, 1)) * rng.uniform(0.05, 3.0)))
                else:
                    m, t = rng.uniform(0.05, 3.0), rng.uniform(-math.pi, math.pi)
                    coeffs.append(m * complex(math.cos(t), math.sin(t)))
            f = MonicPolynomial(tuple(coeffs))
            ps = self.POWERS + [rng.uniform(-20.0, 20.0) for _ in range(20)]
            assert _same_bits(principal_rows(f, ps), _rows_of(f, ps))
            for p in ps[:3] + ps[-3:]:
                assert _same_bits(principal_rows(f, [p]), _rows_of(f, [p]))
                single = np.array([principal_power(f, p).coeffs + (1.0 + 0j,)])
                assert _same_bits(single, _rows_of(f, [p]))
            checked += len(ps)
        assert checked == 200 * 33

    def test_examples_and_integer_powers(self):
        for f in (F1, G1, MonicPolynomial((-0.9j, 0.7, 0.0, 0.2 - 0.4j))):
            ps = [float(p) for p in range(-100, 101)] + [2, -3]  # ints too
            assert _same_bits(principal_rows(f, ps), _rows_of(f, ps))

    def test_signed_zeros_where_the_modulus_underflows(self):
        """|a|^p underflowing to zero or to a subnormal leaves products that
        are zeros; their signs follow Python's float-by-complex product,
        re = m cos - 0.0 sin and im = m sin + 0.0 cos, in every quadrant."""
        f = MonicPolynomial(tuple(0.5 * cmath.exp(1j * t) for t in (-2.5, -0.7, 2.0, 0.9, math.pi)))
        ps = [1074.0, 1073.5, 1080.25, 2000.0, 3000.5]
        rows = principal_rows(f, ps)
        assert _same_bits(rows, _rows_of(f, ps))
        parts = np.concatenate([rows[:, :-1].real.ravel(), rows[:, :-1].imag.ravel()])
        assert (parts == 0).sum() > 20 and np.signbit(parts[parts == 0]).any()

    def test_empty_powers(self):
        rows = principal_rows(F1, [])
        assert rows.shape == (0, 6) and rows.dtype == complex

    def test_empty_support(self):
        rows = principal_rows(MonicPolynomial((0j, 0j)), [float("nan"), 2.0])
        assert _same_bits(rows, np.array([[0, 0, 1], [0, 0, 1]], dtype=complex))

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("f", [F1, MonicPolynomial((0.7j, 2.0, -0.9))])
    def test_non_finite_power(self, f, p):
        with pytest.raises(InvalidInputError, match="coefficients must be finite"):
            principal_power(f, p)
        with pytest.raises(InvalidInputError, match="coefficients must be finite"):
            principal_rows(f, [1.0, p, 2.0])

    def test_first_overflow_is_reported(self):
        f = MonicPolynomial((1e-3, 2.0, 10.0))
        # 10^400 overflows at p = 400 before 2^2000 at p = 2000; at p = -200
        # 1e-3^-200 overflows first, at index 0.
        for ps, text in [
            ([1.0, 2000.0, 400.0], r"\|\(2\+0j\)\|\^2000.0 overflows"),
            ([1.0, 400.0, 2000.0], r"\|\(10\+0j\)\|\^400.0 overflows"),
            ([-200.0, 400.0], r"\|\(0.001\+0j\)\|\^-200.0 overflows"),
        ]:
            with pytest.raises(InvalidInputError, match=text):
                principal_rows(f, ps)
            with pytest.raises(InvalidInputError, match=text):
                for p in ps:
                    principal_power(f, p)

    def test_long_int_power(self):
        """An int power of more than 4,300 digits raised a raw ValueError,
        Python's refusal to print it in the overflow message."""
        text = r"\|\(0.7\+0j\)\|\^p with a 5001-digit integer p overflows"
        with pytest.raises(InvalidInputError, match=text):
            principal_rows(F1, [10**5000])
        with pytest.raises(InvalidInputError, match=text):
            principal_power(F1, -(10**5000))

    def test_overflowing_angle(self):
        # 0.5^1e308 underflows to 0, but 1e308 * pi overflows the angle to inf.
        f = MonicPolynomial((-0.5, 0.25))
        with pytest.raises(InvalidInputError, match="coefficients must be finite"):
            principal_power(f, 1e308)
        with pytest.raises(InvalidInputError, match="coefficients must be finite"):
            principal_rows(f, [1.0, 1e308])

    def test_non_finite_before_a_later_overflow(self):
        f = MonicPolynomial((1e-3, 2.0, 10.0))
        with pytest.raises(InvalidInputError, match="coefficients must be finite"):
            principal_rows(f, [math.nan, 400.0])

    def test_angle_that_underflows(self):
        """arg(1500 + 5e-324 i) underflows: ``cmath.phase`` raises
        OverflowError there, and the angle is taken with ``math.atan2``."""
        for a in (1500 + 5e-324j, 1e300 + 1e-300j, 1500 - 5e-324j):
            with pytest.raises(OverflowError):
                cmath.phase(a)
        f = MonicPolynomial((1500 + 5e-324j, 0.5))
        ps = [1.0, 2.0, 0.5, -3.0]
        assert _same_bits(principal_rows(f, ps), _rows_of(f, ps))
        assert principal_rows(f, [2.0])[0, 0] == 1500.0**2
        with pytest.raises(InvalidInputError, match=r"\|\(1e\+300\+1e-300j\)\|\^2.0 overflows"):
            principal_rows(MonicPolynomial((1e300 + 1e-300j, 0.5)), [2.0])

    def test_atan2_equals_phase_where_phase_succeeds(self):
        """The reference moved from ``cmath.phase`` to ``math.atan2``: on
        seeded finite coefficients, tiny parts and signed zeros included,
        the two agree bit for bit wherever ``cmath.phase`` returns."""
        rng = random.Random(2727)
        parts = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1.0, -1.0, 1500.0, 1e300, -1e300]
        values = parts + [rng.choice((-1, 1)) * 10.0 ** rng.uniform(-320, 300) for _ in range(4000)]
        pairs = list(itertools.product(values[:60], repeat=2)) + list(zip(values, reversed(values)))
        agreed = raised = 0
        for x, y in pairs:
            try:
                want = cmath.phase(complex(x, y))
            except OverflowError:
                raised += 1
                continue
            assert np.float64(math.atan2(y, x)).view(np.uint64) == np.float64(want).view(np.uint64)
            agreed += 1
        assert agreed > 3000 and raised > 0


class TestNumpyTrigonometry:
    def test_cos_and_sin_equal_libm_but_power_is_kept(self):
        """The premise of ``_polar_powers``' numpy angles: over a seeded
        sample with |x| up to 1e300, ``np.cos`` and ``np.sin`` equal
        ``math.cos`` and ``math.sin`` bit for bit.  ``np.power`` is not
        used: it may differ from ``**`` in the last bit (it does where numpy
        runs its AVX-512 kernel), and the moduli follow ``**`` on every pair."""
        rng = random.Random(27)
        xs = [rng.choice((-1, 1)) * 10.0 ** rng.uniform(-300, 300) for _ in range(60_000)]
        xs += [rng.uniform(-100.0, 100.0) for _ in range(60_000)]
        xs += [0.0, -0.0, 5e-324, math.pi, -math.pi / 2, 1e300, -1e300]
        arr = np.array(xs)
        assert _same_bits(np.cos(arr), np.array([math.cos(x) for x in xs]))
        assert _same_bits(np.sin(arr), np.array([math.sin(x) for x in xs]))

        rs = [rng.uniform(0.05, 3.0) for _ in range(20_000)]
        ps = [rng.uniform(-20.0, 20.0) for _ in range(20_000)]
        pows = np.array([r**p for r, p in zip(rs, ps)])
        rows = np.concatenate([principal_rows(MonicPolynomial((r,)), [p]) for r, p in zip(rs[:2000], ps[:2000])])
        assert _same_bits(rows[:, 0].real, pows[:2000])
        differ = int((np.power(np.array(rs), np.array(ps)) != pows).sum())
        try:  # where numpy names its float64 power kernel (numpy >= 2.0)
            from numpy.lib.introspect import opt_func_info

            target = opt_func_info("^power$", "float64")["power"]["ddd"]["current"]
        except (ImportError, KeyError):
            target = None
        if target == "X86_V4":  # its AVX-512 kernel; elsewhere both are libm's pow
            assert differ > 0


class TestConjugateAndRealForm:
    def test_real_form_s_plus_i(self):
        approx_coeffs(real_form(MonicPolynomial((1j,))), [1.0, 0.0])

    def test_real_form_s_plus_half(self):
        approx_coeffs(real_form(MonicPolynomial((0.5,))), [0.25, 1.0])

    def test_real_form_is_exactly_real(self):
        f = MonicPolynomial((1 - 1j, 0.3j, -2.0 + 0.7j))
        r = real_form(f)
        assert r.degree == 2 * f.degree
        assert all(c.imag == 0.0 for c in r.coeffs)
        for x in (-1.0, -0.3, 0.0, 0.7, 1.0):
            assert r(x).imag == 0.0

    def test_real_form_preserves_max_modulus(self, rng):
        for _ in range(25):
            f = random_monic(rng, rng.randint(1, 6))
            m1 = find_roots(f).max_modulus
            m2 = find_roots(real_form(f)).max_modulus
            assert m2 == pytest.approx(m1, rel=1e-6, abs=1e-9)


class TestFractionalPolynomial:
    def test_reduction_example(self):
        f = FractionalPolynomial(
            ((Fraction(3, 2), 1.0), (Fraction(1, 2), 0.4), (Fraction(0), 0.3))
        )
        alpha, F = to_integer_order(f)
        assert alpha == Fraction(1, 2)
        approx_coeffs(F, [0.3, 0.4, 0.0])

    def test_integer_powers_identity(self):
        f = FractionalPolynomial(
            ((Fraction(3), 1.0), (Fraction(2), 0.5), (Fraction(0), -0.25))
        )
        alpha, F = to_integer_order(f)
        assert alpha == 1
        approx_coeffs(F, [-0.25, 0.0, 0.5])

    def test_halved_powers_of_quintic(self):
        f = FractionalPolynomial(
            (
                (Fraction(5, 2), 1.0),
                (Fraction(1), 0.9),
                (Fraction(1, 2), 0.2),
                (Fraction(0), 0.7),
            )
        )
        alpha, F = to_integer_order(f)
        assert alpha == Fraction(1, 2)
        assert F == F1

    @pytest.mark.parametrize(
        "powers, alpha, indices",
        [
            # Denominators 6, 3 and 4: lcm 12, numerators 14, 8, 3 and 0.
            ((Fraction(7, 6), Fraction(2, 3), Fraction(1, 4), Fraction(0)), Fraction(1, 12), (8, 3, 0)),
            # Over denominator 2, numerators 9, 6 and 3 share the factor 3.
            ((Fraction(9, 2), Fraction(3), Fraction(3, 2)), Fraction(3, 2), (2, 1)),
        ],
        ids=["lcm-12", "gcd-3"],
    )
    def test_common_base_of_mixed_denominators(self, powers, alpha, indices):
        coeffs = (0.5, -0.25j, 0.125)[: len(indices)]
        f = FractionalPolynomial(((powers[0], 1.0),) + tuple(zip(powers[1:], coeffs)))
        got_alpha, F = to_integer_order(f)
        assert got_alpha == alpha
        assert F.degree == powers[0] / alpha
        assert F.support == tuple(sorted(indices))
        assert [F.coeffs[k] for k in indices] == list(coeffs)

    def test_float_powers_rejected(self):
        with pytest.raises(InvalidInputError):
            FractionalPolynomial(((1.5, 1.0),))

    @pytest.mark.parametrize("power", ["abc", None])
    def test_non_number_powers_rejected(self, power):
        with pytest.raises(InvalidInputError, match="not a rational power"):
            FractionalPolynomial(((power, 1.0),))

    def test_no_terms_rejected(self):
        with pytest.raises(InvalidInputError, match="needs at least the leading term"):
            FractionalPolynomial(())

    def test_powers_must_decrease(self):
        with pytest.raises(InvalidInputError):
            FractionalPolynomial(((Fraction(1), 1.0), (Fraction(2), 0.5)))

    def test_leading_coefficient_must_be_one(self):
        with pytest.raises(InvalidInputError):
            FractionalPolynomial(((Fraction(2), 2.0),))

    def test_degree_explosion_rejected(self):
        f = FractionalPolynomial(
            ((Fraction(100000, 7), 1.0), (Fraction(1, 13), 0.5))
        )
        with pytest.raises(UnsupportedInputError):
            to_integer_order(f)

    def test_json_round_trip(self):
        f = FractionalPolynomial(
            ((Fraction(5, 2), 1.0), (Fraction(1, 2), 0.5 - 0.5j))
        )
        obj = f.to_json()
        assert "coeff" not in obj["terms"][0]
        assert FractionalPolynomial.from_json(obj) == f

    def test_json_not_an_object_rejected(self):
        with pytest.raises(InvalidInputError, match="must have 'terms'"):
            FractionalPolynomial.from_json([1])

    def test_json_missing_coeff_rejected(self):
        with pytest.raises(InvalidInputError):
            FractionalPolynomial.from_json(
                {"terms": [{"pow": [3, 2]}, {"pow": [1, 2]}]}
            )

    @pytest.mark.parametrize(
        "term",
        [
            {"pow": [True, 2], "coeff": [0.5, 0]},
            {"pow": [1, True], "coeff": [0.5, 0]},
            {"pow": [1, 0], "coeff": [0.5, 0]},
            {"pow": [1, 2], "coeff": [True, 0]},
            {"pow": [1, 2], "coeff": ["0.5", 0]},
            {"pow": [1, 2], "coeff": [float("nan"), 0]},
            {"pow": [1, 2], "coeff": [0.5, float("inf")]},
            pytest.param({"pow": [1, 2], "coeff": [10**400, 0]}, id="coeff-beyond-float"),
            pytest.param({"pow": [1, 2], "coeff": [-1.5e308, 1.5e308]}, id="modulus-beyond-float"),
        ],
    )
    def test_json_bad_term_rejected(self, term):
        with pytest.raises(InvalidInputError):
            FractionalPolynomial.from_json({"terms": [{"pow": [3, 2]}, term]})


class TestBranchSetLaziness:
    def test_members_follow_product_order(self):
        bset = hadamard_power(F1, Fraction(2, 3))
        indices = list(bset.indices())
        assert indices == list(itertools.product(range(3), repeat=3))
        assert [bset.position(ls) for ls in indices] == list(range(27))
        assert list(bset) == list(bset.members(indices))
        assert bset.principal == next(iter(bset))

    def test_cap_raises_before_enumerating(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a branch coefficient was computed")

        monkeypatch.setattr(poly, "_polar_powers", refuse)
        full = MonicPolynomial((0.5,) * 17)
        with pytest.raises(UnsupportedInputError, match=str(MAX_BRANCHES)):
            hadamard_power(full, Fraction(1, 2))
        assert len(hadamard_power(MonicPolynomial((0.5,) * 16), Fraction(1, 2))) == MAX_BRANCHES

    @pytest.mark.parametrize(
        "den, support, refused",
        [
            (10**20, 2, True),  # len() would overflow an index-sized int
            (10**20, 0, False),  # no nonzero coefficient: one member
            (MAX_BRANCHES, 1, False),
            (MAX_BRANCHES + 1, 1, True),
            (256, 2, False),
            (257, 2, True),
            (2, 16, False),
            (2, 17, True),
            (3, 10, False),
            (3, 11, True),
            (1, 10_000, False),
        ],
    )
    def test_cap_decided_without_len(self, monkeypatch, den, support, refused):
        """The cap is decided without ``len`` and without forming the count
        when the denominator alone exceeds it."""

        def no_len(self):
            raise AssertionError("len() of a branch set was taken")

        monkeypatch.setattr(poly.BranchSet, "__len__", no_len)
        f = MonicPolynomial((0.1,) * support + (0j,) * 2)
        if refused:
            with pytest.raises(UnsupportedInputError, match=f"at most {MAX_BRANCHES}"):
                hadamard_power(f, Fraction(1, den))
        else:
            assert hadamard_power(f, Fraction(1, den)).exponent.denominator == den

    def test_direct_set_over_the_cap_is_refused(self):
        """The cap is the type's: a set built without ``hadamard_power`` is
        refused too, so ``len`` of any set fits an index."""
        with pytest.raises(UnsupportedInputError, match=f"at most {MAX_BRANCHES}"):
            poly.BranchSet(MonicPolynomial((0.1, 0.1)), Fraction(1, 10**20))
        full = poly.BranchSet(MonicPolynomial((0.5,) * 16), Fraction(1, 2))
        assert len(full) == MAX_BRANCHES
        # No nonzero coefficient: one member whatever the denominator.
        empty = poly.BranchSet(MonicPolynomial((0j, 0j)), Fraction(1, 10**20))
        assert len(empty) == 1
        assert list(empty) == [MonicPolynomial((0j, 0j))]
        assert empty.table.shape == (0, 0)

    @pytest.mark.parametrize(
        "exponent, digits",
        [
            (Fraction(1, 10**5000), 5001),
            (Fraction(10**5300 + 1, 10**5000), 5001),  # a long numerator too
            (Fraction(1, 10**20), 21),
            (Fraction(1, 2**20000), 6021),
        ],
    )
    def test_long_denominator_by_digit_count(self, exponent, digits):
        """A denominator beyond Python's 4,300-digit printing limit is named
        by its digit count, so the cap raises UnsupportedInputError, not
        Python's ValueError."""
        with pytest.raises(UnsupportedInputError, match=f"{digits}-digit denominator") as info:
            hadamard_power(MonicPolynomial((0.5,)), exponent)
        assert f"at most {MAX_BRANCHES} are supported" in str(info.value)
        with pytest.raises(UnsupportedInputError, match="f\\^\\[1/99999999999999999999\\] has"):
            hadamard_power(MonicPolynomial((0.5,)), Fraction(1, 10**20 - 1))

    def test_rows_are_the_member_coefficients(self):
        """``rows`` equals, bit for bit, the coefficients of ``members`` and
        a reference built from ``_power_of`` per coefficient, zeros
        included, on seeded sets: real of both signs and complex, m = 1-4,
        exponents -2..2."""
        rng = random.Random(1414)
        zeros = 0
        for i in range(120):
            m = 1 + i % 4
            real = i % 3 == 0
            f = random_monic(rng, rng.randint(1, 6), (0.05, 2.0), density=0.7, real=real)
            if real:
                f = MonicPolynomial(tuple(c * rng.choice((1, -1)) for c in f.coeffs))
            p = Fraction(rng.randint(-2 * m, 2 * m), m)
            bset = hadamard_power(f, p)
            indices = list(bset.indices())
            rows = bset.rows(indices)
            reference = np.zeros((len(indices), f.degree + 1), dtype=complex)
            reference[:, -1] = 1.0
            for r, ls in enumerate(indices):
                for k, l in zip(f.support, ls):
                    pval, angle = p.numerator / p.denominator, 2.0 * math.pi * l / p.denominator
                    reference[r, k] = _power_of(f.coeffs[k], pval, angle)
            members = np.array([g.coeffs + (1.0 + 0j,) for g in bset.members(indices)])
            assert _same_bits(rows, reference), (f, p)
            assert _same_bits(rows, members), (f, p)
            zeros += f.degree - len(f.support)
        assert zeros >= 50
        assert bset.rows([]).shape == (0, f.degree + 1)

    @pytest.mark.parametrize(
        "n, support",
        [(1, (0,)), (3, (1, 2)), (4, (0, 2)), (4, (0, 1, 2, 3)),
         (5, (1, 3, 4)), (6, (0, 3)), (6, (0, 2, 4))],
    )
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_rotation_representatives_meet_every_orbit(self, n, support, m):
        """Every index rotates (l_k -> l_k + j(k-n) mod m) onto a
        representative, and for prime m onto exactly one."""
        f = MonicPolynomial(tuple(0.5 if k in support else 0.0 for k in range(n)))
        bset = hadamard_power(f, Fraction(1, m))
        reps = list(bset.rotation_representatives())
        assert reps[0] == (0,) * len(support)
        assert set(reps) <= set(bset.indices())
        for ls in bset.indices():
            orbit = {
                tuple((l + j * (k - n)) % m for k, l in zip(support, ls))
                for j in range(m)
            }
            met = orbit & set(reps)
            assert met
            if m in (2, 3, 5):
                assert len(met) == 1
