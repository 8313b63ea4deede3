import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hahnkit.numeric import (
    Rat,
    Rational,
    RationalMatrix,
    RadicalScalar,
    binomial_general,
    factorial,
    format_rational,
    multinomial,
    nonzero,
    parse_rational,
    pfq_terminating,
    pochhammer,
    rising,
)
from hahnkit.simplex import sparse_mul, sparse_sum

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=9).map(
    lambda f: Rat(f.numerator, f.denominator)
)
# bases whose cleared products run on many-digit integers
wide_rationals = st.fractions(min_value=-40, max_value=40, max_denominator=10**15).map(
    lambda f: Rat(f.numerator, f.denominator)
)


def pochhammer_retired(a, n):
    """The loop the cleared product replaced: n rational additions and
    multiplications."""
    a = Rat(a)
    out = Rat(1)
    for j in range(n):
        out = out * (a + j)
    return out


def binomial_general_retired(a, k):
    return pochhammer_retired(Rat(a) - k + 1, k) / factorial(k)


class TestRationalText:
    def test_parse_plain_and_fraction(self):
        assert parse_rational("3/4") == Rat(3, 4)
        assert parse_rational("-7") == Rat(-7)
        assert parse_rational("-3/5") == Rat(-3, 5)
        assert parse_rational("0") == 0

    @pytest.mark.parametrize("bad", ["0.5", "1/0", "3/-4", "+3", "1e2", "", "1/2/3", "nan"])
    def test_rejects_non_rational_text(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_format_sign_on_numerator(self):
        assert format_rational(Rat(-3, 5)) == "-3/5"
        assert format_rational(Rat(8, 4)) == "2"
        assert format_rational(Rat(0)) == "0"

    def test_format_beyond_the_int_string_limit(self):
        # 5,001 and 4,401 digits, past the 4,300 that str() of an int allows
        # by default; parsing keeps that limit
        text = format_rational(Rat(-(10**5000), 3 * 10**4400 + 1))
        assert text == "-1" + "0" * 5000 + "/3" + "0" * 4399 + "1"
        with pytest.raises(ValueError):
            parse_rational(text)

    @given(rationals)
    def test_round_trip(self, r):
        assert parse_rational(format_rational(r)) == r


class TestCombinatorics:
    def test_pochhammer_values(self):
        assert pochhammer(Rat(1, 2), 3) == Rat(15, 8)
        assert pochhammer(3, 0) == 1
        assert pochhammer(-2, 3) == 0

    @given(rationals, st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=60)
    def test_pochhammer_splits(self, a, m, n):
        assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)

    def test_multinomial_values(self):
        assert multinomial(2, [0, 0]) == 1
        assert multinomial(2, [1, 0]) == 2
        assert multinomial(4, [2, 1]) == 12

    def test_multinomial_rejects_overfull(self):
        with pytest.raises(ValueError):
            multinomial(3, [2, 2])

    def test_binomial_general_matches_integers(self):
        for n in range(8):
            for k in range(n + 1):
                assert binomial_general(n, k) == math.comb(n, k)

    def test_binomial_general_rational_top(self):
        # C(1/2, 2) = (1/2)(-1/2)/2
        assert binomial_general(Rat(1, 2), 2) == Rat(-1, 8)


class TestClearedPochhammer:
    """pochhammer and binomial_general, one rational over a cleared integer
    product, against the retired factor-by-factor loop."""

    @given(st.one_of(rationals, wide_rationals), st.integers(0, 14))
    @settings(max_examples=200, deadline=None)
    def test_matches_retired_loop(self, a, n):
        got = pochhammer(a, n)
        assert isinstance(got, Rational)
        assert got == pochhammer_retired(a, n)

    @given(st.one_of(rationals, wide_rationals), st.integers(0, 14))
    @settings(max_examples=200, deadline=None)
    def test_binomial_general_matches_retired(self, a, k):
        got = binomial_general(a, k)
        assert isinstance(got, Rational)
        assert got == binomial_general_retired(a, k)

    def test_negative_integer_bases(self):
        # (-N)_n of the dual generating function, (-x)_j of the generating
        # function: zero once the product reaches 0, and signed before it
        for N in range(13):
            for n in range(N + 3):
                got = pochhammer(-N, n)
                assert isinstance(got, Rational)
                assert got == pochhammer_retired(-N, n)
                assert (got == 0) == (n > N)
                if n <= N:
                    assert got == (-1) ** n * math.perm(N, n)

    def test_zero_crossing(self):
        got = pochhammer(-2, 3)
        assert isinstance(got, Rational) and got == 0
        assert pochhammer(Rat(-2), 7) == 0
        assert pochhammer(Rat(-7, 3), 3) == Rat(-7 * -4 * -1, 27)

    @given(st.one_of(rationals, wide_rationals))
    def test_empty_product(self, a):
        for got in (pochhammer(a, 0), binomial_general(a, 0)):
            assert isinstance(got, Rational) and got == 1

    def test_large_denominators(self):
        a = Rat(10**18 + 7, 10**18 + 9)
        for n in range(12):
            assert pochhammer(a, n) == pochhammer_retired(a, n)
            assert pochhammer(-a, n) == pochhammer_retired(-a, n)

    def test_rising_is_the_cleared_product(self):
        for x in range(-6, 7):
            for n in range(8):
                assert rising(x, n) == math.prod(x + j for j in range(n))
                for q in (2, 3, 7):
                    assert Rat(rising(x, n, q), q**n) == pochhammer_retired(Rat(x, q), n)

    def test_nonzero(self):
        assert nonzero(-3, "a scale") == -3
        with pytest.raises(ArithmeticError, match="a scale vanishes"):
            nonzero(0, "a scale")


def plain_pfq(nums, dens, arg, top):
    total = Rat(0)
    for j in range(top + 1):
        term = Rat(arg) ** j / factorial(j)
        for a in nums:
            term *= pochhammer(a, j)
        for b in dens:
            term /= pochhammer(b, j)
        total += term
    return total


class TestTerminatingPfq:
    def test_three_two_unit_values(self):
        assert pfq_terminating([-2, 3, -2], [1, -2], 1) == 1
        assert pfq_terminating([-1, 2, -1], [1, -2], 1) == 0

    def test_zero_numerator_gives_one(self):
        assert pfq_terminating([0, 5], [Rat(7, 2)], Rat(3, 4)) == 1

    def test_rejects_non_terminating(self):
        with pytest.raises(ValueError):
            pfq_terminating([1, 2], [3], 1)
        with pytest.raises(ValueError):
            pfq_terminating([Rat(-1, 2)], [1], 1)

    def test_rejects_unpaired_vanishing_denominator(self):
        # truncation at 5 walks past the zero of (-3)_j with nothing to cancel it
        with pytest.raises(ZeroDivisionError):
            pfq_terminating([-5, 2], [-3], 1)

    def test_paired_denominator_cancels(self):
        # {}_2F_1(-2, 1; -5; 1): pairing (-2)_j/(-5)_j telescopes cleanly
        assert pfq_terminating([-2, 1], [-5], 1) == plain_pfq([-2, 1], [-5], 1, 2)

    def test_vandermonde(self):
        # Chu-Vandermonde: {}_2F_1(-n, b; c; 1) = (c-b)_n / (c)_n
        b, c = Rat(3, 2), Rat(7, 3)
        for n in range(7):
            lhs = pfq_terminating([-n, b], [c], 1)
            assert lhs == pochhammer(c - b, n) / pochhammer(c, n)

    @given(
        st.integers(0, 6),
        rationals,
        st.fractions(min_value=-4, max_value=4, max_denominator=4),
        st.integers(-3, 3),
    )
    @settings(max_examples=60)
    def test_matches_plain_sum_when_defined(self, n, a, b_frac, arg):
        b = Rat(b_frac.numerator, b_frac.denominator)
        # keep the plain denominator free of zeros inside the range
        if b.denominator == 1 and -int(b.numerator) in range(0, n):
            b += Rat(1, 2)
        assert pfq_terminating([-n, a], [b], arg) == plain_pfq([-n, a], [b], arg, n)


class TestRadicalScalar:
    def test_zero_is_canonical(self):
        assert RadicalScalar(0, 5).coeff == 0
        assert RadicalScalar(0, 5).radicand == 0
        assert RadicalScalar(3, 0) == RadicalScalar(0, 7)
        assert RadicalScalar(0, 0) == 0

    def test_equality_is_sign_and_square(self):
        assert RadicalScalar(2, 3) == RadicalScalar(1, 12)
        assert RadicalScalar(1, 2) != RadicalScalar(-1, 2)
        assert RadicalScalar(Rat(1, 2), 8) == RadicalScalar(1, 2)

    def test_rejects_negative_radicand(self):
        with pytest.raises(ValueError):
            RadicalScalar(1, -1)

    @given(rationals, rationals, rationals, rationals)
    @settings(max_examples=60)
    def test_product_squares_multiply(self, c1, r1, c2, r2):
        x = RadicalScalar(c1, abs(r1))
        y = RadicalScalar(c2, abs(r2))
        assert (x * y).squared() == x.squared() * y.squared()

    def test_rational_scaling_and_float(self):
        v = RadicalScalar(Rat(1, 2), 2) * 3
        assert v == RadicalScalar(Rat(3, 2), 2)
        assert float(v) == pytest.approx(1.5 * math.sqrt(2.0))
        assert (-v).sign() == -1
        assert v.signed_square() == Rat(9, 2)


def support(poly: dict) -> dict:
    """The nonzero coefficients: a cancelled term stays as a key holding 0."""
    return {key: c for key, c in poly.items() if c != 0}


class TestBivariatePolynomials:
    """The simplex layer's sparse polynomials, here in (x, y), x^a y^b keyed
    a + 16 b: every exponent below stays under 16, so no key carries."""

    X = {1: 1}
    Y = {16: 1}
    ONE = {0: 1}

    @staticmethod
    def key(a, b):
        return a + 16 * b

    def test_coefficient_extraction_is_total(self):
        p = sparse_mul({self.key(1, 2): Rat(5, 3)}, self.ONE)
        assert p.get(self.key(1, 2), 0) == Rat(5, 3)
        assert p.get(self.key(0, 0), 0) == 0
        assert p.get(self.key(9, 9), 0) == 0

    def test_algebra(self):
        x, y, one, key = self.X, self.Y, self.ONE, self.key
        p = sparse_mul(sparse_sum([1, 1], [x, y]), sparse_sum([1, -1], [x, y]))
        assert support(p) == {key(2, 0): 1, key(0, 2): -1}
        p = sparse_mul(sparse_sum([1, 1], [x, one]), sparse_sum([1, -1], [x, one]))
        assert support(p) == {key(2, 0): 1, key(0, 0): -1}

    @pytest.mark.parametrize("N", range(13))
    def test_trinomial_coefficients(self, N):
        base = sparse_sum([1, 1, 1], [self.ONE, self.X, self.Y])
        p = self.ONE
        for _ in range(N):
            p = sparse_mul(p, base)
        for a in range(N + 1):
            for b in range(N + 1 - a):
                assert p.get(self.key(a, b), 0) == multinomial(N, [a, b])
        assert p.get(self.key(N + 1, 0), 0) == 0

    def test_zero_detection(self):
        x = self.X
        assert not any(sparse_sum([1, -1], [x, x]).values())
        assert any(x.values())
        # a zero coefficient adds no key
        assert sparse_sum([0, 2], [x, self.Y]) == {16: 2}

    def test_int_inputs_give_int_outputs(self):
        p = sparse_mul(sparse_sum([2, -3], [self.X, self.ONE]), {self.key(0, 1): 5, self.key(2, 0): -1})
        assert p and all(type(c) is int for c in p.values())


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-4, 4), min_size=c, max_size=c), min_size=r, max_size=r
        )
    )
)


def product(m, vec):
    """m times the column vector vec, exactly."""
    return tuple(sum((a * v for a, v in zip(row, vec)), Rat(0)) for row in m.data)


class TestRationalMatrix:
    def test_identity_has_trivial_kernel(self):
        assert RationalMatrix.identity(3).nullspace() == []

    def test_zero_matrix_kernel_is_unit_vectors(self):
        basis = RationalMatrix([[0, 0], [0, 0]]).nullspace()
        assert basis == [(Rat(1), Rat(0)), (Rat(0), Rat(1))]

    def test_rank_one_kernel(self):
        basis = RationalMatrix([[1, -1], [0, 0]]).nullspace()
        assert basis == [(Rat(1), Rat(1))]

    def test_kernel_with_rational_entries(self):
        m = RationalMatrix([[Rat(1, 2), Rat(1, 3)], [Rat(3, 2), Rat(1, 1)]])
        for v in m.nullspace():
            assert product(m, v) == (Rat(0), Rat(0))

    @given(small_matrices)
    @settings(max_examples=80)
    def test_kernel_vectors_annihilate(self, rows):
        m = RationalMatrix(rows)
        basis = m.nullspace()
        for v in basis:
            assert all(x == 0 for x in product(m, v))
            lead = next((x for x in v if x != 0), None)
            assert lead == 1
        # rank-nullity: kernel dimension is cols - rank
        rank = m.cols - len(basis)
        assert 0 <= rank <= min(m.rows, m.cols)

    def test_matmul(self):
        a = RationalMatrix([[1, 2], [3, 4]])
        b = RationalMatrix([[0, 1], [1, 0]])
        assert a.matmul(b) == RationalMatrix([[2, 1], [4, 3]])

    def test_matmul_skips_zero_factors_exactly(self):
        a = RationalMatrix([[0, Rat(1, 2), 0], [Rat(-3, 4), 0, 0]])
        b = RationalMatrix([[1, 0], [0, 0], [Rat(5, 7), 2]])
        assert a.matmul(b) == RationalMatrix([[0, 0], [Rat(-3, 4), 0]])
        assert all(isinstance(x, Rational) for row in a.matmul(b).data for x in row)

    def test_entry_types_compare_equal(self):
        from_ints = RationalMatrix([[1, -2], [0, 3]])
        from_text = RationalMatrix([["2/2", "-4/2"], ["0", "3/1"]])
        from_rats = RationalMatrix([[Rat(1), Rat(-2)], [Rat(0), Rat(6, 2)]])
        assert from_ints == from_text == from_rats
        assert RationalMatrix([["1/3", 2]]) == RationalMatrix([[Rat(1, 3), Rat(2)]])
        assert all(isinstance(x, Rational) for m in (from_ints, from_text) for row in m.data for x in row)

    def test_kept_rationals_leave_the_matrix_immutable(self):
        row = [Rat(1, 2), Rat(3)]
        m = RationalMatrix([row])
        row[0] = Rat(7)
        assert m.entry(0, 0) == Rat(1, 2)
        with pytest.raises(AttributeError):
            m.data = ((Rat(0),),)
        with pytest.raises(TypeError):
            m.data[0][0] = Rat(0)
