import functools
import json
import math
import os
import pathlib
import subprocess
import sys
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hahnkit.hahn_bi as bi_mod
from hahnkit.hahn_bi import (
    BI_CHECK_NAMES,
    BiParams,
    bigLambda,
    h2_eval,
    lambda2,
    overlap2,
    p2_eval,
    q2_eval,
    verify_bi,
    weight2,
)
from hahnkit.numeric import (
    Rat,
    RadicalScalar,
    Rational,
    binomial_general,
    factorial,
    format_rational,
    multinomial,
    parse_rational,
    pochhammer,
)
from hahnkit.simplex import ChainTable, eval_total, simplex_points, simplex_positions, simplex_weight

PARAM_TRIPLES = [
    (Rat(0), Rat(0), Rat(0)),
    (Rat(1, 2), Rat(-1, 2), Rat(3)),
    (Rat(-1, 2), Rat(-1, 2), Rat(-1, 2)),
    (Rat(7, 3), Rat(1), Rat(1, 2)),
]


def p_reference(d, g, a1, a2, a3, level):
    """P by the route the integer table replaced: the chain of two
    eval_total values, divided by (-level)_{m+n}."""
    (m, n), (i, k) = d, g
    s = i + k
    chain = eval_total(m, i, a1, a2, s) * eval_total(n, s - m, 2 * m + a1 + a2 + 1, a3, level - m)
    return chain / pochhammer(-level, m + n)


def weight_via_binomials(g, p):
    """Independent route: ratio of generalized binomial coefficients."""
    i, k = g
    return (
        binomial_general(i + p.alpha1, i)
        * binomial_general(k + p.alpha2, k)
        * binomial_general(p.N - i - k + p.alpha3, p.N - i - k)
        / binomial_general(p.N + p.a123 + 2, p.N)
    )


def norm_verbatim(d, p):
    """Textbook norm with the raw Pochhammer ratios; fails at the removable
    points the shipped form is arranged to avoid."""
    m, n = d
    s, sig, N = p.a12, p.a123, p.N
    return (
        factorial(m)
        * factorial(n)
        * factorial(N - m - n)
        / factorial(N)
        * pochhammer(p.alpha1 + 1, m)
        * pochhammer(p.alpha2 + 1, m)
        * pochhammer(p.alpha3 + 1, n)
        * pochhammer(s + 1, 2 * m)
        / pochhammer(s + 1, m)
        * pochhammer(2 * m + s + 2, n)
        * pochhammer(2 * m + sig + 2, 2 * n)
        / pochhammer(2 * m + sig + 2, n)
        * pochhammer(m + n + sig + 3, N)
        / pochhammer(m + n + sig + 3, m + n)
        / pochhammer(sig + 3, N)
    )


def _poch_retired(a, n):
    out = Rat(1)
    for j in range(n):
        out = out * (a + j)
    return out


def weight2_retired(g, p):
    """The simplex weight as the Fraction product it was, one factor at a time."""
    i, k = g
    return (
        multinomial(p.N, [i, k])
        * _poch_retired(p.alpha1 + 1, i)
        * _poch_retired(p.alpha2 + 1, k)
        * _poch_retired(p.alpha3 + 1, p.N - i - k)
        / _poch_retired(p.a123 + 3, p.N)
    )


def lambda_core_retired(m, n, a1, a2, a3, N):
    """The cancellation-safe core of lambda2 and bigLambda as the Fraction
    product it was."""
    s = a1 + a2
    sig = s + a3
    return (
        _poch_retired(a1 + 1, m)
        * _poch_retired(a2 + 1, m)
        * _poch_retired(a3 + 1, n)
        * _poch_retired(m + s + 1, m)
        * _poch_retired(2 * m + s + 2, n)
        * _poch_retired(2 * m + n + sig + 2, n)
        * _poch_retired(2 * m + 2 * n + sig + 3, N - m - n)
        / _poch_retired(sig + 3, N)
    )


def lambda2_retired(d, p):
    m, n = d
    core = lambda_core_retired(m, n, p.alpha1, p.alpha2, p.alpha3, p.N)
    return factorial(m) * factorial(n) * factorial(p.N - m - n) / factorial(p.N) * core


def bigLambda_retired(d, p):
    m, n = d
    core = lambda_core_retired(m, n, p.alpha1, p.alpha2, p.alpha3, p.N)
    return factorial(p.N) * factorial(m) * factorial(n) / factorial(p.N - m - n) * core


def sweep_line(triple, top):
    """The sample triples (alpha1 + t, alpha2 + 3t, alpha3 + 5t), t = 0..top,
    at which the swept checks read their tables."""
    a1, a2, a3 = triple
    return [(a1 + t, a2 + 3 * t, a3 + 5 * t) for t in range(top + 1)]


class TestBiParams:
    def test_coerces_and_caches_sums(self):
        p = BiParams("1/2", 0, 3, 4)
        assert p.alpha1 == Rat(1, 2)
        assert p.a12 == Rat(1, 2)
        assert p.a123 == Rat(7, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BiParams(-1, 0, 0, 2)
        with pytest.raises(ValueError):
            BiParams(0, 0, 0, -1)
        with pytest.raises(ValueError):
            BiParams(0, 0, 0, Rat(5, 2))

    def test_echo_round_trips(self):
        assert BiParams(Rat(1, 2), 0, 3, 2).echo() == {
            "alpha1": "1/2",
            "alpha2": "0",
            "alpha3": "3",
            "N": 2,
        }


class TestOrderings:
    def test_grid_colex(self):
        assert list(simplex_points(2, 2)) == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)]

    def test_degrees_mirror_grid(self):
        assert list(simplex_points(3, 2)) == [
            (m, n) for (m, n) in ((0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (0, 3))
        ]

    @pytest.mark.parametrize("N", [0, 1, 5, 9])
    def test_counts(self, N):
        want = (N + 1) * (N + 2) // 2
        assert len(list(simplex_points(N, 2))) == want

    def test_off_simplex_rejected(self):
        p = BiParams(0, 0, 0, 2)
        with pytest.raises(ValueError):
            p2_eval((1, 2), (0, 0), p)
        with pytest.raises(ValueError):
            weight2((3, 0), p)
        with pytest.raises(ValueError):
            q2_eval((0, 0), (-1, 1), p)


class TestWeight:
    def test_uniform_at_unit_zero_params(self):
        p = BiParams(0, 0, 0, 1)
        assert [weight2(g, p) for g in simplex_points(1, 2)] == [Rat(1, 3)] * 3

    def test_point_mass_at_level_zero(self):
        assert weight2((0, 0), BiParams(2, 3, Rat(1, 2), 0)) == 1

    @pytest.mark.parametrize("triple", PARAM_TRIPLES)
    @pytest.mark.parametrize("N", [1, 4])
    def test_sums_to_one(self, triple, N):
        p = BiParams(*triple, N)
        assert sum(weight2(g, p) for g in simplex_points(N, 2)) == 1

    @pytest.mark.parametrize("triple", PARAM_TRIPLES)
    def test_matches_binomial_route(self, triple):
        p = BiParams(*triple, 5)
        for g in simplex_points(5, 2):
            assert weight2(g, p) == weight_via_binomials(g, p)


class TestEvaluation:
    def test_constant_member(self):
        p = BiParams(Rat(1, 2), 3, Rat(7, 3), 3)
        assert all(p2_eval((0, 0), g, p) == 1 for g in simplex_points(3, 2))

    def test_frozen_first_degree_values(self):
        p = BiParams(0, 0, 0, 1)
        assert [p2_eval((1, 0), g, p) for g in simplex_points(1, 2)] == [0, -1, 1]
        assert [p2_eval((0, 1), g, p) for g in simplex_points(1, 2)] == [2, -1, -1]

    def test_factorial_normalization_is_plain_rescale(self):
        p = BiParams(Rat(1, 2), 0, 2, 4)
        for d in simplex_points(4, 2):
            scale = factorial(d[0]) * factorial(d[1])
            for g in simplex_points(4, 2):
                assert h2_eval(d, g, p) * scale == p2_eval(d, g, p)

    def test_swap_symmetry(self):
        p = BiParams(Rat(1, 2), Rat(7, 3), 1, 4)
        q = BiParams(Rat(7, 3), Rat(1, 2), 1, 4)
        for m, n in simplex_points(4, 2):
            for i, k in simplex_points(4, 2):
                assert p2_eval((m, n), (i, k), p) == Rat(-1) ** m * p2_eval((m, n), (k, i), q)

    @pytest.mark.parametrize("d", [(1, 0), (0, 1), (1, 1), (2, 1), (0, 3)])
    def test_total_degree(self, d):
        # mixed forward differences: order m+n+1 all vanish, order m+n not all
        p = BiParams(Rat(1, 2), Rat(-1, 2), Rat(7, 3), 6)
        m, n = d
        vals = {g: p2_eval(d, g, p) for g in simplex_points(6, 2)}

        def diff(a, b):
            total = Rat(0)
            for r in range(a + 1):
                for s in range(b + 1):
                    c = (
                        Rat(-1) ** (a - r + b - s)
                        * factorial(a) // (factorial(r) * factorial(a - r))
                        * factorial(b) // (factorial(s) * factorial(b - s))
                    )
                    total += c * vals[(r, s)]
            return total

        order = m + n
        assert all(diff(a, order + 1 - a) == 0 for a in range(order + 2))
        assert any(diff(a, order - a) != 0 for a in range(order + 1))


# Parameters above -1 with small denominators, so that a triple's common
# denominator Q is often above 1.
PARAMS = st.builds(Rat, st.integers(-5, 12), st.sampled_from([1, 2, 3, 4, 6])).filter(lambda a: a > -1)


class TestIntegerTable:
    """The integer rows of _Values against the retired rational route."""

    @settings(max_examples=60, deadline=None)
    @given(
        triple=st.tuples(PARAMS, PARAMS, PARAMS),
        N=st.integers(1, 5),
        t=st.integers(0, 4),
        down=st.sampled_from([0, 1]),
        shift=st.sampled_from([(0, 0, 0), bi_mod._UP_M, bi_mod._UP_N]),
        data=st.data(),
    )
    def test_rows_match_the_chain_over_the_pochhammer(self, triple, N, t, down, shift, data):
        base = BiParams(*triple, N)
        point = bi_mod._sweep_points(base, t)[t]
        a1, a2, a3 = (a + s for a, s in zip(point, shift))
        level = N - down
        m = data.draw(st.integers(0, level), label="m")
        n = data.draw(st.integers(0, level - m), label="n")
        table = bi_mod._Values(a1, a2, a3)
        row, den = table.row(m, n, level), table.den(m, n, level)
        assert len(row) == (level + 1) * (level + 2) // 2
        for g, (i, k) in enumerate(simplex_points(level, 2)):
            want = p_reference((m, n), (i, k), a1, a2, a3, level)
            assert Rat(row[g], den) == want, ((m, n), (i, k))
            assert table.p(m, n, i, k, level) == want
            assert simplex_positions(level, 2)[i, k] == g

    @pytest.mark.parametrize("triple", PARAM_TRIPLES)
    def test_norm_makes_rows_the_chain_over_the_root(self, triple):
        """A row over norm's denominator times the square root of its
        radicand is the chain over sqrt(bigLambda), exactly."""
        p = BiParams(*triple, 4)
        table = bi_mod._Values(*triple)
        for d in simplex_points(4, 2):
            den, radicand = table.norm(*d, 4)
            for g, v in zip(simplex_points(4, 2), table.row(*d, 4)):
                want = RadicalScalar(p_reference(d, g, *triple, 4) * pochhammer(-4, sum(d)), 1 / bigLambda(d, p))
                assert RadicalScalar(Rat(v, den), Rat(*radicand)) == want, (d, g)


class TestNorms:
    def test_frozen_small_norms(self):
        p = BiParams(0, 0, 0, 1)
        assert lambda2((0, 0), p) == 1
        assert lambda2((1, 0), p) == Rat(2, 3)
        assert lambda2((0, 1), p) == 2

    def test_matches_verbatim_route_at_generic_params(self):
        p = BiParams(Rat(1, 2), Rat(7, 3), 1, 5)
        for d in simplex_points(5, 2):
            assert lambda2(d, p) == norm_verbatim(d, p)

    def test_survives_vanishing_pochhammer_base(self):
        # alpha1 + alpha2 + 1 = 0 breaks the raw ratio form
        p = BiParams(Rat(-1, 2), Rat(-1, 2), 2, 4)
        for d in simplex_points(4, 2):
            assert lambda2(d, p) > 0

    @pytest.mark.parametrize("triple", PARAM_TRIPLES)
    @pytest.mark.parametrize("N", [0, 1, 3, 5])
    def test_chain_norm_ratio(self, triple, N):
        p = BiParams(*triple, N)
        for m, n in simplex_points(N, 2):
            assert bigLambda((m, n), p) == lambda2((m, n), p) * pochhammer(-N, m + n) ** 2

    def test_direct_orthogonality_small(self):
        p = BiParams(Rat(1, 2), Rat(-1, 2), 3, 3)
        degs = list(simplex_points(3, 2))
        for a, d in enumerate(degs):
            for d2 in degs[a:]:
                acc = sum(
                    weight2(g, p) * p2_eval(d, g, p) * p2_eval(d2, g, p)
                    for g in simplex_points(3, 2)
                )
                assert acc == (lambda2(d, p) if d == d2 else 0)


class TestClearedNormalizations:
    """weight2, lambda2 and bigLambda, one rational of cleared integer
    products each, against the retired factor-by-factor Fraction products."""

    @given(
        st.tuples(*[st.fractions(min_value=-1, max_value=6, max_denominator=12).filter(lambda f: f > -1)] * 3),
        st.integers(0, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_match_retired_products(self, triple, N):
        p = BiParams(*(Rat(f.numerator, f.denominator) for f in triple), N)
        for g in simplex_points(N, 2):
            values = weight2(g, p), lambda2(g, p), bigLambda(g, p)
            assert all(isinstance(v, Rational) for v in values)
            assert values == (weight2_retired(g, p), lambda2_retired(g, p), bigLambda_retired(g, p))

    @pytest.mark.parametrize("triple", PARAM_TRIPLES)
    def test_sweep_line_triples(self, triple):
        for swept in sweep_line(triple, 8):
            for N in (0, 3, 6):
                p = BiParams(*swept, N)
                for g in simplex_points(N, 2):
                    assert weight2(g, p) == weight2_retired(g, p)
                    assert lambda2(g, p) == lambda2_retired(g, p)
                    assert bigLambda(g, p) == bigLambda_retired(g, p)
            for a in swept:
                for i in range(8):
                    got = binomial_general(a + i, i)
                    assert isinstance(got, Rational)
                    assert got == _poch_retired(a + 1, i) / factorial(i)

    def test_where_a_pochhammer_base_vanishes(self):
        # alpha1 + alpha2 + 1 = 0, where the textbook ratio (s+1)_{2m} / (s+1)_m
        # is 0/0; the collapsed (m+s+1)_m divides by nothing
        p = BiParams(Rat(-1, 2), Rat(-1, 2), Rat(-2, 3), 5)
        for d in simplex_points(5, 2):
            assert lambda2(d, p) == lambda2_retired(d, p) > 0
            assert bigLambda(d, p) == bigLambda_retired(d, p) > 0


class TestOrthonormal:
    def test_ground_state_is_one(self):
        p = BiParams(Rat(1, 2), 3, Rat(7, 3), 4)
        for g in simplex_points(4, 2):
            assert float(q2_eval((0, 0), g, p)) == 1.0

    def test_frozen_sign_anchor(self):
        value = q2_eval((1, 0), (0, 1), BiParams(0, 0, 0, 1))
        assert value.signed_square() == Rat(-3, 2)
        assert float(value) == pytest.approx(-math.sqrt(1.5), rel=1e-15)

    def test_square_recovers_chain_product(self):
        p = BiParams(Rat(1, 2), Rat(-1, 2), 1, 4)
        for d in simplex_points(4, 2):
            lam = bigLambda(d, p)
            pref = pochhammer(-4, d[0] + d[1])
            for g in simplex_points(4, 2):
                hh = p2_eval(d, g, p) * pref
                sq = q2_eval(d, g, p).signed_square()
                assert abs(sq) * lam == hh * hh
                assert (sq < 0) == (hh < 0)


# The criterion-06 triples and one of large magnitude.
OVERLAP_TRIPLES = [
    (Rat(0), Rat(0), Rat(0)),
    (Rat(1, 2), Rat(-1, 2), Rat(3)),
    (Rat(7, 3), Rat(1), Rat(1, 2)),
    (Rat(999983, 1000003), Rat(-1, 999983), Rat(123456789, 1000)),
]


def assert_residual_is_the_difference(report):
    """A failure's residual is lhs - rhs, both sides as p/q strings
    (CheckResult.mismatch), and not zero."""
    lhs, rhs = (parse_rational(report["counterexample"][key]) for key in ("lhs", "rhs"))
    assert lhs != rhs and report["max_residual"] == format_rational(lhs - rhs), report


def overlap_float_retired(p):
    """The float overlap by the route it replaced: two rationals and a
    RadicalScalar per entry, then float()."""
    chains = ChainTable((p.alpha1, p.alpha2, p.alpha3))
    cols = list(simplex_points(p.N, 2))
    values = [(chains.row(d, p.N), chains.den(d)) for d in cols]
    inv_lambda = [1 / bigLambda(d, p) for d in cols]
    weights, W = simplex_weight((p.alpha1, p.alpha2, p.alpha3), p.N)
    return [
        [float(RadicalScalar(Rat(row[g], den), Rat(omega, W) * inv)) for (row, den), inv in zip(values, inv_lambda)]
        for g, omega in enumerate(weights)
    ]


class TestOverlap:
    def test_level_zero_is_unit(self):
        O = overlap2(BiParams(1, 2, 3, 0))
        assert O.entries == ((1.0,),)

    def test_frozen_columns(self):
        O = overlap2(BiParams(0, 0, 0, 1))
        assert O.rows == ((0, 0), (1, 0), (0, 1))
        assert O.cols == ((0, 0), (1, 0), (0, 1))
        got = [[O.entries[r][c] for r in range(3)] for c in range(3)]
        r3, r2, r6 = math.sqrt(3), math.sqrt(2), math.sqrt(6)
        expect = [
            [1 / r3, 1 / r3, 1 / r3],
            [0.0, 1 / r2, -1 / r2],
            [-2 / r6, 1 / r6, 1 / r6],
        ]
        for gcol, ecol in zip(got, expect):
            assert gcol == pytest.approx(ecol, abs=1e-14)

    @pytest.mark.parametrize("triple", PARAM_TRIPLES)
    def test_float_unitarity(self, triple):
        numpy = pytest.importorskip("numpy")
        O = numpy.array(overlap2(BiParams(*triple, 4)).entries)
        eye = numpy.eye(O.shape[0])
        assert numpy.abs(O.T @ O - eye).max() < 1e-12
        assert numpy.abs(O @ O.T - eye).max() < 1e-12

    def test_float_entries_are_float_of_the_radical_entries(self):
        """Each float entry is float() of sqrt(w_g) Q_d(g), built exactly."""
        p = BiParams(Rat(1, 2), Rat(7, 3), 1, 3)
        O = overlap2(p, mode="float")
        for g, row in zip(O.rows, O.entries):
            for d, v in zip(O.cols, row):
                assert v == float(RadicalScalar.sqrt(weight2(g, p)) * q2_eval(d, g, p)), (g, d)

    def test_squared_mode_column_sums_exactly_one(self):
        p = BiParams(Rat(-1, 2), Rat(-1, 2), 3, 4)
        Osq = overlap2(p, mode="squared")
        side = Osq.side
        for c in range(side):
            assert sum(abs(Osq.entries[r][c]) for r in range(side)) == 1

    @pytest.mark.parametrize("mode", ["float", "squared"])
    def test_level_above_the_cap_is_refused_before_any_table(self, monkeypatch, mode):
        def no_tables(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(bi_mod, "gram_pieces", no_tables)
        cap = bi_mod.MAX_OVERLAP_LEVEL
        with pytest.raises(ValueError, match=f"^the overlap at level {cap + 1} is refused; the cap is {cap}$"):
            overlap2(BiParams(Rat(1, 2), Rat(-1, 2), 3, cap + 1), mode)
        with pytest.raises(AssertionError, match="a table was built"):
            overlap2(BiParams(Rat(1, 2), Rat(-1, 2), 3, cap), mode)

    @pytest.mark.parametrize("mode", ["decimal", "radical"])
    def test_unknown_mode(self, mode):
        with pytest.raises(ValueError):
            overlap2(BiParams(0, 0, 0, 1), mode=mode)

    @pytest.mark.parametrize("triple", OVERLAP_TRIPLES)
    def test_float_entries_are_the_rational_route(self, triple):
        """The float overlap, made by int true divisions, is float() of the
        radical entry of the retired rational route at every entry, the sign
        of a zero included (repr tells 0.0 from -0.0)."""
        for N in range(13):
            p = BiParams(*triple, N)
            got = [[repr(v) for v in row] for row in overlap2(p).entries]
            assert got == [[repr(v) for v in row] for row in overlap_float_retired(p)], N


class TestVerifyBi:
    @pytest.mark.parametrize("check", BI_CHECK_NAMES)
    def test_all_checks_pass_small(self, check):
        rep = verify_bi(check, BiParams(Rat(1, 2), Rat(-1, 2), 3, 3))
        assert rep.passed, [c.to_dict() for c in rep.checks if not c.passed]

    @pytest.mark.parametrize("check", BI_CHECK_NAMES)
    def test_level_zero_vacuous(self, check):
        assert verify_bi(check, BiParams(Rat(7, 3), Rat(1, 2), 1, 0)).passed

    def test_half_integer_corner(self):
        p = BiParams(Rat(-1, 2), Rat(-1, 2), Rat(-1, 2), 2)
        for check in BI_CHECK_NAMES:
            assert verify_bi(check, p).passed, check

    def test_unknown_identifier(self):
        with pytest.raises(ValueError):
            verify_bi("orthogonality-typo", BiParams(0, 0, 0, 1))

    def test_report_shape(self):
        rep = verify_bi("structure", BiParams(0, 0, 0, 2))
        names = [c.name for c in rep.checks]
        assert names == [
            "structure[raise-i]",
            "structure[raise-k]",
            "structure[lower-i]",
            "structure[lower-k]",
        ]
        d = rep.to_dict()
        assert d["suite"] == "bi"
        assert d["params"]["N"] == 2

    def test_normalized_residuals_are_exact(self):
        rep = verify_bi("normalized-recurrence-float", BiParams(0, 0, 0, 3))
        for c in rep.checks:
            assert c.passed
            assert c.max_residual == "0"


class TestOperatorHandValues:
    def test_first_operator_eigenvalues_level_one(self):
        # acting on P_{1,0} at unit level the first operator returns -2 P_{1,0}
        p = BiParams(0, 0, 0, 1)
        vals = {g: p2_eval((1, 0), g, p) for g in simplex_points(1, 2)}
        for (i, k), v in vals.items():
            y1 = i * (k + 1)
            y2 = k * (i + 1)
            acc = -(y1 + y2) * v
            if i:
                acc += y1 * vals[(i - 1, k + 1)]
            if k:
                acc += y2 * vals[(i + 1, k - 1)]
            assert acc == -2 * v

    def test_second_operator_spectrum_level_one(self):
        p = BiParams(0, 0, 0, 1)
        spectrum = sorted(
            -(m + n) * (m + n + p.a123 + 2) for (m, n) in simplex_points(1, 2)
        )
        assert spectrum == [-3, -3, 0]

    @pytest.mark.parametrize("triple", PARAM_TRIPLES)
    def test_eigenvalue_pairs_separate_degrees(self, triple):
        p = BiParams(*triple, 6)
        seen = set()
        for m, n in simplex_points(6, 2):
            pair = (-m * (m + p.a12 + 1), -(m + n) * (m + n + p.a123 + 2))
            assert pair not in seen
            seen.add(pair)


def surd(share) -> RadicalScalar:
    """The value sign sqrt(num / den) of a signed square (sign, (num, den))."""
    sign, (num, den) = share
    return RadicalScalar(sign, Rat(num, den))


def rational_sqrt(r):
    """The square root of a rational that is the square of one."""
    num, den = int(r.numerator), int(r.denominator)
    u, v = math.isqrt(num), math.isqrt(den)
    assert u * u == num and v * v == den, r
    return Rat(u, v)


def surd_sum(x, y) -> RadicalScalar:
    """x + y for two radical scalars of one square class, exactly."""
    if x == 0 or y == 0:
        return y if x == 0 else x
    return RadicalScalar(x.coeff * rational_sqrt(x.radicand / y.radicand) + y.coeff, y.radicand)


class TestLadderCoefficientConsistency:
    """The grouped nine-point coefficients are products of the four level
    transition amplitudes; the explicit displays must agree with them,
    exactly."""

    @staticmethod
    def _amps(at):
        from hahnkit.hahn_bi import _coef_alpha, _coef_beta, _coef_delta, _coef_gamma

        return tuple(
            lambda mm, nn, fn=fn: surd(at.root(fn, mm, nn, False))
            for fn in (_coef_alpha, _coef_beta, _coef_gamma, _coef_delta)
        )

    @staticmethod
    def _explicit(at, fn, m, n):
        return Rat(*at.limit(fn, m, n, False)) if fn is bi_mod._coef_rec_e else surd(at.root(fn, m, n, False))

    @pytest.mark.parametrize("mn", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
    def test_grouped_products_match_explicit(self, mn):
        from hahnkit.hahn_bi import (
            _coef_rec_a,
            _coef_rec_b,
            _coef_rec_c,
            _coef_rec_d,
            _coef_rec_e,
        )

        m, n = mn
        at = bi_mod._Check(BiParams(Rat(1, 2), Rat(3), Rat(7, 3), 6)).at(0)
        al, be, ga, de = self._amps(at)

        def explicit(fn, mm, nn):
            return self._explicit(at, fn, mm, nn)

        assert al(m, n) * be(m + 1, n) == explicit(_coef_rec_a, m + 1, n)
        assert al(m - 1, n) * be(m, n) == explicit(_coef_rec_a, m, n)
        assert surd_sum(al(m, n) * ga(m, n + 1), be(m, n + 1) * de(m, n + 1)) == explicit(_coef_rec_b, m, n + 1)
        assert surd_sum(al(m, n - 1) * ga(m, n), be(m, n) * de(m, n)) == explicit(_coef_rec_b, m, n)
        assert ga(m - 1, n + 2) * de(m, n + 1) == explicit(_coef_rec_c, m, n + 2)
        assert ga(m, n) * de(m + 1, n - 1) == explicit(_coef_rec_c, m + 1, n)
        assert surd_sum(al(m, n) * de(m + 1, n), be(m + 1, n - 1) * ga(m, n)) == explicit(_coef_rec_d, m + 1, n)
        assert surd_sum(al(m - 1, n + 1) * de(m, n + 1), be(m, n) * ga(m - 1, n + 1)) == explicit(
            _coef_rec_d, m, n + 1
        )
        squares = al(m, n).squared() + be(m, n).squared() + ga(m, n).squared() + de(m, n + 1).squared()
        assert squares == explicit(_coef_rec_e, m, n)


class TestDirectionalLimit:
    """The limit rules of the float coefficients, on hand-made factor lists
    at the base parameters 0, where the line is a1 = t, a2 = 3t, a3 = 5t."""

    @staticmethod
    def leads(fn):
        return bi_mod._Check(BiParams(0, 0, 0, 0)).at(0).leads(fn, 0, 0, False)

    def limit(self, value):
        pair = bi_mod._limit(*self.leads(lambda *args: (value(*args),)))
        assert all(type(v) is int for v in pair) and pair[1] > 0
        return Rat(*pair)

    def root(self, fn):
        sign, pair = bi_mod._signed_square(*self.leads(fn))
        assert all(type(v) is int for v in pair) and pair[1] > 0
        return sign, Rat(*pair)

    def test_removable_zero_over_zero(self):
        assert self.limit(lambda m, n, N, a1, a2, a3, q: (((2 * a1, q + a1), (a2,)),)) == Rat(2, 3)
        assert self.limit(lambda m, n, N, a1, a2, a3, q: (((a1, a2), (a3,)),)) == 0

    def test_summands_add(self):
        assert self.limit(lambda m, n, N, a1, a2, a3, q: (((a1,), (a3,)), ((q + a2,), (2,)))) == Rat(7, 10)

    def test_pole_raises(self):
        with pytest.raises(ArithmeticError, match="pole"):
            self.limit(lambda m, n, N, a1, a2, a3, q: (((1,), (a1,)), ((2,), ())))

    def test_identically_zero_numerator_drops_its_summand(self):
        assert self.limit(lambda m, n, N, a1, a2, a3, q: (((m, 1), (a1,)), ((3,), ()))) == 3

    def test_identically_zero_denominator_raises(self):
        with pytest.raises(ArithmeticError, match="vanishes identically"):
            self.limit(lambda m, n, N, a1, a2, a3, q: (((m,), (N,)),))

    def test_bracket_gives_sign_and_order(self):
        assert self.root(lambda m, n, N, a1, a2, a3, q: ((((2,), (a1, a1)),), (((a1,), ()),))) == (1, 2)

        def negative(m, n, N, a1, a2, a3, q):
            return (((2,), (a1, a1)),), (((-1, a2), ()), ((a1, a1), ()))

        assert self.root(negative) == (-1, 18)

    def test_cancelling_or_zero_bracket_raises(self):
        with pytest.raises(ArithmeticError, match="bracket"):
            self.root(lambda m, n, N, a1, a2, a3, q: ((((1,), ()),), (((a2,), ()), ((-3, a1), ()))))
        with pytest.raises(ArithmeticError, match="bracket"):
            self.root(lambda m, n, N, a1, a2, a3, q: ((((2,), ()),), (((m,), ()),)))

    def test_non_affine_factor_raises(self):
        with pytest.raises(ArithmeticError, match="not affine"):
            self.limit(lambda m, n, N, a1, a2, a3, q: (((q * q + a1 * a2,), ()),))


# Triples at which a cleared denominator vanishes at the base point:
# 2m + a12 = 0 at m = 0, and 2m + a12 + 1 = 0 at m = 0.
DEGENERATE_TRIPLES = [
    (Rat(1, 2), Rat(-1, 2), Rat(3)),
    (Rat(-1, 2), Rat(-1, 2), Rat(-1, 2)),
]


class TestSweepDegreeBound:
    """The two facts behind checking the cleared identities at D + 1 points."""

    def test_sample_points_lie_on_one_line(self):
        p = BiParams(Rat(1, 2), Rat(-1, 2), Rat(3), 2)
        base = (p.alpha1, p.alpha2, p.alpha3)
        for t, point in enumerate(bi_mod._sweep_points(p, 4)):
            assert point == tuple(a + slope * t for a, slope in zip(base, (1, 3, 5)))

    @pytest.mark.parametrize("triple", DEGENERATE_TRIPLES)
    @pytest.mark.parametrize("N", range(6))
    def test_p_has_degree_at_most_m_plus_n_along_the_line(self, triple, N):
        base = BiParams(*triple, N)
        for m, n in simplex_points(N, 2):
            order = m + n + 1
            line = [BiParams(*pt, N) for pt in bi_mod._sweep_points(base, order)]
            for g in simplex_points(N, 2):
                diff = sum(
                    (
                        (-1) ** (order - t) * math.comb(order, t) * p2_eval((m, n), g, q)
                        for t, q in enumerate(line)
                    ),
                    Rat(0),
                )
                assert diff == 0, ((m, n), g)

    @pytest.mark.parametrize("fn_name", ["_rec_coeffs_cleared", "_structure_raise_terms"])
    @pytest.mark.parametrize("triple", DEGENERATE_TRIPLES)
    @pytest.mark.parametrize("N", range(6))
    def test_stand_in_bounds_true_degree(self, fn_name, triple, N):
        """Every cleared coefficient and denominator, a polynomial in t along
        the line, has a vanishing finite difference of order one more than
        its stand-in degree."""
        fn = getattr(bi_mod, fn_name)
        x = bi_mod._Degree(1)
        for m, n in simplex_points(N, 2):
            bounds, bound_den = fn(m, n, N, x, x, x, 1)
            order = max(map(bi_mod._deg, bounds + (bound_den,))) + 1
            for swap in (False, True):
                line = []
                for a1, a2, a3 in bi_mod._sweep_points(BiParams(*triple, N), order):
                    values, den = fn(m, n, N, *((a2, a1, a3) if swap else (a1, a2, a3)), 1)
                    line.append(values + (den,))
                for j, bound in enumerate(bounds + (bound_den,)):
                    top = bi_mod._deg(bound) + 1
                    terms = ((-1) ** (top - t) * math.comb(top, t) * v[j] for t, v in enumerate(line[: top + 1]))
                    diff = sum(terms, Rat(0))
                    assert diff == 0, ((m, n), swap, j)


# ---------------------------------------------------------------------------
# the cleared coefficient formulas against the retired Fraction route

EXACT_FORMULAS = {
    "_rec_coeffs_cleared": bi_mod._REC_SIGNS["x2"],
    "_structure_raise_terms": bi_mod._STRUCT_RAISE_SIGNS["k"],
}
FLOAT_FORMULAS = (
    "_coef_alpha", "_coef_beta", "_coef_gamma", "_coef_delta",
    "_coef_rec_a", "_coef_rec_b", "_coef_rec_c", "_coef_rec_d", "_coef_rec_e",
)

# Rationals above -1 with denominators up to 10^6.
WIDE_PARAMS = st.builds(Rat, st.integers(-(10**6) + 1, 10**7), st.integers(1, 10**6)).filter(lambda a: a > -1)
LARGE_DENOMINATORS = (Rat(999983, 1000003), Rat(-1, 999983), Rat(1234567, 1000000))


def cleared_reference(fn, m, n, N, triple, signs):
    """An exact formula's signed coefficients, then its denominator, by the
    route the cleared one replaced: the formula at q = 1 in Fraction
    arithmetic on the rational triple."""
    coeffs, den = fn(m, n, N, *triple, 1)
    return tuple(sg * cf for sg, cf in zip(signs, coeffs)) + (den,)


def _product_retired(low, high):
    coef, order = Rat(1), 0
    for f0, f1 in zip(low, high):
        if f0:
            coef *= f0
        else:
            coef, order = coef * (f1 - f0), order + 1
    return coef, order


def leads_reference(fn, m, n, p, swap):
    """The lowest-order terms of a float formula along the sweep line, by the
    retired Fraction route: the formula at q = 1 on the rational triples at
    t = 0 and t = 1, factor products in Fraction."""
    x = bi_mod._Degree(1)
    line = [(b, a, c) if swap else (a, b, c) for a, b, c in bi_mod._sweep_points(p, 1)]
    out = []
    for probe, low, high in zip(fn(m, n, p.N, x, x, x, 1), *(fn(m, n, p.N, *pt, 1) for pt in line)):
        leads = []
        for summand, lo, hi in zip(probe, low, high):
            if any(bi_mod._deg(f) > 1 for factors in summand for f in factors):
                raise ArithmeticError("a coefficient factor is not affine along the sweep line")
            (num, up), (den, down) = _product_retired(lo[0], hi[0]), _product_retired(lo[1], hi[1])
            if not den:
                raise ArithmeticError("a denominator factor vanishes identically")
            if num:
                leads.append((num / den, up - down))
        out.append(leads)
    return out


def outcome(route, *args):
    """What route returns, or the message of the ArithmeticError it raises."""
    try:
        return route(*args)
    except ArithmeticError as err:
        return str(err)


def assert_cleared_match(p, t, m, n):
    """Both exact formulas at sample point t and every float formula along
    the line, in both parameter orders, against the Fraction route."""
    check = bi_mod._Check(p)
    at = check.at(t)
    for swap in (False, True):
        for name, signs in EXACT_FORMULAS.items():
            fn = getattr(bi_mod, name)
            got = at.cleared(fn, m, n, swap, signs)
            assert all(type(v) is int for pair in got for v in pair), (name, swap)
            got = tuple(Rat(*pair) for pair in got)
            assert got == cleared_reference(fn, m, n, p.N, at.triple(swap), signs), (name, swap)
        for name in FLOAT_FORMULAS:
            fn = getattr(bi_mod, name)
            got = outcome(check.at(0).leads, fn, m, n, swap)
            if not isinstance(got, str):
                triples = [lead for value in got for lead in value]
                assert all(type(v) is int for lead in triples for v in lead), (name, swap)
                assert all(den > 0 for _, den, _ in triples), (name, swap)
                got = [[(Rat(num, den), order) for num, den, order in value] for value in got]
            assert got == outcome(leads_reference, fn, m, n, p, swap), (name, swap)


class TestClearedFormulas:
    """The relation coefficients, run on integers cleared to the triple's
    denominator Q and divided by Q^k once, equal the Fraction route."""

    @settings(max_examples=80, deadline=None)
    @given(
        triple=st.tuples(*[st.one_of(PARAMS, WIDE_PARAMS)] * 3),
        N=st.integers(0, 6),
        t=st.integers(0, 3),
        data=st.data(),
    )
    def test_random_triples(self, triple, N, t, data):
        m = data.draw(st.integers(0, N + 2), label="m")
        n = data.draw(st.integers(0, N + 2 - m), label="n")
        assert_cleared_match(BiParams(*triple, N), t, m, n)

    @pytest.mark.parametrize(
        "triple",
        DEGENERATE_TRIPLES + [LARGE_DENOMINATORS] + sweep_line(PARAM_TRIPLES[3], 2)[1:],
    )
    @pytest.mark.parametrize("N", [0, 1, 3])
    def test_every_degree_pair(self, triple, N):
        """m = 0 and n = 0 included, and the degenerate triples where a
        cleared denominator vanishes at the base point."""
        for m, n in simplex_points(N + 2, 2):
            assert_cleared_match(BiParams(*triple, N), N % 2, m, n)

    def test_units_are_derived(self):
        """The powers of Q come from the _Homogeneous stand-in: the nine
        recurrence coefficients have degrees 6, 6, 6, 7, 7, 7, 8, 8, 8 and D
        degree 6; the structure terms 3, 4, 4, 3 over degree 2."""
        at = bi_mod._Check(BiParams(Rat(1, 2), Rat(1, 3), Rat(1, 5), 2)).at(0)
        degrees = [
            ([bi_mod._units(c) for c in coeffs], bi_mod._units(den))
            for coeffs, den in (at.stand_ins(getattr(bi_mod, name))[1] for name in EXACT_FORMULAS)
        ]
        assert degrees == [([6, 6, 6, 7, 7, 7, 8, 8, 8], 6), ([3, 4, 4, 3], 2)]

    def test_large_denominators_pass_the_suite(self):
        p = BiParams(*LARGE_DENOMINATORS, 3)
        for name in BI_CHECK_NAMES:
            for c in verify_bi(name, p).checks:
                assert c.passed, c.name
                assert c.max_residual == "0", c.name


# ---------------------------------------------------------------------------
# the Q-plane coefficients on integer pairs against the retired Fraction route

# The float-plane benchmark triples, and a triple of large magnitude, at
# which a float verdict on the normalized rows reported seven false failures
# at N = 3: its scale 1 + max(|lhs|, |rhs|) ignored the size of the terms
# that cancel.
FLOAT_TRIPLES = [
    (Rat(-1, 2), Rat(1, 2), Rat(3)),
    (Rat(3), Rat(1, 2), Rat(-1, 2)),
    (Rat(0), Rat(1, 2), Rat(7, 3)),
]
LARGE_MAGNITUDE = (Rat(999983, 1000003), Rat(-1, 999983), Rat(123456789, 1000))
Q_PLANE_TRIPLES = FLOAT_TRIPLES + [LARGE_DENOMINATORS] + DEGENERATE_TRIPLES + [LARGE_MAGNITUDE]
ROOT_FORMULAS = FLOAT_FORMULAS[:-1]


def _limit_retired(leads):
    if any(order < 0 for _, order in leads):
        raise ArithmeticError("pole at the evaluation point; identity is ill-formed here")
    return sum((c for c, order in leads if order == 0), Rat(0))


def _signed_square_retired(radicand, bracket):
    low = min((order for _, order in bracket), default=0)
    b = sum((c for c, order in bracket if order == low), Rat(0))
    if not b:
        raise ArithmeticError("the bracket vanishes at its lowest order; its sign is undecided")
    return (1 if b > 0 else -1), _limit_retired([(c * b * b, order + 2 * low) for c, order in radicand])


def _squared_retired(value):
    return (value > 0) - (value < 0), value * value


def per_degree_retired(name, p, m, n):
    """The per-degree signed square of a difference or lowering row, by the
    Fraction formula the integer pairs replaced."""
    a1, a2, a3, N = p.alpha1, p.alpha2, p.alpha3, p.N
    s, sig = a1 + a2, a1 + a2 + a3
    return {
        "normalized-difference-float[first]": lambda: _squared_retired(-m * (m + s + 1)),
        "normalized-difference-float[second]": lambda: _squared_retired(-(m + n) * (m + n + sig + 2)),
        "normalized-lowering-float[raise-m]": lambda: (
            1, N * (a1 + 1) * (a2 + 1) * (N + sig + 3) * (m + 1) * (m + s + 2) / ((sig + 3) * (sig + 4))
        ),
        "normalized-lowering-float[raise-n]": lambda: (
            1, N * (N + sig + 3) * (a3 + 1) * (a3 + 2) * (n + 1) * (n + a3 + 2)
            * (n + 2 * m + s + 2) * (n + 2 * m + sig + 3) / ((sig + 3) * (sig + 4))
        ),
        "normalized-lowering-float[lower-m]": lambda: (
            1, m * (m + s + 1) * (sig + 3) * (sig + 4) / ((a1 + 1) * (a2 + 1) * (N + 1) * (N + sig + 4))
        ),
        "normalized-lowering-float[lower-n]": lambda: (
            1, n * (n + a3 + 1) * (n + 2 * m + s + 1) * (n + 2 * m + sig + 2) * (sig + 3) * (sig + 4)
            / ((a3 + 1) * (a3 + 2) * (N + 1) * (N + sig + 4))
        ),
    }[name]()


def exact_square(share) -> tuple:
    """A signed square (sign, (num, den)) of ints, den > 0, as (sign, the
    rational square)."""
    sign, (num, den) = share
    assert type(sign) is int and type(num) is int and type(den) is int and den > 0
    return sign, Rat(num, den)


class TestQPlaneExactParts:
    """Every Q-plane per-degree share, a signed square of integer pairs, is
    the exact value of the Fraction formula it replaced."""

    N = 3

    @pytest.mark.parametrize("triple", Q_PLANE_TRIPLES)
    def test_roots_and_limits(self, triple):
        p = BiParams(*triple, self.N)
        at = bi_mod._Check(p).at(0)
        for m, n in simplex_points(self.N + 2, 2):
            for swap in (False, True):
                for name in FLOAT_FORMULAS:
                    fn = getattr(bi_mod, name)
                    if name in ROOT_FORMULAS:
                        got = outcome(lambda: exact_square(at.root(fn, m, n, swap)))
                        want = outcome(lambda: _signed_square_retired(*leads_reference(fn, m, n, p, swap)))
                    else:
                        got = outcome(lambda: exact_square((1, at.limit(fn, m, n, swap)))[1])
                        want = outcome(lambda: _limit_retired(*leads_reference(fn, m, n, p, swap)))
                    assert got == want, (name, m, n, swap)

    @pytest.mark.parametrize("triple", Q_PLANE_TRIPLES)
    def test_difference_and_lowering_parts(self, triple):
        for N in (self.N, 8):
            p = BiParams(*triple, N)
            at = bi_mod._Check(p).at(0)
            for name, row in bi_mod._RELATIONS.items():
                if name.startswith(("normalized-difference", "normalized-lowering")):
                    for m, n in simplex_points(N + row.degrees, 2):
                        got = exact_square(row.per_degree(at, m, n))
                        assert got == per_degree_retired(name, p, m, n), (name, m, n)

    @pytest.mark.parametrize("triple", Q_PLANE_TRIPLES)
    def test_prefactor(self, triple):
        """The last per-degree share of the normalized structure rows: the
        square of sqrt(N (a + 1) / (sig + 3)) forward, of its inverse
        backward."""
        for N in range(5):
            p = BiParams(*triple, N)
            at = bi_mod._Check(p).at(0)
            for var, a in (("i", p.alpha1), ("k", p.alpha2)):
                want = N * (a + 1) / (p.a123 + 3)
                for way, level, square in (("forward", N, want), ("backward", N - 1, 1 / want if N else None)):
                    row = bi_mod._RELATIONS[f"normalized-structure-float[{way}-{var}]"]
                    for m, n in simplex_points(level, 2):
                        assert exact_square(row.per_degree(at, m, n)[-1]) == (1, square), (N, way, var)

    @pytest.mark.parametrize("triple", Q_PLANE_TRIPLES)
    def test_norms(self, triple):
        """Lambda from chain_norm's integers, equal to the retired Fraction
        product, and the chain's denominator."""
        table = bi_mod._Values(*triple)
        chains = ChainTable(triple)
        for level in (self.N, self.N + 1):
            p = BiParams(*triple, level)
            for m, n in simplex_points(level, 2):
                den, (num, lam) = table.norm(m, n, level)
                assert all(type(v) is int for v in (den, num, lam)), (level, m, n)
                assert (den, Rat(num, lam)) == (chains.den((m, n)), 1 / bigLambda_retired((m, n), p)), (level, m, n)

    @pytest.mark.parametrize("N", range(5))
    def test_large_magnitude_triple_passes(self, N):
        """Every check passes on the large-magnitude triple, and every
        relation row, the normalized ones included, at residual "0"."""
        p = BiParams(*LARGE_MAGNITUDE, N)
        for name in BI_CHECK_NAMES:
            for c in verify_bi(name, p).checks:
                assert c.passed and c.max_residual == "0", (N, c.name, c.counterexample)


def _alpha_with_extra_summand(m, n, N, a1, a2, a3, q):
    """_coef_alpha with one more radicand summand once m > 0: its shape
    depends on its arguments, though not on the stand-ins (m = 0 or a
    stand-in there)."""
    (summand,), bracket = bi_mod._coef_alpha(m, n, N, a1, a2, a3, q)
    extra = (((m,), ()),) if isinstance(m, int) and m > 0 else ()
    return (summand,) + extra, bracket


def _alpha_not_affine(m, n, N, a1, a2, a3, q):
    """_coef_alpha with a numerator factor quadratic along the sweep line."""
    ((num, den),), bracket = bi_mod._coef_alpha(m, n, N, a1, a2, a3, q)
    return (((a1 * a2,) + num, den),), bracket


class TestFloatFormulaRefusals:
    """The affinity check and the powers of q are read once per formula and
    check; the shape check still runs on every call."""

    def at(self):
        return bi_mod._Check(BiParams(Rat(1, 2), Rat(1, 3), Rat(1, 5), 4)).at(0)

    def test_shape_change_refused_on_a_later_call(self):
        at = self.at()
        sign, square = exact_square(at.root(_alpha_with_extra_summand, 0, 1, False))
        assert sign == 1 and square > 0
        with pytest.raises(ArithmeticError, match="shape depends on its arguments"):
            at.root(_alpha_with_extra_summand, 1, 1, False)

    @pytest.mark.parametrize("first", [(2, 1), (0, 0)])
    def test_non_affine_refused_whatever_pair_comes_first(self, first):
        at = self.at()
        for m, n in (first, (1, 0), first):
            with pytest.raises(ArithmeticError, match="not affine"):
                at.root(_alpha_not_affine, m, n, False)


def _structure_raise_dropped_unit(m, n, N, a1, a2, a3, q):
    """_structure_raise_terms with one unit q dropped: m + s + 1 in its
    first coefficient, where m + s + q belongs."""
    s = a1 + a2
    sig = s + a3
    big = N + m + n + sig + 2 * q
    return (
        (m + s + 1) * (2 * m + n + sig + 2 * q) * (N - m - n),
        m * (m + a2) * (2 * m + n + s + q) * big,
        n * (n + a3) * (m + s + q) * big,
        m * (m + a2) * (N - m - n),
    ), (2 * m + s + q) * (2 * m + 2 * n + sig + 2 * q)


def _coef_alpha_dropped_unit(m, n, N, a1, a2, a3, q):
    """_coef_alpha with one unit q dropped: m + a1 + 1 where m + a1 + q belongs."""
    s = a1 + a2
    sig = s + a3
    return bi_mod._root(
        (m + a1 + 1, m + s + q, n + 2 * m + s + 2 * q, n + 2 * m + sig + 2 * q, N - m - n),
        (2 * m + s + q, 2 * m + s + 2 * q, 2 * n + 2 * m + sig + 2 * q, 2 * n + 2 * m + sig + 3 * q),
    )


class TestDroppedUnit:
    """A formula with a constant that lost its unit q is not homogeneous.
    The suite reports it, where it would otherwise pass or fail on
    coefficients that are off by powers of Q."""

    P = BiParams(Rat(1, 2), Rat(-1, 2), Rat(3), 3)  # Q = 2

    def test_exact_formula_fails_its_rows(self, monkeypatch):
        monkeypatch.setattr(bi_mod, "_structure_raise_terms", _structure_raise_dropped_unit)
        failed = [c for c in verify_bi("structure", self.P).checks if not c.passed]
        assert [c.name for c in failed] == ["structure[raise-i]", "structure[raise-k]"]
        for c in failed:
            assert c.max_residual == "inf" and "not homogeneous" in c.counterexample["lhs"]

    def test_float_formula_fails_its_rows(self, monkeypatch):
        monkeypatch.setattr(bi_mod, "_coef_alpha", _coef_alpha_dropped_unit)
        checks = verify_bi("normalized-structure-float", self.P).checks
        assert len(checks) == 4
        for c in checks:
            assert not c.passed and c.max_residual == "inf", c.name
            assert "not homogeneous" in c.counterexample["lhs"], c.name

    def test_the_fraction_route_differs_from_the_cleared_values(self):
        """Without the stand-in's refusal the differential tests would see
        it: at Q = 2 the cleared value differs from the Fraction route's."""
        p = self.P
        q, (A1, A2, A3) = 2, (1, -1, 6)
        honest = bi_mod._structure_raise_terms
        for fn in (honest, _structure_raise_dropped_unit):
            coeffs, _ = fn(0, 0, 2 * p.N, A1, A2, A3, q)
            reference, _ = fn(0, 0, p.N, p.alpha1, p.alpha2, p.alpha3, 1)
            assert (Rat(coeffs[0], q**3) == reference[0]) is (fn is honest)


def check_of(row_name):
    """The verify_bi check that runs a relation row."""
    return row_name.split("[")[0]


def term_target(term, m, n, i, k, N):
    """(degree pair, grid point, level) a term reads, and whether it is on the simplex."""
    level = N + term.level
    mm, nn = m + term.degree[0], n + term.degree[1]
    ii, kk = i + term.point[0], k + term.point[1]
    on = min(mm, nn, ii, kk) >= 0 and mm + nn <= level and ii + kk <= level
    return (mm, nn), (ii, kk), level, on


def reference_terms(row, p, t=0):
    """Each instance of row at sample point t, as ((m, n), (i, k), lhs, rhs),
    each side the list of its terms' contributions computed from
    p_reference (or q2_eval, exactly, on the Q plane), with None for a
    target off the simplex."""
    c = bi_mod._Check(p).at(t)
    for m, n in simplex_points(p.N + row.degrees, 2):
        d = row.per_degree(c, m, n)
        for i, k in simplex_points(p.N + row.grid, 2):
            x = row.per_point(c, i, k)
            sides = []
            for terms in (row.lhs, row.rhs):
                values = []
                for term in terms:
                    degree, point, level, on = term_target(term, m, n, i, k, p.N)
                    if not on:
                        values.append(None)
                        continue
                    triple = tuple(a + s for a, s in zip(c.triple(False), term.params))
                    if row.plane == "P":
                        value = p_reference(degree, point, *triple, level)
                    else:
                        value = q2_eval(degree, point, BiParams(*triple, level))
                    values.append(value * term.coef(d, x))
                sides.append(values)
            yield (m, n), (i, k), sides[0], sides[1]


def sides_at(row, p, t, degree, point):
    """The two sides of one instance of row at sample point t, as the
    strings an exact report gives them."""
    for d, g, lhs, rhs in reference_terms(row, p, t):
        if (d, g) == (degree, point):
            return tuple(format_rational(sum((v for v in side if v is not None), Rat(0))) for side in (lhs, rhs))
    raise AssertionError(f"no instance {degree} {point}")


def base_point_failure(row, p):
    """First instance at which an exact row fails at the base parameters,
    from p_reference values: (indices, lhs, rhs), or None.  Targets off the
    simplex are skipped.

    At the base point the infinitesimal ring's limits were these plain
    values, so this is the report the ring gave for an instance that fails
    there.
    """
    for degree, point, lhs, rhs in reference_terms(row, p):
        lhs, rhs = (sum((v for v in side if v is not None), Rat(0)) for side in (lhs, rhs))
        if lhs != rhs:
            return {"degree": degree, "point": point}, format_rational(lhs), format_rational(rhs)
    return None


# Swept rows: the slot of the target (0, 0), and of a target that is off the
# simplex at degree (0, 1), among the row's per-degree coefficients.
SWEPT_ROWS = {
    "recurrence-x1": (4, 2),
    "recurrence-x2": (4, 2),
    "structure[raise-i]": (0, 1),
    "structure[raise-k]": (0, 1),
}
TAMPERED_DEGREE = (0, 1)


def _second_variable(name):
    return name.endswith("x2") or name.endswith("k]")


def tampered_row(name, slot, extra):
    """The row with extra(first parameter) added to one per-degree
    coefficient at TAMPERED_DEGREE; the second-variable forms take alpha2
    as their first parameter.  A per-degree coefficient is an integer pair
    (numerator, denominator), so the rational extra is added as one."""
    row = bi_mod._RELATIONS[name]

    def per_degree(c, m, n):
        d = row.per_degree(c, m, n)
        if (m, n) != TAMPERED_DEGREE:
            return d
        first = c.a2 if _second_variable(name) else c.a1
        (num, den), add = d[slot], Rat(extra(first))
        up, down = int(add.numerator), int(add.denominator)
        return d[:slot] + ((num * down + up * den, den * down),) + d[slot + 1 :]

    return row._replace(per_degree=per_degree)


class TestSweepFaultInjection:
    """Tampered coefficients must fail the swept rows, and a base-point
    failure must keep the report the infinitesimal ring gave."""

    N = 3

    def run(self, monkeypatch, name, p, slot, extra):
        row = tampered_row(name, slot, extra)
        monkeypatch.setitem(bi_mod._RELATIONS, name, row)
        result = next(c for c in verify_bi(check_of(name), p).checks if c.name == name)
        assert not result.passed
        assert_residual_is_the_difference(result.to_dict())
        return result.counterexample, row

    @pytest.mark.parametrize("triple", DEGENERATE_TRIPLES)
    @pytest.mark.parametrize("name", SWEPT_ROWS)
    def test_tamper_vanishing_at_base_point_fails_at_positive_t(self, monkeypatch, name, triple):
        p = BiParams(*triple, self.N)
        first = p.alpha2 if _second_variable(name) else p.alpha1
        report, row = self.run(monkeypatch, name, p, SWEPT_ROWS[name][0], lambda a: 7 * (a - first))
        # a sweep of the base point alone would pass
        assert base_point_failure(row, p) is None
        indices = report["indices"]
        assert indices["degree"] == TAMPERED_DEGREE
        assert indices["t"] >= 1
        # the sides are those of the reference at that sample triple
        assert (report["lhs"], report["rhs"]) == sides_at(row, p, indices["t"], indices["degree"], indices["point"])
        assert report["lhs"] != report["rhs"]

    @pytest.mark.parametrize("triple", DEGENERATE_TRIPLES)
    @pytest.mark.parametrize("name", SWEPT_ROWS)
    def test_off_simplex_coefficient_tested_at_every_point(self, monkeypatch, name, triple):
        p = BiParams(*triple, self.N)
        first = p.alpha2 if _second_variable(name) else p.alpha1
        report, _ = self.run(monkeypatch, name, p, SWEPT_ROWS[name][1], lambda a: 7 * (a - first))
        indices = report["indices"]
        assert indices["degree"] == TAMPERED_DEGREE
        assert indices["t"] == 1
        assert "target" in indices
        assert report["lhs"] != "0" and report["rhs"] == "0"

    @pytest.mark.parametrize("triple", DEGENERATE_TRIPLES)
    @pytest.mark.parametrize("name", SWEPT_ROWS)
    def test_tamper_at_base_point_keeps_report(self, monkeypatch, name, triple):
        p = BiParams(*triple, self.N)
        report, row = self.run(monkeypatch, name, p, SWEPT_ROWS[name][0], lambda a: Rat(1, 7))
        expected = base_point_failure(row, p)
        assert expected is not None
        indices, lhs, rhs = expected
        assert indices["degree"] == TAMPERED_DEGREE
        assert report == {"indices": indices, "lhs": lhs, "rhs": rhs}


def first_live_degree(row, j, p):
    """The first degree pair at which rhs term j reads a value on the simplex
    that moves its side: one that is not 0."""
    for degree, _, _, rhs in reference_terms(row, p):
        v = rhs[j]
        if v is not None and v != 0:
            return degree
    raise AssertionError(f"{row.name}: rhs term {j} is never live")


def tamper_live_term(row, term, at_degree, N, square=None):
    """The row with `term` perturbed wherever it is live at at_degree:
    Rat(1, 7) added to its coefficient on the P plane; on the Q plane its
    per-degree share, a signed square, multiplied by the rational square
    (u, v), which multiplies the coefficient by sqrt(u / v).

    A coefficient is a per-degree share times a per-point share, so on the P
    plane the 1/7 is one more term with term's target, of per-degree share
    1/7 at at_degree (0 elsewhere) and per-point share 1 where that target is
    on the simplex (0 elsewhere).  On the Q plane term's per-degree share is
    scaled at at_degree; where its target is off the simplex an honest
    coefficient is 0, which the scaling keeps."""
    one, zero = (1, 1), (0, 1)

    def wrap(t):
        def scale(d):
            (m, n), d_part = d
            if t.scale is not None:
                value = t.scale(d_part)
            else:
                value = (1, one) if row.plane == "Q" else one
            if t is term and row.plane == "Q" and (m, n) == at_degree:
                sign, (num, den) = value
                return sign, (num * square[0], den * square[1])
            return value

        tampered_q = t is term and row.plane == "Q"
        return t._replace(
            scale=scale if t.scale is not None or tampered_q else None,
            factor=None if t.factor is None else lambda x: t.factor(x[1]),
        )

    def on_simplex(x):
        (i, k), _ = x
        return one if term_target(term, *at_degree, i, k, N)[3] else zero

    extra = () if row.plane == "Q" else (
        term._replace(scale=lambda d: (1, 7) if d[0] == at_degree else zero, factor=on_simplex, sign=1),
    )
    side = "lhs" if term in row.lhs else "rhs"
    lhs, rhs = tuple(map(wrap, row.lhs)), tuple(map(wrap, row.rhs))
    return row._replace(
        lhs=lhs + (extra if side == "lhs" else ()),
        rhs=rhs + (extra if side == "rhs" else ()),
        per_degree=lambda c, m, n: ((m, n), row.per_degree(c, m, n)),
        per_point=lambda c, i, k: ((i, k), row.per_point(c, i, k)),
    )


# Per plane, the tampers each row takes: on the Q plane a rational factor
# 7/5 (the square 49/25), which keeps the term's square class but not its
# value, and sqrt(2), which moves the term to a class of its own.
PLANE_TAMPERS = {"P": {"": None}, "Q": {"-rational": (49, 25), "-new-class": (2, 1)}}


@pytest.mark.parametrize("name, square", [
    pytest.param(name, square, id=name + label)
    for name, row in bi_mod._RELATIONS.items()
    for label, square in PLANE_TAMPERS[row.plane].items()
])
def test_every_row_reports_a_perturbed_term(monkeypatch, name, square):
    """Perturbing one live term of one row fails exactly that row's
    sub-check, at the first degree pair where the term is live."""
    p = BiParams(Rat(1, 2), Rat(-1, 2), Rat(3), 3)
    row = bi_mod._RELATIONS[name]
    at_degree = first_live_degree(row, 0, p)
    tampered = tamper_live_term(row, row.rhs[0], at_degree, p.N, square)
    monkeypatch.setitem(bi_mod._RELATIONS, name, tampered)
    failed = [c for c in verify_bi(check_of(name), p).checks if not c.passed]
    assert [c.name for c in failed] == [name]
    assert_residual_is_the_difference(failed[0].to_dict())
    report = failed[0].counterexample
    indices = report["indices"]
    assert indices["degree"] == at_degree
    assert ("radicand" in indices) is (row.plane == "Q")
    if square == (49, 25):
        # one square class: its sides, in units of sqrt(radicand), are the
        # exact sums of the reference terms
        instance = (at_degree, indices["point"])
        ((_, _, lhs, rhs),) = (inst for inst in reference_terms(tampered, p) if inst[:2] == instance)
        root = RadicalScalar.sqrt(parse_rational(indices["radicand"]))
        for key, values in (("lhs", lhs), ("rhs", rhs)):
            total = functools.reduce(surd_sum, (v for v in values if v is not None), RadicalScalar(0, 1))
            assert root * parse_rational(report[key]) == total, key


def test_a_term_added_in_a_new_class_fails_its_row(monkeypatch):
    """One more lhs term, sqrt(2) times the one there, leaves that term's
    square class balanced: only the new class sums to nonzero, and the
    report names it, with no rhs term in it."""
    p = BiParams(Rat(1, 2), Rat(-1, 2), Rat(3), 3)
    name = "normalized-lowering-float[raise-m]"
    row = bi_mod._RELATIONS[name]
    (term,) = row.lhs
    extra = term._replace(scale=lambda d: (d[0], (2 * d[1][0], d[1][1])))
    monkeypatch.setitem(bi_mod._RELATIONS, name, row._replace(lhs=(term, extra)))
    failed = [c for c in verify_bi(check_of(name), p).checks if not c.passed]
    assert [c.name for c in failed] == [name]
    report = failed[0].counterexample
    m, n = report["indices"]["degree"]
    (i, k) = report["indices"]["point"]
    sign, (num, den) = row.per_degree(bi_mod._Check(p).at(0), m, n)
    value = q2_eval((m + 1, n), (i, k), p)
    want = RadicalScalar(sign, Rat(2 * num, den)) * value
    assert report["rhs"] == "0" and report["lhs"] != "0"
    assert RadicalScalar(parse_rational(report["lhs"]), parse_rational(report["indices"]["radicand"])) == want


def test_float_obligation_reported_under_optimization(tmp_path):
    """A nonzero float coefficient on a target off the simplex is a reported
    failure, also under python -O, where an assert would vanish."""
    script = tmp_path / "tamper.py"
    script.write_text(
        "import json\n"
        "import hahnkit.hahn_bi as bi\n"
        "from hahnkit.numeric import Rat\n"
        "honest = bi._coef_delta\n"
        "def tampered(m, n, N, a1, a2, a3, q):\n"
        "    radicand, bracket = honest(m, n, N, a1, a2, a3, q)\n"
        "    return radicand + (((q - m, 2 * q - m, 3 * q - m), ()),), bracket  # 6 at m = 0, 0 at m = 1..3\n"
        "bi._coef_delta = tampered\n"
        "p = bi.BiParams(Rat(1, 2), Rat(-1, 2), Rat(3), 3)\n"
        "rep = bi.verify_bi('normalized-structure-float', p)\n"
        "print(json.dumps([c.to_dict() for c in rep.checks]))\n"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-O", str(script)]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    checks = {c["name"]: c for c in json.loads(done.stdout)}
    for var in ("i", "k"):
        forward = checks[f"normalized-structure-float[forward-{var}]"]
        assert forward["status"] == "fail"
        assert_residual_is_the_difference(forward)
        indices = forward["counterexample"]["indices"]
        assert indices["degree"] == [0, 0]
        assert indices["target"] == {"degree": [-1, 1], "point": [0, 0]}
        assert forward["counterexample"]["rhs"] == "0"
        assert checks[f"normalized-structure-float[backward-{var}]"]["status"] == "pass"


def test_non_affine_factor_reported_under_optimization(tmp_path):
    """A coefficient factor that is not affine along the sweep line makes
    the two-point limit unsound; it is a reported failure, also under
    python -O, where an assert would vanish."""
    script = tmp_path / "tamper.py"
    script.write_text(
        "import json\n"
        "import hahnkit.hahn_bi as bi\n"
        "from hahnkit.numeric import Rat\n"
        "honest = bi._coef_alpha\n"
        "def tampered(m, n, N, a1, a2, a3, q):\n"
        "    ((num, den),), bracket = honest(m, n, N, a1, a2, a3, q)\n"
        "    return (((a1 * a2, a1 * a2) + num, den),), bracket\n"
        "bi._coef_alpha = tampered\n"
        "p = bi.BiParams(Rat(1, 2), Rat(-1, 2), Rat(3), 3)\n"
        "rep = bi.verify_bi('normalized-structure-float', p)\n"
        "print(json.dumps([c.to_dict() for c in rep.checks]))\n"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-O", str(script)]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    checks = json.loads(done.stdout)
    assert len(checks) == 4
    for c in checks:
        assert c["status"] == "fail" and c["max_residual"] == "inf", c["name"]
        assert "not affine" in c["counterexample"]["lhs"]


def test_exact_obligation_report_shape(monkeypatch):
    """One report shape for a nonzero coefficient on an off-simplex target."""
    row = bi_mod._RELATIONS["diff-L2"]
    honest = row.per_point
    monkeypatch.setitem(
        bi_mod._RELATIONS,
        "diff-L2",
        row._replace(per_point=lambda c, i, k: honest(c, i, k)[:3] + ((1, 7),) + honest(c, i, k)[4:]),
    )
    (result,) = verify_bi("diff-L2", BiParams(Rat(1, 2), Rat(-1, 2), Rat(3), 2)).checks
    assert result.to_dict()["counterexample"] == {
        "indices": {"degree": (0, 0), "point": (0, 0), "target": {"degree": (0, 0), "point": (-1, 0)}},
        "lhs": "1/7",
        "rhs": "0",
    }


def test_zero_scale_reported_under_optimization(tmp_path):
    """A zero denominator under an integer comparison would make every
    cleared identity hold vacuously.  It is a reported failure with residual
    "inf", also under python -O, where an assert would vanish."""
    script = tmp_path / "zero_scale.py"
    script.write_text(
        "import json\n"
        "import hahnkit.hahn_bi as bi\n"
        "from hahnkit.numeric import Rat\n"
        "bi.ChainTable.den = lambda self, degs: 0\n"
        "p = bi.BiParams(Rat(1, 2), Rat(-1, 2), Rat(3), 2)\n"
        "checks = [c for name in ('orthogonality', 'symmetry', 'recurrence-x1', 'structure')\n"
        "          for c in bi.verify_bi(name, p).checks]\n"
        "print(json.dumps([c.to_dict() for c in checks]))\n"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-O", str(script)]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    checks = json.loads(done.stdout)
    assert len(checks) == 7
    for c in checks:
        assert c["status"] == "fail" and c["max_residual"] == "inf", c["name"]
        assert "vanishes" in c["counterexample"]["lhs"], c["name"]


# ---------------------------------------------------------------------------
# the sample-major exact runner


RELATION_CHECKS = [name for name in BI_CHECK_NAMES if name in bi_mod._RELATION_CHECKS]


@settings(max_examples=200, deadline=None)
@given(
    r=st.tuples(st.integers(1, 10**40), st.integers(1, 10**40)),
    w=st.tuples(st.integers(1, 10**12), st.integers(1, 10**12)),
    k=st.sampled_from([2, 3, 6, 7, 12, 18]),
)
def test_root_ratio_decides_square_classes(r, w, k):
    """Unreduced pairs: r w^2 and r share a class, with the reduced ratio w;
    r k w^2 for k not a square does not, nor does r / k."""
    (p, q), (u, v) = r, w
    ratio = Rat(u, v)
    assert bi_mod._root_ratio((p * u * u, q * v * v), (p, q)) == (ratio.numerator, ratio.denominator)
    assert bi_mod._root_ratio((k * p * u * u, q * v * v), (p, q)) is None
    assert bi_mod._root_ratio((p, k * q), (p, q)) is None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_read_materializes_the_row(data):
    """A read is X_g row[where_g] at every grid point g, with row[-1] read
    as 0 (a target off the simplex), the row itself for where None and a
    factor 1 for X None; entries and factors of any size stay exact."""
    entry = st.one_of(st.integers(-(10**6), 10**6), st.integers(-(2**300), 2**300))
    row = tuple(data.draw(st.lists(entry, min_size=1, max_size=9), label="row"))
    where = data.draw(st.none() | st.lists(st.integers(-1, len(row) - 1), min_size=1, max_size=9), label="where")
    count = len(row) if where is None else len(where)
    X = data.draw(st.none() | st.lists(entry, min_size=count, max_size=count), label="X")
    values = list(row) if where is None else [row[w] if w >= 0 else 0 for w in where]
    if X is not None:
        values = [x * v for x, v in zip(X, values)]
    assert list(bi_mod._read(row, where, X)) == values


@settings(max_examples=200, deadline=None)
@given(
    r=st.tuples(st.integers(1, 10**20), st.integers(1, 10**20)),
    w=st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)),
    a=st.integers(-(10**9), 10**9),
    den=st.integers(1, 10**9),
)
def test_join_rescales_into_square_classes(r, w, a, den):
    """A read whose radicand is r (u/v)^2 joins r's class as a u / (den v)
    with its side and key kept; a radicand 2 r, or r over a square class
    already present, opens a class of its own."""
    (p, q), (u, v) = r, w
    classes = []
    bi_mod._join(classes, (p, q), (0, 1, 1, (0, 0, 0)))
    bi_mod._join(classes, (p * u * u, q * v * v), (1, a, den, (2, 1, 0)))
    ratio = Rat(u, v)
    assert classes == [((p, q), [(0, 1, 1, (0, 0, 0)), (1, a * ratio.numerator, den * ratio.denominator, (2, 1, 0))])]
    bi_mod._join(classes, (2 * p, q), (0, a, den, (1, 0, 0)))
    assert [rep for rep, _ in classes] == [(p, q), (2 * p, q)]
    assert classes[1][1] == [(0, a, den, (1, 0, 0))]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cleared_shares_over_one_denominator(data):
    """A reader's shares X_g / e are its factor at each grid point, over the
    lcm e of the factor's denominators; with the first grid point whose
    share is not 0 and the first such whose target is off the simplex.  A
    reader with no factor has share 1 everywhere."""
    pairs = data.draw(st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 12)), min_size=1, max_size=9), label="pairs")
    xs = list(range(len(pairs)))  # grid point g's share is pairs[g]
    outside = sorted(data.draw(st.sets(st.integers(0, len(xs) - 1)), label="outside"))
    reader = bi_mod._Reader((0, 0, 0), 3, pairs.__getitem__, None, outside)
    X, e, first, first_outside = bi_mod._cleared_shares(reader, xs)
    assert e == math.lcm(*(den for _, den in pairs))
    assert [Rat(v, e) for v in X] == [Rat(num, den) for num, den in pairs]
    nonzero = [g for g, (num, _) in enumerate(pairs) if num]
    assert first == next(iter(nonzero), None)
    assert first_outside == next((g for g in nonzero if g in outside), None)
    plain = reader._replace(factor=None)
    assert bi_mod._cleared_shares(plain, xs) == (None, 1, 0, outside[0] if outside else None)


@pytest.mark.parametrize("triple", [(Rat(1, 2), Rat(-1, 2), Rat(3)), LARGE_MAGNITUDE], ids=["base", "large-magnitude"])
@pytest.mark.parametrize("name", ["recurrence-x1", "recurrence-x2"])
def test_single_entry_tamper_at_last_point_and_sample(monkeypatch, name, triple):
    """One entry of one sample point's table is raised by 1: P_{0,0} at the
    last grid point, at the last sample point t = D_{0,0} of instance
    (0, 0).  The report names that grid point and t, with the sides
    reference_terms gives there plus the terms that read the entry, also
    on the large-magnitude triple, whose table entries are huge."""
    N = 3
    p = BiParams(*triple, N)
    row = bi_mod._RELATIONS[name]
    top = bi_mod._sweep_degrees(row, [(0, 0)], N)[0]
    swept = bi_mod._sweep_points(p, top)[top]
    last = list(simplex_points(N, 2))[-1]
    honest = bi_mod._Values.row

    def tampered(self, m, n, level):
        values = honest(self, m, n, level)
        if (self.a1, self.a2, self.a3) == swept and (m, n, level) == (0, 0, N):
            return values[:-1] + (values[-1] + self.den(0, 0, N),)
        return values

    monkeypatch.setattr(bi_mod._Values, "row", tampered)
    (result,) = verify_bi(name, p).checks
    c = bi_mod._Check(p).at(top)
    d, x = row.per_degree(c, 0, 0), row.per_point(c, *last)
    (_, _, lhs, rhs), *_ = (inst for inst in reference_terms(row, p, top) if inst[:2] == ((0, 0), last))
    sides = []
    for terms, values in ((row.lhs, lhs), (row.rhs, rhs)):
        total = sum((v for v in values if v is not None), Rat(0))
        total += sum(t.coef(d, x) for t in terms if term_target(t, 0, 0, *last, N) == ((0, 0), last, N, True))
        sides.append(format_rational(total))
    assert sides[0] != sides[1]
    assert result.counterexample == {"indices": {"degree": (0, 0), "point": last, "t": top}, "lhs": sides[0], "rhs": sides[1]}


def test_one_sample_point_of_tables_alive(monkeypatch):
    """While the swept rows run, every _Values alive belongs to one sample
    point (alpha3 + 5t tells t; no row here moves alpha3), counted through
    weak references at each table made."""
    p = BiParams(Rat(1, 2), Rat(-1, 2), Rat(3), 3)
    alive, seen = [], []

    class Counted(bi_mod._Values):
        def __init__(self, a1, a2, a3):
            super().__init__(a1, a2, a3)
            alive.append(weakref.ref(self))
            seen.append({(ref().a3 - p.alpha3) / 5 for ref in alive if ref() is not None})

    monkeypatch.setattr(bi_mod, "_Values", Counted)
    for name in ("recurrence-x1", "structure"):
        assert verify_bi(name, p).passed
    assert max(map(len, seen)) == 1
    assert len(set().union(*seen)) > 5  # the sweep went past the base point


def test_tables_built_once_per_sample_point_and_shift(monkeypatch):
    """structure's four rows walk the sample points together, so each
    (sample point, parameter shift) table is built once: 21 tables at N = 5,
    where each row walking alone built 31 (the raising rows' base-triple
    tables once per row)."""
    p = BiParams(Rat(1, 2), Rat(-1, 2), Rat(3), 5)
    built = []

    class Counted(bi_mod._Values):
        def __init__(self, a1, a2, a3):
            super().__init__(a1, a2, a3)
            built.append((a1, a2, a3))

    monkeypatch.setattr(bi_mod, "_Values", Counted)
    assert verify_bi("structure", p).passed
    assert len(built) == len(set(built)) == 21


def test_no_up_m_table_alive_while_lower_n_runs(monkeypatch):
    """normalized-lowering-float's rows read the _UP_M table at raise-m and
    lower-m, and lower-n does not; after lower-m's pass no later pass reads
    it, so none is alive at any instance of lower-n (weak references)."""
    p = BiParams(Rat(1, 2), Rat(-1, 2), Rat(3), 3)
    up_m = tuple(a + s for a, s in zip((p.alpha1, p.alpha2, p.alpha3), bi_mod._UP_M))
    alive, seen = [], []

    class Counted(bi_mod._Values):
        def __init__(self, a1, a2, a3):
            super().__init__(a1, a2, a3)
            alive.append(weakref.ref(self))

    name = "normalized-lowering-float[lower-n]"
    row = bi_mod._RELATIONS[name]

    def per_degree(c, m, n):
        seen.append({(t.a1, t.a2, t.a3) for t in (ref() for ref in alive) if t is not None})
        return row.per_degree(c, m, n)

    monkeypatch.setattr(bi_mod, "_Values", Counted)
    monkeypatch.setitem(bi_mod._RELATIONS, name, row._replace(per_degree=per_degree))
    assert verify_bi("normalized-lowering-float", p).passed
    assert seen and all(up_m not in tables for tables in seen)
    assert any(tables for tables in seen)  # the tables lower-n reads are alive


@pytest.mark.parametrize("triple", [(Rat(1, 2), Rat(-1, 2), Rat(3)), (Rat(0), Rat(0), Rat(0))])
def test_each_row_made_once_per_pass(triple, monkeypatch):
    """The runner makes a table row once for all the reads of a pass: each
    relation row makes each (cleared triple, degree pair, level) at most
    once, so a single-row check makes each at most once, and a check of
    several rows at most once per row that reads its table: every read a
    pass makes of a row comes from one make of it."""
    p, made, passing = BiParams(*triple, 4), Counter(), []
    honest_row, honest_sample = ChainTable.row, bi_mod._sample

    def row(self, degs, level):
        q, cleared = self.cleared
        made[passing[-1], q, tuple(cleared), degs, level] += 1
        return honest_row(self, degs, level)

    def sample(relation, *args):
        passing.append(relation.name)
        return honest_sample(relation, *args)

    monkeypatch.setattr(ChainTable, "row", row)
    monkeypatch.setattr(bi_mod, "_sample", sample)
    names = {name.split("[")[0] for name in bi_mod._RELATIONS}
    for name in sorted(names):
        made.clear()
        assert verify_bi(name, p).passed, name
        assert made, name
        assert max(made.values()) == 1, (name, max(made, key=made.get))


def test_values_clear_their_triple_once(monkeypatch):
    """A table clears its triple once, in its chain table, and reads the
    cleared triple from there, equal to clearing it again."""
    import hahnkit.simplex as simplex_mod

    honest, calls = simplex_mod.cleared, []

    def counted(*values):
        calls.append(values)
        return honest(*values)

    triple = (Rat(1, 2), Rat(-1, 3), Rat(7, 3))
    monkeypatch.setattr(simplex_mod, "cleared", counted)
    monkeypatch.setattr(bi_mod, "cleared", counted)
    table = bi_mod._Values(*triple)
    assert calls == [triple]
    assert table.triple == honest(*triple)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the peak resident set (VmHWM) from /proc/self/status, which only Linux has")
@pytest.mark.parametrize("name", ["normalized-lowering-float", "structure", "genfun"])
def test_cap_peak_memory(name):
    """At the cap, MAX_BI_LEVEL, each of these three checks peaks below
    50 MB in a fresh process.  With each chain-table row made when a pass
    first reads it and dropped at once, at N = 30 on one fresh process per
    check: normalized-lowering-float about 27 MB, structure
    about 25 MB and genfun about 40 MB (its sparse generating-function
    polynomials, not rows); kept for the table's life, the rows took them
    to about 96, 62 and 54 MB."""
    script = (
        "import json\n"
        "import hahnkit.hahn_bi as bi\n"
        "from hahnkit.numeric import Rat\n"
        f"report = bi.verify_bi({name!r}, bi.BiParams(Rat(1, 2), Rat(-1, 2), Rat(3), bi.MAX_BI_LEVEL))\n"
        "hwm = next(int(line.split()[1]) for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
        "print(json.dumps([report.passed, hwm]))\n"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    passed, hwm_kb = json.loads(done.stdout)
    assert passed
    assert hwm_kb / 1024 < 50, f"{name} peaked at {hwm_kb / 1024:.1f} MB"


def sweep_degree_per_instance(row, m, n, N):
    """D_{m,n} by the per-instance stand-in run the row-wide reading
    replaced: the row's parts on the _Degree stand-in at (m, n)."""
    x = bi_mod._Degree(1)
    at = bi_mod._At(N, (x, x, x))
    d, point = row.per_degree(at, m, n), row.per_point(at, 0, 0)

    def degree(term):
        value = term.sign
        for share, part in ((term.scale, d), (term.factor, point)):
            if share is not None:
                value = value * share(part)[0]
        return bi_mod._deg(value)

    return max(degree(t) + max(m + t.degree[0] + n + t.degree[1], 0) for t in row.lhs + row.rhs)


@pytest.mark.parametrize("name", SWEPT_ROWS)
def test_sweep_degrees_equal_per_instance_run(name):
    row = bi_mod._RELATIONS[name]
    for N in range(13):
        degrees = list(simplex_points(N + row.degrees, 2))
        want = [sweep_degree_per_instance(row, m, n, N) for m, n in degrees]
        assert bi_mod._sweep_degrees(row, degrees, N) == want, N


def test_pass_path_makes_no_rational(monkeypatch):
    """The relation rows of both planes pass with Rat refused: every
    coefficient part is an integer pair or a signed square of one, and a
    rational is made only for a failure's report."""

    def refuse(*args):
        raise AssertionError("a rational on the pass path")

    p = BiParams(Rat(1, 2), Rat(-1, 3), Rat(7, 3), 3)  # q = 6
    monkeypatch.setattr(bi_mod, "Rat", refuse)
    for name in RELATION_CHECKS:
        report = verify_bi(name, p)
        assert report.passed and len(report.checks) >= 1, name


class _RefusesArithmetic:
    """A parameter that refuses every arithmetic operation."""

    def _refuse(self, *args):
        raise AssertionError("rational arithmetic on a Q-plane coefficient")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _refuse
    __truediv__ = __rtruediv__ = __neg__ = __float__ = _refuse


def shares(part) -> tuple:
    """The shares of a per-degree or per-point coefficient part: one share
    (an integer pair or signed square), a tuple of them, or None."""
    return () if part is None else (part,) if isinstance(part[0], int) else part


def test_q_plane_coefficients_make_no_rational(monkeypatch):
    """Every Q row's per-degree and per-point parts, and the norms under
    the Q values' roots, are made of ints with Rat refused and the point's
    rational parameters replaced by objects that refuse arithmetic: they
    read only the cleared triple (c.q, c.scaled)."""

    def refuse(*args):
        raise AssertionError("a rational on a Q-plane coefficient")

    triple = (Rat(1, 2), Rat(-1, 3), Rat(7, 3))  # q = 6
    p = BiParams(*triple, 4)
    at = bi_mod._Check(p).at(0)
    table = bi_mod._Values(*triple)
    monkeypatch.setattr(bi_mod, "Rat", refuse)
    at.a1 = at.a2 = at.a3 = _RefusesArithmetic()
    for name, row in bi_mod._RELATIONS.items():
        if row.plane != "Q":
            continue
        for m, n in simplex_points(p.N + row.degrees, 2):
            for sign, square in shares(row.per_degree(at, m, n)):
                assert type(sign) is int and all(type(v) is int for v in square), name
        for i, k in simplex_points(p.N + row.grid, 2):
            assert all(type(v) is int for pair in shares(row.per_point(at, i, k)) for v in pair), name
    for m, n in simplex_points(p.N, 2):
        den, square = table.norm(m, n, p.N)
        assert all(type(v) is int for v in (den, *square))


@pytest.mark.parametrize("degree", [(0, 0), (1, 2), (3, 1)])
def test_genfun_fails_at_the_tampered_degree_pair(monkeypatch, degree):
    """One chain-table entry of one degree pair raised by 1: genfun fails at
    that degree pair, the first whose grid expansion reads it, at the grid
    point of that entry, with both rational sides and lhs - rhs."""
    p = BiParams(Rat(1, 2), Rat(-1, 2), Rat(3), 4)
    honest = ChainTable.row

    def tampered(self, degs, level):
        nums = honest(self, degs, level)
        return nums[:2] + (nums[2] + 1,) + nums[3:] if tuple(degs) == degree else nums

    point = list(simplex_points(p.N, 2))[2]
    grid = ChainTable((p.alpha1, p.alpha2, p.alpha3))
    weight, den = multinomial(p.N, point), grid.den(degree)
    rhs = weight * Rat(grid.row(degree, p.N)[2] + 1, den)
    monkeypatch.setattr(ChainTable, "row", tampered)
    (check,) = verify_bi("genfun", p).checks
    report = json.loads(json.dumps(check.to_dict()))
    lhs = parse_rational(report["counterexample"]["lhs"])
    # the product side is untouched: the honest grid side, weight / den below rhs
    assert lhs == rhs - weight / den
    assert report == {
        "name": "genfun",
        "status": "fail",
        "max_residual": format_rational(lhs - rhs),
        "counterexample": {
            "indices": {"degree": list(degree), "point": list(point)},
            "lhs": format_rational(lhs),
            "rhs": format_rational(rhs),
        },
    }
