import json
import math
import os
import pathlib
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hahnkit.hahn_bi as bi_mod
from hahnkit.hahn_bi import (
    BI_CHECK_NAMES,
    BiParams,
    amplitude,
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
    pochhammer,
)
from hahnkit.simplex import ChainTable, eval_total, simplex_points, simplex_weight

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

    def test_amplitude_squares_exactly(self):
        p = BiParams(Rat(1, 2), Rat(7, 3), 1, 4)
        for g in simplex_points(4, 2):
            a = amplitude(g, p)
            assert a.squared() == weight2(g, p)
            assert float(a) > 0


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
            assert bi_mod._index(i, k, level) == g

    @pytest.mark.parametrize("triple", PARAM_TRIPLES)
    def test_float_rows_are_the_rounded_chain_over_the_root(self, triple):
        p = BiParams(*triple, 4)
        table = bi_mod._Values(*triple)
        for d in simplex_points(4, 2):
            root = math.sqrt(float(bigLambda(d, p)))
            want = tuple(float(p_reference(d, g, *triple, 4) * pochhammer(-4, sum(d))) / root for g in simplex_points(4, 2))
            assert table.qrow(*d, 4) == want


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

    def test_radical_mode_matches_float(self):
        p = BiParams(Rat(1, 2), Rat(7, 3), 1, 3)
        Of = overlap2(p, mode="float")
        Orad = overlap2(p, mode="radical")
        for rf, rr in zip(Of.entries, Orad.entries):
            for vf, vr in zip(rf, rr):
                assert vf == float(vr)

    def test_squared_mode_column_sums_exactly_one(self):
        p = BiParams(Rat(-1, 2), Rat(-1, 2), 3, 4)
        Osq = overlap2(p, mode="squared")
        side = Osq.side
        for c in range(side):
            assert sum(abs(Osq.entries[r][c]) for r in range(side)) == 1

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            overlap2(BiParams(0, 0, 0, 1), mode="decimal")

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

    def test_float_residuals_reported(self):
        rep = verify_bi("normalized-recurrence-float", BiParams(0, 0, 0, 3))
        for c in rep.checks:
            assert c.passed
            assert float(c.max_residual) < 1e-12


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


class TestLadderCoefficientConsistency:
    """The grouped nine-point coefficients are products of the four level
    transition amplitudes; the explicit displays must agree with them."""

    @staticmethod
    def _amps(at):
        from hahnkit.hahn_bi import _coef_alpha, _coef_beta, _coef_delta, _coef_gamma

        return tuple(
            lambda mm, nn, fn=fn: at.root(fn, mm, nn, False)
            for fn in (_coef_alpha, _coef_beta, _coef_gamma, _coef_delta)
        )

    @staticmethod
    def _explicit(at, fn, m, n):
        return at.limit(fn, m, n, False) if fn is bi_mod._coef_rec_e else at.root(fn, m, n, False)

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

        assert al(m, n) * be(m + 1, n) == pytest.approx(explicit(_coef_rec_a, m + 1, n), rel=1e-12)
        assert al(m - 1, n) * be(m, n) == pytest.approx(explicit(_coef_rec_a, m, n), rel=1e-12)
        assert al(m, n) * ga(m, n + 1) + be(m, n + 1) * de(m, n + 1) == pytest.approx(
            explicit(_coef_rec_b, m, n + 1), rel=1e-12
        )
        assert al(m, n - 1) * ga(m, n) + be(m, n) * de(m, n) == pytest.approx(
            explicit(_coef_rec_b, m, n), rel=1e-12
        )
        assert ga(m - 1, n + 2) * de(m, n + 1) == pytest.approx(
            explicit(_coef_rec_c, m, n + 2), rel=1e-12
        )
        assert ga(m, n) * de(m + 1, n - 1) == pytest.approx(
            explicit(_coef_rec_c, m + 1, n), rel=1e-12
        )
        assert al(m, n) * de(m + 1, n) + be(m + 1, n - 1) * ga(m, n) == pytest.approx(
            explicit(_coef_rec_d, m + 1, n), rel=1e-12
        )
        assert al(m - 1, n + 1) * de(m, n + 1) + be(m, n) * ga(m - 1, n + 1) == pytest.approx(
            explicit(_coef_rec_d, m, n + 1), rel=1e-12
        )
        assert al(m, n) ** 2 + be(m, n) ** 2 + ga(m, n) ** 2 + de(m, n + 1) ** 2 == pytest.approx(
            explicit(_coef_rec_e, m, n), rel=1e-12
        )


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
                assert "-float" in c.name or c.max_residual == "0", c.name


# ---------------------------------------------------------------------------
# the Q-plane coefficients on integer pairs against the retired Fraction route

# The float-plane benchmark triples, and the triple of large magnitude whose
# seven float sub-checks fail at N = 3 (the scale of the float residual, not
# the coefficients, is at fault there).
FLOAT_TRIPLES = [
    (Rat(-1, 2), Rat(1, 2), Rat(3)),
    (Rat(3), Rat(1, 2), Rat(-1, 2)),
    (Rat(0), Rat(1, 2), Rat(7, 3)),
]
LARGE_MAGNITUDE = (Rat(999983, 1000003), Rat(-1, 999983), Rat(123456789, 1000))
BIT_IDENTITY_TRIPLES = FLOAT_TRIPLES + [LARGE_DENOMINATORS] + DEGENERATE_TRIPLES + [LARGE_MAGNITUDE]
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


def _sq_retired(sign, squared):
    if squared < 0:
        raise ArithmeticError("negative squared coefficient; transcription error")
    return sign * math.sqrt(float(squared))


def per_degree_retired(name, p, m, n):
    """The per-degree float of a difference or lowering row, by the Fraction
    formula the integer pairs replaced."""
    a1, a2, a3, N = p.alpha1, p.alpha2, p.alpha3, p.N
    s, sig = a1 + a2, a1 + a2 + a3
    return {
        "normalized-difference-float[first]": lambda: float(m * (m + s + 1)),
        "normalized-difference-float[second]": lambda: float(-(m + n) * (m + n + sig + 2)),
        "normalized-lowering-float[raise-m]": lambda: _sq_retired(
            1, N * (a1 + 1) * (a2 + 1) * (N + sig + 3) * (m + 1) * (m + s + 2) / ((sig + 3) * (sig + 4))
        ),
        "normalized-lowering-float[raise-n]": lambda: _sq_retired(
            1, N * (N + sig + 3) * (a3 + 1) * (a3 + 2) * (n + 1) * (n + a3 + 2)
            * (n + 2 * m + s + 2) * (n + 2 * m + sig + 3) / ((sig + 3) * (sig + 4))
        ),
        "normalized-lowering-float[lower-m]": lambda: _sq_retired(
            1, m * (m + s + 1) * (sig + 3) * (sig + 4) / ((a1 + 1) * (a2 + 1) * (N + 1) * (N + sig + 4))
        ),
        "normalized-lowering-float[lower-n]": lambda: _sq_retired(
            1, n * (n + a3 + 1) * (n + 2 * m + s + 1) * (n + 2 * m + sig + 2) * (sig + 3) * (sig + 4)
            / ((a3 + 1) * (a3 + 2) * (N + 1) * (N + sig + 4))
        ),
    }[name]()


def same_float(got, want) -> bool:
    """Bit for bit: the sign of a zero counts."""
    return got.hex() == want.hex()


class TestQPlaneBitIdentity:
    """Every Q-plane per-degree float, made from integer pairs by one int
    true division, is the float of the Fraction formula it replaced."""

    N = 3

    @pytest.mark.parametrize("triple", BIT_IDENTITY_TRIPLES)
    def test_roots_and_limits(self, triple):
        p = BiParams(*triple, self.N)
        at = bi_mod._Check(p).at(0)
        for m, n in simplex_points(self.N + 2, 2):
            for swap in (False, True):
                for name in FLOAT_FORMULAS:
                    fn = getattr(bi_mod, name)
                    if name in ROOT_FORMULAS:
                        got = outcome(at.root, fn, m, n, swap)
                        want = outcome(lambda: _sq_retired(*_signed_square_retired(*leads_reference(fn, m, n, p, swap))))
                    else:
                        got = outcome(at.limit, fn, m, n, swap)
                        want = outcome(lambda: float(_limit_retired(*leads_reference(fn, m, n, p, swap))))
                    assert type(got) is type(want), (name, m, n, swap)
                    assert got == want if isinstance(got, str) else same_float(got, want), (name, m, n, swap)

    @pytest.mark.parametrize("triple", BIT_IDENTITY_TRIPLES)
    def test_difference_and_lowering_parts(self, triple):
        for N in (self.N, 8):
            p = BiParams(*triple, N)
            at = bi_mod._Check(p).at(0)
            for name, row in bi_mod._RELATIONS.items():
                if name.startswith(("normalized-difference", "normalized-lowering")):
                    for m, n in simplex_points(N + row.degrees, 2):
                        assert same_float(row.per_degree(at, m, n), per_degree_retired(name, p, m, n)), (name, m, n)

    @pytest.mark.parametrize("triple", BIT_IDENTITY_TRIPLES)
    def test_prefactor(self, triple):
        for N in range(5):
            p = BiParams(*triple, N)
            at = bi_mod._Check(p).at(0)
            for second in (False, True):
                a = p.alpha2 if second else p.alpha1
                want = math.sqrt(float(N * (a + 1) / (p.a123 + 3))) if N else 0.0
                assert same_float(bi_mod._prefactor(at, second), want), (N, second)

    @pytest.mark.parametrize("triple", BIT_IDENTITY_TRIPLES)
    def test_q_rows(self, triple):
        """Lambda from _lambda_core's integers, as bigLambda made it."""
        table = bi_mod._Values(*triple)
        chains = ChainTable(triple)
        for level in (self.N, self.N + 1):
            p = BiParams(*triple, level)
            for m, n in simplex_points(level, 2):
                root = math.sqrt(float(bigLambda((m, n), p)))
                want = [v / chains.den((m, n)) / root for v in chains.row((m, n), level)]
                assert [v.hex() for v in table.qrow(m, n, level)] == [v.hex() for v in want], (level, m, n)

    def test_large_magnitude_reports_pinned(self):
        """The seven float sub-checks that fail on the large-magnitude
        triple keep their reports: the residual scale, not the coefficients,
        makes them fail."""
        p = BiParams(*LARGE_MAGNITUDE, self.N)
        failures = {
            c.name: (c.max_residual, c.counterexample)
            for name in BI_CHECK_NAMES if name.startswith("normalized-")
            for c in verify_bi(name, p).checks if not c.passed
        }
        assert failures == {
            "normalized-structure-float[backward-i]": (
                "1.8626451457615101e-09",
                {"indices": {"degree": (2, 0), "point": (0, 3)}, "lhs": "0", "rhs": "-1.862645149230957e-09"},
            ),
            "normalized-structure-float[backward-k]": (
                "1.0192806588362883e-09",
                {"indices": {"degree": (1, 1), "point": (3, 0)}, "lhs": "0", "rhs": "1.0192806598752213e-09"},
            ),
            "normalized-recurrence-float[i]": (
                "1.8626451457615101e-09",
                {"indices": {"degree": (1, 2), "point": (0, 3)}, "lhs": "-0", "rhs": "1.862645149230957e-09"},
            ),
            "normalized-recurrence-float[k]": (
                "1.8626451457615101e-09",
                {"indices": {"degree": (2, 1), "point": (3, 0)}, "lhs": "0", "rhs": "-1.862645149230957e-09"},
            ),
            "normalized-difference-float[first]": (
                "7.4505805414126769e-09",
                {"indices": {"degree": (0, 3), "point": (1, 2)}, "lhs": "0", "rhs": "-7.4505805969238281e-09"},
            ),
            "normalized-difference-float[second]": (
                "9.3132257374811678e-10",
                {"indices": {"degree": (3, 0), "point": (2, 0)}, "lhs": "-0", "rhs": "9.3132257461547852e-10"},
            ),
            "normalized-lowering-float[lower-n]": (
                "1.8626451457615101e-09",
                {"indices": {"degree": (3, 0), "point": (1, 1)}, "lhs": "0", "rhs": "1.862645149230957e-09"},
            ),
        }


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
        assert at.root(_alpha_with_extra_summand, 0, 1, False) > 0
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
    p_reference (or q2_eval on the float plane), with None for a target off
    the simplex."""
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
                        value = float(q2_eval(degree, point, BiParams(*triple, level)))
                    values.append(term.coef(d, x) * value)
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
        assert result.max_residual == "nonzero"
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
    that moves its side: nonzero on the P plane, at least 1e-2 on the Q plane."""
    for degree, _, _, rhs in reference_terms(row, p):
        v = rhs[j]
        if v is not None and (v != 0 if row.plane == "P" else abs(v) >= 1e-2):
            return degree
    raise AssertionError(f"{row.name}: rhs term {j} is never live")


def tamper_live_term(row, term, at_degree, N):
    """The row with `term` perturbed wherever it is live at at_degree:
    Rat(1, 7) added to its coefficient on the P plane, its coefficient
    scaled by 1 + 1e-6 on the Q plane.

    A coefficient is a per-degree share times a per-point share, so on the P
    plane the 1/7 is one more term with term's target, of per-degree share
    1/7 at at_degree (0 elsewhere) and per-point share 1 where that target is
    on the simplex (0 elsewhere).  On the Q plane term's per-degree share is
    scaled at at_degree; where its target is off the simplex an honest
    coefficient is 0.0, which the scaling keeps."""
    one, zero = (1, 1), (0, 1)

    def wrap(t):
        def scale(d):
            (m, n), d_part = d
            value = 1 if t.scale is None else t.scale(d_part)
            if t is term and row.plane == "Q" and (m, n) == at_degree:
                return value * (1 + 1e-6)
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


@pytest.mark.parametrize("name", list(bi_mod._RELATIONS))
def test_every_row_reports_a_perturbed_term(monkeypatch, name):
    """Perturbing one live term of one row fails exactly that row's
    sub-check, at the first degree pair where the term is live."""
    p = BiParams(Rat(1, 2), Rat(-1, 2), Rat(3), 3)
    row = bi_mod._RELATIONS[name]
    at_degree = first_live_degree(row, 0, p)
    monkeypatch.setitem(bi_mod._RELATIONS, name, tamper_live_term(row, row.rhs[0], at_degree, p.N))
    failed = [c for c in verify_bi(check_of(name), p).checks if not c.passed]
    assert [c.name for c in failed] == [name]
    assert failed[0].counterexample["indices"]["degree"] == at_degree


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
        assert forward["max_residual"] == "nonzero"
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


EXACT_CHECKS = [name for name in BI_CHECK_NAMES if bi_mod._RELATION_CHECKS.get(name) == "P"]


def run_under_optimization(tmp_path, body):
    """The printed JSON of a script run under python -O with hahnkit on its path."""
    script = tmp_path / "script.py"
    script.write_text("import json\nimport hahnkit.hahn_bi as bi\nfrom hahnkit.numeric import Rat\n" + body)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-O", str(script)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@settings(max_examples=200, deadline=None)
@given(nb=st.integers(1, 4), data=st.data())
def test_slots_pack_and_decode(nb, data):
    """pack is sum_g v_g 2^(B g) for slots below 2^(B-1) in size, and first
    names the first slot where two packed sums differ with both values there,
    a difference of 2^(B-1) in the top bit of a slot included."""
    width = 8 * nb
    top = (1 << (width - 1)) - 1
    value = st.one_of(st.integers(-top, top), st.sampled_from([-top, top, 0, 1, -1]))
    lhs = data.draw(st.lists(value, min_size=1, max_size=9), label="lhs")
    rhs = data.draw(st.lists(value, min_size=len(lhs), max_size=len(lhs)), label="rhs")
    slots = bi_mod._Slots(nb, len(lhs))
    packed = [slots.pack(v) for v in (lhs, rhs)]
    assert packed == [sum(v << (width * g) for g, v in enumerate(side)) for side in (lhs, rhs)]
    first = next(((g, a, b) for g, (a, b) in enumerate(zip(lhs, rhs)) if a != b), None)
    assert slots.first(*packed) == first


def test_slots_differ_in_the_top_bit_of_a_slot():
    slots = bi_mod._Slots(1, 2)  # -127 + 128 and 1 + 128 first differ in bit 7
    assert slots.first(slots.pack([-127, 5]), slots.pack([1, 5])) == (0, -127, 1)


def test_undersized_slot_width_reported_under_optimization(tmp_path):
    """Packed sides compared in slots too narrow for their sums could agree
    where the grid points do not.  A slot width below the bound is a
    reported failure of every exact row, never a pass, also under python -O,
    where an assert would vanish."""
    checks = run_under_optimization(tmp_path, (
        "bi._slot_bytes = lambda bits: max(bits // 8 - 1, 1)\n"
        "p = bi.BiParams(Rat(1, 2), Rat(-1, 2), Rat(3), 2)\n"
        f"checks = [c for name in {EXACT_CHECKS!r} for c in bi.verify_bi(name, p).checks]\n"
        "print(json.dumps([c.to_dict() for c in checks]))\n"
    ))
    assert len(checks) == 12
    for c in checks:
        assert c["status"] == "fail" and c["max_residual"] == "inf", c["name"]
        assert "too narrow" in c["counterexample"]["lhs"], c["name"]


@pytest.mark.parametrize("name", ["recurrence-x1", "recurrence-x2"])
def test_single_entry_tamper_at_last_point_and_sample(monkeypatch, name):
    """One entry of one sample point's table is raised by 1: P_{0,0} at the
    last grid point, at the last sample point t = D_{0,0} of instance
    (0, 0).  The report names that grid point and t, with the sides
    reference_terms gives there plus the terms that read the entry."""
    N = 3
    p = BiParams(Rat(1, 2), Rat(-1, 2), Rat(3), N)
    row = bi_mod._RELATIONS[name]
    top = bi_mod._sweep_degrees(row, [(0, 0)], N)[0]
    triple = bi_mod._sweep_points(p, top)[top]
    last = list(simplex_points(N, 2))[-1]
    honest = bi_mod._Values.row

    def tampered(self, m, n, level):
        values = honest(self, m, n, level)
        if (self.a1, self.a2, self.a3) == triple and (m, n, level) == (0, 0, N):
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


def test_exact_pass_path_makes_no_rational(monkeypatch):
    """The exact rows pass with Rat refused: every coefficient part is an
    integer pair, and a rational is made only for a failure's report."""

    def refuse(*args):
        raise AssertionError("a rational on the pass path")

    p = BiParams(Rat(1, 2), Rat(-1, 3), Rat(7, 3), 3)  # q = 6
    monkeypatch.setattr(bi_mod, "Rat", refuse)
    for name in EXACT_CHECKS:
        report = verify_bi(name, p)
        assert report.passed and len(report.checks) >= 1, name


class _RefusesArithmetic:
    """A parameter that refuses every arithmetic operation."""

    def _refuse(self, *args):
        raise AssertionError("rational arithmetic on a Q-plane coefficient")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _refuse
    __truediv__ = __rtruediv__ = __neg__ = __float__ = _refuse


def test_q_plane_coefficients_make_no_rational(monkeypatch):
    """Every Q row's per-degree and per-point parts, and the Q values' roots
    of Lambda, are made with Rat refused and the point's rational
    parameters replaced by objects that refuse arithmetic: they read only
    the cleared triple (c.q, c.scaled)."""

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
            d = row.per_degree(at, m, n)
            assert all(type(v) is float for v in (d if isinstance(d, tuple) else (d,))), name
        for i, k in simplex_points(p.N + row.grid, 2):
            x = row.per_point(at, i, k)
            parts = () if x is None else x if isinstance(x, tuple) else (x,)  # None: no per-point parts
            assert all(type(v) in (int, float) for v in parts), name
    for m, n in simplex_points(p.N, 2):
        assert all(type(v) is float for v in table.qrow(m, n, p.N))
