"""d-variable family: reductions to the d=1,2 modules pin the chain exactly."""
import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hahnkit.simplex as simplex_mod
from hahnkit.cli import main
from hahnkit.hahn_bi import BiParams, bigLambda, lambda2, p2_eval, verify_bi, weight2
from hahnkit.hahn_multi import (
    MAX_DIMENSION,
    MAX_GRAM_POINTS,
    MAX_LEVEL,
    MultiParams,
    mv_lambda,
    mv_p_eval,
    mv_weight,
    verify_mv,
    verify_mv_check,
)
from hahnkit.hahn_uni import UniParams, hahn_eval, hahn_norm, hahn_weight, verify_uni
from hahnkit.numeric import Rat, factorial, format_rational, parse_rational, pochhammer
from hahnkit.simplex import ChainTable, chain_norm, cleared, eval_total, simplex_points

LATTICE = [Rat(-1, 2), Rat(0), Rat(1, 2), Rat(3), Rat(7, 3)]
# The first d = 3 and d = 4 tuples of the orthogonality and generating-function checks.
D3 = (Rat(1, 2), Rat(0), Rat(3), Rat(7, 3))
D4 = (Rat(1, 3), Rat(1, 2), Rat(2), Rat(0), Rat(-1, 2))


def lattice_tuple(count, offset=0):
    return tuple(LATTICE[(offset + j) % len(LATTICE)] for j in range(count))


def chain_reference(degs, pts, p):
    """The chain by the route the integer table replaced: one rational
    eval_total value per factor."""
    isum = 0
    nsum = 0
    asum = Rat(0)
    out = Rat(1)
    for k in range(1, p.d + 1):
        isum += pts[k - 1]
        asum += p.alphas[k - 1]
        a_k = 2 * nsum + asum + (k - 1)
        level = (isum + pts[k] if k < p.d else p.N) - nsum
        out *= eval_total(degs[k - 1], isum - nsum, a_k, p.alphas[k], level)
        nsum += degs[k - 1]
    return out


class TestMultiParams:
    def test_coercion_and_echo(self):
        p = MultiParams((Rat(1, 2), 0, 3, Rat(7, 3)), 4)
        assert p.d == 3
        assert p.echo() == {"alphas": ["1/2", "0", "3", "7/3"], "N": 4, "d": 3}

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MultiParams((0,), 3)
        with pytest.raises(ValueError):
            MultiParams((0, -1), 3)
        with pytest.raises(ValueError):
            MultiParams((0, 0), -1)
        with pytest.raises(ValueError):
            MultiParams((0, 0), 2.0)

    def test_sweep_caps(self):
        MultiParams((0,) * (MAX_DIMENSION + 1), MAX_LEVEL)
        with pytest.raises(ValueError):
            MultiParams((0,) * (MAX_DIMENSION + 2), 2)
        with pytest.raises(ValueError):
            MultiParams((0, 0), MAX_LEVEL + 1)


class TestSimplex:
    def test_matches_bivariate_orderings(self):
        # at d = 2 grid points and degree pairs run colex: k major, i minor
        for N in range(7):
            assert list(simplex_points(N, 2)) == [(i, k) for k in range(N + 1) for i in range(N - k + 1)]

    def test_univariate_column(self):
        assert list(simplex_points(3, 1)) == [(0,), (1,), (2,), (3,)]

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_counts(self, d):
        for N in range(6):
            assert len(list(simplex_points(N, d))) == math.comb(N + d, d)

    def test_level_degeneracy(self):
        # level ell holds C(ell+d-1, d-1) degree tuples; totals telescope
        for d, N in [(2, 6), (3, 5), (4, 4)]:
            counts = {}
            for n in simplex_points(N, d):
                counts[sum(n)] = counts.get(sum(n), 0) + 1
            assert counts == {ell: math.comb(ell + d - 1, d - 1) for ell in range(N + 1)}
            assert sum(counts.values()) == math.comb(N + d, d)

    def test_off_simplex_rejection(self):
        p = MultiParams((0, 0, 0), 2)
        for bad in [(2, 1), (-1, 0), (0, 0, 0), (0,), (Rat(1, 2), 0)]:
            with pytest.raises(ValueError):
                mv_weight(bad, p)
            with pytest.raises(ValueError):
                mv_p_eval(bad, (0, 0), p)
            with pytest.raises(ValueError):
                mv_lambda(bad, p)


class TestWeight:
    def test_reduces_to_bivariate(self):
        for a1, a2, a3 in [(0, 0, 0), (Rat(1, 2), Rat(-1, 2), 3), (Rat(7, 3), 1, Rat(1, 2))]:
            for N in range(7):
                p3 = MultiParams((a1, a2, a3), N)
                p2 = BiParams(a1, a2, a3, N)
                for g in simplex_points(N, 2):
                    assert mv_weight(g, p3) == weight2(g, p2)

    def test_reduces_to_univariate(self):
        for a, b in [(0, 0), (Rat(1, 2), Rat(7, 3)), (Rat(-1, 2), 3)]:
            for N in range(9):
                p = MultiParams((a, b), N)
                u = UniParams(a, b, N)
                for x in range(N + 1):
                    assert mv_weight((x,), p) == hahn_weight(x, u)

    def test_sums_to_one_at_spec_point(self):
        p = MultiParams((Rat(1, 2), 0, 3, Rat(7, 3)), 4)
        assert sum(mv_weight(g, p) for g in simplex_points(4, 3)) == 1

    @pytest.mark.parametrize("d,N", [(1, 5), (2, 4), (3, 3), (4, 2), (5, 2), (6, 1)])
    def test_sums_to_one(self, d, N):
        p = MultiParams(lattice_tuple(d + 1, offset=d), N)
        total = sum(mv_weight(g, p) for g in simplex_points(N, d))
        assert total == 1

    def test_positive(self):
        p = MultiParams(lattice_tuple(4), 3)
        assert all(mv_weight(g, p) > 0 for g in simplex_points(3, 3))


class TestEvaluation:
    def test_zero_degrees_give_one(self):
        for d, N in [(1, 4), (3, 3), (5, 2)]:
            p = MultiParams(lattice_tuple(d + 1, offset=1), N)
            zero = (0,) * d
            assert all(mv_p_eval(zero, g, p) == 1 for g in simplex_points(N, d))

    def test_reduces_to_univariate(self):
        for a, b in [(0, 0), (Rat(1, 2), 3)]:
            for N in range(9):
                p = MultiParams((a, b), N)
                u = UniParams(a, b, N)
                for n in range(N + 1):
                    for x in range(N + 1):
                        assert mv_p_eval((n,), (x,), p) == hahn_eval(n, x, u)

    def test_reduces_to_bivariate_with_prefactor(self):
        # the two-variable module divides the chain by (-N)_{m+n}
        for a1, a2, a3 in [(0, 0, 0), (Rat(1, 2), Rat(-1, 2), Rat(7, 3))]:
            for N in range(6):
                p3 = MultiParams((a1, a2, a3), N)
                p2 = BiParams(a1, a2, a3, N)
                for d in simplex_points(N, 2):
                    pre = pochhammer(Rat(-N), d[0] + d[1])
                    for g in simplex_points(N, 2):
                        assert mv_p_eval(d, g, p3) == p2_eval(d, g, p2) * pre

    def test_hand_values_first_degree(self):
        # alpha = 0: the degree-(1,0,0) chain is h_1(i1; 0,0; i1+i2) = 2 i1 - (i1+i2)
        p = MultiParams((0, 0, 0, 0), 2)
        for g in simplex_points(2, 3):
            assert mv_p_eval((1, 0, 0), g, p) == g[0] - g[1]

    def test_gram_family_d3(self):
        p = MultiParams((Rat(1, 2), 0, 3, Rat(7, 3)), 2)
        idx = list(simplex_points(2, 3))
        assert len(idx) == 10
        w = {g: mv_weight(g, p) for g in idx}
        for na, nb in itertools.combinations(idx, 2):
            acc = sum(w[g] * mv_p_eval(na, g, p) * mv_p_eval(nb, g, p) for g in idx)
            assert acc == 0

    @pytest.mark.parametrize(
        "n", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (2, 0, 0), (0, 0, 3)]
    )
    def test_total_degree(self, n):
        # mixed forward differences: order |n|+1 all vanish, order |n| not all
        p = MultiParams((Rat(1, 2), Rat(-1, 2), Rat(7, 3), 0), 4)
        vals = {g: mv_p_eval(n, g, p) for g in simplex_points(4, 3)}

        def diff(orders):
            total = Rat(0)
            ranges = [range(o + 1) for o in orders]
            for pick in itertools.product(*ranges):
                c = Rat(1)
                for o, r in zip(orders, pick):
                    c *= Rat(-1) ** (o - r) * math.comb(o, r)
                total += c * vals[pick]
            return total

        order = sum(n)
        splits_above = [
            o for o in itertools.product(range(order + 2), repeat=3) if sum(o) == order + 1
        ]
        splits_at = [o for o in itertools.product(range(order + 1), repeat=3) if sum(o) == order]
        assert all(diff(o) == 0 for o in splits_above)
        assert any(diff(o) != 0 for o in splits_at)


class TestChainTable:
    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, MAX_DIMENSION),
        N=st.integers(0, 4),
        alphas=st.lists(st.sampled_from(LATTICE), min_size=MAX_DIMENSION + 1, max_size=MAX_DIMENSION + 1),
        data=st.data(),
    )
    def test_matches_chain_reference(self, d, N, alphas, data):
        p = MultiParams(tuple(alphas[: d + 1]), N)
        table = ChainTable(p.alphas)
        pts = table.points(N)
        assert pts == tuple(simplex_points(N, d))
        degs = data.draw(st.sampled_from(pts), label="degrees")
        den = table.den(degs)
        for g, num in zip(pts, table.row(degs, N)):
            assert Rat(num, den) == chain_reference(degs, g, p), (degs, g)

    @pytest.mark.parametrize("d", range(1, MAX_DIMENSION + 1))
    def test_num_equals_row_at_every_point(self, d):
        """The single-value path (num, its d point sums multiplied directly)
        and the row path (heads times factor lines) share only coefficient
        lists, and here not even those: each checks the other, at the level
        of the degree simplex and one below and above it."""
        N = max(2, 8 - d)
        for offset in (0, 2, 4):
            alphas = lattice_tuple(d + 1, offset)
            rows, values = ChainTable(alphas), ChainTable(alphas)
            for level in (N - 1, N, N + 1):
                for degs in simplex_points(N, d):
                    expected = tuple(values.num(degs, g, level) for g in simplex_points(level, d))
                    assert rows.row(degs, level) == expected, (alphas, degs, level)


class TestLambda:
    def test_zero_degrees_unit(self):
        for d, N in [(1, 5), (2, 4), (4, 2)]:
            p = MultiParams(lattice_tuple(d + 1, offset=2), N)
            assert mv_lambda((0,) * d, p) == 1

    def test_reduces_to_univariate_norm(self):
        for a, b in [(0, 0), (Rat(1, 2), Rat(7, 3))]:
            for N in range(7):
                p = MultiParams((a, b), N)
                u = UniParams(a, b, N)
                for n in range(N + 1):
                    assert mv_lambda((n,), p) == hahn_norm(n, u)

    def test_matches_bivariate_grand_norm(self):
        for a1, a2, a3 in [(0, 0, 0), (Rat(1, 2), 3, Rat(7, 3))]:
            for N in range(6):
                p3 = MultiParams((a1, a2, a3), N)
                p2 = BiParams(a1, a2, a3, N)
                for d in simplex_points(N, 2):
                    assert mv_lambda(d, p3) == bigLambda(d, p2)

    def test_hand_value(self):
        # alpha = 0, N = 2, d = 3: P_(1,0,0) = i1 - i2, w = multinomial/10
        p = MultiParams((0, 0, 0, 0), 2)
        assert mv_lambda((1, 0, 0), p) == Rat(6, 5)

    def test_positive(self):
        p = MultiParams(lattice_tuple(4, offset=3), 3)
        assert all(mv_lambda(n, p) > 0 for n in simplex_points(3, 3))

    @pytest.mark.parametrize(
        "alphas, N",
        [((Rat(1, 2), Rat(7, 3)), 8), ((Rat(1, 2), Rat(-1, 2), Rat(3)), 6), ((0, 0, 0), 4),
         (D3, 5), (D4, 4), ((Rat(1, 2),) * 7, 3)],
        ids=["d1-N8", "d2-N6", "d2-zeros-N4", "d3-N5", "d4-N4", "d6-N3"],
    )
    def test_closed_form_is_the_gram_sum(self, alphas, N):
        p = MultiParams(alphas, N)
        params = cleared(*p.alphas)
        for n in simplex_points(N, p.d):
            assert Rat(*chain_norm(params, n, N)) == mv_lambda(n, p), n


class TestVerifyMv:
    def test_univariate_reduction(self):
        rep = verify_mv(MultiParams((Rat(1, 2), 3), 5))
        uni = [verify_uni(name, UniParams(Rat(1, 2), 3, 5)) for name in ("orthogonality", "dual-genfun")]
        assert rep.passed and all(u.passed for u in uni)
        assert rep.suite == "mv"
        assert [c.name for c in rep.checks] == ["orthogonality", "genfun"]

    @pytest.mark.parametrize("offset", [0, 1, 2])
    def test_d3_lattice_sample(self, offset):
        rep = verify_mv(MultiParams(lattice_tuple(4, offset=offset), 3))
        assert rep.passed

    def test_d4(self):
        assert verify_mv(MultiParams((0, 0, 0, 0, 0), 2)).passed
        assert verify_mv(MultiParams(lattice_tuple(5, offset=4), 2)).passed

    def test_report_shape(self):
        p = MultiParams((0, Rat(1, 2), 1), 2)
        rep = verify_mv(p)
        check = rep.checks[0]
        assert check.passed and check.max_residual == "0"
        assert rep.params == p.echo()

    def test_negated_weights_fail_the_diagonal(self, monkeypatch):
        # With every weight negated the off-diagonal entries stay 0; the
        # first diagonal entry reads -1 against the closed-form norm 1.
        honest = simplex_mod.simplex_weight

        def negated(alphas, N):
            nums, den = honest(alphas, N)
            return tuple(-w for w in nums), den

        monkeypatch.setattr(simplex_mod, "simplex_weight", negated)
        rep = verify_mv(MultiParams((Rat(1, 2), 0, 3, Rat(7, 3)), 3))
        check = rep.checks[0]
        assert not check.passed
        assert check.max_residual == "-2"
        assert check.counterexample["indices"] == {"degrees": [[0, 0, 0], [0, 0, 0]]}
        assert check.counterexample["lhs"] == "-1" and check.counterexample["rhs"] == "1"

    def test_row_scaled_by_two_fails_its_diagonal(self, monkeypatch):
        # Every off-diagonal sum stays 0 and every diagonal one positive; only
        # the closed-form norm catches the scaled row, at its own degree tuple.
        p, scaled = MultiParams(D3, 3), (0, 1, 1)
        norm = Rat(*chain_norm(cleared(*p.alphas), scaled, p.N))
        honest = ChainTable.row

        def doubled(self, degs, level):
            nums = honest(self, degs, level)
            return tuple(2 * v for v in nums) if tuple(degs) == scaled else nums

        monkeypatch.setattr(ChainTable, "row", doubled)
        (check,) = verify_mv_check("orthogonality", p).checks
        assert not check.passed
        assert check.counterexample == {
            "indices": {"degrees": [list(scaled), list(scaled)]},
            "lhs": format_rational(4 * norm),
            "rhs": format_rational(norm),
        }
        assert check.max_residual == format_rational(3 * norm)

    def test_a_d2_test_alone_cannot_pin_the_norm(self, monkeypatch):
        # The start T of each factor's remaining weight by the d = 2 rule,
        # a_k + alpha_{k+1} + alpha_{k+2} + 3, blind to the parameters after
        # alpha_{k+2}: right at d <= 2, wrong from d = 3 on at the first
        # factor, so first at degree tuple (1, 0, 0).
        def d2_rule(params, degs, N):
            Q, A = params
            alphas = [Rat(x, Q) for x in A]
            out, a = Rat(1), alphas[0]
            for k, n in enumerate(degs):
                b = alphas[k + 1]
                T = a + b + (alphas[k + 2] + 3 if k + 2 < len(alphas) else 2)
                out *= factorial(n) * pochhammer(a + 1, n) * pochhammer(b + 1, n) * pochhammer(a + b + n + 1, n)
                out *= math.perm(N, n) * pochhammer(N + T, n) / pochhammer(T, 2 * n)
                a, N = a + b + 2 * n + 1, N - n
            return out.numerator, out.denominator

        monkeypatch.setattr(simplex_mod, "chain_norm", d2_rule)
        assert verify_uni("orthogonality", UniParams(Rat(1, 2), Rat(7, 3), 6)).passed
        assert verify_bi("orthogonality", BiParams(Rat(1, 2), Rat(-1, 2), 3, 5)).passed
        assert verify_mv_check("orthogonality", MultiParams((Rat(1, 2), Rat(-1, 2), Rat(3)), 5)).passed
        (check,) = verify_mv_check("orthogonality", MultiParams(D3, 3)).checks
        assert not check.passed
        assert check.counterexample["indices"] == {"degrees": [[1, 0, 0], [1, 0, 0]]}
        assert not verify_mv_check("orthogonality", MultiParams((0,) * 5, 2)).passed

    def test_off_diagonal_failure_report(self, monkeypatch):
        # one entry of row (1, 0) raised by 1: the pair ((1, 0), (0, 0)) is
        # decided before the diagonal of (1, 0)
        honest = ChainTable.row

        def tampered(self, degs, level):
            nums = honest(self, degs, level)
            return (nums[0] + 1,) + nums[1:] if tuple(degs) == (1, 0) else nums

        monkeypatch.setattr(ChainTable, "row", tampered)
        check = verify_mv(MultiParams((Rat(1, 2), 0, 3), 2)).checks[0]
        assert not check.passed
        assert check.counterexample["indices"] == {"degrees": [[1, 0], [0, 0]]}
        assert check.max_residual == check.counterexample["lhs"] != "0"
        assert check.counterexample["rhs"] == "0"

    def test_oversized_simplex_is_refused(self):
        # d = 6, N = 7 has C(13, 6) = 1716 points: refused before any value
        # is made, and the CLI turns that into exit code 2.
        d, N = 6, 7
        assert math.comb(N + d, d) > MAX_GRAM_POINTS
        with pytest.raises(ValueError, match="refused"):
            verify_mv(MultiParams((0,) * (d + 1), N))
        assert main(["verify", "--suite", "mv", "--alpha", ",".join(["0"] * (d + 1)), "--N", str(N)]) == 2


class TestBivariateGramReport:
    """The bivariate orthogonality check reads the same integer Gram sums;
    its failure report is pinned against strings made from weight2 and
    p2_eval directly."""

    @pytest.mark.parametrize("tampered", [(0, 0), (1, 0), (1, 1)])
    def test_tampered_lambda_report(self, monkeypatch, tampered):
        # the closed-form norm of one degree pair tripled, in the integer pair the check reads
        p = BiParams(Rat(1, 2), Rat(-1, 2), 3, 3)
        want = 3 * lambda2(tampered, p)
        honest = simplex_mod.chain_norm

        def tripled(params, degs, N):
            num, den = honest(params, degs, N)
            return (3 * num if tuple(degs) == tampered else num), den

        monkeypatch.setattr(simplex_mod, "chain_norm", tripled)
        check = verify_bi("orthogonality", p).checks[0]
        got = sum(weight2(g, p) * p2_eval(tampered, g, p) ** 2 for g in simplex_points(p.N, 2))
        assert not check.passed
        assert check.max_residual == format_rational(got - want)
        out = json.loads(json.dumps(check.to_dict()))["counterexample"]
        assert out == {
            "indices": {"degrees": [list(tampered), list(tampered)]},
            "lhs": format_rational(got),
            "rhs": format_rational(want),
        }



def grid_side(degs, pts, p):
    """N!/(n_1! ... n_{d+1}!) P_m(g), from mv_p_eval and multinomial."""
    full = list(pts) + [p.N - sum(pts)]
    return factorial(p.N) / math.prod(factorial(n) for n in full) * mv_p_eval(degs, pts, p)


class TestGeneratingFunction:
    """The generating function of simplex.genfun_mismatch at d >= 3, where
    no dedicated module checks it, as verify_mv's second check."""

    @pytest.mark.parametrize(
        "alphas, N",
        [(D3, 3), (D3, 6), (D3, 12), (D4, 4), (D4, 10), ((Rat(1, 2),) * 7, 6)],
        ids=["d3-N3", "d3-N6", "d3-N12", "d4-N4", "d4-N10", "d6-N6"],
    )
    def test_passes(self, alphas, N):
        report = verify_mv_check("genfun", MultiParams(alphas, N))
        assert report.suite == "mv" and report.passed
        assert [c.to_dict() for c in report.checks] == [{"name": "genfun", "status": "pass", "max_residual": "0"}]

    def test_suite_runs_it_after_orthogonality(self):
        report = verify_mv(MultiParams(D3, 3))
        assert [(c.name, c.passed, c.max_residual) for c in report.checks] == [
            ("orthogonality", True, "0"),
            ("genfun", True, "0"),
        ]

    def test_tampered_jacobi_coefficient_names_its_degree_and_point(self, monkeypatch):
        # the constant coefficient of J_1^(a_2, alpha_3) at m_1 = 0 raised by
        # one unit of its denominator: the first degree tuple that reads it is
        # (0, 1, 0) in simplex_points order
        p = MultiParams(D3, 4)
        honest = simplex_mod.jacobi_cleared

        def tampered(n, alpha, beta):
            den, coeffs = honest(n, alpha, beta)
            if (n, alpha, beta) == (1, D3[0] + D3[1] + 1, D3[2]):
                coeffs = {**coeffs, 0: coeffs.get(0, 0) + 1}
            return den, coeffs

        monkeypatch.setattr(simplex_mod, "jacobi_cleared", tampered)
        (check,) = verify_mv_check("genfun", p).checks
        out = check.to_dict()
        assert not check.passed
        assert out["counterexample"]["indices"] == {"degree": [0, 1, 0], "point": [1, 0, 0]}
        lhs, rhs = (parse_rational(out["counterexample"][side]) for side in ("lhs", "rhs"))
        assert rhs == grid_side((0, 1, 0), (1, 0, 0), p) != lhs
        assert out["max_residual"] == format_rational(lhs - rhs)

    def test_a_d2_test_alone_cannot_pin_the_exponents(self, monkeypatch):
        # E_k = m_{k-1} + m_k for k < d agrees with the true rule at d = 2,
        # where E_1 = m_1 either way; at d = 3 it fails at the first degree
        # tuple with m_1 > 0
        def wrong(degs, N):
            head = tuple((degs[k - 1] if k else 0) + degs[k] for k in range(len(degs) - 1))
            return head + (N - sum(degs[:-1]),)

        monkeypatch.setattr(simplex_mod, "_exponents", wrong)
        assert verify_mv_check("genfun", MultiParams((Rat(1, 2), Rat(-1, 2), Rat(3)), 5)).passed
        (check,) = verify_mv_check("genfun", MultiParams(D3, 4)).checks
        assert not check.passed
        assert check.counterexample["indices"]["degree"] == [1, 0, 0]

    def test_oversized_simplex_is_refused(self):
        d, N = 6, 7
        assert math.comb(N + d, d) > MAX_GRAM_POINTS
        with pytest.raises(ValueError, match="refused"):
            verify_mv_check("genfun", MultiParams((0,) * (d + 1), N))

    def test_unknown_check(self):
        with pytest.raises(ValueError, match="unknown check"):
            verify_mv_check("recurrence", MultiParams(D3, 2))
