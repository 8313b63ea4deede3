import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hahnkit.hahn_uni as uni_mod
import hahnkit.simplex as simplex_mod
from hahnkit.hahn_uni import (
    UniParams,
    hahn_eval,
    hahn_norm,
    hahn_weight,
    verify_uni,
)
from hahnkit.numeric import (
    Rat,
    Rational,
    factorial,
    format_rational,
    multinomial,
    pfq_terminating,
    pochhammer,
)
from hahnkit.simplex import ChainTable, eval_total

PARAM_SAMPLE = [Rat(-1, 2), Rat(0), Rat(1, 2), Rat(3), Rat(7, 3)]

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=9).map(
    lambda f: Rat(f.numerator, f.denominator)
)
# alpha > -1 keeps (alpha+1)_j nonzero, so the prefactored series is defined
alphas = st.fractions(min_value=-1, max_value=8, max_denominator=9).filter(lambda f: f > -1).map(
    lambda f: Rat(f.numerator, f.denominator)
)
degrees = st.integers(0, 9)


def _poch_retired(a, n):
    out = None
    for j in range(n):
        out = (a + j) if out is None else out * (a + j)
    return out if out is not None else Rat(1)


def eval_total_retired(n, x, alpha, beta, M):
    """The O(n^2) ring-generic form the kernel replaced: every Pochhammer of
    every term rebuilt from scratch, one rational division per term."""
    total = None
    for j in range(n + 1):
        term = pochhammer(-n, j) / factorial(j) * _poch_retired(x - j + 1, j) * (Rat(-1) ** j)
        term = term * _poch_retired(n + alpha + beta + 1, j)
        term = term * _poch_retired(alpha + j + 1, n - j)
        term = term * _poch_retired(-M + j, n - j)
        total = term if total is None else total + term
    return total


def hahn_weight_retired(x, p):
    """The weight as the Fraction product it was, one factor at a time."""
    return (
        multinomial(p.N, [x])
        * _poch_retired(p.alpha + 1, x)
        * _poch_retired(p.beta + 1, p.N - x)
        / _poch_retired(p.alpha + p.beta + 2, p.N)
    )


def hahn_norm_retired(n, p):
    """The cancellation-safe norm as the Fraction product it was."""
    if n == 0:
        return Rat(1)
    a, b, N = p.alpha, p.beta, p.N
    return (
        factorial(N)
        * factorial(n)
        / factorial(N - n)
        * _poch_retired(a + 1, n)
        * _poch_retired(b + 1, n)
        * _poch_retired(N + a + b + 2, n)
        / ((2 * n + a + b + 1) * _poch_retired(a + b + 2, n - 1))
    )


def hahn_via_prefactored_series(n, x, alpha, beta, M):
    """Independent route: prefactor times the 3F2 with pair cancellation."""
    pre = pochhammer(alpha + 1, n) * pochhammer(-M, n)
    return pre * pfq_terminating([-n, n + alpha + beta + 1, -x], [alpha + 1, -M], 1)


def norm_verbatim(n, p):
    """Textbook norm formula; only defined away from alpha+beta+1 = 0."""
    a, b, N = p.alpha, p.beta, p.N
    return (
        (a + b + 1)
        / (2 * n + a + b + 1)
        * factorial(N)
        * factorial(n)
        / factorial(N - n)
        * pochhammer(a + 1, n)
        * pochhammer(b + 1, n)
        * pochhammer(N + a + b + 2, n)
        / pochhammer(a + b + 1, n)
    )


def lagrange_extend(points, values, x):
    total = Rat(0)
    for i, (xi, yi) in enumerate(zip(points, values)):
        term = yi
        for j, xj in enumerate(points):
            if j != i:
                term = term * Rat(x - xj) / Rat(xi - xj)
        total += term
    return total


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            UniParams(-1, 0, 3)
        with pytest.raises(ValueError):
            UniParams(0, Rat(-3, 2), 3)
        with pytest.raises(ValueError):
            UniParams(0, 0, -1)

    def test_echo(self):
        assert UniParams(Rat(1, 2), 0, 4).echo() == {"alpha": "1/2", "beta": "0", "N": 4}


class TestEval:
    def test_degree_zero_is_one(self):
        p = UniParams(Rat(1, 2), Rat(7, 3), 5)
        for x in range(-2, 8):
            assert hahn_eval(0, x, p) == 1

    def test_degree_one_closed_form(self):
        for alpha in PARAM_SAMPLE:
            for beta in PARAM_SAMPLE:
                p = UniParams(alpha, beta, 4)
                for x in range(-2, 7):
                    assert hahn_eval(1, x, p) == (alpha + beta + 2) * x - 4 * (alpha + 1)

    def test_frozen_values(self):
        p = UniParams(0, 0, 2)
        assert hahn_eval(1, 2, p) == 2
        assert hahn_eval(2, 1, p) == -8

    def test_degree_above_N_rejected(self):
        with pytest.raises(ValueError):
            hahn_eval(3, 0, UniParams(0, 0, 2))

    @pytest.mark.parametrize("N", [1, 2, 5])
    def test_matches_prefactored_series(self, N):
        for alpha in PARAM_SAMPLE:
            p = UniParams(alpha, Rat(7, 3), N)
            for n in range(N + 1):
                for x in range(-2, N + 3):
                    assert hahn_eval(n, x, p) == hahn_via_prefactored_series(n, x, alpha, p.beta, N)

    def test_total_form_handles_degree_above_level(self):
        # the prefactored route is undefined here; the total form is not
        assert eval_total(3, Rat(1), Rat(0), Rat(0), Rat(2)) is not None

    @pytest.mark.parametrize("n", range(5))
    def test_degree_by_interpolation(self, n):
        # degree n: values at n+1 points determine the whole grid
        p = UniParams(Rat(1, 2), Rat(7, 3), 6)
        pts = list(range(n + 1))
        vals = [hahn_eval(n, x, p) for x in pts]
        for x in range(7):
            assert lagrange_extend(pts, vals, x) == hahn_eval(n, x, p)


class TestKernelDifferential:
    """eval_total against the retired O(n^2) sum and against the 3F2 route."""

    @given(degrees, rationals, rationals, rationals, rationals)
    @settings(max_examples=150, deadline=None)
    def test_matches_retired_sum_anywhere(self, n, x, alpha, beta, M):
        # off-grid x, rational M, n > M and negative levels included
        assert eval_total(n, x, alpha, beta, M) == eval_total_retired(n, x, alpha, beta, M)

    @given(degrees, rationals, st.integers(-4, 12), alphas, rationals)
    @settings(max_examples=150, deadline=None)
    def test_matches_retired_sum_on_integer_levels(self, n, x, M, alpha, beta):
        assert eval_total(n, x, alpha, beta, Rat(M)) == eval_total_retired(n, x, alpha, beta, Rat(M))

    @given(degrees, rationals, alphas, rationals, st.one_of(rationals, st.integers(-4, 12).map(Rat)))
    @settings(max_examples=150, deadline=None)
    def test_matches_prefactored_series_where_defined(self, n, x, alpha, beta, M):
        # the 3F2 denominator (-M)_j vanishes only for integer 0 <= M < n
        assume(not (M.denominator == 1 and 0 <= M < n))
        assert eval_total(n, x, alpha, beta, M) == hahn_via_prefactored_series(n, x, alpha, beta, M)

    @pytest.mark.parametrize("N", range(13))
    def test_table_rows_equal_eval_on_lattice(self, N):
        for alpha in PARAM_SAMPLE:
            for beta in PARAM_SAMPLE:
                p = UniParams(alpha, beta, N)
                table = ChainTable((alpha, beta))
                assert table.points(N) == tuple((n,) for n in range(N + 1))
                for n in range(N + 1):
                    nums, den = table.row((n,), N), table.den((n,))
                    assert len(nums) == N + 1
                    for x, t in enumerate(nums):
                        assert isinstance(t, int) and isinstance(den, int)
                        assert Rat(t, den) == hahn_eval(n, x, p)


def chain_rows(p):
    """The d = 1 chain table at p, as (numerators over 0..N, denominator) per degree."""
    table = ChainTable((p.alpha, p.beta))
    return tuple((table.row((n,), p.N), table.den((n,))) for n in range(p.N + 1))


def tamper_row(monkeypatch, degree, x):
    """Every chain table's row of degree (degree,) reads one more at grid point x."""
    honest = ChainTable.row

    def row(self, degs, level):
        nums = honest(self, degs, level)
        return nums[:x] + (nums[x] + 1,) + nums[x + 1:] if degs == (degree,) else nums

    monkeypatch.setattr(ChainTable, "row", row)


def expected_orthogonality_failure(p, table, norm, weight=hahn_weight):
    """First failing (n, m) of the Fraction Gram sum the cleared check replaced."""
    N = p.N
    weights = [weight(x, p) for x in range(N + 1)]
    values = [[Rat(t, den) for t in nums] for nums, den in table]
    for n in range(N + 1):
        for m in range(n + 1):
            got = sum((weights[x] * values[n][x] * values[m][x] for x in range(N + 1)), Rat(0))
            want = norm(n, p) if n == m else Rat(0)
            if got != want:
                return {
                    "residual": format_rational(got - want),
                    "indices": [n, m],
                    "lhs": format_rational(got),
                    "rhs": format_rational(want),
                }
    return None


class TestOrthogonalityFailurePath:
    P = UniParams(Rat(1, 2), Rat(7, 3), 6)

    def reported(self):
        check = verify_uni("orthogonality", self.P).checks[0]
        assert not check.passed
        return {"residual": check.max_residual, **check.counterexample}

    def test_tampered_norm(self, monkeypatch):
        # the norm of degree 4 raised by 1/3, in the integer pair the check reads
        honest = simplex_mod.chain_norm

        def tampered(params, degs, N):
            num, den = honest(params, degs, N)
            return (3 * num + den, 3 * den) if degs == (4,) else (num, den)

        expected = expected_orthogonality_failure(
            self.P, chain_rows(self.P), lambda n, p: hahn_norm(n, p) + (Rat(1, 3) if n == 4 else 0)
        )
        monkeypatch.setattr(simplex_mod, "chain_norm", tampered)
        assert expected["indices"] == [4, 4]
        assert self.reported() == expected

    def test_tampered_table_entry(self, monkeypatch):
        tamper_row(monkeypatch, 3, 2)
        expected = expected_orthogonality_failure(self.P, chain_rows(self.P), hahn_norm)
        assert expected["indices"] == [3, 0]
        assert self.reported() == expected

    def test_tampered_weight(self, monkeypatch):
        # the shared weight at x = 2 raised by 1/7: numerators over 7 W
        honest = simplex_mod.simplex_weight

        def tampered(alphas, N):
            nums, den = honest(alphas, N)
            return tuple(7 * w + (den if x == 2 else 0) for x, w in enumerate(nums)), 7 * den

        weights = [hahn_weight(x, self.P) + (Rat(1, 7) if x == 2 else 0) for x in range(self.P.N + 1)]
        expected = expected_orthogonality_failure(self.P, chain_rows(self.P), hahn_norm, lambda x, p: weights[x])
        monkeypatch.setattr(simplex_mod, "simplex_weight", tampered)
        assert expected["indices"] == [0, 0]
        assert self.reported() == expected


class TestGeneratingFunctionFailureReports:
    """One table entry off by one: each generating-function check reports its
    first mismatch, in its own search order, with the residual and both
    sides as exact strings.  The literals pin the reports of the Fraction
    polynomial route that the integer comparison replaced."""

    P = UniParams(Rat(1, 2), Rat(7, 3), 6)

    @pytest.fixture(autouse=True)
    def tampered_table(self, monkeypatch):
        tamper_row(monkeypatch, 3, 2)

    def test_genfun(self):
        check = verify_uni("genfun", self.P).checks[0].to_dict()
        assert check == {
            "name": "genfun",
            "status": "fail",
            "max_residual": "-1/1698278400",
            "counterexample": {"indices": [2, 3], "lhs": "473/2600", "rhs": "308956033/1698278400"},
        }

    def test_dual_genfun(self):
        check = verify_uni("dual-genfun", self.P).checks[0].to_dict()
        assert check == {
            "name": "dual-genfun",
            "status": "fail",
            "max_residual": "-5/93312",
            "counterexample": {"indices": [3, 2], "lhs": "16555", "rhs": "1544780165/93312"},
        }


class TestOrthogonalityClearedVerdicts:
    def test_passing_sweep_makes_no_rationals(self, monkeypatch):
        # none for the norms (integer pairs), the weights, the table or the
        # 91 pairs' Gram sums, counted in every module of the package
        p = UniParams(Rat(1, 2), Rat(7, 3), 12)
        made = []

        def counted(*args):
            made.append(args)
            return Rat(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "hahnkit" and hasattr(module, "Rat"):
                monkeypatch.setattr(module, "Rat", counted)
        assert uni_mod._CHECKS["orthogonality"](p).passed
        assert made == []

    def test_zero_scale_reported_under_optimization(self, tmp_path):
        """A zero scale W d_n d_m would make every off-diagonal pair hold
        vacuously.  It is a reported failure with residual "inf", also under
        python -O, where an assert would vanish."""
        script = tmp_path / "zero_scale.py"
        script.write_text(
            "import json\n"
            "import hahnkit.hahn_uni as uni\n"
            "from hahnkit.numeric import Rat\n"
            "from hahnkit.simplex import ChainTable\n"
            "honest = ChainTable.den\n"
            "ChainTable.den = lambda self, degs: 0 if degs == (2,) else honest(self, degs)\n"
            "p = uni.UniParams(Rat(1, 2), Rat(7, 3), 4)\n"
            "print(json.dumps(uni.verify_uni('orthogonality', p).checks[0].to_dict()))\n"
        )
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        command = [sys.executable, "-O", str(script)]
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        check = json.loads(done.stdout)
        assert check["status"] == "fail" and check["max_residual"] == "inf"
        assert "vanishes" in check["counterexample"]["lhs"]


class TestClearedNormalizations:
    """hahn_weight and hahn_norm, one rational of cleared integer products
    each, against the retired factor-by-factor Fraction products."""

    @given(alphas, alphas, st.integers(0, 12))
    @settings(max_examples=120, deadline=None)
    def test_match_retired_products(self, alpha, beta, N):
        p = UniParams(alpha, beta, N)
        for x in range(N + 1):
            weight, norm = hahn_weight(x, p), hahn_norm(x, p)
            assert isinstance(weight, Rational) and isinstance(norm, Rational)
            assert weight == hahn_weight_retired(x, p)
            assert norm == hahn_norm_retired(x, p)

    @given(st.fractions(min_value=-1, max_value=0, max_denominator=10**6).filter(lambda f: -1 < f < 0))
    @settings(max_examples=60, deadline=None)
    def test_norm_where_a_plus_b_plus_one_vanishes(self, f):
        # the textbook prefactor is 0/0 here; the safe form is defined
        alpha = Rat(f.numerator, f.denominator)
        p = UniParams(alpha, -1 - alpha, 6)
        assert p.alpha + p.beta + 1 == 0
        for n in range(p.N + 1):
            assert hahn_norm(n, p) == hahn_norm_retired(n, p)


class TestWeight:
    def test_flat_case(self):
        p = UniParams(0, 0, 2)
        assert [hahn_weight(x, p) for x in range(3)] == [Rat(1, 3)] * 3

    def test_left_edge_closed_form(self):
        for alpha in PARAM_SAMPLE:
            for beta in PARAM_SAMPLE:
                p = UniParams(alpha, beta, 5)
                expected = pochhammer(beta + 1, 5) / pochhammer(alpha + beta + 2, 5)
                assert hahn_weight(0, p) == expected

    def test_normalization(self):
        p = UniParams(Rat(1, 2), Rat(7, 3), 5)
        assert sum((hahn_weight(x, p) for x in range(6)), Rat(0)) == 1

    def test_positive(self):
        p = UniParams(Rat(-1, 2), Rat(-1, 2), 6)
        assert all(hahn_weight(x, p) > 0 for x in range(7))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            hahn_weight(3, UniParams(0, 0, 2))
        with pytest.raises(ValueError):
            hahn_weight(-1, UniParams(0, 0, 2))


class TestNorm:
    def test_frozen_values(self):
        p = UniParams(0, 0, 2)
        assert hahn_norm(0, p) == 1
        assert hahn_norm(1, p) == Rat(8, 3)
        assert hahn_norm(2, p) == 32

    def test_degree_zero_is_total_weight(self):
        for alpha in PARAM_SAMPLE:
            p = UniParams(alpha, Rat(1, 2), 4)
            assert hahn_norm(0, p) == 1

    def test_matches_verbatim_formula_when_defined(self):
        for alpha in [Rat(0), Rat(1, 2), Rat(3)]:
            for beta in [Rat(0), Rat(7, 3)]:
                p = UniParams(alpha, beta, 6)
                for n in range(7):
                    assert hahn_norm(n, p) == norm_verbatim(n, p)

    def test_survives_removable_singularity(self):
        # alpha+beta+1 = 0: the verbatim prefactor is 0/0, the safe form is not
        p = UniParams(Rat(-1, 2), Rat(-1, 2), 5)
        for n in range(6):
            direct = sum(
                (
                    hahn_weight(x, p) * hahn_eval(n, x, p) ** 2
                    for x in range(6)
                ),
                Rat(0),
            )
            assert hahn_norm(n, p) == direct

    @pytest.mark.parametrize("N", [3, 8, 12])
    def test_equals_weighted_square_sum(self, N):
        p = UniParams(Rat(7, 3), Rat(-1, 2), N)
        for n in range(N + 1):
            direct = sum(
                (hahn_weight(x, p) * hahn_eval(n, x, p) ** 2 for x in range(N + 1)),
                Rat(0),
            )
            assert hahn_norm(n, p) == direct

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            hahn_norm(3, UniParams(0, 0, 2))


class TestVerify:
    def test_orthogonality_small_grid(self):
        report = verify_uni("orthogonality", UniParams(0, 0, 2))
        assert report.passed
        assert report.checks[0].max_residual == "0"

    def test_genfun_linear_case(self):
        # x=0, N=1: both sides are 1 - t
        p = UniParams(0, 0, 1)
        assert hahn_eval(1, 0, p) == -1
        assert verify_uni("genfun", p).passed

    def test_dual_genfun_reduces_to_binomial(self):
        assert verify_uni("dual-genfun", UniParams(Rat(1, 2), Rat(7, 3), 4)).passed

    @pytest.mark.parametrize("check", ["orthogonality", "genfun", "dual-genfun"])
    def test_all_checks_on_sample(self, check):
        for alpha in [Rat(-1, 2), Rat(7, 3)]:
            for N in [0, 1, 4]:
                assert verify_uni(check, UniParams(alpha, Rat(1, 2), N)).passed

    def test_unknown_check(self):
        with pytest.raises(ValueError):
            verify_uni("recurrence", UniParams(0, 0, 2))

    @pytest.mark.parametrize("check", ["orthogonality", "genfun", "dual-genfun"])
    def test_level_above_the_cap_is_refused_before_any_value(self, monkeypatch, check):
        def no_tables(*args):
            raise AssertionError("a table was built")

        for name in ("ChainTable", "genfun_mismatch", "gram_pieces", "simplex_weight"):
            monkeypatch.setattr(uni_mod, name, no_tables)
        p = UniParams(Rat(1, 2), Rat(7, 3), uni_mod.MAX_UNI_LEVEL + 1)
        with pytest.raises(ValueError, match="refused"):
            verify_uni(check, p)
