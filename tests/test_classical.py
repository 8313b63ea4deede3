import pytest

import hahnkit.classical as classical_mod
from hahnkit.classical import (
    jacobi_cleared,
    jacobi_coeffs,
    laguerre_coeffs,
    poly_deriv,
    verify_classical,
)
from hahnkit.numeric import Rat, Rational, factorial, pochhammer
from hahnkit.simplex import sparse_mul, sparse_sum

PARAM_SAMPLE = [Rat(-1, 2), Rat(0), Rat(1, 2), Rat(3), Rat(7, 3)]

ALL_RELATIONS = [
    "jacobi-lower-1",
    "jacobi-lower-2",
    "jacobi-raise-1",
    "jacobi-raise-2",
    "laguerre-lower",
    "laguerre-raise",
    "laguerre-addition",
]


def support(poly):
    """The nonzero coefficients: a cancelled term stays as a key holding 0."""
    return {key: c for key, c in poly.items() if c != 0}


def jacobi_coeffs_retired(n, alpha, beta):
    """The Fraction expansion the cleared one replaced: each coefficient from
    three pochhammer calls, times a power of (1-z)/2 built by products."""
    alpha, beta = Rat(alpha), Rat(beta)
    half_base = {0: Rat(1, 2), 1: Rat(-1, 2)}
    power, total = {0: Rat(1)}, {}
    for j in range(n + 1):
        c = (
            pochhammer(-n, j)
            * pochhammer(n + alpha + beta + 1, j)
            * pochhammer(alpha + j + 1, n - j)
            / (factorial(n) * factorial(j))
        )
        total = sparse_sum([1, c], [total, power])
        power = sparse_mul(power, half_base)
    return support(total)


class TestJacobiCoeffs:
    @pytest.mark.parametrize("n", range(11))
    def test_cleared_equals_retired_expansion(self, n):
        """The same rational coefficients, zeros dropped alike, on the
        criterion-09 lattice and at the shifts the relations take; the
        cleared form is nonzero ints over one positive denominator."""
        for alpha in PARAM_SAMPLE:
            for beta in PARAM_SAMPLE:
                for a, b in ((alpha, beta), (alpha - 1, beta - 1), (alpha, beta - 2), (alpha + 1, beta + 1)):
                    got = jacobi_coeffs(n, a, b)
                    assert all(isinstance(c, Rational) for c in got.values())
                    assert got == jacobi_coeffs_retired(n, a, b), (n, a, b)
                    den, coeffs = jacobi_cleared(n, a, b)
                    assert den > 0 and all(type(c) is int and c for c in coeffs.values())

    def test_degree_zero(self):
        assert jacobi_coeffs(0, Rat(1, 2), Rat(-1, 3)) == {0: 1}

    @pytest.mark.parametrize("alpha", PARAM_SAMPLE)
    @pytest.mark.parametrize("beta", PARAM_SAMPLE)
    def test_degree_one_closed_form(self, alpha, beta):
        # (alpha+1) + (alpha+beta+2)(z-1)/2, expanded by hand
        expected = {
            0: alpha + 1 - (alpha + beta + 2) / Rat(2),
            1: (alpha + beta + 2) / Rat(2),
        }
        assert jacobi_coeffs(1, alpha, beta) == support(expected)

    def test_legendre_degree_two(self):
        assert jacobi_coeffs(2, 0, 0) == {0: Rat(-1, 2), 2: Rat(3, 2)}

    @pytest.mark.parametrize("n", range(11))
    def test_parity_swaps_parameters(self, n):
        for alpha in PARAM_SAMPLE:
            for beta in PARAM_SAMPLE:
                p = jacobi_coeffs(n, alpha, beta)
                q = jacobi_coeffs(n, beta, alpha)
                flipped = {i: Rat(-1) ** i * c for i, c in p.items()}
                sign = Rat(-1) ** n
                assert flipped == {i: sign * c for i, c in q.items()}

    def test_defined_at_negative_integer_parameters(self):
        # raising relations march alpha, beta through -1 and -2
        p = jacobi_coeffs(3, -1, -2)
        assert set(p) <= set(range(4))


class TestLaguerreCoeffs:
    def test_degree_zero(self):
        assert laguerre_coeffs(0, Rat(5, 7)) == {0: 1}

    @pytest.mark.parametrize("alpha", PARAM_SAMPLE)
    def test_degree_one(self, alpha):
        assert laguerre_coeffs(1, alpha) == {0: alpha + 1, 1: -1}

    def test_degree_two_alpha_zero(self):
        assert laguerre_coeffs(2, 0) == {0: Rat(1), 1: Rat(-2), 2: Rat(1, 2)}

    def test_derivative_helper(self):
        assert poly_deriv({0: Rat(3), 1: Rat(2), 2: Rat(5)}) == {0: Rat(2), 1: Rat(10)}
        assert poly_deriv({0: Rat(4)}) == {}


class TestStructureRelations:
    def test_laguerre_lower_degree_one(self):
        report = verify_classical("laguerre-lower", 1, 0)
        assert report.passed
        assert report.checks[0].max_residual == "0"

    def test_jacobi_lower_1_spot(self):
        report = verify_classical("jacobi-lower-1", 2, Rat(1, 2), Rat(-1, 3))
        assert report.passed

    def test_laguerre_addition_spot(self):
        report = verify_classical("laguerre-addition", 3, Rat(1, 2), Rat(3, 2))
        assert report.passed

    @pytest.mark.parametrize("relation", ALL_RELATIONS)
    @pytest.mark.parametrize("n", range(11))
    def test_zero_residual_over_parameter_sample(self, relation, n):
        for alpha in PARAM_SAMPLE:
            for beta in PARAM_SAMPLE:
                report = verify_classical(relation, n, alpha, beta)
                assert report.passed, (relation, n, alpha, beta)
                assert all(c.max_residual == "0" for c in report.checks)

    def test_laguerre_addition_failure_report(self, monkeypatch):
        # Two tampered coefficients put mismatches at (1, 0) and at (0, 2);
        # the report names (0, 2), first in the first-exponent-major order.
        honest = laguerre_coeffs

        def tampered(n, alpha):
            c = honest(n, alpha)
            if n == 2 and alpha == Rat(1, 2):
                c = {**c, 1: c[1] + Rat(1, 7)}
            if n == 3 and alpha == Rat(3, 2):
                c = {**c, 2: c[2] - Rat(2, 5)}
            return c

        monkeypatch.setattr(classical_mod, "laguerre_coeffs", tampered)
        check = verify_classical("laguerre-addition", 4, Rat(1, 2), Rat(3, 2)).checks[0].to_dict()
        assert check == {
            "name": "laguerre-addition",
            "status": "fail",
            "max_residual": "3/5",
            "counterexample": {"indices": [0, 2], "lhs": "21/2", "rhs": "99/10"},
        }

    def test_jacobi_failure_report(self, monkeypatch):
        # the z coefficient of P_2^(1/2, -1/3) raised by 1/7: the derivative's
        # constant term, the lowest power, is the first to differ
        honest = jacobi_coeffs

        def tampered(n, alpha, beta):
            c = honest(n, alpha, beta)
            if (n, alpha, beta) == (2, Rat(1, 2), Rat(-1, 3)):
                c = {**c, 1: c[1] + Rat(1, 7)}
            return c

        monkeypatch.setattr(classical_mod, "jacobi_coeffs", tampered)
        check = verify_classical("jacobi-lower-1", 2, Rat(1, 2), Rat(-1, 3)).checks[0].to_dict()
        assert check == {
            "name": "jacobi-lower-1",
            "status": "fail",
            "max_residual": "1/7",
            "counterexample": {"indices": [0], "lhs": "809/1008", "rhs": "95/144"},
        }

    def test_laguerre_failure_report(self, monkeypatch):
        # the x coefficient of L_2^(1/2) raised by 1/7 moves the z^1 and z^2
        # coefficients of z L' + (a - z) L; the report names z^1
        honest = laguerre_coeffs

        def tampered(n, alpha):
            c = honest(n, alpha)
            if (n, alpha) == (2, Rat(1, 2)):
                c = {**c, 1: c[1] + Rat(1, 7)}
            return c

        monkeypatch.setattr(classical_mod, "laguerre_coeffs", tampered)
        check = verify_classical("laguerre-raise", 2, Rat(1, 2)).checks[0].to_dict()
        assert check == {
            "name": "laguerre-raise",
            "status": "fail",
            "max_residual": "3/14",
            "counterexample": {"indices": [1], "lhs": "-303/56", "rhs": "-45/8"},
        }

    def test_laguerre_addition_folds_one_product_at_a_time(self, monkeypatch):
        # each polynomial a sum reads is made (by sparse_mul) no earlier than
        # one step before it is folded in, so no list of products is built
        made = []

        def counting_mul(f, g):
            made.append(1)
            return sparse_mul(f, g)

        def watching_sum(coeffs, polys):
            start = len(made)

            def watched():
                for i, poly in enumerate(polys):
                    assert len(made) - start <= i + 1, (i, len(made) - start)
                    yield poly

            return sparse_sum(coeffs, watched())

        monkeypatch.setattr(classical_mod, "sparse_mul", counting_mul)
        monkeypatch.setattr(classical_mod, "sparse_sum", watching_sum)
        assert verify_classical("laguerre-addition", 6, Rat(1, 2), Rat(7, 3)).passed
        assert len(made) == 6 + 7

    def test_degree_above_the_cap_is_refused_before_any_coefficient(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("a coefficient was built")

        for name in ("jacobi_cleared", "jacobi_coeffs", "laguerre_coeffs", "cleared", "sparse_mul", "sparse_sum"):
            monkeypatch.setattr(classical_mod, name, no_build)
        cap = classical_mod.MAX_CLASSICAL_DEGREE
        for relation in ALL_RELATIONS:
            message = f"^the classical relations at degree {cap + 1} are refused; the cap is {cap}$"
            with pytest.raises(ValueError, match=message):
                verify_classical(relation, cap + 1, Rat(1, 2), Rat(7, 3))
            with pytest.raises(AssertionError, match="a coefficient was built"):
                verify_classical(relation, cap, Rat(1, 2), Rat(7, 3))

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError):
            verify_classical("jacobi-shift-9", 1, 0, 0)

    def test_report_shape(self):
        report = verify_classical("jacobi-raise-2", 4, Rat(7, 3), Rat(1, 2))
        d = report.to_dict()
        assert d["status"] == "pass"
        assert d["params"]["alpha"] == "7/3"
        assert d["checks"][0]["name"] == "jacobi-raise-2"
