import pytest

import hahnkit.classical as classical_mod
from hahnkit.classical import (
    jacobi_cleared,
    jacobi_coeffs,
    laguerre_coeffs,
    poly_deriv,
    poly_equal,
    verify_classical,
)
from hahnkit.numeric import Rat, Rational, _poly_add, _poly_mul, factorial, pochhammer

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


def jacobi_coeffs_retired(n, alpha, beta):
    """The Fraction expansion the cleared one replaced: each coefficient from
    three pochhammer calls, times a power of (1-z)/2 built by products."""
    alpha, beta = Rat(alpha), Rat(beta)
    half_base = (Rat(1, 2), Rat(-1, 2))
    power, total = (Rat(1),), (Rat(0),)
    for j in range(n + 1):
        c = (
            pochhammer(-n, j)
            * pochhammer(n + alpha + beta + 1, j)
            * pochhammer(alpha + j + 1, n - j)
            / (factorial(n) * factorial(j))
        )
        total = _poly_add(total, tuple(c * p for p in power))
        power = _poly_mul(power, half_base)
    return total


class TestJacobiCoeffs:
    @pytest.mark.parametrize("n", range(11))
    def test_cleared_equals_retired_expansion(self, n):
        """The same rational tuple, trailing zeros trimmed alike, on the
        criterion-09 lattice and at the shifts the relations take; the
        cleared form is ints over one positive denominator."""
        for alpha in PARAM_SAMPLE:
            for beta in PARAM_SAMPLE:
                for a, b in ((alpha, beta), (alpha - 1, beta - 1), (alpha, beta - 2), (alpha + 1, beta + 1)):
                    got = jacobi_coeffs(n, a, b)
                    assert all(isinstance(c, Rational) for c in got)
                    assert got == jacobi_coeffs_retired(n, a, b), (n, a, b)
                    den, coeffs = jacobi_cleared(n, a, b)
                    assert den > 0 and all(type(c) is int for c in coeffs)

    def test_degree_zero(self):
        assert jacobi_coeffs(0, Rat(1, 2), Rat(-1, 3)) == (1,)

    @pytest.mark.parametrize("alpha", PARAM_SAMPLE)
    @pytest.mark.parametrize("beta", PARAM_SAMPLE)
    def test_degree_one_closed_form(self, alpha, beta):
        # (alpha+1) + (alpha+beta+2)(z-1)/2, expanded by hand
        expected = (
            alpha + 1 - (alpha + beta + 2) / Rat(2),
            (alpha + beta + 2) / Rat(2),
        )
        assert poly_equal(jacobi_coeffs(1, alpha, beta), expected)

    def test_legendre_degree_two(self):
        assert jacobi_coeffs(2, 0, 0) == (Rat(-1, 2), Rat(0), Rat(3, 2))

    @pytest.mark.parametrize("n", range(11))
    def test_parity_swaps_parameters(self, n):
        for alpha in PARAM_SAMPLE:
            for beta in PARAM_SAMPLE:
                p = jacobi_coeffs(n, alpha, beta)
                q = jacobi_coeffs(n, beta, alpha)
                flipped = tuple(Rat(-1) ** i * c for i, c in enumerate(p))
                sign = Rat(-1) ** n
                assert poly_equal(flipped, tuple(sign * c for c in q))

    def test_defined_at_negative_integer_parameters(self):
        # raising relations march alpha, beta through -1 and -2
        p = jacobi_coeffs(3, -1, -2)
        assert len(p) <= 4


class TestLaguerreCoeffs:
    def test_degree_zero(self):
        assert laguerre_coeffs(0, Rat(5, 7)) == (1,)

    @pytest.mark.parametrize("alpha", PARAM_SAMPLE)
    def test_degree_one(self, alpha):
        assert laguerre_coeffs(1, alpha) == (alpha + 1, -1)

    def test_degree_two_alpha_zero(self):
        assert laguerre_coeffs(2, 0) == (Rat(1), Rat(-2), Rat(1, 2))

    def test_derivative_helper(self):
        assert poly_deriv((Rat(3), Rat(2), Rat(5))) == (Rat(2), Rat(10))
        assert poly_deriv((Rat(4),)) == (Rat(0),)


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
                c = (c[0], c[1] + Rat(1, 7)) + c[2:]
            if n == 3 and alpha == Rat(3, 2):
                c = c[:2] + (c[2] - Rat(2, 5),) + c[3:]
            return c

        monkeypatch.setattr(classical_mod, "laguerre_coeffs", tampered)
        check = verify_classical("laguerre-addition", 4, Rat(1, 2), Rat(3, 2)).checks[0].to_dict()
        assert check == {
            "name": "laguerre-addition",
            "status": "fail",
            "max_residual": "3/5",
            "counterexample": {"indices": [0, 2], "lhs": "21/2", "rhs": "99/10"},
        }

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError):
            verify_classical("jacobi-shift-9", 1, 0, 0)

    def test_report_shape(self):
        report = verify_classical("jacobi-raise-2", 4, Rat(7, 3), Rat(1, 2))
        d = report.to_dict()
        assert d["status"] == "pass"
        assert d["params"]["alpha"] == "7/3"
        assert d["checks"][0]["name"] == "jacobi-raise-2"
