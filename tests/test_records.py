"""The record types' contract: what callers rely on of the eight records.

Each is immutable, compares by value and is built positionally in a fixed
field order; the three parameter records coerce their inputs to rationals
and refuse a bad level or parameter with fixed messages.
"""
import pytest

from hahnkit.hahn_bi import BiParams, OverlapMatrix, overlap2
from hahnkit.hahn_multi import MultiParams
from hahnkit.hahn_uni import UniParams
from hahnkit.numeric import Rat, Rational
from hahnkit.oracle import ChainMatrix, Su11Module, chain_matrices, su11_build
from hahnkit.reports import CheckResult, VerificationReport, _guarded

BI = BiParams(Rat(1, 2), Rat(-1, 2), Rat(3), 1)
CHECK = CheckResult("orthogonality", True, "0", None)


def record_cases():
    """(record type, field names in order, one set of positional values, the
    same values with the first field changed)."""
    overlap = overlap2(BI)
    first, _ = chain_matrices(BI)
    su11 = su11_build(Rat(1, 2), 1)
    cases = [
        (CheckResult, ("name", "passed", "max_residual", "counterexample"),
         ("orthogonality", True, "0", None), ("genfun", True, "0", None)),
        (VerificationReport, ("suite", "params", "checks"),
         ("uni", {"N": 1}, (CHECK,)), ("bi", {"N": 1}, (CHECK,))),
        (BiParams, ("alpha1", "alpha2", "alpha3", "N"),
         (Rat(1, 2), Rat(-1, 2), Rat(3), 1), (Rat(1), Rat(-1, 2), Rat(3), 1)),
        (OverlapMatrix, ("params", "mode", "rows", "cols", "entries"),
         (BI, "float", overlap.rows, overlap.cols, overlap.entries),
         (BiParams(0, 0, 0, 1), "float", overlap.rows, overlap.cols, overlap.entries)),
        (UniParams, ("alpha", "beta", "N"), (Rat(1, 2), Rat(7, 3), 4), (Rat(0), Rat(7, 3), 4)),
        (MultiParams, ("alphas", "N"), ((Rat(0), Rat(1, 2), Rat(3)), 2), ((Rat(1), Rat(1, 2), Rat(3)), 2)),
        (ChainMatrix, ("params", "rows", "cols", "entries"),
         (BI, first.rows, first.cols, first.entries),
         (BiParams(0, 0, 0, 1), first.rows, first.cols, first.entries)),
        (Su11Module, ("nu", "nmax", "k0", "kplus", "kminus"),
         (su11.nu, su11.nmax, su11.k0, su11.kplus, su11.kminus),
         (Rat(3, 2), su11.nmax, su11.k0, su11.kplus, su11.kminus)),
    ]
    return [pytest.param(*case, id=case[0].__name__) for case in cases]


@pytest.mark.parametrize("cls, names, values, changed", record_cases())
class TestRecordContract:
    def test_fields_in_order(self, cls, names, values, changed):
        record = cls(*values)
        assert [getattr(record, name) for name in names] == list(values)
        assert record == cls(**dict(zip(names, values)))

    def test_compares_by_value(self, cls, names, values, changed):
        assert cls(*values) == cls(*values)
        assert cls(*values) != cls(*changed)

    def test_refuses_assignment(self, cls, names, values, changed):
        record = cls(*values)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, values[0])
        assert [getattr(record, name) for name in names] == list(values)


def test_report_params_default_is_empty_and_immutable():
    report = VerificationReport("uni")
    assert report.params == {} and report.checks == ()
    with pytest.raises(TypeError):
        report.params["N"] = 1
    assert VerificationReport("bi").params == {}
    assert report.to_dict() == {"suite": "uni", "params": {}, "status": "pass", "checks": []}


class TestMismatchResidual:
    """A mismatch's residual is lhs - rhs as an exact p/q string, however
    small or large: no float rounds a failure to the pass string "0" or
    overflows into an "inf" row without its counterexample."""

    def test_tiny_difference_is_not_the_pass_string(self):
        check = CheckResult.mismatch("x", [], Rat(1, 10**400), Rat(0))
        assert not check.passed
        assert check.max_residual == f"1/{10**400}" != "0"

    def test_huge_difference_keeps_its_counterexample(self):
        check = _guarded("x", CheckResult.mismatch, "x", [1], Rat(10**400), Rat(0))
        assert not check.passed
        assert check.max_residual == str(10**400)
        assert check.counterexample == {"indices": [1], "lhs": str(10**400), "rhs": "0"}


class TestParameterCoercion:
    def test_bi(self):
        p = BiParams(1, "1/2", Rat(3), 2)
        assert (p.alpha1, p.alpha2, p.alpha3) == (Rat(1), Rat(1, 2), Rat(3))
        assert all(type(a) is Rational for a in (p.alpha1, p.alpha2, p.alpha3))

    def test_uni(self):
        p = UniParams(0, "7/3", 3)
        assert (p.alpha, p.beta) == (Rat(0), Rat(7, 3))
        assert all(type(a) is Rational for a in (p.alpha, p.beta))

    def test_multi(self):
        p = MultiParams([0, "1/2", 3], 2)
        assert p.alphas == (Rat(0), Rat(1, 2), Rat(3)) and type(p.alphas) is tuple
        assert all(type(a) is Rational for a in p.alphas)
        assert p.d == 2

    def test_sums(self):
        p = BiParams("1/2", "-1/3", "7/5", 3)
        assert p.a12 == Rat(1, 2) + Rat(-1, 3)
        assert p.a123 == Rat(1, 2) + Rat(-1, 3) + Rat(7, 5)


@pytest.mark.parametrize("build, message", [
    (lambda: BiParams(0, 0, 0, -1), "N must be a nonnegative integer"),
    (lambda: BiParams(0, 0, 0, 1.0), "N must be a nonnegative integer"),
    (lambda: BiParams(0, -1, 0, 1), "parameters must exceed -1"),
    (lambda: UniParams(0, 0, -1), "N must be a nonnegative integer"),
    (lambda: UniParams(0, 0, "2"), "N must be a nonnegative integer"),
    (lambda: UniParams("-3/2", 0, 2), "parameters must exceed -1"),
    (lambda: MultiParams([0], 1), "need at least two parameters (d >= 1)"),
    (lambda: MultiParams([0] * 8, 1), "dimension capped at 6 for exact sweeps"),
    (lambda: MultiParams([0, 0], -1), "N must be a nonnegative integer"),
    (lambda: MultiParams([0, 0], 13), "level capped at 12 for exact sweeps"),
    (lambda: MultiParams([0, -1], 1), "parameters must exceed -1"),
])
def test_parameter_refusals(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
