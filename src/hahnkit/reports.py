"""Verification report types shared by every verify_* entry point."""
from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping, NamedTuple, Sequence

from .numeric import format_rational


class CheckResult(NamedTuple):
    """Outcome of one named identity check.

    max_residual is "0" on every pass; a failure's is lhs - rhs as a p/q
    string (mismatch), or "inf" when it cannot be evaluated (_guarded).  On
    failure, counterexample holds the first offending indices and both side
    values, as strings.
    """

    name: str
    passed: bool
    max_residual: str = "0"
    counterexample: Mapping[str, Any] | None = None

    @classmethod
    def exact_pass(cls, name: str) -> "CheckResult":
        return cls(name=name, passed=True, max_residual="0")

    @classmethod
    def failure(
        cls, name: str, residual: str, indices: Any, lhs: str, rhs: str
    ) -> "CheckResult":
        return cls(
            name=name,
            passed=False,
            max_residual=residual,
            counterexample={"indices": indices, "lhs": lhs, "rhs": rhs},
        )

    @classmethod
    def mismatch(cls, name: str, indices: Any, lhs, rhs) -> "CheckResult":
        """A failure at two rational sides: the residual lhs - rhs and both
        sides as p/q strings."""
        return cls.failure(name, format_rational(lhs - rhs), indices, format_rational(lhs), format_rational(rhs))

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "max_residual": self.max_residual,
        }
        if self.counterexample is not None:
            out["counterexample"] = dict(self.counterexample)
        return out


class VerificationReport(NamedTuple):
    """A suite name, a parameter echo, and the list of check outcomes."""

    suite: str
    params: Mapping[str, Any] = MappingProxyType({})
    checks: Sequence[CheckResult] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": dict(self.params),
            "status": "pass" if self.passed else "fail",
            "checks": [c.to_dict() for c in self.checks],
        }

    def merged(self, other: "VerificationReport") -> "VerificationReport":
        return VerificationReport(
            suite=self.suite,
            params=dict(self.params),
            checks=tuple(self.checks) + tuple(other.checks),
        )


def _guarded(name: str, run, *args) -> CheckResult:
    """run(*args), or a failure with residual "inf" if it cannot be
    evaluated: a pole, a negative radicand, an undecided sign, a
    coefficient factor that is not affine along the sweep line, or a zero
    scale under an integer comparison."""
    try:
        return run(*args)
    except ArithmeticError as err:
        return CheckResult.failure(name, "inf", {}, str(err), "")
