"""Small result containers shared by the verification suites, and the one
routine that compares the two sides of an identity."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class IdentityResult:
    name: str
    max_exponent: Fraction
    passed: bool
    first_difference: Fraction | None = None
    seconds: float = 0.0
    note: str = ""

    def line(self):
        status = "ok" if self.passed else "FAIL"
        extra = ""
        if not self.passed and self.first_difference is not None:
            extra = f"  first difference at q^{self.first_difference}"
        if self.note:
            extra += f"  [{self.note}]"
        return (f"{status:4} {self.name}  (checked to q^{self.max_exponent},"
                f" {self.seconds:.2f}s){extra}")


@dataclass
class VerifyReport:
    suite: str
    results: list = field(default_factory=list)

    @property
    def ok(self):
        return all(r.passed for r in self.results)

    def lines(self):
        return [r.line() for r in self.results]

    def failures(self):
        return [r for r in self.results if not r.passed]


def compare(name, build, upto):
    """Build both sides of an identity with ``build() -> (lhs, rhs)`` and
    compare them coefficientwise up to ``upto``.

    ``seconds`` covers the build and the comparison.  ``max_exponent`` is
    the bound actually compared, ``min(lhs.trunc, rhs.trunc, upto)``; when
    a side stops short of ``upto`` the identity fails with a note naming
    that bound."""
    upto = Fraction(upto)
    t0 = time.perf_counter()
    lhs, rhs = build()
    bound = min(lhs.trunc, rhs.trunc, upto)
    diff = lhs.first_difference(rhs, upto=bound)
    short = bound < upto
    return IdentityResult(
        name=name, max_exponent=bound, passed=diff is None and not short,
        first_difference=diff, seconds=time.perf_counter() - t0,
        note=f"compared only to q^{bound} of q^{upto}" if short else "")
