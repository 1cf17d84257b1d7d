"""Verification lines: ``check`` builds and times each one, ``compare`` is
its identity form, and the text, JSON and CSV renderings live here."""

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

    def as_dict(self):
        """The JSON fields in field order (a dataclass's ``vars``),
        exponents as fraction strings."""
        diff = self.first_difference
        return {**vars(self), "max_exponent": str(self.max_exponent),
                "first_difference": None if diff is None else str(diff),
                "seconds": round(self.seconds, 4)}


@dataclass
class VerifyReport:
    suite: str
    results: list = field(default_factory=list)

    @property
    def ok(self):
        return all(r.passed for r in self.results)

    def lines(self):
        return [r.line() for r in self.results]

    def as_dict(self):
        return {"suite": self.suite, "ok": self.ok,
                "results": [r.as_dict() for r in self.results]}

    def failures(self):
        return [r for r in self.results if not r.passed]


def csv_rows(reports):
    """The CSV table of every line of ``reports``, header first."""
    return [["suite", "identity", "max_exponent", "passed",
             "first_difference", "seconds"]] + [
        [report.suite, r.name, str(r.max_exponent), r.passed,
         "" if r.first_difference is None else str(r.first_difference),
         f"{r.seconds:.3f}"] for report in reports for r in report.results]


def check(name, upto, run):
    """One verification line.  ``run()`` builds whatever the line reads and
    returns the line's fields (``max_exponent`` defaults to ``upto``);
    ``seconds`` covers the whole of ``run``."""
    t0 = time.perf_counter()
    fields = {"max_exponent": Fraction(upto), **run()}
    return IdentityResult(name=name, seconds=time.perf_counter() - t0,
                          **fields)


def compare(name, build, upto):
    """``check`` for an identity: build both sides with ``build() -> (lhs,
    rhs)`` and compare them coefficientwise up to ``min(lhs.trunc,
    rhs.trunc, upto)``, the ``max_exponent``.  A side that stops short of
    ``upto`` fails the identity with a note naming that bound."""
    upto = Fraction(upto)

    def run():
        lhs, rhs = build()
        bound = min(lhs.trunc, rhs.trunc, upto)
        diff = lhs.first_difference(rhs, upto=bound)
        short = bound < upto
        return {"max_exponent": bound, "passed": diff is None and not short,
                "first_difference": diff,
                "note": f"compared only to q^{bound} of q^{upto}"
                        if short else ""}

    return check(name, upto, run)
