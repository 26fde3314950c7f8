"""Independent cross-checks on schedules, counts and twist rules.

The count checks (Euler characteristic, Betti ranks) work purely from the
handle numbers and are deliberately separate from the schedule engine, so
a divergence pins a bug to exactly one of the two paths.  The rule checks
replay the twist tables against their stated closure and invertibility
properties.  All cancellation certificates here are homotopy-level: a
word crossing a co-core once certifies the pair at the level of the
1-skeleton's fundamental group, which is what the cancellation criterion
consumes.  No 1-handles left means the resulting presentation of the
fundamental group has no generators; b_1 = 0 is read off from that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .knots import Knot, TwoBridgeKnot, parse_knot_spec
from .schedules import ScheduleError, assemble, run_both
from .surfaces import FiberSurface
from .trace import SCHEMA
from .twists import compile_monodromy, piece_monodromy, two_bridge_monodromy
from .words import alpha, handle_letters, handle_occurrences, is_tilde


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: object
    actual: object
    passed: bool


@dataclass
class VerificationReport:
    knot: str
    n: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, expected, actual) -> None:
        self.checks.append(CheckResult(name, expected, actual, expected == actual))

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "knot": self.knot,
            "n": self.n,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "expected": c.expected, "actual": c.actual, "pass": c.passed}
                for c in self.checks
            ],
        }


def euler_char(counts: Sequence[int]) -> int:
    """Alternating sum of handle counts, lowest index first."""
    return sum(c if k % 2 == 0 else -c for k, c in enumerate(counts))


def check_twist_image_closure(eps: Sequence[int]) -> VerificationReport:
    """Closure property of the composite twist action.

    For i < 2g the image of alpha_i must be a word over alpha_0..alpha_{i+1}
    crossing alpha_{i+1} exactly once.
    """
    phi = piece_monodromy(eps)
    g = len(tuple(eps)) // 2
    s = FiberSurface(g, 1)
    table = compile_monodromy(phi, s)
    report = VerificationReport(knot=phi.source, n=1)
    for i in range(2 * g):
        w = table.apply((alpha(i),))
        ok_letters = handle_letters(w) <= set(range(1, i + 2)) and not any(is_tilde(c) for c in w)
        report.add(f"image of a{i} stays below a{i + 1}", True, ok_letters)
        report.add(f"image of a{i} crosses a{i + 1} once", 1, handle_occurrences(w, i + 1))
    return report


def check_monodromy_invertible(eps: Sequence[int]) -> VerificationReport:
    """Applying the monodromy then its inverse fixes every generator."""
    phi = two_bridge_monodromy(eps)
    g = len(tuple(eps)) // 2
    s = FiberSurface(g, 1)
    forward, backward = compile_monodromy(phi, s), compile_monodromy(phi.inverse(), s)
    report = VerificationReport(knot=phi.source, n=1)
    for i in range(2 * g + 1):
        w = backward.apply(forward.apply((alpha(i),)))
        report.add(f"round trip fixes a{i}", (alpha(i),), w)
    return report


def full_report(knot: Knot | str, n: int) -> VerificationReport:
    """Aggregate certificate for E(n)_K: counts, Euler characteristic, rule suites."""
    if isinstance(knot, str):
        knot = parse_knot_spec(knot)
    report = VerificationReport(knot=knot.spec_str(), n=n)
    g = knot.genus
    expected_initial = 4 * g + 8 * n - 3

    try:
        results = run_both(knot, n)
    except ScheduleError as err:
        report.add("schedule completes", "no assertion failures", str(err))
        return report

    for piece in ("X1", "X2"):
        cx, trace = results[piece]
        report.add(f"{piece} initial 2-handles", expected_initial, len(trace.initial["two_handles"]))
        report.add(f"{piece} final 1-handles", 0, len(cx.one_handles))
        report.add(f"{piece} final 2-handles", 6 * n - 1, len(cx.two_handles))
        report.add(f"{piece} cancellations", 4 * g + 2 * n - 2,
                   sum(1 for m in trace.moves if m.kind == "cancel"))

    counts = assemble(results["X1"][0], results["X2"][0], n)
    report.add("total 1-handles", 0, counts.h1)
    report.add("total 3-handles", 0, counts.h3)
    report.add("total 2-handles", 12 * n - 2, counts.h2)
    report.add("euler characteristic", 12 * n,
               euler_char((counts.h0, counts.h1, counts.h2, counts.h3, counts.h4)))
    report.add("b1 (no 1-handles, no generators)", 0, counts.h1)

    if isinstance(knot, TwoBridgeKnot):
        eps = knot.eps
        report.add("twist closure suite", True, check_twist_image_closure(eps).passed)
        report.add("twist invertibility suite", True, check_monodromy_invertible(eps).passed)
    return report


__all__ = [
    "CheckResult",
    "VerificationReport",
    "euler_char",
    "check_twist_image_closure",
    "check_monodromy_invertible",
    "full_report",
]
