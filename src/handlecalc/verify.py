"""Count checks and rule suites over a schedule's results.

The count checks (Euler characteristic, Betti ranks) read the handle
numbers of the complexes and traces `run_both` returns, so they check the
schedule's own bookkeeping; they are not a second computation.  The rule
suites (`check_piece_table`) check the closure and invertibility of the
table `build_pieces` reads, compiled once per knot, against its inverse,
compiled fresh; one report row per suite.

A passing report certifies the paper's schedule at the level of the
fundamental group: each cancel's word crosses the 1-handle's co-core
once up to free reduction.  The step to a geometric single crossing with
the belt sphere is the paper's drawn argument, not checked here; a
single crossing up to homotopy is not enough on its own (B. Mazur, "A
note on some contractible 4-manifolds", Ann. of Math. 73 (1961)).  A weak
cancellation, whose word also crosses other 1-handles, meets the same
criterion: the report neither counts nor refuses one, and
`trace.weak_cancellations(moves)` lists them.  No 1-handles left means
the resulting presentation of the fundamental group has no generators;
b_1 = 0 is read off from that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .factorization import _monodromy_images
from .knots import Knot, TwoBridgeKnot, parse_knot_spec
from .schedules import ScheduleError, assemble, run_both
from .trace import SCHEMA
from .twists import compile_monodromy
from .words import alpha, handle_letters, handle_occurrences


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


def check_piece_table(knot: TwoBridgeKnot) -> tuple[CheckResult, CheckResult]:
    """The rule suites of a two-bridge knot's piece monodromy, the table `build_pieces` reads.

    Closure: for i < 2g the image of alpha_i is a word over
    alpha_0..alpha_{i+1} crossing alpha_{i+1} exactly once.  Invertibility:
    the table, then the inverse's table, fixes alpha_0..alpha_{2g}.  The
    table is the knot's, compiled once; only the inverse is compiled here.
    The forward image of each single letter is read from the table as it
    stands, a reduced word, with no `apply`.

    >>> [(c.name, c.actual) for c in check_piece_table(TwoBridgeKnot.from_eps((1, 1)))]
    [('twist closure suite', True), ('twist invertibility suite', True)]
    """
    forward, _ = _monodromy_images(knot)
    g = forward.surface.g
    backward = compile_monodromy([(j, -e) for j, e in reversed(knot.piece_twists())], forward.surface)
    images = [forward.images.get(a, (a,)) for a in map(alpha, range(2 * g + 1))]
    closed = all(
        handle_letters(w) <= set(range(1, i + 2)) and handle_occurrences(w, i + 1) == 1
        for i, w in enumerate(images[:-1])
    )
    inverted = all(backward.apply(w) == (alpha(i),) for i, w in enumerate(images))
    return (CheckResult("twist closure suite", True, closed, closed),
            CheckResult("twist invertibility suite", True, inverted, inverted))


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
        report.checks += check_piece_table(knot)
    return report


__all__ = [
    "CheckResult",
    "VerificationReport",
    "euler_char",
    "check_piece_table",
    "full_report",
]
