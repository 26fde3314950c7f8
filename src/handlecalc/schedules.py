"""Cancellation schedules: drive each piece to a complex with no 1-handles.

Three phases, executed per piece:

  Phase A (two-bridge): for i = 1..2g, slide the image handle phi(B_{i-1})
  over B_{i-1}; the shared closing arc cancels and the remainder crosses
  alpha_i exactly once after the letters alpha_j (j < i) are rewritten
  through the earlier relators.  Cancel (alpha_i*, H~_i).

  Stallings script (replaces Phase A at g = 2): slide phi_m(B_i) over B_i
  (i = 0..4), form the double slides of H_1 and H_3 over H_2 along their
  shared eta * t_{a3}^m(alpha_3) subpath, then cancel alpha_2, alpha_3,
  alpha_1, alpha_4 in that order; "sliding over the H_3 double slide" is
  the elimination of its single alpha_4 crossing.

  Chain phase (n >= 2): the 2-handles of c_1, c_2, ..., c_{2n-2} cancel
  alpha_{4g+2n-3}, then the even letters downward and the odd letters
  below, each after rewriting through the previously freed relator.

  Phase C: for i = 1..2g, the untouched B_{2g+1-i} handle, rewritten
  through every available relator, crosses alpha_{2g+i} once; cancel.

Every cancellation rewrites all surviving words, so the "slide over the
earlier helpers" steps of the later phases are normally no-ops that the
schedule still sweeps for safety.  A failed single-crossing assertion
aborts with the offending word recorded in the trace: that is the
falsification channel for the underlying curve computations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    HandleComplex,
    TwoHandle,
    complex_from_piece,
    is_cancelling,
    is_isolated,
)
from .factorization import build_pieces
from .knots import Knot, KnotSpecError, StallingsKnot, TwoBridgeKnot, parse_knot_spec
from .surfaces import eta_word
from .trace import MoveTrace, complex_state, execute
from .twists import ta3_power
from .words import (
    Word,
    alpha,
    concat,
    cyclic_reduce,
    handle_occurrences,
    word_str,
)


class ScheduleError(RuntimeError):
    """A cancellation assertion failed; carries the offending word and the trace."""

    def __init__(self, message: str, word: Word | None = None, trace: MoveTrace | None = None):
        super().__init__(message)
        self.word = word
        self.trace = trace


class _Run:
    """Mutable schedule state: the complex (with its freed relators) and the move log."""

    def __init__(self, cx: HandleComplex, knot_spec: str, n: int, piece: str):
        self.cx = cx
        self.trace = MoveTrace(knot=knot_spec, n=n, piece=piece, initial=complex_state(cx))

    def fail(self, message: str, word: Word | None) -> ScheduleError:
        self.trace.error = {
            "message": message,
            "word": None if word is None else word_str(word),
        }
        return ScheduleError(message, word=word, trace=self.trace)

    def move(
        self,
        kind: str,
        target: TwoHandle,
        over: TwoHandle | None = None,
        letter: int | None = None,
        shared_prefix: Word | None = None,
    ) -> None:
        """Apply one move through the shared executor and log its record."""
        self.trace.moves.append(
            execute(self.cx, kind, target.id, None if over is None else over.id, letter, shared_prefix)
        )

    def sweep_relators(self, target: TwoHandle) -> None:
        """Eliminate any residual freed letters (normally all no-ops)."""
        for j in sorted(self.cx.freed):
            if target.word is not None and handle_occurrences(target.word, j):
                self.move("eliminate", target, letter=j)

    def assert_and_cancel(self, i: int, target: TwoHandle) -> None:
        """Check the single-crossing form, warn if not isolated, cancel the pair."""
        if target.word is None:
            raise self.fail(f"cannot cancel a{i} against opaque handle {target.id}", None)
        w = cyclic_reduce(target.word)
        if not is_cancelling(target.word, i):
            raise self.fail(
                f"{target.label()} (handle {target.id}) should cross a{i} exactly once "
                f"but its word is {word_str(w)!r}",
                w,
            )
        if not is_isolated(target.word, i):
            self.trace.warnings.append(
                f"weak cancellation of a{i} against {target.id}: "
                f"word {word_str(w)!r} is not over alpha_0/a{i} alone"
            )
        self.move("cancel", target, letter=i)


def _phase_a(run: _Run) -> None:
    g = run.cx.surface.g
    for i in range(1, 2 * g + 1):
        target = run.cx.find("B", i - 1, phi_image=True)
        over = run.cx.find("B", i - 1, phi_image=False)
        run.move("slide", target, over)
        for j in range(1, i):
            if handle_occurrences(target.word, j):
                run.move("eliminate", target, letter=j)
        run.assert_and_cancel(i, target)


def _stallings_script(run: _Run, knot: StallingsKnot) -> None:
    s = run.cx.surface
    image = [run.cx.find("B", i, phi_image=True) for i in range(5)]
    base = [run.cx.find("B", i, phi_image=False) for i in range(5)]
    for i in range(5):
        run.move("slide", image[i], base[i])
    h0, h1, h2, h3 = image[0], image[1], image[2], image[3]

    # H_1 and H_3 share the initial subpath eta * t_{a3}^m(alpha_3) with
    # H_2 (conjugated by alpha_0 when n >= 2); the double slides run along
    # that subpath, not along a common suffix.
    conj = () if s.n == 1 else (alpha(0),)
    prefix = concat(conj, eta_word(), ta3_power((alpha(3),), knot.m, s))
    run.move("slide", h1, h2, shared_prefix=prefix)  # the H_{1,2} double slide
    run.move("slide", h3, h2, shared_prefix=prefix)  # the H_{3,2} double slide

    run.assert_and_cancel(2, h1)

    # Sliding over the H_{3,2} double slide eliminates its single alpha_4
    # crossing; the remaining alpha_2/alpha_3 letters go through the freed
    # relators (mostly already rewritten by the cancellations).
    run.move("eliminate", h0, h3, letter=4)
    run.sweep_relators(h0)
    run.assert_and_cancel(3, h0)

    run.move("eliminate", h2, h3, letter=4)
    run.sweep_relators(h2)
    run.assert_and_cancel(1, h2)

    run.sweep_relators(h3)
    run.assert_and_cancel(4, h3)


def _chain_phase(run: _Run) -> None:
    s = run.cx.surface
    g, n = s.g, s.n
    used: dict[int, int] = {}

    def step(c_index: int, letter: int) -> None:
        h = run.cx.find("c", c_index, phi_image=False, skip=used.get(c_index, 0))
        used[c_index] = used.get(c_index, 0) + 1
        run.sweep_relators(h)
        run.assert_and_cancel(letter, h)

    step(1, 4 * g + 2 * n - 3)
    for i in range(1, n):
        step(2 * i, 4 * g + 2 * n - 2 * i)
        if i <= n - 2:
            step(2 * i + 1, 4 * g + 2 * n - 2 * i - 3)


def _phase_c(run: _Run) -> None:
    g = run.cx.surface.g
    for i in range(1, 2 * g + 1):
        target = run.cx.find("B", 2 * g + 1 - i, phi_image=False)
        run.sweep_relators(target)
        run.assert_and_cancel(2 * g + i, target)


def run_schedule(knot: Knot | str, n: int = 1, piece: str = "X1") -> tuple[HandleComplex, MoveTrace]:
    """Run the full cancellation schedule for one piece.

    Returns the final complex (no 1-handles, 6n-1 two-handles) and the
    replayable trace.  Raises ScheduleError, with the offending word in
    the attached trace, if any single-crossing assertion fails.
    """
    if isinstance(knot, str):
        knot = parse_knot_spec(knot)
    if piece not in ("X1", "X2"):
        raise ValueError(f"piece must be X1 or X2, got {piece!r}")
    if n < 1:
        raise ValueError(f"elliptic index must be >= 1, got {n}")
    if isinstance(knot, TwoBridgeKnot) and not knot.is_fibered:
        raise KnotSpecError(f"{knot} is not fibered; the schedule needs a fibered knot")

    x1, x2 = build_pieces(knot, n)
    cx = complex_from_piece(x1 if piece == "X1" else x2)
    run = _Run(cx, knot.spec_str(), n, piece)

    if isinstance(knot, StallingsKnot):
        _stallings_script(run, knot)
    else:
        _phase_a(run)
    if n >= 2:
        _chain_phase(run)
    _phase_c(run)

    if cx.one_handles:
        raise run.fail(f"schedule finished with live 1-handles {sorted(cx.one_handles)}", None)
    expected = 6 * n - 1
    if len(cx.two_handles) != expected:
        raise run.fail(
            f"schedule left {len(cx.two_handles)} 2-handles, expected {expected}", None
        )
    cx.check_live_letters()

    run.trace.final = complex_state(cx)
    run.trace.certificate = {"one_handles": 0, "two_handles": expected}
    return cx, run.trace


def run_both(knot: Knot | str, n: int = 1) -> dict[str, tuple[HandleComplex, MoveTrace]]:
    """Run the schedule on both pieces."""
    return {p: run_schedule(knot, n, p) for p in ("X1", "X2")}


@dataclass(frozen=True)
class HandleCounts:
    h0: int
    h1: int
    h2: int
    h3: int
    h4: int

    def as_dict(self) -> dict[str, int]:
        return {"h0": self.h0, "h1": self.h1, "h2": self.h2, "h3": self.h3, "h4": self.h4}


def assemble(x1: HandleComplex, x2: HandleComplex, n: int) -> HandleCounts:
    """Total handle counts after capping X1 with the upside-down X2.

    X2's k-handles attach as (4-k)-handles, so its 1-handles would become
    3-handles; both pieces must therefore arrive with none left.
    """
    if x1.one_handles:
        raise ScheduleError(f"X1 still has 1-handles {sorted(x1.one_handles)}")
    if x2.one_handles:
        raise ScheduleError(f"X2 still has 1-handles {sorted(x2.one_handles)}")
    counts = HandleCounts(
        h0=x1.zero_handles,
        h1=len(x1.one_handles),
        h2=len(x1.two_handles) + len(x2.two_handles),
        h3=len(x2.one_handles),
        h4=x2.zero_handles,
    )
    if counts.h2 != 12 * n - 2:
        raise ScheduleError(f"assembled 2-handle count {counts.h2} != 12n-2 = {12 * n - 2}")
    return counts


__all__ = [
    "ScheduleError",
    "run_schedule",
    "run_both",
    "HandleCounts",
    "assemble",
]
