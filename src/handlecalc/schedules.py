"""Cancellation schedules: drive each piece to a complex with no 1-handles.

Three phases, executed per piece:

  Phase A (two-bridge): for i = 1..2g, slide the image handle phi(B_{i-1})
  over B_{i-1}; the shared closing arc cancels and the remainder crosses
  alpha_i exactly once.  Cancel (alpha_i*, H~_i).

  Stallings script (replaces Phase A at g = 2): slide phi_m(B_i) over B_i
  (i = 0..3), form the double slides of H_1 and H_3 over H_2 along their
  shared eta * t_{a3}^m(alpha_3) subpath, then cancel alpha_2, alpha_3,
  alpha_1, alpha_4 in that order; "sliding over the H_3 double slide" is
  the elimination of its single alpha_4 crossing.  The paper also slides
  phi_m(B_4) over B_4; B_4 later cancels alpha_5, which erases that
  slide from every surviving word, so the script leaves it out.

  Chain phase (n >= 2): the 2-handles of c_1, c_2, ..., c_{2n-2} cancel
  alpha_{4g+2n-3}, then the even letters downward and the odd letters
  below.

  Phase C: for i = 1..2g, the untouched B_{2g+1-i} handle crosses
  alpha_{2g+i} once; cancel.

Every cancellation composes the relator it frees into the complex's
elimination table (`complexes.cancel`), and a word is brought up to date
through that table where it is read, so no word as read mentions a
cancelled letter: the "slide over the earlier helpers" steps of the
later phases are done by the cancellations themselves and the trace
records only the moves the schedule makes.  A failed move or
single-crossing check aborts with the offending word recorded in the
trace: that is the falsification channel for the underlying curve
computations.  A cancel whose relator crosses other 1-handles besides
its letter is legal but earns a warning; the warnings are derived from
the recorded moves (`trace.weak_cancellations`), never kept on the side.

X2 from X1: X2's factorization W.phi(W) is X1's phi(W).W rotated by |W|,
and the schedule finds its handles by origin, not by position, so X2's
run makes X1's moves on X1's words with only the handle ids changed.
`run_both` therefore runs X1's schedule once and derives X2's complex and
trace by renaming ids (`_derive_x2`, the one place the rotation is
stated).  A guard first requires the X1 run to be of the same knot, n
and piece X1, and X1's recorded initial state, rotated and renamed, to
equal X2's start state; any mismatch raises ScheduleError.
`run_schedule(knot, n, "X2")` without `x1`, and `replay`, still run the
full X2 schedule, which the tests use as the oracle for the derivation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import HandleComplex, MoveError, TwoHandle, complex_from_piece
from .factorization import build_pieces
from .knots import Knot, StallingsKnot, parse_knot_spec
from .surfaces import eta_word
from .trace import MoveTrace, execute, finish, weak_cancellations, word_state
from .twists import ta3_power
from .words import Word, alpha, concat, word_str


class ScheduleError(RuntimeError):
    """A cancellation assertion failed; carries the offending word and the trace."""

    def __init__(self, message: str, word: Word | None = None, trace: MoveTrace | None = None):
        super().__init__(message)
        self.word = word
        self.trace = trace


class _Run:
    """Mutable schedule state: the complex and the move log."""

    def __init__(self, cx: HandleComplex, knot_spec: str, n: int, piece: str):
        self.cx = cx
        self.trace = MoveTrace(knot=knot_spec, n=n, piece=piece, initial=word_state(cx))

    def fail(self, message: str, word: Word | None) -> ScheduleError:
        self.trace.error = {
            "message": message,
            "word": None if word is None else word_str(word),
        }
        self.trace.warnings = weak_cancellations(self.trace.moves)
        return ScheduleError(message, word=word, trace=self.trace)

    def move(
        self,
        kind: str,
        target: TwoHandle,
        over: TwoHandle | None = None,
        letter: int | None = None,
        shared_prefix: Word | None = None,
    ) -> None:
        """Apply one move through the shared executor and log its record.

        A move the executor rejects fails the run with the target's word
        as it was before the move.
        """
        word = target.word
        try:
            record = execute(self.cx, kind, target.id, None if over is None else over.id, letter, shared_prefix)
        except MoveError as err:
            raise self.fail(str(err), word) from err
        self.trace.moves.append(record)


def _phase_a(run: _Run) -> None:
    g = run.cx.surface.g
    for i in range(1, 2 * g + 1):
        target = run.cx.find("B", i - 1, phi_image=True)
        over = run.cx.find("B", i - 1, phi_image=False)
        run.move("slide", target, over)
        run.move("cancel", target, letter=i)


def _stallings_script(run: _Run, knot: StallingsKnot) -> None:
    s = run.cx.surface
    h0, h1, h2, h3 = (run.cx.find("B", i, phi_image=True) for i in range(4))
    for i, h in enumerate((h0, h1, h2, h3)):
        run.move("slide", h, run.cx.find("B", i, phi_image=False))

    # H_1 and H_3 share the initial subpath eta * t_{a3}^m(alpha_3) with
    # H_2 (conjugated by alpha_0 when n >= 2); the double slides run along
    # that subpath, not along a common suffix.
    conj = () if s.n == 1 else (alpha(0),)
    prefix = concat(conj, eta_word(), ta3_power((alpha(3),), knot.m, s))
    run.move("slide", h1, h2, shared_prefix=prefix)  # the H_{1,2} double slide
    run.move("slide", h3, h2, shared_prefix=prefix)  # the H_{3,2} double slide

    run.move("cancel", h1, letter=2)

    # Sliding over the H_{3,2} double slide eliminates its single alpha_4
    # crossing; each cancellation has already rewritten the cancelled
    # letters out of every surviving word.
    run.move("eliminate", h0, h3, letter=4)
    run.move("cancel", h0, letter=3)

    run.move("eliminate", h2, h3, letter=4)
    run.move("cancel", h2, letter=1)

    run.move("cancel", h3, letter=4)


def _chain_phase(run: _Run) -> None:
    s = run.cx.surface
    g, n = s.g, s.n

    def step(c_index: int, letter: int) -> None:
        run.move("cancel", run.cx.find("c", c_index, phi_image=False), letter=letter)

    step(1, 4 * g + 2 * n - 3)
    for i in range(1, n):
        step(2 * i, 4 * g + 2 * n - 2 * i)
        if i <= n - 2:
            step(2 * i + 1, 4 * g + 2 * n - 2 * i - 3)


def _phase_c(run: _Run) -> None:
    g = run.cx.surface.g
    for i in range(1, 2 * g + 1):
        target = run.cx.find("B", 2 * g + 1 - i, phi_image=False)
        run.move("cancel", target, letter=2 * g + i)


def _derive_x2(
    spec: str, n: int, start2: HandleComplex, x1: tuple[HandleComplex, MoveTrace]
) -> tuple[HandleComplex, MoveTrace]:
    """X2's final complex and trace from X1's finished run, by renaming handle ids.

    `start2` is X2's start complex, whose handle k is X1's handle
    (k + |W|) mod 2|W|, the fiber boundary handle last in both.  The final
    complex is built from X1's survivors: renaming keeps X1's finished
    state, so `finish` is not run again.  Each renamed move shares its X1
    move's words (`Move.renamed`).  Raises ScheduleError if X1's run
    is not of this knot, n and piece, if X1's initial state, rotated and
    renamed, is not X2's, or if X1's trace was read from a file, which
    records only a summary of the initial state.
    """
    cx1, trace1 = x1

    def mismatch(why: str) -> ScheduleError:
        return ScheduleError(f"cannot derive X2 of {spec} at n={n} from X1: {why}")

    if (trace1.knot, trace1.n, trace1.piece) != (spec, n, "X1"):
        raise mismatch(f"the given run is {trace1.piece} of {trace1.knot} at n={trace1.n}")
    if trace1.summarised:
        raise mismatch("its trace records only a summary of the initial state (a trace read from a file); "
                       "run X2's schedule instead")
    if trace1.final is None or [h.id for h in cx1.two_handles] != [h["id"] for h in trace1.final["two_handles"]]:
        raise mismatch("the given complex is not the final complex of its trace")
    entries = trace1.initial["two_handles"]
    half = (len(entries) - 1) // 2
    pairs = list(zip(entries[half:-1] + entries[:half] + entries[-1:], start2.two_handles))
    initial = word_state(start2)
    if {**trace1.initial, "two_handles": [dict(h, id=h2.id) for h, h2 in pairs]} != initial:
        raise mismatch("X1's initial state, renamed and rotated, is not X2's")
    ids = {h["id"]: h2.id for h, h2 in pairs}
    try:
        moves = [m.renamed(ids) for m in trace1.moves]
        words = {ids[h.id]: h.word for h in cx1.two_handles}
    except KeyError as err:
        raise mismatch(f"X1 names a handle X2 does not have ({err})") from err

    survivors = [TwoHandle(h.id, h.origin, h.phi_image, words[h.id], h.framing)
                 for h in start2.two_handles if h.id in words]
    cx = HandleComplex(start2.surface, set(cx1.one_handles), survivors, start2.zero_handles)
    # Renaming keeps each cancel's letter and relator, so X2 warns where X1 does.
    warnings = weak_cancellations(moves) if trace1.warnings else []
    return cx, MoveTrace(spec, n, "X2", initial, moves, word_state(cx), dict(trace1.certificate), warnings)


def run_schedule(
    knot: Knot | str,
    n: int = 1,
    piece: str = "X1",
    x1: tuple[HandleComplex, MoveTrace] | None = None,
) -> tuple[HandleComplex, MoveTrace]:
    """Run the full cancellation schedule for one piece.

    Returns the final complex (no 1-handles, 6n-1 two-handles) and the
    replayable trace.  Raises ScheduleError, with the failure recorded in
    the attached trace, if any move, single-crossing check or count check
    fails.

    With `x1`, X1's finished (complex, trace) of the same knot and n, the
    X2 result is derived from it by renaming handle ids instead of
    running X2's schedule (see the module docstring); the result is the
    same, byte for byte.  A mismatched `x1` raises ScheduleError.  An
    unknown piece, n < 1 and a non-fibered knot raise ValueError, the last
    two from `build_pieces`.
    """
    if isinstance(knot, str):
        knot = parse_knot_spec(knot)
    if piece not in ("X1", "X2"):
        raise ValueError(f"piece must be X1 or X2, got {piece!r}")
    if x1 is not None and piece != "X2":
        raise ValueError(f"only X2 is derived from X1, got piece {piece!r}")

    piece1, piece2 = build_pieces(knot, n)
    cx = complex_from_piece(piece1 if piece == "X1" else piece2)
    if x1 is not None:
        return _derive_x2(knot.spec_str(), n, cx, x1)
    run = _Run(cx, knot.spec_str(), n, piece)

    if isinstance(knot, StallingsKnot):
        _stallings_script(run, knot)
    else:
        _phase_a(run)
    if n >= 2:
        _chain_phase(run)
    _phase_c(run)

    try:
        run.trace.final, run.trace.certificate, run.trace.warnings = finish(cx, run.trace.moves, n)
    except MoveError as err:
        raise run.fail(str(err), err.word) from err
    return cx, run.trace


def run_both(knot: Knot | str, n: int = 1) -> dict[str, tuple[HandleComplex, MoveTrace]]:
    """Run X1's schedule and derive X2's result from it by renaming handle ids.

    The only caller that passes `x1` to `run_schedule`; each call still
    builds both pieces twice, once per `run_schedule`.
    """
    if isinstance(knot, str):
        knot = parse_knot_spec(knot)
    x1 = run_schedule(knot, n, "X1")
    return {"X1": x1, "X2": run_schedule(knot, n, "X2", x1=x1)}


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
