"""Cancellation schedules: drive each piece to a complex with no 1-handles.

A schedule is a plan (`plan(knot, n)`): a tuple of steps, each a phase
and the arguments of one `trace.execute` call.  Its shape depends on the
knot family, g and n alone, and it names every handle by id
(`start_handles`): `wKK` is W's cycle at place KK and `pKK` its image
under phi, so the ids follow from places in W.  With base = 4n - 4, W's
B_i sits at place base + i, and c_j first occurs at place 2n - 2 - j.
No step reads a word; the only word a plan holds is K_m's shared
prefix.  Four phases, in this order:

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

  Chain phase (n >= 2): the 2-handles of c_1, c_2, ..., c_{2n-2}, each
  at its first place in W, cancel alpha_{4g+2n-3}, then the even letters
  downward and the odd letters below: c_j cancels alpha_{4g+2n-j}, less
  2 for odd j.

  Phase C: for i = 1..2g, the untouched B_{2g+1-i} handle crosses
  alpha_{2g+i} once; cancel.

`run_schedule` executes the plan step by step through `execute`, the
call replay makes too (`trace._rederive`), and logs each move it returns.
Every cancellation composes the relator it frees into the complex's
elimination table (`complexes.cancel`), and a word is brought up to date
through that table where it is read, so no word as read mentions a
cancelled letter: the "slide over the earlier helpers" steps of the
later phases are done by the cancellations themselves and the trace
records only the moves the schedule makes.  A failed step or
single-crossing check aborts with a ScheduleError that carries the
offending word and the partial trace: that is the falsification channel
for the underlying curve computations.  A failed step's message begins
`phase <P>, step <k>:`, k its index in the plan and so in the trace,
and its word is the target's as the failure left it, None if no live
handle has the target's id.  A cancel whose relator crosses
other 1-handles besides its letter is a legal, weak cancellation;
`trace.weak_cancellations(moves)` lists them, and no run keeps them on
the side.

X2 from X1: X2's factorization W.phi(W) is X1's phi(W).W rotated by |W|,
and a handle's id names its block and its place in it, so both pieces
execute the one plan: X2's run makes X1's moves, with the same ids, on
X1's words.  `run_both`
therefore runs X1's schedule once and derives X2's complex and trace from
X1's trace by rotation alone (`_derive_x2`, through `trace.rotate_x1`, the
one place the rotation is stated; `replay` rotates an accepted X1 replay
through it too).  A guard first requires the X1 trace to be of the same
knot, n and piece X1, to be finished, and its initial state, rotated, to
equal X2's start state; any mismatch raises ScheduleError.
`run_schedule(knot, n, "X2")` without `x1` still runs the full X2
schedule, which the tests use as the oracle for the derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .complexes import HandleComplex, MoveError, _block_ids, complex_from_piece, start_handles
from .factorization import LFPiece, build_pieces
from .knots import Knot, StallingsKnot, parse_knot_spec
from .surfaces import chain_curve, eta_word
from .trace import MoveTrace, complex_of_state, execute, finish, rotate_x1, word_state
from .twists import twist_images
from .words import Word, _shown, _shown_set, alpha, concat


class ScheduleError(RuntimeError):
    """A cancellation assertion failed; carries the offending word and the trace."""

    def __init__(self, message: str, word: Word | None = None, trace: MoveTrace | None = None):
        super().__init__(message)
        self.word = word
        self.trace = trace


class Step(NamedTuple):
    """One step of a plan: its phase (A, Stallings, chain or C), then `execute`'s arguments after the complex."""

    phase: str
    kind: str
    target: str
    over: str | None = None
    letter: int | None = None
    shared_prefix: Word | None = None


def _stallings_script(knot: StallingsKnot, n: int, h: tuple[str, ...], b: tuple[str, ...]) -> list[Step]:
    """K_m's steps in place of Phase A; `h` holds the ids of phi_m(B_0)..phi_m(B_3), `b` those of B_0..B_3."""
    h0, h1, h2, h3 = h

    # H_1 and H_3 share the initial subpath eta * t_{a3}^m(alpha_3) with
    # H_2 (conjugated by alpha_0 when n >= 2); the double slides run along
    # that subpath, not along a common suffix.
    conj = () if n == 1 else (alpha(0),)
    t_a3 = dict(twist_images(chain_curve(3), knot.m))  # the piece twist (a3, m)
    prefix = concat(conj, eta_word(), t_a3[alpha(3)])
    return [Step("Stallings", "slide", *pair) for pair in zip(h, b)] + [
        Step("Stallings", "slide", h1, h2, shared_prefix=prefix),  # the H_{1,2} double slide
        Step("Stallings", "slide", h3, h2, shared_prefix=prefix),  # the H_{3,2} double slide
        Step("Stallings", "cancel", h1, letter=2),
        # Sliding over the H_{3,2} double slide eliminates its single alpha_4
        # crossing; each cancellation has already rewritten the cancelled
        # letters out of every surviving word.
        Step("Stallings", "eliminate", h0, h3, 4),
        Step("Stallings", "cancel", h0, letter=3),
        Step("Stallings", "eliminate", h2, h3, 4),
        Step("Stallings", "cancel", h2, letter=1),
        Step("Stallings", "cancel", h3, letter=4),
    ]


def plan(knot: Knot, n: int) -> tuple[Step, ...]:
    """The steps of the knot's schedule at n, the same for both pieces (see the module docstring).

    Computed from ids alone: no complex is built and no word is read,
    except that K_m's double slides hold their shared prefix.  The knot
    and n must be ones `build_pieces` accepts.
    """
    g = knot.genus
    w, p = _block_ids(2 * g + 4 * n - 2)
    base = 4 * n - 4  # W's place of B_0
    if isinstance(knot, StallingsKnot):
        steps = _stallings_script(knot, n, p[base : base + 4], w[base : base + 4])
    else:
        steps = []
        for i in range(1, 2 * g + 1):
            steps += [Step("A", "slide", p[base + i - 1], w[base + i - 1]),
                      Step("A", "cancel", p[base + i - 1], letter=i)]
    # c_j first occurs at place 2n - 2 - j and cancels alpha_{4g+2n-j}, less 2 for odd j.
    steps += [Step("chain", "cancel", w[2 * n - 2 - j], letter=4 * g + 2 * n - j - 2 * (j % 2))
              for j in range(1, 2 * n - 1)]
    steps += [Step("C", "cancel", w[base + 2 * g + 1 - i], letter=2 * g + i) for i in range(1, 2 * g + 1)]
    return tuple(steps)


def _live_word(cx: HandleComplex, hid: str) -> Word | None:
    """The word of the live 2-handle `hid`, None if no live handle has that id."""
    try:
        return cx.handle(hid).word
    except MoveError:
        return None


def _derive_x2(spec: str, n: int, piece2: LFPiece, trace1: MoveTrace) -> tuple[HandleComplex, MoveTrace]:
    """X2's final complex and trace from X1's finished trace, by rotation alone.

    X2's start state is read off its piece (`start_handles`): X1's handles
    rotated by |W|, the fiber boundary handle last in both, under the same
    ids.  No start complex is built.  X2's moves are X1's `Move` objects,
    which are frozen, and its one complex holds X1's survivors with their
    final words, in the order `rotate_x1` gives, so `finish` is not run
    again.  Raises ScheduleError if X1's trace is not of this knot, n and
    piece, if it was read from a file, which records only a summary of the
    initial state, if it is partial, or if X1's initial state, rotated, is
    not X2's.  That guard compares ids and words, exactly what `execute`
    reads, so X2's result is then X1's rotated.
    """

    def mismatch(why: str) -> ScheduleError:
        return ScheduleError(f"cannot derive X2 of {spec} at n={n} from X1: {why}")

    if (trace1.knot, trace1.n, trace1.piece) != (spec, n, "X1"):
        raise mismatch(f"the given trace is {trace1.piece} of {trace1.knot} at n={trace1.n}")
    if trace1.summarised:
        raise mismatch("its trace records only a summary of the initial state (a trace read from a file); "
                       "run X2's schedule instead")
    if trace1.final is None:
        raise mismatch("its trace is partial: it has no final state")
    s = piece2.factorization.fiber
    initial = {"one_handles": list(range(1, s.num_handles + 1)),
               "two_handles": [{"id": hid, "word": word} for hid, word in start_handles(piece2)]}
    rotated, final = rotate_x1(trace1.initial, trace1.final)
    if rotated != initial:
        raise mismatch("X1's initial state, rotated, is not X2's")

    cx = complex_of_state(s, final)
    return cx, MoveTrace(spec, n, "X2", initial, list(trace1.moves), word_state(cx))


def run_schedule(
    knot: Knot | str,
    n: int = 1,
    piece: str = "X1",
    x1: MoveTrace | None = None,
) -> tuple[HandleComplex, MoveTrace]:
    """Run the full cancellation schedule for one piece.

    Returns the final complex (no 1-handles, 6n-1 two-handles) and the
    replayable trace.  Raises ScheduleError, carrying the offending word
    and the partial trace, if any step of `plan(knot, n)`, single-crossing
    check or count check fails; a failed step's message names its phase
    and its index in the plan.

    With `x1`, X1's finished trace of the same knot and n, the X2 result
    is derived from it by rotation instead of running X2's schedule (see
    the module docstring); the result is the same, byte for byte.  A
    mismatched or partial `x1` raises ScheduleError.  An
    unknown piece, n < 1 and a non-fibered knot raise ValueError, the last
    two from `build_pieces`.
    """
    if isinstance(knot, str):
        knot = parse_knot_spec(knot)
    if piece not in ("X1", "X2"):
        raise ValueError(f"piece must be X1 or X2, got {_shown(piece)}")
    if x1 is not None and piece != "X2":
        raise ValueError(f"only X2 is derived from X1, got piece {_shown(piece)}")

    piece1, piece2 = build_pieces(knot, n)
    if x1 is not None:
        return _derive_x2(knot.spec_str(), n, piece2, x1)
    cx = complex_from_piece(piece1 if piece == "X1" else piece2)
    trace = MoveTrace(knot.spec_str(), n, piece, word_state(cx))
    for k, step in enumerate(plan(knot, n)):
        try:
            trace.moves.append(execute(cx, *step[1:]))
        except MoveError as err:  # a rejected move changed nothing
            raise ScheduleError(f"phase {step.phase}, step {k}: {err}", _live_word(cx, step.target), trace) from err
    try:
        trace.final = finish(cx, n)
    except MoveError as err:
        raise ScheduleError(str(err), err.word, trace) from err
    return cx, trace


def run_both(knot: Knot | str, n: int = 1) -> dict[str, tuple[HandleComplex, MoveTrace]]:
    """Run X1's schedule and derive X2's result from its trace by rotation.

    The only caller that passes `x1` to `run_schedule`.  Both calls ask
    `build_pieces` for the pieces, which builds them once per (knot, n):
    the second call gets the pair the first one built.
    """
    if isinstance(knot, str):
        knot = parse_knot_spec(knot)
    x1 = run_schedule(knot, n, "X1")
    return {"X1": x1, "X2": run_schedule(knot, n, "X2", x1=x1[1])}


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
        raise ScheduleError(f"X1 still has 1-handles {_shown_set(x1.one_handles)}")
    if x2.one_handles:
        raise ScheduleError(f"X2 still has 1-handles {_shown_set(x2.one_handles)}")
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
    "Step",
    "plan",
    "run_schedule",
    "run_both",
    "HandleCounts",
    "assemble",
]
