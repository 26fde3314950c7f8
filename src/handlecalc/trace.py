"""Replayable move traces, and the one move executor.

Schema "handlecalc/6": a trace file holds the knot spec, the index n,
the piece, a summary of the initial complex (the SHA-256 of its
canonical JSON and its handle counts), the move list and the final
state, and nothing else: each fact is stated once.  A 2-handle id names
the handle's block and its place in it (`p07`, `w07`, `dF`; see
`start_handles`), so X1's and X2's traces name a handle alike, and
a state holds a 2-handle as its id and word alone: the knot and n
rebuild its curve, block and framing.  Older schemas are refused.
The initial complex is rebuilt from the knot spec; a move records no
digest of the target's word before or after it, since replay re-derives
both words from the moves before it; the handle counts are those of the
final state; and the weak cancellations are a query on the moves
(`weak_cancellations`), not a field.  A failed schedule writes no trace:
its `ScheduleError` carries the message, the word and the partial trace.

A file holds five kinds of record (the trace, its initial summary, a
move, the final state and its 2-handles), each declared
once as a table of its fields, in the order they are written, with their
JSON types.  One reader, `_read`, reads every record through its table,
so a malformed document is refused with `MoveError` before replay,
naming the record and the field.  A value must be of its JSON type
exactly: a bool is no int, and 1.0 is no 1.

Words are tuples in memory and text only in the file.  A `Move` holds
its relator, shared prefix and after-word as words; a `MoveTrace` holds
its initial and final states, and `finish` returns the final one, as
word states (`word_state`, whose 2-handle words are tuples).  `to_json`
spells the words and `from_json` parses each word field once, so a
schedule run, and `full_report`, neither formats nor parses a word.  A
trace a schedule returns holds its full initial state; a trace read from
a file holds only the summary.

`execute` applies one slide, eliminate or cancel to a complex and returns
the move's full record; a schedule makes each step of its plan
(`schedules.plan`) through it, and makes no move otherwise.  Replay
rebuilds the initial complex from the knot spec (`build_pieces` keeps the
pieces of the last two (knot, n), so replaying both traces of one
document builds them once), re-derives every move with `execute` from
the live complex (an eliminate's relator is the word of the live helper
it names, never a word from the trace) and requires each recorded move
to equal the re-derived one, field for field, words compared as words.
The moves must finish the piece (`finish`, the end check the schedules
make too) and the final state must be the one it returns, so every field
a trace holds is checked.  The initial summary and the final state are
compared as values, words as words, not as JSON text.  That is as strict,
since the reader types every value of both (the final 1-handle list is
typed only as a list, but `finish` requires it empty).  A weak
cancellation (see `weak_cancellations`) replays like any other.

X2 is replayed by rotation where it follows its X1.  On accepting an X1
trace, replay keeps a one-slot record of it, as values only: the knot
spec and n, the moves (a `Move` is frozen), X1's rebuilt start state in
text form, and its final state.  Starting an X1 replay empties the
record; nothing else fills it, not `run_schedule` nor `run_both`, so
the checker never trusts the engine.  An X2 trace of
that knot and n whose moves equal the record's, while `build_pieces`
gives X2's cycles as X1's rotated by |W|, is checked without a move: the
digest of X1's start text, rotated (`rotate_x1`), must be X2's recorded
summary, and X1's survivors, in X2's order, its recorded `final`.  This is
sound because `execute` reads only handle ids, words and live letters,
and X2's start is X1's under the same ids in another order: the moves
that re-derived on X1's rebuilt complex re-derive identically on its
rotation, and `finish` passes on it as it did on X1.  So such an X2 trace
is accepted, or refused with the same message, exactly as the full
replay would; any other X2 trace gets the full replay.

X2 is written by rotation where it follows its X1, as the file lists
them.  `to_json` of a finished X1 trace that holds its full initial
state keeps a one-slot record of the document, as values that nothing
else holds: the knot spec and n, the moves, copies of X1's initial and
final word states, their text forms, and the move records written.
Writing any other X1 trace empties it.  An X2 trace of that knot and n
whose moves equal the record's, and whose initial and final states are
X1's rotated by `rotate_x1`, words compared as words, is written from
the record: the summary of X1's start text, rotated, copies of X1's move
records, and X1's final text, rotated.  The text of a word is a function
of the word, so the document is the one spelled from X2's own state,
byte for byte; any other trace is spelled from its own state.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

from .complexes import (
    HandleComplex,
    MoveError,
    TwoHandle,
    cancel,
    complex_from_piece,
    eliminate_letter,
    is_isolated,
    slide_words,
)
from .factorization import LFPiece, build_pieces
from .knots import parse_knot_spec
from .surfaces import FiberSurface
from .words import Word, _shown, _shown_set, handle_occurrences, parse_word, reduce_word, word_str

SCHEMA = "handlecalc/6"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1

#: The JSON type of a field that holds a word: text in a file, a tuple in memory, null if opaque.
WORD = "word"

#: The records of a trace file, each a table of its fields in the order
#: they are written, with their JSON types.  A document is `schema`, then
#: the trace fields; only the first two move fields are required.
_TRACE_FIELDS = {"knot": str, "n": int, "piece": str, "initial": dict, "moves": list, "final": dict}
_SUMMARY_FIELDS = {"digest": str, "one_handles": int, "two_handles": int}
_MOVE_FIELDS = {"kind": str, "target": str, "over": str, "letter": int,
                "relator": WORD, "shared_prefix": WORD, "after_word": WORD}
_STATE_FIELDS = {"one_handles": list, "two_handles": list}
_HANDLE_FIELDS = {"id": str, "word": WORD}

OPAQUE_TEXT = "<opaque>"
REMOVED_TEXT = "<removed>"

# No trace field holds a word digest.  `fnv1a64`, `word_digest`,
# `_REMOVED_DIGEST`, `Move.before_word` and the `Move.before`/`Move.after`
# properties stay only because `bench/tracer.py` reads `before` and `after`
# in its move signature and counts `fnv1a64` calls; they go when the
# benchmark stops reading them.


def fnv1a64(text: str) -> str:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return f"{h:016x}"


#: The `after` digest of every cancel: its target is removed.
_REMOVED_DIGEST = fnv1a64(REMOVED_TEXT)


def word_digest(w: Word | None) -> str:
    return fnv1a64(OPAQUE_TEXT if w is None else word_str(w))


def word_state(cx: HandleComplex) -> dict:
    """The form a trace holds: the live 1-handles, sorted, and each 2-handle's id and word (a tuple, None if opaque).

    Its keys are `_STATE_FIELDS` and `_HANDLE_FIELDS`, spelled out because every schedule run makes one.
    """
    return {
        "one_handles": sorted(cx.one_handles),
        "two_handles": [{"id": h.id, "word": h.word} for h in cx.two_handles],
    }


def state_text(state: dict) -> dict:
    """A word state with its words spelled as text: the form a trace file records.

    It shares no container with `state`, so a change to either leaves the other as it was.
    """
    return {"one_handles": list(state["one_handles"]),
            "two_handles": [{"id": h["id"], "word": None if h["word"] is None else word_str(h["word"])}
                            for h in state["two_handles"]]}


def _state_copy(state: dict) -> dict:
    """A word state or text form with new containers: its lists and 2-handle entries copied, its words shared."""
    return {"one_handles": list(state["one_handles"]), "two_handles": [dict(h) for h in state["two_handles"]]}


def state_summary(state: dict) -> dict:
    """A word state as a trace file records its initial one: SHA-256 digest of its text form, and counts."""
    return _text_summary(state_text(state))


def _text_summary(text: dict) -> dict:
    """The summary of a word state's text form, digested as sorted-key JSON without spaces."""
    canonical = json.dumps(text, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return dict(zip(_SUMMARY_FIELDS, (f"sha256:{digest}", len(text["one_handles"]), len(text["two_handles"]))))


def rotate_x1(initial: dict, final: dict) -> tuple[dict, dict]:
    """X2's initial and final states from X1's: the one statement of the rotation by |W|.

    X2's factorization is X1's rotated by |W| and a handle's id names its
    block and its place in it, so X2 starts with X1's 2-handles rotated by
    |W|, the fiber boundary `dF` last in both, under the same ids; making
    X1's moves, it keeps X1's survivors with their final words, in that
    order.  Either state may be a word state or its text form; the states
    returned share their 2-handle entries with the ones given.
    """
    entries = initial["two_handles"]
    half = (len(entries) - 1) // 2
    start = entries[half:-1] + entries[:half] + entries[-1:]
    survivors = {h["id"]: h for h in final["two_handles"]}
    kept = [survivors[h["id"]] for h in start if h["id"] in survivors]
    return {**initial, "two_handles": start}, {**final, "two_handles": kept}


def complex_of_state(surface: FiberSurface, state: dict) -> HandleComplex:
    """A new complex on `surface` that holds a word state: its live 1-handles and its 2-handles, in order."""
    survivors = [TwoHandle(h["id"], h["word"]) for h in state["two_handles"]]
    return HandleComplex(surface, set(state["one_handles"]), survivors)


def _read(where: str, record, fields: dict, required: int | None = None) -> dict:
    """A record of a file as its table `fields` declares it, in table order, each word parsed once.

    Raises MoveError, naming `where` and the field, unless the record is an
    object that holds every field (the first `required`, if given; a field
    left out reads as None), each of exactly its JSON type (a bool is no
    int; a word is text that spells one, or null), and no other key.
    """
    if not isinstance(record, dict):
        raise MoveError(f"{where} must be an object, got {type(record).__name__}")
    if not record.keys() <= fields.keys():  # quote at most 3 names, each cut after 32 characters
        unknown = sorted(record.keys() - fields.keys(), key=str)
        names = ", ".join(_shown(name, 32) for name in unknown[:3])
        more = f" and {len(unknown) - 3} more" if len(unknown) > 3 else ""
        raise MoveError(f"{where} has unknown field(s) {names}{more}")
    values = dict.fromkeys(fields)
    for k, (name, kind) in enumerate(fields.items()):
        if name not in record:
            if required is None or k < required:
                raise MoveError(f"{where} lacks required field {name!r}")
            continue
        value = record[name]
        json_type = str if kind is WORD else kind
        if value is None and kind is WORD:
            continue
        if type(value) is not json_type:  # exact, so a bool is no int
            raise MoveError(f"{where} field {name!r} must be {json_type.__name__}, got {_shown(value)}")
        if kind is WORD:
            try:
                value = parse_word(value)
            except ValueError as err:
                raise MoveError(f"{where}: {err} in field {name!r}") from None
        values[name] = value
    return values


@dataclass(frozen=True, slots=True)
class Move:
    """One replayable move, its words held as tuples; frozen, so a move cannot change once made or read.

    `relator`, `shared_prefix` and `after_word` are words, or None where
    the move has none.  Two moves are equal when every field a file
    records is.  `before_word`, the target's word before the move, is None
    in a move read from a file and takes no part in equality.
    """

    kind: str  # slide | eliminate | cancel
    target: str
    over: str | None = None
    letter: int | None = None
    relator: Word | None = None
    shared_prefix: Word | None = None
    after_word: Word | None = None
    before_word: Word | None = field(default=None, compare=False)

    @property
    def before(self) -> str:
        """The digest of the target's word before the move."""
        return word_digest(self.before_word)

    @property
    def after(self) -> str:
        """The digest of the target's word after the move: that of `<removed>` for a cancel."""
        return _REMOVED_DIGEST if self.after_word is None else word_digest(self.after_word)

    def to_json(self) -> dict:
        """The fields in `_MOVE_FIELDS` order, words as text; unset optional fields are left out."""
        out = {}
        for name, kind in _MOVE_FIELDS.items():
            value = getattr(self, name)
            if value is not None:
                out[name] = word_str(value) if kind is WORD else value
        return out


@dataclass
class MoveTrace:
    """A piece's move trace.  `initial` is the full initial word state in a
    trace a schedule returns, and its `state_summary` in one read from a
    file; `final` is a word state, None only in the partial trace of a
    failed run.  `to_json` spells both as the file records them."""

    knot: str
    n: int
    piece: str
    initial: dict
    moves: list[Move] = field(default_factory=list)
    final: dict | None = None

    def to_json(self) -> dict:
        """The file form: `schema`, then `_TRACE_FIELDS` in order, words as text.

        It shares no container with the trace, nor with the record of the
        last X1 document written: a finished X1 trace that holds its full
        initial state leaves that record, and an X2 trace that is its
        rotation is written from it (see the module docstring), with the
        same text as spelled from its own state.

        >>> from handlecalc import run_schedule
        >>> doc = run_schedule("twobridge:+,+", 1, "X1")[1].to_json()
        >>> doc["schema"], list(doc), list(doc["final"])  # doctest: +NORMALIZE_WHITESPACE
        ('handlecalc/6', ['schema', 'knot', 'n', 'piece', 'initial', 'moves', 'final'],
         ['one_handles', 'two_handles'])
        """
        global _written_x1
        out = {"schema": SCHEMA, **{name: getattr(self, name) for name in _TRACE_FIELDS}}
        record = _written_x1
        if self.piece == "X2" and record is not None and record.rotates_to(self):
            start, final = rotate_x1(record.initial_text, record.final_text)
            out["initial"] = _text_summary(start)
            out["moves"] = [dict(m) for m in record.move_docs]
            out["final"] = _state_copy(final)
            return out
        full = self.final is not None and not self.summarised
        if full:
            initial_text = state_text(self.initial)
            out["initial"] = _text_summary(initial_text)
        else:
            out["initial"] = dict(self.initial_summary())  # a read trace holds its summary as this very dict
        out["moves"] = [m.to_json() for m in self.moves]
        out["final"] = None if self.final is None else state_text(self.final)
        if self.piece == "X1":
            _written_x1 = None if not full else _WrittenX1(
                self.knot, self.n, tuple(self.moves), _state_copy(self.initial), _state_copy(self.final),
                initial_text, _state_copy(out["final"]), tuple(dict(m) for m in out["moves"]))
        return out

    @staticmethod
    def from_json(d: dict) -> "MoveTrace":
        """A trace from its file form, every record read through its table by `_read`."""
        if isinstance(d, dict) and d.get("schema") != SCHEMA:
            raise MoveError(f"unsupported trace schema {_shown(d.get('schema'))}: "
                            f"this version reads {SCHEMA!r} only; re-run `handlecalc cancel --trace` to write one")
        values = _read("trace", d, {"schema": str, **_TRACE_FIELDS})
        del values["schema"]
        values["initial"] = _read("initial", values["initial"], _SUMMARY_FIELDS)
        values["moves"] = [Move(**_read(f"move {k}", m, _MOVE_FIELDS, required=2))
                           for k, m in enumerate(values["moves"])]
        final = values["final"] = _read("final", values["final"], _STATE_FIELDS)
        final["one_handles"] = list(final["one_handles"])  # the trace shares no container with `d`
        final["two_handles"] = [_read(f"final 2-handle {k}", h, _HANDLE_FIELDS)
                                for k, h in enumerate(final["two_handles"])]
        return MoveTrace(**values)

    @property
    def summarised(self) -> bool:
        """Whether `initial` holds only the summary, as in a trace read from a file."""
        return "digest" in self.initial

    def initial_summary(self) -> dict:
        """The `initial` field as the file records it."""
        return self.initial if self.summarised else state_summary(self.initial)


@dataclass(frozen=True, slots=True)
class _WrittenX1:
    """The X1 document last written, as values that nothing else holds.

    `initial` and `final` are copies of X1's word states, `initial_text`
    and `final_text` their text forms, and `move_docs` its move records.
    """

    knot: str
    n: int
    moves: tuple[Move, ...]
    initial: dict
    final: dict
    initial_text: dict
    final_text: dict
    move_docs: tuple[dict, ...]

    def rotates_to(self, trace: MoveTrace) -> bool:
        """Whether `trace` has this X1's knot, n and moves, and its states rotated by `rotate_x1`, words compared as words."""
        return ((self.knot, self.n, self.moves) == (trace.knot, trace.n, tuple(trace.moves))
                and rotate_x1(self.initial, self.final) == (trace.initial, trace.final))


#: The one-slot record: `MoveTrace.to_json` fills it on writing an X1 trace, or empties it.
_written_x1: _WrittenX1 | None = None


def weak_cancellations(moves: list[Move]) -> list[str]:
    """One line per weak cancellation: a cancel whose relator crosses 1-handles besides its letter.

    A weak cancellation is as legal as any: the word still crosses the
    co-core once up to free reduction, the level a trace certifies, and
    the freed relator rewrites every other word off the letter.  The isolated
    form the schedules aim for is tidier, not stronger.  This is the one
    query that lists them; it reads only each cancel's letter, target and
    relator, so a trace read back gives the list its run would.  A cancel
    read back without its letter or relator raises MoveError naming the move and the field.
    """
    for k, m in enumerate(moves):
        for name in ("letter", "relator") if m.kind == "cancel" else ():
            if getattr(m, name) is None:
                raise MoveError(f"move {k}: cancel on {m.target} lacks field {name!r}")
    return [
        f"weak cancellation of a{m.letter} against {m.target}: "
        f"word {word_str(m.relator)!r} is not over alpha_0/a{m.letter} alone"
        for m in moves
        if m.kind == "cancel" and not is_isolated(m.relator, m.letter)
    ]


def finish(cx: HandleComplex, n: int) -> dict:
    """The final word state of a piece whose moves are all made.

    Raises MoveError unless no 1-handle is live (the upside-down X2 would
    make it a 3-handle), 6n - 1 two-handles remain and every word runs over live letters.
    """
    if cx.one_handles:
        raise MoveError(f"piece ends with live 1-handles {_shown_set(cx.one_handles)}")
    expected = 6 * n - 1
    if len(cx.two_handles) != expected:
        raise MoveError(f"piece ends with {len(cx.two_handles)} 2-handles, expected {expected}")
    cx.check_live_letters()
    return word_state(cx)


class ReplayError(MoveError):
    """A recorded trace does not match what its knot spec and moves re-derive."""


def execute(
    cx: HandleComplex,
    kind: str,
    target: str,
    over: str | None = None,
    letter: int | None = None,
    shared_prefix: Word | None = None,
) -> Move:
    """Apply one move to the complex and return its full record.

    * slide: the target slides over the live handle `over`, along
      `shared_prefix` when one is given;
    * eliminate: every alpha_letter in the target is rewritten through the
      word of the live helper `over`;
    * cancel: the target cancels the 1-handle alpha_letter.

    Raises MoveError on an opaque target or helper, on a slide or
    eliminate that names no helper, on a cancel or eliminate that names
    no letter, on an eliminate whose target does not cross its letter,
    and on a handle moved over itself.  A rejected move leaves the
    complex as it was.
    """
    h = cx.handle(target)
    word = h.word
    if kind == "cancel":
        if letter is None:
            raise MoveError(f"cancel on {target} names no letter")
        result = cancel(cx, letter, target)
        return Move(kind, target, letter=letter, relator=result.relator, before_word=word)
    if kind not in ("slide", "eliminate"):
        raise MoveError(f"unknown move kind {_shown(kind)}")
    if over is None:
        raise MoveError(f"{kind} on {target} names no helper")
    helper = cx.handle(over)
    if helper is h:
        raise MoveError(f"cannot {kind} handle {target} over itself")
    over_word = helper.word
    if word is None or over_word is None:
        raise MoveError(f"cannot {kind} with opaque handle {target if word is None else over}")
    if kind == "slide":
        after = h.word = slide_words(word, over_word, shared_prefix)
        prefix = None if shared_prefix is None else reduce_word(shared_prefix)
        return Move(kind, target, over, shared_prefix=prefix, before_word=word, after_word=after)
    if letter is None:
        raise MoveError(f"eliminate on {target} names no letter")
    if not handle_occurrences(word, letter):  # a repeated eliminate would change nothing
        raise MoveError(f"eliminate on {target}: its word does not cross a{_shown(letter)}")
    after = h.word = eliminate_letter(word, over_word, letter)
    return Move(kind, target, over, letter, over_word, before_word=word, after_word=after)


@dataclass(frozen=True, slots=True)
class _AcceptedX1:
    """The X1 replay last accepted, as values that nothing else holds.

    `start` is X1's rebuilt start state in text form and `final` its final
    word state.
    """

    knot: str
    n: int
    moves: tuple[Move, ...]
    start: dict
    final: dict


#: The one-slot record: only `replay` fills it, on accepting an X1 trace, and it empties it on starting one.
_accepted_x1: _AcceptedX1 | None = None


def _is_rotation(x1: LFPiece, x2: LFPiece) -> bool:
    """Whether X2's factorization is X1's rotated by |W|, on the same fiber."""
    f = x1.factorization
    half = len(f.cycles) // 2
    return x2.factorization == replace(f, cycles=f.cycles[half:] + f.cycles[:half])


def _rederive(cx: HandleComplex, trace: MoveTrace) -> dict:
    """Re-derive the trace's moves on `cx`, each to equal its record, and return the state `finish` gives."""
    for k, move in enumerate(trace.moves):
        try:
            got = execute(cx, move.kind, move.target, move.over, move.letter, move.shared_prefix)
        except MoveError as err:
            raise ReplayError(f"move {k}: {err}") from err
        if got != move:
            wrong = ", ".join(name for name in _MOVE_FIELDS if getattr(got, name) != getattr(move, name))
            raise ReplayError(f"move {k}: {move.kind} on {move.target} does not reproduce its {wrong}")
    try:
        return finish(cx, trace.n)
    except MoveError as err:
        raise ReplayError(f"the moves do not finish {trace.piece}: {err}") from err


def replay(trace: MoveTrace) -> HandleComplex:
    """Rebuild the trace's piece from its knot spec and re-derive every move.

    The knot spec must be written as the engine writes it, and the rebuilt
    complex must match the recorded initial state (its summary, for a
    trace read from a file); each recorded move must equal, field for
    field, the move `execute` derives from the live complex; the moves
    must finish the piece, and the final state must be the one `finish`
    returns.  Weak cancellations replay like any other.  Any mismatch, or
    a move the executor rejects, raises ReplayError.

    An X2 trace of the knot and n of the X1 replay just accepted, with
    that replay's moves, is checked against that replay rotated, and no
    move is made again (see the module docstring).  It is accepted or
    refused, with the same message, exactly as the full replay would.
    """
    global _accepted_x1
    if trace.piece not in ("X1", "X2"):
        raise ReplayError(f"unknown piece {_shown(trace.piece)}")
    if trace.piece == "X1":
        _accepted_x1 = None
    try:
        knot = parse_knot_spec(trace.knot)
        x1, x2 = build_pieces(knot, trace.n)
    except ValueError as err:  # KnotSpecError, a non-fibered knot, n out of range, an input above the limits
        raise ReplayError(f"cannot rebuild {trace.piece} of {_shown(trace.knot)} "
                          f"at n={_shown(trace.n)}: {err}") from err
    spec = knot.spec_str()
    if spec != trace.knot:
        raise ReplayError(f"knot spec {_shown(trace.knot)} is not written as the engine writes it, {_shown(spec)}")
    record = _accepted_x1  # None for an X1 trace, which emptied it
    rotated = (record is not None and (record.knot, record.n) == (spec, trace.n)
               and record.moves == tuple(trace.moves) and _is_rotation(x1, x2))
    if rotated:
        start, final = rotate_x1(record.start, record.final)
    else:
        cx = complex_from_piece(x1 if trace.piece == "X1" else x2)
        start = state_text(word_state(cx))
    if _text_summary(start) != trace.initial_summary():
        raise ReplayError(f"initial state is not that of {trace.piece} of {_shown(spec)} at n={trace.n}")
    if rotated:
        cx = complex_of_state(x2.factorization.fiber, final)
    else:
        final = _rederive(cx, trace)
    if final != trace.final:
        raise ReplayError("final complex state mismatch")
    if trace.piece == "X1":
        _accepted_x1 = _AcceptedX1(spec, trace.n, tuple(trace.moves), start, final)
    return cx


__all__ = [
    "SCHEMA",
    "fnv1a64",
    "word_digest",
    "word_state",
    "state_text",
    "state_summary",
    "Move",
    "MoveTrace",
    "ReplayError",
    "execute",
    "weak_cancellations",
    "finish",
    "replay",
]
