"""Replayable move traces, and the one move executor.

Schema "handlecalc/3": a trace file holds the knot spec, the index n,
the piece, a summary of the initial complex (the SHA-256 of its
canonical JSON and its handle counts), the move list, the final state
and the certificate counts.  Nothing else is written that replay
re-derives: the initial complex is rebuilt from the knot spec, and a
move records no digest of the target's word before or after it, since
replay re-derives both words from the moves before it.

Words are tuples in memory and text only in the file.  A `Move` holds
its relator, shared prefix and after-word as words; a `MoveTrace` holds
its initial and final states, and `finish` returns the final one, as
word states (`word_state`, whose 2-handle words are tuples).  `to_json`
spells the words and `from_json` parses each word field once, so a
schedule run, and `full_report`, neither formats nor parses a word.  A
trace a schedule returns holds its full initial state; a trace read from
a file holds only the summary.

`execute` applies one slide, eliminate or cancel to a complex and returns
the move's full record; the schedules log moves only through it.  Replay
rebuilds the initial complex from the knot spec, re-derives every move
with `execute` from the live complex (an eliminate's relator is the word
of the live helper it names, never a word from the trace) and requires
each recorded move to equal the re-derived one, field for field, words
compared as words.  The moves must finish the piece (`finish`, the end
check the schedules make too), the final state, certificate and warnings
must be what it returns, and the error must be null, so every field a
trace prints is checked.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .complexes import (
    HandleComplex,
    MoveError,
    cancel,
    complex_from_piece,
    eliminate_letter,
    is_isolated,
    slide_words,
)
from .factorization import build_pieces
from .knots import parse_knot_spec
from .words import Word, parse_word, reduce_word, word_str

SCHEMA = "handlecalc/3"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1

#: Fields every trace document must carry, in the order they are read,
#: with their JSON types.  `final` and `certificate` are null in the trace
#: of a failed schedule, which replay rejects.  The optional `warnings`
#: must be a list of strings and `error` an object or null.  A document
#: holds no other key than these, `schema` and the optional ones.
_REQUIRED_FIELDS = {"knot": str, "n": int, "piece": str, "initial": dict,
                    "moves": list, "final": dict, "certificate": dict}
_NULLABLE_FIELDS = ("final", "certificate")
_TRACE_KEYS = {"schema", *_REQUIRED_FIELDS, "warnings", "error"}

#: The `initial` summary a trace file records, in order: a string digest, then counts.
_SUMMARY_FIELDS = ("digest", "zero_handles", "one_handles", "two_handles")

#: Move fields: the first two are required; all but `letter` are strings.
#: A move holds no other key.
_MOVE_FIELDS = ("kind", "target", "over", "letter", "relator", "shared_prefix", "after_word")
#: The move fields that hold a word, spelled as text in a file.
_WORD_FIELDS = ("relator", "shared_prefix", "after_word")

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
    """The complex's state with each 2-handle word a tuple (None if opaque): the form a trace holds."""
    return {
        "surface": {"g": cx.surface.g, "n": cx.surface.n},
        "zero_handles": cx.zero_handles,
        "one_handles": sorted(cx.one_handles),
        "two_handles": [
            {"id": h.id, "origin": str(h.origin), "phi": h.phi_image, "word": h.word, "framing": h.framing}
            for h in cx.two_handles
        ],
        "four_handle_pending": False,  # no move in this model adds a 4-handle
    }


def state_text(state: dict) -> dict:
    """A word state with its words spelled as text: the form a trace file records."""
    return {**state, "two_handles": [{**h, "word": None if h["word"] is None else word_str(h["word"])}
                                     for h in state["two_handles"]]}


def complex_state(cx: HandleComplex) -> dict:
    """The complex's state as a trace file records it, words as text."""
    return state_text(word_state(cx))


def _read_state(state: dict) -> dict:
    """`state_text`'s inverse on the `final` field of a trace file: each word parsed once."""
    handles = state.get("two_handles")
    if not isinstance(handles, list) or not all(isinstance(h, dict) and "word" in h for h in handles):
        raise MoveError("trace field 'final' must hold a list 'two_handles' of objects with a 'word'")
    parsed = []
    for k, h in enumerate(handles):
        where = f"final 2-handle {k}"
        try:
            parsed.append({**h, "word": _parsed("word", _typed(where, "word", h["word"], str))})
        except MoveError as err:
            raise MoveError(f"{where}: {err}") from None
    return {**state, "two_handles": parsed}


def _canonical(state: dict | None) -> str:
    """Sorted-key JSON, equal exactly when the values and their JSON types are; a word dumps as a list."""
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def state_summary(state: dict) -> dict:
    """A word state as a trace file records its initial one: SHA-256 digest of its text form, and counts."""
    digest = hashlib.sha256(_canonical(state_text(state)).encode("utf-8")).hexdigest()
    return {"digest": f"sha256:{digest}", "zero_handles": state["zero_handles"],
            "one_handles": len(state["one_handles"]), "two_handles": len(state["two_handles"])}


def _typed(where: str, name: str, value, kind: type, nullable: bool = True):
    """A field's value, if it has the given JSON type (or is an allowed null)."""
    if value is None and nullable:
        return None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise MoveError(f"{where} field {name!r} must be {kind.__name__}, got {value!r}")
    return value


def _parsed(name: str, text: str | None) -> Word | None:
    """The word a text field spells (None stays None); MoveError naming the field if it spells none."""
    if text is None:
        return None
    try:
        return parse_word(text)
    except ValueError as err:
        raise MoveError(f"{err} in field {name!r}") from None


def _refuse_unknown(where: str, d: dict, known) -> None:
    """Raise MoveError if the object holds a key the format does not name."""
    unknown = sorted(d.keys() - known, key=str)
    if unknown:
        raise MoveError(f"{where} has unknown field(s) {', '.join(map(repr, unknown))}")


@dataclass(slots=True)
class Move:
    """One replayable move, its words held as tuples.

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

    def renamed(self, ids: dict[str, str]) -> "Move":
        """The move with its handle ids mapped through `ids`."""
        return Move(self.kind, ids[self.target], None if self.over is None else ids[self.over], self.letter,
                    self.relator, self.shared_prefix, self.after_word, self.before_word)

    def to_json(self) -> dict:
        """The fields in `_MOVE_FIELDS` order, words as text; unset optional fields are left out."""
        out = {}
        for name in _MOVE_FIELDS:
            value = getattr(self, name)
            if value is not None:
                out[name] = word_str(value) if name in _WORD_FIELDS else value
        return out

    @staticmethod
    def from_json(d: dict) -> "Move":
        """A move from its file form, each word field parsed once."""
        if not isinstance(d, dict):
            raise MoveError(f"a move must be an object, got {type(d).__name__}")
        _refuse_unknown("move", d, _MOVE_FIELDS)
        for name in _MOVE_FIELDS[:2]:
            if d.get(name) is None:
                raise MoveError(f"move lacks required field {name!r}")
        values = {name: _typed("move", name, d.get(name), int if name == "letter" else str) for name in _MOVE_FIELDS}
        return Move(**{name: _parsed(name, value) if name in _WORD_FIELDS else value
                       for name, value in values.items()})


@dataclass
class MoveTrace:
    """A piece's move trace.  `initial` is the full initial word state in a
    trace a schedule returns, and its `state_summary` in one read from a
    file; `final` is a word state.  `to_json` spells both as the file
    records them; `error` is kept as recorded, its word as text."""

    knot: str
    n: int
    piece: str
    initial: dict
    moves: list[Move] = field(default_factory=list)
    final: dict | None = None
    certificate: dict | None = None
    warnings: list[str] = field(default_factory=list)
    error: dict | None = None

    def to_json(self) -> dict:
        out = {"schema": SCHEMA, **{name: getattr(self, name) for name in _REQUIRED_FIELDS}}
        out["initial"] = self.initial_summary()
        out["moves"] = [m.to_json() for m in self.moves]
        if self.final is not None:
            out["final"] = state_text(self.final)
        if self.warnings:
            out["warnings"] = self.warnings
        if self.error is not None:
            out["error"] = self.error
        return out

    @staticmethod
    def from_json(d: dict) -> "MoveTrace":
        if not isinstance(d, dict):
            raise MoveError(f"a trace must be an object, got {type(d).__name__}")
        if d.get("schema") != SCHEMA:
            raise MoveError(f"unsupported trace schema {d.get('schema')!r}: this version reads {SCHEMA!r} only; "
                            "re-run `handlecalc cancel --trace` to write one")
        _refuse_unknown("trace", d, _TRACE_KEYS)
        values = {}
        for name, kind in _REQUIRED_FIELDS.items():
            if name not in d:
                raise MoveError(f"trace lacks required field {name!r}")
            values[name] = _typed("trace", name, d[name], kind, name in _NULLABLE_FIELDS)
        if set(values["initial"]) != set(_SUMMARY_FIELDS):
            raise MoveError(f"trace field 'initial' must hold {', '.join(_SUMMARY_FIELDS)}, got {list(values['initial'])}")
        for name in _SUMMARY_FIELDS:
            _typed("initial", name, values["initial"][name], str if name == "digest" else int, nullable=False)
        moves = []
        for k, m in enumerate(values["moves"]):
            try:
                moves.append(Move.from_json(m))
            except MoveError as err:
                raise MoveError(f"move {k}: {err}") from None
        values["moves"] = moves
        if values["final"] is not None:
            values["final"] = _read_state(values["final"])
        warnings = _typed("trace", "warnings", d.get("warnings", []), list, nullable=False)
        if not all(isinstance(w, str) for w in warnings):
            raise MoveError(f"trace field 'warnings' must be a list of str, got {warnings!r}")
        return MoveTrace(**values, warnings=warnings, error=_typed("trace", "error", d.get("error"), dict))

    @property
    def summarised(self) -> bool:
        """Whether `initial` holds only the summary, as in a trace read from a file."""
        return "digest" in self.initial

    def initial_summary(self) -> dict:
        """The `initial` field as the file records it."""
        return self.initial if self.summarised else state_summary(self.initial)


def weak_cancellations(moves: list[Move]) -> list[str]:
    """One warning per cancel whose relator crosses 1-handles besides its letter.

    Read from each cancel's letter, target and relator only, so the
    schedules, the X2 derivation and replay derive the same list.
    """
    return [
        f"weak cancellation of a{m.letter} against {m.target}: "
        f"word {word_str(m.relator)!r} is not over alpha_0/a{m.letter} alone"
        for m in moves
        if m.kind == "cancel" and not is_isolated(m.relator, m.letter)
    ]


def finish(cx: HandleComplex, moves: list[Move], n: int) -> tuple[dict, dict, list[str]]:
    """The final state, certificate and warnings of a piece whose moves are all made.

    Raises MoveError unless no 1-handle is live (the upside-down X2 would
    make it a 3-handle), 6n - 1 two-handles remain and every word runs over live letters.
    """
    if cx.one_handles:
        raise MoveError(f"piece ends with live 1-handles {sorted(cx.one_handles)}")
    expected = 6 * n - 1
    if len(cx.two_handles) != expected:
        raise MoveError(f"piece ends with {len(cx.two_handles)} 2-handles, expected {expected}")
    cx.check_live_letters()
    return word_state(cx), {"one_handles": 0, "two_handles": expected}, weak_cancellations(moves)


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
    no letter, and on a handle moved over itself.
    """
    h = cx.handle(target)
    before = h.word
    if kind == "cancel":
        if letter is None:
            raise MoveError(f"cancel on {target} names no letter")
        result = cancel(cx, letter, target)
        return Move(kind, target, letter=letter, relator=result.relator, before_word=before)
    if kind not in ("slide", "eliminate"):
        raise MoveError(f"unknown move kind {kind!r}")
    if over is None:
        raise MoveError(f"{kind} on {target} names no helper")
    helper = cx.handle(over)
    if helper is h:
        raise MoveError(f"cannot {kind} handle {target} over itself")
    if h.word is None or helper.word is None:
        raise MoveError(f"cannot {kind} with opaque handle {target if h.word is None else over}")
    if kind == "slide":
        h.word = slide_words(h.word, helper.word, shared_prefix)
        prefix = None if shared_prefix is None else reduce_word(shared_prefix)
        return Move(kind, target, over, shared_prefix=prefix, before_word=before, after_word=h.word)
    if letter is None:
        raise MoveError(f"eliminate on {target} names no letter")
    h.word = eliminate_letter(h.word, helper.word, letter)
    return Move(kind, target, over, letter, helper.word, before_word=before, after_word=h.word)


def replay(trace: MoveTrace) -> HandleComplex:
    """Rebuild the trace's piece from its knot spec and re-derive every move.

    The knot spec must be written as the engine writes it, and the rebuilt
    complex must match the recorded initial state (its summary, for a
    trace read from a file); each recorded move must equal, field for
    field, the move `execute` derives from the live complex, and the
    Euler characteristic must never move; the moves must finish the
    piece, and the final state, the certificate and the warnings must be
    those `finish` returns; no error may be recorded.  Any mismatch, or a move the executor rejects,
    raises ReplayError.
    """
    if trace.piece not in ("X1", "X2"):
        raise ReplayError(f"unknown piece {trace.piece!r}")
    if trace.error is not None:
        raise ReplayError(f"trace records a failed schedule: {trace.error}")
    try:
        knot = parse_knot_spec(trace.knot)
        x1, x2 = build_pieces(knot, trace.n)
    except ValueError as err:  # KnotSpecError, a non-fibered knot, n out of range, an input above the limits
        raise ReplayError(f"cannot rebuild {trace.piece} of {trace.knot!r} at n={trace.n}: {err}") from err
    if knot.spec_str() != trace.knot:
        raise ReplayError(f"knot spec {trace.knot!r} is not written as the engine writes it, {knot.spec_str()!r}")
    cx = complex_from_piece(x1 if trace.piece == "X1" else x2)
    if _canonical(state_summary(word_state(cx))) != _canonical(trace.initial_summary()):
        raise ReplayError(f"initial state is not that of {trace.piece} of {trace.knot} at n={trace.n}")
    chi = cx.euler()
    for k, move in enumerate(trace.moves):
        try:
            got = execute(cx, move.kind, move.target, move.over, move.letter, move.shared_prefix)
        except MoveError as err:
            raise ReplayError(f"move {k}: {err}") from err
        if got != move:
            wrong = ", ".join(name for name in _MOVE_FIELDS if getattr(got, name) != getattr(move, name))
            raise ReplayError(f"move {k}: {move.kind} on {move.target} does not reproduce its {wrong}")
        if cx.euler() != chi:
            raise ReplayError(f"move {k}: Euler characteristic drifted from {chi}")
    try:
        final, certificate, warnings = finish(cx, trace.moves, trace.n)
    except MoveError as err:
        raise ReplayError(f"the moves do not finish {trace.piece}: {err}") from err
    if trace.final is None or _canonical(final) != _canonical(trace.final):
        raise ReplayError("final complex state mismatch")
    if _canonical(trace.certificate) != _canonical(certificate):
        raise ReplayError(f"certificate {trace.certificate} does not match the replayed complex {certificate}")
    if trace.warnings != warnings:
        raise ReplayError("warnings do not match the weak cancellations of the moves")
    return cx


__all__ = [
    "SCHEMA",
    "fnv1a64",
    "word_digest",
    "word_state",
    "state_text",
    "complex_state",
    "state_summary",
    "Move",
    "MoveTrace",
    "ReplayError",
    "execute",
    "weak_cancellations",
    "finish",
    "replay",
]
