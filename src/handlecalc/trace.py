"""Replayable move traces with stable digests, and the one move executor.

Schema "handlecalc/1": a trace holds the knot spec, the index n, the
piece, the initial complex state, the move list, the final state and the
certificate counts.  Word digests are 64-bit FNV-1a over the word text
form.

`execute` applies one slide, eliminate or cancel to a complex and returns
the move's full record; the schedules log moves only through it.  Replay
rebuilds the initial complex from the knot spec, re-derives every move
with `execute` from the live complex (an eliminate's relator is the word
of the live helper it names, never a word from the trace) and requires
each recorded move to equal the re-derived one, field for field.  The
final state and the certificate must match the replayed complex, the
warnings must be `weak_cancellations` of the moves, and the error must be
null, so every field a trace prints is checked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

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

SCHEMA = "handlecalc/1"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1

#: Fields every trace document must carry, in the order they are read,
#: with their JSON types.  `final` and `certificate` are null in the trace
#: of a failed schedule, which replay rejects.  The optional `warnings`
#: must be a list of strings and `error` an object or null.
_REQUIRED_FIELDS = {"knot": str, "n": int, "piece": str, "initial": dict,
                    "moves": list, "final": dict, "certificate": dict}
_NULLABLE_FIELDS = ("final", "certificate")

#: Move fields: the first four are required; all but `letter` are strings.
_MOVE_FIELDS = ("kind", "target", "before", "after", "over", "letter", "relator", "shared_prefix", "after_word")

OPAQUE_TEXT = "<opaque>"
REMOVED_TEXT = "<removed>"


def fnv1a64(text: str) -> str:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return f"{h:016x}"


def word_digest(w: Word | None) -> str:
    return fnv1a64(OPAQUE_TEXT if w is None else word_str(w))


def complex_state(cx: HandleComplex) -> dict:
    return {
        "surface": {"g": cx.surface.g, "n": cx.surface.n},
        "zero_handles": cx.zero_handles,
        "one_handles": sorted(cx.one_handles),
        "two_handles": [
            {
                "id": h.id,
                "origin": str(h.origin),
                "phi": h.phi_image,
                "word": None if h.word is None else word_str(h.word),
                "framing": h.framing,
            }
            for h in cx.two_handles
        ],
        "four_handle_pending": False,  # no move in this model adds a 4-handle
    }


def _canonical(state: dict | None) -> str:
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def complex_digest(cx: HandleComplex) -> str:
    return fnv1a64(_canonical(complex_state(cx)))


def _typed(where: str, name: str, value, kind: type, nullable: bool = True):
    """A field's value, if it has the given JSON type (or is an allowed null)."""
    if value is None and nullable:
        return None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise MoveError(f"{where} field {name!r} must be {kind.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class Move:
    """One replayable move.  Digests are of the target handle's word."""

    kind: str  # slide | eliminate | cancel
    target: str
    over: str | None = None
    letter: int | None = None
    relator: str | None = None
    shared_prefix: str | None = None
    before: str = ""
    after: str = ""
    after_word: str | None = None

    def to_json(self) -> dict:
        """The fields in `_MOVE_FIELDS` order; unset optional fields are left out."""
        return {name: value for name in _MOVE_FIELDS if (value := getattr(self, name)) is not None}

    @staticmethod
    def from_json(d: dict) -> "Move":
        if not isinstance(d, dict):
            raise MoveError(f"a move must be an object, got {type(d).__name__}")
        for name in _MOVE_FIELDS[:4]:
            if d.get(name) is None:
                raise MoveError(f"move lacks required field {name!r}")
        return Move(**{name: _typed("move", name, d.get(name), int if name == "letter" else str)
                       for name in _MOVE_FIELDS})


@dataclass
class MoveTrace:
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
        out["moves"] = [m.to_json() for m in self.moves]
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
            raise MoveError(f"unsupported trace schema {d.get('schema')!r}")
        values = {}
        for name, kind in _REQUIRED_FIELDS.items():
            if name not in d:
                raise MoveError(f"trace lacks required field {name!r}")
            values[name] = _typed("trace", name, d[name], kind, name in _NULLABLE_FIELDS)
        values["moves"] = [Move.from_json(m) for m in values["moves"]]
        warnings = _typed("trace", "warnings", d.get("warnings", []), list, nullable=False)
        if not all(isinstance(w, str) for w in warnings):
            raise MoveError(f"trace field 'warnings' must be a list of str, got {warnings!r}")
        return MoveTrace(**values, warnings=warnings, error=_typed("trace", "error", d.get("error"), dict))

    def final_digest(self) -> str:
        return fnv1a64(_canonical(self.final))


def weak_cancellations(moves: list[Move]) -> list[str]:
    """One warning per cancel whose relator crosses 1-handles besides its letter.

    Read from each cancel's letter, target and relator only, so the
    schedules, the X2 derivation and replay derive the same list.
    """
    return [
        f"weak cancellation of a{m.letter} against {m.target}: "
        f"word {m.relator!r} is not over alpha_0/a{m.letter} alone"
        for m in moves
        if m.kind == "cancel" and not is_isolated(parse_word(m.relator), m.letter)
    ]


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
    before = word_digest(h.word)
    if kind == "cancel":
        if letter is None:
            raise MoveError(f"cancel on {target} names no letter")
        result = cancel(cx, letter, target)
        return Move(kind, target, letter=letter, relator=word_str(result.relator),
                    before=before, after=fnv1a64(REMOVED_TEXT))
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
        record = {"shared_prefix": None if shared_prefix is None else word_str(reduce_word(shared_prefix))}
    else:
        if letter is None:
            raise MoveError(f"eliminate on {target} names no letter")
        h.word = eliminate_letter(h.word, helper.word, letter)
        record = {"letter": letter, "relator": word_str(helper.word)}
    after_word = word_str(h.word)
    return Move(kind, target, over, before=before, after=fnv1a64(after_word), after_word=after_word, **record)


def replay(trace: MoveTrace) -> HandleComplex:
    """Rebuild the trace's piece from its knot spec and re-derive every move.

    The rebuilt complex must match the recorded initial state; each
    recorded move must equal, field for field, the move `execute` derives
    from the live complex; the final state and the certificate must match
    the replayed complex, and the Euler characteristic must never move;
    the warnings must be those the moves derive, and no error may be
    recorded.  Any mismatch, or a move the executor rejects, raises
    ReplayError.
    """
    if trace.piece not in ("X1", "X2"):
        raise ReplayError(f"unknown piece {trace.piece!r}")
    if trace.error is not None:
        raise ReplayError(f"trace records a failed schedule: {trace.error}")
    try:
        x1, x2 = build_pieces(parse_knot_spec(trace.knot), trace.n)
    except ValueError as err:  # KnotSpecError, a non-fibered knot, n < 1
        raise ReplayError(f"cannot rebuild {trace.piece} of {trace.knot!r} at n={trace.n}: {err}") from err
    cx = complex_from_piece(x1 if trace.piece == "X1" else x2)
    if _canonical(complex_state(cx)) != _canonical(trace.initial):
        raise ReplayError(f"initial state is not that of {trace.piece} of {trace.knot} at n={trace.n}")
    chi = cx.euler()
    for k, move in enumerate(trace.moves):
        try:
            prefix = None if move.shared_prefix is None else parse_word(move.shared_prefix)
            got = execute(cx, move.kind, move.target, move.over, move.letter, prefix)
        except ValueError as err:  # MoveError, or a bad token in the shared prefix
            raise ReplayError(f"move {k}: {err}") from err
        if got != move:
            wrong = ", ".join(f.name for f in fields(Move) if getattr(got, f.name) != getattr(move, f.name))
            raise ReplayError(f"move {k}: {move.kind} on {move.target} does not reproduce its {wrong}")
        if cx.euler() != chi:
            raise ReplayError(f"move {k}: Euler characteristic drifted from {chi}")
    if trace.final is None or _canonical(complex_state(cx)) != _canonical(trace.final):
        raise ReplayError("final complex state mismatch")
    certificate = {"one_handles": len(cx.one_handles), "two_handles": len(cx.two_handles)}
    if _canonical(trace.certificate) != _canonical(certificate):
        raise ReplayError(f"certificate {trace.certificate} does not match the replayed complex {certificate}")
    if trace.warnings != weak_cancellations(trace.moves):
        raise ReplayError("warnings do not match the weak cancellations of the moves")
    return cx


__all__ = [
    "SCHEMA",
    "fnv1a64",
    "word_digest",
    "complex_state",
    "complex_digest",
    "Move",
    "MoveTrace",
    "ReplayError",
    "execute",
    "weak_cancellations",
    "replay",
]
