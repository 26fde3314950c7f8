"""Replayable move traces with stable digests.

Schema "handlecalc/1": a trace holds the initial complex state, the move
list, the final state and the certificate counts.  Word digests are
64-bit FNV-1a over the word text form; replaying the moves against the
initial state must reproduce every step digest and the final complex
digest exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .complexes import (
    CancelPair,
    HandleComplex,
    MoveError,
    TwoHandle,
    cancel,
    eliminate_letter,
    slide_words,
)
from .surfaces import CurveId, FiberSurface
from .words import Word, parse_word, word_str

SCHEMA = "handlecalc/1"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1

#: Fields every trace document must carry, in the order they are read.
_REQUIRED_FIELDS = ("knot", "n", "piece", "initial", "moves", "final", "certificate")

OPAQUE_TEXT = "<opaque>"
REMOVED_TEXT = "<removed>"


def fnv1a64(text: str) -> str:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return f"{h:016x}"


def word_digest(w: Word | None) -> str:
    return fnv1a64(OPAQUE_TEXT if w is None else word_str(w))


def curve_to_str(c: CurveId) -> str:
    return str(c)


def curve_from_str(text: str) -> CurveId:
    if text == "dF":
        return CurveId("boundary")
    if text == "b2":
        return CurveId("b2")
    family = text[0]
    return CurveId(family, int(text[1:]))


def complex_state(cx: HandleComplex) -> dict:
    return {
        "surface": {"g": cx.surface.g, "n": cx.surface.n},
        "zero_handles": cx.zero_handles,
        "one_handles": sorted(cx.one_handles),
        "two_handles": [
            {
                "id": h.id,
                "origin": curve_to_str(h.origin),
                "phi": h.phi_image,
                "word": None if h.word is None else word_str(h.word),
                "framing": h.framing,
            }
            for h in cx.two_handles
        ],
        "four_handle_pending": cx.four_handle_pending,
    }


def complex_from_state(state: dict) -> HandleComplex:
    s = FiberSurface(state["surface"]["g"], state["surface"]["n"])
    two = [
        TwoHandle(
            h["id"],
            curve_from_str(h["origin"]),
            h["phi"],
            None if h["word"] is None else parse_word(h["word"]),
            h["framing"],
        )
        for h in state["two_handles"]
    ]
    return HandleComplex(s, set(state["one_handles"]), two, state["zero_handles"])


def complex_digest(cx: HandleComplex) -> str:
    return fnv1a64(json.dumps(complex_state(cx), sort_keys=True, separators=(",", ":")))


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
        d = {"kind": self.kind, "target": self.target, "before": self.before, "after": self.after}
        if self.over is not None:
            d["over"] = self.over
        if self.letter is not None:
            d["letter"] = self.letter
        if self.relator is not None:
            d["relator"] = self.relator
        if self.shared_prefix is not None:
            d["shared_prefix"] = self.shared_prefix
        if self.after_word is not None:
            d["after_word"] = self.after_word
        return d

    @staticmethod
    def from_json(d: dict) -> "Move":
        return Move(
            kind=d["kind"],
            target=d["target"],
            over=d.get("over"),
            letter=d.get("letter"),
            relator=d.get("relator"),
            shared_prefix=d.get("shared_prefix"),
            before=d["before"],
            after=d["after"],
            after_word=d.get("after_word"),
        )


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
        out = {
            "schema": SCHEMA,
            "knot": self.knot,
            "n": self.n,
            "piece": self.piece,
            "initial": self.initial,
            "moves": [m.to_json() for m in self.moves],
            "final": self.final,
            "certificate": self.certificate,
        }
        if self.warnings:
            out["warnings"] = self.warnings
        if self.error is not None:
            out["error"] = self.error
        return out

    @staticmethod
    def from_json(d: dict) -> "MoveTrace":
        if d.get("schema") != SCHEMA:
            raise MoveError(f"unsupported trace schema {d.get('schema')!r}")
        for name in _REQUIRED_FIELDS:
            if name not in d:
                raise MoveError(f"trace lacks required field {name!r}")
        return MoveTrace(
            knot=d["knot"],
            n=d["n"],
            piece=d["piece"],
            initial=d["initial"],
            moves=[Move.from_json(m) for m in d["moves"]],
            final=d["final"],
            certificate=d["certificate"],
            warnings=d.get("warnings", []),
            error=d.get("error"),
        )

    def final_digest(self) -> str:
        return fnv1a64(json.dumps(self.final, sort_keys=True, separators=(",", ":")))


class ReplayError(MoveError):
    """A replayed move did not reproduce its recorded digest."""


def replay(trace: MoveTrace) -> HandleComplex:
    """Re-execute the trace against its initial state; digests must match.

    Also enforces that the Euler characteristic never moves: slides and
    eliminations keep both handle counts, and a cancellation drops a
    1-handle and a 2-handle together.
    """
    cx = complex_from_state(trace.initial)
    chi = cx.euler()
    for k, move in enumerate(trace.moves):
        target = cx.handle(move.target)
        if word_digest(target.word) != move.before:
            raise ReplayError(f"move {k}: before-digest mismatch on {move.target}")
        if move.kind == "slide":
            over = cx.handle(move.over)
            prefix = None if move.shared_prefix is None else parse_word(move.shared_prefix)
            target.word = slide_words(target.word, over.word, prefix)
            got = word_digest(target.word)
        elif move.kind == "eliminate":
            target.word = eliminate_letter(target.word, parse_word(move.relator), move.letter)
            got = word_digest(target.word)
        elif move.kind == "cancel":
            result = cancel(cx, CancelPair(move.letter, move.target))
            if word_str(result.relator) != move.relator:
                raise ReplayError(f"move {k}: cancel relator mismatch on {move.target}")
            got = fnv1a64(REMOVED_TEXT)
        else:
            raise ReplayError(f"move {k}: unknown move kind {move.kind!r}")
        if got != move.after:
            raise ReplayError(f"move {k}: after-digest mismatch on {move.target}")
        if cx.euler() != chi:
            raise ReplayError(f"move {k}: Euler characteristic drifted from {chi}")
    if trace.final is not None and complex_digest(cx) != trace.final_digest():
        raise ReplayError("final complex digest mismatch")
    return cx


__all__ = [
    "SCHEMA",
    "fnv1a64",
    "word_digest",
    "complex_state",
    "complex_from_state",
    "complex_digest",
    "curve_to_str",
    "curve_from_str",
    "Move",
    "MoveTrace",
    "ReplayError",
    "replay",
]
