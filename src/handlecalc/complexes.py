"""Handle complex of one Lefschetz piece and the word-level Kirby moves.

A complex is one 0-handle, a live set of 1-handles, and the 2-handles
with their attaching words.  Opaque 2-handles (unknown attaching word:
the n = 1 chain handle, Stallings phi-images of chain handles, and the
fiber boundary handle) are carried through untouched and are never used
as cancellation helpers.

Moves:
  * slide       -- multiply the target word by the inverse of the word it
                   slides over; free reduction cancels the shared tail.
                   An explicit shared_prefix realigns the basepoint when
                   the slide runs along a common initial subpath instead.
  * eliminate   -- rewrite every alpha_j in a word through a helper
                   relator containing alpha_j exactly once (the word-level
                   form of sliding over an isolating 2-handle).
  * cancel      -- remove a (1-handle, 2-handle) pair whose cyclically
                   reduced word crosses the 1-handle exactly once, then
                   rewrite every remaining word through the freed relator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .factorization import LFPiece
from .surfaces import BOUNDARY, CurveId, FiberSurface
from .words import (
    Word,
    concat,
    cyclic_reduce,
    handle_letters,
    handle_occurrences,
    invert,
    reduce_word,
    substitute,
    word_str,
)


class MoveError(ValueError):
    """A move's precondition failed (bad pair, opaque word, missing letter)."""


@dataclass
class TwoHandle:
    id: str
    origin: CurveId
    phi_image: bool
    word: Word | None
    framing: str

    @property
    def opaque(self) -> bool:
        return self.word is None

    def label(self) -> str:
        return f"phi({self.origin})" if self.phi_image else str(self.origin)


@dataclass
class HandleComplex:
    """One piece's handle data; mutated in place by moves.

    A schedule run owns its complex exclusively; distinct runs are
    independent.  Word values themselves stay immutable tuples.
    """

    surface: FiberSurface
    one_handles: set[int]
    two_handles: list[TwoHandle]
    zero_handles: int = 1

    def handle(self, hid: str) -> TwoHandle:
        for h in self.two_handles:
            if h.id == hid:
                return h
        raise MoveError(f"no 2-handle with id {hid!r}")

    def find(self, family: str, index: int, phi_image: bool, skip: int = 0) -> TwoHandle:
        """First 2-handle of the given origin, skipping `skip` earlier matches."""
        seen = 0
        for h in self.two_handles:
            if h.origin == CurveId(family, index) and h.phi_image == phi_image:
                if seen == skip:
                    return h
                seen += 1
        raise MoveError(f"no 2-handle for {family}{index} (phi={phi_image}, skip={skip})")

    def counts(self) -> dict[str, int]:
        return {
            "zero_handles": self.zero_handles,
            "one_handles": len(self.one_handles),
            "two_handles": len(self.two_handles),
        }

    def euler(self) -> int:
        return self.zero_handles - len(self.one_handles) + len(self.two_handles)

    def check_live_letters(self) -> None:
        """Every non-opaque word runs only over live 1-handles."""
        for h in self.two_handles:
            if h.word is None:
                continue
            dead = handle_letters(h.word) - self.one_handles
            if dead:
                raise MoveError(f"handle {h.id} ({h.label()}) uses dead letters {sorted(dead)}")


def complex_from_piece(piece: LFPiece) -> HandleComplex:
    """Initial complex: the factorization's 2-handles plus the fiber boundary handle."""
    s = piece.factorization.fiber
    two: list[TwoHandle] = []
    for k, vc in enumerate(piece.factorization.cycles):
        two.append(TwoHandle(f"{piece.which.lower()}-{k:02d}", vc.curve, vc.phi_image, vc.word, vc.framing))
    two.append(TwoHandle(f"{piece.which.lower()}-dF", BOUNDARY, False, None, "0"))
    return HandleComplex(s, set(range(1, s.num_handles + 1)), two)


def slide_words(target: Word, over: Word, shared_prefix: Word | None = None) -> Word:
    """Word of the target after sliding over another 2-handle.

    Default basepoint: multiply by the inverse, so the maximal common
    suffix cancels under free reduction.  With shared_prefix p (a literal
    common prefix of both words) the slide runs along p instead: the
    result is x * y^-1 for target = p x, over = p y.
    """
    if shared_prefix is None:
        return concat(target, invert(over))
    p = reduce_word(shared_prefix)
    k = len(p)
    if target[:k] != p or over[:k] != p:
        raise MoveError(
            f"shared prefix {word_str(p)!r} does not head both words "
            f"({word_str(target)!r} / {word_str(over)!r})"
        )
    return concat(target[k:], invert(over[k:]))


def relator_solution(helper: Word, j: int) -> tuple[int, Word]:
    """Solve a single-occurrence relator for alpha_j.

    For helper = u alpha_j^e v (read as a relator u alpha_j^e v = 1) the
    solution is alpha_j^e = u^-1 v^-1; returns (e, that word).
    """
    helper = cyclic_reduce(helper)
    if handle_occurrences(helper, j) != 1:
        raise MoveError(
            f"helper {word_str(helper)!r} does not cross a{j} exactly once "
            f"({handle_occurrences(helper, j)} crossings)"
        )
    code = j + 1
    pos = next(k for k, c in enumerate(helper) if abs(c) == code)
    sign = 1 if helper[pos] > 0 else -1
    u, v = helper[:pos], helper[pos + 1 :]
    return sign, concat(invert(u), invert(v))


def eliminate_letter(target: Word, helper: Word, j: int) -> Word:
    """Remove every alpha_j from the target via the helper's relator.

    The helper must cross alpha_j exactly once (after cyclic reduction);
    afterwards the target crosses alpha_j zero times.
    """
    sign, repl = relator_solution(helper, j)
    return substitute(target, j, sign, repl)


def is_cancelling(w: Word, i: int) -> bool:
    """Weak cancellation test: the cyclically reduced word crosses a_i once."""
    return handle_occurrences(cyclic_reduce(w), i) == 1


def is_isolated(w: Word, i: int) -> bool:
    """Strong form: a_i is the only handle letter left, crossed once."""
    v = cyclic_reduce(w)
    return handle_occurrences(v, i) == 1 and handle_letters(v) == {i}


@dataclass
class CancelResult:
    relator: Word
    rewrites: list[tuple[str, Word, Word]]  # (handle id, before, after)


def cancel(complex_: HandleComplex, i: int, hid: str) -> CancelResult:
    """Cancel alpha_i against the 2-handle `hid`; rewrite the survivors through the freed relator.

    Preconditions: the 2-handle word is known and crosses the 1-handle
    exactly once (cyclically).  Postcondition: no surviving word mentions
    the cancelled letter.
    """
    h = complex_.handle(hid)
    if i not in complex_.one_handles:
        raise MoveError(f"1-handle a{i} is not live")
    if h.word is None:
        raise MoveError(f"opaque 2-handle {h.id} cannot cancel a 1-handle")
    if not is_cancelling(h.word, i):
        raise MoveError(
            f"2-handle {h.id} ({h.label()}) word {word_str(h.word)!r} "
            f"does not cross a{i} exactly once"
        )
    relator = cyclic_reduce(h.word)
    complex_.one_handles.remove(i)
    complex_.two_handles.remove(h)
    result = CancelResult(relator, [])
    for other in complex_.two_handles:
        if other.word is None or handle_occurrences(other.word, i) == 0:
            continue
        before = other.word
        other.word = eliminate_letter(other.word, relator, i)
        result.rewrites.append((other.id, before, other.word))
    return result


__all__ = [
    "MoveError",
    "TwoHandle",
    "HandleComplex",
    "complex_from_piece",
    "slide_words",
    "relator_solution",
    "eliminate_letter",
    "is_cancelling",
    "is_isolated",
    "CancelResult",
    "cancel",
]
