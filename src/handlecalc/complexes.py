"""Handle complex of one Lefschetz piece and the word-level Kirby moves.

A complex is one 0-handle, a live set of 1-handles, and the 2-handles
with their attaching words.  Opaque 2-handles (unknown attaching word:
the n = 1 chain handle c1 and its image phi(c1), and the fiber boundary
handle dF) are carried through untouched and are never used as
cancellation helpers.

Moves:
  * slide       -- multiply the target word by the inverse of the word it
                   slides over; free reduction cancels the shared tail.
                   An explicit shared_prefix realigns the basepoint when
                   the slide runs along a common initial subpath instead.
  * eliminate   -- rewrite every alpha_j in a word through a helper
                   relator containing alpha_j exactly once (the word-level
                   form of sliding over an isolating 2-handle).
  * cancel      -- remove a (1-handle, 2-handle) pair whose cyclically
                   reduced word crosses the 1-handle exactly once, and
                   compose the freed relator into the complex's
                   elimination table.

A cancellation is a Tietze elimination of alpha_i (Lyndon-Schupp,
Combinatorial Group Theory II.2).  The complex composes its eliminations
into one substitution table (`Eliminations`) from each cancelled letter to
a word over live letters; a cancel rewrites only the images that mention
alpha_i and adds alpha_i's own.  A 2-handle's word is brought up to date
where it is read: one substitution through the table, one free
reduction, written back.  Free reduction commutes with a substitution
homomorphism, so every word read equals, letter for letter, the word
that rewriting every survivor at each cancellation would give.

A 2-handle is its id and its word, nothing else: the id names its block
and its place in it (`start_handles`), so the schedules name every
handle they move by id alone (`schedules.plan`) and no handle carries
its curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .factorization import LFPiece
from .surfaces import FiberSurface
from .words import (
    Word,
    _shown,
    _shown_set,
    apply_images,
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
    """A move's precondition failed (bad pair, opaque word, missing letter).

    `word`, when given, is the offending word.
    """

    def __init__(self, message: str, word: Word | None = None):
        super().__init__(message)
        self.word = word


class Eliminations:
    """The composed eliminations of a complex's cancellations.

    `images` maps the signed code of every cancelled letter to a reduced
    word over live letters; `users` maps a letter code other than
    alpha_0's to the cancelled codes whose images have mentioned it;
    `version` counts the cancellations.
    """

    __slots__ = ("images", "users", "version")

    def __init__(self) -> None:
        self.images: dict[int, Word] = {}
        self.users: dict[int, set[int]] = {}
        self.version = 0

    def apply(self, w: Word) -> Word:
        """w with every cancelled letter replaced by its image, reduced (`apply_images`); w itself if it has none."""
        return apply_images(w, self.images)

    def add(self, i: int, sign: int, repl: Word) -> None:
        """Compose the elimination alpha_i^sign = repl into the table."""
        code = i + 1
        inv = invert(repl)
        pos, neg = (repl, inv) if sign == 1 else (inv, repl)
        step = {code: pos, -code: neg}
        images = self.images
        for user in self.users.pop(code, ()):
            image = apply_images(images[user], step)
            self._set(user, image, invert(image))
        self._set(code, pos, neg)
        self.version += 1

    def _set(self, code: int, image: Word, inverse: Word) -> None:
        """Store both signs of a letter's image; `inverse` must be invert(image).

        alpha_0 (codes +-1) is never cancelled, so no user set is kept for it.
        """
        self.images[code], self.images[-code] = image, inverse
        users = self.users
        for c in image:
            if c != 1 and c != -1:
                users.setdefault(abs(c), set()).add(code)


class TwoHandle:
    """A 2-handle: its id (see `start_handles`) and its word; handles compare by identity.

    The stored word is read through the elimination table of the complex
    the handle belongs to: the first read after a cancellation applies
    the table and writes the result back.  A removed handle keeps its
    word as it was at removal.
    """

    __slots__ = ("id", "_word", "_table", "_version")

    def __init__(self, id: str, word: Word | None):
        self.id = id
        self._word = word
        self._table: Eliminations | None = None
        self._version = 0

    @property
    def word(self) -> Word | None:
        table = self._table
        if table is not None and self._version != table.version:
            self._version = table.version
            if self._word is not None:
                self._word = table.apply(self._word)
        return self._word

    @word.setter
    def word(self, w: Word | None) -> None:  # w must run over the complex's live letters
        self._word = w
        if self._table is not None:
            self._version = self._table.version


class HandleComplex:
    """One piece's handle data; mutated in place by moves.

    A schedule run owns its complex exclusively; distinct runs are
    independent.  Word values themselves stay immutable tuples.  The
    complex binds its 2-handles to its elimination table and indexes them
    by id, in their given order, at construction; remove handles only
    through `remove`, which keeps the index in constant time.
    """

    zero_handles = 1  # every complex has one 0-handle

    def __init__(self, surface: FiberSurface, one_handles: set[int], two_handles: list[TwoHandle]):
        self.surface = surface
        self.one_handles = one_handles
        self.eliminations = Eliminations()
        self._by_id: dict[str, TwoHandle] = {}
        for h in two_handles:
            h._table, h._version = self.eliminations, 0
            self._by_id[h.id] = h

    @property
    def two_handles(self) -> list[TwoHandle]:
        """The live 2-handles in their given order, as a new list."""
        return list(self._by_id.values())

    def handle(self, hid: str) -> TwoHandle:
        h = self._by_id.get(hid)
        if h is None:
            raise MoveError(f"no 2-handle with id {_shown(hid)}")
        return h

    def remove(self, h: TwoHandle) -> None:
        """Drop a 2-handle from the complex; its word stays as it reads now."""
        del self._by_id[h.id]
        h._word, h._table = h.word, None

    def counts(self) -> dict[str, int]:
        return {
            "zero_handles": self.zero_handles,
            "one_handles": len(self.one_handles),
            "two_handles": len(self._by_id),
        }

    def check_live_letters(self) -> None:
        """Every non-opaque word runs only over live 1-handles.

        A word passes by one set test against the live codes (alpha_0's
        among them); only a word that fails it has its dead letters listed.
        """
        live = {1, -1}
        for i in self.one_handles:
            live.add(i + 1)
            live.add(-i - 1)
        for h in self._by_id.values():
            word = h.word
            if word is None or live.issuperset(word):
                continue
            dead = handle_letters(word) - self.one_handles
            if dead:
                raise MoveError(f"handle {h.id} uses dead letters {_shown_set(dead)}", word)


@lru_cache(maxsize=16)
def _block_ids(half: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The ids of W's cycles and of phi(W)'s, by place, for |W| = half; kept for the last 16 |W|."""
    return tuple(f"w{k:02d}" for k in range(half)), tuple(f"p{k:02d}" for k in range(half))


def start_handles(piece: LFPiece) -> list[tuple[str, Word | None]]:
    """The piece's 2-handles as (id, word) pairs: the factorization's, then the fiber boundary.

    Every piece is the blocks phi(W) and W, one after the other, in either
    order, so a handle is named by its block and its place k mod |W| in it:
    `p07` is phi(W)'s cycle 7, `w07` is W's cycle 7 and `dF` is the fiber
    boundary.  X1 and X2 therefore hold the same ids, in rotated order.
    The ids depend on |W| alone, so they come from a table built once per
    |W| (`_block_ids`, which keeps the last 16, like `build_W`), not
    formatted for each piece; `schedules.plan` names its handles from the
    same table.  `dF` is 0-framed and every other 2-handle is fiber-1
    framed.
    """
    cycles = piece.factorization.cycles
    half = len(cycles) // 2
    ids = _block_ids(half)
    handles = [(ids[vc.phi_image][k % half], vc.word) for k, vc in enumerate(cycles)]
    handles.append(("dF", None))
    return handles


def complex_from_piece(piece: LFPiece) -> HandleComplex:
    """Initial complex: every 1-handle live, and the 2-handles `start_handles` names."""
    s = piece.factorization.fiber
    return HandleComplex(s, set(range(1, s.num_handles + 1)), [TwoHandle(*h) for h in start_handles(piece)])


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
            f"shared prefix {_shown(word_str(p))} does not head both words "
            f"({_shown(word_str(target))} / {_shown(word_str(over))})"
        )
    return concat(target[k:], invert(over[k:]))


def _solve(relator: Word, j: int) -> tuple[int, Word]:
    """(e, u^-1 v^-1) for a relator u alpha_j^e v that crosses alpha_j exactly once.

    The relator must be cyclically reduced: then v u is reduced, with no
    cancellation where v's last letter meets u's first, and u^-1 v^-1 is
    its inverse, computed with one inversion.
    """
    code = j + 1
    pos = relator.index(code) if code in relator else relator.index(-code)
    sign = 1 if relator[pos] > 0 else -1
    return sign, invert(relator[pos + 1 :] + relator[:pos])


def relator_solution(helper: Word, j: int) -> tuple[int, Word]:
    """Solve a single-occurrence relator for alpha_j.

    For helper = u alpha_j^e v (read as a relator u alpha_j^e v = 1) the
    solution is alpha_j^e = u^-1 v^-1; returns (e, that word).
    """
    helper = cyclic_reduce(helper)
    crossings = handle_occurrences(helper, j)
    if crossings != 1:
        raise MoveError(f"helper {_shown(word_str(helper))} does not cross a{j} exactly once ({crossings} crossings)")
    return _solve(helper, j)


def eliminate_letter(target: Word, helper: Word, j: int) -> Word:
    """Remove every alpha_j from the target via the helper's relator.

    The helper must cross alpha_j exactly once (after cyclic reduction);
    afterwards the target crosses alpha_j zero times.
    """
    sign, repl = relator_solution(helper, j)
    return substitute(target, j, sign, repl)


def is_isolated(w: Word, i: int) -> bool:
    """Strong form: a_i is the only handle letter left, crossed once."""
    v = cyclic_reduce(w)
    return handle_occurrences(v, i) == 1 and handle_letters(v) == {i}


@dataclass
class CancelResult:
    relator: Word
    rewrites: list = field(default_factory=list)  # always empty: no survivor is rewritten at a cancel


def cancel(complex_: HandleComplex, i: int, hid: str) -> CancelResult:
    """Cancel alpha_i against the 2-handle `hid`; compose the freed relator into the table.

    Preconditions: the 2-handle word is known and crosses the 1-handle
    exactly once (cyclically).  Postcondition: no surviving word, as
    read, mentions the cancelled letter.
    """
    h = complex_.handle(hid)
    if i not in complex_.one_handles:
        raise MoveError(f"1-handle a{_shown(i)} is not live")
    word = h.word
    if word is None:
        raise MoveError(f"opaque 2-handle {h.id} cannot cancel a 1-handle")
    relator = cyclic_reduce(word)
    if handle_occurrences(relator, i) != 1:
        raise MoveError(f"2-handle {h.id} word {_shown(word_str(word))} does not cross a{i} exactly once")
    complex_.one_handles.remove(i)
    complex_.remove(h)
    complex_.eliminations.add(i, *_solve(relator, i))
    return CancelResult(relator)


__all__ = [
    "MoveError",
    "Eliminations",
    "TwoHandle",
    "HandleComplex",
    "start_handles",
    "complex_from_piece",
    "slide_words",
    "relator_solution",
    "eliminate_letter",
    "is_isolated",
    "CancelResult",
    "cancel",
]
