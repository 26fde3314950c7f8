"""Free-group word algebra over the 1-handle letter alphabet.

A word is a tuple of nonzero integers.  The letter alpha_i is encoded as
the integer i+1 and its inverse as -(i+1), so that inversion is negation
(alpha_0, the connector arc through the 0-handle, gets code 1; it is a
formal letter and is never equated to the identity).  Every letter is some
alpha_i; the boundary arc alpha-tilde is a word over them
(surfaces.tilde_alpha_word), not a letter of its own.

reduce_word freely reduces any sequence of letters; every word from
outside the engine passes through it (or cyclic_reduce).  The other
functions return freely reduced words when their inputs are: concat
multiplies freely reduced words, so it cancels only where one part meets
the next (Lyndon and Schupp, Combinatorial Group Theory I.1), and
apply_images, the one substitution kernel, maps a reduced word through a
table of reduced letter images in one such pass.  No cyclic
reduction is ever applied implicitly; use cyclic_reduce where a
conjugation-invariant form is needed (e.g. cancellation tests).

>>> w = parse_word("a1 a1'")
>>> reduce_word(w)
()
>>> word_str(concat(parse_word("a0' a1"), parse_word("a1' a0")))
''
"""

from __future__ import annotations

import functools
from operator import neg
from typing import Iterable, Mapping, Tuple

Word = Tuple[int, ...]


def alpha(i: int, sign: int = 1) -> int:
    """Signed letter for alpha_i.  alpha(1, -1) is the inverse of alpha_1."""
    if i < 0:
        raise ValueError(f"letter index must be >= 0, got {i}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +-1, got {sign}")
    return sign * (i + 1)


def is_handle(c: int) -> bool:
    return abs(c) > 1


def _shown(value: object, limit: int = 12) -> str:
    """`value` as an error message quotes it: cut after `limit` characters, its length named.

    A string is quoted (its repr), any other value spelled by `str`.
    """
    if isinstance(value, str):
        return repr(value) if len(value) <= limit else f"{value[:limit]!r}... ({len(value)} characters)"
    text = str(value)
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


def _shown_set(values: Iterable[int]) -> str:
    """A set of handles as an error message quotes it: sorted, its first 4, and its size if it has more."""
    values = sorted(values)
    head = ", ".join(map(str, values[:4]))
    return f"[{head}]" if len(values) <= 4 else f"[{head}, ...] ({len(values)} in all)"


def handle_index(c: int) -> int:
    """Index i of the handle letter alpha_i encoded by c."""
    if not is_handle(c):
        raise ValueError(f"{c} is not a handle letter")
    return abs(c) - 1


def reduce_word(w: Iterable[int]) -> Word:
    """Freely reduce: cancel adjacent inverse pairs until none remain.

    alpha_0 is treated like any other generator; the empty word is ().

    >>> reduce_word((alpha(1), alpha(1, -1)))
    ()
    >>> word_str(reduce_word(parse_word("a1 a2' a2 a3")))
    'a1 a3'
    """
    out: list[int] = []
    for c in w:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def invert(w: Iterable[int]) -> Word:
    """Reverse the word and flip every sign."""
    return tuple(map(neg, reversed(tuple(w))))


def concat(*ws: Word) -> Word:
    """The reduced product of freely reduced words.

    Each part must be freely reduced (reduce_word makes any letter
    sequence so); the product then cancels only where a part meets the
    output so far, so a part is matched against the output's tail and the
    rest of it is copied in one piece.  Cancellation may run across
    several parts:

    >>> word_str(concat(parse_word("a1 a2"), parse_word("a2' a3"), parse_word("a3' a1' a4")))
    'a4'

    A part that is not reduced keeps its inner cancelling pairs.
    """
    out: list[int] = []
    for w in ws:
        if len(w) == 1:
            # One letter, the usual part of a substitution: no slice to copy.
            c = w[0]
            if out and out[-1] == -c:
                out.pop()
            else:
                out.append(c)
            continue
        k, n = 0, len(w)
        while k < n and out and out[-1] == -w[k]:
            out.pop()
            k += 1
        out.extend(w[k:])
    return tuple(out)


def cyclic_reduce(w: Iterable[int]) -> Word:
    """Freely reduce, then strip cancelling first/last letters.

    The result represents the same free-homotopy (conjugacy) class.
    """
    v = list(reduce_word(w))
    lo, hi = 0, len(v)
    while hi - lo >= 2 and v[lo] == -v[hi - 1]:
        lo += 1
        hi -= 1
    return tuple(v[lo:hi])


def handle_occurrences(w: Iterable[int], i: int) -> int:
    """Number of occurrences of the handle letter alpha_i, either sign.

    Counts crossings of the i-th co-core; the connector alpha_0 is never
    counted, so i < 1 always yields 0.
    """
    if i < 1:
        return 0
    w = tuple(w)
    return w.count(i + 1) + w.count(-i - 1)


def handle_letters(w: Iterable[int]) -> set[int]:
    """Set of handle indices occurring in the word (either sign)."""
    return {c - 1 for c in map(abs, w) if c > 1}


def apply_images(w: Word, images: Mapping[int, Word]) -> Word:
    """The reduced image of the reduced word w under a letter table.

    `images` maps a letter code to its reduced image; a letter it does not
    hold is kept.  One pass pushes each image onto the output, cancelling
    only where it meets the output's tail, as concat does with its parts;
    a kept letter and a one-letter image are pushed as one letter, with no
    part built, so the image is reduced even where w is not.  A word the
    table moves no letter of is returned as it is.

    >>> word_str(apply_images(parse_word("a1 a2 a0'"), {3: (1,), -3: (-1,)}))  # a2 -> a0
    'a1'
    """
    if images.keys().isdisjoint(w):
        return w
    out: list[int] = []
    push, pop = out.append, out.pop
    get = images.get
    for c in w:
        image = get(c)
        if image is not None:
            if len(image) != 1:
                k, n = 0, len(image)
                while k < n and out and out[-1] == -image[k]:
                    pop()
                    k += 1
                out.extend(image[k:])
                continue
            c = image[0]
        if out and out[-1] == -c:
            pop()
        else:
            push(c)
    return tuple(out)


def substitute(w: Iterable[int], i: int, sign_target: int, replacement: Iterable[int]) -> Word:
    """Replace alpha_i^sign_target by `replacement` throughout, reduced.

    Occurrences of the opposite sign get the inverted replacement, so the
    substitution is a homomorphism on the letter alpha_i: `w` goes through
    `apply_images` as a two-entry table, and is reduced as it stands if it
    does not use alpha_i.

    >>> word_str(substitute(parse_word("a2' a1"), 2, 1, parse_word("a0' a3")))
    "a3' a0 a1"
    """
    if i < 1:
        raise ValueError("substitution targets handle letters only (i >= 1)")
    if sign_target not in (1, -1):
        raise ValueError(f"sign must be +-1, got {sign_target}")
    code = i + 1
    pos = reduce_word(replacement)
    if sign_target == -1:
        pos = invert(pos)
    w = tuple(w)
    images = {code: pos, -code: invert(pos)}
    return reduce_word(w) if images.keys().isdisjoint(w) else apply_images(w, images)


#: The most digits of a token's index: no alphabet has more than 4 * 256 + 2 * 1000 - 2
#: letters, and Python's `int` refuses over 4300 digits with a message naming no token.
_MAX_DIGITS = 9


def _token(c: int) -> str:
    """The text of one letter code, the reference spelling of word_str; ValueError for 0 and above 10**9."""
    if c == 0:
        raise ValueError("0 is not a letter code")
    if abs(c) > 10**_MAX_DIGITS:
        raise ValueError(f"letter code above the limit 10**{_MAX_DIGITS}: its index would not parse back")
    name = f"a{abs(c) - 1}"
    return name + "'" if c < 0 else name


def _parse_token(tok: str) -> int:
    """The code whose text is `tok`; ValueError unless `tok` is that code's canonical text."""
    body, sign = (tok[:-1], -1) if tok.endswith("'") else (tok, 1)
    if not (body.startswith("a") and body[1:].isdigit()):
        raise ValueError(f"bad word token: {_shown(tok)}")
    if len(body) > _MAX_DIGITS + 1:
        raise ValueError(f"bad word token: {_shown(tok)}, an index of more than {_MAX_DIGITS} digits")
    code = sign * (int(body[1:]) + 1)
    # isdigit and int accept "01" and non-ASCII digits; only the text
    # word_str prints for the code is a token.
    if _token(code) != tok:
        raise ValueError(f"bad word token: {_shown(tok)} (the letter is spelled {_token(code)!r})")
    return code


class _Tokens(dict):
    """code -> token; a code outside the table is spelled by `_token`, not stored."""

    def __missing__(self, c: int) -> str:
        return _token(c)


class _Codes(dict):
    """token -> code; a token outside the table goes through `_parse_token`, not stored."""

    def __missing__(self, tok: str) -> int:
        return _parse_token(tok)


#: The letters alpha_0..alpha_{_TABLED - 1}, in both signs, are looked up
#: in the token tables; other codes take the per-letter path.
_TABLED = 1 << 10


@functools.cache
def _token_tables() -> tuple[_Tokens, _Codes]:
    """The code -> token and token -> code tables, built on first use."""
    codes = [sign * c for c in range(1, _TABLED + 1) for sign in (1, -1)]
    tokens = _Tokens((c, _token(c)) for c in codes)
    return tokens, _Codes((t, c) for c, t in tokens.items())


def word_str(w: Iterable[int]) -> str:
    """Compact text form: `a0' a1 a2` with ' marking inverses; empty word is ''."""
    return " ".join(map(_token_tables()[0].__getitem__, w))


def parse_word(text: str) -> Word:
    """Parse the text form produced by word_str; its exact inverse.

    Tokens are separated by single spaces, each "a" index with an optional
    trailing ' for the inverse.  Only the text word_str prints parses: a
    token spelled otherwise ("a01", "a00", an index of more than 9 digits,
    far above any alphabet) is refused, and so is any other spacing, which
    leaves an empty token.  So two texts parse to the same word only if
    they are equal.

    >>> parse_word("a0' a4'")
    (-1, -5)
    """
    return tuple(map(_token_tables()[1].__getitem__, text.split(" "))) if text else ()
