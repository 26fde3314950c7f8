"""Free-group word algebra over the 1-handle letter alphabet.

A word is a tuple of nonzero integers.  The letter alpha_i is encoded as
the integer i+1 and its inverse as -(i+1), so that inversion is negation
(alpha_0, the connector arc through the 0-handle, gets code 1; it is a
formal letter and is never equated to the identity).  The boundary arc
"alpha-tilde" has the reserved code TILDE.

Words returned by the functions in this module are always freely reduced.
No cyclic reduction is ever applied implicitly; use cyclic_reduce where a
conjugation-invariant form is needed (e.g. cancellation tests).

>>> w = parse_word("a1 a1'")
>>> reduce_word(w)
()
>>> word_str(concat(parse_word("a0' a1"), parse_word("a1' a0")))
''
"""

from __future__ import annotations

from typing import Iterable, Tuple

Word = Tuple[int, ...]

#: Reserved letter code for the boundary arc (only meaningful when n = 1).
TILDE = 1 << 20


def alpha(i: int, sign: int = 1) -> int:
    """Signed letter for alpha_i.  alpha(1, -1) is the inverse of alpha_1."""
    if i < 0:
        raise ValueError(f"letter index must be >= 0, got {i}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +-1, got {sign}")
    return sign * (i + 1)


def tilde(sign: int = 1) -> int:
    return sign * TILDE


def is_tilde(c: int) -> bool:
    return abs(c) == TILDE


def is_handle(c: int) -> bool:
    return 1 < abs(c) < TILDE


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
    return concat(w)


def is_reduced(w: Iterable[int]) -> bool:
    w = tuple(w)
    return all(w[k] != -w[k + 1] for k in range(len(w) - 1))


def invert(w: Iterable[int]) -> Word:
    """Reverse the word and flip every sign."""
    return tuple(-c for c in reversed(tuple(w)))


def concat(*ws: Iterable[int]) -> Word:
    """Reduced concatenation of any number of words."""
    out: list[int] = []
    for w in ws:
        for c in w:
            if out and out[-1] == -c:
                out.pop()
            else:
                out.append(c)
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

    Counts crossings of the i-th co-core; connector and tilde letters are
    never counted, so i < 1 always yields 0.
    """
    if i < 1:
        return 0
    w = tuple(w)
    return w.count(i + 1) + w.count(-i - 1)


def handle_letters(w: Iterable[int]) -> set[int]:
    """Set of handle indices occurring in the word (either sign)."""
    return {abs(c) - 1 for c in w if is_handle(c)}


def substitute(w: Iterable[int], i: int, sign_target: int, replacement: Iterable[int]) -> Word:
    """Replace alpha_i^sign_target by `replacement` throughout, reduced.

    Occurrences of the opposite sign get the inverted replacement, so the
    substitution is a homomorphism on the letter alpha_i.

    >>> word_str(substitute(parse_word("a2' a1"), 2, 1, parse_word("a0' a3")))
    "a3' a0 a1"
    """
    if i < 1:
        raise ValueError("substitution targets handle letters only (i >= 1)")
    if sign_target not in (1, -1):
        raise ValueError(f"sign must be +-1, got {sign_target}")
    code = i + 1
    pos = tuple(replacement) if sign_target == 1 else invert(replacement)
    images = {code: pos, -code: invert(pos)}
    return concat(*[images.get(c, (c,)) for c in w])


def word_str(w: Iterable[int]) -> str:
    """Compact text form: `a0' a1 at` with ' marking inverses; empty word is ''."""
    parts = []
    for c in w:
        name = "at" if is_tilde(c) else f"a{abs(c) - 1}"
        parts.append(name + ("'" if c < 0 else ""))
    return " ".join(parts)


def parse_word(text: str) -> Word:
    """Parse the text form produced by word_str.

    Tokens are whitespace-separated, each ("a" digits | "at") with an
    optional trailing ' for the inverse.

    >>> parse_word("a0' at'")
    (-1, -1048576)
    """
    out = []
    for tok in text.split():
        body, sign = (tok[:-1], -1) if tok.endswith("'") else (tok, 1)
        if body == "at":
            out.append(sign * TILDE)
        elif body.startswith("a") and body[1:].isdigit():
            out.append(sign * (int(body[1:]) + 1))
        else:
            raise ValueError(f"bad word token: {tok!r}")
    return tuple(out)
