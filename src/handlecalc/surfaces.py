"""Fiber surface model: handle structure and reference curve words.

The fiber of the genus 2g+n-1 Lefschetz fibration carries one 0-handle and
N = 4g+2n-2 one-handles with cores alpha_1..alpha_N; alpha_0 is the
connector arc through the 0-handle and alpha-tilde the boundary arc used
when n = 1.  This module produces the canonical words for the reference
paths beta_i, eta, alpha-tilde and the vanishing-cycle curves B_i, c_i,
and names the twist curves the monodromies are written in: the chain
curves a_j and the Stallings curve b2, each crossing every arc it meets
once.  The only curves without a word are c_1 at n = 1 (and so its
monodromy image) and the fiber boundary dF.

Two spelling conventions coexist on purpose.  For n = 1 every B_i word
starts with alpha_0^-1 (the beta-path convention); for n >= 2 the B_i
words are the rotated forms that start with alpha_1.  The two agree up to
cyclic rotation; comparisons across conventions must go through
cyclic_reduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .words import Word, _shown, alpha, concat, handle_index, is_handle

CURVE_FAMILIES = ("B", "c")

#: The largest knot genus g (a two-bridge sign sequence of 2g signs) and
#: elliptic index n a surface admits, so that a knot spec or a trace cannot
#: make the engine build words of unbounded length.  On a 2-vCPU Xeon,
#: `run_both` takes about 1 s at g = 256 (n = 1), 0.7 s at n = 1000
#: (g = 1) and 2 s at both, where writing and replaying one trace adds
#: 1.5 s.
MAX_GENUS = 256
MAX_INDEX = 1000


@dataclass(frozen=True)
class FiberSurface:
    """Surface parameters: knot genus g and elliptic-surface index n."""

    g: int
    n: int

    def __post_init__(self):
        if self.g < 1:
            raise ValueError(f"knot genus must be >= 1, got {_shown(self.g)}")
        if self.n < 1:
            raise ValueError(f"elliptic index must be >= 1, got {_shown(self.n)}")
        if self.g > MAX_GENUS:
            raise ValueError(f"knot genus {_shown(self.g)} is above the limit {MAX_GENUS} "
                             f"(at most {2 * MAX_GENUS} signs)")
        if self.n > MAX_INDEX:
            raise ValueError(f"elliptic index {_shown(self.n)} is above the limit {MAX_INDEX}")

    @property
    def num_handles(self) -> int:
        """Number of 1-handles, 4g + 2n - 2."""
        return 4 * self.g + 2 * self.n - 2

    @cached_property
    def alphabet(self) -> frozenset[int]:
        """Every legal letter code: alpha_0..alpha_N, both signs."""
        return frozenset(range(-self.num_handles - 1, self.num_handles + 2)) - {0}


@dataclass(frozen=True)
class CurveId:
    """Identifier of a vanishing-cycle curve: family B or c, plus index."""

    family: str
    index: int

    def __post_init__(self):
        if self.family not in CURVE_FAMILIES:
            raise ValueError(f"unknown curve family {self.family!r}")

    def __str__(self):
        return f"{self.family}{self.index}"


def beta_word(i: int, s: FiberSurface) -> Word:
    """Path beta_i: alpha_0^-1 a1 ... a_{i-1}^± a_i^∓ a_{i-1}^± ... a1 alpha_0^-1.

    beta_0 is the reversed connector alpha_0^-1.  Defined for i <= 4g.

    >>> from .words import word_str
    >>> word_str(beta_word(2, FiberSurface(1, 1)))
    "a0' a1 a2' a1 a0'"
    """
    if not 0 <= i <= 4 * s.g:
        raise ValueError(f"beta index {i} out of range [0, {4 * s.g}]")
    if i == 0:
        return (-1,)
    # alpha_j is the code j+1 and enters with sign (-1)^(j+1): even codes positive.
    up = [c if c % 2 == 0 else -c for c in range(2, i + 2)]
    return (-1, *up, *reversed(up[:-1]), -1)


def tilde_alpha_word(s: FiberSurface) -> Word:
    """The alternating descent a_{4g} a_{4g-1}' ... a1' a0 that closes B_0.

    For n = 1 it is the boundary arc alpha-tilde; for n >= 2 the same word
    is the closing arc of B_0 in the rotated convention.
    """
    # alpha_j is the code j+1 and enters with sign (-1)^j: odd codes positive.
    return tuple(c if c % 2 else -c for c in range(4 * s.g + 1, 0, -1))


def middle_detour_word(s: FiberSurface) -> Word:
    """Connector detour alpha_0 * alpha_{4g+1}^-1 linking the two knot blocks.

    For n >= 2 each curve B_i decomposes as beta_i, this detour, then the
    closing arc; it is exactly the discrepancy between the beta-convention
    words and the rotated explicit B_i words (solved from those words, not
    drawn independently).
    """
    if s.n < 2:
        raise ValueError("the middle detour exists only for n >= 2")
    return (alpha(0), alpha(4 * s.g + 1, -1))


def phi_b_word(i: int, head: Word, s: FiberSurface) -> Word:
    """Word of the curve B_i whose beta part is spelled `head`, 0 <= i <= 2g.

    The closing arc is alpha_{4g+1-i}, or the descent tilde_alpha_word(s)
    for i = 0.  n = 1: head * closing.  n >= 2: the rotated form
    alpha_0 * head * detour * closing * alpha_0^-1.  The twists fix every
    closing arc, so with `head` the image of beta_i this is the monodromy
    image of B_i, in the convention of b_word(i, s).
    """
    if not 0 <= i <= 2 * s.g:
        raise ValueError(f"B index {i} out of range [0, {2 * s.g}]")
    closing = tilde_alpha_word(s) if i == 0 else (alpha(4 * s.g + 1 - i),)
    if s.n == 1:
        return concat(head, closing)
    return concat((alpha(0),), head, middle_detour_word(s), closing, (alpha(0, -1),))


def b_word(i: int, s: FiberSurface) -> Word:
    """Vanishing-cycle curve B_i as a word, 0 <= i <= 2g.

    n = 1: B_0 = beta_0 * alpha-tilde and B_i = beta_i * alpha_{4g+1-i}.
    n >= 2: the rotated explicit forms starting with alpha_1, e.g.
    B_1 = a1 a_{4g+1}' a_{4g} a0'; B_0 is the i -> 0 limit of the same
    construction (its closing arc is the descent tilde_alpha_word(s)).

    >>> from .words import word_str
    >>> word_str(b_word(1, FiberSurface(1, 2)))
    "a1 a5' a4 a0'"
    """
    return phi_b_word(i, beta_word(i, s), s)


def c_word(i: int, s: FiberSurface) -> Word:
    """Chain curve c_i as a word, for n >= 2 and 1 <= i <= 2n-1.

    c_1 crosses alpha_{4g+2n-3} once; the even/odd chain curves cross two
    adjacent handles each; c_{2n-1} descends through the first knot block
    and over alpha_{4g+1}.  For n = 1 the single curve c_1 has no printed
    word and is carried opaque by the factorization instead.
    """
    g, n = s.g, s.n
    if n < 2:
        raise ValueError("c-curve words are only defined for n >= 2")
    if not 1 <= i <= 2 * n - 1:
        raise ValueError(f"c index {i} out of range [1, {2 * n - 1}]")
    if i == 2 * n - 1:
        down = [alpha(j, -1 if j % 2 == 0 else 1) for j in range(2 * g, 0, -1)]
        up = [alpha(j, 1 if j % 2 == 0 else -1) for j in range(2 * g, 0, -1)]
        return tuple(down + [alpha(4 * g + 1, -1)] + up + [alpha(0)])
    if i == 1:
        return (alpha(4 * g + 2 * n - 3), alpha(0, -1))
    t, odd = divmod(i, 2)
    if odd:  # i = 2t+1, t in [1, n-2]
        return (alpha(4 * g + 2 * n - 2 * t - 3), alpha(4 * g + 2 * n - 2 * t - 1, -1))
    # i = 2t, t in [1, n-1]
    return (alpha(4 * g + 2 * n - 2 * t), alpha(4 * g + 2 * n - 2 * t - 1, -1))


def eta_word() -> Word:
    """The genus-2 reference path eta = a0' a1 a2' a3 a4'.

    Solved from alpha_0 * eta = a1 a2' a3 a4' in the free group.
    """
    return (alpha(0, -1), alpha(1), alpha(2, -1), alpha(3), alpha(4, -1))


@lru_cache(maxsize=2 * MAX_GENUS)
def chain_curve(j: int) -> Word:
    """The chain curve a_j = alpha_j^-1 alpha_{j-1}, j >= 1.

    It crosses the arcs alpha_{j-1} and alpha_j once each.  Kept for the
    last 2 * MAX_GENUS indices, every a_j a two-bridge knot's piece twists
    name: a report compiles them twice, forward and inverse.

    >>> from .words import word_str
    >>> word_str(chain_curve(3))
    "a3' a2"
    """
    return (alpha(j, -1), alpha(j - 1))


def b2_curve() -> Word:
    """The genus-2 curve b2 = alpha_3^-1 alpha_2 alpha_1^-1 alpha_0 of the Stallings twist.

    It crosses alpha_0..alpha_3 once each.
    """
    return (alpha(3, -1), alpha(2), alpha(1, -1), alpha(0))


def validate_word(w: Word, s: FiberSurface) -> None:
    """Reject letters outside this surface's alphabet.

    Handle indices must lie in [1, 4g+2n-2]; 0 is no letter.  The
    boundary arc alpha-tilde is a word over these letters, never a letter.
    `w` must be a sequence: a second pass names the first illegal letter.
    """
    if s.alphabet.issuperset(w):
        return
    for c in w:  # name the first letter outside the alphabet
        if c in s.alphabet:
            continue
        if is_handle(c):
            raise ValueError(f"letter a{handle_index(c)} outside alphabet of {s.num_handles} handles")
        raise ValueError(f"{c!r} is not a letter code")


__all__ = [
    "MAX_GENUS",
    "MAX_INDEX",
    "FiberSurface",
    "CurveId",
    "beta_word",
    "tilde_alpha_word",
    "middle_detour_word",
    "b_word",
    "phi_b_word",
    "c_word",
    "eta_word",
    "chain_curve",
    "b2_curve",
    "validate_word",
]
