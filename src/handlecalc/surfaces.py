"""Fiber surface model: handle structure and reference curve words.

The fiber of the genus 2g+n-1 Lefschetz fibration carries one 0-handle and
N = 4g+2n-2 one-handles with cores alpha_1..alpha_N; alpha_0 is the
connector arc through the 0-handle and alpha-tilde the boundary arc used
when n = 1.  This module produces the canonical words for the reference
paths beta_i, eta, alpha-tilde and the vanishing-cycle curves B_i, c_i.

Two spelling conventions coexist on purpose.  For n = 1 every B_i word
starts with alpha_0^-1 (the beta-path convention); for n >= 2 the B_i
words are the rotated forms that start with alpha_1.  The two agree up to
cyclic rotation; comparisons across conventions must go through
cyclic_reduce.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Word, alpha, concat

CURVE_FAMILIES = ("B", "c", "a", "b2", "boundary")


@dataclass(frozen=True)
class FiberSurface:
    """Surface parameters: knot genus g and elliptic-surface index n."""

    g: int
    n: int

    def __post_init__(self):
        if self.g < 1:
            raise ValueError(f"knot genus must be >= 1, got {self.g}")
        if self.n < 1:
            raise ValueError(f"elliptic index must be >= 1, got {self.n}")

    @property
    def num_handles(self) -> int:
        """Number of 1-handles, 4g + 2n - 2."""
        return 4 * self.g + 2 * self.n - 2


@dataclass(frozen=True)
class CurveId:
    """Identifier of a reference curve: family B/c/a/b2/boundary plus index."""

    family: str
    index: int = 0

    def __post_init__(self):
        if self.family not in CURVE_FAMILIES:
            raise ValueError(f"unknown curve family {self.family!r}")

    def __str__(self):
        if self.family in ("b2", "boundary"):
            return "dF" if self.family == "boundary" else "b2"
        return f"{self.family}{self.index}"


BOUNDARY = CurveId("boundary")


def _beta_sign(j: int) -> int:
    # alpha_j enters beta words with sign (-1)^(j+1): positive for odd j.
    return 1 if j % 2 == 1 else -1


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
        return (alpha(0, -1),)
    up = [alpha(j, _beta_sign(j)) for j in range(1, i + 1)]
    down = [alpha(j, _beta_sign(j)) for j in range(i - 1, 0, -1)]
    return tuple([alpha(0, -1)] + up + down + [alpha(0, -1)])


def _tilde_type(s: FiberSurface) -> Word:
    # The alternating descent a_{4g} a_{4g-1}' ... a1' a0; the spelling of the
    # boundary arc for n = 1 and of its analogue closing B_0 for n >= 2.
    return tuple(alpha(j, 1 if j % 2 == 0 else -1) for j in range(4 * s.g, -1, -1))


def tilde_alpha_word(s: FiberSurface) -> Word:
    """The boundary arc alpha-tilde as a word; only defined when n = 1."""
    if s.n != 1:
        raise ValueError(f"alpha-tilde exists only for n = 1, got n = {s.n}")
    return _tilde_type(s)


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

    The closing arc is alpha_{4g+1-i}, or the tilde-type descent for
    i = 0.  n = 1: head * closing.  n >= 2: the rotated form
    alpha_0 * head * detour * closing * alpha_0^-1.  The twists fix every
    closing arc, so with `head` the image of beta_i this is the monodromy
    image of B_i, in the convention of b_word(i, s).
    """
    if not 0 <= i <= 2 * s.g:
        raise ValueError(f"B index {i} out of range [0, {2 * s.g}]")
    closing = _tilde_type(s) if i == 0 else (alpha(4 * s.g + 1 - i),)
    if s.n == 1:
        return concat(head, closing)
    return concat((alpha(0),), head, middle_detour_word(s), closing, (alpha(0, -1),))


def b_word(i: int, s: FiberSurface) -> Word:
    """Vanishing-cycle curve B_i as a word, 0 <= i <= 2g.

    n = 1: B_0 = beta_0 * alpha-tilde and B_i = beta_i * alpha_{4g+1-i}.
    n >= 2: the rotated explicit forms starting with alpha_1, e.g.
    B_1 = a1 a_{4g+1}' a_{4g} a0'; B_0 is the i -> 0 limit of the same
    construction (its closing arc is the tilde-type descent).

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


def validate_word(w: Word, s: FiberSurface) -> None:
    """Reject letters outside this surface's alphabet.

    Handle indices must lie in [1, 4g+2n-2]; the tilde letter is only
    legal when n = 1.
    """
    from . import words as W

    for c in w:
        if W.is_tilde(c):
            if s.n != 1:
                raise ValueError("tilde letter is only legal when n = 1")
        elif W.is_handle(c) and not 1 <= W.handle_index(c) <= s.num_handles:
            raise ValueError(
                f"letter a{W.handle_index(c)} outside alphabet of {s.num_handles} handles"
            )


__all__ = [
    "FiberSurface",
    "CurveId",
    "BOUNDARY",
    "beta_word",
    "tilde_alpha_word",
    "middle_detour_word",
    "b_word",
    "phi_b_word",
    "c_word",
    "eta_word",
    "validate_word",
]
