"""Dehn twists acting on words: one rule for every curve, compiled into one table.

A twist is a (curve word, exponent) pair (c, k), the power t_c^k.  The
letters alpha_0..alpha_N behave as arcs, and the rule is how a Dehn
twist acts on arcs that each cross its curve once (Farb-Margalit, A
Primer on Mapping Class Groups, ch. 3):

    t_c^k(x) = x c^k   for each generator x that c contains,

every other letter fixed.  A twist fixes its own curve, t_c(c) = c, so
a power needs no iteration: one pair costs O(|k|) letters.  The rule is
checked only on curves spelled as a nonempty freely reduced word that
contains each generator at most once, inside the surface's alphabet;
compile_monodromy refuses any other curve.  The named curves are in `surfaces`: the chain
curves a_j = alpha_j^-1 alpha_{j-1}, on which the rule reads
t_{a_j}(alpha_{j-1}) = alpha_{j-1} alpha_j^-1 alpha_{j-1} and
t_{a_j}(alpha_j) = alpha_{j-1}, and the Stallings curve b2.

A composite is given as pairs in application order: the FIRST pair is
applied first, so the sequence reads left to right while the usual
composition notation reads right to left.  It is one automorphism of the
free group pi_1(fiber).  compile_monodromy builds it once as a table from
each moved letter to its image, and CompiledMonodromy.apply maps a word
through that table in a single substitution.  The input word is
validated once, at that entry; intermediate words cannot leave the
alphabet because every image lies inside it.  This is the one action of
twists on words, for both knot families: a single twist is the table of
one pair, compile_monodromy(((c, k),), s).

Every image in a table of chain twists is a palindrome: a chain-twist
image (lo hi^-1 lo, lo, hi, hi lo^-1 hi) is one, and substituting
palindromes into a palindrome, inverting and freely reducing keep one.
So such a table commutes with reversing a word, and beta_images builds
the images of all the beta_i from one running prefix product, in O(g^2)
letters instead of one substitution per beta_i.  A table with another
image (t_{b2}'s are not palindromes) has its beta_i substituted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from .surfaces import FiberSurface, beta_word, validate_word
from .words import Word, _shown, alpha, apply_images, concat, invert, reduce_word, word_str


@dataclass(frozen=True)
class CompiledMonodromy:
    """A composite of twists as one automorphism of the free group.

    `images` maps the signed code of every letter the composite moves to
    its reduced image word (both signs are stored); every other letter of
    the surface alphabet is fixed.
    """

    images: Mapping[int, Word]
    surface: FiberSurface

    def apply(self, w: Word) -> Word:
        """Image of w, reduced: validate it once, then substitute every letter (`apply_images`).

        w need not be freely reduced: a word the table moves no letter of
        is reduced as it stands, and any other is reduced by the substitution.
        """
        validate_word(w, self.surface)
        images = self.images
        if images.keys().isdisjoint(w):
            return reduce_word(w)
        return apply_images(w, images)


@lru_cache(maxsize=256)
def twist_images(curve: Word, k: int) -> tuple[tuple[int, Word], ...]:
    """The generators t_c^k moves, each with its reduced image x c^k, as (code, image) pairs.

    Refuses a curve word the rule is not checked on.  Kept for the last
    256 pairs, so that the composites of chain twists, which repeat a few
    (a_j, +-1), reduce each image once.

    >>> from .surfaces import chain_curve
    >>> [(word_str((x,)), word_str(img)) for x, img in twist_images(chain_curve(3), 2)]
    [('a3', "a2 a3' a2"), ('a2', "a2 a3' a2 a3' a2")]
    """
    if not curve:
        raise ValueError("twist curve is the empty word")
    if reduce_word(curve) != curve:
        raise ValueError(f"twist curve {_shown(word_str(curve))} is not freely reduced")
    if len({abs(c) for c in curve}) < len(curve):
        raise ValueError(f"twist curve {_shown(word_str(curve))} repeats a generator")
    power = curve * k if k >= 0 else invert(curve) * -k
    return tuple((abs(c), reduce_word((abs(c),) + power)) for c in curve)


def compile_monodromy(twists: Sequence[tuple[Word, int]], s: FiberSurface) -> CompiledMonodromy:
    """Compose the twists t_c^k, given as (curve word, k) pairs, into one image table.

    The first pair is applied first.  Every curve word must lie in the
    alphabet of `s` and pass the checks of the rule; the pairs are checked
    before any is composed.  The table is then built from the outermost
    twist inwards, R_j = R_{j+1} ∘ t_j with R_N = id: t_j moves only the
    generators of its curve, so each step rewrites their entries (both
    signs of each): a copy of an entry of R_{j+1} where the image is one
    letter, else the image read through R_{j+1}'s table (`apply_images`).
    """
    rules = []
    for curve, k in twists:
        if not s.alphabet.issuperset(curve):
            raise ValueError(f"twist curve {_shown(word_str(curve))} leaves the alphabet "
                             f"of {s.num_handles} handles")
        rules.append(twist_images(curve, k))
    images: dict[int, Word] = {}
    get = images.get
    for rule in reversed(rules):
        step = []
        for code, img in rule:
            if len(img) == 1:
                # The image is one letter: copy both signs of that letter's entry.
                c = img[0]
                step.append((code, get(c, img), get(-c, (-c,))))
            else:
                new = apply_images(img, images)
                step.append((code, new, invert(new)))
        for code, pos, neg in step:
            images[code], images[-code] = pos, neg
    return CompiledMonodromy(images, s)


def beta_images(table: CompiledMonodromy) -> tuple[Word, ...]:
    """The images of beta_0 .. beta_{2g} under `table`, g the genus of its surface.

    Equal to `table.apply(beta_word(i, s))` for each i.  If every image of
    `table` is a palindrome, as in a table of chain twists, this costs one
    running product: the table then commutes with the reversal rho of a
    word (rho does not invert letters).  With u_j = alpha_j^((-1)^(j+1))
    and U_i = u_1 ... u_i, beta_word spells
    beta_i = alpha_0^-1 U_i rho(U_{i-1}) alpha_0^-1, hence

        phi(beta_i) = A L_i rho(L_{i-1}) A,  A = phi(alpha_0^-1),

    with L_i = L_{i-1} phi(u_i) reduced.  A need not be alpha_0^-1:
    t_{a_1} moves alpha_0.  Any other table has each beta_i substituted.

    >>> # the trefoil D(1, 1): its piece twists, t_{a2} first
    >>> from .surfaces import chain_curve
    >>> table = compile_monodromy(((chain_curve(2), 1), (chain_curve(1), 1)), FiberSurface(1, 1))
    >>> [word_str(w) for w in beta_images(table)]
    ["a0' a1 a0'", "a0' a1 a2' a1 a0'", "a0' a1 a2' a0 a2' a1 a0'"]
    """
    images, s = table.images, table.surface
    if any(img != img[::-1] for img in images.values()):
        return tuple(table.apply(beta_word(i, s)) for i in range(2 * s.g + 1))
    a = images.get(-1, (-1,))
    heads = [a]
    prefix = before = ()
    for j in range(1, 2 * s.g + 1):
        u = alpha(j, 1 if j % 2 else -1)
        before, prefix = prefix, concat(prefix, images.get(u, (u,)))
        heads.append(concat(a, prefix, before[::-1], a))
    return tuple(heads)


__all__ = [
    "CompiledMonodromy",
    "compile_monodromy",
    "beta_images",
    "twist_images",
]
