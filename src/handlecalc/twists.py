"""Dehn twist actions on words: chain-twist monodromies and the Stallings heads.

Twists along the chain curves a_1..a_{2g} act letterwise: t_{a_j} moves
only alpha_{j-1} and alpha_j, every other letter is fixed (curves beyond
the first knot block are disjoint from all a_j).  A composite of chain
twists is given as (j, sign) pairs, one for each t_{a_j}^sign, in
application order: the FIRST pair is applied first, so the sequence reads
left to right while the usual composition notation reads right to left.

A composite of twists is one automorphism of the free group pi_1(fiber)
(Farb-Margalit, A Primer on Mapping Class Groups, ch. 3).
compile_monodromy builds it once as a table from each moved letter to its
image, and CompiledMonodromy.apply maps a word through that table in a
single substitution.  The input word is validated once, at that entry;
intermediate words cannot leave the alphabet because every image lies
inside it.  This is the one action of twists on words: a single twist is
the table of one pair, compile_monodromy(((j, sign),), s).

Every image in a compiled table is a palindrome, and the pipeline relies
on it: a chain-twist image (lo hi^-1 lo, lo, hi, hi lo^-1 hi) is one, and
substituting palindromes into a palindrome, inverting and freely reducing
keep one.  So a table commutes with reversing a word, and beta_images
builds the images of all the beta_i from one running prefix product, in
O(g^2) letters instead of one substitution per beta_i.  It checks the
palindromes first and raises ValueError on a table without them.

The power t_{a3}^m has a closed form (ta3_power), so its table costs
O(|m|) letters.  The Stallings monodromy t_{a3}^m t_{a4} t_{b2} t_{a2}^-1
t_{a1}^-1 is never compiled: there is no letter rule for t_{b2}, and its
images of the B-curves come from the precomputed tables in
stallings_rules instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .surfaces import FiberSurface, beta_word, eta_word, validate_word
from .words import Word, alpha, concat, invert, word_str


def _check_chain_index(j: int, s: FiberSurface) -> None:
    if not 1 <= j <= 2 * s.g:
        raise ValueError(f"chain twist index {j} out of range [1, {2 * s.g}]")


def _chain_images(j: int, sign: int) -> tuple[tuple[int, Word], tuple[int, Word]]:
    """The two letters t_{a_j}^sign moves, each with its image, as (code, image) pairs.

    t_{a_j}(alpha_{j-1}) = alpha_{j-1} alpha_j^-1 alpha_{j-1}
    t_{a_j}(alpha_j)     = alpha_{j-1}
    and the mutually inverse pair for sign = -1.  Every image is a palindrome.
    """
    lo, hi = alpha(j - 1), alpha(j)
    if sign == 1:
        return (lo, (lo, -hi, lo)), (hi, (lo,))
    return (lo, (hi,)), (hi, (hi, -lo, hi))


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
        """Image of w: validate it once, substitute every letter, reduce."""
        validate_word(w, self.surface)
        images = self.images
        return concat(*[images.get(c, (c,)) for c in w])


def compile_monodromy(twists: Sequence[tuple[int, int]], s: FiberSurface) -> CompiledMonodromy:
    """Compose the chain twists t_{a_j}^sign, given as (j, sign) pairs, into one image table.

    The first pair is applied first.  Each j must lie in [1, 2g] and each
    sign be +-1; the pairs are checked before any is composed.  The table
    is then built from the outermost twist inwards, R_j = R_{j+1} ∘ t_j
    with R_N = id: t_j moves only two letters, so each step rewrites two
    entries (both signs of each): one is a copy of an entry of R_{j+1},
    the other one concat of three of them.
    """
    for j, sign in twists:
        _check_chain_index(j, s)
        if sign not in (1, -1):
            raise ValueError(f"twist sign must be +-1, got {sign}")
    images: dict[int, Word] = {}
    get = images.get
    for j, sign in reversed(twists):
        step = []
        for code, img in _chain_images(j, sign):
            if len(img) == 1:
                # The image is one letter: copy both signs of that letter's entry.
                c = img[0]
                step.append((code, get(c, img), get(-c, (-c,))))
            else:
                new = concat(*[get(c, (c,)) for c in img])
                step.append((code, new, invert(new)))
        for code, pos, neg in step:
            images[code], images[-code] = pos, neg
    return CompiledMonodromy(images, s)


def beta_images(table: CompiledMonodromy) -> tuple[Word, ...]:
    """The images of beta_0 .. beta_{2g} under `table`, g the genus of its surface.

    Equal to `table.apply(beta_word(i, s))` for each i, at the cost of one
    running product.  Every image in a compiled table is a palindrome: the
    chain-twist images are, and substituting palindromes into a palindrome,
    inverting and freely reducing all keep one.  So the table commutes with
    the reversal rho of a word (rho does not invert letters).  With
    u_j = alpha_j^((-1)^(j+1)) and U_i = u_1 ... u_i, beta_word spells
    beta_i = alpha_0^-1 U_i rho(U_{i-1}) alpha_0^-1, hence

        phi(beta_i) = A L_i rho(L_{i-1}) A,  A = phi(alpha_0^-1),

    with L_i = L_{i-1} phi(u_i) reduced.  A need not be alpha_0^-1:
    t_{a_1} moves alpha_0.  ValueError if an image of `table` is not a
    palindrome, since the identity then fails.

    >>> # the trefoil D(1, 1): its piece twists, t_{a2} first
    >>> table = compile_monodromy(((2, 1), (1, 1)), FiberSurface(1, 1))
    >>> [word_str(w) for w in beta_images(table)]
    ["a0' a1 a0'", "a0' a1 a2' a1 a0'", "a0' a1 a2' a0 a2' a1 a0'"]
    """
    images = table.images
    for code, img in images.items():
        if img != img[::-1]:
            raise ValueError(
                f"image {word_str(img)!r} of {word_str((code,))} is not a palindrome; "
                "the beta images need one"
            )
    a = images.get(-1, (-1,))
    heads = [a]
    prefix = before = ()
    for j in range(1, 2 * table.surface.g + 1):
        u = alpha(j, 1 if j % 2 else -1)
        before, prefix = prefix, concat(prefix, images.get(u, (u,)))
        heads.append(concat(a, prefix, before[::-1], a))
    return tuple(heads)


def ta3_power(w: Word, m: int, s: FiberSurface) -> Word:
    """t_{a3}^m applied letterwise (moves alpha_2 and alpha_3 only).

    The images come in closed form.  With a = alpha_2, b = alpha_3, k >= 1:
    t^k(a) = (a b^-1)^k a,       t^k(b) = (a b^-1)^(k-1) a,
    t^-k(a) = (b a^-1)^(k-1) b,  t^-k(b) = (b a^-1)^k b,
    so the table costs O(|m|) letters and w is substituted once.
    """
    _check_chain_index(3, s)
    images: dict[int, Word] = {}
    if m:
        # t^-k swaps the roles of a and b in t^k.
        p, q = (alpha(2), alpha(3)) if m > 0 else (alpha(3), alpha(2))
        k = abs(m)
        long, short = (p, -q) * k + (p,), (p, -q) * (k - 1) + (p,)
        images = {p: long, -p: invert(long), q: short, -q: invert(short)}
    return CompiledMonodromy(images, s).apply(w)


def stallings_rules(m: int) -> tuple[Word, ...]:
    """The phi_m images of the beta parts of the genus-2 curves B_0..B_4 of K_m.

    The closing arcs are untouched by the twists and are appended per
    surface convention by `surfaces.phi_b_word`.  At m = 0 these are the
    five eta-decompositions of the untwisted monodromy image; the
    t_{a3}^m factor only rewrites the alpha_2/alpha_3 letters.
    """
    s = FiberSurface(2, 1)
    eta = eta_word()
    t_a3 = ta3_power((alpha(3),), m, s)
    t_a2inv = ta3_power((alpha(2, -1),), m, s)
    b0, b1, b3, b4 = (beta_word(i, s) for i in (0, 1, 3, 4))
    return (
        concat(eta, t_a3, t_a2inv),
        concat(eta, t_a3, b0),
        concat(eta, t_a3, b1),
        concat(eta, t_a3, b4),
        concat(b4, ta3_power(invert(b3), m, s), b4),
    )


__all__ = [
    "CompiledMonodromy",
    "compile_monodromy",
    "beta_images",
    "ta3_power",
    "stallings_rules",
]
