"""Dehn twist actions on words and composite monodromies.

Twists along the chain curves a_1..a_{2g} act letterwise: t_{a_j} moves
only alpha_{j-1} and alpha_j, every other letter is fixed (curves beyond
the first knot block are disjoint from all a_j).  Composite monodromies
are stored in application order: the FIRST entry of MonodromySpec.twists
is applied first, so the tuple reads left to right while the usual
composition notation reads right to left.

A composite of twists is one automorphism of the free group pi_1(fiber)
(Farb-Margalit, A Primer on Mapping Class Groups, ch. 3).
compile_monodromy builds it once as a table from each moved letter to its
image, and CompiledMonodromy.apply maps a word through that table in a
single substitution.  The input word is validated once, at that entry;
intermediate words cannot leave the alphabet because every image lies
inside it.  apply_twist stays the single-twist primitive and the
reference the table is tested against.

The power t_{a3}^m has a closed form (ta3_power), so its table costs
O(|m|) letters.  The Stallings monodromy t_{a3}^m t_{a4} t_{b2} t_{a2}^-1
t_{a1}^-1 cannot be applied letterwise (there is no letter rule for
t_{b2}); its images of the B-curves come from the precomputed tables in
stallings_rules instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .surfaces import CurveId, FiberSurface, beta_word, eta_word, validate_word
from .words import Word, alpha, concat, invert


class UnsupportedTwistError(ValueError):
    """Raised when a twist has no letterwise rule (t_{b2}, and t_{a4} inside phi_m)."""


@dataclass(frozen=True)
class TwistRule:
    """Letterwise action of one signed Dehn twist.

    `images` maps unsigned letter codes to replacement words; letters not
    in the map are fixed.  Inverse letters receive inverted images.
    """

    curve: CurveId
    sign: int
    images: Mapping[int, Word]
    surface: FiberSurface


def _check_chain_index(j: int, s: FiberSurface) -> None:
    if not 1 <= j <= 2 * s.g:
        raise ValueError(f"chain twist index {j} out of range [1, {2 * s.g}]")


def chain_twist_rule(j: int, sign: int, s: FiberSurface) -> TwistRule:
    """Rule table for t_{a_j}^sign, 1 <= j <= 2g.

    t_{a_j}(alpha_{j-1}) = alpha_{j-1} alpha_j^-1 alpha_{j-1}
    t_{a_j}(alpha_j)     = alpha_{j-1}
    and the mutually inverse pair for sign = -1.  Twists outside the
    stated range are rejected rather than guessed.
    """
    _check_chain_index(j, s)
    if sign not in (1, -1):
        raise ValueError(f"twist sign must be +-1, got {sign}")
    lo, hi = alpha(j - 1), alpha(j)
    if sign == 1:
        images = {abs(lo): (lo, -hi, lo), abs(hi): (lo,)}
    else:
        images = {abs(lo): (hi,), abs(hi): (hi, -lo, hi)}
    return TwistRule(CurveId("a", j), sign, images, s)


def apply_twist(rule: TwistRule, w: Word) -> Word:
    """Apply one twist rule letterwise and reduce.

    Every letter of w must belong to the rule's surface alphabet.
    """
    validate_word(w, rule.surface)
    out: list[Word] = []
    for c in w:
        img = rule.images.get(abs(c))
        if img is None:
            out.append((c,))
        else:
            out.append(img if c > 0 else invert(img))
    return concat(*out)


@dataclass(frozen=True)
class MonodromySpec:
    """Ordered sequence of signed twists; twists[0] is applied first."""

    twists: tuple[tuple[CurveId, int], ...]
    source: str = "custom"

    def __len__(self):
        return len(self.twists)

    def inverse(self) -> "MonodromySpec":
        rev = tuple((c, -sgn) for c, sgn in reversed(self.twists))
        return MonodromySpec(rev, source=f"inverse({self.source})")

    def serialize(self) -> str:
        """Wire form, leftmost applied first, runs collapsed: `a1^-1 a2^-1 b2 a4 a3^3`."""
        parts: list[str] = []
        run: tuple[CurveId, int] | None = None
        count = 0

        def flush():
            if run is None:
                return
            curve, sgn = run
            power = sgn * count
            parts.append(str(curve) if power == 1 else f"{curve}^{power}")

        for entry in self.twists:
            if entry == run:
                count += 1
            else:
                flush()
                run, count = entry, 1
        flush()
        return " ".join(parts)

    def composition_str(self) -> str:
        """Composition notation, rightmost twist applied first."""
        toks = self.serialize().split()
        return " ".join(f"t_{t}" for t in reversed(toks)) if toks else "id"


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


def compile_monodromy(phi: MonodromySpec, s: FiberSurface) -> CompiledMonodromy:
    """Compose the twists of `phi` into one image table.

    The twists are checked in application order.  The table is then built
    from the outermost twist inwards, R_j = R_{j+1} ∘ t_j with R_N = id:
    t_j moves only two letters, so each step rewrites two entries, each as
    one concat of at most three images of R_{j+1}.
    """
    rules = []
    for curve, sign in phi.twists:
        if curve.family != "a":
            raise UnsupportedTwistError(
                f"twist t_{curve} has no letterwise rule; use its precomputed images"
            )
        rules.append(chain_twist_rule(curve.index, sign, s))
    images: dict[int, Word] = {}
    for rule in reversed(rules):
        step = {code: concat(*[images.get(c, (c,)) for c in img])
                for code, img in rule.images.items()}
        for code, img in step.items():
            images[code] = img
            images[-code] = invert(img)
    return CompiledMonodromy(images, s)


def apply_monodromy(phi: MonodromySpec, w: Word, s: FiberSurface) -> Word:
    """Apply the twists of `phi` to w (twists[0] first) as one substitution.

    A twist without a letterwise rule or out of range is reported before a
    letter of w outside the surface alphabet.
    """
    return compile_monodromy(phi, s).apply(w)


def _check_eps(eps: Sequence[int]) -> tuple[int, ...]:
    eps = tuple(eps)
    if not eps or len(eps) % 2:
        raise ValueError(f"fibered sign sequence must have even positive length, got {len(eps)}")
    if any(e not in (1, -1) for e in eps):
        raise ValueError(f"fibered sign sequence must be +-1 entries, got {eps}")
    return eps


def two_bridge_monodromy(eps: Sequence[int]) -> MonodromySpec:
    """Fibration monodromy of the two-bridge knot with signs eps.

    t_{a_1}^{eps_1} acts first, t_{a_{2k}}^{eps_{2k}} last.
    """
    eps = _check_eps(eps)
    twists = tuple((CurveId("a", j + 1), e) for j, e in enumerate(eps))
    src = "twobridge:" + ",".join("+" if e > 0 else "-" for e in eps)
    return MonodromySpec(twists, source=src)


def piece_monodromy(eps: Sequence[int]) -> MonodromySpec:
    """The composite whose images label the phi-half of each piece's factorization.

    Same signs as the fibration monodromy but applied in the opposite
    order: t_{a_{2g}}^{eps_{2g}} first, t_{a_1}^{eps_1} last.  With this
    ordering the image of alpha_i is a word over alpha_0..alpha_{i+1}
    crossing alpha_{i+1} exactly once.
    """
    eps = _check_eps(eps)
    twists = tuple((CurveId("a", j + 1), e) for j, e in reversed(list(enumerate(eps))))
    src = "piece:" + ",".join("+" if e > 0 else "-" for e in eps)
    return MonodromySpec(twists, source=src)


def stallings_monodromy(m: int) -> MonodromySpec:
    """phi_m = t_{a3}^m ∘ t_{a4} ∘ t_{b2} ∘ t_{a2}^-1 ∘ t_{a1}^-1."""
    twists: list[tuple[CurveId, int]] = [
        (CurveId("a", 1), -1),
        (CurveId("a", 2), -1),
        (CurveId("b2"), 1),
        (CurveId("a", 4), 1),
    ]
    twists += [(CurveId("a", 3), 1 if m > 0 else -1)] * abs(m)
    return MonodromySpec(tuple(twists), source=f"stallings:m={m}")


def ta3_power(w: Word, m: int, s: FiberSurface | None = None) -> Word:
    """t_{a3}^m applied letterwise (moves alpha_2 and alpha_3 only).

    The images come in closed form.  With a = alpha_2, b = alpha_3, k >= 1:
    t^k(a) = (a b^-1)^k a,       t^k(b) = (a b^-1)^(k-1) a,
    t^-k(a) = (b a^-1)^(k-1) b,  t^-k(b) = (b a^-1)^k b,
    so the table costs O(|m|) letters and w is substituted once.
    """
    if s is None:
        s = FiberSurface(2, 1)
    _check_chain_index(3, s)
    images: dict[int, Word] = {}
    if m:
        # t^-k swaps the roles of a and b in t^k.
        p, q = (alpha(2), alpha(3)) if m > 0 else (alpha(3), alpha(2))
        k = abs(m)
        long, short = (p, -q) * k + (p,), (p, -q) * (k - 1) + (p,)
        images = {p: long, -p: invert(long), q: short, -q: invert(short)}
    return CompiledMonodromy(images, s).apply(w)


@dataclass(frozen=True)
class StallingsImages:
    """Precomputed phi_m images of the genus-2 curves B_0..B_4.

    heads[i] is the image of the beta part of B_i; the closing arcs are
    untouched by the twists and are appended per surface convention by
    `surfaces.phi_b_word`.  At m = 0 these are the five eta-decompositions of the
    untwisted monodromy image; the t_{a3}^m factor only rewrites the
    alpha_2/alpha_3 letters.
    """

    m: int
    heads: tuple[Word, ...]


def stallings_rules(m: int) -> StallingsImages:
    """Build the phi_m image table for the Stallings knot K_m."""
    s = FiberSurface(2, 1)
    eta = eta_word()
    t_a3 = ta3_power((alpha(3),), m, s)
    t_a2inv = ta3_power((alpha(2, -1),), m, s)
    b0, b1, b3, b4 = (beta_word(i, s) for i in (0, 1, 3, 4))
    heads = (
        concat(eta, t_a3, t_a2inv),
        concat(eta, t_a3, b0),
        concat(eta, t_a3, b1),
        concat(eta, t_a3, b4),
        concat(b4, ta3_power(invert(b3), m, s), b4),
    )
    return StallingsImages(m, heads)


__all__ = [
    "TwistRule",
    "MonodromySpec",
    "UnsupportedTwistError",
    "chain_twist_rule",
    "apply_twist",
    "CompiledMonodromy",
    "compile_monodromy",
    "apply_monodromy",
    "two_bridge_monodromy",
    "piece_monodromy",
    "stallings_monodromy",
    "ta3_power",
    "StallingsImages",
    "stallings_rules",
]
