"""Positive factorizations of the two Lefschetz pieces over the disk.

The hyperelliptic word W lists the base vanishing cycles; each piece is W
together with its monodromy-image block, X1 in image-first order and X2
rotated by |W|.  Attaching a cycle contributes a 2-handle framed one less
than the fiber surface framing, so framing labels are symbolic.

The rotation is load-bearing: a cyclic permutation of a positive
factorization describes the same fibration, and `schedules.run_both`
derives X2's schedule from X1's by renaming handle ids on the strength
of it.  Its guard rejects any X2 whose start complex is not X1's rotated
by |W|, so changing either order here breaks `run_both`.

Every B-image is spelled one way, for both knot families and every n:
`phi_b_word(i, head, s)` with `head` the image of beta_i (from the
compiled table, or the Stallings heads).  The twists fix the closing arcs,
so this is the image of the whole curve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .knots import Knot, StallingsKnot
from .surfaces import CurveId, FiberSurface, b_word, beta_word, c_word, phi_b_word
from .twists import CompiledMonodromy, StallingsImages, compile_monodromy, stallings_rules
from .words import Word, word_str

FRAMING = "fiber-1"


@dataclass(frozen=True)
class VanishingCycle:
    """One factor: curve identity, optional phi tag, attaching word (None = opaque)."""

    curve: CurveId
    word: Word | None
    phi_image: bool = False
    framing: str = FRAMING

    def label(self) -> str:
        return ("phi(" + str(self.curve) + ")") if self.phi_image else str(self.curve)


@dataclass(frozen=True)
class Factorization:
    cycles: tuple[VanishingCycle, ...]
    fiber: FiberSurface

    def __len__(self):
        return len(self.cycles)


@dataclass(frozen=True)
class LFPiece:
    """One side of the splitting: X1 carries image-block-first order, X2 the rotation."""

    which: str
    factorization: Factorization


def build_W(s: FiberSurface) -> Factorization:
    """The word W as an ordered cycle list.

    n >= 2: c_{2n-2} .. c_2 c_1 c_1 c_2 .. c_{2n-2} B_0 .. B_{2g} c_{2n-1};
    n = 1 degenerates to B_0 .. B_{2g} c_1 with the c_1 word unknown
    (carried opaque).  |W| = 2g + 4n - 2 in both cases.
    """
    cycles: list[VanishingCycle] = []
    if s.n >= 2:
        down = list(range(2 * s.n - 2, 1, -1))
        for i in down + [1, 1] + list(reversed(down)):
            cycles.append(VanishingCycle(CurveId("c", i), c_word(i, s)))
    for i in range(2 * s.g + 1):
        cycles.append(VanishingCycle(CurveId("B", i), b_word(i, s)))
    if s.n >= 2:
        cycles.append(VanishingCycle(CurveId("c", 2 * s.n - 1), c_word(2 * s.n - 1, s)))
    else:
        cycles.append(VanishingCycle(CurveId("c", 1), None))
    assert len(cycles) == 2 * s.g + 4 * s.n - 2
    return Factorization(tuple(cycles), s)


def _phi_cycle(
    vc: VanishingCycle, phi: CompiledMonodromy | StallingsImages, s: FiberSurface
) -> VanishingCycle:
    if vc.curve.family == "B":
        # At n >= 2 the stored spelling is basepoint-rotated, so the letter
        # rules would not be the twist action on it; map the beta part only.
        i = vc.curve.index
        head = phi.heads[i] if isinstance(phi, StallingsImages) else phi.apply(beta_word(i, s))
        return replace(vc, word=phi_b_word(i, head, s), phi_image=True)
    if vc.word is None or isinstance(phi, StallingsImages):
        # No letterwise rules for t_{b2}; Stallings c-images stay opaque.
        return replace(vc, word=None, phi_image=True)
    return replace(vc, word=phi.apply(vc.word), phi_image=True)


def build_pieces(knot: Knot, n: int) -> tuple[LFPiece, LFPiece]:
    """Factorizations of both pieces for the given knot and elliptic index.

    The monodromy images are computed once per call, as a compiled table
    (two-bridge) or the Stallings image table, and shared by every cycle.
    A non-fibered knot (`TwoBridgeKnot.genus`) and n < 1 (`FiberSurface`)
    raise ValueError.
    """
    s = FiberSurface(knot.genus, n)
    base = build_W(s)
    if isinstance(knot, StallingsKnot):
        phi = stallings_rules(knot.m)
    else:
        phi = compile_monodromy(knot.piece_monodromy(), s)
    phi_block = tuple(_phi_cycle(vc, phi, s) for vc in base.cycles)
    x1 = Factorization(phi_block + base.cycles, s)
    x2 = Factorization(base.cycles + phi_block, s)
    return LFPiece("X1", x1), LFPiece("X2", x2)


def factorization_json(f: Factorization) -> dict:
    """Stable JSON form: ordered cycles with curve, word text and framing."""
    return {
        "fiber": {"g": f.fiber.g, "n": f.fiber.n},
        "cycles": [
            {
                "curve": vc.label(),
                "word": None if vc.word is None else word_str(vc.word),
                "framing": vc.framing,
            }
            for vc in f.cycles
        ],
    }


__all__ = [
    "FRAMING",
    "VanishingCycle",
    "Factorization",
    "LFPiece",
    "build_W",
    "build_pieces",
    "factorization_json",
]
