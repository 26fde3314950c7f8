"""Positive factorizations of the two Lefschetz pieces over the disk.

The hyperelliptic word W lists the base vanishing cycles; each piece is W
together with its monodromy-image block, X1 in image-first order and X2
rotated by |W|.  Attaching a cycle contributes a 2-handle framed one less
than the fiber surface framing, so framing labels are symbolic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .knots import Knot, StallingsKnot, TwoBridgeKnot
from .surfaces import CurveId, FiberSurface, b_word, beta_word, c_word, phi_b_word
from .twists import CompiledMonodromy, MonodromySpec, StallingsImages, compile_monodromy, stallings_rules
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
    if isinstance(phi, StallingsImages):
        # No letterwise rules for t_{b2}; c-images stay opaque.
        word = phi.phi_b_word(vc.curve.index, s) if vc.curve.family == "B" else None
        return replace(vc, word=word, phi_image=True)
    if vc.word is None:
        return replace(vc, phi_image=True)
    if vc.curve.family == "B" and s.n >= 2:
        # The stored B_i spelling is basepoint-rotated, so the image is
        # assembled from the image of the beta part; applying the letter
        # rules to the rotated spelling would not be the twist action.
        head = phi.apply(beta_word(vc.curve.index, s))
        return replace(vc, word=phi_b_word(vc.curve.index, head, s), phi_image=True)
    return replace(vc, word=phi.apply(vc.word), phi_image=True)


def build_pieces(knot: Knot, n: int) -> tuple[LFPiece, LFPiece]:
    """Factorizations of both pieces for the given knot and elliptic index.

    The monodromy images are computed once per call, as a compiled table
    (two-bridge) or the Stallings image table, and shared by every cycle.
    """
    if isinstance(knot, TwoBridgeKnot) and not knot.is_fibered:
        raise ValueError(f"{knot} is not fibered; no Lefschetz piece exists")
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


def conjugate_factorization(f: Factorization, phi: MonodromySpec, inverse: bool = False) -> Factorization:
    """Simultaneous conjugation: replace every word by its (inverse-)image."""
    table = compile_monodromy(phi.inverse() if inverse else phi, f.fiber)
    cycles = tuple(
        vc if vc.word is None else replace(vc, word=table.apply(vc.word))
        for vc in f.cycles
    )
    return Factorization(cycles, f.fiber)


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
    "conjugate_factorization",
    "factorization_json",
]
