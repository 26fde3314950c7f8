"""Positive factorizations of the two Lefschetz pieces over the disk.

The hyperelliptic word W lists the base vanishing cycles; each piece is W
together with its monodromy-image block, X1 in image-first order and X2
rotated by |W|.  Attaching a cycle contributes a 2-handle framed one less
than the fiber surface framing, so framing labels are symbolic.

The rotation is load-bearing: a cyclic permutation of a positive
factorization describes the same fibration, and `schedules.run_both`
derives X2's result from X1's trace by rotation alone on the strength of
it, since both pieces name a handle by its block and its place in it.
Its guard rejects any X2 whose start state is not X1's rotated by |W|,
so changing either order here breaks `run_both`.

Both knot families apply their monodromy one way: `knot.piece_twists()`
compiled into one table (`twists.compile_monodromy`), with no branch on
the family.  Every B-image is spelled `phi_b_word(i, head, s)` with
`head` the image of beta_i, for every n.  The twists fix the closing
arcs, so this is the image of the whole curve.  The heads are the
table's `twists.beta_images`, computed once per knot: for a two-bridge
knot every image in the table is a palindrome, so all 2g + 1 heads come
from one running prefix product; K_m's table is not palindromic, and its
five beta_i are substituted.  The c-images go through
`CompiledMonodromy.apply`, so the only opaque cycles are n = 1's c1 and
phi(c1).

Three memos, each of pure and immutable values, so that nothing is
built twice: W once per surface (`build_W` keeps the last 16), the
monodromy images once per knot (`_monodromy_images` keeps the last 4),
since the table moves only alpha_0..alpha_{2g} and so does not depend on
n, and the pieces themselves once per (knot, n) (`build_pieces` keeps
the last 2), so that `run_both`, `full_report` and a replay of both
traces of one document each build once.  `verify.check_piece_table`
reads the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .knots import Knot
from .surfaces import CurveId, FiberSurface, b_word, c_word, phi_b_word
from .twists import CompiledMonodromy, beta_images, compile_monodromy
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


@lru_cache(maxsize=16)
def build_W(s: FiberSurface) -> Factorization:
    """The word W as an ordered cycle list.

    n >= 2: c_{2n-2} .. c_2 c_1 c_1 c_2 .. c_{2n-2} B_0 .. B_{2g} c_{2n-1};
    n = 1 degenerates to B_0 .. B_{2g} c_1 with the c_1 word unknown
    (carried opaque).  |W| = 2g + 4n - 2 in both cases.

    Built once per surface: the W of the last 16 surfaces is kept and the
    same frozen object is handed to every caller.  The largest, at
    g = MAX_GENUS and n = MAX_INDEX, holds about 6 MB.
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


def _phi_cycle(vc: VanishingCycle, phi: CompiledMonodromy, heads: tuple[Word, ...], s: FiberSurface) -> VanishingCycle:
    if vc.curve.family == "B":
        # At n >= 2 the stored spelling is basepoint-rotated, so the letter
        # rules would not be the twist action on it; map the beta part only.
        i = vc.curve.index
        return VanishingCycle(vc.curve, phi_b_word(i, heads[i], s), True, vc.framing)
    if vc.word is None:
        # The n = 1 curve c_1 has no word, so neither has its image.
        return VanishingCycle(vc.curve, None, True, vc.framing)
    return VanishingCycle(vc.curve, phi.apply(vc.word), True, vc.framing)


@lru_cache(maxsize=4)
def _monodromy_images(knot: Knot) -> tuple[CompiledMonodromy, tuple[Word, ...]]:
    """The knot's piece monodromy as (table, images of beta_0..beta_{2g}).

    The table is `knot.piece_twists()` compiled at FiberSurface(g, 1), for
    both knot families, and the heads are its `beta_images`.  Neither
    depends on n.  Kept for the last 4 knots, keyed by the knot's value: a
    two-bridge knot of genus MAX_GENUS holds up to about 10 MB, K_m at
    |m| = MAX_TWISTS about 2.3 MB (measured with tracemalloc).
    """
    table = compile_monodromy(knot.piece_twists(), FiberSurface(knot.genus, 1))
    return table, beta_images(table)


@lru_cache(maxsize=2)
def build_pieces(knot: Knot, n: int) -> tuple[LFPiece, LFPiece]:
    """Factorizations of both pieces for the given knot and elliptic index.

    Built once per (knot, n): the pieces of the last 2 are kept, keyed by
    the knot's value, and the same frozen pair is handed to every caller.
    A two-bridge build at g = MAX_GENUS and n = MAX_INDEX holds about 5 MB
    besides the W it shares (measured with tracemalloc), a K_m build at
    |m| = MAX_TWISTS and n = MAX_INDEX about 1.7 MB.
    W is built once per surface and the monodromy images once per knot
    (`build_W`, `_monodromy_images`), and shared by every cycle: the
    images of beta_0..beta_{2g} (`beta_images` of the compiled table) and
    the table itself, which maps the c-curves, read at this surface.
    A non-fibered knot (`TwoBridgeKnot.genus`) and n < 1 (`FiberSurface`)
    raise ValueError.
    """
    s = FiberSurface(knot.genus, n)
    base = build_W(s)
    table, heads = _monodromy_images(knot)
    # `apply` checks a word against the alphabet at n, wider than the table's.
    phi = CompiledMonodromy(table.images, s)
    phi_block = tuple(_phi_cycle(vc, phi, heads, s) for vc in base.cycles)
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
