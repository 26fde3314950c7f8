"""Factorization builder: W and the two pieces."""

from handlecalc.complexes import complex_from_piece
from handlecalc.factorization import (
    Factorization,
    build_W,
    build_pieces,
    factorization_json,
)
from handlecalc.knots import StallingsKnot, parse_knot_spec
from handlecalc.surfaces import FiberSurface
from handlecalc.twists import compile_monodromy
from handlecalc.verify import euler_char
from handlecalc.words import parse_word


def cycle_names(f: Factorization):
    return [vc.label() for vc in f.cycles]


def test_build_w_n1():
    w = build_W(FiberSurface(1, 1))
    assert cycle_names(w) == ["B0", "B1", "B2", "c1"]
    assert w.cycles[-1].word is None  # the n=1 chain handle has no printed word
    assert all(vc.word is not None for vc in w.cycles[:-1])


def test_build_w_n2():
    w = build_W(FiberSurface(1, 2))
    assert cycle_names(w) == ["c2", "c1", "c1", "c2", "B0", "B1", "B2", "c3"]
    assert len(w) == 8
    assert all(vc.word is not None for vc in w.cycles)


def test_build_w_n3_order():
    w = build_W(FiberSurface(1, 3))
    assert cycle_names(w) == [
        "c4", "c3", "c2", "c1", "c1", "c2", "c3", "c4",
        "B0", "B1", "B2", "c5",
    ]


def test_w_length_formula():
    for g in (1, 2, 3):
        for n in (1, 2, 3):
            assert len(build_W(FiberSurface(g, n))) == 2 * g + 4 * n - 2


def test_w_is_built_once_per_surface():
    # Knots of one genus share the W of each surface, cycle for cycle;
    # another n is another surface and another W.
    w = build_W(FiberSurface(2, 2))
    for spec in ("twobridge:+,-,+,+", "stallings:m=5"):
        _, x2 = build_pieces(parse_knot_spec(spec), 2)
        assert all(a is b for a, b in zip(x2.factorization.cycles, w.cycles))
    assert build_W(FiberSurface(2, 2)) is w
    assert build_W(FiberSurface(2, 3)) is not w


def test_pieces_counts():
    x1, x2 = build_pieces(parse_knot_spec("twobridge:+,+"), 1)
    # 8 cycles; the fiber boundary handle is added by the complex, total 9 = 4g+5.
    assert len(x1.factorization) == len(x2.factorization) == 8

    x1, _ = build_pieces(StallingsKnot(2), 1)
    assert len(x1.factorization) == 12

    x1, _ = build_pieces(parse_knot_spec("twobridge:+,+"), 2)
    assert len(x1.factorization) == 16


def test_euler_consistency_identity():
    # 1 - (4g+2n-2) + (4g+8n-3) = 6n for every piece.
    for g in range(1, 6):
        for n in range(1, 6):
            x1, x2 = build_pieces(parse_knot_spec("twobridge:" + ",".join("+" * (2 * g))), n)
            for piece in (x1, x2):
                cx = complex_from_piece(piece)
                assert cx.counts() == {"zero_handles": 1, "one_handles": 4 * g + 2 * n - 2,
                                       "two_handles": 4 * g + 8 * n - 3}
                assert euler_char(cx.counts().values()) == 6 * n


def test_x2_is_x1_rotated():
    x1, x2 = build_pieces(parse_knot_spec("twobridge:+,-"), 2)
    half = len(x1.factorization) // 2
    assert x1.factorization.cycles[:half] == x2.factorization.cycles[half:]
    assert x1.factorization.cycles[half:] == x2.factorization.cycles[:half]


def test_phi_block_tagging():
    x1, _ = build_pieces(parse_knot_spec("twobridge:+,+"), 1)
    half = len(x1.factorization) // 2
    assert all(vc.phi_image for vc in x1.factorization.cycles[:half])
    assert not any(vc.phi_image for vc in x1.factorization.cycles[half:])
    assert all(vc.framing == "fiber-1" for vc in x1.factorization.cycles)


def test_phi_b0_words_displayed():
    # Image of B_0 under the piece monodromy, both epsilon_1 signs (n = 1).
    x1, _ = build_pieces(parse_knot_spec("twobridge:+,+"), 1)
    by_label = {vc.label(): vc.word for vc in x1.factorization.cycles}
    assert by_label["phi(B0)"] == parse_word("a0' a1 a0' a4 a3' a2 a1' a0")
    x1, _ = build_pieces(parse_knot_spec("twobridge:-,-"), 1)
    by_label = {vc.label(): vc.word for vc in x1.factorization.cycles}
    assert by_label["phi(B0)"] == parse_word("a1' a4 a3' a2 a1' a0")


def test_stallings_piece_opacity():
    x1, _ = build_pieces(StallingsKnot(1), 1)
    opaque = [vc.label() for vc in x1.factorization.cycles if vc.word is None]
    assert opaque == ["phi(c1)", "c1"]
    # At n >= 2 every c_i has a word, and so has its image under phi_m.
    for m in (-3, 0, 1, 7):
        for n in (2, 3):
            x1, _ = build_pieces(StallingsKnot(m), n)
            assert all(vc.word is not None for vc in x1.factorization.cycles), (m, n)


def test_conjugating_x1_by_inverse_gives_w_phi_inverse_w():
    # At n = 1 the image block conjugated by the inverse recovers the base
    # block, so phi(W).W becomes W.phi^-1(W) wordwise.
    knot = parse_knot_spec("twobridge:+,+")
    x1, _ = build_pieces(knot, 1)
    phi_inverse = [(j, -e) for j, e in reversed(knot.piece_twists())]
    cycles = x1.factorization.cycles
    half = len(cycles) // 2
    s = x1.factorization.fiber
    table = compile_monodromy(phi_inverse, s)
    conj = [None if vc.word is None else table.apply(vc.word) for vc in cycles[:half]]
    assert conj == [vc.word for vc in cycles[half:]]


def test_factorization_json_shape():
    x1, _ = build_pieces(parse_knot_spec("twobridge:+,+"), 1)
    payload = factorization_json(x1.factorization)
    assert payload["fiber"] == {"g": 1, "n": 1}
    assert [c["curve"] for c in payload["cycles"]][:2] == ["phi(B0)", "phi(B1)"]
    assert all(c["framing"] == "fiber-1" for c in payload["cycles"])
    assert payload["cycles"][-1]["word"] is None  # opaque c1 at n=1