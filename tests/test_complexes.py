"""Word-level Kirby moves: slide, eliminate, cancel."""

import pytest

from handlecalc.complexes import (
    HandleComplex,
    MoveError,
    TwoHandle,
    cancel,
    complex_from_piece,
    eliminate_letter,
    is_cancelling,
    is_isolated,
    relator_solution,
    slide_words,
)
from handlecalc.factorization import build_pieces
from handlecalc.knots import parse_knot_spec
from handlecalc.surfaces import CurveId, FiberSurface
from handlecalc.words import alpha, parse_word


def test_slide_phi_b0_over_b0_both_signs():
    # The first cancellation slide, both epsilon_1 cases, byte for byte.
    phi_pos = parse_word("a0' a1 a0' a4 a3' a2 a1' a0")
    phi_neg = parse_word("a1' a4 a3' a2 a1' a0")
    b0 = parse_word("a0' a4 a3' a2 a1' a0")
    assert slide_words(phi_pos, b0) == parse_word("a0' a1")
    assert slide_words(phi_neg, b0) == parse_word("a1' a0")


def test_slide_self_is_empty():
    w = parse_word("a0' a1 a2' a1")
    assert slide_words(w, w) == ()


def test_slide_with_shared_prefix():
    target = parse_word("a0' a1 a2' a1' a0")
    over = parse_word("a0' a1 a2' a3 a0")
    assert slide_words(target, over, shared_prefix=parse_word("a0' a1 a2'")) == parse_word(
        "a1' a3'"
    )
    with pytest.raises(MoveError):
        slide_words(target, over, shared_prefix=parse_word("a1"))


def test_relator_solution():
    sign, repl = relator_solution(parse_word("a0' a1"), 1)
    assert (sign, repl) == (1, (alpha(0),))
    sign, repl = relator_solution(parse_word("a2' a0"), 2)
    assert (sign, repl) == (-1, (alpha(0, -1),))
    with pytest.raises(MoveError):
        relator_solution(parse_word("a1 a0 a1"), 1)
    with pytest.raises(MoveError):
        relator_solution(parse_word("a0 a0"), 1)


def test_eliminate_letter_examples():
    helper = parse_word("a0' a1")  # relator alpha_1 = alpha_0
    assert eliminate_letter(parse_word("a0' a1"), helper, 1) == ()
    assert eliminate_letter(parse_word("a2 a3'"), helper, 1) == parse_word("a2 a3'")
    assert eliminate_letter(parse_word("a1 a1"), helper, 1) == parse_word("a0 a0")


def test_eliminate_uses_cyclic_reduction_of_helper():
    # Helper a0' a1 a0 has one alpha_1 crossing after cyclic reduction.
    helper = parse_word("a0' a1 a0")
    out = eliminate_letter(parse_word("a1 a1"), helper, 1)
    assert out == ()  # alpha_1 = trivial relator here


def test_is_cancelling():
    assert is_cancelling(parse_word("a0' a1"), 1)
    assert not is_cancelling(parse_word("a1 a1"), 1)
    assert not is_cancelling(parse_word("a0' a0'"), 1)
    # Cyclic reduction applies first: a1 a2 a1' crosses a2 once, a1 zero times.
    assert is_cancelling(parse_word("a1 a2 a1'"), 2)
    assert not is_cancelling(parse_word("a1 a2 a1'"), 1)


def test_is_isolated():
    assert is_isolated(parse_word("a0' a2 a0 a0"), 2)
    assert not is_isolated(parse_word("a1' a2"), 2)


def _tiny_complex():
    s = FiberSurface(1, 1)
    handles = [
        TwoHandle("t0", CurveId("B", 1), False, parse_word("a0' a1"), "fiber-1"),
        TwoHandle("t1", CurveId("B", 2), False, parse_word("a1 a2 a1"), "fiber-1"),
        TwoHandle("t2", CurveId("c", 1), False, None, "fiber-1"),
    ]
    return HandleComplex(s, {1, 2, 3, 4}, handles)


def test_cancel_minimal():
    cx = _tiny_complex()
    result = cancel(cx, 1, "t0")
    assert result.relator == parse_word("a0' a1")
    assert cx.one_handles == {2, 3, 4}
    assert [h.id for h in cx.two_handles] == ["t1", "t2"]
    # the survivor was rewritten through alpha_1 = alpha_0
    assert cx.handle("t1").word == parse_word("a0 a2 a0")
    assert result.rewrites[0][0] == "t1"


def test_cancel_preconditions():
    cx = _tiny_complex()
    with pytest.raises(MoveError):
        cancel(cx, 2, "t0")  # t0 does not cross a2
    with pytest.raises(MoveError):
        cancel(cx, 1, "t2")  # opaque
    with pytest.raises(MoveError):
        cancel(cx, 9, "t0")  # not a live 1-handle


def test_euler_characteristic_of_moves():
    # chi = 1 - |1-handles| + |2-handles| is untouched by slides and
    # changes by 0 under cancel (both middle counts drop by one).
    cx = _tiny_complex()
    chi0 = cx.euler()
    cx.handle("t1").word = slide_words(cx.handle("t1").word, cx.handle("t0").word)
    assert cx.euler() == chi0
    cancel(cx, 1, "t0")
    assert cx.euler() == chi0


def test_complex_from_piece_counts_and_boundary():
    for spec, n, expected_two in (("twobridge:+,+", 1, 9), ("twobridge:+,+", 2, 17)):
        x1, _ = build_pieces(parse_knot_spec(spec), n)
        cx = complex_from_piece(x1)
        assert cx.counts()["two_handles"] == expected_two
        assert cx.counts()["one_handles"] == cx.surface.num_handles
        assert cx.euler() == 6 * n
        boundary = cx.two_handles[-1]
        assert boundary.origin == CurveId("boundary") and boundary.opaque
        assert boundary.framing == "0"
        cx.check_live_letters()


def test_find_skips_duplicates():
    x1, _ = build_pieces(parse_knot_spec("twobridge:+,+"), 2)
    cx = complex_from_piece(x1)
    first = cx.find("c", 1, phi_image=False)
    second = cx.find("c", 1, phi_image=False, skip=1)
    assert first.id != second.id
    assert first.word == second.word
    with pytest.raises(MoveError):
        cx.find("c", 9, phi_image=False)


def test_live_letter_invariant_detects_dead_words():
    cx = _tiny_complex()
    cx.one_handles.discard(2)
    with pytest.raises(MoveError):
        cx.check_live_letters()
