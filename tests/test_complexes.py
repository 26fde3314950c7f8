"""Word-level Kirby moves: slide, eliminate, cancel."""

import re

import pytest
from hypothesis import given, strategies as st

from handlecalc.complexes import (
    HandleComplex,
    MoveError,
    TwoHandle,
    cancel,
    complex_from_piece,
    eliminate_letter,
    is_isolated,
    relator_solution,
    slide_words,
)
from handlecalc.factorization import build_pieces
from handlecalc.knots import parse_knot_spec
from handlecalc.surfaces import BOUNDARY, CurveId, FiberSurface
from handlecalc.verify import euler_char
from handlecalc.words import alpha, cyclic_reduce, handle_letters, invert, parse_word, reduce_word, substitute


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


def _words_without(code):
    """Reduced words over alpha_0..alpha_4 (codes +-1..+-5) without the letter code `code`, of either sign."""
    letters = [c for c in range(-5, 6) if c and abs(c) != code]
    return st.lists(st.sampled_from(letters), max_size=8).map(reduce_word)


@st.composite
def _one_crossing_relators(draw):
    """(relator, j): a cyclically reduced word over alpha_0..alpha_4 crossing alpha_j exactly once."""
    j = draw(st.integers(1, 4))
    letter = draw(st.sampled_from((j + 1, -j - 1)))
    return cyclic_reduce(draw(_words_without(j + 1)) + (letter,) + draw(_words_without(j + 1))), j


@given(_one_crossing_relators())
def test_relator_solution_kills_its_relator(case):
    # alpha_j^e = u^-1 v^-1 for the relator u alpha_j^e v, computed as one
    # inversion of v u: substituting it makes the relator trivial.
    relator, j = case
    assert substitute(relator, j, *relator_solution(relator, j)) == ()


@given(st.lists(_one_crossing_relators(), min_size=1, max_size=6))
def test_cancels_keep_every_image_the_inverse_of_its_opposite(cases):
    # Handle t_k starts as the k-th relator and cancels its letter, in order,
    # where it still crosses it once.  After every cancel both signs of each
    # image are inverses, each image runs over live letters, and every
    # relator freed so far reads as the empty word through the table.
    handles = [TwoHandle(f"t{k}", CurveId("B", k), False, relator) for k, (relator, _) in enumerate(cases)]
    cx = HandleComplex(FiberSurface(1, 1), {1, 2, 3, 4}, handles)
    freed = []
    for h, (_, j) in zip(handles, cases):
        try:
            freed.append(cancel(cx, j, h.id).relator)
        except MoveError:
            continue
        images = cx.eliminations.images
        assert all(images[-c] == invert(image) for c, image in images.items())
        assert all(handle_letters(image) <= cx.one_handles for image in images.values())
        assert [cx.eliminations.apply(r) for r in freed] == [()] * len(freed)
    assert freed  # the first handle always cancels


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


def test_is_isolated():
    assert is_isolated(parse_word("a0' a2 a0 a0"), 2)
    assert not is_isolated(parse_word("a1' a2"), 2)


def _tiny_complex():
    s = FiberSurface(1, 1)
    handles = [
        TwoHandle("t0", CurveId("B", 1), False, parse_word("a0' a1")),
        TwoHandle("t1", CurveId("B", 2), False, parse_word("a1 a2 a1")),
        TwoHandle("t2", CurveId("c", 1), False, None),
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
    assert cx.handle("t2").word is None  # opaque words are carried through untouched
    assert cx.eliminations.images == {alpha(1): (alpha(0),), alpha(1, -1): (alpha(0, -1),)}


def test_cancels_compose_into_one_table():
    s = FiberSurface(1, 1)
    u = TwoHandle("u", CurveId("B", 1), False, parse_word("a1 a2'"))  # a1 = a2
    v = TwoHandle("v", CurveId("B", 2), False, parse_word("a2 a0'"))  # a2 = a0
    w = TwoHandle("w", CurveId("B", 3), False, parse_word("a1 a3 a2'"))
    cx = HandleComplex(s, {1, 2, 3, 4}, [u, v, w])
    cancel(cx, 1, "u")
    cancel(cx, 2, "v")
    # a1's image mentioned a2, so the second cancel rewrote it
    assert cx.eliminations.images[alpha(1)] == cx.eliminations.images[alpha(2)] == (alpha(0),)
    assert w.word == parse_word("a0 a3 a0'")
    assert w.word == substitute(substitute(parse_word("a1 a3 a2'"), 1, 1, (alpha(2),)), 2, 1, (alpha(0),))
    # removed handles keep their word as it was at removal, and leave the index
    assert (u.word, v.word) == (parse_word("a1 a2'"), parse_word("a2 a0'"))
    with pytest.raises(MoveError):
        cx.handle("u")
    with pytest.raises(MoveError):
        cx.find("B", 2, phi_image=False)
    assert cx.find("B", 3, phi_image=False) is w


@pytest.mark.parametrize(
    "word, i, relator",
    [
        ("a0' a1", 1, "a0' a1"),
        ("a1 a1", 1, None),
        ("a0' a0'", 1, None),
        # Cyclic reduction applies first: a1 a2 a1' crosses a2 once, a1 zero times.
        ("a1 a2 a1'", 2, "a2"),
        ("a1 a2 a1'", 1, None),
    ],
)
def test_cancel_needs_one_cyclic_crossing(word, i, relator):
    h = TwoHandle("t0", CurveId("B", 1), False, parse_word(word))
    cx = HandleComplex(FiberSurface(1, 1), {1, 2, 3, 4}, [h])
    if relator is None:
        message = f"2-handle t0 (B1) word {word!r} does not cross a{i} exactly once"
        with pytest.raises(MoveError, match=f"^{re.escape(message)}$"):
            cancel(cx, i, "t0")
        assert cx.one_handles == {1, 2, 3, 4} and [h.id for h in cx.two_handles] == ["t0"]
    else:
        assert cancel(cx, i, "t0").relator == parse_word(relator)
        assert cx.one_handles == {1, 2, 3, 4} - {i} and cx.two_handles == []


def test_cancel_preconditions():
    cx = _tiny_complex()
    with pytest.raises(MoveError):
        cancel(cx, 2, "t0")  # t0 does not cross a2
    with pytest.raises(MoveError):
        cancel(cx, 1, "t2")  # opaque
    with pytest.raises(MoveError, match="1-handle a9 is not live"):
        cancel(cx, 9, "t0")


def test_euler_characteristic_of_moves():
    # chi = 1 - |1-handles| + |2-handles| is untouched by slides and
    # changes by 0 under cancel (both middle counts drop by one).
    cx = _tiny_complex()
    chi0 = euler_char(cx.counts().values())
    cx.handle("t1").word = slide_words(cx.handle("t1").word, cx.handle("t0").word)
    assert euler_char(cx.counts().values()) == chi0
    cancel(cx, 1, "t0")
    assert euler_char(cx.counts().values()) == chi0


def test_complex_from_piece_counts_and_boundary():
    for spec, n, expected_two in (("twobridge:+,+", 1, 9), ("twobridge:+,+", 2, 17)):
        x1, _ = build_pieces(parse_knot_spec(spec), n)
        cx = complex_from_piece(x1)
        assert cx.counts()["two_handles"] == expected_two
        assert cx.counts()["one_handles"] == cx.surface.num_handles
        assert euler_char(cx.counts().values()) == 6 * n
        boundary = cx.two_handles[-1]
        assert boundary.origin == CurveId("boundary") and boundary.word is None
        assert boundary.id == "dF"
        cx.check_live_letters()
        with pytest.raises(MoveError, match="no 2-handle for c9"):
            cx.find("c", 9, phi_image=False)


def test_live_letter_invariant_detects_dead_words():
    cx = _tiny_complex()
    cx.one_handles.discard(2)
    with pytest.raises(MoveError):
        cx.check_live_letters()


@given(st.integers(1, 12).flatmap(lambda k: st.tuples(st.just(k), st.permutations(range(k)), st.integers(0, k))))
def test_remove_keeps_order_and_indexes(case):
    # Handles of three origins, both phi flags; a random prefix of a random
    # removal order.  After each removal the survivors keep their order and
    # `handle`, `find`, the counts and the Euler characteristic agree with them.
    k, order, count = case
    handles = [TwoHandle(f"t{j}", CurveId("B", j % 3), j % 2 == 0, (alpha(1),)) for j in range(k)]
    cx = HandleComplex(FiberSurface(1, 1), {1, 2, 3, 4}, list(handles))
    removed = set()
    for j in order[:count]:
        cx.remove(handles[j])
        removed.add(j)
        live = [h for j, h in enumerate(handles) if j not in removed]
        assert cx.two_handles == live
        assert cx.counts()["two_handles"] == len(live) and euler_char(cx.counts().values()) == 1 - 4 + len(live)
        for i, h in enumerate(handles):
            if i in removed:
                with pytest.raises(MoveError, match="no 2-handle with id"):
                    cx.handle(h.id)
            else:
                assert cx.handle(h.id) is h
        for index in range(3):
            for phi in (False, True):
                first = next((h for h in live if h.origin == CurveId("B", index) and h.phi_image == phi), None)
                if first is None:
                    with pytest.raises(MoveError, match="no 2-handle for"):
                        cx.find("B", index, phi)
                else:
                    assert cx.find("B", index, phi) is first


def test_a_word_over_a_dead_letter_is_refused_by_name():
    # The live-letter check tests each word against the live codes as a set;
    # a word that fails is still refused with its dead letters named.
    s = FiberSurface(1, 1)
    words = {"h1": parse_word("a0' a1 a2' a1 a0"), "h2": parse_word("a3 a0' a4 a2' a4'")}
    handles = [TwoHandle(hid, CurveId("B", k), False, w) for k, (hid, w) in enumerate(words.items())]
    cx = HandleComplex(s, {1, 2, 3, 4}, handles + [TwoHandle("dF", BOUNDARY, False, None)])
    cx.check_live_letters()
    cx.one_handles.discard(4)
    with pytest.raises(MoveError, match=re.escape("handle h2 (B1) uses dead letters [4]")) as err:
        cx.check_live_letters()
    assert err.value.word == words["h2"]
    cx.one_handles -= {1, 3}
    with pytest.raises(MoveError, match=re.escape("handle h1 (B0) uses dead letters [1]")):
        cx.check_live_letters()
