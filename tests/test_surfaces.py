"""Surface model: reference paths and curve words."""

import pytest
from hypothesis import given, strategies as st

from handlecalc.surfaces import (
    MAX_GENUS,
    MAX_INDEX,
    CurveId,
    FiberSurface,
    b_word,
    beta_word,
    c_word,
    eta_word,
    middle_detour_word,
    tilde_alpha_word,
    validate_word,
)
from handlecalc.words import alpha, concat, handle_letters, handle_occurrences, is_handle, parse_word


def test_surface_parameters():
    s = FiberSurface(2, 3)
    assert s.num_handles == 4 * 2 + 2 * 3 - 2 == 12
    with pytest.raises(ValueError):
        FiberSurface(0, 1)
    with pytest.raises(ValueError):
        FiberSurface(1, 0)


@pytest.mark.parametrize("g, n", [(MAX_GENUS, 1), (1, MAX_INDEX), (MAX_GENUS, MAX_INDEX)])
def test_every_admitted_surface_has_the_alphabet_of_its_handles(g, n):
    s = FiberSurface(g, n)
    assert is_handle(alpha(s.num_handles))
    assert s.alphabet == {sign * c for c in range(1, s.num_handles + 2) for sign in (1, -1)}


@pytest.mark.parametrize(
    "g, n, message",
    [(MAX_GENUS + 1, 1, f"genus {MAX_GENUS + 1} is above the limit"),
     (1, MAX_INDEX + 1, f"index {MAX_INDEX + 1} is above the limit"),
     (1, 1 << 19, f"index {1 << 19} is above the limit")],
)
def test_surfaces_above_the_limits_are_refused(g, n, message):
    with pytest.raises(ValueError, match=message):
        FiberSurface(g, n)


def test_curve_id():
    assert str(CurveId("B", 2)) == "B2"
    # No twist curve is a vanishing cycle, and the fiber boundary handle dF has no curve.
    for family in ("x", "a", "b2", "boundary"):
        with pytest.raises(ValueError, match="unknown curve family"):
            CurveId(family, 1)


S11 = FiberSurface(1, 1)
S12 = FiberSurface(1, 2)
S21 = FiberSurface(2, 1)


def test_beta_words():
    assert beta_word(0, S11) == parse_word("a0'")
    assert beta_word(1, S11) == parse_word("a0' a1 a0'")
    assert beta_word(2, S11) == parse_word("a0' a1 a2' a1 a0'")
    assert beta_word(4, S21) == parse_word("a0' a1 a2' a3 a4' a3 a2' a1 a0'")
    with pytest.raises(ValueError):
        beta_word(5, S11)


def test_beta_occurrence_profile():
    # beta_i crosses each of a1..a_{i-1} twice and a_i once.
    for g, i in ((2, 3), (2, 4), (3, 5)):
        s = FiberSurface(g, 1)
        w = beta_word(i, s)
        assert handle_occurrences(w, i) == 1
        for j in range(1, i):
            assert handle_occurrences(w, j) == 2


def test_tilde_alpha():
    assert tilde_alpha_word(S11) == parse_word("a4 a3' a2 a1' a0")
    assert tilde_alpha_word(S21) == parse_word("a8 a7' a6 a5' a4 a3' a2 a1' a0")
    assert tilde_alpha_word(S12) == tilde_alpha_word(S11)  # the same descent closes B_0 at every n


def test_b_words_n1():
    assert b_word(0, S11) == parse_word("a0' a4 a3' a2 a1' a0")
    assert b_word(1, S11) == parse_word("a0' a1 a0' a4")
    assert b_word(2, S11) == parse_word("a0' a1 a2' a1 a0' a3")
    with pytest.raises(ValueError):
        b_word(3, S11)


def test_b_words_rotated_forms():
    assert b_word(1, S12) == parse_word("a1 a5' a4 a0'")
    assert b_word(2, S12) == parse_word("a1 a2' a1 a5' a3 a0'")
    s22 = FiberSurface(2, 2)
    assert b_word(1, s22) == parse_word("a1 a9' a8 a0'")
    assert b_word(2, s22) == parse_word("a1 a2' a1 a9' a7 a0'")
    assert b_word(3, s22) == parse_word("a1 a2' a3 a2' a1 a9' a6 a0'")


def test_b_crossing_profile_n1():
    # B_i crosses a_i once and its closing handle a_{4g+1-i} once.
    for g in (1, 2, 3):
        s = FiberSurface(g, 1)
        for i in range(1, 2 * g + 1):
            w = b_word(i, s)
            assert handle_occurrences(w, i) == 1
            assert handle_occurrences(w, 4 * g + 1 - i) == 1
            for j in range(1, i):
                assert handle_occurrences(w, j) == 2


def test_b0_rotated_is_the_pattern_limit():
    # Same construction as the printed B_i at i = 0: the closing arc is
    # the tilde-type descent.
    assert b_word(0, S12) == parse_word("a0 a5' a4 a3' a2 a1'")


def test_middle_detour():
    assert middle_detour_word(S12) == (alpha(0), alpha(5, -1))
    with pytest.raises(ValueError):
        middle_detour_word(S11)


def test_b_rotated_consistent_with_beta_decomposition():
    # Rotating alpha_0 (beta_i detour closing alpha_0^-1) reproduces the
    # printed spelling exactly.
    for g, n in ((1, 2), (2, 2), (1, 3), (2, 3)):
        s = FiberSurface(g, n)
        for i in range(1, 2 * g + 1):
            built = concat(
                (alpha(0),),
                beta_word(i, s),
                middle_detour_word(s),
                (alpha(4 * g + 1 - i),),
                (alpha(0, -1),),
            )
            assert b_word(i, s) == built


def test_c_words():
    assert c_word(1, S12) == parse_word("a5 a0'")
    assert c_word(2, S12) == parse_word("a6 a5'")
    assert c_word(3, S12) == parse_word("a2' a1 a5' a2 a1' a0")
    s13 = FiberSurface(1, 3)
    assert c_word(1, s13) == parse_word("a7 a0'")
    assert c_word(2, s13) == parse_word("a8 a7'")
    assert c_word(3, s13) == parse_word("a5 a7'")
    assert c_word(4, s13) == parse_word("a6 a5'")
    assert c_word(5, s13) == parse_word("a2' a1 a5' a2 a1' a0")
    with pytest.raises(ValueError):
        c_word(1, S11)
    with pytest.raises(ValueError):
        c_word(4, S12)


def test_interior_c_words_cross_two_handles_once():
    for n in (2, 3, 4):
        s = FiberSurface(1, n)
        for i in range(2, 2 * n - 1):
            w = c_word(i, s)
            crossed = handle_letters(w)
            assert len(crossed) == 2
            assert all(handle_occurrences(w, j) == 1 for j in crossed)


def test_eta_and_stallings_table():
    assert eta_word() == parse_word("a0' a1 a2' a3 a4'")
    # eta solves alpha_0 * eta = a1 a2' a3 a4' in the free group.
    assert concat((alpha(0),), eta_word()) == parse_word("a1 a2' a3 a4'")
    beta4 = beta_word(4, S21)
    assert beta4 == parse_word("a0' a1 a2' a3 a4' a3 a2' a1 a0'")
    # B_4 = beta_4 * a5 on the genus-2 fiber.
    assert b_word(4, S21) == concat(beta4, (alpha(5),))


def test_validate_word():
    validate_word(parse_word("a0 a4' a3"), S11)
    validate_word(tilde_alpha_word(S11), S11)
    with pytest.raises(ValueError, match="letter a5 outside alphabet of 4 handles"):
        validate_word(parse_word("a5"), S11)
    # 1 << 20 is a handle code like any other: no letter spells the boundary arc.
    with pytest.raises(ValueError, match="letter a1048575 outside alphabet of 4 handles"):
        validate_word((1 << 20,), S11)
    with pytest.raises(ValueError, match="^0 is not a letter code$"):
        validate_word((alpha(1), 0), S11)


def _first_error(w, s):
    """The per-letter reference check: the message for w's first illegal letter, or None."""
    for c in w:
        if abs(c) > 1:
            if abs(c) - 1 > s.num_handles:
                return f"letter a{abs(c) - 1} outside alphabet of {s.num_handles} handles"
        elif abs(c) != 1:
            return f"{c} is not a letter code"
    return None


_CODES = st.one_of(
    st.integers(-12, 12),
    st.integers(-1 << 21, 1 << 21),
)


@given(st.integers(1, 2), st.integers(1, 3), st.lists(_CODES, max_size=8))
def test_validate_word_raises_exactly_on_letters_outside_the_alphabet(g, n, w):
    s = FiberSurface(g, n)
    expected = _first_error(w, s)
    if expected is None:
        validate_word(tuple(w), s)
    else:
        with pytest.raises(ValueError) as err:
            validate_word(tuple(w), s)
        assert str(err.value) == expected
