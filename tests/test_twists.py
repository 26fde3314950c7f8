"""Twist rules, composite monodromies, Stallings image tables."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from handlecalc.knots import KnotSpecError, TwoBridgeKnot
from handlecalc.surfaces import FiberSurface, beta_word, eta_word, phi_b_word, tilde_alpha_word
from handlecalc.twists import (
    CompiledMonodromy,
    beta_images,
    compile_monodromy,
    stallings_rules,
    ta3_power,
)
from handlecalc.words import (
    alpha,
    concat,
    handle_letters,
    handle_occurrences,
    invert,
    parse_word,
    reduce_word,
)

S11 = FiberSurface(1, 1)
S21 = FiberSurface(2, 1)
S31 = FiberSurface(3, 1)

eps_strategy = st.integers(1, 5).flatmap(
    lambda k: st.tuples(*[st.sampled_from((1, -1))] * (2 * k))
)


def one_twist(j, sign, s):
    """The table of the single twist t_{a_j}^sign."""
    return compile_monodromy(((j, sign),), s)


def sequential(twists, w, s):
    """Reference action: one single-twist table per (j, sign) pair, twists[0] first."""
    for j, sign in twists:
        w = one_twist(j, sign, s).apply(w)
    return reduce_word(w)


def iterated_ta3(w, m, s=S21):
    """Reference t_{a3}^m: |m| single twists."""
    return sequential([(3, 1 if m > 0 else -1)] * abs(m), w, s)


def piece(eps):
    """The pieces' chain twists of the two-bridge knot D(eps), t_{a_2g} first."""
    return TwoBridgeKnot.from_eps(eps).piece_twists()


def fibration(eps):
    """The fibration monodromy's chain twists, t_{a_1} first."""
    return tuple(enumerate(eps, 1))


def inverse(twists):
    """The inverse composite: the pairs reversed, each sign negated."""
    return tuple((j, -e) for j, e in reversed(twists))


@st.composite
def chain_monodromy(draw, max_g):
    """A surface and the (j, sign) pairs of a piece, fibration, inverse or random chain-twist monodromy on it."""
    g = draw(st.integers(1, max_g))
    s = FiberSurface(g, draw(st.integers(1, 3)))
    eps = draw(st.tuples(*[st.sampled_from((1, -1))] * (2 * g)))
    kind = draw(st.sampled_from(("piece", "fibration", "inverse", "chain")))
    if kind == "piece":
        twists = piece(eps)
    elif kind == "fibration":
        twists = fibration(eps)
    elif kind == "inverse":
        twists = inverse(fibration(eps))
    else:
        twists = tuple(draw(st.lists(st.tuples(st.integers(1, 2 * g), st.sampled_from((1, -1))), max_size=12)))
    return s, twists


@st.composite
def monodromy_and_word(draw):
    s, phi = draw(chain_monodromy(4))
    return s, phi, tuple(draw(st.lists(st.sampled_from(sorted(s.alphabet)), max_size=16)))


def test_twist_rule_basic_cases():
    t2 = one_twist(2, 1, S11)
    assert t2.apply((alpha(1),)) == parse_word("a1 a2' a1")
    t1_inv = one_twist(1, -1, S11)
    assert t1_inv.apply((alpha(0),)) == parse_word("a1")
    # letters away from the twist are fixed
    t5 = one_twist(5, 1, S31)
    assert t5.apply((alpha(1),)) == (alpha(1),)


def test_twist_rule_all_four_clauses():
    s = FiberSurface(2, 1)
    for j in range(1, 5):
        plus, minus = one_twist(j, 1, s), one_twist(j, -1, s)
        assert plus.apply((alpha(j - 1),)) == (alpha(j - 1), alpha(j, -1), alpha(j - 1))
        assert plus.apply((alpha(j),)) == (alpha(j - 1),)
        assert minus.apply((alpha(j - 1),)) == (alpha(j),)
        assert minus.apply((alpha(j),)) == (alpha(j), alpha(j - 1, -1), alpha(j))


def test_twist_rule_range_checks():
    with pytest.raises(ValueError):
        one_twist(3, 1, S11)  # only a1, a2 exist at g=1
    with pytest.raises(ValueError):
        one_twist(0, 1, S11)
    rule = one_twist(1, 1, S11)
    with pytest.raises(ValueError):
        rule.apply((alpha(9),))  # letter outside the surface alphabet


def test_inverse_rule_property():
    for g in (1, 2, 3):
        s = FiberSurface(g, 1)
        for j in range(1, 2 * g + 1):
            plus, minus = one_twist(j, 1, s), one_twist(j, -1, s)
            for i in range(0, 2 * g + 1):
                w = (alpha(i),)
                assert minus.apply(plus.apply(w)) == w
                assert plus.apply(minus.apply(w)) == w


def test_rule_table_satisfies_braid_relations():
    # Independent consistency oracle: as endomorphisms on letter words the
    # chain twists must commute at distance >= 2 and satisfy the braid
    # relation on neighbours.
    s = FiberSurface(3, 1)

    def t(j, w):
        return one_twist(j, 1, s).apply(w)

    letters = [(alpha(k),) for k in range(0, 7)]
    for i in range(1, 7):
        for j in range(1, 7):
            if abs(i - j) >= 2:
                for w in letters:
                    assert t(i, t(j, w)) == t(j, t(i, w))
    for i in range(1, 6):
        for w in letters:
            assert t(i, t(i + 1, t(i, w))) == t(i + 1, t(i, t(i + 1, w)))


def test_apply_monodromy_displayed_cases():
    s = S11
    assert compile_monodromy(piece((1, 1)), s).apply((alpha(0),)) == parse_word("a0 a1' a0")
    assert compile_monodromy(piece((-1, -1)), s).apply((alpha(0),)) == parse_word("a1")
    w = parse_word("a0' a1 a2' a1")
    assert compile_monodromy((), s).apply(w) == w


@given(monodromy_and_word())
def test_compiled_table_matches_sequential_twists(case):
    s, phi, w = case
    table = compile_monodromy(phi, s)
    assert table.apply(w) == sequential(phi, w, s)
    for c in s.alphabet:
        assert table.apply((c,)) == sequential(phi, (c,), s)


@settings(deadline=None)
@given(chain_monodromy(5))
def test_every_compiled_image_is_a_palindrome(case):
    # beta_images rests on this: the table then commutes with reversing a word.
    s, phi = case
    for code, img in compile_monodromy(phi, s).images.items():
        assert img == img[::-1], (code, img)


@settings(deadline=None)
@given(chain_monodromy(8))
def test_beta_images_match_the_substituted_beta_words(case):
    s, phi = case
    table = compile_monodromy(phi, s)
    heads = beta_images(table)
    assert len(heads) == 2 * s.g + 1
    for i, head in enumerate(heads):
        assert head == table.apply(beta_word(i, s))


def test_beta_images_reject_a_table_that_is_not_palindromic():
    # A hand-built table whose image of alpha_1 is not a palindrome does not
    # commute with reversal, so its heads cannot come from the prefix product.
    table = compile_monodromy(piece((1, 1)), S11)
    images = dict(table.images)
    images[alpha(1)] = (alpha(1), alpha(2))
    images[alpha(1, -1)] = (alpha(2, -1), alpha(1, -1))
    with pytest.raises(ValueError, match="of a1'? is not a palindrome"):
        beta_images(CompiledMonodromy(images, S11))


def test_word_validated_without_twists():
    # No twist to apply, but the word is still checked against the alphabet.
    with pytest.raises(ValueError, match="outside alphabet"):
        ta3_power((99,), 0, S21)
    with pytest.raises(ValueError, match="outside alphabet"):
        compile_monodromy((), S21).apply((99,))


def test_monodromy_error_kinds():
    bad_word = (99,)
    with pytest.raises(ValueError, match="chain twist index 5 out of range"):
        compile_monodromy(((5, 1),), S21).apply(bad_word)
    with pytest.raises(ValueError, match="chain twist index 0 out of range"):
        compile_monodromy(((0, 1),), S21).apply(bad_word)
    with pytest.raises(ValueError, match="twist sign must be \\+-1, got 2"):
        compile_monodromy(((1, 1), (2, 2)), S21).apply(bad_word)
    with pytest.raises(ValueError, match="twist sign must be \\+-1, got 0"):
        compile_monodromy(((1, 0),), S21).apply(bad_word)
    with pytest.raises(ValueError, match="outside alphabet"):
        compile_monodromy(piece((1, -1, 1, 1)), S21).apply(bad_word)
    # A bad twist anywhere in the sequence is reported before any is composed.
    with pytest.raises(ValueError, match="chain twist index 5 out of range"):
        compile_monodromy(piece((1, -1, 1, 1)) + ((5, -1),), S21).apply(bad_word)
    with pytest.raises(ValueError, match="chain twist index 3 out of range"):
        ta3_power(bad_word, 2, S11)
    with pytest.raises(ValueError, match="outside alphabet"):
        ta3_power(bad_word, -2, S21)


def test_monodromy_orders():
    # Fibration monodromy applies t_{a1} first and so is written last; the
    # piece monodromy applies the same twists in the reverse order.
    knot = TwoBridgeKnot.from_eps((1, -1))
    assert knot.monodromy_str() == "t_a2^-1 t_a1"
    assert knot.piece_twists() == ((2, -1), (1, 1))
    assert TwoBridgeKnot.from_eps((-1, -1, 1, 1)).piece_twists() == ((4, 1), (3, 1), (2, -1), (1, -1))
    for eps in ((), (1, -1, 1)):
        with pytest.raises(KnotSpecError, match="even positive length"):
            TwoBridgeKnot.from_eps(eps)
    with pytest.raises(KnotSpecError, match="no fibered D-form"):
        TwoBridgeKnot.from_eps((2, 1)).piece_twists()


def test_ta3_images():
    assert ta3_power((alpha(3),), 1, S21) == (alpha(2),)
    assert ta3_power((alpha(2),), 1, S21) == parse_word("a2 a3' a2")
    assert ta3_power((alpha(3),), -1, S21) == parse_word("a3 a2' a3")
    assert ta3_power((alpha(2),), -1, S21) == (alpha(3),)
    assert ta3_power((alpha(2),), 2, S21) == parse_word("a2 a3' a2 a3' a2")


def test_ta3_power_length_law():
    # |t^m(a2)| = 2m+1 for m >= 1; for m <= -1 direct iteration gives
    # 2|m|-1 (the first inverse power lands on the single letter a3).
    for m in range(1, 7):
        assert len(ta3_power((alpha(2),), m, S21)) == 2 * m + 1
    for m in range(-6, 0):
        assert len(ta3_power((alpha(2),), m, S21)) == 2 * abs(m) - 1
    assert ta3_power((alpha(2),), 0, S21) == (alpha(2),)


def test_ta3_closed_form_matches_iterated_twists():
    words = [
        (alpha(2),),
        (alpha(3),),
        (alpha(2, -1),),
        (alpha(3, -1),),
        (alpha(3), alpha(2, -1)),
        invert(beta_word(3, S21)),
        parse_word("a0 a2 a2 a3' a4 a8 a2'"),
    ]
    for m in range(-40, 41):
        for w in words:
            assert ta3_power(w, m, S21) == iterated_ta3(w, m)


def test_stallings_heads_unchanged():
    # The heads as the iterated-twist construction built them, and a digest
    # of that construction's output for m in [-6, 6].
    for m in range(-6, 7):
        t_a3 = iterated_ta3((alpha(3),), m)
        expected = (
            concat(eta_word(), t_a3, iterated_ta3((alpha(2, -1),), m)),
            concat(eta_word(), t_a3, beta_word(0, S21)),
            concat(eta_word(), t_a3, beta_word(1, S21)),
            concat(eta_word(), t_a3, beta_word(4, S21)),
            concat(beta_word(4, S21), iterated_ta3(invert(beta_word(3, S21)), m), beta_word(4, S21)),
        )
        assert stallings_rules(m) == expected
    heads = repr([stallings_rules(m) for m in range(-6, 7)])
    assert hashlib.sha256(heads.encode()).hexdigest() == (
        "7d5098c781c427dd3a2f1daabf358afb8b4b88a6b7a9d413b68021745da6bb62"
    )


def test_ta3_fixes_a3_a2inv():
    # a3 * a2^-1 is invariant under every power (the slide results rely on it).
    w = (alpha(3), alpha(2, -1))
    for m in range(-5, 6):
        assert ta3_power(w, m, S21) == w


@settings(deadline=None)
@given(eps_strategy, st.integers(1, 3))
def test_piece_tables_fix_every_closing_arc(eps, n):
    # factorization maps only the beta part of B_i and appends the closing
    # arc as it is: alpha_{4g+1-i} for i >= 1, the tilde-type descent for B_0.
    g = len(eps) // 2
    s = FiberSurface(g, n)
    table = compile_monodromy(piece(eps), s)
    for i in range(1, 2 * g + 1):
        assert table.apply((alpha(4 * g + 1 - i),)) == (alpha(4 * g + 1 - i),)
    descent = tilde_alpha_word(FiberSurface(g, 1))
    assert table.apply(descent) == descent


@given(st.integers(-40, 40), st.integers(1, 3))
def test_ta3_power_fixes_the_genus2_descent(m, n):
    descent = tilde_alpha_word(S21)
    assert ta3_power(descent, m, FiberSurface(2, n)) == descent


def test_stallings_phi0_b4():
    heads = stallings_rules(0)
    b4, b3 = beta_word(4, S21), beta_word(3, S21)
    expected = concat(b4, invert(b3), b4, (alpha(5),))
    assert phi_b_word(4, heads[4], S21) == expected


def test_stallings_phi_m_heads_match_displayed_decompositions():
    from handlecalc.surfaces import eta_word, tilde_alpha_word

    m = 2
    heads = stallings_rules(m)
    eta = eta_word()
    t = ta3_power((alpha(3),), m, S21)
    assert phi_b_word(0, heads[0], S21) == concat(
        eta, t, ta3_power((alpha(2, -1),), m, S21), tilde_alpha_word(S21)
    )
    assert phi_b_word(1, heads[1], S21) == concat(eta, t, beta_word(0, S21), (alpha(8),))
    assert phi_b_word(2, heads[2], S21) == concat(eta, t, beta_word(1, S21), (alpha(7),))
    assert phi_b_word(3, heads[3], S21) == concat(eta, t, beta_word(4, S21), (alpha(6),))


def test_image_closure_exhaustive_small():
    # The image of alpha_i is a word over alpha_0..alpha_{i+1} crossing
    # alpha_{i+1} once; exhaustive for g <= 2.
    for k in (1, 2):
        for eps in itertools.product((1, -1), repeat=2 * k):
            table = compile_monodromy(piece(eps), FiberSurface(k, 1))
            for i in range(2 * k):
                w = table.apply((alpha(i),))
                assert handle_letters(w) <= set(range(1, i + 2))
                assert handle_occurrences(w, i + 1) == 1


@given(eps_strategy)
def test_image_closure_random(eps):
    g = len(eps) // 2
    table = compile_monodromy(piece(eps), FiberSurface(g, 1))
    for i in range(2 * g):
        w = table.apply((alpha(i),))
        assert handle_letters(w) <= set(range(1, i + 2))
        assert handle_occurrences(w, i + 1) == 1


@given(eps_strategy)
def test_prefix_claim(eps):
    # Applying only the twists a_k..a_1 (a_k first) to alpha_k stays
    # inside alpha_0..alpha_k, for every prefix length k.
    g = len(eps) // 2
    s = FiberSurface(g, 1)
    for k in range(1, 2 * g + 1):
        twists = tuple((j, eps[j - 1]) for j in range(k, 0, -1))
        w = compile_monodromy(twists, s).apply((alpha(k),))
        assert handle_letters(w) <= set(range(1, k + 1))


@given(eps_strategy, st.integers(0, 10))
def test_monodromy_round_trip(eps, i):
    g = len(eps) // 2
    i = i % (2 * g + 1)
    s = FiberSurface(g, 1)
    phi = fibration(eps)
    w = compile_monodromy(inverse(phi), s).apply(compile_monodromy(phi, s).apply((alpha(i),)))
    assert w == (alpha(i),)
