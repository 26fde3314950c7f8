"""The twist rule, composite monodromies, the tables of both knot families."""

import hashlib
import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from handlecalc.factorization import _monodromy_images
from handlecalc.knots import KnotSpecError, StallingsKnot, TwoBridgeKnot
from handlecalc.surfaces import (
    FiberSurface,
    b2_curve,
    beta_word,
    chain_curve,
    eta_word,
    phi_b_word,
    tilde_alpha_word,
)
from handlecalc.twists import CompiledMonodromy, beta_images, compile_monodromy
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
    return compile_monodromy(((chain_curve(j), sign),), s)


def sequential(twists, w, s):
    """Reference action: |k| single-twist tables per (curve, k) pair, twists[0] first."""
    for curve, k in twists:
        for _ in range(abs(k)):
            w = compile_monodromy(((curve, 1 if k > 0 else -1),), s).apply(w)
    return reduce_word(w)


def iterated_ta3(w, m, s=S21):
    """Reference t_{a3}^m: |m| single twists."""
    return sequential([(chain_curve(3), 1 if m > 0 else -1)] * abs(m), w, s)


def ta3_power(w, m, s):
    """t_{a3}^m as one pair: the piece twist (a3, m) of K_m."""
    return compile_monodromy(((chain_curve(3), m),), s).apply(w)


def stallings_heads(m):
    """The images of beta_0..beta_4 under the K_m table, as the pieces read them."""
    return _monodromy_images(StallingsKnot(m))[1]


def piece(eps):
    """The pieces' chain twists of the two-bridge knot D(eps), t_{a_2g} first."""
    return TwoBridgeKnot.from_eps(eps).piece_twists()


def fibration(eps):
    """The fibration monodromy's chain twists, t_{a_1} first."""
    return tuple((chain_curve(j), e) for j, e in enumerate(eps, 1))


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
        pairs = draw(st.lists(st.tuples(st.integers(1, 2 * g), st.sampled_from((1, -1))), max_size=12))
        twists = tuple((chain_curve(j), e) for j, e in pairs)
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
    with pytest.raises(ValueError, match="\"a5' a4\" leaves the alphabet of 4 handles"):
        one_twist(5, 1, S11)  # only a0..a4 exist at g = 1, n = 1
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


CORRUPT_B2 = parse_word("a3' a2 a1 a0")  # b2 with alpha_1 uninverted: still reduced, no letter twice


def moved(twists, s=S21):
    """The compiled table of `twists` as a dict of the letters it moves."""
    return {c: w for c, w in compile_monodromy(twists, s).images.items() if w != (c,)}


def b2_relations(b2):
    """Whether t_b2 commutes with t_a1, t_a2, t_a3 and braids with t_a4, as compiled tables at g = 2."""
    a = chain_curve
    commutes = [moved(((b2, 1), (a(j), 1))) == moved(((a(j), 1), (b2, 1))) for j in (1, 2, 3)]
    braid = moved(((b2, 1), (a(4), 1), (b2, 1))) == moved(((a(4), 1), (b2, 1), (a(4), 1)))
    return commutes, braid


def test_b2_commutes_with_a1_a2_a3_and_braids_with_a4():
    # b2 meets a4 once and misses a1, a2 and a3, so the rule on its word
    # must give these relations; a wrong b2 word breaks some of them.
    assert b2_relations(b2_curve()) == ([True, True, True], True)
    commutes, braid = b2_relations(CORRUPT_B2)
    assert not commutes[0] and not braid


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


def test_beta_images_substitute_when_a_table_is_not_palindromic():
    # A hand-built table whose image of alpha_1 is not a palindrome does not
    # commute with reversal, so its heads cannot come from the prefix product:
    # each beta_i is substituted instead.
    table = compile_monodromy(piece((1, 1)), S11)
    images = dict(table.images)
    images[alpha(1)] = (alpha(1), alpha(2))
    images[alpha(1, -1)] = (alpha(2, -1), alpha(1, -1))
    bent = CompiledMonodromy(images, S11)
    heads = beta_images(bent)
    assert heads == tuple(bent.apply(beta_word(i, S11)) for i in range(3))
    assert heads != beta_images(table)
    # So are the K_m tables, whose images under t_{b2} are not palindromes.
    for m in (-7, 0, 3):
        table = _monodromy_images(StallingsKnot(m))[0]
        assert any(img != img[::-1] for img in table.images.values())
        assert beta_images(table) == tuple(table.apply(beta_word(i, S21)) for i in range(5))


def test_word_validated_without_twists():
    # No twist to apply, but the word is still checked against the alphabet.
    with pytest.raises(ValueError, match="outside alphabet"):
        ta3_power((99,), 0, S21)
    with pytest.raises(ValueError, match="outside alphabet"):
        compile_monodromy((), S21).apply((99,))


def test_monodromy_error_kinds():
    bad_word = (99,)
    with pytest.raises(ValueError, match="outside alphabet"):
        compile_monodromy(piece((1, -1, 1, 1)), S21).apply(bad_word)
    with pytest.raises(ValueError, match="outside alphabet"):
        ta3_power(bad_word, -2, S21)
    # Every exponent is a power of the one rule, 0 the identity.
    assert compile_monodromy(((chain_curve(1), 0),), S21).apply(parse_word("a0 a1")) == parse_word("a0 a1")


@pytest.mark.parametrize(
    "curve, message",
    [
        pytest.param((), "twist curve is the empty word", id="empty"),
        pytest.param(parse_word("a2 a1 a1' a0"), "twist curve \"a2 a1 a1' a0\" is not freely reduced", id="unreduced"),
        pytest.param(parse_word("a1 a2 a1"), "twist curve 'a1 a2 a1' repeats a generator", id="repeat"),
        pytest.param(parse_word("a1 a2 a1'"), "twist curve \"a1 a2 a1'\" repeats a generator", id="repeat-inverse"),
        pytest.param(parse_word("a0' a3 a9"), "twist curve \"a0' a3 a9\" leaves the alphabet of 8 handles",
                     id="alphabet"),
        pytest.param(tuple(alpha(i, (-1) ** i) for i in range(12)),
                     "twist curve \"a0 a1' a2 a3\"... (43 characters) leaves the alphabet", id="quoted"),
    ],
)
def test_compile_refuses_a_curve_the_rule_is_not_checked_on(curve, message):
    # The rule t_c^k(x) = x c^k is checked only on reduced curves that
    # cross each arc at most once; a bad curve anywhere in the sequence is
    # refused before any twist is composed.
    for k in (1, -3):
        with pytest.raises(ValueError, match=re.escape(message)):
            compile_monodromy(piece((1, -1, 1, 1)) + ((curve, k),), S21)


def test_monodromy_orders():
    # Fibration monodromy applies t_{a1} first and so is written last; the
    # piece monodromy applies the same twists in the reverse order.
    knot = TwoBridgeKnot.from_eps((1, -1))
    assert knot.monodromy_str() == "t_a2^-1 t_a1"
    a = chain_curve
    assert knot.piece_twists() == ((a(2), -1), (a(1), 1))
    assert TwoBridgeKnot.from_eps((-1, -1, 1, 1)).piece_twists() == ((a(4), 1), (a(3), 1), (a(2), -1), (a(1), -1))
    # K_m: phi_m = t_a3^m t_a4 t_b2 t_a2^-1 t_a1^-1, t_a1^-1 applied first.
    assert StallingsKnot(-5).piece_twists() == ((a(1), -1), (a(2), -1), (b2_curve(), 1), (a(4), 1), (a(3), -5))
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
    # The heads as the iterated-twist construction built them, for m in
    # [-40, 40], and a digest of that construction's output for m in [-6, 6].
    for m in range(-40, 41):
        t_a3 = iterated_ta3((alpha(3),), m)
        expected = (
            concat(eta_word(), t_a3, iterated_ta3((alpha(2, -1),), m)),
            concat(eta_word(), t_a3, beta_word(0, S21)),
            concat(eta_word(), t_a3, beta_word(1, S21)),
            concat(eta_word(), t_a3, beta_word(4, S21)),
            concat(beta_word(4, S21), iterated_ta3(invert(beta_word(3, S21)), m), beta_word(4, S21)),
        )
        assert stallings_heads(m) == expected, m
    heads = repr([stallings_heads(m) for m in range(-6, 7)])
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


def stallings_table(m, s, b2=None):
    """The K_m piece twists compiled at `s`, with `b2` in place of the b2 curve if given."""
    twists = StallingsKnot(m).piece_twists()
    if b2 is not None:
        twists = tuple((b2 if curve == b2_curve() else curve, k) for curve, k in twists)
    return compile_monodromy(twists, s)


def test_ta3_power_fixes_the_genus2_descent():
    # So does every K_m table, letter for letter: a mapping class fixes the
    # boundary.  With a corrupted b2 word no K_m table does.
    descent = tilde_alpha_word(S21)
    assert stallings_table(0, S21).images == _monodromy_images(StallingsKnot(0))[0].images
    for n in (1, 2, 3):
        s = FiberSurface(2, n)
        for m in range(-40, 41):
            assert ta3_power(descent, m, s) == descent
            assert stallings_table(m, s).apply(descent) == descent, (m, n)
            assert stallings_table(m, s, CORRUPT_B2).apply(descent) != descent, (m, n)


def test_stallings_phi0_b4():
    heads = stallings_heads(0)
    b4, b3 = beta_word(4, S21), beta_word(3, S21)
    expected = concat(b4, invert(b3), b4, (alpha(5),))
    assert phi_b_word(4, heads[4], S21) == expected


def test_stallings_phi_m_heads_match_displayed_decompositions():
    m = 2
    heads = stallings_heads(m)
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
        twists = tuple((chain_curve(j), eps[j - 1]) for j in range(k, 0, -1))
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
