"""Twist rules, composite monodromies, Stallings image tables."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from handlecalc.surfaces import CurveId, FiberSurface, beta_word, eta_word, phi_b_word, tilde_alpha_word
from handlecalc.twists import (
    MonodromySpec,
    UnsupportedTwistError,
    apply_monodromy,
    apply_twist,
    chain_twist_rule,
    compile_monodromy,
    piece_monodromy,
    stallings_monodromy,
    stallings_rules,
    ta3_power,
    two_bridge_monodromy,
)
from handlecalc.words import (
    TILDE,
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


def sequential(twists, w, s):
    """Reference action: one apply_twist per twist, twists[0] first."""
    for curve, sign in twists:
        w = apply_twist(chain_twist_rule(curve.index, sign, s), w)
    return reduce_word(w)


def iterated_ta3(w, m, s=S21):
    """Reference t_{a3}^m: |m| single twists."""
    return sequential([(CurveId("a", 3), 1 if m > 0 else -1)] * abs(m), w, s)


def alphabet(s):
    """Every unsigned letter code of the surface: alpha_0..alpha_N, and the tilde arc at n = 1."""
    return list(range(1, s.num_handles + 2)) + ([TILDE] if s.n == 1 else [])


@st.composite
def monodromy_and_word(draw):
    g = draw(st.integers(1, 4))
    s = FiberSurface(g, draw(st.integers(1, 3)))
    eps = draw(st.tuples(*[st.sampled_from((1, -1))] * (2 * g)))
    kind = draw(st.sampled_from(("piece", "fibration", "inverse", "chain")))
    if kind == "piece":
        twists = piece_monodromy(eps).twists
    elif kind == "fibration":
        twists = two_bridge_monodromy(eps).twists
    elif kind == "inverse":
        twists = two_bridge_monodromy(eps).inverse().twists
    else:
        pairs = draw(st.lists(st.tuples(st.integers(1, 2 * g), st.sampled_from((1, -1))), max_size=12))
        twists = tuple((CurveId("a", j), e) for j, e in pairs)
    letters = draw(st.lists(st.tuples(st.sampled_from(alphabet(s)), st.sampled_from((1, -1))), max_size=16))
    return s, MonodromySpec(twists), tuple(c * e for c, e in letters)


def test_twist_rule_basic_cases():
    t2 = chain_twist_rule(2, 1, S11)
    assert apply_twist(t2, (alpha(1),)) == parse_word("a1 a2' a1")
    t1_inv = chain_twist_rule(1, -1, S11)
    assert apply_twist(t1_inv, (alpha(0),)) == parse_word("a1")
    # letters away from the twist are fixed
    t5 = chain_twist_rule(5, 1, S31)
    assert apply_twist(t5, (alpha(1),)) == (alpha(1),)


def test_twist_rule_all_four_clauses():
    s = FiberSurface(2, 1)
    for j in range(1, 5):
        plus, minus = chain_twist_rule(j, 1, s), chain_twist_rule(j, -1, s)
        assert apply_twist(plus, (alpha(j - 1),)) == (alpha(j - 1), alpha(j, -1), alpha(j - 1))
        assert apply_twist(plus, (alpha(j),)) == (alpha(j - 1),)
        assert apply_twist(minus, (alpha(j - 1),)) == (alpha(j),)
        assert apply_twist(minus, (alpha(j),)) == (alpha(j), alpha(j - 1, -1), alpha(j))


def test_twist_rule_range_checks():
    with pytest.raises(ValueError):
        chain_twist_rule(3, 1, S11)  # only a1, a2 exist at g=1
    with pytest.raises(ValueError):
        chain_twist_rule(0, 1, S11)
    rule = chain_twist_rule(1, 1, S11)
    with pytest.raises(ValueError):
        apply_twist(rule, (alpha(9),))  # letter outside the surface alphabet


def test_inverse_rule_property():
    for g in (1, 2, 3):
        s = FiberSurface(g, 1)
        for j in range(1, 2 * g + 1):
            plus, minus = chain_twist_rule(j, 1, s), chain_twist_rule(j, -1, s)
            for i in range(0, 2 * g + 1):
                w = (alpha(i),)
                assert apply_twist(minus, apply_twist(plus, w)) == w
                assert apply_twist(plus, apply_twist(minus, w)) == w


def test_rule_table_satisfies_braid_relations():
    # Independent consistency oracle: as endomorphisms on letter words the
    # chain twists must commute at distance >= 2 and satisfy the braid
    # relation on neighbours.
    s = FiberSurface(3, 1)

    def t(j, w):
        return apply_twist(chain_twist_rule(j, 1, s), w)

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
    assert apply_monodromy(piece_monodromy((1, 1)), (alpha(0),), s) == parse_word("a0 a1' a0")
    assert apply_monodromy(piece_monodromy((-1, -1)), (alpha(0),), s) == parse_word("a1")
    w = parse_word("a0' a1 a2' a1")
    assert apply_monodromy(MonodromySpec(()), w, s) == w


@given(monodromy_and_word())
def test_compiled_table_matches_sequential_twists(case):
    s, phi, w = case
    table = compile_monodromy(phi, s)
    assert table.apply(w) == sequential(phi.twists, w, s)
    assert apply_monodromy(phi, w, s) == sequential(phi.twists, w, s)
    for code in alphabet(s):
        for c in (code, -code):
            assert table.apply((c,)) == sequential(phi.twists, (c,), s)


def test_word_validated_without_twists():
    # No twist to apply, but the word is still checked against the alphabet.
    with pytest.raises(ValueError, match="outside alphabet"):
        ta3_power((99,), 0)
    with pytest.raises(ValueError, match="outside alphabet"):
        apply_monodromy(MonodromySpec(()), (99,), S21)
    with pytest.raises(ValueError, match="only legal when n = 1"):
        apply_monodromy(MonodromySpec(()), (TILDE,), FiberSurface(1, 2))


def test_monodromy_error_kinds():
    bad_word = (99,)
    with pytest.raises(UnsupportedTwistError):
        apply_monodromy(MonodromySpec(((CurveId("b2"), 1),)), bad_word, S21)
    with pytest.raises(ValueError, match="chain twist index 5 out of range"):
        apply_monodromy(MonodromySpec(((CurveId("a", 5), 1),)), bad_word, S21)
    with pytest.raises(ValueError, match="outside alphabet"):
        apply_monodromy(piece_monodromy((1, -1, 1, 1)), bad_word, S21)
    # A bad twist anywhere in the spec is reported before a bad letter.
    with pytest.raises(UnsupportedTwistError):
        apply_monodromy(stallings_monodromy(1), bad_word, S21)
    with pytest.raises(ValueError, match="chain twist index 3 out of range"):
        ta3_power(bad_word, 2, S11)
    with pytest.raises(ValueError, match="outside alphabet"):
        ta3_power(bad_word, -2, S21)


def test_monodromy_orders():
    # Fibration monodromy applies t_{a1} first; the piece monodromy the reverse.
    phi_k = two_bridge_monodromy((1, -1))
    assert [(str(c), e) for c, e in phi_k.twists] == [("a1", 1), ("a2", -1)]
    assert phi_k.serialize() == "a1 a2^-1"
    assert phi_k.composition_str() == "t_a2^-1 t_a1"
    phi = piece_monodromy((1, -1))
    assert [(str(c), e) for c, e in phi.twists] == [("a2", -1), ("a1", 1)]
    with pytest.raises(ValueError):
        two_bridge_monodromy(())
    with pytest.raises(ValueError):
        two_bridge_monodromy((1, -1, 1))
    with pytest.raises(ValueError):
        two_bridge_monodromy((2, 1))


def test_stallings_monodromy_serialization():
    assert stallings_monodromy(3).serialize() == "a1^-1 a2^-1 b2 a4 a3^3"
    assert stallings_monodromy(-1).composition_str() == "t_a3^-1 t_a4 t_b2 t_a2^-1 t_a1^-1"
    assert stallings_monodromy(0).serialize() == "a1^-1 a2^-1 b2 a4"
    with pytest.raises(UnsupportedTwistError):
        apply_monodromy(stallings_monodromy(1), (alpha(0),), S21)


def test_ta3_images():
    assert ta3_power((alpha(3),), 1) == (alpha(2),)
    assert ta3_power((alpha(2),), 1) == parse_word("a2 a3' a2")
    assert ta3_power((alpha(3),), -1) == parse_word("a3 a2' a3")
    assert ta3_power((alpha(2),), -1) == (alpha(3),)
    assert ta3_power((alpha(2),), 2) == parse_word("a2 a3' a2 a3' a2")


def test_ta3_power_length_law():
    # |t^m(a2)| = 2m+1 for m >= 1; for m <= -1 direct iteration gives
    # 2|m|-1 (the first inverse power lands on the single letter a3).
    for m in range(1, 7):
        assert len(ta3_power((alpha(2),), m)) == 2 * m + 1
    for m in range(-6, 0):
        assert len(ta3_power((alpha(2),), m)) == 2 * abs(m) - 1
    assert ta3_power((alpha(2),), 0) == (alpha(2),)


def test_ta3_closed_form_matches_iterated_twists():
    words = [
        (alpha(2),),
        (alpha(3),),
        (alpha(2, -1),),
        (alpha(3, -1),),
        (alpha(3), alpha(2, -1)),
        invert(beta_word(3, S21)),
        parse_word("a0 a2 a2 a3' a4 at a2'"),
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
        assert stallings_rules(m).heads == expected
    heads = repr([stallings_rules(m).heads for m in range(-6, 7)])
    assert hashlib.sha256(heads.encode()).hexdigest() == (
        "7d5098c781c427dd3a2f1daabf358afb8b4b88a6b7a9d413b68021745da6bb62"
    )


def test_ta3_fixes_a3_a2inv():
    # a3 * a2^-1 is invariant under every power (the slide results rely on it).
    w = (alpha(3), alpha(2, -1))
    for m in range(-5, 6):
        assert ta3_power(w, m) == w


@settings(deadline=None)
@given(eps_strategy, st.integers(1, 3))
def test_piece_tables_fix_every_closing_arc(eps, n):
    # factorization maps only the beta part of B_i and appends the closing
    # arc as it is: alpha_{4g+1-i} for i >= 1, the tilde-type descent for B_0.
    g = len(eps) // 2
    s = FiberSurface(g, n)
    table = compile_monodromy(piece_monodromy(eps), s)
    for i in range(1, 2 * g + 1):
        assert table.apply((alpha(4 * g + 1 - i),)) == (alpha(4 * g + 1 - i),)
    descent = tilde_alpha_word(FiberSurface(g, 1))
    assert table.apply(descent) == descent


@given(st.integers(-40, 40), st.integers(1, 3))
def test_ta3_power_fixes_the_genus2_descent(m, n):
    descent = tilde_alpha_word(S21)
    assert ta3_power(descent, m, FiberSurface(2, n)) == descent


def test_stallings_phi0_b4():
    table = stallings_rules(0)
    b4, b3 = beta_word(4, S21), beta_word(3, S21)
    expected = concat(b4, invert(b3), b4, (alpha(5),))
    assert phi_b_word(4, table.heads[4], S21) == expected


def test_stallings_phi_m_heads_match_displayed_decompositions():
    from handlecalc.surfaces import eta_word, tilde_alpha_word

    m = 2
    table = stallings_rules(m)
    eta = eta_word()
    t = ta3_power((alpha(3),), m)
    assert phi_b_word(0, table.heads[0], S21) == concat(
        eta, t, ta3_power((alpha(2, -1),), m), tilde_alpha_word(S21)
    )
    assert phi_b_word(1, table.heads[1], S21) == concat(eta, t, beta_word(0, S21), (alpha(8),))
    assert phi_b_word(2, table.heads[2], S21) == concat(eta, t, beta_word(1, S21), (alpha(7),))
    assert phi_b_word(3, table.heads[3], S21) == concat(eta, t, beta_word(4, S21), (alpha(6),))


def test_image_closure_exhaustive_small():
    # The image of alpha_i is a word over alpha_0..alpha_{i+1} crossing
    # alpha_{i+1} once; exhaustive for g <= 2.
    for k in (1, 2):
        for eps in itertools.product((1, -1), repeat=2 * k):
            phi = piece_monodromy(eps)
            s = FiberSurface(k, 1)
            for i in range(2 * k):
                w = apply_monodromy(phi, (alpha(i),), s)
                assert handle_letters(w) <= set(range(1, i + 2))
                assert handle_occurrences(w, i + 1) == 1


@given(eps_strategy)
def test_image_closure_random(eps):
    g = len(eps) // 2
    phi = piece_monodromy(eps)
    s = FiberSurface(g, 1)
    for i in range(2 * g):
        w = apply_monodromy(phi, (alpha(i),), s)
        assert handle_letters(w) <= set(range(1, i + 2))
        assert handle_occurrences(w, i + 1) == 1


@given(eps_strategy)
def test_prefix_claim(eps):
    # Applying only the twists a_k..a_1 (a_k first) to alpha_k stays
    # inside alpha_0..alpha_k, for every prefix length k.
    from handlecalc.surfaces import CurveId

    g = len(eps) // 2
    s = FiberSurface(g, 1)
    for k in range(1, 2 * g + 1):
        twists = tuple((CurveId("a", j), eps[j - 1]) for j in range(k, 0, -1))
        w = apply_monodromy(MonodromySpec(twists), (alpha(k),), s)
        assert handle_letters(w) <= set(range(1, k + 1))


@given(eps_strategy, st.integers(0, 10))
def test_monodromy_round_trip(eps, i):
    g = len(eps) // 2
    i = i % (2 * g + 1)
    s = FiberSurface(g, 1)
    phi = two_bridge_monodromy(eps)
    w = apply_monodromy(phi.inverse(), apply_monodromy(phi, (alpha(i),), s), s)
    assert w == (alpha(i),)
