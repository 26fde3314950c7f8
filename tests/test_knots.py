"""Knot catalog: continued fractions, D-notation, equivalence, parsing."""

import itertools
import re
from fractions import Fraction

import pytest

from handlecalc.knots import (
    MAX_TWISTS,
    ConwayForm,
    DForm,
    KnotFraction,
    KnotSpecError,
    StallingsKnot,
    TwoBridgeKnot,
    continued_fraction,
    d_form,
    d_to_conway,
    is_fibered,
    parse_knot_spec,
)
from handlecalc.surfaces import MAX_GENUS


def fraction_oracle(coeffs):
    """Independent continued-fraction evaluation with Fraction arithmetic."""
    value = Fraction(coeffs[-1])
    for n in reversed(coeffs[:-1]):
        value = n + 1 / value
    return value


def test_continued_fraction_examples():
    assert fraction_oracle((2, -2)) == Fraction(3, 2)
    f = continued_fraction(ConwayForm((2, -2)))
    assert (f.p, f.q) == (3, 2)
    assert fraction_oracle((2, 2)) == Fraction(5, 2)
    f = continued_fraction(ConwayForm((2, 2)))
    assert (f.p, f.q) == (5, 2)
    f = continued_fraction(ConwayForm((3,)))
    assert (f.p, f.q) == (3, 1)


def test_continued_fraction_sign_normalization():
    f = continued_fraction(ConwayForm((-3,)))
    assert (f.p, f.q) == (3, -1)


def test_continued_fraction_errors():
    with pytest.raises(KnotSpecError):
        continued_fraction(ConwayForm((1, -1)))  # 1 + 1/(-1) = 0
    with pytest.raises(KnotSpecError):
        continued_fraction(ConwayForm((2,)))  # even p: a link
    with pytest.raises(KnotSpecError):
        ConwayForm(())


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: parse_knot_spec("conway:2,0"), "division by zero evaluating C(2,0)",
                     id="division-by-zero"),
        pytest.param(lambda: parse_knot_spec("conway:0"), "C(0) evaluates to 0", id="zero"),
        pytest.param(lambda: KnotFraction(-3, 1), "fraction numerator must be positive, got -3", id="negative-p"),
        pytest.param(lambda: KnotFraction(9, 3), "fraction 9/3 is not in lowest terms", id="not-lowest-terms"),
    ],
)
def test_knot_arithmetic_refuses(make, message):
    with pytest.raises(KnotSpecError, match=re.escape(message)):
        make()


def test_conway_form_bounds():
    # Every two-bridge knot passes here, so its fraction stays printable.
    ConwayForm((MAX_TWISTS, -MAX_TWISTS) * MAX_GENUS)
    with pytest.raises(KnotSpecError, match=f"genus {MAX_GENUS + 1} is above the limit"):
        ConwayForm((3,) * (2 * MAX_GENUS + 1))
    with pytest.raises(KnotSpecError, match="coefficient 2 is above the limit"):
        ConwayForm((3, -MAX_TWISTS - 1))
    with pytest.raises(KnotSpecError, match=f"genus {MAX_GENUS + 1} is above the limit"):
        TwoBridgeKnot.from_eps((1, -1) * (MAX_GENUS + 1))


def test_d_to_conway():
    assert d_to_conway(DForm((1, 1))).coefficients == (2, -2)
    assert d_to_conway(DForm((1, -1))).coefficients == (2, 2)
    assert d_to_conway(DForm((1, -1, 1, 1))).coefficients == (2, 2, 2, -2)
    with pytest.raises(KnotSpecError):
        DForm((1, 1, 1))


def test_d_form_round_trip():
    # A D-form's fraction expands back to it: the even continued fraction is unique.
    for k in (1, 2, 3, 4):
        for eps in itertools.product((1, -1), repeat=2 * k):
            assert d_form(continued_fraction(d_to_conway(DForm(eps)))) == DForm(eps)
    for entries in ((1, -1, 2, 3), (-2, 1), (5, -3, 1, 1, -4, 2)):
        assert d_form(continued_fraction(d_to_conway(DForm(entries)))) == DForm(entries)


@pytest.mark.parametrize(
    "coefficients, d",
    [
        pytest.param((2, 1), (-1, -1), id="trefoil-C(2,1)"),
        pytest.param((3,), (-1, -1), id="trefoil-C(3)"),
        pytest.param((1, 1, 1), (1, 1), id="trefoil-C(1,1,1)"),
        pytest.param((2, -2), (1, 1), id="trefoil-C(2,-2)"),
        pytest.param((2, 2), (1, -1), id="figure-eight"),
        pytest.param((5,), (-1, -1, -1, -1), id="5_1"),
        pytest.param((3, 2), (2, 1), id="5_2"),
    ],
)
def test_d_form_is_read_off_the_knot_not_its_coefficients(coefficients, d):
    assert d_form(continued_fraction(ConwayForm(coefficients))) == DForm(d)
    k = TwoBridgeKnot.from_conway(coefficients)
    assert k.is_fibered == is_fibered(DForm(d))
    if k.is_fibered:
        assert k.eps == d and k.genus == len(d) // 2


def test_d_form_refuses_the_unknot_and_a_genus_above_the_limit():
    with pytest.raises(KnotSpecError, match="p = 1: the unknot"):
        TwoBridgeKnot.from_conway((1,))
    # C(9999) has a D-form of 9998 entries; the expansion stops after 2 * MAX_GENUS.
    with pytest.raises(KnotSpecError, match=f"genus {MAX_GENUS + 1} or more is above the limit {MAX_GENUS}"):
        TwoBridgeKnot.from_conway((9999,))


def test_is_fibered():
    assert is_fibered(DForm((1, -1)))
    assert not is_fibered(DForm((2, 1)))


def test_genus():
    assert TwoBridgeKnot.from_eps((1, 1)).genus == 1
    assert TwoBridgeKnot.from_eps((1, -1, 1, 1)).genus == 2
    # A sign sequence with an entry other than +-1 is a knot, not a fibered one.
    with pytest.raises(KnotSpecError, match=re.escape("C(4,-2) has no fibered D-form presentation")):
        TwoBridgeKnot.from_eps((2, 1)).genus
    assert StallingsKnot(3).genus == 2


def test_all_positive_forms_are_knots():
    # p comes out odd for every all-positive form up to k = 6 (knot, not link).
    for k in range(1, 7):
        f = continued_fraction(d_to_conway(DForm((1,) * (2 * k))))
        assert f.p % 2 == 1
        assert f == KnotFraction(f.p, f.q)  # lowest terms, p odd positive


def test_fraction_matches_oracle_on_fibered_forms():
    for k in (1, 2, 3):
        for eps in itertools.product((1, -1), repeat=2 * k):
            conway = d_to_conway(DForm(eps))
            try:
                f = continued_fraction(conway)
            except KnotSpecError:
                continue  # a degenerate evaluation, rejected either way
            oracle = fraction_oracle(conway.coefficients)
            assert Fraction(f.p, f.q) in (oracle, -oracle)
            assert f.p == abs(oracle.numerator)


def test_isotopic_implies_equivalent():
    # A reversed D-form is the same knot, so by Schubert's classification
    # its fraction has the same p, and q' = q or q q' = 1 (mod p).
    for k in (1, 2, 3, 4):
        for eps in itertools.product((1, -1), repeat=2 * k):
            try:
                f1 = continued_fraction(d_to_conway(DForm(eps)))
                f2 = continued_fraction(d_to_conway(DForm(tuple(reversed(eps)))))
            except KnotSpecError:
                continue
            assert f1.p == f2.p
            assert (f1.q - f2.q) % f1.p == 0 or (f1.q * f2.q) % f1.p == 1 % f1.p


def test_parse_knot_spec():
    k = parse_knot_spec("twobridge:+,-,+,+")
    assert isinstance(k, TwoBridgeKnot) and k.eps == (1, -1, 1, 1)
    assert k.genus == 2
    k = parse_knot_spec("conway:2,-2")
    assert k.eps == (1, 1)
    assert str(k.fraction()) == "3/2"
    k = parse_knot_spec("conway:3,2")  # 5_2, which is not fibered
    assert not k.is_fibered
    with pytest.raises(KnotSpecError):
        k.monodromy_str()
    k = parse_knot_spec("stallings:m=-4")
    assert isinstance(k, StallingsKnot) and k.m == -4
    for bad, message in (("twobridge:+,2", "bad twobridge sign token '2'"),
                         ("conway:x", "bad conway coefficient 'x'"),
                         ("stallings:m=a", "bad stallings twist count 'a'"),
                         ("nope:1", "unknown knot spec kind 'nope'"),
                         ("twobridge", "knot spec 'twobridge' is missing the ':' separator"),
                         ("stallings:3", "stallings spec needs m=<int>, got '3'")):
        with pytest.raises(KnotSpecError, match=re.escape(message)):
            parse_knot_spec(bad)


def test_spec_round_trip():
    for spec in ("twobridge:+,-", "stallings:m=3"):
        assert parse_knot_spec(spec).spec_str() == spec


def test_monodromy_of_parsed_knot():
    k = parse_knot_spec("twobridge:+,+")
    assert k.monodromy_str() == "t_a2 t_a1"
    k = parse_knot_spec("stallings:m=-1")
    assert k.monodromy_str() == "t_a3^-1 t_a4 t_b2 t_a2^-1 t_a1^-1"
