"""Word engine: reduction, concatenation, occurrence counting, substitution."""

import doctest
import itertools
import json
import random
import re
import sys

import pytest
from hypothesis import given, strategies as st

import handlecalc.words
from handlecalc.schedules import run_both
from handlecalc.trace import MoveTrace, replay
from handlecalc.verify import full_report
from handlecalc.words import (
    alpha,
    apply_images,
    concat,
    cyclic_reduce,
    handle_index,
    handle_letters,
    handle_occurrences,
    invert,
    parse_word,
    reduce_word,
    substitute,
    word_str,
)

# Letters over a 10-handle surface plus the connector.
LETTER_POOL = [alpha(i, s) for i in range(11) for s in (1, -1)]
words_strategy = st.lists(st.sampled_from(LETTER_POOL), max_size=30).map(tuple)


def test_doctests():
    failures, _ = doctest.testmod(handlecalc.words)
    assert failures == 0


def test_reduce_inverse_pair():
    assert reduce_word((alpha(1), alpha(1, -1))) == ()


def test_reduce_nested_cancellation():
    w = parse_word("a0' a1 a1' a0")
    assert reduce_word(w) == ()


def test_reduce_interior_cancellation():
    w = parse_word("a1 a2' a2 a3")
    assert reduce_word(w) == parse_word("a1 a3")


def test_concat_examples():
    assert concat(parse_word("a1"), parse_word("a1'")) == ()
    assert concat(parse_word("a0' a1"), parse_word("a1' a0")) == ()
    assert concat(parse_word("a0' a1"), parse_word("a0' a2")) == parse_word("a0' a1 a0' a2")


def test_handle_occurrences_beta1():
    # beta_1 crosses the first co-core once.
    assert handle_occurrences(parse_word("a0' a1 a0'"), 1) == 1


def test_handle_occurrences_connectors_only():
    assert handle_occurrences(parse_word("a0' a0'"), 1) == 0


def test_handle_occurrences_b2_word():
    # B_2 at g=1, n=1 crosses the first co-core twice.
    assert handle_occurrences(parse_word("a0' a1 a2' a1 a0' a3"), 1) == 2


def test_handle_occurrences_ignores_the_connector():
    w = (alpha(0), alpha(0), alpha(0, -1), alpha(0))
    assert handle_occurrences(w, 0) == 0
    assert all(handle_occurrences(w, i) == 0 for i in range(1, 5))


def test_substitute_simple():
    assert substitute(parse_word("a1 a2"), 2, 1, parse_word("a0")) == parse_word("a1 a0")


def test_substitute_with_inversion_and_reduction():
    # a2' a1 with a2 -> a0' a3 becomes a3' a0 a1 (hand substitution + reduction).
    got = substitute(parse_word("a2' a1"), 2, 1, parse_word("a0' a3"))
    assert got == parse_word("a3' a0 a1")


def test_substitute_absent_letter():
    assert substitute(parse_word("a1"), 2, 1, parse_word("a0 a0")) == parse_word("a1")


def test_invert_involution_example():
    w = parse_word("a0' a1 a2' a4")
    assert invert(invert(w)) == w
    assert invert(w) == parse_word("a4' a2 a1' a0")


def test_cyclic_reduce():
    assert cyclic_reduce(parse_word("a0' a1 a0")) == parse_word("a1")
    assert cyclic_reduce(parse_word("a1 a0 a1'")) == parse_word("a0")
    # Free reduction happens first.
    assert cyclic_reduce(parse_word("a1 a2 a2' a1'")) == ()


def test_word_text_round_trip():
    w = parse_word("a0' a10 a4' a3")
    assert parse_word(word_str(w)) == w
    assert word_str(parse_word("a1048575")) == "a1048575"
    assert word_str(()) == ""
    assert parse_word("") == ()


def test_parse_rejects_bad_tokens():
    # Only a code's canonical text parses: no leading zeros, no non-ASCII
    # digits, and no "at": the boundary arc is a word, not a letter.  An
    # index of more than 9 digits is refused before it is converted.
    for bad in ("b1", "a", "a1''", "a-1", "atx", "a01", "a\u0661", "a00", "at", "at'",
                "a" + "9" * 5000, "a" + "9" * 5000 + "'", "a1234567890"):
        with pytest.raises(ValueError, match="bad word token"):
            parse_word(bad)


def test_word_str_rejects_code_zero():
    # 0 is no letter; its text would not parse back.
    for w in ((0,), (alpha(1), 0, alpha(2))):
        with pytest.raises(ValueError, match="0 is not a letter code"):
            word_str(w)


def test_word_str_refuses_an_index_parse_word_refuses():
    # The largest index of 9 digits round-trips; one more letter code does not print.
    assert parse_word(word_str((10**9, -(10**9)))) == (10**9, -(10**9))
    for c in (10**9 + 1, -(10**9) - 1, 10**5000):
        with pytest.raises(ValueError, match="above the limit"):
            word_str((c,))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: alpha(-1), "letter index must be >= 0, got -1", id="alpha-negative-index"),
        pytest.param(lambda: alpha(1, 2), "sign must be +-1, got 2", id="alpha-sign"),
        pytest.param(lambda: handle_index(1), "1 is not a handle letter", id="handle-index-of-alpha-0"),
        pytest.param(lambda: substitute((2,), 0, 1, (3,)), "handle letters only", id="substitute-alpha-0"),
        pytest.param(lambda: substitute((2,), 1, 2, (3,)), "sign must be +-1, got 2", id="substitute-sign"),
    ],
)
def test_word_api_refuses_bad_arguments(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_letter_codes():
    assert alpha(0) == 1
    assert alpha(3) == 4
    assert handle_index(alpha(3, -1)) == 3
    assert word_str((alpha(3, -1), alpha(0))) == "a3' a0"


def _reference_text(w):
    return " ".join(f"a{abs(c) - 1}" + ("'" if c < 0 else "") for c in w)


# alpha_0 and handles in and beyond the token table, in both signs.
_TEXT_CODES = st.one_of(st.integers(1, 2100), st.integers(1, 1 << 22))


@given(st.lists(st.tuples(_TEXT_CODES, st.sampled_from((1, -1))).map(lambda cs: cs[0] * cs[1])).map(tuple))
def test_word_text_round_trips_exactly(w):
    text = word_str(w)
    assert text == _reference_text(w)
    assert parse_word(text) == w


@given(words_strategy)
def test_reduce_idempotent(w):
    r = reduce_word(w)
    assert reduce_word(r) == r


@given(words_strategy)
def test_length_bound(w):
    r = reduce_word(w)
    assert len(r) <= len(w)
    assert (len(r) == len(w)) == (reduce_word(w) == w)


@given(words_strategy)
def test_concat_inverse_is_identity(w):
    assert concat(w, invert(w)) == ()
    assert concat(invert(w), w) == ()


reduced_strategy = words_strategy.map(reduce_word)


@given(reduced_strategy, reduced_strategy, reduced_strategy)
def test_concat_associative(u, v, w):
    assert concat(concat(u, v), w) == concat(u, concat(v, w))


# Parts of a product: empty, one-letter and long reduced words, and runs
# u, v, v^-1, u^-1, w whose cancellation crosses several seams.
_long_reduced = st.lists(st.sampled_from(LETTER_POOL), min_size=40, max_size=120).map(reduce_word)
_part = st.one_of(st.just(()), st.sampled_from(LETTER_POOL).map(lambda c: (c,)), reduced_strategy, _long_reduced)
_nested = st.tuples(_part, _part, _part).map(lambda uvw: [uvw[0], uvw[1], invert(uvw[1]), invert(uvw[0]), uvw[2]])
_parts = st.lists(st.one_of(_part.map(lambda p: [p]), _nested), max_size=8).map(lambda runs: [p for r in runs for p in r])


@given(_parts)
def test_concat_is_the_reduced_product_of_reduced_parts(parts):
    got = concat(*parts)
    assert got == reduce_word(itertools.chain(*parts))
    assert reduce_word(got) == got


# A letter table: some letters of the pool, each mapped to a reduced image, empty, one letter or long;
# or, so that images often cancel against the output, a table over alpha_0..alpha_2 only.
_few = st.lists(st.sampled_from(LETTER_POOL[:6]), max_size=16).map(reduce_word)
_tables = st.dictionaries(st.sampled_from(LETTER_POOL), _part, max_size=12)
_few_tables = st.dictionaries(st.sampled_from(LETTER_POOL[:6]), _few, max_size=6)


@given(st.one_of(st.tuples(reduced_strategy, _tables), st.tuples(_few, _few_tables)))
def test_apply_images_is_the_substitution_idiom(case):
    w, table = case
    # The idiom the kernel replaces is its oracle: one part per letter, a kept letter as itself.
    assert apply_images(w, table) == concat(*[table.get(c, (c,)) for c in w])


@given(words_strategy)
def test_handle_letters_reads_each_letter(w):
    assert handle_letters(w) == {abs(c) - 1 for c in w if abs(c) > 1}


@given(words_strategy, st.integers(1, 10), words_strategy)
def test_substitution_removes_letter(w, i, repl):
    if handle_occurrences(repl, i):
        repl = tuple(c for c in repl if abs(c) != i + 1)
    assert handle_occurrences(substitute(reduce_word(w), i, 1, repl), i) == 0


@given(words_strategy, st.integers(1, 10), words_strategy)
def test_substitute_reduces_any_word(w, i, repl):
    # A homomorphism: the image of w is that of its reduced form, reduced, whether or not w uses alpha_i.
    got = substitute(w, i, 1, repl)
    assert got == substitute(reduce_word(w), i, 1, repl)
    assert reduce_word(got) == got


def _rotations(w):
    return {w[k:] + w[:k] for k in range(max(len(w), 1))}


@given(words_strategy, st.sampled_from(LETTER_POOL))
def test_cyclic_reduce_of_conjugate_is_a_rotation(w, g):
    v = cyclic_reduce(w)
    conjugated = cyclic_reduce(concat((g,), w, (-g,)))
    assert conjugated in _rotations(v)
    assert handle_letters(conjugated) == handle_letters(v)


def _wrap_kernels(monkeypatch, before):
    """Bind every module's `concat` and `apply_images` to ones that call `before(parts, word)` first.

    For `concat` the parts are its arguments and `word` is None.  For
    `apply_images(w, images)` the parts are the image of each letter of `w`
    (a kept letter as a one-letter part), what the substitution idiom
    `concat(*[images.get(c, (c,)) for c in w])` multiplied, and `word` is
    `w`; a word the table moves no letter of is returned as it is, with no
    part.  The engine's modules must be among those patched.
    """
    originals = {"concat": handlecalc.words.concat, "apply_images": handlecalc.words.apply_images}

    def concat(*ws):
        before(ws, None)
        return originals["concat"](*ws)

    def apply_images(w, images):
        before(() if images.keys().isdisjoint(w) else [images.get(c, (c,)) for c in w], w)
        return originals["apply_images"](w, images)

    wrappers = {"concat": concat, "apply_images": apply_images}
    patched = {name: set() for name in originals}
    for modname, mod in list(sys.modules.items()):
        for name, original in originals.items():
            if modname.startswith("handlecalc.") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrappers[name])
                patched[name].add(modname.rpartition(".")[2])
    assert {"words", "complexes", "twists", "surfaces", "schedules"} <= patched["concat"]
    assert {"words", "complexes", "twists"} <= patched["apply_images"]


def test_engine_hands_concat_only_reduced_parts(monkeypatch, fresh_memos):
    """Every part the pipeline multiplies is freely reduced, as concat and apply_images require.

    So is every word the substitution kernel reads.  The memos start
    empty, so W and each monodromy table are built under the guard."""

    def check(ws, word):
        for w in ws if word is None else [word, *ws]:
            if reduce_word(w) != w:
                raise AssertionError(f"a kernel was handed the unreduced part {word_str(w)!r}")

    _wrap_kernels(monkeypatch, check)

    genus_3 = ",".join(random.Random(3).choice("+-") for _ in range(6))
    specs = ["twobridge:+,+", "twobridge:+,-,+,+", f"twobridge:{genus_3}"]
    specs += [f"stallings:m={m}" for m in (-7, 0, 3)]
    for spec in specs:
        for n in (1, 2, 3):
            for _, trace in run_both(spec, n).values():
                replay(MoveTrace.from_json(json.loads(json.dumps(trace.to_json()))))
            assert full_report(spec, n).passed


def test_letters_through_concat_grow_as_the_complexity_claims(monkeypatch, fresh_memos):
    """Letters passed to `concat` and `apply_images` by one `run_both`, every memo emptied first, on three ladders.

    `apply_images` counts, for each letter of a word it substitutes, the
    length of that letter's image (1 for a kept letter), and nothing for
    a word it returns as it is.

    The heads take O(g^2) letters, and the rest is linear in n and in m:
    each doubling of g may at most multiply the count by 4.2, and each
    doubling of n or m by 2.1.  The ceilings bound growth only, so a
    saving passes and a blow-up fails.
    """
    letters = 0

    def tally(ws, _word):
        nonlocal letters
        letters += sum(map(len, ws))

    def count(spec, n):
        nonlocal letters
        fresh_memos()
        letters = 0
        run_both(spec, n)
        return letters

    _wrap_kernels(monkeypatch, tally)

    signs = [random.Random(11).choice("+-") for _ in range(64)]
    ladders = {
        "g": ([count("twobridge:" + ",".join(signs[:2 * g]), 1) for g in (8, 16, 32)], 4.2),
        "n": ([count("twobridge:+,-,+,+,-,+,-,-", n) for n in (50, 100, 200)], 2.1),
        "m": ([count(f"stallings:m={m}", 2) for m in (100, 200, 400)], 2.1),
    }
    for name, (counts, ceiling) in ladders.items():
        ratios = [b / a for a, b in zip(counts, counts[1:])]
        assert all(1 < r <= ceiling for r in ratios), f"{name} ladder {counts}: growth per doubling {ratios}"
