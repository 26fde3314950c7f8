"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every expected value here is exact (counts and byte-level
words); the only tolerances are the wall-clock budgets, asserted as
stated.
"""

import itertools
import random
import time

from handlecalc.complexes import slide_words
from handlecalc.factorization import build_pieces
from handlecalc.knots import StallingsKnot, TwoBridgeKnot
from handlecalc.schedules import assemble, run_schedule
from handlecalc.surfaces import FiberSurface
from handlecalc.trace import replay, word_state
from handlecalc.twists import compile_monodromy
from handlecalc.words import (
    alpha,
    concat,
    handle_letters,
    handle_occurrences,
    invert,
    reduce_word,
    substitute,
    word_str,
)


def _report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def all_fibered(max_genus):
    for k in range(1, max_genus + 1):
        yield from itertools.product((1, -1), repeat=2 * k)


def test_criterion_1_e1_counts():
    """E(1): every fibered two-bridge knot of genus <= 4, exact final counts."""
    t0 = time.perf_counter()
    checked = 0
    for eps in all_fibered(4):
        knot = TwoBridgeKnot.from_eps(eps)
        finals = {}
        for piece in ("X1", "X2"):
            cx, _ = run_schedule(knot, 1, piece)
            assert len(cx.one_handles) == 0, eps
            assert len(cx.two_handles) == 5, eps
            finals[piece] = cx
        counts = assemble(finals["X1"], finals["X2"], 1)
        assert counts.as_dict() == {"h0": 1, "h1": 0, "h2": 10, "h3": 0, "h4": 1}, eps
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        1,
        checked == 4 + 16 + 64 + 256 and elapsed < 10.0,
        f"{checked} knots, per-piece 0/5, assembled (1,0,10,0,1), {elapsed:.2f}s < 10s",
    )


def test_criterion_2_en_counts():
    """E(n) for n = 2, 3: per-piece 6n-1 two-handles, assembled chi = 12n."""
    t0 = time.perf_counter()
    checked = 0
    for n in (2, 3):
        for eps in all_fibered(4):
            knot = TwoBridgeKnot.from_eps(eps)
            finals = {}
            for piece in ("X1", "X2"):
                cx, _ = run_schedule(knot, n, piece)
                assert len(cx.one_handles) == 0, (eps, n)
                assert len(cx.two_handles) == 6 * n - 1, (eps, n)
                finals[piece] = cx
            counts = assemble(finals["X1"], finals["X2"], n)
            chi = counts.h0 - counts.h1 + counts.h2 - counts.h3 + counts.h4
            assert chi == 12 * n, (eps, n)
            checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        2,
        checked == 2 * 340 and elapsed < 30.0,
        f"{checked} runs, per-piece 6n-1, chi = 12n, {elapsed:.2f}s < 30s",
    )


def test_criterion_3_stallings():
    """Stallings family: m in [-5, 5], n in {1, 2}; 13 -> 5 at n = 1."""
    for m in range(-5, 6):
        knot = StallingsKnot(m)
        for n in (1, 2):
            for piece in ("X1", "X2"):
                cx, trace = run_schedule(knot, n, piece)
                assert len(cx.one_handles) == 0, (m, n, piece)
                assert len(cx.two_handles) == 6 * n - 1, (m, n, piece)
                if n == 1:
                    assert len(trace.initial["two_handles"]) == 13, (m, piece)
    _report(3, True, "m in [-5,5], n in {1,2}: all schedules end with 0 one-handles; 13 -> 5 at n=1")


def test_criterion_4_displayed_words():
    """Slide results equal the displayed words byte-for-byte after reduction."""
    checks = []

    # First cancellation slide, both epsilon_1 signs.
    for eps, want in (((1, 1), "a0' a1"), ((-1, -1), "a1' a0")):
        x1, _ = build_pieces(TwoBridgeKnot.from_eps(eps), 1)
        words = {vc.label(): vc.word for vc in x1.factorization.cycles}
        got = word_str(slide_words(words["phi(B0)"], words["B0"]))
        checks.append((f"first slide eps1={eps[0]:+d}", got, want))

    # Second slide phi(beta_1) * beta_1^-1, the three displayed sign cases.
    for eps, want in (
        ((1, 1), "a0' a1 a2' a0"),
        ((1, -1), "a0' a1 a0' a2"),
        ((-1, -1), "a1' a2 a1' a0 a1' a0"),
    ):
        x1, _ = build_pieces(TwoBridgeKnot.from_eps(eps), 1)
        words = {vc.label(): vc.word for vc in x1.factorization.cycles}
        got = word_str(slide_words(words["phi(B1)"], words["B1"]))
        checks.append((f"second slide eps={eps}", got, want))

    # Stallings double slides out of the real schedule run (any m).
    for m in (0, 1, -2, 5):
        _, trace = run_schedule(StallingsKnot(m), 1, "X1")
        slides = [mv for mv in trace.moves if mv.kind == "slide" and mv.shared_prefix]
        checks.append((f"H_12 double slide m={m}", word_str(slides[0].after_word), "a2' a0"))
        checks.append((f"H_32 double slide m={m}", word_str(slides[1].after_word), "a0' a1 a2' a3 a4' a0"))

    bad = [(name, got, want) for name, got, want in checks if got != want]
    _report(4, not bad, f"{len(checks)} displayed-word regressions byte-identical" if not bad else str(bad))


def test_criterion_5_twist_closure_suite():
    """Image of alpha_i: over alpha_0..alpha_{i+1} with exactly one alpha_{i+1}."""
    failures = 0
    total = 0

    def check(eps):
        nonlocal failures, total
        g = len(eps) // 2
        s = FiberSurface(g, 1)
        table = compile_monodromy(TwoBridgeKnot.from_eps(eps).piece_twists(), s)
        for i in range(2 * g):
            w = table.apply((alpha(i),))
            total += 1
            if not (handle_letters(w) <= set(range(1, i + 2)) and handle_occurrences(w, i + 1) == 1):
                failures += 1

    for eps in all_fibered(3):  # exhaustive through length 6
        check(eps)
    rng = random.Random(20250808)
    for _ in range(200):
        length = rng.choice((8, 10))
        check(tuple(rng.choice((1, -1)) for _ in range(length)))
    _report(5, failures == 0, f"{total} image checks, zero failures")


def test_criterion_6_word_algebra_randomized():
    """10,000 random words: reduction, group laws, substitution postcondition."""
    rng = random.Random(1729)
    pool = [alpha(i, s) for i in range(9) for s in (1, -1)]

    def rand_word(max_len=24):
        return tuple(rng.choice(pool) for _ in range(rng.randrange(max_len)))

    failures = 0
    for _ in range(10_000):
        w, v = rand_word(), rand_word()
        r = reduce_word(w)
        if reduce_word(r) != r or len(r) > len(w):
            failures += 1
        if concat(w, invert(w)) != () or concat(invert(v), v) != ():
            failures += 1
        if concat(r, ()) != r or invert(invert(v)) != tuple(v):
            failures += 1
        i = rng.randrange(1, 9)
        repl = tuple(c for c in rand_word(8) if abs(c) != i + 1)
        if handle_occurrences(substitute(r, i, rng.choice((1, -1)), repl), i) != 0:
            failures += 1
    _report(6, failures == 0, "10000 random words, zero failures")


def test_criterion_7_trace_replay():
    """50 random (knot, n) pairs: replay reproduces the final state."""
    rng = random.Random(424242)
    mismatches = 0
    for _ in range(50):
        if rng.random() < 0.3:
            knot = StallingsKnot(rng.randrange(-4, 5))
        else:
            k = rng.randrange(1, 4)
            knot = TwoBridgeKnot.from_eps(tuple(rng.choice((1, -1)) for _ in range(2 * k)))
        n = rng.randrange(1, 4)
        piece = rng.choice(("X1", "X2"))
        _, trace = run_schedule(knot, n, piece)
        if word_state(replay(trace)) != trace.final:
            mismatches += 1
    _report(7, mismatches == 0, "50 random traces replayed, zero final-state mismatches")
