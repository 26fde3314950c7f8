"""Verification reports: Euler characteristic, rule suites, full certificates."""

import dataclasses
import itertools
import json

import pytest

from handlecalc import complexes, factorization, schedules, trace, twists, verify, words
from handlecalc.factorization import Factorization, LFPiece
from handlecalc.knots import TwoBridgeKnot, parse_knot_spec
from handlecalc.schedules import ScheduleError, run_schedule
from handlecalc.surfaces import chain_curve
from handlecalc.verify import check_piece_table, euler_char, full_report

SUITES = ("twist closure suite", "twist invertibility suite")


def _row(checks, name):
    return next(c for c in checks if c.name == name)


def test_euler_char_examples():
    assert euler_char((1, 0, 10, 0, 1)) == 12
    assert euler_char((1, 0, 22, 0, 1)) == 24
    # piece-level counts at (g, n): 1 - (4g+2n-2) + (4g+8n-3) = 6n
    for g in (1, 2, 4):
        for n in (1, 2, 3):
            assert euler_char((1, 4 * g + 2 * n - 2, 4 * g + 8 * n - 3)) == 6 * n


def test_image_closure_suite_sign_cases():
    assert _row(check_piece_table(TwoBridgeKnot.from_eps((1, 1))), "twist closure suite").passed
    assert _row(check_piece_table(TwoBridgeKnot.from_eps((-1, -1))), "twist closure suite").passed


def test_image_closure_suite_exhaustive_length4():
    for eps in itertools.product((1, -1), repeat=4):
        assert _row(check_piece_table(TwoBridgeKnot.from_eps(eps)), "twist closure suite").passed, eps


def test_invertibility():
    assert _row(check_piece_table(TwoBridgeKnot.from_eps((1, -1))), "twist invertibility suite").passed
    assert _row(check_piece_table(TwoBridgeKnot.from_eps((1, 1, -1, 1))), "twist invertibility suite").passed
    # empty spec round trip is trivially fine at the word level
    from handlecalc.surfaces import FiberSurface
    from handlecalc.twists import compile_monodromy
    from handlecalc.words import alpha

    assert compile_monodromy((), FiberSurface(1, 1)).apply((alpha(0),)) == (alpha(0),)


def test_invertibility_suite_round_trips_the_piece_monodromy():
    # The suite certifies the table build_pieces compiles, not the fibration
    # order, and a two-bridge report ends with its two rows.
    for eps in ((1, -1), (1, 1, -1, 1)):
        checks = check_piece_table(TwoBridgeKnot.from_eps(eps))
        assert [(c.name, c.passed) for c in checks] == [(name, True) for name in SUITES]
        assert full_report(TwoBridgeKnot.from_eps(eps), 1).checks[-2:] == list(checks)


def _fails_one_suite(report, suite):
    """The schedule and count rows pass, and of the two suite rows only `suite` fails."""
    assert not report.passed
    assert [c.name for c in report.checks if not c.passed] == [suite]
    assert all(c.passed for c in report.checks if c.name not in SUITES)


def test_closure_suite_fails_on_the_fibration_order(monkeypatch, fresh_memos):
    # The fibration monodromy is an automorphism too, but its images of
    # alpha_i reach past alpha_{i+1}: every sign sequence of genus <= 2 fails.
    # The suites read the table the pieces are built from, so the report
    # fails already at the schedule, whose phi(B0) no longer crosses a1 once.
    monkeypatch.setattr(TwoBridgeKnot, "piece_twists",
                        lambda k: tuple((chain_curve(j), e) for j, e in enumerate(k.eps, 1)))
    report = full_report("twobridge:+,+", 1)
    assert [c.name for c in report.checks if not c.passed] == ["schedule completes"]
    for k in (1, 2):
        for eps in itertools.product((1, -1), repeat=2 * k):
            assert [c.passed for c in check_piece_table(TwoBridgeKnot.from_eps(eps))] == [False, True], eps


def _counted(monkeypatch, name, modules):
    """Replace `name` in each module by one counting wrapper; return its list of calls."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    for mod in modules:
        monkeypatch.setattr(mod, name, counted)
    return calls


def test_a_report_compiles_the_piece_table_once(monkeypatch, fresh_memos):
    # Both builds of a report and its suites read one table per knot; only
    # the suites' inverse is compiled apart, so another n compiles just that.
    # K_m has no suites: its first report compiles its table, another n none.
    compiled = _counted(monkeypatch, "compile_monodromy", (factorization, verify))
    assert full_report("twobridge:+,-,+,+", 2).passed
    assert len(compiled) == 2
    assert full_report("twobridge:+,-,+,+", 3).passed
    assert len(compiled) == 3
    assert full_report("stallings:m=-3", 2).passed
    assert len(compiled) == 4
    assert full_report("stallings:m=-3", 3).passed
    assert len(compiled) == 4


@pytest.mark.parametrize("spec", ["twobridge:+,-", "stallings:m=2"])
def test_a_report_leaves_the_knot_as_it_was(spec):
    # The memos are keyed by the knot's value; nothing is cached on the knot.
    knot = parse_knot_spec(spec)
    before = dict(vars(knot))
    assert full_report(knot, 2).passed
    assert vars(knot) == before


def test_invertibility_suite_fails_on_a_wrong_inverse(monkeypatch):
    # The suites compile only the inverse: compile the table itself instead.
    monkeypatch.setattr(verify, "compile_monodromy",
                        lambda pairs, s: twists.compile_monodromy([(j, -e) for j, e in reversed(pairs)], s))
    _fails_one_suite(full_report("twobridge:+,+", 1), "twist invertibility suite")


def test_full_report_trefoil():
    report = full_report("twobridge:+,+", 1)
    assert report.passed
    chi = next(c for c in report.checks if c.name == "euler characteristic")
    assert chi.actual == 12


def test_full_report_stallings():
    report = full_report("stallings:m=2", 1)
    assert report.passed
    assert next(c for c in report.checks if c.name == "euler characteristic").actual == 12


def test_full_report_n3():
    report = full_report("twobridge:+,+,+,+", 3)
    assert report.passed
    assert next(c for c in report.checks if c.name == "euler characteristic").actual == 36
    assert next(c for c in report.checks if c.name == "total 2-handles").actual == 34


def test_report_json_shape():
    report = full_report("twobridge:+,-", 2)
    payload = report.to_json()
    assert payload["schema"] == "handlecalc/6"
    assert payload["passed"] is True
    assert all(set(c) == {"name", "expected", "actual", "pass"} for c in payload["checks"])
    # Values are JSON values, not their Python repr.
    for n, payload in ((2, payload), (1, full_report("twobridge:+,+", 1).to_json())):
        chi = next(c for c in json.loads(json.dumps(payload))["checks"] if c["name"] == "euler characteristic")
        assert chi["expected"] == chi["actual"] == 12 * n


def _opaque_b0(build):
    """build_pieces, with the attaching word of X1's B0 handle made unknown."""

    def patched(knot, n):
        x1, x2 = build(knot, n)
        cycles = tuple(
            dataclasses.replace(vc, word=None) if vc.label() == "B0" else vc
            for vc in x1.factorization.cycles
        )
        return LFPiece("X1", Factorization(cycles, x1.factorization.fiber)), x2

    return patched


def test_failing_slide_is_a_failed_check(monkeypatch):
    # Phase A slides phi(B0) over B0; with B0 opaque the executor rejects
    # the slide, and that reaches the caller as a ScheduleError.
    monkeypatch.setattr(schedules, "build_pieces", _opaque_b0(schedules.build_pieces))
    report = full_report("twobridge:+,+", 1)
    assert not report.passed
    check = next(c for c in report.checks if c.name == "schedule completes")
    assert not check.passed
    assert "cannot slide with opaque handle w00" in check.actual

    with pytest.raises(ScheduleError) as err:
        run_schedule("twobridge:+,+", 1, "X1")
    assert str(err.value) == "cannot slide with opaque handle w00"
    assert err.value.word == err.value.trace.initial["two_handles"][0]["word"]


def test_report_parity_guard():
    # 12n-2 is even for every n: a pure-arithmetic guard on assembly.
    for n in range(1, 8):
        assert (12 * n - 2) % 2 == 0


@pytest.mark.parametrize("spec", ["twobridge:+,+", "twobridge:+,-,+,+", "stallings:m=-7", "stallings:m=3"])
def test_full_report_formats_hashes_and_parses_no_word(monkeypatch, spec):
    # Words stay tuples in memory; only a trace's to_json and from_json
    # spell, hash or parse one, and a report calls neither.  Nor does a
    # report derive the weak cancellations: no trace field holds them.
    def refuse(*args):
        raise AssertionError("a word was spelled, hashed or parsed, or a cancellation tested for weakness")

    functions = {words.word_str, words.parse_word, trace.fnv1a64, complexes.is_isolated, trace.weak_cancellations}
    patched = set()
    for mod in (trace, schedules):
        for name, value in list(vars(mod).items()):
            if callable(value) and value in functions:
                monkeypatch.setattr(mod, name, refuse)
                patched.add(f"{mod.__name__.rpartition('.')[2]}.{name}")
    assert {"trace.word_str", "trace.fnv1a64", "trace.parse_word", "trace.is_isolated",
            "trace.weak_cancellations"} <= patched
    for n in (1, 2, 3):
        report = full_report(spec, n)
        assert report.passed, [c for c in report.checks if not c.passed]
