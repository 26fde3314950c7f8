"""Verification reports: Euler characteristic, rule suites, full certificates."""

import dataclasses
import itertools
import json

import pytest

from handlecalc import schedules, trace, words
from handlecalc.factorization import Factorization, LFPiece
from handlecalc.schedules import ScheduleError, run_schedule
from handlecalc.verify import (
    check_twist_image_closure,
    check_monodromy_invertible,
    euler_char,
    full_report,
)


def test_euler_char_examples():
    assert euler_char((1, 0, 10, 0, 1)) == 12
    assert euler_char((1, 0, 22, 0, 1)) == 24
    # piece-level counts at (g, n): 1 - (4g+2n-2) + (4g+8n-3) = 6n
    for g in (1, 2, 4):
        for n in (1, 2, 3):
            assert euler_char((1, 4 * g + 2 * n - 2, 4 * g + 8 * n - 3)) == 6 * n


def test_image_closure_suite_sign_cases():
    report = check_twist_image_closure((1, 1))
    assert report.passed
    report = check_twist_image_closure((-1, -1))
    assert report.passed


def test_image_closure_suite_exhaustive_length4():
    for eps in itertools.product((1, -1), repeat=4):
        assert check_twist_image_closure(eps).passed


def test_invertibility():
    assert check_monodromy_invertible((1, -1)).passed
    assert check_monodromy_invertible((1, 1, -1, 1)).passed
    # empty spec round trip is trivially fine at the word level
    from handlecalc.surfaces import FiberSurface
    from handlecalc.twists import MonodromySpec, compile_monodromy
    from handlecalc.words import alpha

    assert compile_monodromy(MonodromySpec(()), FiberSurface(1, 1)).apply((alpha(0),)) == (alpha(0),)


def test_invertibility_suite_round_trips_the_piece_monodromy():
    # The suite certifies the table build_pieces compiles, not the fibration order.
    assert check_monodromy_invertible((1, -1)).knot == "piece:+,-"
    assert check_monodromy_invertible((1, 1, -1, 1)).knot == "piece:+,+,-,+"


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
    assert payload["schema"] == "handlecalc/3"
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
    assert "cannot slide with opaque handle x1-04" in check.actual

    with pytest.raises(ScheduleError) as err:
        run_schedule("twobridge:+,+", 1, "X1")
    assert err.value.trace.error["message"] == "cannot slide with opaque handle x1-04"
    assert err.value.trace.error["word"] == words.word_str(err.value.trace.initial["two_handles"][0]["word"])


def test_report_parity_guard():
    # 12n-2 is even for every n: a pure-arithmetic guard on assembly.
    for n in range(1, 8):
        assert (12 * n - 2) % 2 == 0


@pytest.mark.parametrize("spec", ["twobridge:+,+", "twobridge:+,-,+,+", "stallings:m=-7", "stallings:m=3"])
def test_full_report_formats_hashes_and_parses_no_word(monkeypatch, spec):
    # Words stay tuples in memory; only a trace's to_json and from_json
    # spell, hash or parse one, and a report calls neither.
    def refuse(*args):
        raise AssertionError("a word was spelled, hashed or parsed")

    functions = {words.word_str, words.parse_word, trace.fnv1a64}
    patched = set()
    for mod in (trace, schedules):
        for name, value in list(vars(mod).items()):
            if callable(value) and value in functions:
                monkeypatch.setattr(mod, name, refuse)
                patched.add(f"{mod.__name__.rpartition('.')[2]}.{name}")
    assert {"trace.word_str", "trace.fnv1a64", "trace.parse_word", "schedules.word_str"} <= patched
    for n in (1, 2, 3):
        report = full_report(spec, n)
        assert report.passed, [c for c in report.checks if not c.passed]
