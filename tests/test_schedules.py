"""End-to-end cancellation schedules and trace replay."""

import copy
import itertools
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from handlecalc import schedules, trace as trace_module
from handlecalc.complexes import MoveError, complex_from_piece, eliminate_letter, relator_solution, slide_words
from handlecalc.factorization import build_pieces
from handlecalc.knots import StallingsKnot, parse_knot_spec
from handlecalc.schedules import ScheduleError, assemble, run_both, run_schedule
from handlecalc.trace import (
    MoveTrace,
    ReplayError,
    complex_digest,
    complex_state,
    execute,
    replay,
    word_digest,
)
from handlecalc.words import handle_letters, parse_word, substitute, word_str


def cancels(trace):
    return [m for m in trace.moves if m.kind == "cancel"]


def _signs(eps):
    return "twobridge:" + ",".join("+" if e > 0 else "-" for e in eps)


def test_trefoil_e1():
    cx, trace = run_schedule("twobridge:+,+", 1, "X1")
    assert cx.counts() == {"zero_handles": 1, "one_handles": 0, "two_handles": 5}
    assert len(cancels(trace)) == 4  # 4g pairs at g=1
    assert trace.certificate == {"one_handles": 0, "two_handles": 5}
    assert not trace.warnings


def test_leftover_handles_trefoil():
    cx, _ = run_schedule("twobridge:+,+", 1, "X1")
    leftovers = sorted(h.label() for h in cx.two_handles)
    assert leftovers == ["B0", "c1", "dF", "phi(B2)", "phi(c1)"]
    # Every surviving known word runs over the connector only.
    for h in cx.two_handles:
        if h.word is not None:
            assert handle_letters(h.word) == set()


def test_stallings_counts():
    for m in (0, 1, -1, 4):
        cx, trace = run_schedule(StallingsKnot(m), 1, "X1")
        assert len(trace.initial["two_handles"]) == 13
        assert cx.counts() == {"zero_handles": 1, "one_handles": 0, "two_handles": 5}
        assert len(cancels(trace)) == 8
        assert not trace.warnings


def test_stallings_cancel_order():
    _, trace = run_schedule(StallingsKnot(2), 1, "X1")
    assert [m.letter for m in cancels(trace)] == [2, 3, 1, 4, 5, 6, 7, 8]


def test_two_bridge_cancel_order_n2():
    _, trace = run_schedule("twobridge:+,-,+,+", 2, "X1")
    # Phase A (a1..a4), chain (a9, a10), then phase C (a5..a8).
    assert [m.letter for m in cancels(trace)] == [1, 2, 3, 4, 9, 10, 5, 6, 7, 8]


def test_genus2_n2_counts():
    cx, trace = run_schedule("twobridge:+,-,+,+", 2, "X1")
    assert cx.counts()["two_handles"] == 11
    assert len(cancels(trace)) == 10


def test_phase_a_isolated_form():
    # After its eliminations, the i-th canceling handle's word is over
    # alpha_0 and alpha_i alone: the schedule records no weak-form warnings.
    for eps in itertools.product((1, -1), repeat=4):
        for piece in ("X1", "X2"):
            _, trace = run_schedule(_signs(eps), 1, piece)
            assert not trace.warnings


def test_opaque_conservation():
    cx, trace = run_schedule("twobridge:+,+", 1, "X1")
    opaque_initial = sum(1 for h in trace.initial["two_handles"] if h["word"] is None)
    opaque_final = sum(1 for h in cx.two_handles if h.word is None)
    assert opaque_initial == opaque_final == 3  # c1, phi(c1), boundary
    # Stallings at n=2: the whole phi image of the chain block stays opaque.
    cx, trace = run_schedule(StallingsKnot(1), 2, "X1")
    opaque_initial = sum(1 for h in trace.initial["two_handles"] if h["word"] is None)
    opaque_final = sum(1 for h in cx.two_handles if h.word is None)
    assert opaque_initial == opaque_final == 6  # 5 phi(c_i) copies + boundary


def test_x2_matches_x1_counts():
    for spec, n in (("twobridge:+,-", 1), ("twobridge:+,+", 3), ("stallings:m=-2", 2)):
        res = run_both(spec, n)
        for piece in ("X1", "X2"):
            assert res[piece][0].counts()["one_handles"] == 0
            assert res[piece][0].counts()["two_handles"] == 6 * n - 1


def _final_bytes(result):
    cx, trace = result
    return json.dumps(trace.to_json(), sort_keys=True), json.dumps(complex_state(cx), sort_keys=True)


_ORACLE_SPECS = [_signs(eps) for k in (1, 2) for eps in itertools.product((1, -1), repeat=2 * k)] + [
    f"stallings:m={m}" for m in range(-3, 4)
]


@pytest.mark.parametrize("spec", _ORACLE_SPECS)
def test_derived_x2_equals_the_full_x2_run(spec):
    # run_both renames X1's result; the full X2 schedule is the oracle.
    for n in (1, 2, 3):
        res = run_both(spec, n)
        assert _final_bytes(res["X2"]) == _final_bytes(run_schedule(spec, n, "X2"))
        x1_handles = {id(h) for h in res["X1"][0].two_handles}
        assert not any(id(h) in x1_handles for h in res["X2"][0].two_handles)


def test_derived_x2_renames_warning_ids(monkeypatch):
    # Every cancel warns, so each warning's handle id must be renamed too.
    monkeypatch.setattr(trace_module, "is_isolated", lambda word, i: False)
    for spec, n in (("twobridge:+,-,+,+", 2), ("stallings:m=-2", 3)):
        res = run_both(spec, n)
        warnings = res["X2"][1].warnings
        assert len(warnings) == len(cancels(res["X2"][1])) > 0
        assert all(" against x2-" in w for w in warnings)
        assert _final_bytes(res["X2"]) == _final_bytes(run_schedule(spec, n, "X2"))


def test_derivation_rejects_an_x2_that_is_not_x1_rotated(monkeypatch):
    def swapped_pieces(knot, n):
        x1, x2 = build_pieces(knot, n)
        cycles = x2.factorization.cycles
        f = replace(x2.factorization, cycles=(cycles[1], cycles[0]) + cycles[2:])
        return x1, replace(x2, factorization=f)

    monkeypatch.setattr(schedules, "build_pieces", swapped_pieces)
    with pytest.raises(ScheduleError, match="renamed and rotated"):
        run_both("twobridge:+,+", 1)


@pytest.mark.parametrize(
    "spec, n, relabel, message",
    [
        pytest.param("twobridge:+,-", 1, None, "is X1 of twobridge:[+],- at n=1", id="other-knot"),
        pytest.param("twobridge:+,+", 2, None, "is X1 of twobridge:[+],[+] at n=2", id="other-n"),
        # Relabelled, it passes the spec check; its initial state still differs.
        pytest.param("twobridge:+,-", 1, "twobridge:+,+", "renamed and rotated", id="other-knot-relabelled"),
    ],
)
def test_derivation_rejects_x1_of_another_run(spec, n, relabel, message):
    cx, trace = run_schedule(spec, n, "X1")
    if relabel is not None:
        trace.knot = relabel
    with pytest.raises(ScheduleError, match=message):
        run_schedule("twobridge:+,+", 1, "X2", x1=(cx, trace))


def test_only_x2_is_derived():
    with pytest.raises(ValueError, match="only X2"):
        run_schedule("twobridge:+,+", 1, "X1", x1=run_schedule("twobridge:+,+", 1, "X1"))


def test_schedule_completeness_sweep():
    # Every fibered sign sequence of length <= 6, n <= 2: zero 1-handles,
    # 6n-1 two-handles.
    for k in (1, 2, 3):
        for eps in itertools.product((1, -1), repeat=2 * k):
            for n in (1, 2):
                cx, _ = run_schedule(_signs(eps), n, "X1")
                assert not cx.one_handles
                assert len(cx.two_handles) == 6 * n - 1


def test_euler_constant_through_schedule():
    cx, trace = run_schedule("twobridge:+,+", 2, "X1")
    assert cx.euler() == 12  # 6n is preserved by every slide/cancel pair
    replayed = replay(trace)
    assert replayed.euler() == 12


def test_assemble_counts():
    res = run_both("twobridge:+,+", 1)
    counts = assemble(res["X1"][0], res["X2"][0], 1)
    assert counts.as_dict() == {"h0": 1, "h1": 0, "h2": 10, "h3": 0, "h4": 1}
    res = run_both("twobridge:+,-", 2)
    assert assemble(res["X1"][0], res["X2"][0], 2).h2 == 22
    res = run_both("twobridge:+,+,+,+", 3)
    assert assemble(res["X1"][0], res["X2"][0], 3).h2 == 34


def test_assemble_rejects_live_one_handles():
    res = run_both("twobridge:+,+", 1)
    bad = res["X1"][0]
    bad.one_handles.add(1)
    with pytest.raises(ScheduleError):
        assemble(bad, res["X2"][0], 1)


def test_run_schedule_rejects_bad_inputs():
    with pytest.raises(Exception):
        run_schedule("conway:2,1", 1, "X1")  # not fibered
    with pytest.raises(ValueError):
        run_schedule("twobridge:+,+", 0, "X1")
    with pytest.raises(ValueError):
        run_schedule("twobridge:+,+", 1, "X3")


def test_trace_json_round_trip_and_replay():
    for spec, n in (("twobridge:+,-,+,+", 2), ("stallings:m=3", 1)):
        cx, trace = run_schedule(spec, n, "X1")
        encoded = json.dumps(trace.to_json(), sort_keys=True)
        decoded = MoveTrace.from_json(json.loads(encoded))
        final = replay(decoded)
        assert complex_digest(final) == trace.final_digest()
        # Determinism: re-running the schedule gives the identical trace JSON.
        _, trace2 = run_schedule(spec, n, "X1")
        assert json.dumps(trace2.to_json(), sort_keys=True) == encoded


def _without(name):
    return lambda doc: {k: v for k, v in doc.items() if k != name}


def _edit_move(**changes):
    """Set fields of the first move; a value of None deletes the field."""

    def mutate(doc):
        move = doc["moves"][0]
        for name, value in changes.items():
            if value is None:
                del move[name]
            else:
                move[name] = value
        return doc

    return mutate


def _set(name, value):
    return lambda doc: {**doc, name: value}


MALFORMED = [
    pytest.param(_without(f), f"required field '{f}'", id=f)
    for f in ("knot", "n", "piece", "initial", "moves", "final", "certificate")
] + [
    pytest.param(lambda doc: [doc], "trace must be an object", id="document-not-object"),
    pytest.param(_set("moves", [7]), "move must be an object", id="move-not-object"),
    pytest.param(_edit_move(kind=None), "required field 'kind'", id="move-lacks-kind"),
    pytest.param(_edit_move(target=None), "required field 'target'", id="move-lacks-target"),
    pytest.param(_edit_move(before=None), "required field 'before'", id="move-lacks-before"),
    pytest.param(_edit_move(after=None), "required field 'after'", id="move-lacks-after"),
    pytest.param(_edit_move(letter="1"), "'letter' must be int", id="letter-not-int"),
    pytest.param(_edit_move(letter=True), "'letter' must be int", id="letter-bool"),
    pytest.param(_edit_move(target=2), "'target' must be str", id="target-not-string"),
    pytest.param(_edit_move(over=["x1-04"]), "'over' must be str", id="over-not-string"),
    pytest.param(_edit_move(after=0), "'after' must be str", id="digest-not-string"),
    pytest.param(_set("n", "1"), "'n' must be int", id="n-not-int"),
    pytest.param(_set("warnings", 5), "'warnings' must be list", id="warnings-not-list"),
    pytest.param(_set("warnings", ["ok", 3]), "'warnings' must be a list of str", id="warnings-not-strings"),
    pytest.param(_set("error", "boom"), "'error' must be dict", id="error-not-object"),
]


@pytest.mark.parametrize("mutate, message", MALFORMED)
def test_trace_missing_field_is_move_error(mutate, message):
    _, trace = run_schedule("twobridge:+,+", 1, "X1")
    doc = mutate(trace.to_json())
    with pytest.raises(MoveError, match=message):
        MoveTrace.from_json(doc)


def test_replay_detects_tampering():
    _, trace = run_schedule("twobridge:+,+", 1, "X1")
    tampered = trace.to_json()
    first_slide = next(m for m in tampered["moves"] if m["kind"] == "slide")
    first_slide["after"] = "0" * 16
    with pytest.raises(ReplayError):
        replay(MoveTrace.from_json(tampered))


def _trefoil_x1():
    """The trefoil's X1 trace document and a fresh copy of its initial complex."""
    _, trace = run_schedule("twobridge:+,+", 1, "X1")
    x1, _ = build_pieces(parse_knot_spec("twobridge:+,+"), 1)
    return trace, trace.to_json(), complex_from_piece(x1)


def _made_up_elimination():
    # An eliminate on the untouched handle x1-02 through the made-up relator
    # a1 a0 a0, before any cancellation freed a1, with a final state that
    # the forged move list does reproduce.
    trace, doc, cx = _trefoil_x1()
    h = cx.handle("x1-02")
    before = word_digest(h.word)
    h.word = eliminate_letter(h.word, parse_word("a1 a0 a0"), 1)
    doc["moves"].insert(0, {"kind": "eliminate", "target": "x1-02", "letter": 1, "relator": "a1 a0 a0",
                            "before": before, "after": word_digest(h.word), "after_word": word_str(h.word)})
    for m in trace.moves:
        execute(cx, m.kind, m.target, m.over, m.letter)
    doc["final"] = complex_state(cx)
    return doc


def _noop_freed_eliminate():
    # Right after the cancel of a1, an eliminate of a1 from the next move's
    # target with no helper, through the relator that cancel freed; the
    # cancel already rewrote a1 away, so the digests do not change.
    trace, doc, cx = _trefoil_x1()
    k = next(k for k, m in enumerate(trace.moves) if m.kind == "cancel" and m.letter == 1)
    for m in trace.moves[: k + 1]:
        execute(cx, m.kind, m.target, m.over, m.letter)
    target = trace.moves[k + 1].target
    word = cx.handle(target).word
    assert 1 not in handle_letters(word)
    digest = word_digest(word)
    doc["moves"].insert(k + 1, {"kind": "eliminate", "target": target, "letter": 1,
                                "relator": trace.moves[k].relator, "before": digest,
                                "after": digest, "after_word": word_str(word)})
    return doc


def _relabelled_knot():
    _, doc, _ = _trefoil_x1()
    doc["knot"] = "twobridge:-,-"
    return doc


def _tampered_after_word():
    _, doc, _ = _trefoil_x1()
    doc["moves"][0]["after_word"] = "a0"
    return doc


def _slide_over_opaque():
    _, doc, _ = _trefoil_x1()
    doc["moves"][0]["over"] = "x1-dF"
    return doc


def _slide_over_itself():
    # The first slide is redone over its own target, which empties the word;
    # the trace stops there with a matching final state.
    _, doc, cx = _trefoil_x1()
    slide = doc["moves"][0]
    slide.update(over=slide["target"], after=word_digest(()), after_word="")
    cx.handle(slide["target"]).word = ()
    doc["moves"], doc["final"] = [slide], complex_state(cx)
    return doc


def _inflated_certificate():
    _, doc, _ = _trefoil_x1()
    doc["certificate"] = {"one_handles": 0, "two_handles": 99}
    return doc


def _no_final_state():
    _, doc, _ = _trefoil_x1()
    doc["final"] = None
    return doc


def _cancel_without_letter():
    _, doc, _ = _trefoil_x1()
    del next(m for m in doc["moves"] if m["kind"] == "cancel")["letter"]
    return doc


def _forged_warning():
    _, doc, _ = _trefoil_x1()
    doc["warnings"] = ["weak cancellation of a1 against x1-00: word 'a0 a1 a2' is not over alpha_0/a1 alone"]
    return doc


def _forged_error():
    _, doc, _ = _trefoil_x1()
    doc["error"] = {"message": "no failure happened", "word": None}
    return doc


def _bad_knot_spec():
    _, doc, _ = _trefoil_x1()
    doc["knot"] = "twobridge:+,x"
    return doc


@pytest.mark.parametrize(
    "forge, message",
    [
        pytest.param(_made_up_elimination, "names no helper", id="made-up-relator"),
        pytest.param(_noop_freed_eliminate, "names no helper", id="noop-freed-eliminate"),
        pytest.param(_relabelled_knot, "initial state", id="relabelled-knot"),
        pytest.param(_tampered_after_word, "after_word", id="tampered-after-word"),
        pytest.param(_slide_over_opaque, "opaque handle x1-dF", id="slide-over-opaque"),
        pytest.param(_slide_over_itself, "over itself", id="slide-over-itself"),
        pytest.param(_inflated_certificate, "certificate", id="inflated-certificate"),
        pytest.param(_no_final_state, "final complex state", id="no-final-state"),
        pytest.param(_bad_knot_spec, "cannot rebuild", id="bad-knot-spec"),
        pytest.param(_cancel_without_letter, "names no letter", id="cancel-without-letter"),
        pytest.param(_forged_warning, "warnings do not match", id="forged-warning"),
        pytest.param(_forged_error, "failed schedule", id="forged-error"),
    ],
)
def test_replay_rejects_forged_trace(forge, message):
    with pytest.raises(ReplayError, match=message):
        replay(MoveTrace.from_json(forge()))


def test_replay_checks_recorded_warnings(monkeypatch):
    # Every cancel warns: the recorded list replays, a shortened one does not.
    monkeypatch.setattr(trace_module, "is_isolated", lambda word, i: False)
    _, trace = run_schedule("twobridge:+,-", 2, "X1")
    doc = trace.to_json()
    assert len(doc["warnings"]) == len(cancels(trace))
    replay(MoveTrace.from_json(doc))
    doc["warnings"].pop()
    with pytest.raises(ReplayError, match="warnings do not match"):
        replay(MoveTrace.from_json(doc))


def test_schedule_error_carries_word_and_trace():
    # Corrupt a piece so the first single-crossing assertion fails.
    from handlecalc import schedules as sched
    from handlecalc.complexes import complex_from_piece
    from handlecalc.factorization import build_pieces

    knot = parse_knot_spec("twobridge:+,+")
    x1, _ = build_pieces(knot, 1)
    cx = complex_from_piece(x1)
    run = sched._Run(cx, knot.spec_str(), 1, "X1")
    target = cx.find("B", 0, phi_image=True)
    target.word = parse_word("a1 a1")  # two crossings: not a cancelling word
    with pytest.raises(ScheduleError) as err:
        run.move("cancel", target, letter=1)
    assert err.value.word == parse_word("a1 a1")
    assert err.value.trace.error["word"] == "a1 a1"


def test_failed_live_letter_check_is_schedule_error(monkeypatch):
    def dead_letter(cx):
        raise MoveError("handle x1-00 uses dead letters [1]")

    monkeypatch.setattr(schedules.HandleComplex, "check_live_letters", dead_letter)
    with pytest.raises(ScheduleError, match="dead letters") as err:
        run_schedule("twobridge:+,+", 1, "X1")
    assert err.value.trace.error == {"message": "handle x1-00 uses dead letters [1]", "word": None}


def test_dead_letter_in_a_final_word_is_recorded(monkeypatch):
    # A survivor that still crosses a cancelled 1-handle fails the final
    # live-letter check, and the trace records its word.
    phase_c = schedules._phase_c

    def phase_c_then_revive_a1(run):
        phase_c(run)
        run.cx.find("B", 0, phi_image=False).word = parse_word("a0' a1")

    monkeypatch.setattr(schedules, "_phase_c", phase_c_then_revive_a1)
    with pytest.raises(ScheduleError, match=r"uses dead letters \[1\]") as err:
        run_schedule("twobridge:+,+", 1, "X1")
    assert err.value.word == parse_word("a0' a1")
    assert err.value.trace.error["word"] == "a0' a1"


_SPECS = st.one_of(
    st.integers(1, 4).flatmap(lambda g: st.lists(st.sampled_from((1, -1)), min_size=2 * g, max_size=2 * g)).map(_signs),
    st.integers(-40, 40).map(lambda m: f"stallings:m={m}"),
)


@settings(max_examples=40, deadline=None)
@given(_SPECS, st.integers(1, 3), st.sampled_from(("X1", "X2")))
def test_no_live_word_mentions_a_cancelled_letter(spec, n, piece):
    # The invariant that lets the schedule record only the moves it makes:
    # after every move, every known word runs over live 1-handles only.
    checked = []

    def checked_execute(cx, *args):
        move = execute(cx, *args)
        cx.check_live_letters()
        checked.append(move)
        return move

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schedules, "execute", checked_execute)
        _, trace = run_schedule(spec, n, piece)
    assert checked == trace.moves


def _eager(ref, kind, target, over, letter, shared_prefix):
    """Apply one move to the reference words, rewriting every survivor at a cancel."""
    if kind == "slide":
        ref[target] = slide_words(ref[target], ref[over], shared_prefix)
    elif kind == "eliminate":
        ref[target] = eliminate_letter(ref[target], ref[over], letter)
    else:
        sign, repl = relator_solution(ref.pop(target), letter)
        for hid, word in ref.items():
            if word is not None:
                ref[hid] = substitute(word, letter, sign, repl)


@settings(max_examples=40, deadline=None)
@given(_SPECS, st.integers(1, 3), st.sampled_from(("X1", "X2")))
def test_lazy_words_equal_eager_rewrites(spec, n, piece):
    # Words are read through the complex's composed elimination table; after
    # every move each one must equal the word that substituting every
    # survivor through each freed relator at once gives.  The words are
    # read from a copy, so the run itself reads only what the schedule reads.
    ref = {}

    def checked_execute(cx, kind, target, over=None, letter=None, shared_prefix=None):
        if not ref:
            ref.update((h.id, h.word) for h in copy.deepcopy(cx).two_handles)
        move = execute(cx, kind, target, over, letter, shared_prefix)
        _eager(ref, kind, target, over, letter, shared_prefix)
        assert {h.id: h.word for h in copy.deepcopy(cx).two_handles} == ref
        return move

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schedules, "execute", checked_execute)
        _, trace = run_schedule(spec, n, piece)
    assert [h["word"] for h in trace.final["two_handles"]] == [
        None if w is None else word_str(w) for w in ref.values()
    ]
