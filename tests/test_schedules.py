"""End-to-end cancellation schedules and trace replay."""

import copy
import hashlib
import itertools
import json
import re
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from handlecalc import factorization, schedules, trace as trace_module
from handlecalc.complexes import (
    MoveError,
    cancel,
    complex_from_piece,
    eliminate_letter,
    relator_solution,
    slide_words,
)
from handlecalc.factorization import build_pieces
from handlecalc.knots import MAX_TWISTS, StallingsKnot, parse_knot_spec
from handlecalc.schedules import ScheduleError, assemble, run_both, run_schedule
from handlecalc.trace import (
    Move,
    MoveTrace,
    ReplayError,
    execute,
    finish,
    replay,
    state_text,
    weak_cancellations,
    word_state,
)
from handlecalc.surfaces import MAX_GENUS, MAX_INDEX, validate_word
from handlecalc.verify import euler_char
from handlecalc.words import handle_letters, parse_word, substitute, word_str


def cancels(trace):
    return [m for m in trace.moves if m.kind == "cancel"]


def _signs(eps):
    return "twobridge:" + ",".join("+" if e > 0 else "-" for e in eps)


def test_trefoil_e1():
    cx, trace = run_schedule("twobridge:+,+", 1, "X1")
    assert cx.counts() == {"zero_handles": 1, "one_handles": 0, "two_handles": 5}
    assert len(cancels(trace)) == 4  # 4g pairs at g=1
    assert (trace.final["one_handles"], len(trace.final["two_handles"])) == ([], 5)
    assert weak_cancellations(trace.moves) == []


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
        assert weak_cancellations(trace.moves) == []


def test_stallings_cancel_order():
    _, trace = run_schedule(StallingsKnot(2), 1, "X1")
    assert [m.letter for m in cancels(trace)] == [2, 3, 1, 4, 5, 6, 7, 8]


def test_stallings_script_slides_each_of_b0_to_b3_once():
    # phi(B_i) slides over B_i for i = 0..3 only: the paper's slide of
    # phi(B_4) over B_4 is erased by B_4's cancel of alpha_5, so it is left out.
    singles = [((f"B{i}", True), (f"B{i}", False)) for i in range(4)]
    doubles = [(("B1", True), ("B2", True)), (("B3", True), ("B2", True))]
    for m in range(-5, 6):
        for n in (1, 2, 3):
            pieces = dict(zip(("X1", "X2"), build_pieces(StallingsKnot(m), n)))
            for _, trace in run_both(StallingsKnot(m), n).values():
                start = complex_from_piece(pieces[trace.piece])
                origin = {h.id: (str(h.origin), h.phi_image) for h in start.two_handles}
                slides = [mv for mv in trace.moves if mv.kind == "slide"]
                assert [(origin[mv.target], origin[mv.over]) for mv in slides if mv.shared_prefix is None] == singles
                assert [(origin[mv.target], origin[mv.over]) for mv in slides if mv.shared_prefix is not None] == doubles


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
    # alpha_0 and alpha_i alone: the schedule makes no weak cancellation.
    for eps in itertools.product((1, -1), repeat=4):
        for piece in ("X1", "X2"):
            _, trace = run_schedule(_signs(eps), 1, piece)
            assert weak_cancellations(trace.moves) == []


def test_opaque_conservation():
    cx, trace = run_schedule("twobridge:+,+", 1, "X1")
    opaque_initial = sum(1 for h in trace.initial["two_handles"] if h["word"] is None)
    opaque_final = sum(1 for h in cx.two_handles if h.word is None)
    assert opaque_initial == opaque_final == 3  # c1, phi(c1), boundary
    # Stallings at n=2: the phi images of the chain block have words too.
    cx, trace = run_schedule(StallingsKnot(1), 2, "X1")
    opaque_initial = sum(1 for h in trace.initial["two_handles"] if h["word"] is None)
    opaque_final = sum(1 for h in cx.two_handles if h.word is None)
    assert opaque_initial == opaque_final == 1  # boundary


def test_x2_matches_x1_counts():
    for spec, n in (("twobridge:+,-", 1), ("twobridge:+,+", 3), ("stallings:m=-2", 2)):
        res = run_both(spec, n)
        for piece in ("X1", "X2"):
            assert res[piece][0].counts()["one_handles"] == 0
            assert res[piece][0].counts()["two_handles"] == 6 * n - 1


def _final_bytes(result):
    cx, trace = result
    return json.dumps(trace.to_json(), sort_keys=True), json.dumps(state_text(word_state(cx)), sort_keys=True)


_ORACLE_SPECS = [_signs(eps) for k in (1, 2) for eps in itertools.product((1, -1), repeat=2 * k)] + [
    f"stallings:m={m}" for m in range(-3, 4)
]


@pytest.mark.parametrize("spec", _ORACLE_SPECS)
def test_derived_x2_equals_the_full_x2_run(spec):
    # run_both rotates X1's result; the full X2 schedule is the oracle.
    for n in (1, 2, 3):
        res = run_both(spec, n)
        assert _final_bytes(res["X2"]) == _final_bytes(run_schedule(spec, n, "X2"))
        x1_handles = {id(h) for h in res["X1"][0].two_handles}
        assert not any(id(h) in x1_handles for h in res["X2"][0].two_handles)


def test_derived_x2_warnings_equal_x1s(monkeypatch):
    # Every cancel is weak, and X2 lists each one as X1 does: the same ids.
    monkeypatch.setattr(trace_module, "is_isolated", lambda word, i: False)
    for spec, n in (("twobridge:+,-,+,+", 2), ("stallings:m=-2", 3)):
        res = run_both(spec, n)
        warnings = weak_cancellations(res["X2"][1].moves)
        assert len(warnings) == len(cancels(res["X2"][1])) > 0
        assert warnings == weak_cancellations(res["X1"][1].moves)
        assert _final_bytes(res["X2"]) == _final_bytes(run_schedule(spec, n, "X2"))


@pytest.mark.parametrize("spec", _ORACLE_SPECS)
def test_x2_is_x1_rotated_under_the_same_ids(spec):
    # X1 and X2 name a handle alike (`p<k>`, `w<k>` or `dF`), so X2's full
    # schedule makes X1's moves, and the derived X2 keeps X1's 2-handles,
    # listed in X2's start order.
    for n in (1, 2, 3):
        res = run_both(spec, n)
        (_, trace1), (cx2, trace2) = res["X1"], res["X2"]
        assert trace2.moves == run_schedule(spec, n, "X2")[1].moves == trace1.moves
        start2 = [h["id"] for h in trace2.initial["two_handles"]]
        final1 = {h["id"]: h for h in trace1.final["two_handles"]}
        assert trace2.final["two_handles"] == [final1[hid] for hid in start2 if hid in final1]
        assert [h.id for h in cx2.two_handles] == [hid for hid in start2 if hid in final1]
        half = (len(start2) - 1) // 2
        assert start2 == [f"w{k:02d}" for k in range(half)] + [f"p{k:02d}" for k in range(half)] + ["dF"]
        ids = {h["id"] for h in trace1.initial["two_handles"]}
        assert ids == set(start2)
        assert {m.target for m in trace1.moves} | {m.over for m in trace1.moves if m.over} <= ids


def test_derivation_rejects_an_x2_that_is_not_x1_rotated(monkeypatch):
    def swapped_pieces(knot, n):
        x1, x2 = build_pieces(knot, n)
        cycles = x2.factorization.cycles
        f = replace(x2.factorization, cycles=(cycles[1], cycles[0]) + cycles[2:])
        return x1, replace(x2, factorization=f)

    monkeypatch.setattr(schedules, "build_pieces", swapped_pieces)
    with pytest.raises(ScheduleError, match="rotated, is not X2's"):
        run_both("twobridge:+,+", 1)


@pytest.mark.parametrize(
    "spec, n, relabel, message",
    [
        pytest.param("twobridge:+,-", 1, None, "is X1 of twobridge:[+],- at n=1", id="other-knot"),
        pytest.param("twobridge:+,+", 2, None, "is X1 of twobridge:[+],[+] at n=2", id="other-n"),
        # Relabelled, it passes the spec check; its initial state still differs.
        pytest.param("twobridge:+,-", 1, "twobridge:+,+", "rotated, is not X2's", id="other-knot-relabelled"),
    ],
)
def test_derivation_rejects_x1_of_another_run(spec, n, relabel, message):
    _, trace = run_schedule(spec, n, "X1")
    if relabel is not None:
        trace.knot = relabel
    with pytest.raises(ScheduleError, match=message):
        run_schedule("twobridge:+,+", 1, "X2", x1=trace)


def test_derivation_refuses_a_partial_x1_trace(monkeypatch):
    # The partial trace of a failed X1 run has no final state to rotate.
    def dead_letter(cx):
        raise MoveError("handle p00 uses dead letters [1]")

    with monkeypatch.context() as mp:
        mp.setattr(schedules.HandleComplex, "check_live_letters", dead_letter)
        with pytest.raises(ScheduleError) as err:
            run_schedule("twobridge:+,+", 1, "X1")
    partial = err.value.trace
    assert partial.final is None and partial.moves
    with pytest.raises(ScheduleError, match="its trace is partial"):
        run_schedule("twobridge:+,+", 1, "X2", x1=partial)


@pytest.mark.parametrize("spec", ["twobridge:+,-", "twobridge:+,+,-,+", "stallings:m=-2", "stallings:m=3"])
def test_derived_x2_builds_one_complex(monkeypatch, spec):
    # The derivation builds no start complex: X1's comes from its trace and
    # X2's state from its piece.  Its one complex is the result.
    built = []

    class Counting(trace_module.HandleComplex):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    x1 = {n: run_schedule(spec, n, "X1")[1] for n in (1, 2, 3)}
    monkeypatch.setattr(schedules, "complex_from_piece", lambda piece: built.append(piece.which))
    monkeypatch.setattr(trace_module, "HandleComplex", Counting)
    for n in (1, 2, 3):
        built.clear()
        cx, _ = run_schedule(spec, n, "X2", x1=x1[n])
        assert built == [cx]


def test_only_x2_is_derived():
    with pytest.raises(ValueError, match="only X2"):
        run_schedule("twobridge:+,+", 1, "X1", x1=run_schedule("twobridge:+,+", 1, "X1")[1])


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
    assert euler_char(cx.counts().values()) == 12  # 6n is preserved by every slide/cancel pair
    replayed = replay(trace)
    assert euler_char(replayed.counts().values()) == 12


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


def test_assemble_requires_12n_minus_2_two_handles():
    # Both pieces of n = 2 keep 22 2-handles: assembled as n = 1 or n = 3
    # they hold the wrong number.
    res = run_both("twobridge:+,-", 2)
    for n in (1, 3):
        with pytest.raises(ScheduleError, match=rf"assembled 2-handle count 22 != 12n-2 = {12 * n - 2}$"):
            assemble(res["X1"][0], res["X2"][0], n)


def test_run_schedule_rejects_bad_inputs():
    with pytest.raises(Exception):
        run_schedule("conway:3,2", 1, "X1")  # 5_2, not fibered
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
        assert word_state(final) == trace.final == decoded.final
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


def _edit_initial(**changes):
    """Set fields of the initial summary; a value of None deletes the field."""

    def mutate(doc):
        for name, value in changes.items():
            if value is None:
                del doc["initial"][name]
            else:
                doc["initial"][name] = value
        return doc

    return mutate


def _set(name, value):
    return lambda doc: {**doc, name: value}


def _edit_final(**changes):
    """Set fields of the final state."""

    def mutate(doc):
        doc["final"].update(changes)
        return doc

    return mutate


def _edit_final_handle(**changes):
    """Set fields of the final state's first 2-handle."""

    def mutate(doc):
        doc["final"]["two_handles"][0].update(changes)
        return doc

    return mutate


def _without_final_handle(name):
    """Delete a field of the final state's first 2-handle."""

    def mutate(doc):
        del doc["final"]["two_handles"][0][name]
        return doc

    return mutate


MALFORMED = [
    pytest.param(_without(f), f"required field '{f}'", id=f)
    for f in ("knot", "n", "piece", "initial", "moves", "final")
] + [
    # A trace document states each fact once: the handlecalc/3 keys
    # that repeated the final counts, the weak cancellations of the moves
    # or a ScheduleError's message are unknown fields, whatever they hold.
    pytest.param(_set("certificate", {"one_handles": 0, "two_handles": 5}),
                 "trace has unknown field\\(s\\) 'certificate'", id="carries-certificate"),
    pytest.param(_set("warnings", 5), "trace has unknown field\\(s\\) 'warnings'", id="warnings-not-list"),
    pytest.param(_set("warnings", ["ok", 3]), "trace has unknown field\\(s\\) 'warnings'", id="warnings-not-strings"),
    pytest.param(_set("error", "boom"), "trace has unknown field\\(s\\) 'error'", id="error-not-object"),
    pytest.param(_set("final", None), "'final' must be dict, got None", id="null-final"),
    pytest.param(lambda doc: [doc], "trace must be an object", id="document-not-object"),
    pytest.param(_set("moves", [7]), "move 0 must be an object, got int", id="move-not-object"),
    pytest.param(_edit_move(kind=None), "required field 'kind'", id="move-lacks-kind"),
    pytest.param(_edit_move(target=None), "required field 'target'", id="move-lacks-target"),
    pytest.param(_edit_initial(digest=None), "initial lacks required field 'digest'", id="initial-lacks-digest"),
    pytest.param(_edit_move(letter="1"), "'letter' must be int", id="letter-not-int"),
    pytest.param(_edit_move(letter=True), "'letter' must be int", id="letter-bool"),
    pytest.param(_edit_move(target=2), "'target' must be str", id="target-not-string"),
    pytest.param(_edit_move(over=["w00"]), "'over' must be str", id="over-not-string"),
    pytest.param(_set("n", "1"), "'n' must be int", id="n-not-int"),
    pytest.param(_set("comment", "ok"), "trace has unknown field\\(s\\) 'comment'", id="extra-top-level-key"),
    pytest.param(_edit_move(after="0" * 16), "move 0 has unknown field\\(s\\) 'after'", id="move-carries-after"),
    # The handlecalc/3 final state's constant flag, which no state holds now.
    pytest.param(_edit_final(four_handle_pending=False), "final has unknown field\\(s\\) 'four_handle_pending'",
                 id="four-handle-pending-in-final"),
    pytest.param(_edit_final_handle(digest="0" * 16), "final 2-handle 0 has unknown field\\(s\\) 'digest'",
                 id="final-handle-carries-digest"),
    # A word field that spells no word is refused when read, naming the move and the field.
    pytest.param(_edit_move(relator="a01"), "move 0: bad word token: 'a01' .* in field 'relator'", id="bad-relator-token"),
    pytest.param(_edit_move(after_word="a2 a1''"), "move 0: bad word token: \"a1''\" in field 'after_word'",
                 id="bad-after-word-token"),
    # An index of 5000 digits, past what Python's int reads from text.
    pytest.param(_edit_move(shared_prefix="a" + "9" * 5000), "move 0: bad word token", id="huge-prefix-token"),
    pytest.param(_edit_final_handle(word="a0  a1"), "final 2-handle 0: bad word token: '' in field 'word'",
                 id="final-word-double-space"),
    pytest.param(_edit_final_handle(word=7), "final 2-handle 0 field 'word' must be str", id="final-word-not-string"),
    # Every field of the final state is typed when read, not left for replay to refuse.
    pytest.param(_edit_final(one_handles="none"), "final field 'one_handles' must be list, got 'none'",
                 id="final-one-handles-not-list"),
    # An opaque 2-handle's word is null, never left out.
    pytest.param(_without_final_handle("word"), "final 2-handle 0 lacks required field 'word'",
                 id="final-handle-lacks-word"),
    # The handlecalc/5 fields that the rebuilt complex restates are unknown fields, whatever they hold.
    pytest.param(_edit_final(surface={"g": 1, "n": 1}), "final has unknown field\\(s\\) 'surface'",
                 id="final-carries-surface"),
    pytest.param(_edit_final(zero_handles=1), "final has unknown field\\(s\\) 'zero_handles'",
                 id="final-carries-zero-handles"),
    pytest.param(_edit_final_handle(origin="B0"), "final 2-handle 0 has unknown field\\(s\\) 'origin'",
                 id="final-handle-carries-origin"),
    pytest.param(_edit_final_handle(phi=True), "final 2-handle 0 has unknown field\\(s\\) 'phi'",
                 id="final-handle-carries-phi"),
    pytest.param(_edit_final_handle(framing="fiber-1"), "final 2-handle 0 has unknown field\\(s\\) 'framing'",
                 id="final-handle-carries-framing"),
]


@pytest.mark.parametrize("mutate, message", MALFORMED)
def test_trace_missing_field_is_move_error(mutate, message):
    _, trace = run_schedule("twobridge:+,+", 1, "X1")
    doc = mutate(trace.to_json())
    with pytest.raises(MoveError, match=message):
        MoveTrace.from_json(doc)


def test_each_trace_record_is_declared_once():
    # A trace record's fields, their order and their JSON types are its
    # table in `trace`: the writers write exactly those keys in that order,
    # the dataclasses hold the same fields, and the reader takes it back.
    docs = [run_schedule(spec, 2, "X1")[1].to_json() for spec in ("twobridge:+,-", "stallings:m=3")]
    for doc in docs:
        assert list(doc) == ["schema", *trace_module._TRACE_FIELDS]
        assert list(doc["initial"]) == list(trace_module._SUMMARY_FIELDS)
        for m in doc["moves"]:
            assert list(m) == [name for name in trace_module._MOVE_FIELDS if name in m]
        assert list(doc["final"]) == list(trace_module._STATE_FIELDS)
        for h in doc["final"]["two_handles"]:
            assert list(h) == list(trace_module._HANDLE_FIELDS)
        assert MoveTrace.from_json(doc).to_json() == doc
    assert {name for doc in docs for m in doc["moves"] for name in m} == set(trace_module._MOVE_FIELDS)
    assert [f.name for f in fields(Move) if f.name != "before_word"] == list(trace_module._MOVE_FIELDS)
    assert [f.name for f in fields(MoveTrace)] == list(trace_module._TRACE_FIELDS)


def test_an_opaque_handle_round_trips_with_a_null_word():
    _, trace = run_schedule("twobridge:+,+", 1, "X1")
    doc = json.loads(json.dumps(trace.to_json()))
    opaque = [k for k, h in enumerate(doc["final"]["two_handles"]) if h["word"] is None]
    assert opaque
    parsed = MoveTrace.from_json(doc)
    assert all(parsed.final["two_handles"][k]["word"] is None for k in opaque)
    assert parsed.to_json() == doc


def test_replay_detects_tampering():
    # A move records no digest: one that carries a `before`
    # key, forged or not, is refused when the document is read.
    _, trace = run_schedule("twobridge:+,+", 1, "X1")
    tampered = trace.to_json()
    k, first_slide = next((k, m) for k, m in enumerate(tampered["moves"]) if m["kind"] == "slide")
    first_slide["before"] = "0" * 16
    with pytest.raises(MoveError, match=rf"move {k} has unknown field\(s\) 'before'"):
        replay(MoveTrace.from_json(tampered))


def _trefoil_x1():
    """The trefoil's X1 trace document and a fresh copy of its initial complex."""
    _, trace = run_schedule("twobridge:+,+", 1, "X1")
    x1, _ = build_pieces(parse_knot_spec("twobridge:+,+"), 1)
    return trace, trace.to_json(), complex_from_piece(x1)


def _made_up_elimination():
    # An eliminate on the untouched handle p02 through the made-up relator
    # a1 a0 a0, before any cancellation freed a1, with a final state that
    # the forged move list does reproduce.
    trace, doc, cx = _trefoil_x1()
    h = cx.handle("p02")
    h.word = eliminate_letter(h.word, parse_word("a1 a0 a0"), 1)
    doc["moves"].insert(0, {"kind": "eliminate", "target": "p02", "letter": 1, "relator": "a1 a0 a0",
                            "after_word": word_str(h.word)})
    for m in trace.moves:
        execute(cx, m.kind, m.target, m.over, m.letter)
    doc["final"] = state_text(word_state(cx))
    return doc


def _noop_freed_eliminate():
    # Right after the cancel of a1, an eliminate of a1 from the next move's
    # target with no helper, through the relator that cancel freed; the
    # cancel already rewrote a1 away, so the word does not change.
    trace, doc, cx = _trefoil_x1()
    k = next(k for k, m in enumerate(trace.moves) if m.kind == "cancel" and m.letter == 1)
    for m in trace.moves[: k + 1]:
        execute(cx, m.kind, m.target, m.over, m.letter)
    target = trace.moves[k + 1].target
    word = cx.handle(target).word
    assert 1 not in handle_letters(word)
    doc["moves"].insert(k + 1, {"kind": "eliminate", "target": target, "letter": 1,
                                "relator": word_str(trace.moves[k].relator), "after_word": word_str(word)})
    return doc


def _repeated_eliminate():
    # A K_0 X1 trace with its first eliminate made twice: the second finds
    # no a<letter> left, so it changes no word, and every field still matches.
    doc = run_schedule("stallings:m=0", 1, "X1")[1].to_json()
    k = next(k for k, m in enumerate(doc["moves"]) if m["kind"] == "eliminate")
    doc["moves"].insert(k, dict(doc["moves"][k]))
    return doc


def _relabelled_knot():
    _, doc, _ = _trefoil_x1()
    doc["knot"] = "twobridge:-,-"
    return doc


def _respelled_knot():
    # The same knot, spelled otherwise than the engine writes it.
    _, doc, _ = _trefoil_x1()
    doc["knot"] = "twobridge:+1, +"
    return doc


def _tampered_after_word():
    _, doc, _ = _trefoil_x1()
    doc["moves"][0]["after_word"] = "a0"
    return doc


def _slide_over_opaque():
    _, doc, _ = _trefoil_x1()
    doc["moves"][0]["over"] = "dF"
    return doc


def _slide_over_itself():
    # The first slide is redone over its own target, which empties the word;
    # the trace stops there with a matching final state.
    _, doc, cx = _trefoil_x1()
    slide = doc["moves"][0]
    slide.update(over=slide["target"], after_word="")
    cx.handle(slide["target"]).word = ()
    doc["moves"], doc["final"] = [slide], state_text(word_state(cx))
    return doc


def _no_final_state():
    # A final state that lists no 2-handle.
    _, doc, _ = _trefoil_x1()
    doc["final"] = {**doc["final"], "two_handles": []}
    return doc


def _cancel_without_letter():
    _, doc, _ = _trefoil_x1()
    del next(m for m in doc["moves"] if m["kind"] == "cancel")["letter"]
    return doc


def _unknown_kind():
    # A K_3 X1 trace whose first eliminate has a kind no move has.
    doc = run_schedule("stallings:m=3", 2, "X1")[1].to_json()
    next(m for m in doc["moves"] if m["kind"] == "eliminate")["kind"] = "frobnicate"
    return doc


def _eliminate_without_letter():
    doc = run_schedule("stallings:m=3", 2, "X1")[1].to_json()
    del next(m for m in doc["moves"] if m["kind"] == "eliminate")["letter"]
    return doc


def _bad_knot_spec():
    _, doc, _ = _trefoil_x1()
    doc["knot"] = "twobridge:+,x"
    return doc


def _cut_before_last_cancel(spec, n):
    """An X1 trace without its last cancel, with its final state rewritten
    from an honest replay of the shorter move list."""
    _, trace = run_schedule(spec, n, "X1")
    k = max(k for k, m in enumerate(trace.moves) if m.kind == "cancel")
    moves = trace.moves[:k]
    x1, _ = build_pieces(parse_knot_spec(spec), n)
    cx = complex_from_piece(x1)
    for m in moves:
        execute(cx, m.kind, m.target, m.over, m.letter, m.shared_prefix)
    assert sorted(cx.one_handles) == [trace.moves[k].letter]
    doc = trace.to_json()
    doc["moves"] = [m.to_json() for m in moves]
    doc["final"] = state_text(word_state(cx))
    return doc


@pytest.mark.parametrize(
    "forge, message",
    [
        pytest.param(_made_up_elimination, "names no helper", id="made-up-relator"),
        pytest.param(_noop_freed_eliminate, "names no helper", id="noop-freed-eliminate"),
        pytest.param(_repeated_eliminate, "does not cross a", id="repeated-eliminate"),
        pytest.param(_relabelled_knot, "initial state", id="relabelled-knot"),
        pytest.param(_respelled_knot, "not written as the engine writes it", id="respelled-knot"),
        pytest.param(_tampered_after_word, "after_word", id="tampered-after-word"),
        pytest.param(_slide_over_opaque, "opaque handle dF", id="slide-over-opaque"),
        pytest.param(_slide_over_itself, "over itself", id="slide-over-itself"),
        pytest.param(_no_final_state, "final complex state", id="no-final-state"),
        pytest.param(_bad_knot_spec, "cannot rebuild", id="bad-knot-spec"),
        pytest.param(_cancel_without_letter, "names no letter", id="cancel-without-letter"),
        pytest.param(_eliminate_without_letter, "eliminate on .* names no letter", id="eliminate-without-letter"),
        pytest.param(_unknown_kind, "unknown move kind 'frobnicate'", id="unknown-kind"),
        # a4 and a8 are the letters of the last cancel at g = 1 and g = 2.
        pytest.param(lambda: _cut_before_last_cancel("twobridge:+,-", 1),
                     r"do not finish X1: .*live 1-handles \[4\]", id="cut-before-last-cancel-twobridge"),
        pytest.param(lambda: _cut_before_last_cancel("stallings:m=-2", 2),
                     r"do not finish X1: .*live 1-handles \[8\]", id="cut-before-last-cancel-stallings"),
    ],
)
def test_replay_rejects_forged_trace(forge, message):
    with pytest.raises(ReplayError, match=message):
        replay(MoveTrace.from_json(forge()))


@pytest.mark.parametrize(
    "field, value, message",
    [
        pytest.param("knot", "stallings:m=" + "7" * 5000,
                     "cannot rebuild X1 of 'stallings:m='... (5012 characters)", id="huge-knot-spec"),
        pytest.param("knot", "twobridge:+,+" + " " * 3000,
                     "knot spec 'twobridge:+,'... (3013 characters) is not written", id="padded-knot-spec"),
        pytest.param("piece", "X" * 5000, "unknown piece 'XXXXXXXXXXXX'... (5000 characters)", id="huge-piece"),
    ],
)
def test_replay_errors_quote_file_text_short(field, value, message):
    # A trace file cannot make a replay error as long as it likes.
    _, trace = run_schedule("twobridge:+,+", 1, "X1")
    with pytest.raises(ReplayError) as err:
        replay(MoveTrace.from_json({**trace.to_json(), field: value}))
    assert message in str(err.value) and len(str(err.value)) < 200


def _read_and_replay(mutate, spec="stallings:m=3"):
    """A call that reads the X1 trace of `spec` (K_3) with `mutate` applied, then replays it."""
    def run():
        replay(MoveTrace.from_json(mutate(run_schedule(spec, 1, "X1")[1].to_json())))
    return run


G8 = "twobridge:" + ",".join(["+"] * 16)


def _cancel_off_its_letter():
    """Cancel a1 against X1's phi(B0) at g = 8, whose word of 36 letters does not cross a1."""
    cx = complex_from_piece(build_pieces(parse_knot_spec(G8), 1)[0])
    cancel(cx, 1, cx.find("B", 0, phi_image=True).id)


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(_read_and_replay(_set("n", "7" * 5000)), id="n-not-int"),
        pytest.param(_read_and_replay(_set("n", 10**4000)), id="n-above-the-limit"),
        pytest.param(_read_and_replay(_set("schema", "s" * 5000)), id="schema"),
        pytest.param(_read_and_replay(_edit_move(kind="k" * 5000)), id="move-kind"),
        pytest.param(_read_and_replay(_edit_move(target="t" * 5000)), id="move-target"),
        pytest.param(_read_and_replay(_edit_move(kind="cancel", letter=10**4000)), id="cancel-letter"),
        pytest.param(_read_and_replay(_edit_move(after_word="b" * 5000)), id="word-token"),
        pytest.param(_read_and_replay(_edit_move(shared_prefix=" ".join(["a1"] * 3000))), id="shared-prefix"),
        pytest.param(_read_and_replay(_set("x" * 5000, 1)), id="unknown-field"),
        pytest.param(_read_and_replay(lambda doc: {**doc, **{f"k{i}": 0 for i in range(1000)}}),
                     id="unknown-fields"),
        # The words of the first slide run to 141 and 148 characters.
        pytest.param(_read_and_replay(_edit_move(shared_prefix="a1"), G8), id="prefix-heads-no-word-g8"),
        pytest.param(lambda: relator_solution(parse_word(" ".join(["a1"] * 3000)), 2), id="helper-word"),
        pytest.param(_cancel_off_its_letter, id="cancel-word-g8"),
        pytest.param(lambda: parse_knot_spec("conway:" + ",".join(["9999"] * 512)), id="conway-even-p"),
        pytest.param(lambda: parse_knot_spec("conway:" + ",".join(["9999"] * 510 + ["2", "0"])),
                     id="conway-division-by-zero"),
        pytest.param(lambda: parse_knot_spec("conway:" + ",".join(["1", "0"] * 255 + ["-255"])),
                     id="conway-evaluates-to-0"),
    ],
)
def test_errors_quote_long_input_short(run):
    # However long a field, spec, token or word, the error quotes at most 12
    # characters of it (32 of a field name, and at most 3 names).
    with pytest.raises(ValueError) as err:
        run()
    assert len(str(err.value)) < 200, str(err.value)[:300]


G64 = "twobridge:" + ",".join(["+"] * 128)


def _fresh_x1():
    """X1's initial complex at g = 64 and n = 1: all 256 1-handles are live."""
    return complex_from_piece(build_pieces(parse_knot_spec(G64), 1)[0])


def _dead_letters():
    cx = _fresh_x1()
    cx.one_handles.clear()
    cx.check_live_letters()


@pytest.mark.parametrize(
    "run, message",
    [
        pytest.param(_read_and_replay(_set("moves", []), G64),
                     r"do not finish X1: piece ends with live 1-handles \[1, 2, 3, 4, \.\.\.\] \(256 in all\)",
                     id="finish"),
        pytest.param(lambda: assemble(_fresh_x1(), _fresh_x1(), 1),
                     r"X1 still has 1-handles \[1, 2, 3, 4, \.\.\.\] \(256 in all\)", id="assemble-x1"),
        pytest.param(lambda: assemble(run_schedule(G64, 1, "X1")[0], _fresh_x1(), 1),
                     r"X2 still has 1-handles \[1, 2, 3, 4, \.\.\.\] \(256 in all\)", id="assemble-x2"),
        pytest.param(_dead_letters, r"uses dead letters \[1, 2, 3, 4, \.\.\.\] \(\d+ in all\)",
                     id="check-live-letters"),
    ],
)
def test_errors_quote_handle_lists_short(run, message):
    # At g = 64 a piece has 256 1-handles: an error that lists handles
    # quotes the first 4 and the count, not all of them.
    with pytest.raises((MoveError, ScheduleError), match=message) as err:
        run()
    assert len(str(err.value)) < 200


def test_finish_requires_6n_minus_1_two_handles():
    # A finished X1 at n = 2 keeps 11 2-handles: as a piece at n = 1 or
    # n = 3 it ends with the wrong number.
    cx, trace = run_schedule("twobridge:+,-", 2, "X1")
    assert finish(cx, 2) == trace.final
    for n in (1, 3):
        with pytest.raises(MoveError, match=rf"piece ends with 11 2-handles, expected {6 * n - 1}$"):
            finish(cx, n)


@pytest.mark.parametrize("name", ["letter", "relator"])
def test_weak_cancellations_names_a_cancel_that_lacks_a_field(name):
    # The reader leaves a cancel's letter and relator optional; the query
    # refuses a cancel read back without one, naming the move and the field.
    _, doc, _ = _trefoil_x1()
    k, first_cancel = next((k, m) for k, m in enumerate(doc["moves"]) if m["kind"] == "cancel")
    del first_cancel[name]
    moves = MoveTrace.from_json(doc).moves
    message = f"move {k}: cancel on {first_cancel['target']} lacks field {name!r}"
    with pytest.raises(MoveError, match=f"^{re.escape(message)}$"):
        weak_cancellations(moves)


def test_replay_accepts_weak_cancellations(monkeypatch):
    # Every cancel is weak: the trace, which records no list of them, still
    # replays, and the one query lists each cancel of the file's moves.
    monkeypatch.setattr(trace_module, "is_isolated", lambda word, i: False)
    _, trace = run_schedule("twobridge:+,-", 2, "X1")
    parsed = MoveTrace.from_json(json.loads(json.dumps(trace.to_json())))
    replay(parsed)
    assert len(weak_cancellations(parsed.moves)) == len(cancels(trace)) > 0


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
    assert err.value.trace is run.trace and err.value.trace.final is None


def test_failed_slide_quotes_its_words_short_and_carries_the_whole():
    # At g = 8 the message quotes both words short; the error still carries
    # the target's whole word, which the CLI prints as `offending word:`.
    knot = parse_knot_spec(G8)
    cx = complex_from_piece(build_pieces(knot, 1)[0])
    run = schedules._Run(cx, knot.spec_str(), 1, "X1")
    target, over = cx.find("B", 0, phi_image=True), cx.find("B", 0, phi_image=False)
    word = target.word
    with pytest.raises(ScheduleError, match=r"does not head both words \(\"a0' a1 a0' a\"\.\.\. \(148 characters\)") as err:
        run.move("slide", target, over, shared_prefix=parse_word("a1"))
    assert len(str(err.value)) < 200
    assert err.value.word == word and len(word_str(word)) == 148


def test_failed_live_letter_check_is_schedule_error(monkeypatch):
    def dead_letter(cx):
        raise MoveError("handle p00 uses dead letters [1]")

    monkeypatch.setattr(schedules.HandleComplex, "check_live_letters", dead_letter)
    with pytest.raises(ScheduleError, match="dead letters") as err:
        run_schedule("twobridge:+,+", 1, "X1")
    assert str(err.value) == "handle p00 uses dead letters [1]" and err.value.word is None
    assert err.value.trace.final is None and len(cancels(err.value.trace)) == 4


def test_dead_letter_in_a_final_word_is_recorded(monkeypatch):
    # A survivor that still crosses a cancelled 1-handle fails the final
    # live-letter check, and the error carries its word.
    phase_c = schedules._phase_c

    def phase_c_then_revive_a1(run):
        phase_c(run)
        run.cx.find("B", 0, phi_image=False).word = parse_word("a0' a1")

    monkeypatch.setattr(schedules, "_phase_c", phase_c_then_revive_a1)
    with pytest.raises(ScheduleError, match=r"uses dead letters \[1\]") as err:
        run_schedule("twobridge:+,+", 1, "X1")
    assert err.value.word == parse_word("a0' a1")


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


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.integers(1, 5).flatmap(lambda g: st.lists(st.sampled_from((1, -1)), min_size=2 * g, max_size=2 * g)).map(_signs),
        st.integers(-40, 40).map(lambda m: f"stallings:m={m}"),
    ),
    st.integers(1, 3),
)
def test_every_engine_word_lies_in_its_surface_alphabet(spec, n):
    # The engine writes no letter outside alpha_0..alpha_N; the boundary arc
    # is the word tilde_alpha_word spells, never a letter of its own.
    for piece in build_pieces(parse_knot_spec(spec), n):
        s = piece.factorization.fiber
        for vc in piece.factorization.cycles:
            if vc.word is not None:
                validate_word(vc.word, s)
    for cx, trace in run_both(spec, n).values():
        doc = trace.to_json()
        texts = [m[k] for m in doc["moves"] for k in ("after_word", "relator", "shared_prefix") if m.get(k)]
        texts += [h["word"] for h in doc["final"]["two_handles"] if h["word"] is not None]
        assert texts
        for text in texts:
            validate_word(parse_word(text), cx.surface)


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
    assert [h["word"] for h in trace.final["two_handles"]] == list(ref.values())


def _handlecalc_1_document(trace):
    # The initial complex in full, and `before` and `after` digests per move.
    moves = [{"kind": m.kind, "target": m.target, "before": m.before, **m.to_json(), "after": m.after}
             for m in trace.moves]
    return {**trace.to_json(), "schema": "handlecalc/1", "initial": trace.initial, "moves": moves}


def _handlecalc_2_document(trace):
    # The initial complex as a summary, and a `before` digest per move.
    moves = [{"kind": m.kind, "target": m.target, "before": m.before, **m.to_json()} for m in trace.moves]
    return {**trace.to_json(), "schema": "handlecalc/2", "moves": moves}


def _handlecalc_3_document(trace):
    # The certificate counts, and the constant `four_handle_pending` in the final state.
    doc = trace.to_json()
    return {**doc, "schema": "handlecalc/3", "final": {**doc["final"], "four_handle_pending": False},
            "certificate": {"one_handles": 0, "two_handles": len(doc["final"]["two_handles"])}}


def _handlecalc_4_document(trace):
    # Handle ids per piece, by place in the piece: `x1-00`, ..., `x1-dF`.
    ids = {h["id"]: f"x1-{k:02d}" for k, h in enumerate(trace.initial["two_handles"][:-1])} | {"dF": "x1-dF"}
    doc = trace.to_json()
    moves = [{**m, **{key: ids[m[key]] for key in ("target", "over") if key in m}} for m in doc["moves"]]
    final = {**doc["final"], "two_handles": [{**h, "id": ids[h["id"]]} for h in doc["final"]["two_handles"]]}
    return {**doc, "schema": "handlecalc/4", "moves": moves, "final": final}


def _handlecalc_5_document(trace):
    # Each 2-handle's origin, block flag and framing, and the final surface
    # and 0-handle count, which the rebuilt complex restates.
    x1, _ = build_pieces(parse_knot_spec(trace.knot), trace.n)
    cx = complex_from_piece(x1)
    start = {h.id: h for h in cx.two_handles}

    def state(s):
        handles = [{"id": h["id"], "origin": str(start[h["id"]].origin), "phi": start[h["id"]].phi_image,
                    "word": h["word"], "framing": "0" if h["id"] == "dF" else "fiber-1"} for h in s["two_handles"]]
        return {"surface": {"g": cx.surface.g, "n": cx.surface.n}, "zero_handles": 1, **s, "two_handles": handles}

    canonical = json.dumps(state(state_text(trace.initial)), sort_keys=True, separators=(",", ":"))
    doc = trace.to_json()
    initial = {"digest": "sha256:" + hashlib.sha256(canonical.encode()).hexdigest(), "zero_handles": 1,
               "one_handles": doc["initial"]["one_handles"], "two_handles": doc["initial"]["two_handles"]}
    return {**doc, "schema": "handlecalc/5", "initial": initial, "final": state(doc["final"])}


@pytest.mark.parametrize("old", [pytest.param(_handlecalc_1_document, id="handlecalc-1"),
                                 pytest.param(_handlecalc_2_document, id="handlecalc-2"),
                                 pytest.param(_handlecalc_3_document, id="handlecalc-3"),
                                 pytest.param(_handlecalc_4_document, id="handlecalc-4"),
                                 pytest.param(_handlecalc_5_document, id="handlecalc-5")])
def test_a_handlecalc_1_document_is_refused(old):
    # An older format is refused by name, never read as the current one.
    _, trace = run_schedule("twobridge:+,+", 1, "X1")
    doc = old(trace)
    message = rf"unsupported trace schema '{doc['schema']}': this version reads 'handlecalc/6'"
    with pytest.raises(MoveError, match=message):
        MoveTrace.from_json(doc)


def test_the_file_summarises_the_initial_state_and_leaves_out_after():
    _, trace = run_schedule("stallings:m=-2", 2, "X1")
    doc = trace.to_json()
    assert doc["initial"] == trace_module.state_summary(trace.initial)
    assert doc["initial"]["two_handles"] == len(trace.initial["two_handles"]) == 4 * 2 + 8 * 2 - 3
    assert doc["initial"]["digest"].startswith("sha256:")
    assert not any("after" in m or "before" in m for m in doc["moves"])
    parsed = MoveTrace.from_json(json.loads(json.dumps(doc)))
    assert parsed.initial == doc["initial"] and parsed.moves == trace.moves
    assert [m.after for m in parsed.moves] == [m.after for m in trace.moves]
    assert parsed.to_json() == doc


def test_a_trace_shares_no_container_with_its_document():
    # Changing the document `to_json` wrote, or the one `from_json` read,
    # leaves the trace as it was, so the trace still replays.
    _, trace = run_schedule("twobridge:+,+", 1, "X1")
    written = trace.to_json()
    written["final"]["one_handles"].append(1)
    replay(trace)
    read = trace.to_json()
    parsed = MoveTrace.from_json(read)
    read["final"]["one_handles"].append(1)
    replay(parsed)
    parsed.to_json()["initial"]["digest"] = "sha256:0"
    replay(parsed)


@settings(max_examples=40, deadline=None)
@given(_SPECS, st.integers(1, 3))
def test_both_traces_round_trip_through_json(spec, n):
    # A trace written and read back equals the one in memory move for move
    # (its words parsed), writes the same document again and replays.
    for _, trace in run_both(spec, n).values():
        doc = trace.to_json()
        parsed = MoveTrace.from_json(json.loads(json.dumps(doc)))
        assert len(parsed.moves) == len(trace.moves)
        for got, want in zip(parsed.moves, trace.moves):
            assert got == want
        assert parsed.final == trace.final
        assert parsed.to_json() == doc
        replay(parsed)


@pytest.mark.parametrize("spec", ["twobridge:+,+", "twobridge:+,-,+,+", "stallings:m=-7", "stallings:m=3"])
def test_the_trace_file_path_hashes_no_word(monkeypatch, spec):
    # No trace field holds a word digest, so writing, reading and replaying
    # both traces hash no word.
    def refuse(*args):
        raise AssertionError("a word was hashed")

    monkeypatch.setattr(trace_module, "fnv1a64", refuse)
    monkeypatch.setattr(trace_module, "word_digest", refuse)
    for n in (1, 2, 3):
        for _, trace in run_both(spec, n).values():
            doc = trace.to_json()
            parsed = MoveTrace.from_json(json.loads(json.dumps(doc)))
            assert parsed.to_json() == doc
            replay(parsed)


@pytest.mark.parametrize("spec", _ORACLE_SPECS[:20] + ["stallings:m=-2", "stallings:m=0", "stallings:m=3"])
def test_every_slide_and_eliminate_earns_its_place(spec):
    # Left out of an X1 trace, any one slide or eliminate leaves moves that
    # the executor or the end check refuses, or that finish the piece with a
    # weak cancellation: no move can be dropped at no cost.  The weak
    # cancellations are read from the moves `execute` returns, whose relators
    # are the ones the shorter list produces, not the recorded ones.
    for n in (1, 2):
        _, trace = run_schedule(spec, n, "X1")
        x1, _ = build_pieces(parse_knot_spec(spec), n)
        for k, left_out in enumerate(trace.moves):
            if left_out.kind == "cancel":
                continue
            cx = complex_from_piece(x1)
            try:
                moves = [execute(cx, m.kind, m.target, m.over, m.letter, m.shared_prefix)
                         for m in trace.moves[:k] + trace.moves[k + 1:]]
                finish(cx, n)
            except MoveError:
                continue
            assert weak_cancellations(moves), \
                f"n={n}: the {left_out.kind} of move {k} on {left_out.target} can be left out"


def test_derivation_refuses_an_x1_trace_read_from_a_file():
    # A trace read back holds only a summary of X1's initial state, which the
    # derivation cannot rotate; it must say so rather than fail on a lookup.
    _, trace = run_schedule("twobridge:+,-", 2, "X1")
    parsed = MoveTrace.from_json(json.loads(json.dumps(trace.to_json())))
    with pytest.raises(ScheduleError, match="only a summary of the initial state"):
        run_schedule("twobridge:+,-", 2, "X2", x1=parsed)


def _unreachable(*args, **kwargs):
    raise AssertionError("a word was built for an input above the limits")


@pytest.mark.parametrize(
    "field, value, message",
    [
        pytest.param("knot", "twobridge:" + ",".join("+" * (2 * MAX_GENUS + 2)), f"genus {MAX_GENUS + 1} is above",
                     id="genus"),
        pytest.param("n", MAX_INDEX + 1, f"index {MAX_INDEX + 1} is above", id="n"),
        pytest.param("knot", f"stallings:m={MAX_TWISTS + 1}", f"m={MAX_TWISTS + 1} is above", id="m"),
        pytest.param("knot", f"stallings:m={-MAX_TWISTS - 1}", f"m={-MAX_TWISTS - 1} is above", id="minus-m"),
    ],
)
def test_replay_refuses_inputs_above_the_limits(monkeypatch, field, value, message):
    # The limits hold before any word of the piece is built.
    _, trace = run_schedule("twobridge:+,+", 1, "X1")
    doc = {**trace.to_json(), field: value}
    monkeypatch.setattr(factorization, "build_W", _unreachable)
    monkeypatch.setattr(factorization, "compile_monodromy", _unreachable)
    with pytest.raises(ReplayError, match=f"cannot rebuild X1 .*{message}"):
        replay(MoveTrace.from_json(doc))


def _json_paths(node, path=()):
    """The path to every value below `node`, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


def _variants(value, data):
    """Values near `value`, of its JSON type or another, each different from it.

    A list loses, repeats or swaps elements; an object loses a key.
    """
    if isinstance(value, list):
        i, j = (data.draw(st.integers(0, len(value) - 1)) for _ in range(2)) if value else (0, 0)
        swapped = list(value)
        if value:
            swapped[i], swapped[j] = value[j], value[i]
        out = [value[:i] + value[i + 1:], value[:i + 1] + value[i:], swapped, value + ["x"], {}]
    elif isinstance(value, dict):
        out = [{k: v for k, v in value.items() if k != key} for key in value] + [[]]
    elif isinstance(value, str):
        out = [value + "0", value[:-1], value[::-1], value.upper(), "a1", 0, None]
    elif isinstance(value, int):
        out = [value + 1, value - 1, -value, str(value), None]
    else:
        out = ["a1", 0, {}]
    return [v for v in out if json.dumps(v) != json.dumps(value)]


def _eagerly_certified(doc):
    """Whether the document's moves, made on eagerly rewritten words, give its words.

    An oracle independent of the complex's elimination table: every
    `after_word` and the final words must be those of the eager words,
    and every 1-handle must be cancelled.
    """
    x1, x2 = build_pieces(parse_knot_spec(doc["knot"]), doc["n"])
    cx = complex_from_piece(x1 if doc["piece"] == "X1" else x2)
    ref, live = {h.id: h.word for h in cx.two_handles}, set(cx.one_handles)
    for m in doc["moves"]:
        prefix = parse_word(m["shared_prefix"]) if "shared_prefix" in m else None
        _eager(ref, m["kind"], m["target"], m.get("over"), m.get("letter"), prefix)
        if m["kind"] == "cancel":
            live.remove(m["letter"])
        elif word_str(ref[m["target"]]) != m["after_word"]:
            return False
    final = [(h["id"], h["word"]) for h in doc["final"]["two_handles"]]
    return not live and final == [(hid, None if w is None else word_str(w)) for hid, w in ref.items()]


@settings(max_examples=150, deadline=None)
@given(_SPECS, st.integers(1, 3), st.sampled_from(("X1", "X2")), st.data())
def test_every_single_field_forgery_is_refused(spec, n, piece, data):
    # Any one value of a trace file changed (any field of the document, of
    # its initial summary or final state, of any move; a list losing,
    # repeating or swapping an element; an object losing a key), or one of
    # the handlecalc/3 keys certificate, warnings or error added, ends in
    # ReplayError or MoveError.
    _, trace = run_schedule(spec, n, piece)
    doc = trace.to_json()
    paths = list(_json_paths(doc))
    # Half the draws go to the move list as a whole and to the dropped keys.
    path = data.draw(st.sampled_from(paths)
                     | st.sampled_from([("moves",), ("certificate",), ("warnings",), ("error",)]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if path in paths:
        original = copy.deepcopy(parent[path[-1]])
        value = data.draw(st.sampled_from(_variants(original, data)))
    else:  # absent: a trace holds none of them, whatever the value
        original = None
        value = data.draw(st.sampled_from([[], ["weak cancellation"], [""], {}, None,
                                           {"message": "x", "word": None}, {"one_handles": 0, "two_handles": 5}]))
    parent[path[-1]] = value
    try:
        replay(MoveTrace.from_json(doc))
    except (ReplayError, MoveError):
        return
    # Accepted: only a move list that lost or reordered moves and is still a
    # certificate, such as two cancels of disjoint handles swapped, or a
    # slide whose effect later cancellations erase left out.  The eager
    # oracle must confirm it; anything else is a forgery that got through.
    assert path == ("moves",) and len(value) <= len(original)
    assert _eagerly_certified(doc)
