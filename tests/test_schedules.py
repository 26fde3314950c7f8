"""End-to-end cancellation schedules and trace replay."""

import copy
import itertools
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from handlecalc import factorization, schedules, trace as trace_module
from handlecalc.complexes import MoveError, complex_from_piece, eliminate_letter, relator_solution, slide_words
from handlecalc.factorization import build_pieces
from handlecalc.knots import MAX_TWISTS, StallingsKnot, parse_knot_spec
from handlecalc.schedules import ScheduleError, assemble, run_both, run_schedule
from handlecalc.trace import (
    MoveTrace,
    ReplayError,
    complex_state,
    execute,
    finish,
    replay,
    weak_cancellations,
    word_state,
)
from handlecalc.surfaces import MAX_GENUS, MAX_INDEX, validate_word
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


def test_stallings_script_slides_each_of_b0_to_b3_once():
    # phi(B_i) slides over B_i for i = 0..3 only: the paper's slide of
    # phi(B_4) over B_4 is erased by B_4's cancel of alpha_5, so it is left out.
    singles = [((f"B{i}", True), (f"B{i}", False)) for i in range(4)]
    doubles = [(("B1", True), ("B2", True)), (("B3", True), ("B2", True))]
    for m in range(-5, 6):
        for n in (1, 2, 3):
            for _, trace in run_both(StallingsKnot(m), n).values():
                origin = {h["id"]: (h["origin"], h["phi"]) for h in trace.initial["two_handles"]}
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


@pytest.mark.parametrize("spec", ["twobridge:+,-", "twobridge:+,+,-,+", "stallings:m=-2", "stallings:m=3"])
def test_derived_x2_builds_one_complex(monkeypatch, spec):
    # The derivation builds X2's start complex only; X1's comes from its trace.
    built = []

    def counting(piece):
        built.append(piece.which)
        return complex_from_piece(piece)

    monkeypatch.setattr(schedules, "complex_from_piece", counting)
    for n in (1, 2, 3):
        x1 = run_schedule(spec, n, "X1")
        built.clear()
        run_schedule(spec, n, "X2", x1=x1)
        assert built == ["X2"]


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


def _edit_final_word(value):
    """Set the word of the final state's first 2-handle."""

    def mutate(doc):
        doc["final"]["two_handles"][0]["word"] = value
        return doc

    return mutate


MALFORMED = [
    pytest.param(_without(f), f"required field '{f}'", id=f)
    for f in ("knot", "n", "piece", "initial", "moves", "final", "certificate")
] + [
    pytest.param(lambda doc: [doc], "trace must be an object", id="document-not-object"),
    pytest.param(_set("moves", [7]), "move must be an object", id="move-not-object"),
    pytest.param(_edit_move(kind=None), "required field 'kind'", id="move-lacks-kind"),
    pytest.param(_edit_move(target=None), "required field 'target'", id="move-lacks-target"),
    pytest.param(_edit_initial(digest=None), "'initial' must hold digest", id="initial-lacks-digest"),
    pytest.param(_edit_move(letter="1"), "'letter' must be int", id="letter-not-int"),
    pytest.param(_edit_move(letter=True), "'letter' must be int", id="letter-bool"),
    pytest.param(_edit_move(target=2), "'target' must be str", id="target-not-string"),
    pytest.param(_edit_move(over=["x1-04"]), "'over' must be str", id="over-not-string"),
    pytest.param(_set("n", "1"), "'n' must be int", id="n-not-int"),
    pytest.param(_set("warnings", 5), "'warnings' must be list", id="warnings-not-list"),
    pytest.param(_set("warnings", ["ok", 3]), "'warnings' must be a list of str", id="warnings-not-strings"),
    pytest.param(_set("error", "boom"), "'error' must be dict", id="error-not-object"),
    pytest.param(_set("comment", "ok"), "trace has unknown field\\(s\\) 'comment'", id="extra-top-level-key"),
    pytest.param(_edit_move(after="0" * 16), "move has unknown field\\(s\\) 'after'", id="move-carries-after"),
    # A word field that spells no word is refused when read, naming the move and the field.
    pytest.param(_edit_move(relator="a01"), "move 0: bad word token: 'a01' .* in field 'relator'", id="bad-relator-token"),
    pytest.param(_edit_move(after_word="a2 a1''"), "move 0: bad word token: \"a1''\" in field 'after_word'",
                 id="bad-after-word-token"),
    # An index of 5000 digits, past what Python's int reads from text.
    pytest.param(_edit_move(shared_prefix="a" + "9" * 5000), "move 0: bad word token", id="huge-prefix-token"),
    pytest.param(_edit_final_word("a0  a1"), "final 2-handle 0: bad word token: '' in field 'word'",
                 id="final-word-double-space"),
    pytest.param(_edit_final_word(7), "final 2-handle 0 field 'word' must be str", id="final-word-not-string"),
]


@pytest.mark.parametrize("mutate, message", MALFORMED)
def test_trace_missing_field_is_move_error(mutate, message):
    _, trace = run_schedule("twobridge:+,+", 1, "X1")
    doc = mutate(trace.to_json())
    with pytest.raises(MoveError, match=message):
        MoveTrace.from_json(doc)


def test_replay_detects_tampering():
    # A handlecalc/3 move records no digest: one that carries a `before`
    # key, forged or not, is refused when the document is read.
    _, trace = run_schedule("twobridge:+,+", 1, "X1")
    tampered = trace.to_json()
    k, first_slide = next((k, m) for k, m in enumerate(tampered["moves"]) if m["kind"] == "slide")
    first_slide["before"] = "0" * 16
    with pytest.raises(MoveError, match=rf"move {k}: move has unknown field\(s\) 'before'"):
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
    h.word = eliminate_letter(h.word, parse_word("a1 a0 a0"), 1)
    doc["moves"].insert(0, {"kind": "eliminate", "target": "x1-02", "letter": 1, "relator": "a1 a0 a0",
                            "after_word": word_str(h.word)})
    for m in trace.moves:
        execute(cx, m.kind, m.target, m.over, m.letter)
    doc["final"] = complex_state(cx)
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
    doc["moves"][0]["over"] = "x1-dF"
    return doc


def _slide_over_itself():
    # The first slide is redone over its own target, which empties the word;
    # the trace stops there with a matching final state.
    _, doc, cx = _trefoil_x1()
    slide = doc["moves"][0]
    slide.update(over=slide["target"], after_word="")
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


def _cut_before_last_cancel(spec, n):
    """An X1 trace without its last cancel, with final, certificate and
    warnings rewritten from an honest replay of the shorter move list."""
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
    doc["final"] = complex_state(cx)
    doc["certificate"] = {"one_handles": len(cx.one_handles), "two_handles": len(cx.two_handles)}
    doc["warnings"] = weak_cancellations(moves)
    return doc


@pytest.mark.parametrize(
    "forge, message",
    [
        pytest.param(_made_up_elimination, "names no helper", id="made-up-relator"),
        pytest.param(_noop_freed_eliminate, "names no helper", id="noop-freed-eliminate"),
        pytest.param(_relabelled_knot, "initial state", id="relabelled-knot"),
        pytest.param(_respelled_knot, "not written as the engine writes it", id="respelled-knot"),
        pytest.param(_tampered_after_word, "after_word", id="tampered-after-word"),
        pytest.param(_slide_over_opaque, "opaque handle x1-dF", id="slide-over-opaque"),
        pytest.param(_slide_over_itself, "over itself", id="slide-over-itself"),
        pytest.param(_inflated_certificate, "certificate", id="inflated-certificate"),
        pytest.param(_no_final_state, "final complex state", id="no-final-state"),
        pytest.param(_bad_knot_spec, "cannot rebuild", id="bad-knot-spec"),
        pytest.param(_cancel_without_letter, "names no letter", id="cancel-without-letter"),
        pytest.param(_forged_warning, "warnings do not match", id="forged-warning"),
        pytest.param(_forged_error, "failed schedule", id="forged-error"),
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


@pytest.mark.parametrize("old", [pytest.param(_handlecalc_1_document, id="handlecalc-1"),
                                 pytest.param(_handlecalc_2_document, id="handlecalc-2")])
def test_a_handlecalc_1_document_is_refused(old):
    # An older format is refused by name, never read as the current one.
    _, trace = run_schedule("twobridge:+,+", 1, "X1")
    doc = old(trace)
    message = rf"unsupported trace schema '{doc['schema']}': this version reads 'handlecalc/3'"
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
    # weak-cancellation warning: no move can be dropped at no cost.  The
    # warnings are read from the moves `execute` returns, whose relators are
    # the ones the shorter list produces, not the recorded ones.
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
                _, _, warnings = finish(cx, moves, n)
            except MoveError:
                continue
            assert warnings, f"n={n}: the {left_out.kind} of move {k} on {left_out.target} can be left out"


def test_derivation_refuses_an_x1_trace_read_from_a_file():
    # A trace read back holds only a summary of X1's initial state, which the
    # derivation cannot rename; it must say so rather than fail on a lookup.
    cx, trace = run_schedule("twobridge:+,-", 2, "X1")
    parsed = MoveTrace.from_json(json.loads(json.dumps(trace.to_json())))
    for x1 in ((cx, parsed), (replay(parsed), parsed)):
        with pytest.raises(ScheduleError, match="only a summary of the initial state"):
            run_schedule("twobridge:+,-", 2, "X2", x1=x1)


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
    monkeypatch.setattr(factorization, "stallings_rules", _unreachable)
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
    # its initial summary, final state or certificate, of any move; a list
    # losing, repeating or swapping an element; an object losing a key), or
    # a warning or an error added, ends in ReplayError or MoveError.
    _, trace = run_schedule(spec, n, piece)
    doc = trace.to_json()
    paths = list(_json_paths(doc))
    # Half the draws go to the move list as a whole and to the optional fields.
    path = data.draw(st.sampled_from(paths) | st.sampled_from([("moves",), ("warnings",), ("error",)]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if path in paths:
        original = copy.deepcopy(parent[path[-1]])
        value = data.draw(st.sampled_from(_variants(original, data)))
    else:  # absent: the trace records no warning and no error
        original = None
        value = data.draw(st.sampled_from([["weak cancellation"], [""], {}, {"message": "x", "word": None}]))
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
