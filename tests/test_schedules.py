"""End-to-end cancellation schedules and trace replay."""

import itertools
import json

import pytest

from handlecalc.complexes import MoveError, complex_from_piece, eliminate_letter
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
from handlecalc.words import handle_letters, parse_word, word_str


def cancels(trace):
    return [m for m in trace.moves if m.kind == "cancel"]


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
        spec = "twobridge:" + ",".join("+" if e > 0 else "-" for e in eps)
        for piece in ("X1", "X2"):
            _, trace = run_schedule(spec, 1, piece)
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


def test_schedule_completeness_sweep():
    # Every fibered sign sequence of length <= 6, n <= 2: zero 1-handles,
    # 6n-1 two-handles.
    for k in (1, 2, 3):
        for eps in itertools.product((1, -1), repeat=2 * k):
            spec = "twobridge:" + ",".join("+" if e > 0 else "-" for e in eps)
            for n in (1, 2):
                cx, _ = run_schedule(spec, n, "X1")
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


def _bad_knot_spec():
    _, doc, _ = _trefoil_x1()
    doc["knot"] = "twobridge:+,x"
    return doc


@pytest.mark.parametrize(
    "forge, message",
    [
        pytest.param(_made_up_elimination, "no freed relator", id="made-up-relator"),
        pytest.param(_relabelled_knot, "initial state", id="relabelled-knot"),
        pytest.param(_tampered_after_word, "after_word", id="tampered-after-word"),
        pytest.param(_slide_over_opaque, "opaque handle x1-dF", id="slide-over-opaque"),
        pytest.param(_slide_over_itself, "over itself", id="slide-over-itself"),
        pytest.param(_inflated_certificate, "certificate", id="inflated-certificate"),
        pytest.param(_no_final_state, "final complex state", id="no-final-state"),
        pytest.param(_bad_knot_spec, "cannot rebuild", id="bad-knot-spec"),
    ],
)
def test_replay_rejects_forged_trace(forge, message):
    with pytest.raises(ReplayError, match=message):
        replay(MoveTrace.from_json(forge()))


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
        run.assert_and_cancel(1, target)
    assert err.value.word == parse_word("a1 a1")
    assert err.value.trace.error["word"] == "a1 a1"
