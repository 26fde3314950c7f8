"""What replay checks: X2 against the X1 replay just accepted, and a collapse that is not the paper's.

An X2 trace replayed right after its X1 is checked against that replay
rotated, without making a move.  The full replay, with the record of the
X1 replay emptied, is the oracle: the rotated path must give the same
complex, accept the same traces and refuse the others with the same
message.
"""

import json
from dataclasses import FrozenInstanceError, replace

import pytest

from handlecalc import trace as trace_module
from handlecalc.complexes import complex_from_piece, is_isolated, start_handles
from handlecalc.factorization import build_pieces
from handlecalc.knots import parse_knot_spec
from handlecalc.schedules import run_both, run_schedule
from handlecalc.trace import (
    MoveTrace,
    ReplayError,
    execute,
    finish,
    replay,
    state_summary,
    weak_cancellations,
    word_state,
)
from handlecalc.words import cyclic_reduce, handle_letters, handle_occurrences, parse_word

G12 = "twobridge:" + ",".join("+-+"[k % 3] for k in range(24))


def _documents(spec, n):
    """The X1 and X2 trace documents of (spec, n), as `cancel --trace` writes them, read back as JSON."""
    res = run_both(spec, n)
    return [json.loads(json.dumps(res[piece][1].to_json())) for piece in ("X1", "X2")]


def _forget():
    trace_module._accepted_x1 = None


@pytest.fixture
def executed(monkeypatch):
    """The targets of the moves replay makes from here on, one entry per `execute` call."""
    targets = []

    def counting(cx, kind, target, *args):
        targets.append(target)
        return execute(cx, kind, target, *args)

    monkeypatch.setattr(trace_module, "execute", counting)
    _forget()
    yield targets
    _forget()


def _shape(cx):
    """Everything a replayed complex holds: its live 1-handles and its 2-handles, in order."""
    return sorted(cx.one_handles), [(h.id, h.origin, h.phi_image, h.word) for h in cx.two_handles]


def _refusal(doc):
    with pytest.raises(ReplayError) as err:
        replay(MoveTrace.from_json(doc))
    return str(err.value)


@pytest.mark.parametrize("spec, n", [(spec, n) for spec in ("twobridge:+,+", "twobridge:+,-,+,+", "stallings:m=-2",
                                                           "stallings:m=3") for n in (1, 2, 3)] + [(G12, 1)])
def test_x2_replayed_after_its_x1_is_the_full_replay_and_makes_no_move(executed, spec, n):
    doc1, doc2 = _documents(spec, n)
    replay(MoveTrace.from_json(doc1))
    assert executed
    executed.clear()
    rotated = replay(MoveTrace.from_json(doc2))
    assert executed == []
    _forget()
    full = replay(MoveTrace.from_json(doc2))
    assert executed and _shape(rotated) == _shape(full)
    assert not rotated.one_handles and len(rotated.two_handles) == 6 * n - 1
    assert word_state(rotated) == MoveTrace.from_json(doc2).final


def _edit_move(kind, name, change):
    """Change a field of the first move of `kind`."""
    def forge(doc):
        move = next(m for m in doc["moves"] if m["kind"] == kind)
        move[name] = change(move[name])
    return forge


def _reverse_moves(doc):
    doc["moves"].reverse()


def _edit_final_word(doc):
    h = doc["final"]["two_handles"][0]
    h["word"] = f"{h['word'] or ''} a1".strip()


def _swap_final(doc):
    handles = doc["final"]["two_handles"]
    handles[0], handles[1] = handles[1], handles[0]


def _edit_digest(doc):
    doc["initial"]["digest"] = "sha256:" + "0" * 64


def _edit_n(doc):
    doc["n"] += 1


def _respell(doc):
    doc["knot"] = doc["knot"].replace(",", ", ").replace("=", "=+")


# (forgery, whether it keeps X1's moves, so that X2 is checked against X1's replay rotated)
_FORGERIES = [
    pytest.param(_edit_move("slide", "after_word", lambda w: f"{w} a0".strip()), False, id="after-word"),
    pytest.param(_edit_move("cancel", "relator", lambda w: "a0 " + w), False, id="relator"),
    pytest.param(_edit_move("cancel", "letter", lambda i: i + 1), False, id="letter"),
    pytest.param(_reverse_moves, False, id="move-order"),
    pytest.param(_edit_final_word, True, id="final-word"),
    pytest.param(_swap_final, True, id="final-order"),
    pytest.param(_edit_digest, True, id="initial-digest"),
    pytest.param(_edit_n, False, id="n"),
    pytest.param(_respell, False, id="respelled-knot"),
]


@pytest.mark.parametrize("spec, n", [("twobridge:+,-,+,+", 2), ("stallings:m=3", 1)])
@pytest.mark.parametrize("forge, keeps_moves", _FORGERIES)
def test_a_forged_x2_is_refused_with_the_full_replays_message(executed, spec, n, forge, keeps_moves):
    doc1, doc2 = _documents(spec, n)
    forge(doc2)
    replay(MoveTrace.from_json(doc1))
    executed.clear()
    rotated = _refusal(doc2)
    assert executed == [] or not keeps_moves
    _forget()
    assert rotated == _refusal(doc2)


@pytest.mark.parametrize("other", [("twobridge:+,+", 1), ("twobridge:+,-", 2)], ids=["other-knot", "other-n"])
def test_x1s_moves_in_the_x2_of_another_knot_or_n_are_replayed_in_full(executed, other):
    # The X2 of another knot or n that makes X1's moves is no rotation of
    # X1's replay: it is replayed in full, and refused at its first move.
    doc1, _ = _documents("twobridge:+,-", 1)
    _, doc2 = _documents(*other)
    doc2["moves"] = doc1["moves"]
    replay(MoveTrace.from_json(doc1))
    executed.clear()
    rotated = _refusal(doc2)
    assert executed and rotated.startswith("move ")
    _forget()
    assert rotated == _refusal(doc2)


def test_x2_is_rotated_only_where_the_pieces_are(monkeypatch):
    # With X2's first two cycles swapped, X2 is no rotation of X1, so the
    # X1 replay says nothing about it: the full replay refuses its summary.
    doc1, doc2 = _documents("twobridge:+,+", 1)

    def swapped_pieces(knot, n):
        x1, x2 = build_pieces(knot, n)
        cycles = x2.factorization.cycles
        return x1, replace(x2, factorization=replace(x2.factorization, cycles=(cycles[1], cycles[0]) + cycles[2:]))

    monkeypatch.setattr(trace_module, "build_pieces", swapped_pieces)
    replay(MoveTrace.from_json(doc1))
    with pytest.raises(ReplayError, match="initial state is not that of X2"):
        replay(MoveTrace.from_json(doc2))


def test_replay_refuses_a_km_document_whose_phi_c_words_are_null():
    # Before K_m had a compiled table its phi(c) handles at n >= 2 were
    # opaque.  Such a document makes the same moves, but its initial digest
    # is taken over a start state with those words null, which is not the
    # state the rebuilt piece starts from.
    spec = "stallings:m=3"
    x1, _ = build_pieces(parse_knot_spec(spec), 2)
    phi_c = {hid for hid, curve, phi_image, _ in start_handles(x1) if phi_image and curve.family == "c"}
    assert len(phi_c) == 5
    start = word_state(complex_from_piece(x1))
    for h in start["two_handles"]:
        h["word"] = None if h["id"] in phi_c else h["word"]
    doc = _documents(spec, 2)[0]
    doc["initial"] = state_summary(start)
    for h in doc["final"]["two_handles"]:
        h["word"] = None if h["id"] in phi_c else h["word"]
    with pytest.raises(ReplayError, match=r"initial state is not that of X1 of 'stallings:m='\.\.\. \(13 characters\) at n=2"):
        replay(MoveTrace.from_json(doc))


def test_only_an_accepted_x1_replay_fills_the_record(fresh_memos):
    doc1, doc2 = _documents("twobridge:+,-", 2)
    run_both("twobridge:+,-", 2)
    run_schedule("twobridge:+,-", 2, "X1")
    assert trace_module._accepted_x1 is None
    forged = json.loads(json.dumps(doc1))
    _swap_final(forged)
    for _ in range(2):  # a failed X1 replay empties the record, filled or not
        assert _refusal(forged) == "final complex state mismatch"
        assert trace_module._accepted_x1 is None
        replay(MoveTrace.from_json(doc1))
        assert trace_module._accepted_x1 is not None
    replay(MoveTrace.from_json(doc2))
    assert trace_module._accepted_x1 is not None


def test_another_x1_replayed_in_between_sends_x2_to_the_full_replay(executed):
    doc1, doc2 = _documents("twobridge:+,-", 2)
    other, _ = _documents("twobridge:+,+", 2)
    replay(MoveTrace.from_json(doc1))
    replay(MoveTrace.from_json(other))
    executed.clear()
    replay(MoveTrace.from_json(doc2))
    assert executed


def test_changing_the_x1_trace_after_its_replay_changes_nothing_the_record_holds(executed):
    # The record holds X1's moves as frozen values: the accepted trace can
    # change its list afterwards, and an X2 that makes the changed moves
    # is replayed in full and refused as in full.
    spec, n = "stallings:m=3", 2
    doc1, doc2 = _documents(spec, n)
    trace1 = MoveTrace.from_json(doc1)
    replay(trace1)
    k = next(k for k, m in enumerate(trace1.moves) if m.kind == "slide")
    with pytest.raises(FrozenInstanceError):
        trace1.moves[k].after_word = parse_word("a0")
    trace1.moves[k] = replace(trace1.moves[k], after_word=parse_word("a0"))
    forged = MoveTrace.from_json(doc2)
    forged.moves = list(trace1.moves)
    executed.clear()
    with pytest.raises(ReplayError, match=f"move {k}: slide on .* does not reproduce its after_word") as err:
        replay(forged)
    assert executed
    _forget()
    with pytest.raises(ReplayError) as full:
        replay(forged)
    assert str(err.value) == str(full.value)


def _cancels_only(spec, n, isolated):
    """X1's trace under a schedule of cancels alone, found greedily, or None where it sticks.

    It cancels, over and over, the first non-opaque 2-handle whose word,
    cyclically reduced, crosses a live letter once (that letter alone, if
    `isolated`), at the lowest such letter.  An instrument, not the paper's
    schedule: it has no slide, and it tries one order only.
    """
    knot = parse_knot_spec(spec)
    cx = complex_from_piece(build_pieces(knot, n)[0])
    trace = MoveTrace(knot.spec_str(), n, "X1", word_state(cx))
    while cx.one_handles:
        for h in cx.two_handles:
            w = () if h.word is None else cyclic_reduce(h.word)
            once = [i for i in sorted(handle_letters(w) & cx.one_handles)
                    if handle_occurrences(w, i) == 1 and (is_isolated(w, i) or not isolated)]
            if once:
                trace.moves.append(execute(cx, "cancel", h.id, letter=once[0]))
                break
        else:
            return None
    trace.final = finish(cx, n)
    return trace


@pytest.mark.parametrize("spec, isolated", [("twobridge:+,+", True), ("stallings:m=3", False)])
def test_a_trace_certifies_a_collapse_not_the_papers_schedule(spec, isolated):
    # A trace file certifies a legal collapse of the rebuilt piece at the
    # level of the fundamental group, not the paper's schedule: cancels
    # alone, with no slide, finish the piece and replay from their file,
    # isolated for the trefoil and weak for K_3.  Requiring the paper's own
    # moves would make the file a cache of the schedule.
    trace = _cancels_only(spec, 2, isolated)
    assert trace is not None and {m.kind for m in trace.moves} == {"cancel"}
    read = MoveTrace.from_json(json.loads(json.dumps(trace.to_json())))
    assert word_state(replay(read)) == trace.final
    assert bool(weak_cancellations(read.moves)) is not isolated
