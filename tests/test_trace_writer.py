"""What the trace writer writes: X2's document from the X1 document just written.

`MoveTrace.to_json` of a finished X1 trace keeps a record of the
document, and an X2 trace that is its rotation is written from it.  The
oracle is X2's document written with that record empty, spelled from its
own state: the two must be equal as text, and the record must be used
only where the moves and both states match.
"""

import hashlib
import json
import random
from dataclasses import replace

import pytest

from handlecalc import trace as trace_module
from handlecalc.cli import main
from handlecalc.schedules import run_both
from handlecalc.trace import Move

GENUS_3 = "twobridge:" + ",".join(random.Random(3).choice("+-") for _ in range(6))
CASES = [("twobridge:+,+", n) for n in (1, 2, 3)] + [(GENUS_3, 2)]
CASES += [(f"stallings:m={m}", 2) for m in (-3, 0, 7)]

#: SHA-256 of the file `handlecalc cancel --all-fibered --max-k 2 --trace FILE` writes,
#: as spelled before X2 was written by rotation.
ALL_FIBERED_K2 = "fdb920abe5d42b81bab0911be04c86afced31844fce3450c80a157f07660c413"


@pytest.fixture
def spelled(monkeypatch):
    """The list of moves spelled by `Move.to_json` from now on."""
    calls = []
    original = Move.to_json

    def counted(move):
        calls.append(move)
        return original(move)

    monkeypatch.setattr(Move, "to_json", counted)
    return calls


def _own_text(trace):
    """The trace's document as `json.dumps` text, spelled from its own state: the writer's record emptied first."""
    trace_module._written_x1 = None
    return json.dumps(trace.to_json())


@pytest.mark.parametrize("spec, n", CASES)
def test_x2_written_after_x1_is_x2_spelled_alone(spec, n, spelled, fresh_memos):
    x1, x2 = (run_both(spec, n)[piece][1] for piece in ("X1", "X2"))
    expected = _own_text(x2)
    assert len(spelled) == len(x2.moves)
    x1.to_json()
    del spelled[:]
    assert json.dumps(x2.to_json()) == expected
    assert spelled == []  # written from the record: no move spelled again


def _changed_final(x2):
    final = {**x2.final, "two_handles": [dict(h) for h in x2.final["two_handles"]]}
    final["two_handles"][0]["word"] = final["two_handles"][0]["word"] + (1,)
    return replace(x2, final=final)


def _changed_initial(x2):
    initial = {**x2.initial, "two_handles": [dict(h) for h in x2.initial["two_handles"]]}
    initial["two_handles"][0]["word"] = initial["two_handles"][0]["word"][:-1]
    return replace(x2, initial=initial)


@pytest.mark.parametrize("change", [
    pytest.param(lambda x2: run_both("twobridge:+,-,+,+", 2)["X2"][1], id="another-n"),
    pytest.param(lambda x2: replace(x2, n=2), id="same-moves-another-n"),
    pytest.param(lambda x2: replace(x2, knot="twobridge:-,+,-,-"), id="same-moves-another-knot"),
    pytest.param(_changed_final, id="final-word-changed"),
    pytest.param(_changed_initial, id="initial-word-changed"),
    pytest.param(lambda x2: replace(x2, moves=x2.moves[:-1]), id="moves-shortened"),
])
def test_x2_that_is_no_rotation_of_x1_is_spelled_from_its_own_state(change, spelled, fresh_memos):
    x1, x2 = (run_both("twobridge:+,-,+,+", 1)[piece][1] for piece in ("X1", "X2"))
    other = change(x2)
    expected = _own_text(other)
    x1.to_json()
    del spelled[:]
    assert json.dumps(other.to_json()) == expected
    assert len(spelled) == len(other.moves)


def test_x1_changed_after_writing_leaves_x2_as_written(spelled, fresh_memos):
    x1, x2 = (run_both(GENUS_3, 2)[piece][1] for piece in ("X1", "X2"))
    expected = _own_text(x2)
    doc = x1.to_json()
    # The trace's states, and the document written, changed in place.
    x1.initial["two_handles"].reverse()
    x1.initial["one_handles"].clear()
    for h in x1.final["two_handles"]:
        h["word"] = ()
    x1.moves.clear()
    doc["moves"][0]["target"] = "p99"
    doc["final"]["two_handles"][0]["word"] = "a1"
    del spelled[:]
    written = x2.to_json()
    assert json.dumps(written) == expected
    assert spelled == []
    # Nor does the document written share a container with the record.
    written["moves"][0]["target"] = "p99"
    written["final"]["two_handles"][0]["word"] = "a1"
    assert json.dumps(x2.to_json()) == expected


def test_all_fibered_trace_file_is_unchanged(tmp_path, capsys):
    path = tmp_path / "trace.json"
    assert main(["cancel", "--all-fibered", "--max-k", "2", "--trace", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ALL_FIBERED_K2
