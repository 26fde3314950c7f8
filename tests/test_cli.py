"""Command-line interface: output, exit codes, trace files."""

import json

import pytest

from handlecalc.cli import main
from handlecalc.trace import MoveTrace, complex_digest, replay


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_knot_twobridge(capsys):
    code, out, _ = run_cli(capsys, "knot", "twobridge:+,+")
    assert code == 0
    assert "fraction: 3/2" in out
    assert "fibered: yes" in out
    assert "genus: 1" in out
    assert "monodromy: t_a2 t_a1" in out


def test_knot_not_fibered(capsys):
    code, out, _ = run_cli(capsys, "knot", "conway:2,1")
    assert code == 0
    assert "fibered: no" in out


def test_knot_stallings(capsys):
    code, out, _ = run_cli(capsys, "knot", "stallings:m=-1")
    assert code == 0
    assert "genus: 2" in out
    assert "t_a3^-1 t_a4 t_b2 t_a2^-1 t_a1^-1" in out


def test_knot_parse_error_names_token(capsys):
    code, _, err = run_cli(capsys, "knot", "twobridge:+,x")
    assert code == 1
    assert "'x'" in err


def test_usage_error(capsys):
    assert main(["knot"]) == 1
    capsys.readouterr()
    assert main(["frobnicate", "x"]) == 1
    capsys.readouterr()


def test_factorize_text(capsys):
    code, out, _ = run_cli(capsys, "factorize", "twobridge:+,+", "--n", "1")
    assert code == 0
    assert "X1: 8 vanishing cycles" in out
    assert "<opaque>" in out


def test_cancel_single(capsys):
    code, out, _ = run_cli(capsys, "cancel", "twobridge:+,+", "--n", "1")
    assert code == 0
    assert "X1: 1-handles: 0, 2-handles: 5" in out
    assert "X2: 1-handles: 0, 2-handles: 5" in out


def test_cancel_n2_stallings(capsys):
    code, out, _ = run_cli(capsys, "cancel", "stallings:m=3", "--n", "2")
    assert code == 0
    assert "1-handles: 0, 2-handles: 11" in out


def test_cancel_not_fibered_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "cancel", "conway:2,1", "--n", "1")
    assert code == 1
    assert "fibered" in err


def test_cancel_trace_file_replays(tmp_path, capsys):
    path = tmp_path / "trace.json"
    code, _, _ = run_cli(capsys, "cancel", "twobridge:+,-", "--n", "2", "--trace", str(path))
    assert code == 0
    body = json.loads(path.read_text())
    assert body["schema"] == "handlecalc/1"
    assert len(body["traces"]) == 2
    for raw in body["traces"]:
        trace = MoveTrace.from_json(raw)
        assert complex_digest(replay(trace)) == trace.final_digest()


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_cancel_unwritable_trace_is_usage_error(tmp_path, capsys, where):
    path = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    code, out, err = run_cli(capsys, "cancel", "twobridge:+,+", "--n", "1", "--trace", str(path))
    assert code == 1
    assert out == ""  # the path is opened before any schedule runs
    assert err.startswith(f"error: cannot write trace {path}: ")
    assert "Traceback" not in err


def test_cancel_json_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "cancel", "twobridge:+,+", "--n", "1", "--json")
    assert code == 0
    code, out2, _ = run_cli(capsys, "cancel", "twobridge:+,+", "--n", "1", "--json")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["assembled"] == {"h0": 1, "h1": 0, "h2": 10, "h3": 0, "h4": 1}


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "twobridge:+,+", "--n", "1")
    assert code == 0
    assert "pass" in out and "chi=12" in out


def test_verify_n3(capsys):
    code, out, _ = run_cli(capsys, "verify", "twobridge:+,-,+,+", "--n", "3")
    assert code == 0
    assert "chi=36" in out


def test_verify_batch(capsys):
    code, out, _ = run_cli(capsys, "verify", "--all-fibered", "--max-k", "1", "--n", "1")
    assert code == 0
    assert out.count("pass") == 4


def test_cancel_batch(capsys):
    code, out, _ = run_cli(capsys, "cancel", "--all-fibered", "--max-k", "1", "--n", "2")
    assert code == 0
    assert out.count("2-handles: 11") == 8  # 4 knots x 2 pieces


@pytest.mark.parametrize("command", ["cancel", "verify"])
@pytest.mark.parametrize("max_k", ["0", "-3"])
def test_max_k_below_one_is_usage_error(capsys, command, max_k):
    # An empty sweep is not a success.
    code, out, err = run_cli(capsys, command, "--all-fibered", "--max-k", max_k)
    assert code == 1
    assert out == ""
    assert "error: --max-k must be >= 1" in err


def test_batch_and_spec_conflict(capsys):
    code, _, err = run_cli(capsys, "cancel", "twobridge:+,+", "--all-fibered")
    assert code == 1
    assert "either" in err


def test_missing_spec(capsys):
    code, _, err = run_cli(capsys, "cancel")
    assert code == 1
    assert "missing knot spec" in err


def test_schedule_failure_exit_code(capsys, monkeypatch):
    from handlecalc import cli
    from handlecalc.schedules import ScheduleError
    from handlecalc.words import parse_word

    def boom(knot, n):
        raise ScheduleError("forced failure", word=parse_word("a1 a1"))

    monkeypatch.setattr(cli, "run_both", boom)
    code, _, err = run_cli(capsys, "cancel", "twobridge:+,+")
    assert code == 2
    assert "offending word: a1 a1" in err


def test_factorize_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "factorize", "stallings:m=1", "--n", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["knot"] == "stallings:m=1"
    assert len(payload["X1"]["cycles"]) == 12
    assert payload["X1"]["cycles"][:1][0]["curve"] == "phi(B0)"
