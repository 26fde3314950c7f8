"""Command-line interface: output, exit codes, trace files."""

import json
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from handlecalc import cli, factorization
from handlecalc.cli import main
from handlecalc.knots import MAX_SWEEP_K, MAX_TWISTS, TwoBridgeKnot
from handlecalc.schedules import ScheduleError, run_both
from handlecalc.surfaces import MAX_GENUS, MAX_INDEX
from handlecalc.trace import MoveTrace, replay, state_text, word_state
from handlecalc.verify import full_report


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
    code, out, _ = run_cli(capsys, "knot", "conway:3,2")
    assert code == 0
    assert "fraction: 7/2" in out
    assert "fibered: no" in out


def test_knot_conway_trefoil_is_fibered(capsys):
    # C(2,1) = 3/1 is the trefoil: fibered whatever the shape of its coefficients.
    code, out, _ = run_cli(capsys, "knot", "conway:2,1")
    assert code == 0
    assert "fibered: yes" in out and "genus: 1" in out
    code, out, _ = run_cli(capsys, "cancel", "conway:2,1", "--n", "1")
    assert code == 0
    assert "X1: 1-handles: 0, 2-handles: 5" in out


def test_knot_stallings(capsys):
    code, out, _ = run_cli(capsys, "knot", "stallings:m=-1")
    assert code == 0
    assert "genus: 2" in out
    assert "t_a3^-1 t_a4 t_b2 t_a2^-1 t_a1^-1" in out


@pytest.mark.parametrize("spec, monodromy", [
    ("stallings:m=0", "t_a4 t_b2 t_a2^-1 t_a1^-1"),
    ("stallings:m=1", "t_a3 t_a4 t_b2 t_a2^-1 t_a1^-1"),
    ("stallings:m=-1", "t_a3^-1 t_a4 t_b2 t_a2^-1 t_a1^-1"),
    ("stallings:m=3", "t_a3^3 t_a4 t_b2 t_a2^-1 t_a1^-1"),
    ("stallings:m=-7", "t_a3^-7 t_a4 t_b2 t_a2^-1 t_a1^-1"),
    (f"stallings:m={MAX_TWISTS}", f"t_a3^{MAX_TWISTS} t_a4 t_b2 t_a2^-1 t_a1^-1"),
    ("twobridge:+,-", "t_a2^-1 t_a1"),
    ("twobridge:-,-,+,+", "t_a4 t_a3 t_a2^-1 t_a1^-1"),
])
def test_knot_json_prints_the_monodromy(capsys, spec, monodromy):
    # Composition notation: the rightmost twist acts first.
    code, out, _ = run_cli(capsys, "knot", spec, "--json")
    assert code == 0
    assert json.loads(out)["monodromy"] == monodromy


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


def test_factorize_prints_the_phi_c_words_of_k_m(capsys):
    # The K_m table maps the c-curves too: at n = 2 no image is opaque.
    code, out, _ = run_cli(capsys, "factorize", "stallings:m=3", "--n", "2")
    assert code == 0
    assert "<opaque>" not in out
    assert out.count("phi(c1)  [fiber-1]  a9 a0' a1 a2' a3 a4' a3 a2'\n") == 4  # both pieces
    assert "phi(c3)  [fiber-1]  a4' a3 a2' a1 a0' a2 a3' a4 a3' a2 a1' a0 a9' a4 a3' a2 a1' a0\n" in out


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
    code, _, err = run_cli(capsys, "cancel", "conway:3,2", "--n", "1")
    assert code == 1
    assert "fibered" in err


def test_cancel_trace_file_replays(tmp_path, capsys):
    path = tmp_path / "trace.json"
    code, _, _ = run_cli(capsys, "cancel", "twobridge:+,-", "--n", "2", "--trace", str(path))
    assert code == 0
    body = json.loads(path.read_text())
    assert body["schema"] == "handlecalc/6"
    assert len(body["traces"]) == 2
    for raw in body["traces"]:
        trace = MoveTrace.from_json(raw)
        assert state_text(word_state(replay(trace))) == raw["final"]


def test_each_knot_and_n_is_built_once(tmp_path, capsys, fresh_memos):
    # `run_both`, `full_report` and a replay of both traces of one document
    # each build the pieces once.
    path = tmp_path / "trace.json"
    assert run_cli(capsys, "cancel", "twobridge:+,-", "--n", "2", "--trace", str(path))[0] == 0
    factorization.build_pieces.cache_clear()
    run_both("stallings:m=3", 1)
    assert factorization.build_pieces.cache_info().misses == 1
    for raw in json.loads(path.read_text())["traces"]:
        replay(MoveTrace.from_json(raw))
    assert factorization.build_pieces.cache_info().misses == 2
    assert full_report("twobridge:+,+", 3).passed
    assert factorization.build_pieces.cache_info().misses == 3


@pytest.mark.parametrize(
    "spec, n, message",
    [
        pytest.param("twobridge:" + ",".join("+-" * (MAX_GENUS + 1)), 1, f"genus {MAX_GENUS + 1} is above the limit",
                     id="genus"),
        pytest.param("twobridge:+,+", MAX_INDEX + 1, f"index {MAX_INDEX + 1} is above the limit", id="n"),
        pytest.param(f"stallings:m={MAX_TWISTS + 1}", 1, f"m={MAX_TWISTS + 1} is above the limit", id="m"),
    ],
)
@pytest.mark.parametrize("command", ["cancel", "verify"])
def test_inputs_above_the_limits_are_usage_errors(capsys, monkeypatch, command, spec, n, message):
    monkeypatch.setattr(factorization, "build_W", lambda s: pytest.fail("a word was built"))
    code, out, err = run_cli(capsys, command, spec, "--n", str(n))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "spec, message",
    [
        pytest.param("twobridge:" + ",".join("+-" * 8000), "genus 8000 is above the limit", id="16000-signs"),
        pytest.param("twobridge:" + ",".join("+-" * 1000), "genus 1000 is above the limit", id="2000-signs"),
        pytest.param("conway:" + ",".join(["3"] * 12000), "genus 6000 is above the limit", id="12000-coefficients"),
        pytest.param("conway:" + ",".join(["9" * 3000] * 2), "coefficient 1 is above the limit", id="3000-digits"),
        pytest.param(f"conway:2,{MAX_TWISTS + 1}", f"coefficient 2 is above the limit |c| <= {MAX_TWISTS}",
                     id="coefficient"),
    ],
)
def test_knot_inputs_above_the_limits_are_usage_errors(capsys, spec, message):
    code, out, err = run_cli(capsys, "knot", spec)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and "int_max_str_digits" not in err


@pytest.mark.parametrize(
    "spec, message",
    [
        pytest.param("stallings:m=" + "7" * 5000, "bad stallings twist count '777777777777'... (5000 characters)",
                     id="m-5000-digits"),
        pytest.param("stallings:m=" + "7" * 4000, "m (a 13288-bit integer) is above the limit", id="m-4000-digits"),
        pytest.param("conway:2," + "7" * 5000, "bad conway coefficient '777777777777'... (5000 characters)",
                     id="coefficient-5000-digits"),
        pytest.param("stallings:m=1_0", "bad stallings twist count '1_0'", id="underscore"),
        pytest.param("stallings:m= 10", "bad stallings twist count ' 10'", id="space"),
        pytest.param("stallings:m=١٠", "bad stallings twist count '١٠'", id="arabic-indic-digits"),
        pytest.param("conway:2,1_0", "bad conway coefficient '1_0'", id="coefficient-underscore"),
        pytest.param("twobridge:" + "x" * 5000, "bad twobridge sign token 'xxxxxxxxxxxx'... (5000 characters)",
                     id="sign-5000-characters"),
    ],
)
def test_knot_spec_integers_are_ascii_and_echoed_short(capsys, spec, message):
    # An integer is an optional sign and ASCII digits, and an error quotes
    # at most 12 characters of the token, however long the input.
    code, out, err = run_cli(capsys, "knot", spec)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err and len(err) < 120, err[:200]


def test_knot_at_the_limits_prints_its_fraction(capsys):
    # 2 * MAX_GENUS coefficients of the largest size: p has about 2048 digits.
    code, out, _ = run_cli(capsys, "knot", "conway:" + ",".join([str(-MAX_TWISTS)] * (2 * MAX_GENUS)))
    assert code == 0 and 2000 < len(out.split("fraction: ")[1].split("/")[0]) < 2050
    code, out, _ = run_cli(capsys, "knot", "twobridge:" + ",".join("+-" * MAX_GENUS))
    assert code == 0 and f"genus: {MAX_GENUS}" in out


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_cancel_unwritable_trace_is_usage_error(tmp_path, capsys, where):
    path = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    code, out, err = run_cli(capsys, "cancel", "twobridge:+,+", "--n", "1", "--trace", str(path))
    assert code == 1
    assert out == ""  # nothing is printed before the trace is written
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


@pytest.mark.parametrize("command", ["cancel", "verify"])
@pytest.mark.parametrize("max_k", [MAX_SWEEP_K + 1, 40])
def test_max_k_above_the_limit_is_usage_error(capsys, monkeypatch, command, max_k):
    # The limit holds before any knot of the sweep is built.
    monkeypatch.setattr(TwoBridgeKnot, "from_eps", lambda eps: pytest.fail("a knot was built"))
    code, out, err = run_cli(capsys, command, "--all-fibered", "--max-k", str(max_k))
    assert code == 1 and out == ""
    assert err.startswith(f"error: --max-k {max_k} is above the limit {MAX_SWEEP_K} ") and "Traceback" not in err


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


@pytest.mark.parametrize(
    "n, fail, code",
    [
        pytest.param("0", False, 1, id="n-0"),
        pytest.param("1001", False, 1, id="n-1001"),
        pytest.param("1", True, 2, id="schedule-failure"),
    ],
)
def test_failed_cancel_leaves_the_trace_path_alone(tmp_path, capsys, monkeypatch, n, fail, code):
    # The trace is written only after every run succeeds: an old file keeps
    # its bytes and a missing path is not created.
    def failing_run_both(knot, n):
        raise ScheduleError("forced failure")

    if fail:
        monkeypatch.setattr(cli, "run_both", failing_run_both)
    old, missing = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text('{"old": true}\n')
    for path in (old, missing):
        assert run_cli(capsys, "cancel", "twobridge:+,+", "--n", n, "--trace", str(path))[:2] == (code, "")
    assert old.read_text() == '{"old": true}\n'
    assert not missing.exists()


def test_factorize_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "factorize", "stallings:m=1", "--n", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["knot"] == "stallings:m=1"
    assert len(payload["X1"]["cycles"]) == 12
    assert payload["X1"]["cycles"][:1][0]["curve"] == "phi(B0)"


_CLI_SPECS = [
    "twobridge:+,+", "twobridge:+,-,+,+", "twobridge:+", "twobridge:+,x", "twobridge:",
    "conway:2,2", "conway:2,1", "conway:", "conway:2,,2", "conway:99999",
    "stallings:m=3", "stallings:m=-2", "stallings:m=", "stallings:m=x", f"stallings:m={MAX_TWISTS + 1}",
]


@st.composite
def _argv(draw, trace_paths):
    """A command line: a command, a knot spec or a sweep, and flags, each valid or not.

    A flag goes mostly to the commands that take it, and now and then to
    one that does not.
    """
    command = draw(st.sampled_from(["knot", "factorize", "cancel", "verify"]))
    argv = [command]

    def takes(*commands):
        return draw(st.booleans()) and (command in commands or draw(st.integers(0, 7)) == 0)

    sweep = command in ("cancel", "verify") and draw(st.booleans())
    if not sweep or draw(st.booleans()):
        argv.append(draw(st.sampled_from(_CLI_SPECS)))
    if takes("factorize", "cancel", "verify"):
        argv += ["--n", draw(st.sampled_from(["-1", "0", "1", "2", "1001", "x"]))]
    if draw(st.booleans()):
        argv.append("--json")
    if sweep:  # a sweep to k = 2 or more would run too long for a property
        argv += ["--all-fibered", "--max-k", draw(st.sampled_from(["0", "1"]))]
    elif takes("cancel", "verify"):
        argv += ["--max-k", draw(st.sampled_from(["0", "1", "8"]))]
    if takes("cancel"):
        argv += ["--trace", draw(st.sampled_from(trace_paths))]
    return argv


@pytest.fixture(scope="module")
def trace_paths(tmp_path_factory):
    """A writable trace path and one in a directory that does not exist."""
    root = tmp_path_factory.mktemp("cli")
    return [str(root / "trace.json"), str(root / "missing" / "trace.json")]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_every_command_line_ends_with_a_documented_exit_code(trace_paths, data):
    # Whatever the command line, the CLI returns one of the exit codes its
    # docstring names and raises nothing.
    argv = data.draw(_argv(trace_paths), label="argv")
    assert main(argv) in (0, 1, 2, 3)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_command_lines_run(tmp_path, capsys):
    # Every `handlecalc` line of the README's "Command line" block exits 0,
    # with its `--trace` file written under tmp_path.
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```")[0]
    commands = [shlex.split(line.split("#", 1)[0])[1:] for line in block.splitlines() if line.startswith("handlecalc ")]
    assert len(commands) >= 8
    for argv in commands:
        argv = [str(tmp_path / a) if k and argv[k - 1] == "--trace" else a for k, a in enumerate(argv)]
        assert main(argv) == 0, argv
        capsys.readouterr()
