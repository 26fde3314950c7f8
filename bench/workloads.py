"""The benchmark's workloads: seeded inputs, the timed item, and output checks.

Each workload is a closed loop over a list of items built from the seed.
An item is one call into handlecalc's public API, of one of three kinds:

  * `report`: `full_report(spec, n)`, the `handlecalc verify` path;
  * `cancel`: `run_both`, `assemble`, then `to_json` and `json.dumps` of
    both traces, the `handlecalc cancel --trace` path;
  * `replay`: `json.loads`, `MoveTrace.from_json` and `replay` of a trace
    document that set-up stored.

`check` runs after the item, untimed, and compares the output with
counts from the paper (never with values the code under test computes
for itself):

  * the assembled decomposition of E(n)_K is (h0..h4) = (1, 0, 12n-2, 0, 1);
  * each piece ends with 0 one-handles and 6n-1 two-handles;
  * each trace has 4g+2n-2 cancel moves (one per 1-handle of the piece);
  * the Euler characteristic is 12n;
  * a replayed trace ends with no live 1-handles.

`check` also returns the bytes the item hands to a user (the trace
document, or the verification report of a `report` item), which feed
the `output_bytes` metric and the output digest.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import product

import handlecalc as hc
from tracer import no_span

PIECES = ("X1", "X2")


@dataclass
class Item:
    kind: str
    spec: str
    g: int
    n: int
    largest: bool = False
    data: bytes | None = None
    error: str | None = None


def twobridge(signs) -> str:
    return "twobridge:" + ",".join("+" if e > 0 else "-" for e in signs)


def random_signs(rng: random.Random, g: int) -> list[int]:
    return [rng.choice((1, -1)) for _ in range(2 * g)]


def expected_counts(n: int) -> dict[str, int]:
    return {"h0": 1, "h1": 0, "h2": 12 * n - 2, "h3": 0, "h4": 1}


def euler(counts: dict[str, int]) -> int:
    return counts["h0"] - counts["h1"] + counts["h2"] - counts["h3"] + counts["h4"]


def check_assembled(counts: dict[str, int], n: int) -> list[str]:
    problems = []
    if counts != expected_counts(n):
        problems.append(f"assembled counts {counts} != {expected_counts(n)}")
    if euler(counts) != 12 * n:
        problems.append(f"euler characteristic {euler(counts)} != {12 * n}")
    return problems


def check_trace_doc(doc: dict, g: int, n: int) -> list[str]:
    """Paper counts on a serialised `{"traces": [X1, X2]}` document."""
    problems = []
    pieces = [t.get("piece") for t in doc.get("traces", [])]
    if pieces != list(PIECES):
        return [f"trace pieces {pieces} != {list(PIECES)}"]
    for t in doc["traces"]:
        piece, final = t["piece"], t.get("final") or {}
        if t.get("error") is not None:
            problems.append(f"{piece}: trace records an error {t['error']}")
        if final.get("one_handles") != []:
            problems.append(f"{piece}: final 1-handles {final.get('one_handles')}")
        if len(final.get("two_handles", ())) != 6 * n - 1:
            problems.append(f"{piece}: {len(final.get('two_handles', ()))} final 2-handles != {6 * n - 1}")
        cancels = sum(1 for m in t.get("moves", ()) if m.get("kind") == "cancel")
        if cancels != 4 * g + 2 * n - 2:
            problems.append(f"{piece}: {cancels} cancel moves != {4 * g + 2 * n - 2}")
    return problems


def run_report(item: Item, span=no_span):
    return hc.full_report(item.spec, item.n)


def check_report(item: Item, report) -> tuple[list[str], bytes]:
    g, n = item.g, item.n
    want = {
        "X1 final 1-handles": 0,
        "X2 final 1-handles": 0,
        "X1 final 2-handles": 6 * n - 1,
        "X2 final 2-handles": 6 * n - 1,
        "X1 cancellations": 4 * g + 2 * n - 2,
        "X2 cancellations": 4 * g + 2 * n - 2,
        "total 1-handles": 0,
        "total 3-handles": 0,
        "total 2-handles": 12 * n - 2,
        "euler characteristic": 12 * n,
    }
    got = {c.name: c.actual for c in report.checks}
    problems = [f"{name}: {got.get(name, 'missing')!r} != {value!r}"
                for name, value in want.items() if got.get(name, "missing") != value]
    if not report.passed:
        problems.append("report did not pass: " + ", ".join(c.name for c in report.checks if not c.passed))
    return problems, json.dumps(report.to_json()).encode("utf-8")


def run_cancel(item: Item, span=no_span) -> tuple[dict, bytes]:
    """The `handlecalc cancel SPEC --trace` path: both schedules, assembly, trace bytes."""
    res = hc.run_both(item.spec, item.n)
    counts = hc.assemble(res["X1"][0], res["X2"][0], item.n).as_dict()
    with span("trace.serialise"):
        body = {"schema": hc.trace.SCHEMA, "n": item.n, "traces": [res[p][1].to_json() for p in PIECES]}
        data = json.dumps(body).encode("utf-8")
    return counts, data


def check_cancel(item: Item, output) -> tuple[list[str], bytes]:
    counts, data = output
    problems = check_assembled(counts, item.n)
    problems += check_trace_doc(json.loads(data), item.g, item.n)
    return problems, data


def run_replay(item: Item, span=no_span):
    if item.data is None:
        raise RuntimeError(item.error)
    with span("trace.parse"):
        doc = json.loads(item.data)
        traces = [hc.MoveTrace.from_json(t) for t in doc["traces"]]
    return [(t, hc.replay(t)) for t in traces]


def check_replay(item: Item, output) -> tuple[list[str], bytes]:
    g, n = item.g, item.n
    problems = []
    if [t.piece for t, _ in output] != list(PIECES):
        return [f"replayed pieces {[t.piece for t, _ in output]}"], item.data
    for t, cx in output:
        if cx.one_handles:
            problems.append(f"{t.piece}: live 1-handles {sorted(cx.one_handles)} after replay")
        if len(cx.two_handles) != 6 * n - 1:
            problems.append(f"{t.piece}: {len(cx.two_handles)} 2-handles after replay != {6 * n - 1}")
        cancels = sum(1 for m in t.moves if m.kind == "cancel")
        if cancels != 4 * g + 2 * n - 2:
            problems.append(f"{t.piece}: {cancels} cancel moves != {4 * g + 2 * n - 2}")
    (_, x1), (_, x2) = output
    counts = {
        "h0": x1.zero_handles,
        "h1": len(x1.one_handles),
        "h2": len(x1.two_handles) + len(x2.two_handles),
        "h3": len(x2.one_handles),
        "h4": x2.zero_handles,
    }
    return problems + check_assembled(counts, n), item.data


RUN = {"report": run_report, "cancel": run_cancel, "replay": run_replay}
CHECK = {"report": check_report, "cancel": check_cancel, "replay": check_replay}


class Workload:
    name = ""

    def build(self, seed: int, smoke: bool) -> list[Item]:
        raise NotImplementedError

    def run(self, item: Item, span=no_span):
        return RUN[item.kind](item, span)

    def check(self, item: Item, output) -> tuple[list[str], bytes]:
        return CHECK[item.kind](item, output)

    def cli_args(self, items: list[Item], smoke: bool) -> list[str]:
        """One `handlecalc` command for this workload; `{trace}` marks the trace file.

        It is `cancel --trace` on the largest item.
        """
        big = next(it for it in items if it.largest)
        return ["cancel", big.spec, "--n", str(big.n), "--trace", "{trace}"]

    def check_cli(self, items: list[Item], smoke: bool, proc, trace_path) -> list[str]:
        if proc.returncode != 0:
            return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
        big = next(it for it in items if it.largest)
        want = "; ".join(f"{p}: 1-handles: 0, 2-handles: {6 * big.n - 1}" for p in PIECES)
        problems = [] if want in proc.stdout else [f"output lacks {want!r}"]
        with open(trace_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return problems + check_trace_doc(doc, big.g, big.n)


class Sweep(Workload):
    """Every fibered two-bridge sign sequence of genus <= 4 at n = 1, 2, 3, via full_report.

    The largest items are those of genus 4 at n = 3.
    """

    name = "sweep"
    max_k = 4

    def build(self, seed, smoke):
        items = [
            Item("report", twobridge(eps), k, n, largest=(k, n) == (self.max_k, 3))
            for k in range(1, self.max_k + 1)
            for eps in product((1, -1), repeat=2 * k)
            for n in (1, 2, 3)
        ]
        random.Random(seed).shuffle(items)
        return items[:6] if smoke else items

    cli_n = 2

    def cli_max_k(self, smoke):
        return 1 if smoke else 3

    def cli_args(self, items, smoke):
        return ["verify", "--all-fibered", "--max-k", str(self.cli_max_k(smoke)), "--n", str(self.cli_n)]

    def check_cli(self, items, smoke, proc, trace_path):
        if proc.returncode != 0:
            return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
        lines = proc.stdout.splitlines()
        knots = sum(4**k for k in range(1, self.cli_max_k(smoke) + 1))
        ok = [line for line in lines if line.endswith(f": pass, chi={12 * self.cli_n}")]
        if len(lines) != knots or len(ok) != knots:
            return [f"{len(ok)} of {len(lines)} report lines pass with chi={12 * self.cli_n}, expected {knots}"]
        return []


class Cancel(Workload):
    """Long words on the `cancel --trace` path, and stored traces read back.

    The items are the same for every seed, which only orders them: the
    sign sequences and |m| move an item's time by up to a quarter, so
    seeded contents would make the time metrics follow the input.

    * genus: two-bridge sign sequences at (g, n) = (8, 3), (12, 1),
      (16, 3), (20, 1) and (24, 3).  The g = 24 item is the largest,
      timed by `largest_item_s` and run by the `cancel` command.  The
      chain-twist monodromy is cubic in g.
    * stallings: K_m and K_-m at n = 2 for |m| = 30, 60, 90, 120;
      ta3_power and the Stallings rules are quadratic in m.
    * replay: set-up builds the traces of two-bridge knots at g = 12, 16
      and n = 3, at g = 4 and n = 20, 40 and 60, and of K_m at |m| = 50;
      the item reads one back and replays it.  The replayed complexes are
      checked against the paper's counts, so a wrong trace from set-up
      shows as a failure.
    """

    name = "cancel"

    def build(self, seed, smoke):
        fixed = random.Random(0)
        shapes = [(2, 1), (3, 3)] if smoke else [(8, 3), (12, 1), (16, 3), (20, 1), (24, 3)]
        items = [Item("cancel", twobridge(random_signs(fixed, g)), g, n, largest=(g, n) == shapes[-1])
                 for g, n in shapes]
        sizes = [3] if smoke else [30, 60, 90, 120]
        items += [Item("cancel", f"stallings:m={fixed.choice((1, -1)) * m}", 2, 2) for m in sizes]

        if smoke:
            stored = [("g", 2, 1), ("m", 2, 2)]
        else:
            stored = [("g", 12, 3), ("g", 16, 3), ("g", 4, 20), ("g", 4, 40), ("g", 4, 60), ("m", 50, 2)]
        for kind, a, n in stored:
            if kind == "g":
                item = Item("replay", twobridge(random_signs(fixed, a)), a, n)
            else:
                item = Item("replay", f"stallings:m={fixed.choice((1, -1)) * a}", 2, n)
            try:
                item.data = run_cancel(item)[1]
            except Exception as exc:  # counted when the item runs
                item.error = f"set-up could not build the trace: {type(exc).__name__}: {exc}"
            items.append(item)
        random.Random(seed).shuffle(items)
        return items


WORKLOADS = {w.name: w for w in (Sweep(), Cancel())}
