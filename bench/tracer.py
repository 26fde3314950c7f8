"""Span tracing of handlecalc's layers, driven from the benchmark's own code.

`Tracer.install()` replaces every public function of each layer module
with a wrapper that records a span (name, start, end, parent) and the
layer's work counters.  It patches every binding of the function: the
defining module and each `from .x import name` copy in the other
handlecalc modules and in the package namespace, so that for example
`complexes.concat` and `twists.concat` are traced like `words.concat`.
`uninstall()` puts the originals back.

Spans are kept in flat arrays in memory and written out by `write_spans`
at the end of the run (`read_spans` reads them back).  A span's self
time is its duration minus the time of its child spans; the wrapper's
own bookkeeping in a child is charged to the child, not to the parent,
so the parent's self time stays close to the untraced cost of its own
code.
"""

from __future__ import annotations

import gzip
import importlib
import pickle
import sys
from array import array
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter

NO_SPAN = nullcontext()

LAYERS = (
    "words",
    "surfaces",
    "twists",
    "knots",
    "factorization",
    "complexes",
    "schedules",
    "trace",
    "verify",
    "cli",
)


def no_span(name: str):
    """The span function of an untraced run: a reusable no-op context."""
    return NO_SPAN


def public_functions(package, layer: str) -> dict[str, object]:
    """The layer's public functions: its `__all__`, or what the package re-exports."""
    mod = importlib.import_module(f"{package.__name__}.{layer}")
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n, v in vars(package).items() if getattr(v, "__module__", None) == mod.__name__]
    out = {}
    for name in names:
        fn = getattr(mod, name)
        if callable(fn) and not isinstance(fn, type) and getattr(fn, "__module__", None) == mod.__name__:
            out[name] = fn
    return out


def _move_signature(trace) -> tuple:
    """The move list with handle ids renamed in order of first use."""
    ids: dict[str, int] = {}

    def rename(hid):
        return None if hid is None else ids.setdefault(hid, len(ids))

    return tuple(
        (m.kind, rename(m.target), rename(m.over), m.letter, m.relator, m.shared_prefix,
         m.before, m.after, m.after_word)
        for m in trace.moves
    )


class Tracer:
    """In-memory span recorder plus the per-layer work counters."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self._stack: list[list] = []
        self.counts: Counter = Counter()
        self._built: set[tuple[str, int]] = set()
        self._x1_moves: dict[tuple[str, int], tuple] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> list:
        stack = self._stack
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_self.append(0.0)
        frame = [idx, 0.0]
        stack.append(frame)
        return frame

    def _close(self, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        idx = frame[0]
        self.span_start[idx] = t0
        self.span_end[idx] = t1
        self.span_self[idx] = (t1 - t0) - frame[1]

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code, such as json.dumps of a trace."""
        t_enter = perf_counter()
        frame = self._open(self._name_id(name))
        parent = self._stack[-2] if len(self._stack) > 1 else None
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(frame, t0, perf_counter())
            if parent is not None:
                parent[1] += perf_counter() - t_enter

    def _wrap(self, name: str, fn, hook):
        nid = self._name_id(name)
        stack = self._stack
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            t_enter = perf_counter()
            parent = stack[-1] if stack else None
            frame = open_(nid)
            result = None
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                close(frame, t0, perf_counter())
                if ok and hook is not None:
                    hook(args, kwargs, result, frame[0])
                if parent is not None:
                    parent[1] += perf_counter() - t_enter

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        pkg = self.package
        prefix = pkg.__name__ + "."
        modules = [pkg] + [m for n, m in sorted(sys.modules.items()) if n.startswith(prefix) and m is not None]
        hooks = self._hooks()
        for layer in LAYERS:
            for fname, fn in public_functions(pkg, layer).items():
                name = f"{layer}.{fname}"
                wrapper = self._wrap(name, fn, hooks.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    # -- counters ----------------------------------------------------------

    def _hooks(self) -> dict:
        """Counter updates, keyed by span name, run after a traced call returns."""
        c = self.counts

        def reduce_post(args, kwargs, result, idx):
            c["words.letters_in"] += len(args[0])
            c["words.letters_out"] += len(result)

        def concat_post(args, kwargs, result, idx):
            c["words.letters_in"] += sum(len(w) for w in args)
            c["words.letters_out"] += len(result)

        def substitute_post(args, kwargs, result, idx):
            w, i, repl = args[0], args[1], args[3]
            code = i + 1
            hits = w.count(code) + w.count(-code)
            c["words.letters_in"] += len(w) + hits * (len(repl) - 1)
            c["words.letters_out"] += len(result)

        def validate_post(args, kwargs, result, idx):
            c["surfaces.validate_calls"] += 1
            c["surfaces.validate_letters"] += len(args[0])

        def ta3_post(args, kwargs, result, idx):
            c["twists.ta3_steps"] += abs(args[1])

        def build_post(args, kwargs, result, idx):
            knot, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
            self._built.add((repr(knot), n))
            c["factorization.letters_out"] += sum(
                len(vc.word) for piece in result for vc in piece.factorization.cycles if vc.word is not None
            )

        def cancel_post(args, kwargs, result, idx):
            c["complexes.rewrites"] += len(result.rewrites)

        def schedule_post(args, kwargs, result, idx):
            trace = result[1]
            key = (trace.knot, trace.n)
            if trace.piece == "X1":
                self._x1_moves[key] = _move_signature(trace)
            else:
                c["schedules.x2_runs"] += 1
                if self._x1_moves.get(key) == _move_signature(trace):
                    c["schedules.x2_duplicates"] += 1
            if self._under("verify.full_report", idx):
                c["verify.report_schedule_runs"] += 1

        def digest_post(args, kwargs, result, idx):
            c["trace.digest_bytes"] += len(args[0].encode("utf-8"))

        def replay_post(args, kwargs, result, idx):
            c["trace.replay_moves"] += len(args[0].moves)

        return {
            "words.reduce_word": reduce_post,
            "words.concat": concat_post,
            "words.substitute": substitute_post,
            "surfaces.validate_word": validate_post,
            "twists.ta3_power": ta3_post,
            "factorization.build_pieces": build_post,
            "complexes.cancel": cancel_post,
            "schedules.run_schedule": schedule_post,
            "trace.fnv1a64": digest_post,
            "trace.replay": replay_post,
        }

    def _under(self, name: str, idx: int) -> bool:
        nid = self._name_ids.get(name)
        parent = self.span_parent[idx]
        while parent >= 0:
            if self.span_name[parent] == nid:
                return True
            parent = self.span_parent[parent]
        return False

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times, call counts and work counters of the recorded spans."""
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        calls: Counter = Counter()
        for nid, t0, t1, own in zip(self.span_name, self.span_start, self.span_end, self.span_self):
            name = self.names[nid]
            self_s[name.split(".", 1)[0]] += own
            total_s[name] += t1 - t0
            calls[name] += 1
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        words_calls = sum(k for name, k in calls.items() if name.startswith("words."))
        report_calls = calls["verify.full_report"]
        build_calls = calls["factorization.build_pieces"]
        return {
            "words.calls": words_calls,
            "words.letters_in": c["words.letters_in"],
            "words.cancel_ratio": ratio(c["words.letters_in"] - c["words.letters_out"], c["words.letters_in"]),
            "words.self_s": self_s["words"],
            "surfaces.validate_calls": c["surfaces.validate_calls"],
            "surfaces.validate_letters": c["surfaces.validate_letters"],
            "surfaces.self_s": self_s["surfaces"],
            "twists.apply_twist_calls": calls["twists.apply_twist"],
            "twists.stallings_rules_calls": calls["twists.stallings_rules"],
            "twists.ta3_steps": c["twists.ta3_steps"],
            "twists.self_s": self_s["twists"],
            "knots.self_s": self_s["knots"],
            "factorization.build_pieces_calls": build_calls,
            "factorization.build_useful_ratio": ratio(len(self._built), build_calls),
            "factorization.letters_out": c["factorization.letters_out"],
            "factorization.self_s": self_s["factorization"],
            "complexes.moves": calls["complexes.slide_words"] + calls["complexes.cancel"]
            + calls["complexes.eliminate_letter"] - c["complexes.rewrites"],
            "complexes.rewrites": c["complexes.rewrites"],
            "complexes.self_s": self_s["complexes"],
            "schedules.run_schedule_calls": calls["schedules.run_schedule"],
            "schedules.self_s": self_s["schedules"],
            "schedules.x2_duplicate_ratio": ratio(c["schedules.x2_duplicates"], c["schedules.x2_runs"]),
            "trace.digest_calls": calls["trace.fnv1a64"],
            "trace.digest_bytes": c["trace.digest_bytes"],
            "trace.serialise_s": total_s["trace.serialise"],
            "trace.parse_s": total_s["trace.parse"],
            "trace.replay_s": total_s["trace.replay"],
            "trace.replay_moves": c["trace.replay_moves"],
            "trace.self_s": self_s["trace"],
            "verify.self_s": self_s["verify"],
            "verify.schedule_runs_per_report": ratio(c["verify.report_schedule_runs"], report_calls),
        }

    def write_spans(self, path) -> None:
        """Write the span names and the five span columns to a gzip'd pickle."""
        columns = {"name": self.span_name, "parent": self.span_parent, "start": self.span_start,
                   "end": self.span_end, "self": self.span_self}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            pickle.dump((self.names, columns), fh, protocol=pickle.HIGHEST_PROTOCOL)


def read_spans(path) -> tuple[list[str], dict[str, array]]:
    """Read a file from `Tracer.write_spans`: (span names, column arrays)."""
    with gzip.open(path, "rb") as fh:
        return pickle.load(fh)
