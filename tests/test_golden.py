"""Golden digests: the engine's output bytes over a fixed set of knots.

SHA-256 digests cover, for every two-bridge knot with k <= 2 and the
Stallings knots K_m, m in {-3..3, -60, 120}, at n = 1..3 (knot outer, n
inner): `json.dumps([trace.to_json(), state_text(word_state(cx))])` of
`run_both`'s X1 and X2 results and of the full `run_schedule(spec, n, "X2")`, then
`full_report(spec, n).to_json()` for the two-bridge knots.  The
two-bridge knots and the Stallings knots each have their own digest, so
a change to one family's bytes leaves the other's digest standing.  A
refactor that changes any trace, final state or report byte changes a
digest.  A deliberate output change must update GOLDEN in the same
change.

LONG_WORDS is the same recipe over two items whose words run to hundreds
of letters: one fixed two-bridge knot of genus 8 at n = 3 and K_-90 at
n = 2, again one digest per family.
"""

import hashlib
import itertools
import json

from handlecalc.schedules import run_both, run_schedule
from handlecalc.trace import state_text, word_state
from handlecalc.verify import full_report

GOLDEN = {
    "twobridge": "21335aa9fc39ebd145c81984ff6804a4eadd24af3252e62dee918161caaf75ec",
    "stallings": "3a7c797acf7bc61ae031b06ed5afe63573f217083488b52914ba52304e3ec012",
}

TWO_BRIDGE = [
    "twobridge:" + ",".join("+" if e > 0 else "-" for e in eps)
    for k in (1, 2)
    for eps in itertools.product((1, -1), repeat=2 * k)
]
STALLINGS = [f"stallings:m={m}" for m in (*range(-3, 4), -60, 120)]

LONG_WORDS_GOLDEN = {
    "twobridge": "f5e3884a3b249c7b7c7266f878c99729a64aacd0a15b17b1f9984d93605601a8",
    "stallings": "233d12cd690c466bd6c303098ef7ab007eed7261b547f6cf0936b05f74b651a0",
}
LONG_WORDS = [("twobridge:+,-,+,+,-,+,-,-,+,-,+,-,+,+,-,-", 3), ("stallings:m=-90", 2)]


def _documents(spec, n):
    res = run_both(spec, n)
    yield [res["X1"][1].to_json(), state_text(word_state(res["X1"][0]))]
    yield [res["X2"][1].to_json(), state_text(word_state(res["X2"][0]))]
    cx, trace = run_schedule(spec, n, "X2")
    yield [trace.to_json(), state_text(word_state(cx))]
    if spec.startswith("twobridge:"):
        yield full_report(spec, n).to_json()


def _digests(items) -> dict[str, str]:
    """One SHA-256 per knot family over the documents of the (spec, n) items, in order."""
    digests = {"twobridge": hashlib.sha256(), "stallings": hashlib.sha256()}
    for spec, n in items:
        for doc in _documents(spec, n):
            digests[spec.split(":", 1)[0]].update(json.dumps(doc).encode())
    return {family: d.hexdigest() for family, d in digests.items()}


def test_output_bytes_match_the_golden_digest():
    assert _digests((spec, n) for spec in TWO_BRIDGE + STALLINGS for n in (1, 2, 3)) == GOLDEN


def test_long_word_output_bytes_match_their_golden_digest():
    assert _digests(LONG_WORDS) == LONG_WORDS_GOLDEN
