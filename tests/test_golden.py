"""Golden digest: the engine's output bytes over a fixed set of knots.

One SHA-256 covers, for every two-bridge knot with k <= 2 and the
Stallings knots K_m, m in {-3..3, -60, 120}, at n = 1..3 (knot outer, n
inner): `json.dumps([trace.to_json(), complex_state(cx)])` of `run_both`'s
X1 and X2 results and of the full `run_schedule(spec, n, "X2")`, then
`full_report(spec, n).to_json()` for the two-bridge knots.  A refactor
that changes any trace, final state or report byte changes the digest.
A deliberate output change must update GOLDEN in the same change.
"""

import hashlib
import itertools
import json

from handlecalc.schedules import run_both, run_schedule
from handlecalc.trace import complex_state
from handlecalc.verify import full_report

GOLDEN = "6d9b60e2d593fd748ed3e3a6794e858418e4c7ac16e1ee70662f577e0b711b45"

TWO_BRIDGE = [
    "twobridge:" + ",".join("+" if e > 0 else "-" for e in eps)
    for k in (1, 2)
    for eps in itertools.product((1, -1), repeat=2 * k)
]
STALLINGS = [f"stallings:m={m}" for m in (*range(-3, 4), -60, 120)]


def _documents(spec, n):
    res = run_both(spec, n)
    yield [res["X1"][1].to_json(), complex_state(res["X1"][0])]
    yield [res["X2"][1].to_json(), complex_state(res["X2"][0])]
    cx, trace = run_schedule(spec, n, "X2")
    yield [trace.to_json(), complex_state(cx)]
    if spec in TWO_BRIDGE:
        yield full_report(spec, n).to_json()


def test_output_bytes_match_the_golden_digest():
    digest = hashlib.sha256()
    for spec in TWO_BRIDGE + STALLINGS:
        for n in (1, 2, 3):
            for doc in _documents(spec, n):
                digest.update(json.dumps(doc).encode())
    assert digest.hexdigest() == GOLDEN
