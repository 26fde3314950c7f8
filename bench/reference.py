"""A fixed free-group workload that gauges the host's speed during a run.

The host drifts in speed by tens of percent over tens of seconds, and
handlecalc's calls drift together with this kernel: on the machine this
benchmark was written on, over twelve 10 s windows, the median times of
a g = 24 `cancel` item and of a larger variant of this kernel each
spread by 0.16-0.18 ((Q3 - Q1) / median) while their ratio spread by
0.10, and a small `report` item against the kernel spread by 0.06.  A
plain list-reduction loop, with no tuples or dictionaries, did not track
handlecalc's drift.

The kernel is the benchmark's own code, independent of handlecalc, so a
change to handlecalc moves a time measured against it as much as it
moves the raw time.
"""

from __future__ import annotations

import random
from time import perf_counter

GENERATORS = 24


def _words():
    rng = random.Random(1)
    sub = {g: tuple(rng.choice((1, -1)) * rng.randrange(1, GENERATORS + 1) for _ in range(rng.randrange(3, 9)))
           for g in range(1, GENERATORS + 1)}
    sub.update({-g: tuple(-x for x in reversed(w)) for g, w in list(sub.items())})
    base = [tuple(rng.choice((1, -1)) * rng.randrange(1, GENERATORS + 1) for _ in range(40)) for _ in range(2)]
    return sub, base


SUB, BASE = _words()


def reduce_word(word: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def kernel() -> int:
    """Substitute, concatenate and freely reduce a few words; the total length seen."""
    seen: dict[tuple[int, ...], int] = {}
    words = BASE
    for _ in range(3):
        words = [reduce_word(tuple(y for x in w for y in SUB[x])) for w in words]
        words = [reduce_word(a + b) for a, b in zip(words, words[1:] + words[:1])]
        for w in words:
            seen[w] = len(w)
    return sum(seen.values())


EXPECTED = kernel()


def timed() -> tuple[float, bool]:
    """(seconds, whether the kernel gave its expected result) of one run of the kernel."""
    t0 = perf_counter()
    got = kernel()
    return perf_counter() - t0, got == EXPECTED
