"""Fixtures shared by the test modules."""

import pytest

from handlecalc import factorization, trace


def _clear_memos():
    factorization.build_W.cache_clear()
    factorization._monodromy_images.cache_clear()
    factorization.build_pieces.cache_clear()
    trace._accepted_x1 = None
    trace._written_x1 = None


@pytest.fixture
def fresh_memos():
    """Empty the W, monodromy and piece memos and the two X1 records before and after the test.

    The X1 records are `trace._accepted_x1`, the X1 replay last accepted,
    against which `replay` checks the X2 trace that follows it, and
    `trace._written_x1`, the X1 document last written, from which
    `MoveTrace.to_json` writes the X2 trace that follows it.
    A test that patches what fills them (the twists, `concat`, a knot's
    monodromy) or counts the builds takes this fixture, so that its builds
    run under the patch and leave nothing built under it to the tests
    after it.  It yields the function that empties them, for a test that
    needs them empty again between builds.
    """
    _clear_memos()
    yield _clear_memos
    _clear_memos()
