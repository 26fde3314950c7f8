"""handlecalc: symbolic handle calculus for knot-surgery Lefschetz pieces.

Builds the monodromy factorization of each Lefschetz piece of the
knot-surgered elliptic surface, runs the handle-slide and cancellation
schedules at the free-homotopy word level, and certifies the resulting
decomposition with no 1- or 3-handles.
"""

from .complexes import (
    HandleComplex,
    MoveError,
    cancel,
    complex_from_piece,
    eliminate_letter,
    is_cancelling,
    is_isolated,
    slide_words,
)
from .factorization import (
    Factorization,
    LFPiece,
    VanishingCycle,
    build_W,
    build_pieces,
)
from .knots import (
    ConwayForm,
    DForm,
    KnotFraction,
    KnotSpecError,
    StallingsKnot,
    TwoBridgeKnot,
    continued_fraction,
    d_to_conway,
    is_fibered,
    parse_knot_spec,
)
from .schedules import HandleCounts, ScheduleError, assemble, run_both, run_schedule
from .surfaces import (
    CurveId,
    FiberSurface,
    b_word,
    beta_word,
    c_word,
    eta_word,
    tilde_alpha_word,
)
from .trace import MoveTrace, ReplayError, replay
from .twists import (
    MonodromySpec,
    apply_monodromy,
    apply_twist,
    chain_twist_rule,
    piece_monodromy,
    stallings_monodromy,
    stallings_rules,
    two_bridge_monodromy,
)
from .verify import VerificationReport, check_twist_image_closure, check_monodromy_invertible, euler_char, full_report
from .words import (
    Word,
    alpha,
    concat,
    cyclic_reduce,
    handle_occurrences,
    invert,
    parse_word,
    reduce_word,
    substitute,
    word_str,
)

__version__ = "0.1.0"
