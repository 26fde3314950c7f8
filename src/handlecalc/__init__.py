"""handlecalc: symbolic handle calculus for knot-surgery Lefschetz pieces.

Builds the monodromy factorization of each Lefschetz piece of the
knot-surgered elliptic surface, runs the paper's handle-slide and
cancellation schedules at the free-homotopy word level, and checks the
resulting decomposition with no 1- or 3-handles (`full_report`).  A
trace file certifies less: a legal collapse of the rebuilt piece at the
level of the fundamental group, by whatever moves it lists, not the
paper's schedule (`replay`).
"""

from .complexes import (
    HandleComplex,
    MoveError,
    cancel,
    complex_from_piece,
    eliminate_letter,
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
from .verify import VerificationReport, check_piece_table, euler_char, full_report
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
