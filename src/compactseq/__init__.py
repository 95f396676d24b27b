"""Time-frequency spread measures and maximally compact sequence design.

The package measures how concentrated a finite discrete-time sequence is
jointly in time and frequency, and designs sequences that are as compact
in time as possible for a prescribed periodic frequency spread.  The
designer's tridiagonal machinery doubles as an evaluator for the lowest
even angular eigenfunction ce0 and its characteristic value a0.
"""

from .bounds import eta_lower, eta_upper
from .design import (
    CurvePoint,
    DesignConvergenceError,
    DesignResult,
    UnattainableSpreadError,
    design_max_compact,
    sweep_curve,
)
from .eigen import EigenConvergenceError, EigenPair, min_eigenpair
from .mathieu import MathieuEval, MathieuGridError, ce0, char_value_a0
from .sequence import Sequence, autocorrelation, read_sequence, write_sequence
from .spreads import SpreadReport, measure
from .windows import (
    WindowFamily,
    default_families,
    sampled_gaussian,
    spread_scan,
    standard_windows,
    three_tap,
)

__version__ = "0.1.0"
