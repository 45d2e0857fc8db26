"""Two-photon correlations of one-way (circular) N-level cascades.

Analytic closed forms and spectral propagation for g2(tau) between any
transitions of the ring, a stochastic jump-process simulator, a
coincidence-histogram estimator and peak/violation analysis tools.
"""

from .model import (
    CascadeError,
    CascadeSpec,
    ConfigInvalid,
    CorrelationTrace,
    EventStream,
    InsufficientSamples,
    NumericalFailure,
    StreamInvariantViolation,
    SubsetSpec,
    steady_state,
    trace_index,
)
from .analytic_equal import (
    bundle_peak,
    g2_equal,
    g2_equal_pair,
    g2_subset,
    small_tau_leading,
)
from .spectral_general import (
    OscillationRegime,
    SpectralDecomposition,
    decompose,
    g2_general,
    g2_three_level,
    generator_matrix,
    oscillation_condition,
)
from .stochastic import (
    SimConfig,
    read_event_blocks,
    read_events_binary,
    read_events_text,
    simulate,
    simulate_to_file,
    write_events_binary,
    write_events_text,
)
from .estimator import (
    HistogramConfig,
    block_bootstrap_stderr,
    correlate,
    correlate_blocks,
    correlate_subset,
    write_trace_csv,
)
from .analysis import (
    Peak,
    PeakReport,
    ViolationReport,
    ViolationSample,
    cs_check,
    discontinuity,
    find_peaks,
    find_peaks_cross,
)

__version__ = "0.1.0"
