"""Experiment drivers and result formatting.

Each function in :mod:`repro.analysis.experiments` regenerates the data
behind one of the paper's tables/figures (see DESIGN.md section 3 for
the index); :mod:`repro.analysis.format` renders the same rows/series
the paper reports as text tables and ASCII sparklines so benchmark
output is self-describing.
"""

from repro.analysis.calibration import (
    calibrate_benchmark,
    calibrate_suite,
    check_substitution_claims,
)
from repro.analysis.experiments import (
    ExperimentDefaults,
    bdc_comparison,
    config_from_histogram,
    config_from_run,
    covert_channel_experiment,
    covert_interference_experiment,
    measure_mi_suite,
    respc_context_experiment,
    reqc_speedup_experiment,
    run_alone,
    run_mix,
    tradeoff_sweep,
)
from repro.analysis.format import ascii_series, format_table

__all__ = [
    "ExperimentDefaults",
    "ascii_series",
    "bdc_comparison",
    "calibrate_benchmark",
    "calibrate_suite",
    "check_substitution_claims",
    "config_from_histogram",
    "config_from_run",
    "covert_channel_experiment",
    "covert_interference_experiment",
    "format_table",
    "measure_mi_suite",
    "respc_context_experiment",
    "reqc_speedup_experiment",
    "run_alone",
    "run_mix",
    "tradeoff_sweep",
]
