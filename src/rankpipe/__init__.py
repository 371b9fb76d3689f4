"""Streaming rank/percentile filter engines.

The core engine resolves the M-th largest of every N-sample data set two
bits per pipeline stage, by counting samples against three subrange
boundaries; multi-channel, sliding, and 9753 ensemble variants scale the
same scheme to image windows.  Everything is simulated clock by clock and
verified against a brute-force sort oracle.
"""

from .core import (
    Engine,
    Stage,
    boundaries,
    comparison_count,
    counter_preset,
    incgen,
    refine,
    run_stream,
    stream_cycles,
)
from .ensembles import (
    Ensemble9753,
    enable_schedule,
    ensemble9753_cycles,
    ensemble9753_results,
    sliding_cycles,
    sliding_window_results,
)
from .imaging import (
    Border,
    Custom,
    Diamond,
    Rect,
    filter_image,
    frame_rate,
    infer_data_bits,
    parse_window,
    percentile_to_rank,
    run_filter,
    window_offsets,
    window_size,
)
from .multichannel import mc_stream_cycles, run_windows
from .oracle import filter_image_oracle, select_desc
from .params import (
    ConfigError,
    CycleOutput,
    FilterParams,
    FramingError,
    McParams,
    PartialMedian,
    SlidingParams,
)

__version__ = "0.1.0"

__all__ = [
    "Border",
    "ConfigError",
    "Custom",
    "CycleOutput",
    "Diamond",
    "Engine",
    "Ensemble9753",
    "FilterParams",
    "FramingError",
    "McParams",
    "PartialMedian",
    "Rect",
    "SlidingParams",
    "Stage",
    "boundaries",
    "comparison_count",
    "counter_preset",
    "enable_schedule",
    "ensemble9753_cycles",
    "ensemble9753_results",
    "filter_image",
    "filter_image_oracle",
    "frame_rate",
    "incgen",
    "infer_data_bits",
    "mc_stream_cycles",
    "parse_window",
    "percentile_to_rank",
    "refine",
    "run_filter",
    "run_stream",
    "run_windows",
    "select_desc",
    "sliding_cycles",
    "sliding_window_results",
    "stream_cycles",
    "window_offsets",
    "window_size",
]
