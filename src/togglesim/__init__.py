"""Switching-activity profiler for clocked bus traces.

Models a transition-counting bus probe, generates the standard BIST
stimulus streams (Galois/Fibonacci LFSRs, rule-90/150 cellular automata,
binary and gray counters), measures switching activity, applies
low-transition encodings, and estimates CMOS dynamic and static power.
"""

from .activity import (
    ActivityReport,
    ReductionSummary,
    analyze_trace,
    compare_reports,
    switching_activity,
)
from .bits import (
    MAX_WIDTH,
    Trace,
    Word,
    hamming_distance,
    popcount,
    word_from_text,
)
from .encoders import (
    BusLineState,
    bus_invert_decode,
    bus_invert_decode_trace,
    bus_invert_encode,
    bus_invert_encode_trace,
    gray_decode,
    gray_encode,
    gray_encode_trace,
)
from .generators import (
    DEFAULT_TAPS_16,
    GeneratorConfig,
    ca_step,
    counter_step,
    generate,
    lfsr_external_step,
    lfsr_internal_step,
)
from .power import (
    DynamicPowerParams,
    StaticPowerParams,
    dynamic_power,
    leakage_current,
    static_power,
    thermal_voltage,
)
from .trace_io import (
    TraceFileHeader,
    TraceFormatError,
    load_trace,
    parse_trace,
    read_trace,
    render_trace,
    write_report,
)
from .transition_counter import BitTransitionCounter, CycleRecord, run_trace

__version__ = "0.1.0"

__all__ = [
    "ActivityReport",
    "BitTransitionCounter",
    "BusLineState",
    "CycleRecord",
    "DEFAULT_TAPS_16",
    "DynamicPowerParams",
    "GeneratorConfig",
    "MAX_WIDTH",
    "ReductionSummary",
    "StaticPowerParams",
    "Trace",
    "TraceFileHeader",
    "TraceFormatError",
    "Word",
    "analyze_trace",
    "bus_invert_decode",
    "bus_invert_decode_trace",
    "bus_invert_encode",
    "bus_invert_encode_trace",
    "ca_step",
    "compare_reports",
    "counter_step",
    "dynamic_power",
    "generate",
    "gray_decode",
    "gray_encode",
    "gray_encode_trace",
    "hamming_distance",
    "leakage_current",
    "lfsr_external_step",
    "lfsr_internal_step",
    "load_trace",
    "parse_trace",
    "popcount",
    "read_trace",
    "render_trace",
    "run_trace",
    "static_power",
    "switching_activity",
    "thermal_voltage",
    "word_from_text",
    "write_report",
]
