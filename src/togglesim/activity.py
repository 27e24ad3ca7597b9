"""Switching-activity measurement over bus traces.

The activity factor of a trace is the observed bit transitions divided by
the total transferable bits, width times the number of word-to-word
transfers. It is 1.0 when every line flips on every transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

from .bits import Trace


@dataclass(frozen=True)
class ActivityReport:
    """Whole-trace switching summary. per_bit_toggles[i] counts flips of bit i."""

    width: int
    transfers: int
    total_transitions: int
    tau: float
    per_bit_toggles: tuple[int, ...]
    per_cycle: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ReductionSummary:
    """How much quieter trace B is than baseline trace A."""

    tau_before: float
    tau_after: float
    tau_delta: float
    relative_reduction: float
    transitions_delta: int


def switching_activity(total_transitions: int, width: int, transfers: int) -> float:
    """Activity factor: transitions / (width * transfers), in [0, 1]."""
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if transfers < 1:
        raise ValueError(f"need at least one transfer, got {transfers}")
    if not 0 <= total_transitions <= width * transfers:
        raise ValueError(
            f"{total_transitions} transitions exceed capacity "
            f"{width}x{transfers}={width * transfers}"
        )
    return total_transitions / (width * transfers)


def analyze_trace(trace: Trace, include_per_cycle: bool = False) -> ActivityReport:
    """Count transitions over consecutive word pairs of a trace."""
    if len(trace) < 2:
        raise ValueError("trace too short: need at least 2 words to observe a transfer")
    width = trace.width
    toggles = [0] * width
    per_cycle: list[int] = []
    total = 0
    for prev, cur in pairwise(trace.values):
        diff = prev ^ cur
        count = diff.bit_count()
        total += count
        per_cycle.append(count)
        while diff:
            low = diff & -diff
            toggles[low.bit_length() - 1] += 1
            diff ^= low
    return ActivityReport(
        width=width,
        transfers=trace.transfers,
        total_transitions=total,
        tau=switching_activity(total, width, trace.transfers),
        per_bit_toggles=tuple(toggles),
        per_cycle=tuple(per_cycle) if include_per_cycle else None,
    )


def compare_reports(a: ActivityReport, b: ActivityReport) -> ReductionSummary:
    """Relative activity reduction of b against baseline a."""
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} vs {b.width}")
    if a.tau == 0:
        raise ZeroDivisionError("baseline activity is zero; reduction undefined")
    return ReductionSummary(
        tau_before=a.tau,
        tau_after=b.tau,
        tau_delta=a.tau - b.tau,
        relative_reduction=(a.tau - b.tau) / a.tau,
        transitions_delta=a.total_transitions - b.total_transitions,
    )


def rounded_display(transitions: int, width: int, transfers: int, decimals: int) -> str:
    """Activity rounded half-up to `decimals` places, via exact integer math."""
    denominator = width * transfers
    scale = 10**decimals
    scaled = (2 * transitions * scale + denominator) // (2 * denominator)
    return f"{scaled // scale}.{scaled % scale:0{decimals}d}"
