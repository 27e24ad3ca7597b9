"""Switching-activity measurement over bus traces.

The activity factor of a trace is the observed bit transitions divided by
the total transferable bits, width times the number of word-to-word
transfers. It is 1.0 when every line flips on every transfer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import Trace, transfer_counts, transfer_xors


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
    """Count transitions over consecutive word pairs of a trace.

    Per-line toggle counts are kept bit-sliced: bit i of ``planes[k]`` is
    bit k of line i's running count. Each transfer's XOR is added to every
    line at once by a ripple carry through the planes, so the cost per
    transfer is a few big-int operations however many lines flip.
    """
    if len(trace) < 2:
        raise ValueError("trace too short: need at least 2 words to observe a transfer")
    width = trace.width
    values = trace.values
    planes: list[int] = []
    for carry in transfer_xors(values):
        k = 0
        while carry:
            if k == len(planes):
                planes.append(0)
            plane = planes[k]
            planes[k] = plane ^ carry
            carry &= plane
            k += 1
    toggles = tuple(
        sum(((plane >> bit) & 1) << k for k, plane in enumerate(planes))
        for bit in range(width)
    )
    total = sum(toggles)
    per_cycle = None
    if include_per_cycle:
        per_cycle = tuple(transfer_counts(values))
    return ActivityReport(
        width=width,
        transfers=trace.transfers,
        total_transitions=total,
        tau=switching_activity(total, width, trace.transfers),
        per_bit_toggles=toggles,
        per_cycle=per_cycle,
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
