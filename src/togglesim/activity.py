"""Switching-activity measurement over bus traces.

The activity factor of a trace is the observed bit transitions divided by
the total transferable bits, width times the number of word-to-word
transfers. It is 1.0 when every line flips on every transfer.

Transitions are counted by one fold, `analyze_chunks`, over a trace's words
arriving as packed byte chunks (see `bits`): from a trace reader, an
encoder or slices of a held `Trace` (`analyze_trace`). It folds the chunk
bytes as they come, keeping the per-line counts and the last word of the
previous pack, so its memory does not grow with the trace unless
per-transfer counts are asked for. Those counts, here and in the probe's
`run_trace`, are `bits.popcounts` of the packs of `transfer_diffs`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from itertools import chain

from .bits import Record, popcounts, transfer_diffs


class ActivityReport(Record, namedtuple("ActivityReport", "width transfers total_transitions "
                                        "tau per_bit_toggles per_cycle", defaults=[None])):
    """Whole-trace switching summary. per_bit_toggles[i] counts flips of bit i."""

    __slots__ = ()


class ReductionSummary(Record, namedtuple("ReductionSummary", "tau_before tau_after tau_delta "
                                          "relative_reduction transitions_delta")):
    """How much quieter trace B is than baseline trace A."""

    __slots__ = ()


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


def analyze_chunks(width: int, chunks: Iterable[bytes],
                   include_per_cycle: bool = False) -> ActivityReport:
    """Count transitions over consecutive word pairs of a trace whose
    `width`-bit words arrive in `chunks` (see `bits`), in order.

    The transfers come a pack at a time from transfer_diffs. Byte lane j of
    a pack, taken as one int, holds lines 8j..8j+7 of every transfer; line
    8j+k's toggles are the popcount of that lane masked to bit k of every
    byte, a few whole-pack big-int operations per line. The transient
    memory is bounded by the pack, not the trace.
    """
    size = (width + 7) // 8
    toggles = [0] * width
    per_cycle = [] if include_per_cycle else None  # one array('H') of counts per pack
    transfers = 0
    for diffs in transfer_diffs(width, chunks):
        n = len(diffs) // size
        transfers += n
        if per_cycle is not None:
            per_cycle.append(popcounts(width, diffs))
        ones = int.from_bytes(b"\x01" * n, "little")
        masks = [ones << k for k in range(min(8, width))]
        for j in range(size):
            lane = int.from_bytes(diffs[size - 1 - j :: size], "little")
            for line in range(8 * j, min(8 * j + 8, width)):
                toggles[line] += (lane & masks[line % 8]).bit_count()
    if transfers < 1:
        raise ValueError("trace too short: need at least 2 words to observe a transfer")
    total = sum(toggles)
    return ActivityReport(
        width=width,
        transfers=transfers,
        total_transitions=total,
        tau=switching_activity(total, width, transfers),
        per_bit_toggles=tuple(toggles),
        per_cycle=None if per_cycle is None else tuple(chain.from_iterable(per_cycle)),
    )


def analyze_trace(trace, include_per_cycle: bool = False) -> ActivityReport:
    """analyze_chunks over the chunks of a held Trace."""
    return analyze_chunks(trace.width, trace.chunks(), include_per_cycle)


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
