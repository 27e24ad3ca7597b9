"""Switching-activity measurement over bus traces.

The activity factor of a trace is the observed bit transitions divided by
the total transferable bits, width times the number of word-to-word
transfers. It is 1.0 when every line flips on every transfer.
"""

from __future__ import annotations

from itertools import repeat

from .bits import Record, Trace, transfer_counts

# Transfers folded per packed chunk: big enough that the per-chunk Python
# steps are negligible, small enough that a chunk's transient ints and bytes
# stay under 1 MiB for buses up to 64 lines (about 2.7 MiB at 1024).
CHUNK_TRANSFERS = 4096


class ActivityReport(Record):
    """Whole-trace switching summary. per_bit_toggles[i] counts flips of bit i."""

    __slots__ = (
        "width", "transfers", "total_transitions", "tau", "per_bit_toggles", "per_cycle"
    )

    def __init__(self, width: int, transfers: int, total_transitions: int, tau: float,
                 per_bit_toggles: tuple[int, ...],
                 per_cycle: tuple[int, ...] | None = None) -> None:
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "transfers", transfers)
        object.__setattr__(self, "total_transitions", total_transitions)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "per_bit_toggles", per_bit_toggles)
        object.__setattr__(self, "per_cycle", per_cycle)


class ReductionSummary(Record):
    """How much quieter trace B is than baseline trace A."""

    __slots__ = (
        "tau_before", "tau_after", "tau_delta", "relative_reduction", "transitions_delta"
    )

    def __init__(self, tau_before: float, tau_after: float, tau_delta: float,
                 relative_reduction: float, transitions_delta: int) -> None:
        object.__setattr__(self, "tau_before", tau_before)
        object.__setattr__(self, "tau_after", tau_after)
        object.__setattr__(self, "tau_delta", tau_delta)
        object.__setattr__(self, "relative_reduction", relative_reduction)
        object.__setattr__(self, "transitions_delta", transitions_delta)


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

    The values are folded in chunks of CHUNK_TRANSFERS transfers; neighbouring
    chunks share one word, so each transfer is counted once. A chunk's words
    are packed little-endian into one int of `size` = ceil(width/8) bytes per
    word, and XOR with itself shifted down one word puts each transfer's
    flipped lines in the slot of its first word. Byte lane j of those slots,
    taken as one int, holds lines 8j..8j+7 of every transfer; line 8j+k's
    toggles in the chunk are the popcount of that lane masked to bit k of
    every byte. The work per chunk is a few whole-chunk big-int operations
    per line, and the transient memory is bounded by the chunk, not the trace.
    """
    if len(trace) < 2:
        raise ValueError("trace too short: need at least 2 words to observe a transfer")
    width = trace.width
    values = trace.values
    transfers = trace.transfers
    chunk = CHUNK_TRANSFERS
    size = (width + 7) // 8
    ones = int.from_bytes(b"\x01" * min(chunk, transfers), "little")
    masks = [ones << k for k in range(8)]
    toggles = [0] * width
    for start in range(0, transfers, chunk):
        words = values[start : start + chunk + 1]
        packed = int.from_bytes(
            b"".join(map(int.to_bytes, words, repeat(size), repeat("little"))), "little"
        )
        stop = size * (len(words) - 1)  # the last slot holds a word, not a transfer
        diffs = (packed ^ (packed >> (8 * size))).to_bytes(stop + size, "little")
        for j in range(size):
            lane = int.from_bytes(diffs[j:stop:size], "little")
            for line in range(8 * j, min(8 * j + 8, width)):
                toggles[line] += (lane & masks[line % 8]).bit_count()
    total = sum(toggles)
    per_cycle = None
    if include_per_cycle:
        per_cycle = tuple(transfer_counts(values))
    return ActivityReport(
        width=width,
        transfers=transfers,
        total_transitions=total,
        tau=switching_activity(total, width, transfers),
        per_bit_toggles=tuple(toggles),
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
