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
`run_trace`, are `popcounts` of the packs of `transfer_diffs`; bus-invert
also takes `packs`. `cmd_analyze` is the `analyze` command's body.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import chain, repeat

from . import UsageError, stdio
from .bits import Record, chunk_words, machine_words

# The fewest words in a pack of transfers (see packs), so that a pack's
# Python steps per line or per byte lane are spread over many words at every
# width; at least 2, so that every pack holds a transfer.
PACK_WORDS = 2048

_POPCOUNTS = bytes(map(int.bit_count, range(256)))


def popcount_slots(width: int, chunk: bytes) -> int:
    """The set bits of each `width`-bit word of `chunk`, each in a 2-byte
    slot of one big-endian int: one translate maps each byte to its
    popcount, and byte lane j (byte j of every word) is read as one int. Up
    to 31 lanes add with no carry out of a byte (31 * 8 < 256); the groups'
    sums, spread to 2-byte slots, add with no carry out of a slot
    (MAX_WIDTH < 2 ** 16)."""
    size = (width + 7) // 8
    bits, spread, total = chunk.translate(_POPCOUNTS), bytearray(2 * len(chunk) // size), 0
    for start in range(0, size, 31):
        lanes = (bits[j::size] for j in range(start, min(start + 31, size)))
        group = sum(map(int.from_bytes, lanes, repeat("big")))
        spread[1::2] = group.to_bytes(len(spread) // 2, "big")
        total += int.from_bytes(spread, "big")
    return total


def popcounts(width: int, chunk: bytes):
    """The set bits of each `width`-bit word of `chunk`, as an array('H')."""
    slots = popcount_slots(width, chunk).to_bytes(2 * len(chunk) // ((width + 7) // 8), "big")
    return machine_words(2, slots)


def packs(width: int, chunks: Iterable[bytes]) -> Iterator[bytearray]:
    """The words of the trace in `chunks` in packs of chunk_words(width) or
    PACK_WORDS words, whichever is more, or more still, each pack starting
    with the last word of the one before, so that each transfer lies in one
    pack. A trace of one word makes no pack."""
    size, words = (width + 7) // 8, bytearray()  # the pack being gathered
    full = max(PACK_WORDS, chunk_words(width)) * size
    for chunk in chain(chunks, [b""]):  # an empty chunk ends a pack: the last one, say
        words += chunk
        if len(words) >= full or not chunk and len(words) > size:
            yield words
            words = words[-size:]


def transfer_diffs(width: int, chunks: Iterable[bytes]) -> Iterator[bytes]:
    """The flipped lines of each transfer of the trace in `chunks`, a chunk
    per pack (see packs). A pack read as one int, XORed with itself shifted
    down one word, holds each transfer's flips in the slot of its second
    word."""
    size = (width + 7) // 8
    for words in packs(width, chunks):
        packed = int.from_bytes(words, "big")
        yield (packed ^ (packed >> (8 * size))).to_bytes(len(words), "big")[size:]


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


def _analyze_stream(stream, args) -> ActivityReport:
    """The ActivityReport of the trace in `stream`: reader, then the encoder
    `args` names, then the toggle fold, one chunk of the trace at a time."""
    from .trace_io import read_chunks

    width, chunks = read_chunks(stream)
    if args.encode == "gray":
        from .encoders import gray_encode_chunks

        chunks = gray_encode_chunks(width, chunks)
    elif args.encode == "businvert":
        from .encoders import bus_invert_encode_chunks

        chunks, width = bus_invert_encode_chunks(width, chunks), width + 1
    return analyze_chunks(width, chunks, include_per_cycle=args.per_cycle)


def cmd_analyze(args) -> None:
    """The `analyze` command: report on the trace its parsed command line names."""
    from .trace_io import report_pieces

    if args.per_cycle and args.format == "csv":
        raise UsageError("--per-cycle has no csv form; use --format table or json")
    if args.trace == "-":
        report = _analyze_stream(stdio("stdin").buffer, args)
    else:
        with open(args.trace, "rb") as fh:
            report = _analyze_stream(fh, args)
    stdio("stdout").writelines(report_pieces(report, args.format))


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
