"""Low-transition bus encodings: gray mapping and invert-line signaling."""

from __future__ import annotations

from dataclasses import dataclass

from .bits import MAX_WIDTH, Trace, Word


def binary_to_gray(n: int) -> int:
    """Reflected-binary code of n: each increment of n flips one bit."""
    return n ^ (n >> 1)


def gray_to_binary(g: int) -> int:
    """Inverse of binary_to_gray: prefix XOR from the MSB down, in doubling strides."""
    shift = 1
    while g >> shift:
        g ^= g >> shift
        shift <<= 1
    return g


def gray_encode(w: Word) -> Word:
    """Reflected-binary code: each increment of the source flips one bit."""
    return Word(w.width, binary_to_gray(w.value))


def gray_decode(g: Word) -> Word:
    """Inverse of gray_encode."""
    return Word(g.width, gray_to_binary(g.value))


@dataclass(frozen=True)
class BusLineState:
    """What is physically on the wires: data lines plus the invert line."""

    word: Word
    invert: bool


def _inverts(lines: int, raw: int, width: int) -> bool:
    """Invert `raw` when more than half of `width` lines would flip from `lines`;
    a tie (exactly half) stays uninverted so the invert line keeps quiet."""
    return 2 * (lines ^ raw).bit_count() > width


def bus_invert_encode(prev: BusLineState, next_raw: Word) -> BusLineState:
    """Choose the next line state for `next_raw` given the current lines;
    see `_inverts` for the rule."""
    if prev.word.width != next_raw.width:
        raise ValueError(f"width mismatch: {prev.word.width} vs {next_raw.width}")
    if _inverts(prev.word.value, next_raw.value, next_raw.width):
        return BusLineState(next_raw.complement(), True)
    return BusLineState(next_raw, False)


def bus_invert_decode(line: BusLineState) -> Word:
    """Recover the raw word from the line state."""
    return line.word.complement() if line.invert else line.word


def gray_encode_trace(trace: Trace) -> Trace:
    """Gray-map every word of a trace (an address-bus style recoding)."""
    return Trace(trace.width, tuple(map(binary_to_gray, trace.values)))


def bus_invert_encode_trace(trace: Trace) -> Trace:
    """Re-encode a raw trace as it would appear on invert-signaled lines.

    Output words are one bit wider, the invert line being the extra MSB.
    The first word is transmitted unmodified with the invert line low.
    """
    width = trace.width
    if width >= MAX_WIDTH:
        raise ValueError(
            f"bus-invert needs one extra line above the {width} data lines, "
            f"but bus width is capped at MAX_WIDTH={MAX_WIDTH}"
        )
    full = (1 << width) - 1
    lines = trace.values[0]  # what the data lines currently carry
    encoded = [lines]
    for raw in trace.values[1:]:
        invert = _inverts(lines, raw, width)
        lines = raw ^ full if invert else raw
        encoded.append((invert << width) | lines)
    return Trace(width + 1, tuple(encoded))


def bus_invert_decode_trace(encoded: Trace) -> Trace:
    """Strip the invert line and undo inversions, recovering the raw trace."""
    if encoded.width < 2:
        raise ValueError("encoded trace must carry at least one data line")
    width = encoded.width - 1
    mask = (1 << width) - 1
    return Trace(
        width, tuple((v & mask) ^ mask if v >> width else v for v in encoded.values)
    )
