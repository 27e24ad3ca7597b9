"""Low-transition bus encodings: gray mapping and invert-line signaling.

Both trace encodings are sequential maps over a trace's values: the
`*_chunks` functions map chunks of ints to chunks of ints as they arrive,
and the `*_trace` functions wrap them for a whole `Trace`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .bits import MAX_WIDTH, Record, Trace, Word, chunked


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


class BusLineState(Record):
    """What is physically on the wires: data lines plus the invert line."""

    __slots__ = ("word", "invert")

    def __init__(self, word: Word, invert: bool) -> None:
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "invert", invert)


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


def gray_encode_chunks(chunks: Iterable[Iterable[int]]) -> Iterator[list[int]]:
    """Gray-map every value of every chunk (an address-bus style recoding)."""
    for chunk in chunks:
        yield list(map(binary_to_gray, chunk))


def gray_encode_trace(trace: Trace) -> Trace:
    """Gray-map every word of a trace (an address-bus style recoding)."""
    return Trace.from_chunks(trace.width, gray_encode_chunks(chunked(trace.values, trace.width)))


def bus_invert_encode_chunks(width: int,
                             chunks: Iterable[Sequence[int]]) -> Iterator[list[int]]:
    """Re-encode the `width`-bit values of a raw trace, arriving in chunks,
    as they would appear on invert-signaled lines (Stan and Burleson,
    "Bus-Invert Coding for Low-Power I/O", IEEE TVLSI 1995).

    Output values are one bit wider, the invert line being the extra MSB, and
    each output chunk encodes one input chunk. The first word is transmitted
    unmodified with the invert line low. A width with no room for the invert
    line raises ValueError once every chunk has been read, so an error the
    source of the chunks raises is reported first.
    """
    if width >= MAX_WIDTH:
        for _ in chunks:
            pass
        raise ValueError(
            f"bus-invert needs one extra line above the {width} data lines, "
            f"but bus width is capped at MAX_WIDTH={MAX_WIDTH}"
        )
    full = (1 << width) - 1
    lines = None  # what the data lines currently carry
    for chunk in chunks:
        if lines is None and chunk:
            lines = chunk[0]  # the first word then flips no line and is sent as it is
        encoded = []
        for raw in chunk:
            invert = _inverts(lines, raw, width)
            lines = raw ^ full if invert else raw
            encoded.append((invert << width) | lines)
        yield encoded


def bus_invert_encode_trace(trace: Trace) -> Trace:
    """Re-encode a raw trace as it would appear on invert-signaled lines;
    see bus_invert_encode_chunks."""
    encoded = bus_invert_encode_chunks(trace.width, chunked(trace.values, trace.width))
    return Trace.from_chunks(trace.width + 1, encoded)


def bus_invert_decode_trace(encoded: Trace) -> Trace:
    """Strip the invert line and undo inversions, recovering the raw trace."""
    if encoded.width < 2:
        raise ValueError("encoded trace must carry at least one data line")
    width = encoded.width - 1
    mask = (1 << width) - 1
    return Trace(
        width, tuple((v & mask) ^ mask if v >> width else v for v in encoded.values)
    )
