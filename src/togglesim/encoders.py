"""Low-transition bus encodings: gray mapping and invert-line signaling.

Both are sequential maps over a trace's words arriving as packed byte chunks
(see `bits`): `gray_encode_chunks` and `bus_invert_encode_chunks` map each
chunk to a chunk as it arrives, and `gray_encode_trace` and
`bus_invert_encode_trace` wrap them for a whole `Trace`. The gray map works
on a chunk as one int; the bus-invert choice depends on the word before, so
it unpacks each chunk to ints and packs the result.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import repeat

from .bits import MAX_WIDTH, Trace, pack, unpack


def gray_to_binary(g: int) -> int:
    """Inverse of the gray map: prefix XOR from the MSB down, in doubling strides."""
    shift = 1
    while g >> shift:
        g ^= g >> shift
        shift <<= 1
    return g


def gray_map(width: int, chunk: bytes) -> bytes:
    """Reflected-binary code of every `width`-bit word of `chunk`, g = v ^ (v >> 1)
    per word: one shift of the whole chunk, masked so that no word takes a bit
    from the word after it."""
    size = (width + 7) // 8
    # every bit of a word but its top one, which the shift fills from outside the word
    mask = ((1 << (width - 1)) - 1).to_bytes(size, "big") * (len(chunk) // size)
    packed = int.from_bytes(chunk, "big")
    return (packed ^ ((packed >> 1) & int.from_bytes(mask, "big"))).to_bytes(len(chunk), "big")


def gray_encode_chunks(width: int, chunks: Iterable[bytes]) -> Iterator[bytes]:
    """Gray-map every word of every chunk (an address-bus style recoding)."""
    return map(gray_map, repeat(width), chunks)


def gray_encode_trace(trace: Trace) -> Trace:
    """Gray-map every word of a trace (an address-bus style recoding)."""
    return Trace.from_chunks(trace.width, gray_encode_chunks(trace.width, trace.chunks()))


def bus_invert_encode_chunks(width: int, chunks: Iterable[bytes]) -> Iterator[bytes]:
    """Re-encode the `width`-bit words of a raw trace, arriving in chunks,
    as they would appear on invert-signaled lines (Stan and Burleson,
    "Bus-Invert Coding for Low-Power I/O", IEEE TVLSI 1995).

    Output words are one bit wider, the invert line being the extra MSB, and
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
    inverted = full | 1 << width  # the data lines and the invert line
    half = width // 2
    lines = None  # what the data lines currently carry
    for chunk in chunks:
        values = unpack(width, chunk)
        if lines is None and values:
            lines = values[0]  # the first word then flips no line and is sent as it is
        encoded = []
        for raw in values:
            # invert when more than half the lines would flip; a tie (exactly
            # half) stays uninverted so the invert line keeps quiet
            word = raw ^ inverted if (lines ^ raw).bit_count() > half else raw
            lines = word & full
            encoded.append(word)
        yield pack(width + 1, encoded)


def bus_invert_encode_trace(trace: Trace) -> Trace:
    """Re-encode a raw trace as it would appear on invert-signaled lines;
    see bus_invert_encode_chunks."""
    encoded = bus_invert_encode_chunks(trace.width, trace.chunks())
    return Trace.from_chunks(trace.width + 1, encoded)
