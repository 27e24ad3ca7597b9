"""Low-transition bus encodings: gray mapping and invert-line signaling.

Both are sequential maps over a trace's int values: `gray_encode_chunks`
and `bus_invert_encode_chunks` map chunks of ints to chunks of ints as they
arrive, and `gray_encode_trace` and `bus_invert_encode_trace` wrap them for
a whole `Trace`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .bits import MAX_WIDTH, Trace, chunked


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
            # invert when more than half the lines would flip; a tie (exactly
            # half) stays uninverted so the invert line keeps quiet
            invert = 2 * (lines ^ raw).bit_count() > width
            lines = raw ^ full if invert else raw
            encoded.append((invert << width) | lines)
        yield encoded


def bus_invert_encode_trace(trace: Trace) -> Trace:
    """Re-encode a raw trace as it would appear on invert-signaled lines;
    see bus_invert_encode_chunks."""
    encoded = bus_invert_encode_chunks(trace.width, chunked(trace.values, trace.width))
    return Trace.from_chunks(trace.width + 1, encoded)

