"""Low-transition bus encodings: gray mapping and invert-line signaling.

Both are sequential maps over a trace's words arriving as packed byte chunks
(see `bits`), and `gray_encode_trace` and `bus_invert_encode_trace` wrap
them for a whole `Trace`. `gray_encode_chunks` maps each chunk as one int.
The bus-invert choice depends on the word before, so
`bus_invert_encode_chunks` takes the words in the packs of `bits.packs`
and yields a chunk per pack, each worked in whole-pack big-int steps.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain, repeat

from .bits import MAX_WIDTH, Trace, packs, popcount_slots, restride


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
    each output chunk encodes one pack of words (see `bits.packs`). The first
    word is transmitted unmodified with the invert line low. A width with no
    room for the invert line raises ValueError once every chunk has been
    read, so an error the source of the chunks raises is reported first.

    A word is inverted when more than half the data lines would flip; a tie
    (exactly half) stays uninverted so the invert line keeps quiet. Where h
    raw lines flip, h sent lines flip after an uninverted word and
    width - h after an inverted one, so the invert line toggles where
    2h > width and drops where 2h == width: a prefix XOR restarted at each
    tie, which a scan (Blelloch, "Prefix sums and their applications",
    CMU-CS-90-190, 1990) computes a pack at a time in a few big-int steps.
    """
    if width >= MAX_WIDTH:
        for _ in chunks:
            pass
        raise ValueError(
            f"bus-invert needs one extra line above the {width} data lines, "
            f"but bus width is capped at MAX_WIDTH={MAX_WIDTH}"
        )
    size, out = (width + 7) // 8, width // 8 + 1  # bytes per raw and per encoded word
    chunks = iter(chunks)
    first = next(filter(None, chunks), None)
    if first is None:
        return
    inverted = 0  # the invert line of the last word sent
    # the first word goes first against itself, so it flips no line
    for words in packs(width, chain((first[:size], first), chunks)):
        n = len(words) // size - 1
        data = restride(words, size, out)  # the pack as encoded words, invert line low
        packed = int.from_bytes(data, "big")
        diffs = (packed ^ packed >> 8 * out).to_bytes(len(data), "big")[out:]  # as in transfer_diffs
        # 0x8000 + 2h - width per word in a 2-byte slot: its bit 15 is set
        # where 2h >= width and, less 1, where 2h > width
        ones = int.from_bytes(b"\0\1" * n, "big")
        twice = 2 * popcount_slots(width + 1, diffs) + (0x8000 - width) * ones
        toggles = (twice - ones) >> 15 & ones
        flags = (toggles << 8 | twice >> 15 & ones ^ toggles).to_bytes(2 * n, "big")
        # a byte per word: 1 where the invert line toggles, and where a tie drops it
        line, tie = int.from_bytes(flags[::2], "big"), int.from_bytes(flags[1::2], "big")
        reach = 8
        while reach < 8 * n:  # line: the toggles XORed since the last tie
            line ^= line >> reach & ~tie
            tie |= tie >> reach  # tie: whether a tie came at or before the word
            reach *= 2
        if inverted:  # up to the pack's first tie, the last pack's line holds
            line ^= int.from_bytes(b"\1" * n, "big") & ~tie
        inverted = line & 1
        # 1 at the bottom of each word to invert, and from it a mask of its
        # data and invert lines; the pack's first word, sent before, gets none
        lows = int.from_bytes(restride(b"\0" + line.to_bytes(n, "big"), 1, out), "big")
        yield (packed ^ (lows << width + 1) - lows).to_bytes(len(data), "big")[out:]


def bus_invert_encode_trace(trace: Trace) -> Trace:
    """Re-encode a raw trace as it would appear on invert-signaled lines;
    see bus_invert_encode_chunks."""
    encoded = bus_invert_encode_chunks(trace.width, trace.chunks())
    return Trace.from_chunks(trace.width + 1, encoded)
