"""The streaming trace writer, `render_chunks`, which of the CLI commands
only `gen` loads, and `trace_io.render_trace` where it renders a `Trace`.
It writes the header line itself, so that `gen` loads no `trace_io`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .bits import RADIXES, check_radix, check_width, word_digits

# _spread_bits's tables: table k maps a byte to byte k of its spread, whose
# nibbles are the byte's bits 7 - 2k and 6 - 2k; so it runs 0, 1, 0x10,
# 0x11, each value held while the bits below that pair count through.
_SPREAD = [b"".join(bytes([v]) * 4 ** (3 - k) for v in (0, 1, 0x10, 0x11)) * 4 ** k
           for k in range(4)]


def render_chunks(width: int, chunks: Iterable[bytes], radix: int = 2) -> Iterator[str]:
    """Canonical text form of a trace, one string for the header and one per
    chunk (see `bits`); their concatenation parses back to the words.

    Hex is the chunk's own hex form, a newline after every word. For binary,
    each bit of the chunk is first spread to a nibble of its own, so that
    the hex form of the spread chunk is the binary text. Either way every
    word is rendered in whole bytes. Where that pads a word with leading
    zeros, each word's first digit is deleted, once per pad digit, by a
    strided `del` on the chunk's text as a bytearray.
    """
    check_width(width)
    check_radix(radix)
    name = next(name for name, value in RADIXES.items() if value == radix)
    yield f"width={width} radix={name}\n"
    size = (width + 7) // 8
    line = (8 if radix == 2 else 2) * size + 1  # a word's whole-byte digits and "\n"
    pad = line - 1 - word_digits(width, radix)
    for chunk in chunks:
        if radix == 16:
            text = chunk.hex("\n", size).upper() + "\n"
        else:
            text = _spread_bits(chunk).hex("\n", 4 * size) + "\n"
        if pad:
            text = bytearray(text, "ascii")
            for k in range(pad):
                del text[:: line - k]
            text = text.decode("ascii")
        yield text


def _spread_bits(chunk: bytes) -> bytearray:
    """`chunk` with bit i of every byte moved to bit 4i of four bytes: one
    translate per byte of the four, each written to every fourth byte."""
    spread = bytearray(4 * len(chunk))
    for k, table in enumerate(_SPREAD):
        spread[k::4] = chunk.translate(table)
    return spread
