"""Trace file parsing and rendering, plus activity-report serialization.

Trace text format, chosen for hand-editability of small fixtures:

    # comments start with '#', blank lines are skipped
    width=16 radix=hex      <- first significant line, the header
    0000                    <- one word per line
    0303
    0F03

Leading and trailing whitespace is stripped from every line, and lines end
where `str.splitlines` ends them. `radix` is `bin` (MSB-first binary) or
`hex` (case-insensitive on input, rendered uppercase and zero-padded).

Both directions stream, one packed chunk (see `bits`) at a time, so a
reader or writer of any trace holds one block of text and its words.
`read_chunks` reads a stream in blocks of about `CHUNK_BYTES` bytes, each
cut after a line break. A clean block, one full-width word per line ended
by "\n" as `render_chunks` writes it or by "\r\n", is parsed whole by one
`int()` or `bytes.fromhex`, and so is the rest of the header's block when
it is clean. Any other block (a comment, a blank line, a word short of its
digits) has its word lines zero-filled and parsed the same way; only a
block with a bad word is walked, to name the line a whole-text parse would.
`render_chunks` writes a chunk as its hex form, for binary after spreading
each bit to a nibble. `parse_trace`, `read_trace`, `load_trace` and
`render_trace` wrap them for whole `Trace`s.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from functools import lru_cache
from io import IOBase, StringIO, TextIOBase
from itertools import islice, repeat

from .bits import CHUNK_BYTES, Record, Trace, check_width, word_from_text

REPORT_FORMATS = ("json", "csv", "table")

_RADIX_BY_NAME = {"bin": 2, "hex": 16}
_NAME_BY_RADIX = {2: "bin", 16: "hex"}
_HEADER_RE = re.compile(r"^width=(\d+)\s+radix=(bin|hex)$")
_DIGITS = {2: b"01", 16: b"0123456789abcdefABCDEF"}


class TraceFormatError(ValueError):
    """Malformed trace text; the message names the offending line."""


class TraceFileHeader(Record):
    __slots__ = ("width", "radix")

    def __init__(self, width: int, radix: int) -> None:
        check_width(width)
        if radix not in _NAME_BY_RADIX:
            raise ValueError(f"radix must be 2 or 16, got {radix}")
        super().__init__(width, radix)

    def render(self) -> str:
        return f"width={self.width} radix={_NAME_BY_RADIX[self.radix]}"

    @property
    def digits(self) -> int:
        """The digits of a word written in full."""
        return self.width if self.radix == 2 else (self.width + 3) // 4


def _blocks(stream: IOBase) -> Iterator[bytes]:
    """The stream's bytes in blocks of about CHUNK_BYTES read, each block
    but the last ending in a line break, so that every block starts a line
    and decodes on its own; the characters of a text stream are read as
    their UTF-8 bytes. A line longer than a block makes the next read as
    long as that line, so no byte is copied more than a few times. (A text
    whose only line breaks are the rare ones str.splitlines also knows, such
    as "\x1c" or "\u2028", is read as one block.)
    """
    carry = b""
    while data := stream.read(max(CHUNK_BYTES, len(carry))):
        if isinstance(data, str):
            data = data.encode("utf-8", "surrogatepass")
        block = carry + data if carry else data
        # after the last "\n", or else the last "\r" that no "\n" can follow
        cut = block.rfind(b"\n") + 1 or block.rfind(b"\r", 0, -1) + 1
        carry = block[cut:]
        if cut:
            yield block[:cut]
    if carry:
        yield carry


def _decode(block: bytes, count: int, errors: str) -> str:
    """The text of `block`, whose first line is line `count` + 1; a byte
    that is not UTF-8 raises TraceFormatError naming its line."""
    try:
        return block.decode("utf-8", errors)
    except UnicodeDecodeError as exc:
        lineno = count + len((block[: exc.start].decode("utf-8") + "x").splitlines())
        raise TraceFormatError(
            f"line {lineno}: byte 0x{block[exc.start]:02X} is not UTF-8 "
            f"text ({exc.reason})"
        ) from exc


def _clean_words(block: bytes, header: TraceFileHeader) -> bytes | None:
    """The words of `block` as a chunk if the block is clean, else None.

    A clean block is one word per line, each of exactly as many digits as
    the header's width takes and ended by "\n" or "\r\n", and no hex word
    above the width. It is then pure ASCII, and is parsed by one int()
    (binary) or bytes.fromhex (hex) over the whole block. Binary words get
    the zero bits that pad them to whole bytes as "0" digits before the
    newlines are dropped, and a hex word of odd length gets one "0" digit.
    """
    block = block.replace(b"\r\n", b"\n")  # the same object when there is none
    width, radix, digits = header.width, header.radix, header.digits
    n, rest = divmod(len(block), digits + 1)
    newlines = b"\n" * n
    if (
        rest or not n
        or block[digits :: digits + 1] != newlines
        or block.translate(None, _DIGITS[radix]) != newlines
    ):
        return None
    size = (width + 7) // 8
    if radix == 2:
        pad = 8 * size - width
        return (int(block.replace(b"\n", b"0" * pad), 2) >> pad).to_bytes(n * size, "big")
    text = block.decode("ascii")
    if digits % 2:
        text = "0" + text[:-1].replace("\n", "\n0")
    words = bytes.fromhex(text)
    if width % 4 and max(words[::size]) >> (width - 8 * size + 8):
        return None  # a word above the width, which the walk names
    return words


def _significant(lines: list[str], lineno: int) -> Iterator[tuple[int, str]]:
    """The number and stripped text of each line of `lines`, the first being
    line `lineno`, that is neither blank nor a comment."""
    for lineno, line in enumerate(map(str.strip, lines), start=lineno):
        if line and line[0] != "#":
            yield lineno, line


def _header(line: str, lineno: int) -> TraceFileHeader:
    """The header whose text is `line`, line `lineno` of the trace."""
    match = _HEADER_RE.match(line)
    if not match:
        raise TraceFormatError(
            f"line {lineno}: expected header 'width=<n> radix=<bin|hex>', got {line!r}"
        )
    try:
        return TraceFileHeader(int(match.group(1)), _RADIX_BY_NAME[match.group(2)])
    except ValueError as exc:
        raise TraceFormatError(f"line {lineno}: {exc}") from exc


def _words(lines: list[str], lineno: int, header: TraceFileHeader) -> bytes:
    """The words of the word lines among `lines`, the first being line
    `lineno`, as a chunk (b"" if none): zero-filled to the header's digits
    and parsed as one clean block (see _clean_words). That fails only on a
    word that word_from_text rejects, and the walk then names the first."""
    words = [line for _, line in _significant(lines, lineno)]
    text = "\n".join(map(str.rjust, words, repeat(header.digits), repeat("0"))) + "\n"
    chunk = _clean_words(text.encode("utf-8", "surrogatepass"), header) if words else b""
    if chunk is not None:
        return chunk
    for lineno, line in _significant(lines, lineno):
        try:
            word_from_text(line, header.radix, header.width)
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc
    raise AssertionError("the words failed the clean parse, but each passed word_from_text")


def _parse(stream: IOBase) -> Iterator[TraceFileHeader | bytes]:
    """The header of the trace in `stream`, then its words, one non-empty
    chunk per block read.

    The header is the first significant line; the rest of its block is
    parsed as the blocks after it are. A block is parsed whole when it is
    clean (see _clean_words); any other block is decoded and parsed by
    _words. A format error is raised once the rest of the stream
    has been decoded, so a byte that is not UTF-8 anywhere in it is reported
    first, as it is when the whole stream is decoded before parsing.
    """
    errors = "surrogatepass" if isinstance(stream, TextIOBase) else "strict"
    blocks = _blocks(stream)
    count = 0  # the lines before the text still to parse
    header = None
    empty = True
    try:
        for block in blocks:
            if header is None:
                lines = _decode(block, count, errors).splitlines(keepends=True)
                first, count = count + 1, count + len(lines)
                found = next(_significant(lines, first), None)
                if found is None:
                    continue
                lineno, line = found
                header = _header(line, lineno)
                yield header
                # the rest of the header's block, parsed as any other block
                count = lineno
                block = "".join(lines[lineno - first + 1 :]).encode("utf-8", "surrogatepass")
            words = _clean_words(block, header)
            if words is None:
                lines = _decode(block, count, errors).splitlines()
                first, count = count + 1, count + len(lines)
                words = _words(lines, first, header)
            else:
                count += len(words) // ((header.width + 7) // 8)  # one word per line
            if words:
                empty = False
                yield words
        if header is None:
            raise TraceFormatError("missing header 'width=<n> radix=<bin|hex>'")
        if empty:
            raise TraceFormatError("empty trace: no words after the header")
    except TraceFormatError as exc:
        # decode the rest, so that a byte that is not UTF-8 anywhere is
        # reported first; a decode error already names the first such byte
        if not isinstance(exc.__cause__, UnicodeDecodeError):
            for block in blocks:
                count += len(_decode(block, count, errors).splitlines())
        raise


def read_chunks(stream: IOBase) -> tuple[int, Iterator[bytes]]:
    """Start reading a trace from a readable text or byte stream.

    Returns the header's width, once the header has been read, and an
    iterator over the trace's words: one validated, non-empty chunk (see
    `bits`) per block of about CHUNK_BYTES read. The stream is read as the
    iterator is advanced. A TraceFormatError names the first bad line, and
    comes only after the rest of the stream has been decoded.
    """
    chunks = _parse(stream)
    return next(chunks).width, chunks


def read_trace(stream: IOBase) -> Trace:
    """Parse a trace from a readable text or byte stream."""
    return Trace.from_chunks(*read_chunks(stream))


def parse_trace(text: str) -> Trace:
    """Parse trace text into a Trace; raises TraceFormatError with line numbers."""
    return read_trace(StringIO(text))


def load_trace(path: str) -> Trace:
    with open(path, "rb") as fh:
        return read_trace(fh)


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
    header = TraceFileHeader(width, radix)
    yield header.render() + "\n"
    size = (width + 7) // 8
    line = (8 if radix == 2 else 2) * size + 1  # a word's whole-byte digits and "\n"
    pad = line - 1 - header.digits
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


def _spread_bits(chunk: bytes) -> bytes:
    """`chunk` with bit i of every byte moved to bit 4i of four bytes."""
    spread = bytearray(4 * len(chunk))
    spread[3::4] = chunk
    value = int.from_bytes(spread, "big")
    for shift, mask in _spread_masks(len(chunk)):
        value = (value | value << shift) & mask
    return value.to_bytes(len(spread), "big")


@lru_cache(maxsize=1)  # chunks mostly come in one length
def _spread_masks(length: int) -> tuple[tuple[int, int], ...]:
    """_spread_bits's three shift and mask steps for a chunk of `length` bytes:
    each byte's high nibble to the high half of its four bytes, then each
    bit pair to a byte of its own, then each bit to a nibble."""
    return tuple(
        (shift, int.from_bytes(mask * length, "big"))
        for shift, mask in ((12, b"\x00\x0f\x00\x0f"), (6, b"\x03\x03\x03\x03"),
                            (3, b"\x11\x11\x11\x11"))
    )


def render_trace(trace: Trace, radix: int = 2) -> str:
    """Canonical text form; parse_trace(render_trace(t)) == t."""
    return "".join(render_chunks(trace.width, trace.chunks(), radix))


_JOIN_SLICE = 4096  # pieces joined per str.join


def _joined(pieces: Iterable[str], sep: str = "") -> str:
    """`sep.join(pieces)`, joined a slice at a time, so that only one slice
    of pieces is alive at once, not all of them: at 10^6 per-transfer
    counts, one str each, those are most of a report's memory."""
    pieces = iter(pieces)
    slices = iter(lambda: list(islice(pieces, _JOIN_SLICE)), [])
    return sep.join(map(sep.join, slices))


def write_report(report, format: str = "table") -> str:
    """Serialize an ActivityReport; json key set is stable for tooling."""
    from .activity import rounded_display  # here: `gen` runs without `activity`

    tau_display = rounded_display(
        report.total_transitions, report.width, report.transfers, 2
    )
    if format == "json":
        import json  # here, not at the top: only json reports need it

        payload = {
            "width": report.width,
            "transfers": report.transfers,
            "total_transitions": report.total_transitions,
            "tau": report.tau,
            "tau_display": float(tau_display),
            "per_bit_toggles": list(report.per_bit_toggles),
        }
        if report.per_cycle is not None:
            payload["per_cycle"] = report.per_cycle  # a tuple encodes as a list
        # json.dumps(payload, indent=2) joins these pieces, one per count, at once
        return _joined(json.JSONEncoder(indent=2).iterencode(payload)) + "\n"
    if format == "csv":
        # no field can hold a comma, quote or newline, so none needs quoting
        rows = ["line,toggles,width,transfers,tau"]
        rows += (f"bit{i},{count},,," for i, count in enumerate(report.per_bit_toggles))
        rows.append(f"summary,{report.total_transitions},{report.width},{report.transfers},"
                    f"{report.tau!r}")
        return "\n".join(rows) + "\n"
    if format == "table":
        lines = [
            f"lines               {report.width}",
            f"transfers           {report.transfers}",
            f"total transitions   {report.total_transitions}",
            f"switching activity  {tau_display}",
            "per-bit toggles     "
            + " ".join(
                f"bit{i}={report.per_bit_toggles[i]}"
                for i in reversed(range(report.width))
            ),
        ]
        if report.per_cycle is not None:
            lines.append("per-transfer counts " + _joined(map(str, report.per_cycle), " "))
        return "\n".join(lines) + "\n"
    raise ValueError(f"format must be one of {REPORT_FORMATS}, got {format!r}")
