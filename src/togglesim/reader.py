"""The streaming trace reader, which of the CLI commands only `analyze`
loads. `read_chunks` reads a stream in the format of `trace_io` in blocks
of about `CHUNK_BYTES` bytes, each cut after a line break. A clean block,
one full-width word per line ended by "\n" as `render_chunks` writes it or
by "\r\n", is parsed whole by one `int()` or `bytes.fromhex`, and so is
the rest of the header's block when it is clean. Any other block (a
comment, a blank line, a word short of its digits) has its word lines
zero-filled and parsed the same way; only a block with a bad word is
walked, to name the line a whole-text parse would.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from io import IOBase, TextIOBase
from itertools import repeat

from .bits import CHUNK_BYTES, word_from_text
from .trace_io import TraceFileHeader, TraceFormatError

_RADIX_BY_NAME = {"bin": 2, "hex": 16}
_HEADER_RE = re.compile(r"^width=(\d+)\s+radix=(bin|hex)$")
_DIGITS = {2: b"01", 16: b"0123456789abcdefABCDEF"}


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
    if b"\r" in block:  # one memchr, far cheaper than the replace's search
        block = block.replace(b"\r\n", b"\n")
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
