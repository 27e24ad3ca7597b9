"""Trace file format and rendering, plus activity-report serialization.

Trace text format, chosen for hand-editability of small fixtures:

    # comments start with '#', blank lines are skipped
    width=16 radix=hex      <- first significant line, the header
    0000                    <- one word per line
    0303
    0F03

Leading and trailing whitespace is stripped from every line, and lines end
where `str.splitlines` ends them. One UTF-8 byte-order mark at the very
start of the text is skipped. The header is `width=` and the width in ASCII
digits, whitespace, then `radix=bin` (MSB-first binary) or `radix=hex`
(case-insensitive on input, rendered uppercase and zero-padded).

Both directions stream, one packed chunk (see `bits`) at a time, so a
reader or writer of any trace holds one block of text and its words. The
reader, `read_chunks`, is here, and of the CLI commands only `analyze`
loads this module. The writer, `render_chunks`, is in `togglesim.writer`,
which only `gen` loads and which writes the header line itself.
`read_trace`, `load_trace` and `render_trace` wrap them for whole `Trace`s
(`togglesim.trace`). `report_pieces` writes a report in `REPORT_FORMATS`,
which the CLI grammar writes out, a piece at a time; `write_report` joins it.

`read_chunks` reads a stream in blocks of about `CHUNK_BYTES` bytes, each
cut after a line break. A clean block, one full-width word per line ended
by "\n" as `render_chunks` writes it or by "\r\n", is parsed whole by one
`int()` or `bytes.fromhex`, and so is the rest of the header's block when
it is clean. Any other block (a comment, a blank line, a word short of its
digits) has its word lines zero-filled and parsed the same way; only a
block with a bad word is walked, to name the line a whole-text parse would.
"""

from __future__ import annotations

from collections.abc import Iterator
from io import IOBase, TextIOBase
from itertools import repeat

from .bits import BAD_WIDTH, CHUNK_BYTES, DIGITS, MAX_WIDTH, RADIXES, word_digits, word_from_text

REPORT_FORMATS = ("json", "csv", "table")


class TraceFormatError(ValueError):
    """Malformed trace text; the message names the offending line."""


_DIGITS = {radix: digits.encode("ascii") for radix, digits in DIGITS.items()}


def _blocks(stream: IOBase) -> Iterator[bytes]:
    """The stream's bytes in blocks of about CHUNK_BYTES read, each block
    but the last ending in a line break, so that every block starts a line
    and decodes on its own; the characters of a text stream are read as
    their UTF-8 bytes, and one byte-order mark at the very start is dropped.
    A line longer than a block makes the next read as long as that line, so
    no byte is copied more than a few times. (A text whose only line breaks
    are the rare ones str.splitlines also knows, such as "\x1c" or "\u2028",
    is read as one block.)
    """
    carry, bom = b"", b"\xef\xbb\xbf"  # the UTF-8 byte-order mark some editors write
    while data := stream.read(max(CHUNK_BYTES, len(carry))):
        if isinstance(data, str):
            data = data.encode("utf-8", "surrogatepass")
        block = carry + data if carry else data
        # after the last "\n", or else the last "\r" that no "\n" can follow
        cut = block.rfind(b"\n") + 1 or block.rfind(b"\r", 0, -1) + 1
        carry = block[cut:]
        if cut:
            yield block[:cut].removeprefix(bom)
            bom = b""
    if carry:
        yield carry.removeprefix(bom)


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


def _clean_words(block: bytes, width: int, radix: int) -> bytes | None:
    """The words of `block` as a chunk if the block is clean, else None.

    A clean block is one word per line, each of exactly as many digits as
    a `width`-bit word takes and ended by "\n" or "\r\n", and no hex word
    above the width. It is then pure ASCII, and is parsed by one int()
    (binary) or bytes.fromhex (hex) over the whole block. Binary words get
    the zero bits that pad them to whole bytes as "0" digits before the
    newlines are dropped, and a hex word of odd length gets one "0" digit.
    """
    if b"\r" in block:  # one memchr, far cheaper than the replace's search
        block = block.replace(b"\r\n", b"\n")
    digits = word_digits(width, radix)
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


def _header(line: str, lineno: int) -> tuple[int, int]:
    """The width and radix of the header whose text is `line`, line `lineno`
    of the trace."""
    text = " ".join(line.split())  # its fields, one space apart
    digits, _, name = text.removeprefix("width=").partition(" radix=")
    if not (text == f"width={digits} radix={name}" and digits.isdigit() and digits.isascii()
            and name in RADIXES):
        raise TraceFormatError(
            f"line {lineno}: expected header 'width=<n> radix=<bin|hex>', got {line!r}"
        )
    digits = digits.lstrip("0") or "0"  # sized as text: int() takes 4300 digits at most
    if len(digits) > len(str(MAX_WIDTH)) or not 1 <= int(digits) <= MAX_WIDTH:
        raise TraceFormatError(f"line {lineno}: {BAD_WIDTH}{digits}")
    return int(digits), RADIXES[name]


def _words(lines: list[str], lineno: int, width: int, radix: int) -> bytes:
    """The words of the word lines among `lines`, the first being line
    `lineno`, as a chunk (b"" if none): zero-filled to a word's digits and
    parsed as one clean block (see _clean_words). That fails only on a
    word that word_from_text rejects, and the walk then names the first."""
    words = [line for _, line in _significant(lines, lineno)]
    digits = word_digits(width, radix)
    text = "\n".join(map(str.rjust, words, repeat(digits), repeat("0"))) + "\n"
    chunk = _clean_words(text.encode("utf-8", "surrogatepass"), width, radix) if words else b""
    if chunk is not None:
        return chunk
    for lineno, line in _significant(lines, lineno):
        try:
            word_from_text(line, radix, width)
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc
    raise AssertionError("the words failed the clean parse, but each passed word_from_text")


def _parse(stream: IOBase) -> Iterator[int | bytes]:
    """The width of the trace in `stream`, once its header is read, then its
    words, one non-empty chunk per block read.

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
    width = None
    empty = True
    try:
        for block in blocks:
            if width is None:
                lines = _decode(block, count, errors).splitlines(keepends=True)
                first, count = count + 1, count + len(lines)
                found = next(_significant(lines, first), None)
                if found is None:
                    continue
                lineno, line = found
                width, radix = _header(line, lineno)
                yield width
                # the rest of the header's block, parsed as any other block
                count = lineno
                block = "".join(lines[lineno - first + 1 :]).encode("utf-8", "surrogatepass")
            words = _clean_words(block, width, radix)
            if words is None:
                lines = _decode(block, count, errors).splitlines()
                first, count = count + 1, count + len(lines)
                words = _words(lines, first, width, radix)
            else:
                count += len(words) // ((width + 7) // 8)  # one word per line
            if words:
                empty = False
                yield words
        if width is None:
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
    return next(chunks), chunks


def read_trace(stream: IOBase):
    """Parse a Trace from a readable text or byte stream."""
    from .trace import Trace

    return Trace.from_chunks(*read_chunks(stream))


def load_trace(path: str):
    """Parse the Trace in the file at `path`."""
    with open(path, "rb") as fh:
        return read_trace(fh)


def render_trace(trace, radix: int = 2) -> str:
    """Canonical text form of a Trace, which read_trace reads back."""
    from .writer import render_chunks

    return "".join(render_chunks(trace.width, trace.chunks(), radix))


def _listed(counts, text, sep: str):
    """`sep.join(map(text, counts))` in pieces, a slice of 65536 counts per
    join, so that one slice's text is alive at a time, not all of it."""
    for start in range(0, len(counts), 65536):
        if start:
            yield sep
        yield sep.join(map(text, counts[start : start + 65536]))


def _json_list(counts, text):
    """`counts` as json.dumps(indent=2) writes the list that a key holds."""
    if counts:
        yield "[\n    "
        yield from _listed(counts, text, ",\n    ")
    yield "\n  ]" if counts else "[]"


def report_pieces(report, format: str = "table") -> Iterator[str]:
    """The text of an ActivityReport in pieces, which write_report joins and
    `analyze` writes as they come. Every json value is an int, a finite
    float or a list of ints, so the text is json.dumps(payload, indent=2)'s."""
    # here, not at the top: a process that only reads traces loads no `activity`
    from .activity import rounded_display

    width, transfers, total, tau, toggles, per_cycle = report
    tau_display = rounded_display(total, width, transfers, 2)
    texts = {count: str(count) for count in range(width + 1)}.__getitem__  # 0 <= count <= width
    if format == "json":
        yield (f'{{\n  "width": {width},\n  "transfers": {transfers},\n'
               f'  "total_transitions": {total},\n  "tau": {tau!r},\n'
               f'  "tau_display": {float(tau_display)!r},\n  "per_bit_toggles": ')
        yield from _json_list(toggles, str)
        if per_cycle is not None:
            yield ',\n  "per_cycle": '
            yield from _json_list(per_cycle, texts)
        yield "\n}\n"
    elif format == "csv":
        # no field can hold a comma, quote or newline, so none needs quoting
        yield "line,toggles,width,transfers,tau\n"
        yield from (f"bit{i},{count},,,\n" for i, count in enumerate(toggles))
        yield f"summary,{total},{width},{transfers},{tau!r}\n"
    elif format == "table":
        yield (f"lines               {width}\ntransfers           {transfers}\ntotal transitions   "
               f"{total}\nswitching activity  {tau_display}\nper-bit toggles     "
               + " ".join(f"bit{i}={toggles[i]}" for i in reversed(range(width))) + "\n")
        if per_cycle is not None:
            yield "per-transfer counts "
            yield from _listed(per_cycle, texts, " ")
            yield "\n"
    else:
        raise ValueError(f"format must be one of {REPORT_FORMATS}, got {format!r}")


def write_report(report, format: str = "table") -> str:
    """Serialize an ActivityReport; json key set is stable for tooling."""
    return "".join(report_pieces(report, format))
