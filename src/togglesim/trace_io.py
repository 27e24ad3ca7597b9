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

Both directions stream. `read_chunks` reads a stream in blocks of
`CHUNK_BYTES`, decodes them incrementally and yields the words of each
block as a validated list of ints, so a reader of any trace holds one block
and its words; `render_chunks` turns chunks of ints back into text one
chunk at a time. `parse_trace`, `read_trace`, `load_trace` and
`render_trace` wrap them for whole `Trace`s.
"""

from __future__ import annotations

import codecs
import json
import re
from collections.abc import Iterable, Iterator
from io import IOBase, StringIO
from itertools import chain, repeat

from .activity import ActivityReport, rounded_display
from .bits import CHUNK_BYTES, Record, Trace, check_width, value_from_text

REPORT_FORMATS = ("json", "csv", "table")

_RADIX_BY_NAME = {"bin": 2, "hex": 16}
_NAME_BY_RADIX = {2: "bin", 16: "hex"}
_HEADER_RE = re.compile(r"^width=(\d+)\s+radix=(bin|hex)$")
# The characters str.splitlines ends a line at ("\r\n" also ends one).
_LINE_BREAKS = frozenset("\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
# Every character of a run of words joined by newlines. A single character
# class, not a repeated group per word: sre keeps no backtracking stack for it.
_WORDS_RE = {2: re.compile(r"[01\n]*"), 16: re.compile(r"[0-9a-fA-F\n]*")}


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


def _line_batches(stream: IOBase) -> Iterator[tuple[int, list[str]]]:
    """The stream's lines, cut as `str.splitlines` cuts the whole text, in
    one batch per block read: (lines before the batch, batch). The last line
    keeps its line break, if it has one.

    The last piece of each block is carried into the next, so a line break,
    "\\r\\n" pair or multibyte character split by a block edge reads as one.
    A line longer than a block makes the next read as long as that line, so
    no text is copied more than a few times. Bytes are decoded as UTF-8; a
    byte that is not raises TraceFormatError naming its line.
    """
    decode = codecs.getincrementaldecoder("utf-8")().decode
    carry = ""
    count = 0
    while True:
        data = stream.read(max(CHUNK_BYTES, len(carry)))
        text = data
        if isinstance(data, bytes):
            try:
                text = decode(data, not data)
            except UnicodeDecodeError as exc:
                # the bytes before exc.start are valid and follow `carry`
                valid = carry + exc.object[: exc.start].decode("utf-8")
                lineno = count + len((valid + "x").splitlines())
                raise TraceFormatError(
                    f"line {lineno}: byte 0x{exc.object[exc.start]:02X} is not UTF-8 "
                    f"text ({exc.reason})"
                ) from exc
        if text:
            text = carry + text
            lines = text.splitlines()
            # carry the last line with its line break, which may be the "\r"
            # of a "\r\n" or may be missing
            ends = 2 if text.endswith("\r\n") else text[-1] in _LINE_BREAKS
            carry = text[len(text) - ends - len(lines.pop()) :]
            if lines:
                yield count, lines
                count += len(lines)
        if not data:
            break
    if carry:
        yield count, [carry]


def _words(lines: list[str], lineno: int, radix: int, width: int) -> list[int]:
    """The values of the word lines among `lines`, the first being line
    `lineno`, with blank and comment lines skipped.

    The words are checked in bulk: the longest against the digit limit, their
    characters by one regular-expression match, and the largest value
    against the width (a hex word can overflow a width 4 does not divide).
    Only when one of these checks fails are the lines walked again through
    value_from_text, which names the first bad line.
    """
    words = [w for w in map(str.strip, lines) if w and w[0] != "#"]
    if not words:
        return words
    digits = width if radix == 2 else (width + 3) // 4
    if max(map(len, words)) <= digits and _WORDS_RE[radix].fullmatch("\n".join(words)):
        values = list(map(int, words, repeat(radix)))
        if radix == 2 or not width % 4 or not max(values) >> width:
            return values
    values = []
    for lineno, raw_line in enumerate(lines, start=lineno):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(value_from_text(line, radix, width))
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc
    return values


def _parse(stream: IOBase) -> Iterator[TraceFileHeader | list[int]]:
    """The header of the trace in `stream`, then its values, one non-empty
    list per batch of lines.

    A format error is raised once the rest of the stream has been decoded,
    so a byte that is not UTF-8 anywhere in it is reported first, as it is
    when the whole stream is decoded before parsing.
    """
    batches = _line_batches(stream)
    try:
        for count, lines in batches:
            for index, raw_line in enumerate(lines):
                line = raw_line.strip()
                if not line or line.startswith("#"):
                    continue
                lineno = count + index + 1
                match = _HEADER_RE.match(line)
                if not match:
                    raise TraceFormatError(
                        f"line {lineno}: expected header 'width=<n> radix=<bin|hex>', "
                        f"got {line!r}"
                    )
                try:
                    header = TraceFileHeader(int(match.group(1)), _RADIX_BY_NAME[match.group(2)])
                except ValueError as exc:
                    raise TraceFormatError(f"line {lineno}: {exc}") from exc
                yield header
                empty = True
                for count, lines in chain([(lineno, lines[index + 1 :])], batches):
                    values = _words(lines, count + 1, header.radix, header.width)
                    if values:
                        empty = False
                        yield values
                if empty:
                    raise TraceFormatError("empty trace: no words after the header")
                return
        raise TraceFormatError("missing header 'width=<n> radix=<bin|hex>'")
    except TraceFormatError:
        for _ in batches:  # already done after a decode error
            pass
        raise


def read_chunks(stream: IOBase) -> tuple[int, Iterator[list[int]]]:
    """Start reading a trace from a readable text or byte stream.

    Returns the header's width, once the header has been read, and an
    iterator over the trace's values: one validated, non-empty list of ints
    per block of CHUNK_BYTES read. The stream is read as the iterator is
    advanced. A TraceFormatError names the first bad line, and comes only
    after the rest of the stream has been decoded.
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


def render_chunks(width: int, chunks: Iterable[Iterable[int]], radix: int = 2) -> Iterator[str]:
    """Canonical text form of a trace, one string for the header and one per
    chunk of values; their concatenation parses back to the values."""
    yield TraceFileHeader(width, radix).render() + "\n"
    # the format specs of Word.to_binary and Word.to_hex
    spec = f"0{width}b" if radix == 2 else f"0{(width + 3) // 4}X"
    for chunk in chunks:
        yield "\n".join([*map(format, chunk, repeat(spec)), ""])


def render_trace(trace: Trace, radix: int = 2) -> str:
    """Canonical text form; parse_trace(render_trace(t)) == t."""
    return "".join(render_chunks(trace.width, [trace.values], radix))


def write_report(report: ActivityReport, format: str = "table") -> str:
    """Serialize an ActivityReport; json key set is stable for tooling."""
    tau_display = rounded_display(
        report.total_transitions, report.width, report.transfers, 2
    )
    if format == "json":
        payload = {
            "width": report.width,
            "transfers": report.transfers,
            "total_transitions": report.total_transitions,
            "tau": report.tau,
            "tau_display": float(tau_display),
            "per_bit_toggles": list(report.per_bit_toggles),
        }
        if report.per_cycle is not None:
            payload["per_cycle"] = list(report.per_cycle)
        return json.dumps(payload, indent=2) + "\n"
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
            lines.append(
                "per-transfer counts " + " ".join(str(c) for c in report.per_cycle)
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"format must be one of {REPORT_FORMATS}, got {format!r}")
