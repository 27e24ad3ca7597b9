"""Trace file parsing and rendering, plus activity-report serialization.

Trace text format, chosen for hand-editability of small fixtures:

    # comments start with '#', blank lines are skipped
    width=16 radix=hex      <- first significant line, the header
    0000                    <- one word per line
    0303
    0F03

Leading and trailing whitespace is stripped from every line.
`radix` is `bin` (MSB-first binary) or `hex` (case-insensitive on input,
rendered uppercase and zero-padded).
"""

from __future__ import annotations

import json
import re
from io import IOBase
from itertools import islice, repeat

from .activity import ActivityReport, rounded_display
from .bits import Record, Trace, check_width, value_from_text

REPORT_FORMATS = ("json", "csv", "table")

_RADIX_BY_NAME = {"bin": 2, "hex": 16}
_NAME_BY_RADIX = {2: "bin", 16: "hex"}
_HEADER_RE = re.compile(r"^width=(\d+)\s+radix=(bin|hex)$")
# Every character of a run of words joined by newlines. A single character
# class, not a repeated group per word: sre keeps no backtracking stack for it.
_WORDS_RE = {2: re.compile(r"[01\n]*"), 16: re.compile(r"[0-9a-fA-F\n]*")}
# Words per joined string, so the check never copies the whole body at once.
_CHUNK_WORDS = 2048


class TraceFormatError(ValueError):
    """Malformed trace text; the message names the offending line."""


class TraceFileHeader(Record):
    __slots__ = ("width", "radix")

    def __init__(self, width: int, radix: int) -> None:
        check_width(width)
        if radix not in _NAME_BY_RADIX:
            raise ValueError(f"radix must be 2 or 16, got {radix}")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "radix", radix)

    def render(self) -> str:
        return f"width={self.width} radix={_NAME_BY_RADIX[self.radix]}"


def parse_trace(text: str) -> Trace:
    """Parse trace text into a Trace; raises TraceFormatError with line numbers.

    The words are checked in bulk: the longest against the digit limit, and
    their characters by one regular-expression match per chunk of words; a
    hex word too large for the width fails Trace's own range check. Only when
    one of these checks fails are the lines walked again through
    value_from_text, which names the first bad line.
    """
    lines = text.splitlines()
    header: TraceFileHeader | None = None
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        match = _HEADER_RE.match(line)
        if not match:
            raise TraceFormatError(
                f"line {lineno}: expected header 'width=<n> radix=<bin|hex>', got {line!r}"
            )
        try:
            header = TraceFileHeader(int(match.group(1)), _RADIX_BY_NAME[match.group(2)])
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc
        break
    if header is None:
        raise TraceFormatError("missing header 'width=<n> radix=<bin|hex>'")
    header_lineno = lineno
    words = [
        w for w in map(str.strip, islice(lines, header_lineno, None)) if w and w[0] != "#"
    ]
    del lines
    if not words:
        raise TraceFormatError("empty trace: no words after the header")
    width, radix = header.width, header.radix
    digits = width if radix == 2 else (width + 3) // 4
    fullmatch = _WORDS_RE[radix].fullmatch
    if max(map(len, words)) <= digits and all(
        fullmatch("\n".join(words[i : i + _CHUNK_WORDS]))
        for i in range(0, len(words), _CHUNK_WORDS)
    ):
        try:
            return Trace(width, tuple(map(int, words, repeat(radix))))
        except ValueError:
            pass  # a hex word above 2**width - 1, possible when 4 does not divide width
    values = []
    for lineno, raw_line in islice(enumerate(text.splitlines(), start=1), header_lineno, None):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(value_from_text(line, radix, width))
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc
    return Trace(width, tuple(values))


def read_trace(stream: IOBase) -> Trace:
    """Parse a trace from a readable text or byte stream."""
    data = stream.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # number lines as parse_trace does; the text before exc.start is valid
            lineno = len((data[: exc.start].decode("utf-8") + "x").splitlines())
            raise TraceFormatError(
                f"line {lineno}: byte 0x{data[exc.start]:02X} is not UTF-8 text "
                f"({exc.reason})"
            ) from exc
    return parse_trace(data)


def load_trace(path: str) -> Trace:
    with open(path, "rb") as fh:
        return read_trace(fh)


def render_trace(trace: Trace, radix: int = 2) -> str:
    """Canonical text form; parse_trace(render_trace(t)) == t."""
    header = TraceFileHeader(trace.width, radix)
    # the format specs of Word.to_binary and Word.to_hex
    spec = f"0{trace.width}b" if radix == 2 else f"0{(trace.width + 3) // 4}X"
    return "\n".join([header.render(), *map(format, trace.values, repeat(spec)), ""])


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
