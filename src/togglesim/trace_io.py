"""Trace file parsing and rendering, plus activity-report serialization.

Trace text format, chosen for hand-editability of small fixtures:

    # comments start with '#', blank lines are skipped
    width=16 radix=hex      <- first significant line, the header
    0000                    <- one word per line, trailing whitespace ignored
    0303
    0F03

`radix` is `bin` (MSB-first binary) or `hex` (case-insensitive on input,
rendered uppercase and zero-padded).
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from typing import IO

from .activity import ActivityReport, rounded_display
from .bits import Trace, check_width, value_from_text

REPORT_FORMATS = ("json", "csv", "table")

_RADIX_BY_NAME = {"bin": 2, "hex": 16}
_NAME_BY_RADIX = {2: "bin", 16: "hex"}
_HEADER_RE = re.compile(r"^width=(\d+)\s+radix=(bin|hex)$")


class TraceFormatError(ValueError):
    """Malformed trace text; the message names the offending line."""


@dataclass(frozen=True)
class TraceFileHeader:
    width: int
    radix: int  # 2 or 16

    def __post_init__(self) -> None:
        check_width(self.width)
        if self.radix not in _NAME_BY_RADIX:
            raise ValueError(f"radix must be 2 or 16, got {self.radix}")

    def render(self) -> str:
        return f"width={self.width} radix={_NAME_BY_RADIX[self.radix]}"


def parse_trace(text: str) -> Trace:
    """Parse trace text into a Trace; raises TraceFormatError with line numbers."""
    header: TraceFileHeader | None = None
    values: list[int] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            match = _HEADER_RE.match(line)
            if not match:
                raise TraceFormatError(
                    f"line {lineno}: expected header 'width=<n> radix=<bin|hex>', got {line!r}"
                )
            try:
                header = TraceFileHeader(int(match.group(1)), _RADIX_BY_NAME[match.group(2)])
            except ValueError as exc:
                raise TraceFormatError(f"line {lineno}: {exc}") from exc
            continue
        try:
            values.append(value_from_text(line, header.radix, header.width))
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc
    if header is None:
        raise TraceFormatError("missing header 'width=<n> radix=<bin|hex>'")
    if not values:
        raise TraceFormatError("empty trace: no words after the header")
    return Trace(header.width, tuple(values))


def read_trace(stream: IO) -> Trace:
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
    lines = [header.render()]
    # the format specs of Word.to_binary and Word.to_hex
    spec = f"0{trace.width}b" if radix == 2 else f"0{(trace.width + 3) // 4}X"
    lines.extend(format(v, spec) for v in trace.values)
    return "\n".join(lines) + "\n"


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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["line", "toggles", "width", "transfers", "tau"])
        for i, count in enumerate(report.per_bit_toggles):
            writer.writerow([f"bit{i}", count, "", "", ""])
        writer.writerow(
            ["summary", report.total_transitions, report.width, report.transfers,
             repr(report.tau)]
        )
        return buf.getvalue()
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
