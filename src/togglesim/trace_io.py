"""Trace file format and rendering, plus activity-report serialization.

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
reader or writer of any trace holds one block of text and its words. The
reader, `read_chunks`, is in `togglesim.reader`, which of the CLI commands
only `analyze` loads, and the writer, `render_chunks`, in `togglesim.writer`,
which only `gen` loads and which writes the header line itself.
`parse_trace`, `read_trace`, `load_trace` and `render_trace` wrap them for
whole `Trace`s (`togglesim.trace`). `analyze` loads this module and `gen`
does not; the CLI grammar writes `REPORT_FORMATS` out.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from io import IOBase, StringIO
from itertools import islice

from .bits import Record, check_width

REPORT_FORMATS = ("json", "csv", "table")


class TraceFormatError(ValueError):
    """Malformed trace text; the message names the offending line."""


class TraceFileHeader(Record, namedtuple("TraceFileHeader", "width radix")):
    __slots__ = ()

    def __new__(cls, width: int, radix: int) -> TraceFileHeader:
        check_width(width)
        if radix not in (2, 16):
            raise ValueError(f"radix must be 2 or 16, got {radix}")
        return super().__new__(cls, width, radix)

    @property
    def digits(self) -> int:
        """The digits of a word written in full."""
        return self.width if self.radix == 2 else (self.width + 3) // 4


def read_trace(stream: IOBase):
    """Parse a Trace from a readable text or byte stream."""
    from .reader import read_chunks
    from .trace import Trace

    return Trace.from_chunks(*read_chunks(stream))


def parse_trace(text: str):
    """Parse trace text into a Trace; raises TraceFormatError with line numbers."""
    return read_trace(StringIO(text))


def load_trace(path: str):
    """Parse the Trace in the file at `path`."""
    with open(path, "rb") as fh:
        return read_trace(fh)


def render_trace(trace, radix: int = 2) -> str:
    """Canonical text form of a Trace; parse_trace(render_trace(t)) == t."""
    from .writer import render_chunks

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
