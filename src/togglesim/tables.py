"""Reference switching-activity tables and their first-principles reproduction.

Two published reference tables are bundled. The address-counter table
(binary vs gray, 4 and 8 bits, full period from zero) is fully determined
by the counting conventions here and is recomputed exactly. The
pattern-generator table was measured with feedback and boundary conventions
that were never published, so those rows are reported computed-vs-reference
rather than asserted; the stock configuration uses taps {16,14,13,11} and a
null CA boundary.

Display rules, fixed empirically against the reference tables: counter
activities round half-up at each row's printed precision; generator
activities truncate to 2 decimals (truncation reproduces all 12 reference
cells, round-half-up only 2). `cmd_tables` is the `tables` command's body.
"""

from __future__ import annotations

import os
from collections import namedtuple

from . import UsageError, stdio
from .activity import analyze_chunks, rounded_display
from .bits import Record, Word, word_from_text
from .generators import (
    DEFAULT_TAPS_16, GeneratorConfig, generate_chunks, kind_parameter, parse_taps
)

CYCLE_COLUMNS = (8, 16, 32)
REFERENCE_SEED_TEXT = "1011001010110110"
REFERENCE_WIDTH = 16

# label, generator kind, width, reference transition count,
# reference activity as printed, printed decimals
COUNTER_REFERENCE = (
    ("Binary Counter (4-bit)", "binary", 4, 26, "0.43", 2),
    ("Gray Counter (4-bit)", "gray", 4, 15, "0.25", 2),
    ("Binary Counter (8-bit)", "binary", 8, 502, "0.246", 3),
    ("Gray Counter (8-bit)", "gray", 8, 255, "0.125", 3),
)

# label, generator kind, {cycles: (reference count, reference activity)}
GENERATOR_REFERENCE = (
    ("Internal LFSR", "lfsr_internal", {8: (66, "0.51"), 16: (114, "0.44"), 32: (236, "0.46")}),
    ("External LFSR", "lfsr_external", {8: (88, "0.68"), 16: (163, "0.63"), 32: (266, "0.51")}),
    ("CA-90", "ca90", {8: (66, "0.51"), 16: (138, "0.53"), 32: (276, "0.53")}),
    ("CA-150", "ca150", {8: (67, "0.52"), 16: (135, "0.52"), 32: (259, "0.50")}),
)


def truncated_cents(transitions: int, width: int, transfers: int) -> int:
    """Activity in hundredths, truncated: floor(100 * tau). Exact integer math."""
    return 100 * transitions // (width * transfers)


def cents_display(cents: int) -> str:
    return f"{cents // 100}.{cents % 100:02d}"


class CounterRow(Record, namedtuple("CounterRow", "label transitions activity_display "
                                    "reference_transitions reference_activity")):
    __slots__ = ()

    @property
    def matches(self) -> bool:
        return (
            self.transitions == self.reference_transitions
            and self.activity_display == self.reference_activity
        )


class GeneratorCell(Record, namedtuple("GeneratorCell", "cycles transitions activity_display "
                                       "reference_transitions reference_activity")):
    __slots__ = ()

    @property
    def count_matches(self) -> bool:
        return self.transitions == self.reference_transitions

    @property
    def reference_tau_consistent(self) -> bool:
        """Does the reference count reproduce the reference activity (truncated)?"""
        cents = truncated_cents(
            self.reference_transitions, REFERENCE_WIDTH, self.cycles
        )
        return cents_display(cents) == self.reference_activity


class GeneratorRow(Record, namedtuple("GeneratorRow", "label cells")):
    __slots__ = ()


def counter_rows() -> list[CounterRow]:
    """Recompute the counter table: full period from zero, 2^w - 1 transfers."""
    rows = []
    for label, kind, width, ref_count, ref_tau, decimals in COUNTER_REFERENCE:
        config = GeneratorConfig(kind=kind, width=width, seed=Word(width, 0))
        report = analyze_chunks(width, generate_chunks(config, (1 << width) - 1))
        rows.append(
            CounterRow(
                label=label,
                transitions=report.total_transitions,
                activity_display=rounded_display(
                    report.total_transitions, width, report.transfers, decimals
                ),
                reference_transitions=ref_count,
                reference_activity=ref_tau,
            )
        )
    return rows


def generator_rows(
    taps: frozenset[int] = DEFAULT_TAPS_16, boundary: str = "null"
) -> list[GeneratorRow]:
    """Run each generator from the reference seed over 8/16/32 transfers."""
    seed = word_from_text(REFERENCE_SEED_TEXT, 2, REFERENCE_WIDTH)
    options = {"taps": taps, "boundary": boundary}
    rows = []
    for label, kind, reference in GENERATOR_REFERENCE:
        param = kind_parameter(kind)
        given = {param: options[param]} if param else {}
        config = GeneratorConfig(kind=kind, width=REFERENCE_WIDTH, seed=seed, **given)
        cells = []
        for cycles in CYCLE_COLUMNS:
            report = analyze_chunks(REFERENCE_WIDTH, generate_chunks(config, cycles))
            ref_count, ref_tau = reference[cycles]
            cells.append(
                GeneratorCell(
                    cycles=cycles,
                    transitions=report.total_transitions,
                    activity_display=cents_display(
                        truncated_cents(report.total_transitions, REFERENCE_WIDTH, cycles)
                    ),
                    reference_transitions=ref_count,
                    reference_activity=ref_tau,
                )
            )
        rows.append(GeneratorRow(label=label, cells=tuple(cells)))
    return rows


def render_counter_table(rows: list[CounterRow], paint=str) -> str:
    """Plain-text counter table; `paint` may add color to the match flags."""
    lines = [
        "Address counters, full period from zero",
        f"{'Module':24} {'Transitions':>11} {'Activity':>8}   Reference   Match",
    ]
    for row in rows:
        flag = paint("ok") if row.matches else paint("MISMATCH")
        lines.append(
            f"{row.label:24} {row.transitions:>11} {row.activity_display:>8}   "
            f"{row.reference_transitions}/{row.reference_activity:<9} {flag}"
        )
    return "\n".join(lines) + "\n"


def render_generator_table(rows: list[GeneratorRow], paint=str) -> str:
    """Computed-vs-reference generator table plus the consistency tally."""
    header_cycles = "".join(f"{c:>10}" for c in CYCLE_COLUMNS)
    lines = [
        f"Pattern generators, width {REFERENCE_WIDTH}, seed {REFERENCE_SEED_TEXT}",
        f"{'Module':15}{'':10}{header_cycles}  (clock cycles)",
    ]
    consistent = 0
    total_cells = 0
    for row in rows:
        computed_counts = "".join(f"{c.transitions:>10}" for c in row.cells)
        reference_counts = "".join(f"{c.reference_transitions:>10}" for c in row.cells)
        computed_tau = "".join(f"{c.activity_display:>10}" for c in row.cells)
        reference_tau = "".join(f"{c.reference_activity:>10}" for c in row.cells)
        flags = "".join(
            f"{paint('ok') if c.count_matches else paint('differs'):>10}" for c in row.cells
        )
        lines.append(f"{row.label:15}{'computed':>10}{computed_counts}")
        lines.append(f"{'':15}{'reference':>10}{reference_counts}")
        lines.append(f"{'':15}{'tau':>10}{computed_tau}")
        lines.append(f"{'':15}{'ref tau':>10}{reference_tau}")
        lines.append(f"{'':15}{'count':>10}{flags}")
        consistent += sum(c.reference_tau_consistent for c in row.cells)
        total_cells += len(row.cells)
    lines.append(
        f"reference activity consistency (count/(width*cycles), truncated to 2 "
        f"decimals): {consistent}/{total_cells} cells"
    )
    return "\n".join(lines) + "\n"


def cmd_tables(args) -> None:
    """The `tables` command: print both tables for its parsed command line,
    the match flags colored on a terminal unless NO_COLOR is set."""
    taps = parse_taps(args.taps) if args.taps is not None else DEFAULT_TAPS_16
    try:
        generators = generator_rows(taps=taps, boundary=args.boundary)
    except ValueError as exc:
        raise UsageError(str(exc))
    paint, stdout = str, stdio("stdout")  # after the checks: a bad --taps exits 2 regardless
    if os.environ.get("NO_COLOR") is None and stdout.isatty():
        paint = lambda text: f"\x1b[{32 if text == 'ok' else 31}m{text}\x1b[0m"
    stdout.write(render_counter_table(counter_rows(), paint) + "\n")
    stdout.write(render_generator_table(generators, paint))
