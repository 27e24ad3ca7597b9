"""Command-line front end: generate stimulus, analyze traces, estimate power.

Exit codes: 0 success, 2 usage error, 3 data/parse error or failed write.

`gen` and `analyze` run once per probed trace, so each process compiles only
its command's code. Here are the parser, which needs no other togglesim
module (it writes out the kinds, boundaries and report formats), `main` and
`run`. `main` imports the one body it runs from the module it drives:
`generators.cmd_gen`, `activity.cmd_analyze`, `power.cmd_power` or
`tables.cmd_tables`. A body raises the package root's `UsageError`, since
`python -m togglesim.cli` runs this module as `__main__`: importing
`togglesim.cli` would compile it again, with a `UsageError` `main` misses.

A process enters at `run()`, which calls `gc.freeze()` once `main()` has
returned, so it ends without the shutdown collection: objects alive at exit
are freed by the OS, and a `__del__` of cyclic garbage left then never runs.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import UsageError

EXIT_OK, EXIT_USAGE, EXIT_DATA = 0, 2, 3


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help text fails as any other output does (exit
    3): argparse's print_help ignores an OSError, and its exit never flushes."""

    def print_help(self, file=None) -> None:
        (file or sys.stdout).write(self.format_help())

    def exit(self, status: int = 0, message: str | None = None):
        sys.stdout.flush()
        super().exit(status, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="togglesim",
        description="Switching-activity profiler: stimulus generation, "
        "transition counting, and CMOS power estimates for bus traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a stimulus trace")
    # generators.KINDS and BOUNDARIES, written out so that the parser imports no generators
    kinds = ("lfsr_internal", "lfsr_external", "ca90", "ca150", "binary", "gray")
    boundaries = ("null", "cyclic")
    gen.add_argument("--kind", required=True, choices=kinds)
    gen.add_argument("--width", type=int, required=True)
    gen.add_argument("--seed", help="seed pattern; binary if it spans --width, else hex")
    gen.add_argument(
        "--seed-radix", choices=("auto", "bin", "hex"), default="auto",
        help="force seed interpretation",
    )
    gen.add_argument("--taps", help="comma-separated 1-based tap positions (LFSR kinds)")
    gen.add_argument("--boundary", choices=boundaries,
                     help="CA boundary (CA kinds; default null)")
    gen.add_argument("--cycles", type=int, required=True,
                     help="number of generated transfers; trace has cycles+1 words")
    gen.add_argument("--radix", choices=("bin", "hex"), default="bin",
                     help="trace file radix")
    gen.add_argument("-o", "--output", help="output path (default stdout)")

    analyze = sub.add_parser("analyze", help="measure switching activity of a trace")
    analyze.add_argument("trace", help="trace file path, or - for stdin")
    analyze.add_argument("--encode", choices=("gray", "businvert"),
                         help="re-encode the trace before measuring")
    # trace_io.REPORT_FORMATS, written out for the same reason
    analyze.add_argument("--format", choices=("json", "csv", "table"), default="table")
    analyze.add_argument("--per-cycle", action="store_true",
                         help="include per-transfer counts (table and json output)")

    power = sub.add_parser("power", help="estimate power from an activity factor")
    power.add_argument("--tau", type=float, help="activity factor in [0, 1]")
    power.add_argument("--from-report", help="take tau from an analyze --format json file")
    power.add_argument("--cap", type=float, required=True, help="load capacitance, F")
    power.add_argument("--vdd", type=float, required=True, help="supply voltage, V")
    power.add_argument("--freq", type=float, required=True, help="clock frequency, Hz")
    power.add_argument("--vdd-exponent", type=int, choices=(1, 2), default=1,
                       help="voltage exponent in the dynamic term")
    power.add_argument("--isat", type=float, help="reverse saturation current, A")
    power.add_argument("--vdiode", type=float, help="diode voltage, V")
    power.add_argument("--temp", type=float, default=300.0, help="temperature, K")

    tables = sub.add_parser("tables", help="reproduce the bundled reference tables")
    tables.add_argument("--taps", help="LFSR taps for the generator table")
    tables.add_argument("--boundary", choices=boundaries, default="null")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "gen":
            from .generators import cmd_gen as command
        elif args.command == "analyze":
            from .activity import cmd_analyze as command
        elif args.command == "power":
            from .power import cmd_power as command
        else:
            from .tables import cmd_tables as command
        command(args)
        sys.stdout.flush()  # so that a failed write, a closed pipe too, exits 3
        return EXIT_OK
    except (UsageError, OSError, ValueError) as exc:
        # past a usage error, a failed write, a TraceFormatError or bad data
        # reaching a model contract (a trace with no transfers, say) exits 3
        print(f"togglesim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_DATA


def run():
    """The process entry of the `togglesim` script and `python -m togglesim.cli`:
    exit with main()'s code, after `gc.freeze()`.

    Frozen objects sit in the collector's permanent generation, which the
    shutdown collection skips, so the process does not walk a heap the OS is
    about to free; atexit hooks (coverage.py saves its data from one) and the
    final flush of stdout and stderr still run, where `os._exit` would skip
    them. main() is the library and test entry and never freezes.

    Where main()'s flush of stdout failed (exit 3), what it left in the
    buffer would fail again at shutdown, with the interpreter's report and
    exit 120; so if a flush here fails too, fd 1 is pointed at os.devnull,
    as Python's `signal` documentation does.
    """
    import gc  # here: importing cli or building its parser loads no gc

    try:
        code = main()
        try:
            sys.stdout.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(code)
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
