"""Command-line front end: generate stimulus, analyze traces, estimate power.

Exit codes: 0 success, 2 usage error, 3 data/parse error or failed read or
write, of a standard stream that the process started without too.

`gen` and `analyze` run once per probed trace, so each process compiles only
its command's code, and a plain command line loads no argparse. `GRAMMAR`
declares each command's arguments once, for two parsers. `main` first hands
the argv to `cmdline.parse`, which accepts only a plain line: the command,
its full flags each with its value as the next word, switches, and
`analyze`'s one positional, every value of its declared type and choices.
It returns what argparse would for that line. For any other line, such as
`--help`, an abbreviated or `--flag=value` option, a negative number, a bad
value or a missing option, it returns None, and `main` parses with
`build_parser()`: the argparse parser that `usage.build` makes of the
grammar, so help and usage errors keep argparse's text. Only that path
loads `usage` and argparse, and with them `gettext` and `locale`.

`main` imports the one body it runs from the module it drives:
`generators.cmd_gen`, `activity.cmd_analyze`, `power.cmd_power` or
`tables.cmd_tables`. A body raises the package root's `UsageError`, and
`cmdline` takes the grammar as an argument, since `python -m togglesim.cli`
runs this module as `__main__`: importing `togglesim.cli` would compile it
again, with a `UsageError` `main` misses.

A process enters at `run()`, which calls `gc.freeze()` once `main()` has
returned, so it ends without the shutdown collection: objects alive at exit
are freed by the OS, and a `__del__` of cyclic garbage left then never runs.
"""

import os
import sys

from . import UsageError, stdio

# Each command's help, then its arguments, each (flags, type, choices,
# default, help): flags without a dash name the positional, which is always
# required, type bool makes a switch, and a default of ... makes an option
# required. The kinds, boundaries and report formats are generators.KINDS
# and BOUNDARIES and trace_io.REPORT_FORMATS, written out so that parsing
# imports neither module.
GRAMMAR = {
    "gen": (
        "generate a stimulus trace",
        ("--kind", None, ("lfsr_internal", "lfsr_external", "ca90", "ca150", "binary", "gray"),
         ..., None),
        ("--width", int, None, ..., None),
        ("--seed", None, None, None, "seed pattern; binary if it spans --width, else hex"),
        ("--seed-radix", None, ("auto", "bin", "hex"), "auto", "force seed interpretation"),
        ("--taps", None, None, None, "comma-separated 1-based tap positions (LFSR kinds)"),
        ("--boundary", None, ("null", "cyclic"), None, "CA boundary (CA kinds; default null)"),
        ("--cycles", int, None, ..., "number of generated transfers; trace has cycles+1 words"),
        ("--radix", None, ("bin", "hex"), "bin", "trace file radix"),
        ("-o --output", None, None, None, "output path, or - for stdout (the default)"),
    ),
    "analyze": (
        "measure switching activity of a trace",
        ("trace", None, None, None, "trace file path, or - for stdin"),
        ("--encode", None, ("gray", "businvert"), None, "re-encode the trace before measuring"),
        ("--format", None, ("json", "csv", "table"), "table", None),
        ("--per-cycle", bool, None, False, "include per-transfer counts (table and json output)"),
    ),
    "power": (
        "estimate power from an activity factor",
        ("--tau", float, None, None, "activity factor in [0, 1]"),
        ("--from-report", None, None, None,
         "take tau from an analyze --format json file, or - for stdin"),
        ("--cap", float, None, ..., "load capacitance, F"),
        ("--vdd", float, None, ..., "supply voltage, V"),
        ("--freq", float, None, ..., "clock frequency, Hz"),
        ("--vdd-exponent", int, (1, 2), 1, "voltage exponent in the dynamic term"),
        ("--isat", float, None, None, "reverse saturation current, A"),
        ("--vdiode", float, None, None, "diode voltage, V"),
        ("--temp", float, None, 300.0, "temperature, K"),
    ),
    "tables": (
        "reproduce the bundled reference tables",
        ("--taps", None, None, None, "LFSR taps for the generator table"),
        ("--boundary", None, ("null", "cyclic"), "null", None),
    ),
}


def build_parser():
    """The argparse parser of `GRAMMAR` (a `usage.Parser`), with which `main`
    parses any line that `cmdline.parse` declines."""
    from .usage import build  # here: a plain command line never loads argparse

    return build(GRAMMAR)


def main(argv: list[str] | None = None) -> int:
    from .cmdline import parse

    try:
        args = parse(argv, GRAMMAR) or build_parser().parse_args(argv)
        if args.command == "gen":
            from .generators import cmd_gen as command
        elif args.command == "analyze":
            from .activity import cmd_analyze as command
        elif args.command == "power":
            from .power import cmd_power as command
        else:
            from .tables import cmd_tables as command
        command(args)
        # so that a failed write exits 3, to a closed pipe or to a stdout that
        # the process started without too, where print() wrote nothing
        stdio("stdout").flush()
        return 0
    except (UsageError, OSError, ValueError) as exc:
        # past a usage error, a failed write, a TraceFormatError or bad data
        # reaching a model contract (a trace with no transfers, say) exits 3
        try:
            print(f"togglesim: error: {exc}", file=stdio("stderr"))
        except OSError:  # stderr fails or is closed: the exit code alone reports the error
            pass
        return 2 if isinstance(exc, UsageError) else 3


def run():
    """The process entry of the `togglesim` script and `python -m togglesim.cli`:
    exit with main()'s code, after `gc.freeze()`.

    Frozen objects sit in the collector's permanent generation, which the
    shutdown collection skips, so the process does not walk a heap the OS is
    about to free; atexit hooks (coverage.py saves its data from one) and the
    final flush of stdout and stderr still run, where `os._exit` would skip
    them. main() is the library and test entry and never freezes.

    Where a write to stdout or stderr failed, what it left in the buffer
    would fail again at shutdown, with the interpreter's report and exit
    120; so if a flush here fails too, after main() returned or argparse
    exited, that stream's fd is pointed at os.devnull, as Python's `signal`
    documentation does.
    """
    import gc  # here: importing cli or building its parser loads no gc

    try:
        sys.exit(main())
    finally:
        for stream in filter(None, (sys.stdout, sys.stderr)):  # None: closed at start
            try:
                stream.flush()
            except OSError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        gc.freeze()


if __name__ == "__main__":
    run()
