"""Command-line front end: generate stimulus, analyze traces, estimate power.

Exit codes: 0 success, 2 usage error, 3 data/parse error.

`gen` and `analyze` run once per probed trace, so each command imports
only what it runs, where it runs it. The parser needs `bits` and `trace_io`
alone: it writes out the generators' kinds and boundaries. `gen` adds
`generators` and its engine (and `encoders` for gray), `analyze` the
reader, `activity` and, with `--encode`, `encoders`; `json` is loaded where
a report is written or read as JSON.

A process enters at `run()`, which calls `gc.freeze()` once `main()` has
returned, so the process ends without the interpreter's shutdown collection:
objects still alive at exit are freed by the OS, not collected, and a
`__del__` of cyclic garbage left then does not run.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .bits import Word, check_width, word_from_text
from .trace_io import REPORT_FORMATS, TraceFormatError, render_chunks, write_report

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


class UsageError(Exception):
    pass


def _parse_taps(text: str) -> frozenset[int]:
    try:
        return frozenset(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"--taps must be comma-separated integers, got {text!r}")


def _parse_seed(text: str, width: int, radix: str) -> Word:
    if radix == "auto":  # binary iff the string is all 0/1 and spans the full width
        radix = "bin" if set(text) <= {"0", "1"} and len(text) == width else "hex"
    return word_from_text(text, 2 if radix == "bin" else 16, width)


def _build_config(args: argparse.Namespace):
    """The GeneratorConfig that the `gen` arguments in `args` name."""
    from .generators import DEFAULT_TAPS_16, GeneratorConfig, kind_parameter

    try:
        check_width(args.width)
    except ValueError as exc:
        raise UsageError(f"bad --width: {exc}")
    seed_text = args.seed if args.seed is not None else "0" * args.width
    try:
        seed = _parse_seed(seed_text, args.width, args.seed_radix)
    except ValueError as exc:
        raise UsageError(f"bad --seed: {exc}")
    taps = _parse_taps(args.taps) if args.taps is not None else None
    if taps is None and kind_parameter(args.kind) == "taps":
        if args.width != 16:
            raise UsageError(
                f"--taps is required for {args.kind} at width {args.width} "
                "(a default exists only for width 16)"
            )
        taps = DEFAULT_TAPS_16
    try:
        return GeneratorConfig(
            kind=args.kind, width=args.width, seed=seed, taps=taps, boundary=args.boundary
        )
    except ValueError as exc:
        raise UsageError(str(exc))


def cmd_gen(args: argparse.Namespace) -> int:
    from .generators import generate_chunks

    config = _build_config(args)
    if args.cycles < 0:
        raise UsageError(f"--cycles must be >= 0, got {args.cycles}")
    chunks = generate_chunks(config, args.cycles)
    texts = render_chunks(config.width, chunks, 2 if args.radix == "bin" else 16)
    words = args.cycles + 1
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.writelines(texts)
        print(f"wrote {words} words to {args.output}")
    else:
        sys.stdout.writelines(texts)
        sys.stdout.flush()  # a failed write fails here, before the count is reported
        print(f"{words} words", file=sys.stderr)
    return EXIT_OK


def _analyze_stream(stream, args: argparse.Namespace):
    """The ActivityReport of the trace in `stream`: reader, then the encoder
    `args` names, then the toggle fold, one chunk of the trace at a time."""
    from .activity import analyze_chunks
    from .reader import read_chunks

    width, chunks = read_chunks(stream)
    if args.encode == "gray":
        from .encoders import gray_encode_chunks

        chunks = gray_encode_chunks(width, chunks)
    elif args.encode == "businvert":
        from .encoders import bus_invert_encode_chunks

        chunks, width = bus_invert_encode_chunks(width, chunks), width + 1
    return analyze_chunks(width, chunks, include_per_cycle=args.per_cycle)


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.per_cycle and args.format == "csv":
        raise UsageError("--per-cycle has no csv form; use --format table or json")
    if args.trace == "-":
        report = _analyze_stream(sys.stdin.buffer, args)
    else:
        with open(args.trace, "rb") as fh:
            report = _analyze_stream(fh, args)
    sys.stdout.write(write_report(report, args.format))
    return EXIT_OK


def cmd_power(args: argparse.Namespace) -> int:
    import json

    from .power import (
        DynamicPowerParams, StaticPowerParams, check_tau, dynamic_power, static_power
    )

    if (args.tau is None) == (args.from_report is None):
        raise UsageError("exactly one of --tau or --from-report is required")
    if args.from_report is not None:
        try:
            with open(args.from_report, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            tau = payload["tau"]
            if isinstance(tau, bool) or not isinstance(tau, (int, float)):
                raise TypeError(f"tau must be a JSON number, got {json.dumps(tau)}")
            tau = check_tau(float(tau))
        except (OSError, OverflowError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"cannot read tau from {args.from_report}: {exc}")
    else:
        tau = args.tau
    try:
        params = DynamicPowerParams(
            tau=tau,
            load_capacitance=args.cap,
            supply_voltage=args.vdd,
            frequency=args.freq,
            voltage_exponent=args.vdd_exponent,
        )
        powers = [("dynamic power", dynamic_power(params))]
        if args.isat is not None or args.vdiode is not None:
            if args.isat is None or args.vdiode is None:
                raise UsageError("static power needs both --isat and --vdiode")
            sp = StaticPowerParams(
                saturation_current=args.isat,
                diode_voltage=args.vdiode,
                temperature=args.temp,
                supply_voltage=args.vdd,
            )
            powers.append(("static power", static_power(sp)))
    except ValueError as exc:
        raise UsageError(str(exc))
    for name, watts in powers:
        if not math.isfinite(watts * 1e6):
            raise UsageError(f"{name} of {watts:.6g} W overflows the float range in uW")
    for name, watts in powers:
        watts += 0.0  # IEEE -0.0 + 0.0 is 0.0: a -0 tau or vdiode prints 0, not -0
        print(f"{name + ':':15}{watts:.6g} W ({watts * 1e6:.6g} uW)")
    return EXIT_OK


def _painter(stream):
    if os.environ.get("NO_COLOR") is not None or not stream.isatty():
        return str
    return lambda text: (
        f"\x1b[32m{text}\x1b[0m" if text == "ok" else f"\x1b[31m{text}\x1b[0m"
    )


def cmd_tables(args: argparse.Namespace) -> int:
    from .generators import DEFAULT_TAPS_16
    from .tables import counter_rows, generator_rows, render_counter_table, render_generator_table

    paint = _painter(sys.stdout)
    taps = _parse_taps(args.taps) if args.taps is not None else DEFAULT_TAPS_16
    try:
        generators = generator_rows(taps=taps, boundary=args.boundary)
    except ValueError as exc:
        raise UsageError(str(exc))
    sys.stdout.write(render_counter_table(counter_rows(), paint))
    print()
    sys.stdout.write(render_generator_table(generators, paint))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="togglesim",
        description="Switching-activity profiler: stimulus generation, "
        "transition counting, and CMOS power estimates for bus traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a stimulus trace")
    # generators.KINDS and BOUNDARIES, written out so that the parser needs no generators
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
    gen.set_defaults(func=cmd_gen)

    analyze = sub.add_parser("analyze", help="measure switching activity of a trace")
    analyze.add_argument("trace", help="trace file path, or - for stdin")
    analyze.add_argument("--encode", choices=("gray", "businvert"),
                         help="re-encode the trace before measuring")
    analyze.add_argument("--format", choices=REPORT_FORMATS, default="table")
    analyze.add_argument("--per-cycle", action="store_true",
                         help="include per-transfer counts (table and json output)")
    analyze.set_defaults(func=cmd_analyze)

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
    power.set_defaults(func=cmd_power)

    tables = sub.add_parser("tables", help="reproduce the bundled reference tables")
    tables.add_argument("--taps", help="LFSR taps for the generator table")
    tables.add_argument("--boundary", choices=boundaries, default="null")
    tables.set_defaults(func=cmd_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a failed write, a closed pipe too, exits 3
        return code
    except UsageError as exc:
        print(f"togglesim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        # a TraceFormatError, or bad data reaching a model contract, e.g. a
        # trace with no transfers
        print(f"togglesim: error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run():
    """The process entry of the `togglesim` script and `python -m togglesim.cli`:
    exit with main()'s code, after `gc.freeze()`.

    Freezing moves every live object into the collector's permanent
    generation, which the interpreter's shutdown collection skips, so the
    process does not walk a heap the OS is about to free. atexit hooks and
    the final flush of stdout and stderr still run. `os._exit` after a flush
    would end sooner, but it skips atexit hooks (coverage.py saves its data
    from one), so it is not used. main() is the library and test entry and
    never freezes.

    main() flushes stdout, so that a failed write exits 3; what that flush
    left in stdout's buffer would fail again at shutdown, with the
    interpreter's report and exit 120. So if a flush here fails too, fd 1 is
    pointed at os.devnull, as Python's `signal` documentation does.
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
