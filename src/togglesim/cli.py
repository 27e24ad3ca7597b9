"""Command-line front end: generate stimulus, analyze traces, estimate power.

Exit codes: 0 success, 2 usage error, 3 data/parse error.

`tables` and `power` are imported inside their commands, `activity` and
each encoder inside `_analyze_stream`'s branch that runs it, and `json`
where a report is written or read as JSON, so that `gen` and `analyze`, run
once per probed trace, compile only what they run: `gen` loads neither
`activity` nor `encoders`, and `analyze` without `--encode` no `encoders`.
`generators` loads its lane engine, `lanes`, only when a generator runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .bits import Word, check_width, word_from_text
from .generators import (
    BOUNDARIES,
    DEFAULT_TAPS_16,
    GeneratorConfig,
    KINDS,
    generate_chunks,
    kind_parameter,
)
from .trace_io import (
    REPORT_FORMATS,
    TraceFormatError,
    read_chunks,
    render_chunks,
    write_report,
)

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


def _build_config(args: argparse.Namespace) -> GeneratorConfig:
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
        print(f"{words} words", file=sys.stderr)
    return EXIT_OK


def _analyze_stream(stream, args: argparse.Namespace):
    """The ActivityReport of the trace in `stream`: reader, then the encoder
    `args` names, then the toggle fold, one chunk of the trace at a time."""
    from .activity import analyze_chunks

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
    gen.add_argument("--kind", required=True, choices=KINDS)
    gen.add_argument("--width", type=int, required=True)
    gen.add_argument("--seed", help="seed pattern; binary if it spans --width, else hex")
    gen.add_argument(
        "--seed-radix", choices=("auto", "bin", "hex"), default="auto",
        help="force seed interpretation",
    )
    gen.add_argument("--taps", help="comma-separated 1-based tap positions (LFSR kinds)")
    gen.add_argument("--boundary", choices=BOUNDARIES,
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
    tables.add_argument("--boundary", choices=BOUNDARIES, default="null")
    tables.set_defaults(func=cmd_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"togglesim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        # a TraceFormatError, or bad data reaching a model contract, e.g. a
        # trace with no transfers
        print(f"togglesim: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
