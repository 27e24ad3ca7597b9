"""Replay one workload in-process through togglesim's public API.

    python3 replay.py SPEC --once          # untraced, print the outputs (probe_replay's child)
    python3 replay.py SPEC --seconds S     # alternate traced and untraced replays for S seconds

SPEC is a JSON file written by run.py. A "cli" spec replays the CLI's
`gen | analyze` and `analyze FILE` commands with the same public calls in
the same order (generate -> render_trace -> read_trace/load_trace ->
encoder -> analyze_trace -> write_report); a "probe" spec is the library
workload itself. Spans wrap each call into a layer; counts are taken
outside the spans. togglesim comes from PYTHONPATH.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import sys
import tracemalloc
from time import perf_counter

from togglesim import cli
from togglesim.activity import analyze_trace, compare_reports
from togglesim.bits import word_from_text
from togglesim.encoders import bus_invert_encode_trace, gray_encode_trace
from togglesim.generators import GeneratorConfig, generate
from togglesim.power import DynamicPowerParams, dynamic_power
from togglesim.trace_io import load_trace, read_trace, render_trace, write_report
from togglesim.transition_counter import run_trace

from calibration import calibrate, scale
from tracing import NullTracer, Tracer

RADIX = {"bin": 2, "hex": 16}


def _config(args: argparse.Namespace) -> GeneratorConfig:
    """The generator a parsed `gen` command line asks for; specs always name
    the seed radix, and taps only for LFSR kinds."""
    taps = frozenset(int(t) for t in args.taps.split(",")) if args.taps else None
    boundary = args.boundary if args.kind in ("ca90", "ca150") else None
    seed = word_from_text(args.seed, RADIX[args.seed_radix], args.width)
    return GeneratorConfig(args.kind, args.width, seed, taps, boundary)


def _render_gen(argv: list[str], tracer) -> bytes:
    with tracer.span("cli.main"):
        args = cli.build_parser().parse_args(argv)
        config = _config(args)
        with tracer.span("generators.generate"):
            trace = generate(config, args.cycles)
        with tracer.span("trace_io.render"):
            text = render_trace(trace, RADIX[args.radix])
        data = text.encode("utf-8")
    tracer.count("generators.words", len(trace))
    return data


def replay_cli(spec: dict, tracer) -> list:
    outputs = []
    for step in spec["steps"]:
        data = _render_gen(step["gen"], tracer) if "gen" in step else None
        with tracer.span("cli.main"):
            args = cli.build_parser().parse_args(step["analyze"])
            with tracer.span("trace_io.parse"):
                if data is None:
                    raw = load_trace(args.trace)
                else:
                    raw = read_trace(io.BytesIO(data))
            trace = raw
            if args.encode == "gray":
                with tracer.span("encoders.gray"):
                    trace = gray_encode_trace(raw)
            elif args.encode == "businvert":
                with tracer.span("encoders.businvert"):
                    trace = bus_invert_encode_trace(raw)
            with tracer.span("activity.analyze"):
                report = analyze_trace(trace, include_per_cycle=args.per_cycle)
            with tracer.span("trace_io.report"):
                text = write_report(report, args.format)
        outputs.append(json.loads(text) if args.format == "json" else text)
        tracer.count(
            "trace_io.text_bytes",
            len(data) if data is not None else os.path.getsize(args.trace),
        )
        tracer.count("activity.flips", report.total_transitions)
        if args.encode == "businvert":
            _count_businvert(tracer, raw.width, trace, report)
    return outputs


def _count_businvert(tracer, width: int, encoded, report) -> None:
    tracer.count("encoders.inverted", sum(w.value >> width for w in encoded))
    tracer.count("encoders.businvert_transfers", encoded.transfers)
    tracer.count("encoders.businvert_transitions", report.total_transitions)


def replay_probe(spec: dict, tracer) -> list:
    with tracer.span("trace_io.parse"):
        trace = load_trace(spec["trace"])
    with tracer.span("transition_counter.run_trace"):
        records = run_trace(trace)
    encoded = {}
    reports = {}
    with tracer.span("activity.analyze"):
        reports["raw"] = analyze_trace(trace)
    with tracer.span("encoders.gray"):
        encoded["gray"] = gray_encode_trace(trace)
    with tracer.span("activity.analyze"):
        reports["gray"] = analyze_trace(encoded["gray"])
    with tracer.span("encoders.businvert"):
        encoded["businvert"] = bus_invert_encode_trace(trace)
    with tracer.span("activity.analyze"):
        reports["businvert"] = analyze_trace(encoded["businvert"])
    # compare_reports needs equal widths; the bus-invert trace has one more line
    with tracer.span("activity.compare"):
        reduction = compare_reports(reports["raw"], reports["gray"])
    power = spec["power"]
    with tracer.span("power.dynamic"):
        watts = {
            name: dynamic_power(DynamicPowerParams(
                tau=r.tau,
                load_capacitance=power["cap"],
                supply_voltage=power["vdd"],
                frequency=power["freq"],
            ))
            for name, r in reports.items()
        }
    summary = {
        "probe": {
            "records": len(records),
            "final_total": records[-1].total_transition,
            "weighted_sum": sum(r.cycle * r.one_transition for r in records),
            "last_dataout": records[-1].dataout.value,
        },
        "reports": {
            name: {"total": r.total_transitions, "toggles": list(r.per_bit_toggles),
                   "tau": r.tau}
            for name, r in reports.items()
        },
        "gray_reduction": {
            "relative_reduction": reduction.relative_reduction,
            "transitions_delta": reduction.transitions_delta,
        },
        "power_w": watts,
    }
    tracer.count("transition_counter.cycles", len(records))
    tracer.count("trace_io.text_bytes", os.path.getsize(spec["trace"]))
    tracer.count("activity.flips", sum(r.total_transitions for r in reports.values()))
    _count_businvert(tracer, trace.width, encoded["businvert"], reports["businvert"])
    return [summary]


def replay(spec: dict, tracer) -> list:
    return (replay_probe if spec["kind"] == "probe" else replay_cli)(spec, tracer)


def held_trace_bytes(spec: dict) -> tuple[int, int]:
    """tracemalloc size of the first input held as a parsed Trace, and its words."""
    if spec["kind"] == "probe":
        path = spec["trace"]
    else:
        step = spec["steps"][0]
        path = cli.build_parser().parse_args(step["analyze"]).trace
    if path == "-":
        data = _render_gen(step["gen"], NullTracer())
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    tracemalloc.start()
    try:
        trace = read_trace(io.BytesIO(data))
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return size, len(trace)


def timed_replays(spec: dict, seconds: float) -> dict:
    """Alternate traced and untraced replays until `seconds` have passed.

    A host-speed calibration runs between replays; `factors` maps a replay's
    run id to its host-to-reference-seconds factor, from the calibrations on
    either side of it.
    """
    # Before any replay, so the process state it starts from is always the same.
    size, words = held_trace_bytes(spec)
    first = replay(spec, NullTracer())  # warm-up, also the reference output
    tracer = Tracer()
    walls = {True: [], False: []}
    factors = {}
    mismatched = 0
    deadline = perf_counter() + seconds
    run = 0
    before = calibrate()
    while perf_counter() < deadline or min(len(w) for w in walls.values()) < 3:
        traced = run % 2 == 0
        tracer.run_id = run
        start = perf_counter()
        outputs = replay(spec, tracer if traced else NullTracer())
        wall = perf_counter() - start
        after = calibrate()
        factors[run], before = scale(before, after), after
        walls[traced].append(wall * factors[run])
        mismatched += outputs != first
        run += 1
    return {
        "replays": run,
        "mismatched": mismatched,
        "outputs": first,
        "spans": tracer.spans,
        "counts": tracer.counts,
        "factors": {r: f for r, f in factors.items() if r % 2 == 0},
        "traced_wall_s": statistics.median(walls[True]),
        "untraced_wall_s": statistics.median(walls[False]),
        "held_trace_bytes": size,
        "held_trace_words": words,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--once", action="store_true")
    mode.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.once:
        (result,) = replay(spec, NullTracer())
    else:
        result = timed_replays(spec, args.seconds)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
