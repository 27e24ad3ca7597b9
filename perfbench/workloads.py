"""The four workloads: inputs derived from the workload seed, and the outputs
the oracle expects. See DESIGN.md for why each one exists."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import oracle

TAPS = (16, 14, 13, 11)
LFSR_CYCLES = 50_000
COUNTER_WORDS = 40_000
CA_CYCLES = 20_000
CAPTURE_WORDS = 40_000
POWER = {"cap": 2e-12, "vdd": 1.2, "freq": 1e8}


@dataclass
class Workload:
    name: str
    spec: dict  # what replay.py and the CLI runs are driven by
    expected: list  # one entry per analyze step: exact text, or a dict for json
    words: int  # trace words one invocation processes
    businvert_raw_total: int  # raw transitions of the bus-invert input, 0 if none
    facts: dict


def _gen_argv(kind: str, width: int, seed: str, seed_radix: str, cycles: int,
              *extra: str) -> list[str]:
    return ["gen", "--kind", kind, "--width", str(width), "--seed", seed,
            "--seed-radix", seed_radix, "--cycles", str(cycles), *extra]


def lfsr16_pipe(rng: random.Random, work: Path) -> Workload:
    seed = rng.randrange(1, 1 << 16)  # an all-zero LFSR seed locks up
    values = oracle.galois(seed, 16, TAPS, LFSR_CYCLES)
    gen = _gen_argv("lfsr_internal", 16, format(seed, "016b"), "bin", LFSR_CYCLES,
                    "--taps", ",".join(map(str, TAPS)))
    report = oracle.Report(values, 16)
    return Workload(
        "lfsr16_pipe",
        {"kind": "cli", "steps": [{"gen": gen, "analyze": ["analyze", "-"]}]},
        [report.table()],
        len(values),
        0,
        {"lfsr_seed": format(seed, "04X"), "tau": report.tau},
    )


def counter16_encode(rng: random.Random, work: Path) -> Workload:
    start = rng.randrange(1 << 16)
    values = oracle.counter(start, 16, COUNTER_WORDS)
    (work / "counter16.trace").write_text(oracle.render_trace(values, 16, "bin"))
    raw = oracle.Report(values, 16)
    steps = [
        {"analyze": ["analyze", "counter16.trace", "--encode", "businvert",
                     "--format", "json"]},
        {"analyze": ["analyze", "counter16.trace", "--encode", "gray", "--format", "csv"]},
    ]
    return Workload(
        "counter16_encode",
        {"kind": "cli", "steps": steps},
        [oracle.Report(oracle.bus_invert(values, 16), 17).json(),
         oracle.Report(oracle.gray(values), 16).csv()],
        2 * len(values),
        raw.total,
        {"counter_start": format(start, "04X"), "tau": raw.tau},
    )


def ca256_hex_pipe(rng: random.Random, work: Path) -> Workload:
    seed = rng.getrandbits(256) or 1
    values = oracle.cellular(seed, 256, 150, "cyclic", CA_CYCLES)
    gen = _gen_argv("ca150", 256, format(seed, "064X"), "hex", CA_CYCLES,
                    "--boundary", "cyclic", "--radix", "hex")
    report = oracle.Report(values, 256)
    return Workload(
        "ca256_hex_pipe",
        {"kind": "cli",
         "steps": [{"gen": gen, "analyze": ["analyze", "-", "--format", "csv"]}]},
        [report.csv()],
        len(values),
        0,
        {"ca_seed": format(seed, "064X"), "tau": report.tau},
    )


def probe_replay(rng: random.Random, work: Path) -> Workload:
    values = [rng.getrandbits(32) for _ in range(CAPTURE_WORDS)]
    (work / "captured32.trace").write_text(oracle.render_trace(values, 32, "hex"))
    summary = oracle.probe_summary(values, 32, POWER)
    return Workload(
        "probe_replay",
        {"kind": "probe", "trace": "captured32.trace", "power": POWER},
        [summary],
        len(values),
        summary["reports"]["raw"]["total"],
        {"tau": summary["reports"]["raw"]["tau"]},
    )


WORKLOADS = {w.__name__: w for w in (lfsr16_pipe, counter16_encode, ca256_hex_pipe,
                                     probe_replay)}


def build(name: str, seed: int, work: Path) -> Workload:
    workload = WORKLOADS[name](random.Random(f"{name}:{seed}"), work)
    (work / "spec.json").write_text(json.dumps(workload.spec))
    return workload


def matches(output, expected) -> bool:
    """An analyze or probe output against the oracle: exact text, or for json
    (given as text or already decoded) the same keys and values."""
    if isinstance(expected, dict) and isinstance(output, str):
        try:
            output = json.loads(output)
        except ValueError:
            return False
    return output == expected
