"""End-to-end acceptance checks for the whole profiler.

Each criterion is one test at its stated tolerance; a PASS line is printed
once its assertions hold (run with `pytest -s` or `-v` to see them).
"""

import json
import random

from togglesim.activity import (
    analyze_trace,
    compare_reports,
    rounded_display,
    switching_activity,
)
from togglesim.bits import Trace, Word, word_from_text
from togglesim.generators import DEFAULT_TAPS_16, GeneratorConfig, generate
from togglesim.power import (
    DynamicPowerParams,
    dynamic_power,
    leakage_current,
    thermal_voltage,
)
from togglesim.tables import (
    GENERATOR_REFERENCE,
    REFERENCE_SEED_TEXT,
    cents_display,
    counter_rows,
    generator_rows,
    truncated_cents,
)
from togglesim.trace_io import parse_trace, render_trace, write_report
from togglesim.transition_counter import run_trace
from reference_trace import hamming_distance

import math


def _passed(number: int, text: str) -> None:
    print(f"[criterion {number:02d}] PASS  {text}")


def counter_trace(kind: str, width: int) -> Trace:
    config = GeneratorConfig(kind=kind, width=width, seed=Word(width, 0))
    return generate(config, (1 << width) - 1)


def test_criterion_01_counter_table_exact():
    expected = {
        ("binary", 4): (26, "0.43", 2),
        ("gray", 4): (15, "0.25", 2),
        ("binary", 8): (502, "0.246", 3),
        ("gray", 8): (255, "0.125", 3),
    }
    for (kind, width), (count, display, decimals) in expected.items():
        report = analyze_trace(counter_trace(kind, width))
        assert report.total_transitions == count, (kind, width)
        assert rounded_display(count, width, report.transfers, decimals) == display
    assert all(row.matches for row in counter_rows())
    _passed(1, "binary/gray counter table reproduced cell for cell")


def test_criterion_02_probe_trace_semantics():
    trace = Trace(16, [word_from_text(t, 16, 16).value for t in ("0000", "0303", "0F03")])
    records = run_trace(trace, reset_on_cycle0=True)
    assert [r.one_transition for r in records] == [0, 4, 2]
    assert [r.total_transition for r in records] == [0, 4, 6]
    for k in range(1, len(trace)):
        assert records[k].dataout == trace[k - 1]
    _passed(2, "reset/0x0303/0x0F03 gives counts 0,4,2 totals 0,4,6 with lagged dataout")


def test_criterion_03_worked_activity_factor():
    assert switching_activity(2, 8, 1) == 0.25
    _passed(3, "switching_activity(2, 8, 1) == 0.25 exactly")


def test_criterion_04_worked_hamming():
    a = word_from_text("00111100", 2, 8)
    b = word_from_text("11111101", 2, 8)
    assert hamming_distance(a, b) == 3
    _passed(4, "hamming('00111100', '11111101') == 3 exactly")


def test_criterion_05_generator_reference_tau_consistency():
    # single display rule, determined empirically: truncate to 2 decimals
    matches = 0
    cells = 0
    for _label, _kind, reference in GENERATOR_REFERENCE:
        for cycles, (count, tau_text) in reference.items():
            cells += 1
            if cents_display(truncated_cents(count, 16, cycles)) == tau_text:
                matches += 1
    assert cells == 12
    assert matches >= 11
    assert matches == 12  # truncation reproduces every cell
    _passed(5, f"reference counts reproduce reference tau under truncation: {matches}/12")


def test_criterion_06_generator_table_regime():
    rows = generator_rows(taps=DEFAULT_TAPS_16, boundary="null")
    for row in rows:
        for cell in row.cells:
            tau = cell.transitions / (16 * cell.cycles)
            assert 0.35 <= tau <= 0.75, (row.label, cell.cycles, tau)
    exact = sum(c.count_matches for row in rows for c in row.cells)
    _passed(
        6,
        "all 12 computed generator activities lie in [0.35, 0.75] "
        f"(exact count matches vs reference, not asserted: {exact}/12)",
    )


def test_criterion_07_oracle_equivalence_on_random_traces():
    rng = random.Random(20260810)
    for _ in range(1000):
        width = rng.randint(1, 64)
        length = rng.randint(2, 200)
        words = tuple(Word(width, rng.getrandbits(width)) for _ in range(length))
        trace = Trace(width, [w.value for w in words])
        by_loop = sum(
            hamming_distance(words[i], words[i + 1]) for i in range(length - 1)
        )
        assert run_trace(trace)[-1].total_transition == by_loop
        assert analyze_trace(trace).total_transitions == by_loop
    _passed(7, "probe, analyzer, and pairwise loop agree on 1000 random traces")


def test_criterion_08_generator_properties():
    rng = random.Random(99)
    for width in range(1, 17):
        # the full cycle from 0 visits every state, so every state's step is checked
        trace = generate(GeneratorConfig("gray", width, Word(width, 0)), 1 << width)
        assert len(set(trace.values)) == 1 << width
        assert trace.values[-1] == 0
        for a, b in zip(trace.values, trace.values[1:]):
            assert hamming_distance(Word(width, a), Word(width, b)) == 1

    for width in range(2, 11):
        trace = counter_trace("binary", width)
        total = analyze_trace(trace).total_transitions
        assert total == 2 ** (width + 1) - width - 2

    # taps {4,3} are maximal for the Galois form; the shift-toward-LSB
    # Fibonacci form is injective only with position 1 tapped, so its
    # maximal 4-bit set is {4,1}
    for kind, taps in (("lfsr_internal", {4, 3}), ("lfsr_external", {4, 1})):
        for seed_value in range(1, 16):
            values = generate(GeneratorConfig(kind, 4, Word(4, seed_value), taps), 15).values
            assert seed_value not in values[1:15], (kind, seed_value)
            assert values[15] == seed_value, (kind, seed_value)

    def ca_next(state, rule, boundary):
        config = GeneratorConfig(f"ca{rule}", state.width, state, boundary=boundary)
        return generate(config, 1)[1]

    for _ in range(500):
        width = rng.randint(1, 32)
        a = Word(width, rng.getrandbits(width))
        b = Word(width, rng.getrandbits(width))
        for rule in (90, 150):
            for boundary in ("null", "cyclic"):
                assert ca_next(Word(width, a.value ^ b.value), rule, boundary).value == (
                    ca_next(a, rule, boundary).value ^ ca_next(b, rule, boundary).value
                )
    _passed(
        8,
        "gray single-flip, binary full-period totals, LFSR period 15 "
        "(Galois {4,3}, Fibonacci {4,1}), CA linearity",
    )


def test_criterion_09_power_model():
    p = DynamicPowerParams(1.0, 3.3e-12, 1.8, 2.5e8)
    assert dynamic_power(p) == 3.3e-12 * 1.8 * 2.5e8

    rng = random.Random(5)
    for _ in range(200):
        tau = rng.uniform(0.01, 0.5)
        cap = rng.uniform(1e-13, 1e-11)
        vdd = rng.uniform(0.6, 3.0)
        freq = rng.uniform(1e5, 1e9)
        k = rng.uniform(1.1, 1.9)
        base = dynamic_power(DynamicPowerParams(tau, cap, vdd, freq))
        assert abs(
            dynamic_power(DynamicPowerParams(tau * k, cap, vdd, freq)) - base * k
        ) <= 1e-12 * base * k
        assert abs(
            dynamic_power(DynamicPowerParams(tau, cap * k, vdd, freq)) - base * k
        ) <= 1e-12 * base * k
        assert abs(
            dynamic_power(DynamicPowerParams(tau, cap, vdd, freq * k)) - base * k
        ) <= 1e-12 * base * k

    assert leakage_current(1e-12, 0.0, 300.0) == 0.0
    v_ln2 = thermal_voltage(300.0) * math.log(2)
    got = leakage_current(1e-12, v_ln2, 300.0)
    assert abs(got - 1e-12) <= 1e-12 * 1e-12
    _passed(9, "dynamic power exact at tau=1, linear to 1e-12; leakage anchors hold")


def test_criterion_10_gray_reduction_in_published_band():
    four = compare_reports(
        analyze_trace(counter_trace("binary", 4)),
        analyze_trace(counter_trace("gray", 4)),
    )
    eight = compare_reports(
        analyze_trace(counter_trace("binary", 8)),
        analyze_trace(counter_trace("gray", 8)),
    )
    assert abs(four.relative_reduction * 100 - 42.0) <= 1.0
    assert abs(eight.relative_reduction * 100 - 49.0) <= 1.0
    _passed(
        10,
        f"gray reduces activity by {four.relative_reduction:.1%} (4-bit) "
        f"and {eight.relative_reduction:.1%} (8-bit)",
    )


def test_criterion_11_round_trips_bit_exact():
    rng = random.Random(77)
    for _ in range(200):
        width = rng.randint(1, 32)
        length = rng.randint(2, 40)
        trace = Trace(width, [rng.getrandbits(width) for _ in range(length)])
        radix = rng.choice([2, 16])
        text = render_trace(trace, radix)
        parsed = parse_trace(text)
        assert parsed == trace
        assert render_trace(parsed, radix).encode() == text.encode()

        report = analyze_trace(trace)
        blob = write_report(report, "json")
        payload = json.loads(blob)
        assert payload["tau"] == report.tau
        assert payload["total_transitions"] == report.total_transitions
        assert payload["transfers"] == report.transfers
        assert payload["width"] == report.width
        assert payload["per_bit_toggles"] == list(report.per_bit_toggles)
        assert write_report(analyze_trace(parsed), "json").encode() == blob.encode()
    _passed(11, "200 trace-file and json-report round-trips are bit-exact")
