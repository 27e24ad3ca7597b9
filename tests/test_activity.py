import random
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from togglesim import bits
from togglesim.activity import (
    analyze_chunks,
    analyze_trace,
    compare_reports,
    rounded_display,
    switching_activity,
)
from togglesim.bits import Trace, Word
from togglesim.generators import GeneratorConfig, generate
from togglesim.transition_counter import run_trace
import reference_trace as reference
from strategies import outcome, traces, wide_trace


def counter_trace(kind: str, width: int) -> Trace:
    config = GeneratorConfig(kind=kind, width=width, seed=Word(width, 0))
    return generate(config, (1 << width) - 1)


class TestSwitchingActivity:
    def test_worked_example(self):
        assert switching_activity(2, 8, 1) == 0.25

    def test_binary_counter_row(self):
        tau = switching_activity(26, 4, 15)
        assert tau == pytest.approx(26 / 60)
        assert rounded_display(26, 4, 15, 2) == "0.43"

    @pytest.mark.parametrize("width,transfers", [(1, 1), (8, 3), (64, 100)])
    def test_quiet_bus(self, width, transfers):
        assert switching_activity(0, width, transfers) == 0.0

    def test_gray_8bit_row(self):
        assert switching_activity(255, 8, 255) == 0.125

    def test_zero_transfers_rejected(self):
        with pytest.raises(ValueError, match="transfer"):
            switching_activity(0, 8, 0)

    def test_count_exceeding_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            switching_activity(9, 8, 1)

    def test_full_capacity_is_one(self):
        assert switching_activity(8, 8, 1) == 1.0


class TestAnalyzeTrace:
    def test_binary_4bit_full_trace(self):
        report = analyze_trace(counter_trace("binary", 4))
        assert report.total_transitions == 26
        assert report.transfers == 15
        assert report.tau == pytest.approx(26 / 60)

    def test_gray_8bit_full_trace(self):
        report = analyze_trace(counter_trace("gray", 8))
        assert report.total_transitions == 255
        assert report.tau == 0.125

    def test_constant_trace(self):
        report = analyze_trace(Trace(8, [7] * 5))
        assert report.total_transitions == 0
        assert report.tau == 0.0
        assert report.per_bit_toggles == (0,) * 8

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            analyze_trace(Trace(4, [0]))

    def test_per_bit_toggles_indexed_from_lsb(self):
        trace = Trace(4, [0b0000, 0b0001, 0b1001])
        report = analyze_trace(trace)
        assert report.per_bit_toggles == (1, 0, 0, 1)

    def test_per_cycle_optional(self):
        trace = counter_trace("binary", 2)
        assert analyze_trace(trace).per_cycle is None
        report = analyze_trace(trace, include_per_cycle=True)
        assert report.per_cycle == (1, 2, 1)

    @given(traces(max_len=50, max_width=48))
    def test_totals_match_probe_and_toggle_sum(self, trace):
        report = analyze_trace(trace, include_per_cycle=True)
        assert report.total_transitions == run_trace(trace)[-1].total_transition
        assert sum(report.per_bit_toggles) == report.total_transitions
        assert sum(report.per_cycle) == report.total_transitions
        assert 0.0 <= report.tau <= 1.0

    @given(traces(min_len=2, max_len=40))
    def test_appending_never_decreases_total(self, trace):
        report = analyze_trace(trace)
        extended = Trace(trace.width, trace.values + (trace[-1].value ^ ((1 << trace.width) - 1),))
        grown = analyze_trace(extended)
        assert grown.total_transitions >= report.total_transitions
        assert 0.0 <= grown.tau <= 1.0

    @pytest.mark.parametrize("width", [1, 3, 4, 7, 16])
    @pytest.mark.parametrize("cycles", [1, 5, 100])
    def test_gray_tau_is_exactly_one_over_width(self, width, cycles):
        config = GeneratorConfig(kind="gray", width=width, seed=Word(width, 0))
        report = analyze_trace(generate(config, cycles))
        assert report.tau == 1 / width


class TestCompareReports:
    def test_gray_vs_binary_4bit(self):
        summary = compare_reports(
            analyze_trace(counter_trace("binary", 4)),
            analyze_trace(counter_trace("gray", 4)),
        )
        assert summary.relative_reduction == pytest.approx(0.4231, abs=1e-4)
        assert summary.transitions_delta == 26 - 15

    def test_gray_vs_binary_8bit(self):
        summary = compare_reports(
            analyze_trace(counter_trace("binary", 8)),
            analyze_trace(counter_trace("gray", 8)),
        )
        assert summary.relative_reduction == pytest.approx(0.4920, abs=1e-4)

    def test_self_comparison(self):
        report = analyze_trace(counter_trace("binary", 4))
        summary = compare_reports(report, report)
        assert summary.relative_reduction == 0.0
        assert summary.tau_delta == 0.0
        assert summary.transitions_delta == 0

    def test_zero_baseline_rejected(self):
        quiet = analyze_trace(Trace(4, [0] * 3))
        busy = analyze_trace(counter_trace("binary", 4))
        with pytest.raises(ZeroDivisionError):
            compare_reports(quiet, busy)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            compare_reports(
                analyze_trace(counter_trace("binary", 4)),
                analyze_trace(counter_trace("binary", 8)),
            )


class TestFormatTau:
    """Display of tau = transitions / (width * transfers), rounded half-up."""

    CASES = [
        (26, 4, 15, "0.43"),
        (1, 4, 1, "0.25"),
        (1, 8, 1, "0.13"),  # half-up at 2 decimals
        (0, 1, 1, "0.00"),
        (1, 1, 1, "1.00"),
        (33, 64, 1, "0.52"),
    ]

    @pytest.mark.parametrize(
        "transitions,width,transfers,text",
        CASES,
        ids=[f"{t / (w * n)!r}-{text}" for t, w, n, text in CASES],
    )
    def test_two_decimal_display(self, transitions, width, transfers, text):
        assert rounded_display(transitions, width, transfers, 2) == text

    def test_three_decimals(self):
        assert rounded_display(502, 8, 255, 3) == "0.246"
        assert rounded_display(1, 8, 1, 3) == "0.125"


class TestAgainstReference:
    """analyze_trace against the Word-based loop it replaced."""

    @given(traces(min_len=1, max_width=64), st.booleans())
    @example(wide_trace(256), True)
    @example(wide_trace(1023), False)
    @example(wide_trace(1024), True)
    def test_analyze_trace(self, trace, per_cycle):
        assert outcome(analyze_trace, trace, per_cycle) == outcome(
            reference.analyze_trace, tuple(trace), per_cycle
        )

    @given(traces(min_len=100, max_len=300, max_width=8), st.booleans())
    def test_analyze_long_narrow_trace(self, trace, per_cycle):
        assert outcome(analyze_trace, trace, per_cycle) == outcome(
            reference.analyze_trace, tuple(trace), per_cycle
        )

    @pytest.mark.parametrize("width", [1, 63, 1024])
    @pytest.mark.parametrize(
        "transfers", sorted({(1 << k) + d for k in range(1, 12) for d in (-1, 0, 1)})
    )
    def test_alternating_trace_carries_through_every_plane(self, width, transfers):
        # every line flips on every transfer, so each count is `transfers`
        top = (1 << width) - 1
        trace = Trace(width, tuple(top * (i % 2) for i in range(transfers + 1)))
        report = analyze_trace(trace, include_per_cycle=True)
        assert report.per_bit_toggles == (transfers,) * width
        assert report == reference.analyze_trace(tuple(trace), True)


# Widths on each side of a byte-lane edge, and the largest allowed.
LANE_EDGE_WIDTHS = [1, 7, 8, 9, 63, 64, 65, 1023, 1024]


@st.composite
def lane_edge_traces(draw):
    width = draw(st.sampled_from(LANE_EDGE_WIDTHS))
    values = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=16))
    return Trace(width, tuple(values))


def sparse_trace(width: int, length: int) -> Trace:
    """A fixed trace where each transfer flips 1 to 4 random lines, so the
    Word-based reference, whose cost follows flips, stays quick at any width."""
    rng = random.Random(width * 100_003 + length)
    value = rng.getrandbits(width)
    values = [value]
    for _ in range(length - 1):
        for line in rng.sample(range(width), min(width, rng.randint(1, 4))):
            value ^= 1 << line
        values.append(value)
    return Trace(width, tuple(values))


# Words per slice in the chunk-edge tests, whatever the width.
EDGE_CHUNK = 4096


class TestChunkedFold:
    """Chunks share one word, so each transfer is counted once at any chunk
    size, and every byte lane's lines are counted apart."""

    @given(lane_edge_traces(), st.integers(1, 5), st.booleans())
    @example(Trace(9, (0, 511, 0)), 1, True)
    @example(Trace(1, (0, 1)), 1, False)
    def test_any_chunk_size_matches_reference(self, trace, chunk, per_cycle):
        with pytest.MonkeyPatch.context() as patch:
            # `chunk` words per slice and per pack, or 2 per pack for 1
            patch.setattr(bits, "CHUNK_BYTES", chunk * ((trace.width + 7) // 8))
            patch.setattr(bits, "PACK_WORDS", 2)
            assert outcome(analyze_trace, trace, per_cycle) == outcome(
                reference.analyze_trace, tuple(trace), per_cycle
            )

    @pytest.mark.parametrize("width", LANE_EDGE_WIDTHS)
    @pytest.mark.parametrize(
        "transfers",
        [EDGE_CHUNK + d for d in (-1, 0, 1)] + [2 * EDGE_CHUNK + d for d in (-1, 0, 1)],
    )
    def test_real_chunk_edges_match_reference(self, transfers, width):
        trace = sparse_trace(width, transfers + 1)
        words = tuple(trace)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bits, "CHUNK_BYTES", EDGE_CHUNK * ((width + 7) // 8))
            for per_cycle in (False, True):
                assert analyze_trace(trace, per_cycle) == reference.analyze_trace(
                    words, per_cycle
                )

    @pytest.mark.parametrize("width", LANE_EDGE_WIDTHS)
    def test_budget_chunk_edges_match_one_chunk(self, width):
        # the unpatched budget: slices of CHUNK_BYTES // ceil(width / 8) words,
        # packs of that or PACK_WORDS words, whichever is more
        per_chunk = bits.chunk_words(width)
        per_pack = max(bits.PACK_WORDS, per_chunk)
        for transfers in {per_chunk - 1, per_chunk, per_chunk + 1,
                          per_pack - 1, per_pack, per_pack + 1, 2 * per_pack + 1}:
            trace = sparse_trace(width, transfers + 1)
            assert analyze_trace(trace, True) == analyze_chunks(
                width, [bits.pack(width, trace.values)], True
            )


def analyze_peak_bytes(length: int, width: int = 16, per_cycle: bool = False) -> int:
    """tracemalloc's peak while analyzing a random trace of `length` words."""
    rng = random.Random(length)
    trace = Trace(width, tuple(rng.getrandbits(width) for _ in range(length)))
    tracemalloc.start()
    try:
        analyze_trace(trace, per_cycle)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transient_memory_is_bounded_by_the_chunk():
    # a fold that packed the whole trace at once would grow tenfold here
    small, large = analyze_peak_bytes(20_000), analyze_peak_bytes(200_000)
    assert large < 1 << 20
    assert large <= small + (64 << 10)


def test_transient_memory_is_bounded_at_every_width():
    # a pack holds PACK_WORDS words or more, 256 KiB at 1024 bits, where the
    # fold's peak is about 1.4 MiB (see bits.CHUNK_BYTES); it is the pack's,
    # so it does not grow with the trace
    peaks = {width: analyze_peak_bytes(20_000, width) for width in (1, 16, 1024)}
    assert max(peaks.values()) < 3 << 19
    assert analyze_peak_bytes(40_000, 1024) <= peaks[1024] + (64 << 10)


def test_per_cycle_counts_are_not_copied_from_a_list():
    # the returned tuple takes 8 B per transfer; the counts gathered for it
    # take 2 more in an array('H'), where a list of them took 8 more
    transfers = 200_000
    assert analyze_peak_bytes(transfers + 1, per_cycle=True) <= 12 * transfers
