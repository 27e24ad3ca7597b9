import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from togglesim import (
    Trace,
    TraceFileHeader,
    TraceFormatError,
    Word,
    analyze_trace,
    parse_trace,
    read_trace,
    render_trace,
    write_report,
)
from strategies import traces

FIG_STIMULUS = "width=16 radix=hex\n0000\n0303\n0F03\n"


class TestParseTrace:
    def test_reference_stimulus(self):
        trace = parse_trace(FIG_STIMULUS)
        assert trace.width == 16
        assert [w.value for w in trace] == [0x0000, 0x0303, 0x0F03]

    def test_binary_radix(self):
        trace = parse_trace("width=4 radix=bin\n0000\n1010\n")
        assert [w.value for w in trace] == [0, 0b1010]

    def test_comments_and_blank_lines_skipped(self):
        text = "# fixture\n\nwidth=4 radix=bin\n# body\n0001\n\n0011  \n"
        trace = parse_trace(text)
        assert [w.value for w in trace] == [1, 3]

    def test_header_only_is_empty_trace(self):
        with pytest.raises(TraceFormatError, match="empty trace"):
            parse_trace("width=16 radix=hex\n")

    def test_invalid_digit_names_line(self):
        with pytest.raises(TraceFormatError, match="line 3"):
            parse_trace("width=16 radix=hex\n0000\nG3\n")

    def test_missing_header(self):
        with pytest.raises(TraceFormatError, match="header"):
            parse_trace("0000\n0303\n")
        with pytest.raises(TraceFormatError, match="header"):
            parse_trace("# nothing but comments\n")

    def test_malformed_header(self):
        with pytest.raises(TraceFormatError, match="line 1"):
            parse_trace("width=16 radix=octal\n0000\n")
        with pytest.raises(TraceFormatError, match="line 1"):
            parse_trace("width=0 radix=hex\n0\n")

    def test_word_wider_than_declared(self):
        with pytest.raises(TraceFormatError, match="line 2"):
            parse_trace("width=4 radix=bin\n10101\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            parse_trace("width=4 radix=hex\n1F\n")

    def test_read_from_byte_stream(self):
        trace = read_trace(io.BytesIO(FIG_STIMULUS.encode()))
        assert len(trace) == 3

    def test_read_from_text_stream(self):
        trace = read_trace(io.StringIO(FIG_STIMULUS))
        assert len(trace) == 3


class TestRenderTrace:
    def test_hex_rendering_matches_reference_style(self):
        trace = Trace.from_words([Word(16, v) for v in (0x0000, 0x0303, 0x0F03)])
        assert render_trace(trace, 16) == FIG_STIMULUS

    @given(traces(min_len=1, max_len=20), st.sampled_from([2, 16]))
    def test_round_trip(self, trace, radix):
        text = render_trace(trace, radix)
        again = parse_trace(text)
        assert again == trace
        assert render_trace(again, radix) == text

    def test_header_validation(self):
        with pytest.raises(ValueError):
            TraceFileHeader(16, 8)
        with pytest.raises(ValueError):
            TraceFileHeader(0, 2)


def binary_counter_report():
    words = [Word(4, v) for v in range(16)]
    return analyze_trace(Trace.from_words(words))


class TestWriteReport:
    def test_table_shows_reference_cells(self):
        text = write_report(binary_counter_report(), "table")
        assert "26" in text
        assert "0.43" in text

    def test_table_per_cycle_line(self):
        report = analyze_trace(
            Trace.from_words([Word(4, v) for v in range(4)]), include_per_cycle=True
        )
        text = write_report(report, "table")
        assert "per-transfer counts 1 2 1" in text

    def test_json_zero_activity(self):
        report = analyze_trace(Trace.from_words([Word(8, 3)] * 4))
        payload = json.loads(write_report(report, "json"))
        assert payload["tau"] == 0
        assert payload["tau_display"] == 0
        assert payload["per_bit_toggles"] == [0] * 8

    def test_json_keys_and_exact_round_trip(self):
        report = binary_counter_report()
        payload = json.loads(write_report(report, "json"))
        assert list(payload) == [
            "width",
            "transfers",
            "total_transitions",
            "tau",
            "tau_display",
            "per_bit_toggles",
        ]
        assert payload["width"] == report.width
        assert payload["transfers"] == report.transfers
        assert payload["total_transitions"] == report.total_transitions
        assert payload["tau"] == report.tau  # full precision survives json
        assert payload["tau_display"] == 0.43
        assert payload["per_bit_toggles"] == list(report.per_bit_toggles)

    def test_csv_one_row_per_bit_plus_summary(self):
        text = write_report(binary_counter_report(), "csv")
        rows = [line.split(",") for line in text.strip().splitlines()]
        assert rows[0] == ["line", "toggles", "width", "transfers", "tau"]
        assert [r[0] for r in rows[1:]] == ["bit0", "bit1", "bit2", "bit3", "summary"]
        assert rows[-1][1] == "26"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            write_report(binary_counter_report(), "yaml")
