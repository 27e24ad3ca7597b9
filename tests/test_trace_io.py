import io
import json
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from togglesim import bits, trace_io
from togglesim.activity import analyze_trace
from togglesim.bits import CHUNK_BYTES, Trace, Word
from togglesim.trace_io import (
    TraceFileHeader,
    TraceFormatError,
    load_trace,
    parse_trace,
    read_trace,
    render_chunks,
    render_trace,
    write_report,
)
import reference_trace as reference
from strategies import outcome, traces, wide_trace

FIG_STIMULUS = "width=16 radix=hex\n0000\n0303\n0F03\n"

# Widths whose words render with pad digits: in binary where 8 does not
# divide the width, in hex where the width mod 8 is 1 to 4 (12, 17).
PAD_WIDTHS = [7, 12, 15, 17, 31]


def examples(*cases):
    """Hypothesis @example for each case: one argument, or a tuple of them."""
    def decorate(test):
        for case in cases:
            test = example(*case)(test) if isinstance(case, tuple) else example(case)(test)
        return test
    return decorate


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

    @pytest.mark.parametrize(
        "data,lineno",
        [
            (b"width=4 radix=bin\n0000\n\xff\n", 3),
            (b"\xfewidth=4 radix=bin\n0000\n", 1),
            (b"width=4 radix=bin\r\n0000\r\n0001\r\n\xff\r\n", 4),
            (b"width=4 radix=bin\n0000\n\n0001\n00\xe2\x82", 5),
        ],
    )
    def test_non_utf8_bytes_name_their_line(self, data, lineno):
        with pytest.raises(TraceFormatError, match=f"^line {lineno}: .*not UTF-8"):
            read_trace(io.BytesIO(data))


class TestRenderTrace:
    def test_hex_rendering_matches_reference_style(self):
        trace = Trace(16, (0x0000, 0x0303, 0x0F03))
        assert render_trace(trace, 16) == FIG_STIMULUS

    @given(traces(min_len=1, max_len=20), st.sampled_from([2, 16]))
    @examples(*((wide_trace(width, 2 * bits.chunk_words(width) + 1), radix)
                for width in PAD_WIDTHS for radix in (2, 16)))  # three chunks
    def test_round_trip(self, trace, radix):
        text = render_trace(trace, radix)
        again = parse_trace(text)
        assert again == trace
        assert render_trace(again, radix) == text

    @pytest.mark.parametrize("radix", [2, 16])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_load_trace_round_trips_a_file(self, tmp_path, radix, newline):
        trace = Trace(12, (0, 0xABC, 0xFFF, 0x001, 0x800))
        path = tmp_path / "trace.txt"
        path.write_bytes(render_trace(trace, radix).replace("\n", newline).encode())
        assert load_trace(str(path)) == trace

    def test_header_validation(self):
        with pytest.raises(ValueError):
            TraceFileHeader(16, 8)
        with pytest.raises(ValueError):
            TraceFileHeader(0, 2)


def binary_counter_report():
    return analyze_trace(Trace(4, range(16)))


class TestWriteReport:
    def test_table_shows_reference_cells(self):
        text = write_report(binary_counter_report(), "table")
        assert "26" in text
        assert "0.43" in text

    def test_table_per_cycle_line(self):
        report = analyze_trace(
            Trace(4, range(4)), include_per_cycle=True
        )
        text = write_report(report, "table")
        assert "per-transfer counts 1 2 1" in text

    @pytest.mark.parametrize("transfers", [1, 2, 4095, 4096, 4097, 8193])
    def test_per_cycle_layout(self, transfers):
        # the counts are rendered a slice at a time; the text must be that of
        # one " ".join over them, and of one json.dumps(indent=2) of the payload
        rng = random.Random(transfers)
        trace = Trace(12, tuple(rng.getrandbits(12) for _ in range(transfers + 1)))
        report = analyze_trace(trace, include_per_cycle=True)
        table = write_report(report, "table")
        assert table.endswith(
            "\nper-transfer counts " + " ".join(str(c) for c in report.per_cycle) + "\n"
        )
        text = write_report(report, "json")
        payload = json.loads(text)
        assert payload["per_cycle"] == list(report.per_cycle)
        assert text == json.dumps(payload, indent=2) + "\n"

    def test_json_zero_activity(self):
        report = analyze_trace(Trace(8, [3] * 4))
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


LINE_ERROR = re.compile(r"line ([1-9][0-9]*): ")
WHOLE_TEXT_ERRORS = ("missing header ", "empty trace: no words after the header")


def parse_outcome(parse, source):
    """The Trace `parse` returns, or the line number its TraceFormatError
    names (None for an error about the text as a whole). Any other
    exception propagates and fails the test."""
    try:
        return parse(source)
    except TraceFormatError as exc:
        match = LINE_ERROR.match(str(exc))
        if match is None:
            assert str(exc).startswith(WHOLE_TEXT_ERRORS), str(exc)
            return None
        return int(match.group(1))


@st.composite
def trace_text_lines(draw):
    trace = draw(traces(min_len=1, max_len=8))
    return render_trace(trace, draw(st.sampled_from([2, 16]))).splitlines()


@st.composite
def mutated_trace_texts(draw):
    """A valid trace text with one line replaced or one character changed,
    the 1-based number of that line and the number of lines before the change."""
    lines = draw(trace_text_lines())
    index = draw(st.integers(0, len(lines) - 1))
    line = lines[index]
    if draw(st.booleans()):
        lines[index] = draw(st.text(max_size=12))
    else:
        at = draw(st.integers(0, len(line) - 1))
        lines[index] = line[:at] + draw(st.characters()) + line[at + 1:]
    return "\n".join(lines) + "\n", index + 1, len(lines)


@st.composite
def mutated_trace_bytes(draw):
    """A valid trace file with one byte replaced by an arbitrary byte."""
    data = bytearray(("\n".join(draw(trace_text_lines())) + "\n").encode())
    data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


class TestParserFuzz:
    """Every input gives a Trace or a TraceFormatError; an error about one
    line starts with `line N:` for a line N that exists."""

    def check_text(self, text):
        outcome = parse_outcome(parse_trace, text)
        if isinstance(outcome, int):
            assert outcome <= len(text.splitlines())
        return outcome

    def check_bytes(self, data):
        outcome = parse_outcome(read_trace, io.BytesIO(data))
        if isinstance(outcome, int):
            lines = data.decode("utf-8", "replace").splitlines()
            assert outcome <= len(lines)
            try:
                data.decode("utf-8")
            except UnicodeDecodeError:
                assert "\ufffd" in lines[outcome - 1]

    @given(st.text(max_size=200))
    def test_arbitrary_text(self, text):
        self.check_text(text)

    @given(mutated_trace_texts())
    # the replacement "\n2" puts the bad word on line 3, which is then named
    @example(case=("width=1 radix=bin\n\n2\n", 2, 2))
    def test_one_mutated_line(self, case):
        text, lineno, line_count = case
        outcome = self.check_text(text)
        # a word line was mutated and added no line break: that line is named
        if lineno > 1 and len(text.splitlines()) == text.count("\n") == line_count:
            assert not isinstance(outcome, int) or outcome == lineno

    @given(st.binary(max_size=200))
    def test_arbitrary_bytes(self, data):
        self.check_bytes(data)

    @given(mutated_trace_bytes())
    def test_one_mutated_byte(self, data):
        self.check_bytes(data)


@st.composite
def decorated_trace_texts(draw):
    """Valid trace text in a non-canonical spelling: leading zeros, mixed-case
    hex, comments, blank lines, trailing whitespace and CRLF line ends."""
    trace = draw(traces(min_len=1, max_len=10, max_width=64))
    radix = draw(st.sampled_from([2, 16]))
    digits = trace.width if radix == 2 else (trace.width + 3) // 4
    lines = [f"width={trace.width} radix={'bin' if radix == 2 else 'hex'}"]
    for value in trace.values:
        text = format(value, "b" if radix == 2 else "x")
        text = text.zfill(draw(st.integers(1, digits)))
        lines.append(text.upper() if draw(st.booleans()) else text)
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# note", "  "])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end


# Word spellings int() accepts that the trace format does not.
INT_ONLY_SPELLINGS = ("0_1", "+1", "-1", "0b1", "0x1", "1 0", "\uff11", "\u0661")


# Every width to 24 in both radices: each count of pad digits a word can take.
SMALL_WIDTH_CASES = [(wide_trace(width, 40), radix) for width in range(1, 25) for radix in (2, 16)]


def counter_text(width, radix, count, last):
    """A `count`-word counter trace whose last word is spelled `last`."""
    values = tuple(v % (1 << width) for v in range(count))
    lines = render_trace(Trace(width, values), radix).splitlines()
    return "\n".join([*lines[:-1], last, ""])


BAD_CHARS = "gG_+-x.\uff11\u0661"


@st.composite
def long_corrupted_traces(draw):
    """A valid trace text of 3000..6000 words with one word made invalid, and
    the 1-based number of its line."""
    width = draw(st.integers(1, 64))
    radix = draw(st.sampled_from([2, 16]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    values = tuple(rng.getrandbits(width) for _ in range(draw(st.integers(3000, 6000))))
    lines = render_trace(Trace(width, values), radix).splitlines()
    index = draw(st.integers(1, len(lines) - 1))
    word = lines[index]
    how = draw(st.sampled_from(["char", "long", "overflow"]))
    if how == "overflow" and radix == 16 and width % 4:
        lines[index] = "F" + word[1:]
    elif how == "long":
        lines[index] = "0" + word
    else:
        at = draw(st.integers(0, len(word) - 1))
        lines[index] = word[:at] + draw(st.sampled_from(BAD_CHARS)) + word[at + 1:]
    return "\n".join(lines) + "\n", index + 1


class TestAgainstReference:
    """parse_trace and render_trace against the Word-based versions they replaced."""

    @given(
        st.one_of(
            decorated_trace_texts(),
            mutated_trace_texts().map(lambda case: case[0]),
            st.text(max_size=60),
        )
    )
    @example(render_trace(wide_trace(1024), 16))
    @example(render_trace(wide_trace(1023), 2))
    @examples(*(f"width=8 radix=bin\n0000\n{w}\n" for w in INT_ONLY_SPELLINGS))
    @examples(*(f"width=8 radix=hex\n00\n{w}\n" for w in INT_ONLY_SPELLINGS))
    @examples("width=4 radix=bin\n0001\n00001\n", "width=8 radix=hex\n00\n001\n")
    @example(counter_text(15, 16, 5000, "8000"))
    @examples(*(counter_text(16, 16, n, "0_1F") for n in (2047, 2048, 2049)))
    @examples(*(counter_text(4, 2, n, "0_01") for n in (2047, 2048, 2049)))
    @example("# fixture\n\nwidth=4 radix=bin\n0001\n\n# body\n   \n\n01x1\n0010\n")
    @examples(*(render_trace(trace, radix) for trace, radix in SMALL_WIDTH_CASES))
    def test_parse_trace(self, text):
        assert outcome(lambda: tuple(parse_trace(text))) == outcome(
            reference.parse_trace, text
        )

    @settings(max_examples=25, deadline=None)
    @given(long_corrupted_traces())
    def test_long_trace_names_the_corrupted_line(self, case):
        text, lineno = case
        with pytest.raises(TraceFormatError, match=f"^line {lineno}: "):
            parse_trace(text)
        assert outcome(parse_trace, text) == outcome(reference.parse_trace, text)

    @given(traces(min_len=1, max_width=64), st.sampled_from([2, 16]))
    @example(wide_trace(256), 2)
    @example(wide_trace(1023), 16)
    @example(wide_trace(1024), 2)
    @example(wide_trace(1024), 16)
    @examples(*SMALL_WIDTH_CASES)
    def test_render_trace(self, trace, radix):
        assert render_trace(trace, radix) == reference.render_trace(tuple(trace), radix)


LINE_BREAKS = ["\n", "\r", "\r\n", "\x1c", "\u2028", "\x85"]
MULTIBYTE_COMMENTS = ["# é", "#€€", "# \U0001f600 ß", "  #١ # next"]


@st.composite
def line_break_texts(draw):
    """A valid trace text whose lines end in any mix of the breaks
    str.splitlines knows, with comments holding multibyte characters."""
    lines = []
    for line in draw(trace_text_lines()):
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(MULTIBYTE_COMMENTS)))
        lines.append(line)
    return "".join(line + draw(st.sampled_from(LINE_BREAKS)) for line in lines)


@st.composite
def bad_word_then_bad_byte(draw):
    """A trace file with one bad word, then a byte that is not UTF-8 on the
    same line or a later one."""
    lines = draw(trace_text_lines())
    index = draw(st.integers(0, len(lines) - 1))
    lines[index] += draw(st.sampled_from(["g", "2", "00000000000000000"]))
    data = ("\n".join(lines) + "\n").encode()
    at = draw(st.integers(len("\n".join(lines[: index + 1]).encode()), len(data)))
    bad = draw(st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98"]))
    return data[:at] + bad + data[at:]


def blocks_outcome(data, block):
    """read_trace's words or error on a text (str) or file (bytes) read in
    blocks of `block` characters or bytes."""
    stream = io.BytesIO(data) if isinstance(data, bytes) else io.StringIO(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace_io, "CHUNK_BYTES", block)
        return outcome(lambda: tuple(read_trace(stream)))


def whole_text_outcome(data):
    if isinstance(data, bytes):
        return outcome(reference.read_trace, data)
    return outcome(reference.parse_trace, data)


class TestBlockEdges:
    """read_trace in blocks of 1..7 bytes gives the words, or the exact
    error, of the reference's whole-text parse: lines, "\\r\\n" pairs and
    multibyte characters split by a block edge read as one."""

    def check(self, text_or_bytes, block):
        cases = [text_or_bytes]
        if isinstance(text_or_bytes, str):
            cases.append(text_or_bytes.encode())
        for data in cases:
            assert blocks_outcome(data, block) == whole_text_outcome(data)

    @given(
        st.one_of(
            decorated_trace_texts(),
            line_break_texts(),
            mutated_trace_texts().map(lambda case: case[0]),
            st.text(max_size=200),
        ),
        st.integers(1, 7),
    )
    @example("width=4 radix=bin\r\n0000\r\n0001\r\n", 1)
    @example("width=4 radix=bin\r\n0000\r\n0001\r", 2)
    @example("# €\nwidth=4 radix=bin\x1c0000 0001\x85", 3)
    @example("width=4 radix=bin\n0000\n0001\n0002\n", 4)
    def test_text(self, text, block):
        self.check(text, block)

    @given(st.one_of(st.binary(max_size=200), mutated_trace_bytes()), st.integers(1, 7))
    @example(b"width=4 radix=bin\n0000\n00\xe2\x82", 1)
    @example(b"width=4 radix=bin\r\n0000\r\n0001\r\n\xff\r\n", 5)
    def test_bytes(self, data, block):
        self.check(data, block)

    @given(bad_word_then_bad_byte(), st.integers(1, 7))
    @example(b"width=4 radix=bin\n0000\n0002\n0001\n\xc3\n", 2)
    def test_decode_error_beats_an_earlier_bad_word(self, data, block):
        result = blocks_outcome(data, block)
        assert result == whole_text_outcome(data)
        assert result[0] is TraceFormatError and "is not UTF-8 text" in result[1]


# Widths on each side of a hex digit, a byte, a machine integer and a lane of
# the toggle fold, and the largest allowed.
PACKED_EDGE_WIDTHS = [1, 3, 4, 5, 7, 8, 9, 12, 13, 15, 16, 17, 63, 64, 65, 255, 256, 257,
                      1023, 1024]
PACKED_WIDTHS = st.one_of(st.sampled_from(PACKED_EDGE_WIDTHS), st.integers(1, 1024))
BAD_BYTES = [b"\xff", b"\x80", b"\xc3", b"\xe2\x82"]


@st.composite
def mixed_trace_bytes(draw, min_bytes, max_bytes):
    """A rendered trace file of about `min_bytes` to `max_bytes`, in either
    radix, hex in either case, with a few lines made unclean: a comment or
    blank line, a "\\r\\n" end, leading spaces or an over-range hex word,
    and maybe a byte that is not UTF-8 in its second half."""
    width = draw(PACKED_WIDTHS)
    radix = draw(st.sampled_from([2, 16]))
    digits = width if radix == 2 else (width + 3) // 4
    count = draw(st.integers(max(1, min_bytes // (digits + 1)), max(1, max_bytes // (digits + 1))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    values = tuple(rng.getrandbits(width) for _ in range(count))
    lines = render_trace(Trace(width, values), radix).splitlines()
    if radix == 16 and draw(st.booleans()):
        lines[1:] = [line.lower() for line in lines[1:]]
    ends = ["\n"] * len(lines)
    for _ in range(draw(st.integers(0, 3))):
        index = draw(st.integers(1, len(lines) - 1))
        how = draw(st.sampled_from(["comment", "blank", "crlf", "indent", "overrange"]))
        if how == "comment":
            lines.insert(index, "# note")
            ends.insert(index, "\n")
        elif how == "blank":
            lines.insert(index, draw(st.sampled_from(["", "  "])))
            ends.insert(index, "\n")
        elif how == "crlf":
            ends[index] = "\r\n"
        elif how == "indent":
            lines[index] = "  " + lines[index]
        elif radix == 16 and width % 4 and lines[index][:1].isalnum():
            lines[index] = "F" + lines[index][1:]
    data = "".join(map(str.__add__, lines, ends)).encode()
    if draw(st.booleans()):
        at = draw(st.integers(len(data) // 2, len(data)))
        data = data[:at] + draw(st.sampled_from(BAD_BYTES)) + data[at:]
    return data


class TestPackedChunks:
    """The packed reader and renderer against the Word-based reference: the
    same words, or the same error text and line, at widths 1 to 1024."""

    @given(traces(min_len=1, max_len=20, max_width=1024), st.sampled_from([2, 16]),
           st.sampled_from([1, 2, 3, None]))
    @example(Trace(1024, ((1 << 1024) - 1, 0, 5)), 2, 1)
    @examples(*((wide_trace(width, 10), radix, 3) for width in PAD_WIDTHS for radix in (2, 16)))
    def test_render(self, trace, radix, chunk):
        words = tuple(trace)
        with pytest.MonkeyPatch.context() as patch:
            if chunk:  # `chunk` words per chunk, so a trace spans several
                patch.setattr(bits, "CHUNK_BYTES", chunk * ((trace.width + 7) // 8))
            assert render_trace(trace, radix) == reference.render_trace(words, radix)

    @settings(deadline=None)
    @given(mixed_trace_bytes(0, 400), st.integers(1, 7))
    def test_blocks_of_a_few_bytes(self, data, block):
        assert blocks_outcome(data, block) == whole_text_outcome(data)

    @settings(max_examples=40, deadline=None)
    @given(mixed_trace_bytes(CHUNK_BYTES, 3 * CHUNK_BYTES))
    def test_blocks_of_the_budget(self, data):
        assert blocks_outcome(data, CHUNK_BYTES) == whole_text_outcome(data)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            return
        assert outcome(lambda: tuple(parse_trace(text))) == outcome(reference.parse_trace, text)


class TestFastPath:
    """A trace as render_chunks writes it, with "\\n" or "\\r\\n" line ends, is
    parsed a block at a time in a few C calls; a change that sent every
    block down the line walk would only show as a slower benchmark, so the
    walk's calls are counted."""

    @pytest.mark.parametrize("width", [16, 256])
    @pytest.mark.parametrize("radix", [2, 16])
    def test_rendered_trace_skips_the_line_walk(self, width, radix, monkeypatch):
        digits = width if radix == 2 else width // 4
        rng = random.Random(width + radix)
        values = tuple(rng.getrandbits(width) for _ in range(5 * CHUNK_BYTES // (digits + 1)))
        rendered = "".join(render_chunks(width, Trace(width, values).chunks(), radix))
        calls = []
        walk = trace_io._words
        monkeypatch.setattr(trace_io, "_words", lambda *args: calls.append(args) or walk(*args))
        for end in ("\n", "\r\n"):
            text = rendered.replace("\n", end)
            assert read_trace(io.BytesIO(text.encode())).values == values
            assert parse_trace(text).values == values
            assert not calls, repr(end)  # the header's block too is parsed whole


HAND_EDIT_WIDTHS = [1, 4, 13, 16, 65, 1024]


@st.composite
def bad_words(draw, width, radix, digits):
    """A word spelling that word_from_text rejects: a digit outside the
    radix, one digit too many, or (hex, when the width is not whole digits)
    a value above the width."""
    hows = ["digit", "long"] + (["overrange"] if radix == 16 and width % 4 else [])
    how = draw(st.sampled_from(hows))
    if how == "long":
        return "0" * (digits + 1)
    if how == "overrange":
        return "F" + "0" * (digits - 1)
    word = "0" * draw(st.integers(0, digits - 1))
    at = draw(st.integers(0, len(word)))
    bad = draw(st.sampled_from(["g", "_", "+", "x", "0 1", "١"] + ["2"] * (radix == 2)))
    return word[:at] + bad + word[at:]


@st.composite
def hand_edited_traces(draw, bad):
    """A trace file edited by hand: groups of words, some indented or short
    of their digits, hex in either case, among comments and blank lines,
    each line ended by "\\n" or "\\r\\n". With `bad`, each group holds one
    word that word_from_text rejects."""
    width = draw(st.sampled_from(HAND_EDIT_WIDTHS))
    radix = draw(st.sampled_from([2, 16]))
    digits = width if radix == 2 else (width + 3) // 4
    rng = random.Random(draw(st.integers(0, 2**32)))
    lines = [f"width={width} radix={'bin' if radix == 2 else 'hex'}"]
    for _ in range(draw(st.integers(1, 3))):
        group = []
        for _ in range(draw(st.integers(1, 8))):
            word = format(rng.getrandbits(width), "b" if radix == 2 else "x")
            word = word.zfill(draw(st.integers(1, digits)))
            if draw(st.booleans()):
                word = word.upper()
            group.append(draw(st.sampled_from(["", " ", "\t"])) + word
                         + draw(st.sampled_from(["", "  "])))
        if bad:
            group.insert(draw(st.integers(0, len(group))), draw(bad_words(width, radix, digits)))
        for _ in range(draw(st.integers(0, 3))):
            group.insert(draw(st.integers(0, len(group))),
                         draw(st.sampled_from(["# note", "  # 0101", "", "   "])))
        lines += group
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines).encode()


class TestHandEditedBlocks:
    """A hand-edited block is parsed as one zero-filled clean block, which
    fails only on a word that word_from_text rejects: a clean parse never
    calls word_from_text, and a bad word is named as the reference names it,
    in blocks of the budget or of a few lines."""

    @staticmethod
    def read(data, block):
        calls = []
        check = trace_io.word_from_text
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace_io, "CHUNK_BYTES", block)
            patch.setattr(trace_io, "word_from_text",
                          lambda *args: calls.append(args) or check(*args))
            return outcome(lambda: tuple(read_trace(io.BytesIO(data)))), calls

    @settings(deadline=None)
    @given(hand_edited_traces(bad=False), st.sampled_from([64, CHUNK_BYTES]))
    @example(b"width=4 radix=bin\n# note\n  1\r\n\n0010\n", CHUNK_BYTES)
    @example(b"width=13 radix=hex\n1\n# a block of comments only\n# more\n\n1FFF\n", 1)
    def test_clean_words_never_call_word_from_text(self, data, block):
        result, calls = self.read(data, block)
        assert result == reference.read_trace(data)
        assert not calls

    @settings(deadline=None)
    @given(hand_edited_traces(bad=True), st.sampled_from([64, CHUNK_BYTES]))
    @example(b"width=13 radix=hex\n# note\n 0\nF000\n", CHUNK_BYTES)
    def test_bad_word_named_as_the_reference_names_it(self, data, block):
        result, calls = self.read(data, block)
        assert result == outcome(reference.read_trace, data)
        assert result[0] is TraceFormatError and calls
