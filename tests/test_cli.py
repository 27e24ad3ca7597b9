import contextlib
import gc
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import togglesim
from togglesim.bits import Word
from togglesim.cli import GRAMMAR, build_parser, main
from togglesim.cmdline import parse
from togglesim.generators import BOUNDARIES, KINDS, GeneratorConfig, kind_parameter
from togglesim.trace_io import REPORT_FORMATS
import reference_generators as reference


# A word that argparse may take for a negative number: only argparse tells
# one from a flag, so a line with one is not plain.
NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def run_cli(capsys, *argv):
    """main(argv): its exit code, stdout and stderr. Each line these tests
    run to success is plain unless it holds a negative number, and is checked
    to parse without argparse, so that the plain-line path cannot lapse."""
    code = main(list(argv))
    captured = capsys.readouterr()
    if code == 0 and not any(map(NEGATIVE_NUMBER.match, argv)):
        assert parse(list(argv), GRAMMAR) is not None, argv
    return code, captured.out, captured.err


class TestGen:
    def test_gray_full_cycle_to_file(self, capsys, tmp_path):
        out = tmp_path / "gray.trace"
        code, stdout, _ = run_cli(
            capsys, "gen", "--kind", "gray", "--width", "4", "--seed", "0000",
            "--cycles", "15", "-o", str(out),
        )
        assert code == 0
        assert "wrote 16 words" in stdout
        body = [
            line for line in out.read_text().splitlines()
            if line and not line.startswith("#") and "=" not in line
        ]
        assert len(body) == 16

    def test_lfsr_deterministic_trace(self, capsys, tmp_path):
        argv = (
            "gen", "--kind", "lfsr_external", "--width", "16",
            "--seed", "1011001010110110", "--taps", "16,14,13,11",
            "--cycles", "32", "-o",
        )
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        assert run_cli(capsys, *argv, str(a))[0] == 0
        assert run_cli(capsys, *argv, str(b))[0] == 0
        assert a.read_text() == b.read_text()
        assert len(a.read_text().splitlines()) == 33 + 1  # header + words

    def test_all_zero_lfsr_seed_rejected(self, capsys):
        code, _, stderr = run_cli(
            capsys, "gen", "--kind", "lfsr_external", "--width", "16",
            "--seed", "0" * 16, "--cycles", "8",
        )
        assert code == 2
        assert "all-zero LFSR seed" in stderr

    def test_taps_required_off_width_16(self, capsys):
        code, _, stderr = run_cli(
            capsys, "gen", "--kind", "lfsr_internal", "--width", "8",
            "--seed", "01", "--cycles", "4",
        )
        assert code == 2
        assert "--taps" in stderr

    def test_stdout_trace_with_count_on_stderr(self, capsys):
        code, stdout, stderr = run_cli(
            capsys, "gen", "--kind", "binary", "--width", "4", "--cycles", "3",
        )
        assert code == 0
        assert stdout.startswith("width=4 radix=bin\n")
        assert "4 words" in stderr

    @pytest.mark.parametrize("width", ["2000", "0"])
    def test_bad_width_names_width(self, capsys, width):
        code, stdout, stderr = run_cli(
            capsys, "gen", "--kind", "binary", "--width", width, "--cycles", "3",
        )
        assert code == 2
        assert stdout == ""
        assert "bad --width: width must be" in stderr
        assert "--seed" not in stderr

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--kind", "ca90", "--width", "8", "--seed", "01", "--taps", "4"],
             "taps apply to LFSR kinds only"),
            (["--kind", "binary", "--width", "4", "--taps", "4"],
             "taps apply to LFSR kinds only"),
            (["--kind", "lfsr_internal", "--width", "16", "--seed", "0001",
              "--boundary", "cyclic"], "boundary applies to CA kinds only"),
            (["--kind", "gray", "--width", "4", "--boundary", "null"],
             "boundary applies to CA kinds only"),
        ],
        ids=["taps-ca90", "taps-binary", "boundary-lfsr", "boundary-gray"],
    )
    def test_parameter_of_another_kind_is_usage_error(self, capsys, argv, message):
        code, stdout, stderr = run_cli(capsys, "gen", *argv, "--cycles", "3")
        assert code == 2
        assert stdout == ""
        assert message in stderr

    @pytest.mark.parametrize(
        "taps,message",
        [("17", "invalid tap position 17 for width 16"),
         ("1,2", "taps must include the register width 16")],
    )
    def test_bad_taps_is_usage_error(self, capsys, taps, message):
        code, stdout, stderr = run_cli(
            capsys, "gen", "--kind", "lfsr_internal", "--width", "16",
            "--cycles", "3", "--taps", taps,
        )
        assert code == 2
        assert stdout == ""
        assert message in stderr

    def test_ca_boundary_defaults_to_null(self, capsys):
        argv = ("gen", "--kind", "ca150", "--width", "8", "--seed", "01", "--cycles", "9")
        code, default, _ = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, "--boundary", "null")[1] == default
        assert run_cli(capsys, *argv, "--boundary", "cyclic")[1] != default

    def test_empty_output_path_exits_3(self, capsys):
        # as analyze "" and power --from-report "" do, not a trace on stdout
        assert run_cli(capsys, "gen", "--kind", "binary", "--width", "4", "--cycles", "3",
                       "-o", "") == (
            3, "", "togglesim: error: [Errno 2] No such file or directory: ''\n"
        )

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


def test_parser_choices_are_the_generators_own():
    # the parser writes these out so that it need not import generators
    commands = next(
        action for action in build_parser()._actions if action.dest == "command"
    ).choices
    options = {
        (command, option): action.choices
        for command in ("gen", "tables")
        for action in commands[command]._actions
        for option in action.option_strings
    }
    assert list(options["gen", "--kind"]) == list(KINDS)
    assert list(options["gen", "--boundary"]) == list(BOUNDARIES)
    assert list(options["tables", "--boundary"]) == list(BOUNDARIES)


def test_parser_report_formats_are_write_reports_own():
    # written out, too, so that the parser need not import trace_io
    commands = next(
        action for action in build_parser()._actions if action.dest == "command"
    ).choices
    (formats,) = (action.choices for action in commands["analyze"]._actions
                  if "--format" in action.option_strings)
    assert list(formats) == list(REPORT_FORMATS)


PARSER = build_parser()


def argparse_namespace(argv):
    """build_parser().parse_args(argv), or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return PARSER.parse_args(argv)
        except SystemExit:
            return None


def assert_parsed_as_argparse_does(argv):
    """parse(argv) declines, or gives what argparse gives, values and order."""
    plain = parse(argv, GRAMMAR)
    if plain is not None:
        parsed = argparse_namespace(argv)
        assert parsed is not None, argv
        assert repr(vars(plain)) == repr(vars(parsed))  # repr: a nan equals itself
    return plain


FLAGS = sorted({flag for _, *arguments in GRAMMAR.values() for flags, *_ in arguments
                for flag in flags.split() if flag[0] == "-"})
VALUES = ["binary", "gray", "lfsr_internal", "ca150", "bin", "hex", "auto", "null", "cyclic",
          "json", "csv", "table", "businvert", "0", "1", "2", "3", "8", "16", "1_0", " 4",
          "0.5", "1e-12", "inf", "nan", "ACE1", "16,14,13,11", "x", "", "-", "t.trace"]
# words no plain line holds where they stand: help, abbreviations, joined
# values, the end of options, negative numbers, unknown flags and commands
ODD = ["-h", "--help", "--", "--ki", "--wid", "--se", "--seed-r", "--per", "--out", "--fo",
       "--kind=gray", "--width=8", "--format=json", "--per-cycle=1", "-ox", "-o=x", "-1",
       "-0.5", "-1e-3", "-x", "--bogus", "gen", "analyze", "power", "tables", "gem"]
# values of each declared type, for an argument without choices
TYPED_VALUES = {int: ["0", "3", "16", " 4", "1_0"], float: ["0.5", "1e-12", "inf", "nan", "0"],
                None: ["x", "", "ACE1", "16,14,13,11", "t.trace"]}
# the arguments each command requires, so that drawn lines can succeed
REQUIRED = {
    "gen": [["--kind", "binary"], ["--width", "4"], ["--cycles", "3"]],
    "analyze": [["t.trace"]],
    "power": [["--tau", "0.5"], ["--cap", "1e-12"], ["--vdd", "1"], ["--freq", "1e6"]],
    "tables": [],
}


@st.composite
def command_lines(draw):
    """A command and its required arguments, and mostly its own flags with
    values of their types, with now and then any flag, value or word, in any
    order; then now and then a word dropped or inserted anywhere."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    own = {flag: [] if kind is bool else [*map(str, choices)] if choices else TYPED_VALUES[kind]
           for flags, kind, choices, *_ in GRAMMAR[command][1:]
           for flag in flags.split() if flag[0] == "-"}
    units = list(REQUIRED[command])
    for _ in range(draw(st.integers(0, 3))):
        unit = draw(st.sampled_from(["own"] * 6 + ["any", "alone"]))
        if unit == "own" and own:
            flag = draw(st.sampled_from(sorted(own)))
            units.append([flag, *([draw(st.sampled_from(own[flag]))] if own[flag] else [])])
        elif unit != "alone":
            units.append([draw(st.sampled_from(FLAGS)), draw(st.sampled_from(VALUES + ODD))])
        else:
            units.append([draw(st.sampled_from(FLAGS))])
    words = [command, *(word for unit in draw(st.permutations(units)) for word in unit)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        if len(words) > 1 and draw(st.booleans()):
            del words[draw(st.integers(0, len(words) - 1))]
        else:
            words.insert(draw(st.integers(0, len(words))),
                         draw(st.sampled_from(FLAGS + VALUES + ODD)))
    return words


class TestPlainParse:
    """cmdline.parse, which main tries before argparse, against argparse."""

    @settings(max_examples=600, deadline=None)
    @given(command_lines())
    @example(["analyze", "-", "--per-cycle", "--format", "json"])
    @example(["gen", "-o", "x", "--output", "y", "--kind", "gray", "--width", "1",
              "--cycles", "0", "--kind", "binary"])
    @example(["power", "--tau", "nan", "--cap", "1", "--vdd", "1", "--freq", "1",
              "--vdd-exponent", " 2"])
    def test_declines_or_agrees_with_argparse(self, argv):
        assert_parsed_as_argparse_does(argv)

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["gen", "--help"], ["analyze", "-h"], ["gem"],
        ["gen", "--ki", "gray", "--width", "4", "--cycles", "3"],
        ["gen", "--kind=gray", "--width", "4", "--cycles", "3"],
        ["gen", "--kind", "gray", "--width", "4", "--cycles", "3", "-ox"],
        ["gen", "--kind", "gray", "--width", "4", "--", "--cycles", "3"],
        ["gen", "--kind", "gray", "--width", "4", "--cycles", "-1"],
        ["gen", "--kind", "gray", "--width", "four", "--cycles", "3"],
        ["gen", "--kind", "grey", "--width", "4", "--cycles", "3"],
        ["gen", "--kind", "gray", "--width", "4"],
        ["gen", "--kind", "gray", "--width", "4", "--cycles"],
        ["gen", "--kind", "gray", "--width", "4", "--cycles", "3", "-o", "-"],
        ["gen", "--kind", "gray", "--width", "4", "--cycles", "3", "extra"],
        ["analyze"], ["analyze", "a", "b"], ["analyze", "-x"], ["analyze", "a", "--per-cycle=1"],
        ["power", "--tau", "-0", "--cap", "1", "--vdd", "1", "--freq", "1"],
        ["power", "--tau", "0.5", "--cap", "1", "--vdd", "1", "--freq", "1",
         "--vdd-exponent", "3"],
    ])
    def test_declines_what_argparse_must_parse(self, argv):
        # help, abbreviations, joined values, "--", negative numbers, bad values,
        # a missing option and a second positional: argparse's text
        assert parse(argv, GRAMMAR) is None

    def test_every_benchmark_command_line_is_plain(self, monkeypatch, tmp_path):
        # each shape of command line the benchmark's workloads run
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(SRC), "perfbench"))
        workloads = importlib.import_module("workloads")
        lines = [argv for build in workloads.WORKLOADS.values()
                 if build.__name__ != "probe_replay"
                 for step in build(random.Random(1), tmp_path).spec["steps"]
                 for argv in step.values()]
        assert lines
        for argv in lines:
            assert assert_parsed_as_argparse_does(argv) is not None, argv


# every kind and CA boundary, at widths that 4 does and does not divide, on
# both sides of 64 bits
GEN_CASES = [
    (kind, width, boundary)
    for kind in KINDS
    for boundary in (("null", "cyclic") if kind_parameter(kind) == "boundary" else (None,))
    for width in (1, 5, 16, 65, 256)
]


@pytest.mark.parametrize("radix", ["bin", "hex"])
@pytest.mark.parametrize("kind,width,boundary", GEN_CASES)
def test_gen_stdout_equals_reference_walk(capsys, kind, width, boundary, radix):
    rng = random.Random(f"{kind}-{width}")
    seed = rng.getrandbits(width) or 1
    taps = None
    argv = ["gen", "--kind", kind, "--width", str(width), "--seed", format(seed, "X"),
            "--seed-radix", "hex", "--cycles", "40", "--radix", radix]
    if kind_parameter(kind) == "taps":
        taps = {width, 1} | {rng.randint(1, width) for _ in range(3)}
        argv += ["--taps", ",".join(map(str, sorted(taps)))]
    if boundary is not None:
        argv += ["--boundary", boundary]
    config = GeneratorConfig(kind, width, Word(width, seed), taps, boundary)
    render = Word.to_binary if radix == "bin" else Word.to_hex
    expected = "".join(
        [f"width={width} radix={radix}\n", *(render(w) + "\n" for w in reference.walk(config, 40))]
    )
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 0
    assert stdout == expected
    assert stderr == "41 words\n"


class TestAnalyze:
    @pytest.fixture
    def binary4_trace(self, capsys, tmp_path):
        path = tmp_path / "bin4.trace"
        run_cli(capsys, "gen", "--kind", "binary", "--width", "4",
                "--cycles", "15", "-o", str(path))
        return path

    def test_table_output(self, capsys, binary4_trace):
        code, stdout, _ = run_cli(capsys, "analyze", str(binary4_trace))
        assert code == 0
        assert "26" in stdout
        assert "0.43" in stdout

    def test_binary_8bit_display(self, capsys, tmp_path):
        path = tmp_path / "bin8.trace"
        run_cli(capsys, "gen", "--kind", "binary", "--width", "8",
                "--cycles", "255", "-o", str(path))
        code, stdout, _ = run_cli(
            capsys, "analyze", str(path), "--format", "json"
        )
        payload = json.loads(stdout)
        assert code == 0
        assert payload["total_transitions"] == 502
        assert round(payload["tau"], 3) == 0.246

    def test_gray_encode_option(self, capsys, binary4_trace):
        code, stdout, _ = run_cli(
            capsys, "analyze", str(binary4_trace), "--encode", "gray",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(stdout)["tau"] == 0.25

    def test_businvert_encode_widens_bus(self, capsys, binary4_trace):
        code, stdout, _ = run_cli(
            capsys, "analyze", str(binary4_trace), "--encode", "businvert",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(stdout)["width"] == 5

    def test_businvert_at_width_limit_exits_3(self, capsys, tmp_path):
        wide = tmp_path / "wide.trace"
        wide.write_text("width=1024 radix=hex\n0\n1\n")
        code, _, stderr = run_cli(capsys, "analyze", str(wide), "--encode", "businvert")
        assert code == 3
        assert "bus-invert" in stderr
        assert "1025" not in stderr

    def test_stdin_matches_file(self, capsys, monkeypatch, binary4_trace):
        _, from_file, _ = run_cli(capsys, "analyze", str(binary4_trace))
        stdin = io.TextIOWrapper(io.BytesIO(binary4_trace.read_bytes()))
        monkeypatch.setattr("sys.stdin", stdin)
        code, from_pipe, _ = run_cli(capsys, "analyze", "-")
        assert code == 0
        assert from_pipe == from_file

    def test_parse_error_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_text("width=16 radix=hex\n0000\nG3\n")
        code, _, stderr = run_cli(capsys, "analyze", str(bad))
        assert code == 3
        assert "line 3" in stderr

    def test_leading_byte_order_mark_is_skipped(self, capsys, binary4_trace, tmp_path):
        marked = tmp_path / "marked.trace"
        marked.write_bytes(b"\xef\xbb\xbf" + binary4_trace.read_bytes())
        assert run_cli(capsys, "analyze", str(marked)) == run_cli(
            capsys, "analyze", str(binary4_trace)
        )

    @pytest.mark.parametrize("width", ["\uff11\uff16", "\u0661\u0666"])
    def test_header_width_in_other_digits_exits_3(self, capsys, tmp_path, width):
        bad = tmp_path / "bad.trace"
        bad.write_text(f"width={width} radix=bin\n0000\n0101\n", encoding="utf-8")
        code, stdout, stderr = run_cli(capsys, "analyze", str(bad))
        assert (code, stdout) == (3, "")
        assert stderr.startswith("togglesim: error: line 1: expected header ")

    def test_header_width_zero_padded_past_the_int_limit(self, capsys, tmp_path):
        # the width's leading zeros are dropped before int(), which takes at
        # most 4300 digits, so this header reads as width=16 does
        padded, plain = tmp_path / "padded.trace", tmp_path / "plain.trace"
        words = f"{'0' * 16}\n{'0' * 15}1\n"
        padded.write_text(f"width={'0' * 5000}16 radix=bin\n{words}")
        plain.write_text(f"width=16 radix=bin\n{words}")
        assert run_cli(capsys, "analyze", str(padded)) == run_cli(capsys, "analyze", str(plain))

    def test_header_width_past_the_int_limit_names_its_line(self, capsys, tmp_path):
        digits = "1" + "0" * 5000
        bad = tmp_path / "bad.trace"
        bad.write_text(f"width={digits} radix=bin\n0\n1\n")
        assert run_cli(capsys, "analyze", str(bad)) == (
            3, "", f"togglesim: error: line 1: width must be an integer in 1..1024, got {digits}\n"
        )

    def test_non_utf8_file_names_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_bytes(b"width=4 radix=bin\n0000\n\xff\n")
        code, stdout, stderr = run_cli(capsys, "analyze", str(bad))
        assert code == 3
        assert stdout == ""
        assert stderr.startswith("togglesim: error: line 3: ")
        assert "0xFF" in stderr

    def test_non_utf8_stdin_names_line(self, capsys, monkeypatch):
        data = b"width=4 radix=bin\n0000\n0001\n00\xc3\n"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, stdout, stderr = run_cli(capsys, "analyze", "-")
        assert code == 3
        assert stdout == ""
        assert stderr.startswith("togglesim: error: line 4: ")

    def test_per_cycle_json_lists_counts(self, capsys, binary4_trace):
        _, plain, _ = run_cli(capsys, "analyze", str(binary4_trace), "--format", "json")
        code, stdout, _ = run_cli(
            capsys, "analyze", str(binary4_trace), "--format", "json", "--per-cycle"
        )
        assert code == 0
        payload = json.loads(stdout)
        assert "per_cycle" not in json.loads(plain)
        assert list(payload) == list(json.loads(plain)) + ["per_cycle"]
        assert payload["per_cycle"][:4] == [1, 2, 1, 3]
        assert len(payload["per_cycle"]) == payload["transfers"] == 15
        assert sum(payload["per_cycle"]) == payload["total_transitions"] == 26

    def test_per_cycle_csv_is_usage_error(self, capsys, binary4_trace):
        code, stdout, stderr = run_cli(
            capsys, "analyze", str(binary4_trace), "--format", "csv", "--per-cycle"
        )
        assert code == 2
        assert stdout == ""
        assert "--per-cycle" in stderr

    def test_missing_file_exits_3(self, capsys, tmp_path):
        code, _, stderr = run_cli(capsys, "analyze", str(tmp_path / "nope.trace"))
        assert code == 3

    def test_single_word_trace_exits_3(self, capsys, tmp_path):
        short = tmp_path / "short.trace"
        short.write_text("width=4 radix=bin\n0000\n")
        code, _, stderr = run_cli(capsys, "analyze", str(short))
        assert code == 3
        assert "too short" in stderr


def wide_words(count):
    """`count` distinct 1024-bit words in hex."""
    return [format(i * 2654435761 % (1 << 1024), "0256X") for i in range(count)]


class TestErrorPrecedence:
    """With the trace read a chunk at a time, errors keep their order: a bad
    word anywhere, then the bus-invert width, then a trace too short."""

    TOO_WIDE = (
        "togglesim: error: bus-invert needs one extra line above the 1024 data lines, "
        "but bus width is capped at MAX_WIDTH=1024\n"
    )
    TOO_SHORT = "togglesim: error: trace too short: need at least 2 words to observe a transfer\n"
    NO_WORDS = "togglesim: error: empty trace: no words after the header\n"

    def check(self, capsys, tmp_path, text, encode, stderr):
        path = tmp_path / "t.trace"
        path.write_text(text)
        assert run_cli(capsys, "analyze", str(path), *encode) == (3, "", stderr)

    def test_bad_word_beats_the_bus_invert_width(self, capsys, tmp_path):
        words = wide_words(6000)
        words[4999] = "G" + words[4999][1:]
        text = "\n".join(["width=1024 radix=hex", *words, ""])
        stderr = f"togglesim: error: line 5001: invalid hex digit 'G' in {words[4999]!r}\n"
        self.check(capsys, tmp_path, text, ["--encode", "businvert"], stderr)

    def test_bus_invert_width_after_a_clean_read(self, capsys, tmp_path):
        text = "\n".join(["width=1024 radix=hex", *wide_words(6000), ""])
        self.check(capsys, tmp_path, text, ["--encode", "businvert"], self.TOO_WIDE)

    @pytest.mark.parametrize(
        "text,encode,stderr",
        [
            ("width=4 radix=bin\n0000\n", [], TOO_SHORT),
            ("width=4 radix=bin\n0000\n", ["--encode", "businvert"], TOO_SHORT),
            ("width=1024 radix=hex\n0\n", ["--encode", "businvert"], TOO_WIDE),
            ("width=4 radix=bin\n# no words\n", [], NO_WORDS),
            ("width=1024 radix=hex\n", ["--encode", "businvert"], NO_WORDS),
        ],
        ids=["one-word", "one-word-businvert", "one-word-too-wide", "header-only",
             "header-only-too-wide"],
    )
    def test_short_traces(self, capsys, tmp_path, text, encode, stderr):
        self.check(capsys, tmp_path, text, encode, stderr)


GEN_LFSR16 = ["gen", "--kind", "lfsr_internal", "--width", "16", "--seed", "ACE1"]


def peak_bytes(argv):
    """tracemalloc's peak over one in-process CLI run, which must succeed."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFlatMemory:
    """gen and analyze hold a chunk of the trace at a time, so ten times the
    words take no more memory."""

    def test_gen_to_a_discarding_sink(self, monkeypatch):
        with open(os.devnull, "w", encoding="utf-8") as sink:
            monkeypatch.setattr("sys.stdout", sink)
            monkeypatch.setattr("sys.stderr", sink)
            small, large = (
                peak_bytes([*GEN_LFSR16, "--cycles", str(words - 1)])
                for words in (20_000, 200_000)
            )
        assert large <= small + (64 << 10)

    def test_analyze_a_file(self, capsys, tmp_path):
        paths = []
        for words in (20_000, 200_000):
            paths.append(tmp_path / f"{words}.trace")
            main([*GEN_LFSR16, "--cycles", str(words - 1), "-o", str(paths[-1])])
        small, large = (peak_bytes(["analyze", str(path)]) for path in paths)
        capsys.readouterr()
        assert large <= small + (64 << 10)

    def test_analyze_per_cycle_json_to_a_discarding_sink(self, monkeypatch, tmp_path):
        # the counts are held, but the report is written a slice of them at a
        # time, never whole: the peak grows by what holding the added counts
        # takes, 12 bytes each (a tuple slot, a quarter more while the tuple
        # grows, and an array('H') entry while it is built), and 256 KiB
        with open(os.devnull, "w", encoding="utf-8") as sink:
            monkeypatch.setattr("sys.stdout", sink)
            peaks = []
            for words in (20_000, 200_000):
                path = tmp_path / f"{words}.trace"
                main([*GEN_LFSR16, "--cycles", str(words - 1), "-o", str(path)])
                peaks.append(peak_bytes(["analyze", str(path), "--per-cycle", "--format", "json"]))
        small, large = peaks
        assert large <= small + 12 * (200_000 - 20_000) + (256 << 10)


class TestPower:
    def test_dynamic_from_tau(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "power", "--tau", "0.25", "--cap", "1e-12",
            "--vdd", "1", "--freq", "1e6",
        )
        assert code == 0
        assert "2.5e-07 W" in stdout
        assert "0.25 uW" in stdout

    def test_zero_tau(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "power", "--tau", "0", "--cap", "1e-12",
            "--vdd", "1", "--freq", "1e6",
        )
        assert code == 0
        assert "0 W" in stdout

    def test_tau_out_of_range(self, capsys):
        code, _, stderr = run_cli(
            capsys, "power", "--tau", "1.5", "--cap", "1e-12",
            "--vdd", "1", "--freq", "1e6",
        )
        assert code == 2
        assert "tau" in stderr

    def test_from_report(self, capsys, tmp_path):
        trace = tmp_path / "t.trace"
        run_cli(capsys, "gen", "--kind", "gray", "--width", "4",
                "--cycles", "15", "-o", str(trace))
        _, report_json, _ = run_cli(capsys, "analyze", str(trace), "--format", "json")
        report = tmp_path / "report.json"
        report.write_text(report_json)
        code, stdout, _ = run_cli(
            capsys, "power", "--from-report", str(report), "--cap", "1e-12",
            "--vdd", "1", "--freq", "1e6",
        )
        assert code == 0
        assert "2.5e-07 W" in stdout  # tau 0.25 from the gray report

    @pytest.mark.parametrize(
        "tau",
        ["true", '"0.5"', "null", "1" + "0" * 400],
        ids=["true", "string", "null", "int-beyond-float"],
    )
    def test_from_report_tau_must_be_a_number(self, capsys, tmp_path, tau):
        report = tmp_path / "report.json"
        report.write_text(f'{{"tau": {tau}}}')
        code, stdout, stderr = run_cli(
            capsys, "power", "--from-report", str(report), "--cap", "1e-12",
            "--vdd", "1", "--freq", "1e6",
        )
        assert code == 3
        assert stdout == ""
        assert f"cannot read tau from {report}" in stderr

    @pytest.mark.parametrize("tau", ["1.5", "-0.1", "NaN"])
    def test_from_report_tau_out_of_range_exits_3(self, capsys, tmp_path, tau):
        report = tmp_path / "report.json"
        report.write_text(f'{{"tau": {tau}}}')
        code, stdout, stderr = run_cli(
            capsys, "power", "--from-report", str(report), "--cap", "1e-12",
            "--vdd", "1", "--freq", "1e6",
        )
        assert code == 3
        assert stdout == ""
        assert stderr == (
            f"togglesim: error: cannot read tau from {report}: "
            f"tau must be in [0, 1], got {float(tau)}\n"
        )

    def test_tau_and_report_conflict(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        report.write_text("{}")
        code, _, stderr = run_cli(
            capsys, "power", "--tau", "0.2", "--from-report", str(report),
            "--cap", "1e-12", "--vdd", "1", "--freq", "1e6",
        )
        assert code == 2

    def test_static_power_output(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "power", "--tau", "0.25", "--cap", "1e-12", "--vdd", "1.2",
            "--freq", "1e6", "--isat", "1e-12", "--vdiode", "0", "--temp", "300",
        )
        assert code == 0
        assert "static power" in stdout
        assert "0 W" in stdout  # zero diode voltage leaks nothing

    def test_negative_zero_prints_as_zero(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "power", "--tau", "-0", "--cap", "1e-12", "--vdd", "1",
            "--freq", "1e6", "--isat", "1e-12", "--vdiode", "-0",
        )
        assert code == 0
        assert stdout == "dynamic power: 0 W (0 uW)\nstatic power:  0 W (0 uW)\n"
        assert "-0" not in stdout

    @pytest.mark.parametrize(
        "static",
        [["--isat", "1e-12", "--vdiode", "100"], ["--isat", "1e-12"], ["--vdiode", "0.1"]],
        ids=["leakage-overflows", "isat-alone", "vdiode-alone"],
    )
    def test_static_power_error_prints_nothing(self, capsys, static):
        code, stdout, stderr = run_cli(
            capsys, "power", "--tau", "0.5", "--cap", "1e-12", "--vdd", "1",
            "--freq", "1e6", *static,
        )
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("togglesim: error: ")

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--cap", "inf"),
            ("--vdd", "inf"),
            ("--freq", "nan"),
            ("--isat", "inf"),
            ("--temp", "inf"),
            ("--vdiode", "-inf"),
            ("--vdiode", "nan"),
        ],
    )
    def test_non_finite_parameter_exits_2(self, capsys, flag, value):
        params = {
            "--tau": "0.5", "--cap": "1e-12", "--vdd": "1", "--freq": "1e6",
            "--isat": "1e-12", "--vdiode": "0.1", "--temp": "300",
        }
        params[flag] = value
        argv = [f"{name}={text}" for name, text in params.items()]
        code, stdout, stderr = run_cli(capsys, "power", *argv)
        assert code == 2
        assert "inf W" not in stdout and "nan W" not in stdout
        assert "finite" in stderr

    def test_report_nested_past_the_recursion_limit_exits_3(self, capsys, tmp_path):
        report = tmp_path / "deep.json"
        report.write_text("[" * 200_000 + "]" * 200_000)
        code, stdout, stderr = run_cli(
            capsys, "power", "--from-report", str(report), "--cap", "1e-12",
            "--vdd", "1", "--freq", "1e6",
        )
        assert code == 3
        assert stdout == ""
        assert stderr.startswith(
            f"togglesim: error: cannot read tau from {report}: maximum recursion depth exceeded")

    def test_temperature_too_small_for_kt_exits_2(self, capsys):
        # k * 1e-310 K underflows to 0.0; qV/kT overflows instead of dividing by it
        code, stdout, stderr = run_cli(
            capsys, "power", "--tau", "0.5", "--cap", "1e-12", "--vdd", "1", "--freq", "1e6",
            "--isat", "1e-12", "--vdiode", "0.3", "--temp", "1e-310",
        )
        assert code == 2
        assert stdout == ""
        assert stderr == "togglesim: error: leakage current overflows the float range\n"

    @pytest.mark.parametrize(
        "argv,quantity",
        [
            (["--cap", "1e200", "--vdd", "1e200", "--freq", "1e10"], "dynamic power"),
            (
                ["--cap", "1e200", "--vdd", "1e300", "--freq", "1e10", "--vdd-exponent", "2"],
                "dynamic power",
            ),
            (["--cap", "1e100", "--vdd", "1e100", "--freq", "1e105"], "dynamic power of 1e+305 W"),
            (
                ["--cap", "1e-12", "--vdd", "1e300", "--freq", "1e6",
                 "--isat", "1e300", "--vdiode", "0.5"],
                "leakage current",
            ),
        ],
        ids=["watts", "vdd-power", "microwatts", "static"],
    )
    def test_overflow_exits_2(self, capsys, argv, quantity):
        code, stdout, stderr = run_cli(capsys, "power", "--tau", "1", *argv)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith(f"togglesim: error: {quantity} ")
        assert "overflows the float range" in stderr


class TestTables:
    def test_counter_cells_present(self, capsys):
        code, stdout, _ = run_cli(capsys, "tables")
        assert code == 0
        for cell in ("26", "0.43", "15", "0.25", "502", "0.246", "255", "0.125"):
            assert cell in stdout
        assert "MISMATCH" not in stdout

    def test_generator_reference_shown(self, capsys):
        code, stdout, _ = run_cli(capsys, "tables")
        for cell in ("66", "114", "236", "88", "163", "266", "67", "135", "259"):
            assert cell in stdout
        assert "Internal LFSR" in stdout

    def test_consistency_tally(self, capsys):
        _, stdout, _ = run_cli(capsys, "tables")
        assert "12/12 cells" in stdout

    def test_no_color_when_not_a_tty(self, capsys, monkeypatch):
        monkeypatch.delenv("NO_COLOR", raising=False)
        _, plain, _ = run_cli(capsys, "tables")
        monkeypatch.setenv("NO_COLOR", "1")
        _, nocolor, _ = run_cli(capsys, "tables")
        assert plain == nocolor
        assert "\x1b[" not in nocolor

    @pytest.mark.parametrize("label,rule", [("CA-90", 90), ("CA-150", 150)])
    def test_cyclic_boundary_counts_equal_the_reference_walk(self, capsys, label, rule):
        # 8 to 32 cycles of a 16-bit cyclic CA: the runs the Frobenius powers make
        code, stdout, _ = run_cli(capsys, "tables", "--boundary", "cyclic")
        assert code == 0
        row = next(line.split() for line in stdout.splitlines() if line.startswith(label))
        seed = Word(16, int("1011001010110110", 2))
        words = reference.walk(GeneratorConfig(f"ca{rule}", 16, seed, boundary="cyclic"), 32)
        flips = [(a.value ^ b.value).bit_count() for a, b in zip(words, words[1:])]
        assert row[1:] == ["computed", *(str(sum(flips[:n])) for n in (8, 16, 32))]

    @pytest.mark.parametrize("taps", ["17", "1,2"])
    def test_bad_taps_is_usage_error_like_gen(self, capsys, taps):
        code, stdout, stderr = run_cli(capsys, "tables", "--taps", taps)
        gen_code, _, gen_stderr = run_cli(
            capsys, "gen", "--kind", "lfsr_internal", "--width", "16",
            "--cycles", "3", "--taps", taps,
        )
        assert code == gen_code == 2
        assert stdout == ""
        assert stderr == gen_stderr
        assert "tap" in stderr


SRC = os.path.dirname(os.path.dirname(togglesim.__file__))
LFSR16 = ["gen", "--kind", "lfsr_internal", "--width", "16", "--seed", "ACE1", "--cycles", "3000"]


def process_env(**extra):
    return {**os.environ, "PYTHONPATH": SRC, **extra}


def run_process(*argv, stdin=b"", stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=None):
    """`python -m togglesim.cli argv` in a new process: its exit code, its
    stdout and its stderr, each decoded, or None when not piped."""
    done = subprocess.run(
        [sys.executable, "-m", "togglesim.cli", *argv], input=stdin, stdout=stdout,
        stderr=stderr, env=env or process_env(), timeout=60,
    )
    return done.returncode, *(None if out is None else out.decode()
                              for out in (done.stdout, done.stderr))


FAILED_OUTPUT_ERRORS = {
    "full": "[Errno 28] No space left on device", "closed pipe": "[Errno 32] Broken pipe"
}


def run_into_a_failed_output(argv, buffered: bool, sink: str, stream: str = "stdout"):
    """run_process with `stream`, stdout or stderr, on /dev/full or on a pipe
    whose read end is closed, and both streams buffered or not."""
    env = process_env()
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    if sink == "full":
        failing = os.open("/dev/full", os.O_WRONLY)
    else:
        read_end, failing = os.pipe()
        os.close(read_end)
    try:
        return run_process(*argv, env=env, **{stream: failing})
    finally:
        os.close(failing)


def run_with_closed(fd: int, *argv):
    """run_process with file descriptor `fd`, 0 or 1, closed as the process
    starts, as a shell's `<&-` or `>&-` leaves it: Python then sets sys.stdin
    or sys.stdout to None."""
    code = ("import os, sys\n"
            f"os.close({fd})\n"
            "os.execv(sys.executable, [sys.executable, '-m', 'togglesim.cli', *sys.argv[1:]])\n")
    done = subprocess.run([sys.executable, "-c", code, *argv], stdin=subprocess.DEVNULL,
                          capture_output=True, env=process_env(), timeout=60)
    return done.returncode, done.stdout.decode(), done.stderr.decode()


POWER = ["power", "--tau", "0.5", "--cap", "1e-12", "--vdd", "1", "--freq", "1e6"]


class TestClosedStandardStreams:
    """A command that uses a standard stream the process started without
    fails as a failed read or write does, and one that does not use it runs."""

    def test_analyze_of_a_closed_stdin_exits_3(self):
        assert run_with_closed(0, "analyze", "-") == (
            3, "", "togglesim: error: stdin is closed\n"
        )

    @pytest.mark.parametrize("argv", [
        ["analyze", "TRACE"], ["analyze", "TRACE", "--per-cycle", "--format", "json"],
        LFSR16, POWER, ["tables"], ["--help"], ["gen", "--help"],
    ], ids=["analyze", "analyze-json", "gen", "power", "tables", "help", "gen-help"])
    def test_output_to_a_closed_stdout_exits_3(self, tmp_path, argv):
        trace = tmp_path / "words.trace"
        trace.write_text("width=4 radix=bin\n0000\n0101\n")
        argv = [str(trace) if arg == "TRACE" else arg for arg in argv]
        assert run_with_closed(1, *argv) == (3, "", "togglesim: error: stdout is closed\n")

    def test_gen_to_a_file_writes_it_then_exits_3(self, capsys, tmp_path):
        # the trace is written before the line that reports it fails
        closed, expected = tmp_path / "closed.trace", tmp_path / "expected.trace"
        assert run_with_closed(1, *LFSR16, "-o", str(closed)) == (
            3, "", "togglesim: error: stdout is closed\n"
        )
        assert run_cli(capsys, *LFSR16, "-o", str(expected))[0] == 0
        assert closed.read_text() == expected.read_text()

    @pytest.mark.parametrize("argv", [LFSR16, POWER, ["tables"]], ids=["gen", "power", "tables"])
    def test_command_that_reads_no_stdin_runs_without_it(self, argv):
        assert run_with_closed(0, *argv) == run_process(*argv)

    @pytest.mark.parametrize("argv,stderr", [
        (["gen", "--kind", "nope"], "usage: togglesim gen"),
        (["tables", "--taps", "17"], "togglesim: error: invalid tap position 17 for width 16"),
    ], ids=["argparse", "tables"])
    def test_usage_error_with_a_closed_stdout_exits_2(self, argv, stderr):
        code, stdout, err = run_with_closed(1, *argv)
        assert (code, stdout) == (2, "")
        assert err.startswith(stderr)


class TestProcessEntry:
    """The commands as a pipeline runs them: `python -m togglesim.cli`
    enters at run(), which ends the process with the heap frozen."""

    def test_gen_piped_into_analyze_equals_main(self, capsys, monkeypatch):
        argv = [sys.executable, "-m", "togglesim.cli"]
        gen = subprocess.Popen([*argv, *LFSR16], stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, env=process_env())
        analyze = subprocess.run([*argv, "analyze", "-"], stdin=gen.stdout,
                                 capture_output=True, env=process_env(), timeout=60)
        gen.stdout.close()
        gen_stderr = gen.stderr.read().decode()
        gen.stderr.close()
        assert gen.wait(timeout=60) == 0 and analyze.returncode == 0
        code, trace, stderr = run_cli(capsys, *LFSR16)
        assert code == 0 and gen_stderr == stderr == "3001 words\n"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(trace.encode())))
        code, report, _ = run_cli(capsys, "analyze", "-")
        assert code == 0
        assert analyze.stdout.decode() == report
        assert analyze.stderr == b""

    def test_usage_error_exits_2(self):
        assert run_process(*LFSR16[:-1], "-1") == (
            2, "", "togglesim: error: --cycles must be >= 0, got -1\n"
        )

    @pytest.mark.parametrize("argv,stderr", [
        (["power", "--cap", "1e-12", "--vdd", "1", "--freq", "1e6"],
         "exactly one of --tau or --from-report is required"),
        (["tables", "--taps", "17"], "invalid tap position 17 for width 16"),
        (["gen", "--kind", "lfsr_internal", "--width", "3", "--cycles", "4"],
         "--taps is required for lfsr_internal at width 3 (a default exists only for width 16)"),
    ], ids=["power", "tables", "gen"])
    def test_usage_error_of_a_command_body_exits_2(self, argv, stderr):
        # -m runs cli as __main__: a body that took UsageError from cli would
        # load a second cli, whose UsageError main does not catch
        assert run_process(*argv) == (2, "", f"togglesim: error: {stderr}\n")

    @pytest.mark.parametrize("argv", [["--help"], ["gen", "--help"]], ids=["top", "gen"])
    def test_help_exits_0(self, argv):
        code, stdout, stderr = run_process(*argv)
        assert (code, stderr) == (0, "")
        assert stdout.startswith(f"usage: togglesim {' '.join(argv[:-1])}".rstrip())

    @pytest.mark.parametrize("argv", [
        ["gen", "--help"], ["analyze", "--help"], ["gen", "--kind", "gray", "--width", "4"],
        ["analyze", "a", "b"],
    ], ids=["gen-help", "analyze-help", "missing-option", "second-positional"])
    def test_fallback_prints_argparses_text(self, monkeypatch, argv):
        # a line cmdline.parse declines prints what build_parser()'s parser
        # prints, and exits 0 for help or 2 for a usage error
        monkeypatch.setenv("COLUMNS", "80")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with pytest.raises(SystemExit) as exited:
                build_parser().parse_args(argv)
        assert stdout.getvalue() or stderr.getvalue()
        assert run_process(*argv, env=process_env(COLUMNS="80")) == (
            exited.value.code, stdout.getvalue(), stderr.getvalue()
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("sink", ["full", "closed pipe"])
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["gen", "--help"]], ids=["top", "gen"])
    def test_help_into_a_failed_output_exits_3(self, argv, buffered, sink):
        # argparse ignores a failed help write and exits 0 with stdout's
        # buffer unflushed, which then fails at shutdown with exit 120
        assert run_into_a_failed_output(argv, buffered, sink) == (
            3, None, f"togglesim: error: {FAILED_OUTPUT_ERRORS[sink]}\n"
        )

    def test_analyze_of_empty_stdin_exits_3(self):
        assert run_process("analyze", "-") == (
            3, "", "togglesim: error: missing header 'width=<n> radix=<bin|hex>'\n"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_exits_3_when_unbuffered(self):
        with open("/dev/full", "wb") as full:
            result = run_process(*LFSR16, stdout=full, env=process_env(PYTHONUNBUFFERED="1"))
        assert result == (3, None, "togglesim: error: [Errno 28] No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_final_flush_is_still_reported(self):
        # buffered, what the failed write left in stdout's buffer must not
        # fail a second time at shutdown, with the interpreter's report and
        # exit 120: main reports the failure once, and exits 3
        env = process_env()
        env.pop("PYTHONUNBUFFERED", None)
        with open("/dev/full", "wb") as full:
            result = run_process(*LFSR16, stdout=full, env=env)
        assert result == (3, None, "togglesim: error: [Errno 28] No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("sink", ["full", "closed pipe"])
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [LFSR16[:-1] + ["3"], ["tables"]], ids=["gen", "tables"])
    def test_output_that_fits_the_buffer_fails_with_exit_3(self, argv, buffered, sink):
        # the whole output waits in stdout's buffer until main flushes it; a
        # closed pipe is a failed write like any other, and gen reports no
        # word count after a failed write
        assert run_into_a_failed_output(argv, buffered, sink) == (
            3, None, f"togglesim: error: {FAILED_OUTPUT_ERRORS[sink]}\n"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("sink", ["full", "closed pipe"])
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv,code", [
        (["gen", "--kind", "binary", "--width", "4", "--cycles", "3"], 3),
        (["analyze", "/nonexistent"], 3),
        (["gen", "--kind", "binary", "--width", "0", "--cycles", "3"], 2),
        (["gen", "--kind", "nope"], 2),
    ], ids=["gen", "data", "usage", "argparse-usage"])
    def test_failed_error_output_keeps_the_exit_code(self, argv, code, buffered, sink):
        # neither main's error line nor the interpreter's flush of stderr at
        # shutdown may fail a second time, with exit 1 or 120; gen's trace,
        # written before its word count, still reaches stdout
        stdout = run_process(*argv)[1]
        assert run_into_a_failed_output(argv, buffered, sink, "stderr") == (code, stdout, None)

    @pytest.mark.parametrize("argv", [
        ["power", "--tau", "0.5", "--cap", "1e-12", "--vdd", "1", "--freq", "1e6"],
        LFSR16[:-1] + ["-1"],
        ["analyze", "no-such.trace"],
        ["power", "--cap", "1e-12", "--vdd", "1", "--freq", "1e6"],
        ["tables", "--taps", "17"],
        ["gen", "--kind", "lfsr_internal", "--width", "3", "--cycles", "4"],
    ], ids=["ok", "usage", "data", "power-usage", "tables-usage", "gen-usage"])
    def test_main_block_exits_with_mains_code_and_frozen_heap(self, capsys, argv):
        # and no command body imports togglesim.cli, which runs as __main__ here
        code = (
            "import gc, runpy, sys\n"
            f"sys.argv = ['togglesim', *{argv!r}]\n"
            "try:\n"
            "    runpy.run_module('togglesim.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    print(repr(exc.code), gc.get_freeze_count() > 0, 'togglesim.cli' in sys.modules,\n"
            "          file=sys.stderr)\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=process_env(), timeout=60)
        assert done.stderr.splitlines()[-1] == f"{run_cli(capsys, *argv)[0]} True False"

    def test_main_never_freezes(self, capsys):
        # main is the library and test entry: freezing here would keep the
        # test runner's own garbage from ever being collected
        before = gc.get_freeze_count()
        assert run_cli(capsys, *LFSR16)[0] == 0
        assert gc.get_freeze_count() == before
