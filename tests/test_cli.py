import io
import json
import os
import random
import tracemalloc

import pytest

from togglesim.bits import Word
from togglesim.cli import main
from togglesim.generators import KINDS, GeneratorConfig, kind_parameter
import reference_generators as reference


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
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

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


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
