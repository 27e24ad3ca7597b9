"""The CLI contract as a recorded corpus: every command line listed here, with
its exit code, its stderr and a digest of its stdout.

`lines()` lists the corpus, each line an argv and the input that is its
stdin. A word `{name}` of an argv is the path of the file `name` in the
corpus directory, and `{dir}` is that directory; a stdin of None is a
closed stdin, as a shell's `<&-` leaves it. `build_inputs` writes every
input into the directory from fixed seeds, and `run_line` runs one line
through `togglesim.cli.main` there and returns its record:

- `argv` and `stdin`, as listed;
- `exit`, the exit code: main's return value, or the code of the
  `SystemExit` that argparse raises;
- `stderr`, verbatim;
- `stdout_sha256`, `stdout_bytes`, and `stdout_head`, stdout's first line
  cut to 80 characters, so that a diff of the record file can be read;
- for a line with `-o FILE`, `output_sha256`: the SHA-256 of the file it
  wrote, or None if it wrote none.

The directory's path is written `{dir}` in stdout and stderr. A line that
argparse ends, with its help or a usage error, is recorded by its exit code
and `argparse`: "help" or "error", the shape of its output (see `_shape`),
since argparse's wording differs between Python versions.

Run as a script, it writes every line's record to `cli_corpus.jsonl` beside
it, one JSON object a line:

    PYTHONPATH=src python tests/cli_corpus.py

It needs only the standard library and togglesim. `test_cli_corpus.py`
checks that each line's result still equals its record.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import time

from togglesim.generators import KINDS, kind_parameter
from togglesim.trace_io import REPORT_FORMATS

RECORDS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_corpus.jsonl")

WIDTHS = (1, 8, 16, 17, 64, 65, 256, 1024)
# taps that include the width, for the LFSR kinds at each width
TAPS = {1: "1", 8: "8,6,5,4", 16: "16,14,13,11", 17: "17,14", 64: "64,63,61,60",
        65: "65,47", 256: "256,254,251,246", 1024: "1024,1015,1002,1001"}
POWER_BASE = ["--cap", "1e-12", "--vdd", "1", "--freq", "1e6"]
# zeros, subnormals, the float range's ends, negatives and non-finite values
POWER_VALUES = ["0", "-0", "5e-324", "1e-310", "1e-300", "1e-12", "0.3", "1", "700", "1e200",
                "1.7976931348623157e308", "-1", "nan", "inf"]


def _trace(width: int, radix: str, words, newline: str = "\n") -> bytes:
    """The canonical trace file of `words`, its lines ended by `newline`."""
    digits = width if radix == "bin" else (width + 3) // 4
    spec = "b" if radix == "bin" else "X"
    lines = [f"width={width} radix={radix}", *(f"{word:0{digits}{spec}}" for word in words)]
    return "".join(line + newline for line in lines).encode("ascii")


@functools.lru_cache(maxsize=None)
def inputs() -> dict[str, bytes]:
    """Every input file of the corpus, by name, built from fixed seeds."""
    rng = random.Random(38)

    def words(width, count=40):
        return [rng.getrandbits(width) for _ in range(count)]

    files = {}
    for width in WIDTHS:
        for radix in ("bin", "hex"):
            files[f"w{width}.{radix}"] = _trace(width, radix, words(width))
    w16 = words(16)
    w16_bin, w16_hex = _trace(16, "bin", w16).decode(), _trace(16, "hex", w16).decode()
    bin_lines, hex_lines = w16_bin.splitlines(), w16_hex.splitlines()
    files.update({
        "crlf.bin": _trace(16, "bin", w16, "\r\n"),
        "crlf.hex": _trace(16, "hex", w16, "\r\n"),
        "bom.hex": b"\xef\xbb\xbf" + w16_hex.encode(),
        # comments, blank lines and stray spaces around the header and the words
        "comments.bin": "".join(
            f"# line {i}\n\n  {line} \n" for i, line in enumerate(bin_lines)).encode(),
        "short.hex": "".join(f"{line.lstrip('0')}\n" for line in hex_lines).encode(),
        "short.bin": ("width=16 radix=bin\n"
                      + "".join(f"{word:b}\n" for word in w16)).encode(),
        "digit.bin": "\n".join(bin_lines[:5] + ["0101010101010102"] + bin_lines[5:]).encode(),
        "digit.hex": "\n".join(hex_lines[:5] + ["12G4"] + hex_lines[5:]).encode(),
        "over.hex": _trace(17, "hex", words(17, 8)) + b"3FFFF\n",
        "long.bin": "\n".join(bin_lines[:3] + ["1" * 17] + bin_lines[3:]).encode(),
        "utf8.bin": "\n".join(bin_lines[:7]).encode() + b"\n01\xff1\n" + w16_bin.encode(),
        # a bad digit on line 3, then a byte that is not UTF-8 on line 9
        "digit_utf8.bin": ("\n".join(bin_lines[:2] + ["2"] + bin_lines[2:8]).encode()
                           + b"\n\xff\n"),
        "noheader.bin": "\n".join(bin_lines[1:]).encode(),
        "badheader.bin": "\n".join(["width=16 radix=oct"] + bin_lines[1:]).encode(),
        "header.bin": b"width=16 radix=bin\n",
        "one.bin": f"{bin_lines[0]}\n{bin_lines[1]}\n".encode(),
        "empty": b"",
        "w0.bin": b"width=0 radix=bin\n0\n1\n",
        "w1025.hex": _trace(1025, "hex", words(1025, 3)),
        "w4301.bin": b"width=" + b"1" * 4301 + b" radix=bin\n0\n1\n",
        # past the reader's packs and blocks
        "big.bin": _trace(16, "bin", words(16, 2**16 + 3)),
        # power --from-report
        "report.json": b'{\n  "width": 4,\n  "transfers": 15,\n  "total_transitions": 15,\n'
                       b'  "tau": 0.25,\n  "tau_display": "0.2500"\n}\n',
        "tau_int.json": b'{"tau": 1}',
        "tau_true.json": b'{"tau": true}',
        "tau_string.json": b'{"tau": "0.5"}',
        "tau_null.json": b'{"tau": null}',
        "tau_huge.json": b'{"tau": 1' + b"0" * 400 + b"}",
        "tau_high.json": b'{"tau": 1.5}',
        "tau_negative.json": b'{"tau": -0.1}',
        "tau_nan.json": b'{"tau": NaN}',
        "no_tau.json": b"{}",
        "list.json": b"[0.5]",
        "not_json.json": b"width=4 radix=bin\n",
        "deep.json": b"[" * 200_000 + b"]" * 200_000,
    })
    return files


TRACES = [name for name in inputs() if not name.endswith(".json")]


def build_inputs(directory: str) -> None:
    """Write every input of the corpus into `directory`."""
    for name, data in inputs().items():
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(data)


def power_grid() -> list[list[str]]:
    """500 seeded `power` lines, with POWER_VALUES in every parameter."""
    rng = random.Random(34)
    grid = []
    for _ in range(500):
        argv = ["power", "--tau", rng.choice(["0", "0.5", "1"])]
        for flag in ("--cap", "--vdd", "--freq", "--isat", "--vdiode", "--temp"):
            argv += [flag, rng.choice(POWER_VALUES)]
        grid.append(argv)
    return grid


def _gen_lines() -> list[list[str]]:
    rng = random.Random(1)
    lines = []

    def gen(kind, width, *options, boundary=None):
        argv = ["gen", "--kind", kind, "--width", str(width), *options]
        if kind_parameter(kind):  # an LFSR or a CA: a nonzero seed, all-zero being a fixed point
            argv += ["--seed", f"{rng.getrandbits(width) | 1:X}"]
        if kind_parameter(kind) == "taps":
            argv += ["--taps", TAPS[width]]
        return argv + (["--boundary", boundary] if boundary else [])

    cas = [kind for kind in KINDS if kind_parameter(kind) == "boundary"]

    for width in WIDTHS:
        for kind in KINDS:
            for radix in ("bin", "hex"):
                lines.append(gen(kind, width, "--cycles", "40", "--radix", radix))
        for kind in cas:
            lines.append(gen(kind, width, "--cycles", "40", boundary="cyclic"))
    for kind in KINDS:
        lines += [gen(kind, 16, "--cycles", cycles) for cycles in ("0", "1")]
        # the recurrence engine runs only a run of at least width^2 words
        for width in (8, 17):
            for cycles in (width**2 - 1, width**2, width**2 + 1):
                lines.append(gen(kind, width, "--cycles", str(cycles)))
                if kind in cas:
                    lines.append(gen(kind, width, "--cycles", str(cycles), boundary="cyclic"))
    counter = ["gen", "--kind", "binary", "--width", "8", "--cycles", "3"]
    for seed in ("10110011", "B3", "11", "1011", "0x1", ""):
        for seed_radix in ("auto", "bin", "hex"):
            lines.append(counter + ["--seed", seed, "--seed-radix", seed_radix])
    lfsr16 = ["gen", "--kind", "lfsr_internal", "--width", "16", "--cycles", "8"]
    lines += [
        *(["gen", "--kind", "binary", "--width", width, "--cycles", "3"]
          for width in ("0", "1025", "2000", "1" * 30)),
        lfsr16 + ["--seed", "0"],
        lfsr16 + ["--seed", "G1"],
        lfsr16 + ["--seed", "1FFFF"],
        lfsr16 + ["--seed", "1" * 17, "--seed-radix", "bin"],
        *(lfsr16 + ["--seed", "ACE1", "--taps", taps]
          for taps in ("17", "1,2", "a,b", "0,16", "16,,14", " 16 , 14 ")),
        ["gen", "--kind", "lfsr_external", "--width", "8", "--seed", "01", "--cycles", "4"],
        ["gen", "--kind", "ca90", "--width", "8", "--seed", "01", "--taps", "4", "--cycles", "3"],
        ["gen", "--kind", "binary", "--width", "4", "--taps", "4", "--cycles", "3"],
        lfsr16 + ["--seed", "0001", "--boundary", "cyclic"],
        ["gen", "--kind", "gray", "--width", "4", "--boundary", "null", "--cycles", "3"],
        lfsr16[:-1] + ["-1"],
        *(counter + ["-o", output]
          for output in ("{out.trace}", "", "-", "{dir}", "{missing/out.trace}")),
        counter + ["--radix", "hex", "-o", "{out.trace}"],
    ]
    return lines


def _analyze_lines() -> list[tuple[list[str], str | None]]:
    lines = []
    for name in TRACES:
        for trace, stdin in ((f"{{{name}}}", None), ("-", name)):
            for format in REPORT_FORMATS:
                for encode in ((), ("--encode", "gray"), ("--encode", "businvert")):
                    for per_cycle in ((), ("--per-cycle",)):
                        argv = ["analyze", trace, "--format", format, *encode, *per_cycle]
                        lines.append((argv, stdin))
    lines += [(["analyze", "{w16.bin}"], None), (["analyze", "-"], "w16.hex"),
              (["analyze", "-"], None), (["analyze", "{missing.trace}"], None),
              (["analyze", "{dir}"], None), (["analyze", ""], None)]
    return lines


def _power_lines() -> list[tuple[list[str], str | None]]:
    tau = ["power", "--tau"]
    lines = [tau + [value] + POWER_BASE for value in ("0.25", "0", "1", "-0", "1.5", "-0.1",
                                                      "nan", "inf", "x")]
    lines += [
        tau + ["0.25"] + POWER_BASE[:2] + ["--vdd", "1.2", "--freq", "1e6", "--isat", "1e-12",
                                           "--vdiode", "0", "--temp", "300"],
        tau + ["-0"] + POWER_BASE + ["--isat", "1e-12", "--vdiode", "-0"],
        tau + ["0.4"] + POWER_BASE + ["--vdd-exponent", "2"],
        tau + ["0.5"] + POWER_BASE + ["--isat", "1e-12", "--vdiode", "100"],
        tau + ["0.5"] + POWER_BASE + ["--isat", "1e-12"],
        tau + ["0.5"] + POWER_BASE + ["--vdiode", "0.1"],
        # k * 1e-310 K underflows to 0.0: qV/kT overflows instead of dividing by it
        tau + ["0.5"] + POWER_BASE + ["--isat", "1e-12", "--vdiode", "0.3", "--temp", "1e-310"],
        tau + ["1", "--cap", "1e200", "--vdd", "1e200", "--freq", "1e10"],
        tau + ["1", "--cap", "1e200", "--vdd", "1e300", "--freq", "1e10", "--vdd-exponent", "2"],
        tau + ["1", "--cap", "1e100", "--vdd", "1e100", "--freq", "1e105"],
        tau + ["1", "--cap", "1e-12", "--vdd", "1e300", "--freq", "1e6", "--isat", "1e300",
               "--vdiode", "0.5"],
        ["power"] + POWER_BASE,
        tau + ["0.2", "--from-report", "{report.json}"] + POWER_BASE,
    ]
    for flag, value in (("--cap", "inf"), ("--vdd", "inf"), ("--freq", "nan"), ("--isat", "inf"),
                        ("--temp", "inf"), ("--vdiode", "-inf"), ("--vdiode", "nan")):
        params = {"--tau": "0.5", "--cap": "1e-12", "--vdd": "1", "--freq": "1e6",
                  "--isat": "1e-12", "--vdiode": "0.1", "--temp": "300", flag: value}
        lines.append(["power", *(f"{name}={text}" for name, text in params.items())])
    lines = [(argv, None) for argv in lines]
    reports = [name for name in inputs() if name.endswith(".json")]
    for report in [*reports, "missing.json", "dir"]:
        argv = ["power", "--from-report", f"{{{report}}}"] + POWER_BASE
        lines.append((argv, None))
    lines.append((["power", "--from-report", ""] + POWER_BASE, None))
    for stdin in ("report.json", "tau_high.json", "deep.json", "w16.bin", "empty", None):
        lines.append((["power", "--from-report", "-"] + POWER_BASE, stdin))
    return lines + [(argv, None) for argv in power_grid()]


def _tables_lines() -> list[list[str]]:
    return [["tables"], ["tables", "--boundary", "cyclic"], ["tables", "--boundary", "null"],
            *(["tables", "--taps", taps] for taps in ("16,14,13,11", "16,15,13,4", "17", "1,2",
                                                      "a", ""))]


def _argparse_lines() -> list[list[str]]:
    """Lines that `cmdline.parse` declines: help, abbreviated flags,
    `--flag=value`, and usage errors that argparse reports."""
    return [
        [], ["--help"], ["-h"], ["bogus"], ["--version"],
        *([command, "--help"] for command in ("gen", "analyze", "power", "tables")),
        ["gen", "--kind", "binary", "--wid", "8", "--cyc", "3"],
        ["gen", "--kind=gray", "--width=4", "--cycles=3"],
        ["gen", "--kind", "binary", "--width", "8"],
        ["gen", "--kind", "nope", "--width", "8", "--cycles", "3"],
        ["gen", "--kind", "binary", "--width", "x", "--cycles", "3"],
        ["gen", "--kind", "binary", "--width", "8", "--cycles", "3", "-o"],
        ["analyze"], ["analyze", "{w16.bin}", "--fo", "json"],
        ["analyze", "{w16.bin}", "--format=csv"], ["analyze", "{w16.bin}", "--format", "xml"],
        ["analyze", "{w16.bin}", "{w16.hex}"], ["analyze", "{w16.bin}", "--per-cycle=yes"],
        ["power", "--tau", "0.5"], ["power", "--ta", "0.5", "--ca", "1e-12", "--vdd", "1",
                                    "--fr", "1e6"],
        ["power", "--tau", "0.5", "--cap", "1e-12", "--vd", "1", "--freq", "1e6"],
        ["power", "--tau", "0.5", "--cap", "1e-12", "--vdd", "1", "--freq", "1e6",
         "--vdd-exponent", "3"],
        ["tables", "--bogus"], ["tables", "--taps"], ["tables", "--boundary=cyclic"],
    ]


def lines() -> list[tuple[list[str], str | None]]:
    """Every line of the corpus: its argv and its stdin's input name, or None."""
    return [
        *((argv, None) for argv in _gen_lines()),
        *_analyze_lines(),
        *_power_lines(),
        *((argv, None) for argv in _tables_lines()),
        *((argv, None) for argv in _argparse_lines()),
    ]


def fill(word: str, directory: str) -> str:
    """`word` with `{dir}` written as `directory`, and a whole word `{name}` as
    the path of `name` in it."""
    if word == "{dir}":
        return directory
    if word[:1] == "{" and word[-1:] == "}":
        return os.path.join(directory, word[1:-1])
    return word


def output_path(argv: list[str]) -> str | None:
    """The value of a `-o` or `--output` in `argv`, if any."""
    for flag, value in zip(argv, argv[1:]):
        if flag in ("-o", "--output"):
            return value
    return None


@contextlib.contextmanager
def _standard_streams(stdin: bytes | None):
    """sys.stdin reading `stdin` (None: closed), sys.stdout and sys.stderr
    writing to the two BytesIO that the context yields."""
    out, err = io.BytesIO(), io.BytesIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = None if stdin is None else io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    sys.stdout = io.TextIOWrapper(out, encoding="utf-8")
    sys.stderr = io.TextIOWrapper(err, encoding="utf-8", errors="backslashreplace")
    try:
        yield out, err
    finally:
        for stream in sys.stdout, sys.stderr:
            stream.detach()  # flushed, and its BytesIO left open
        sys.stdin, sys.stdout, sys.stderr = saved


def run_main(argv: list[str], stdin: bytes | None) -> tuple[int, bytes, bytes, bool]:
    """main(argv) with `stdin` on sys.stdin (None: closed): its exit code,
    stdout and stderr, and whether argparse ended it with SystemExit."""
    from togglesim.cli import main

    with _standard_streams(stdin) as (out, err):
        try:
            code, ended = main(argv), False
        except SystemExit as exc:
            code, ended = exc.code, True
    return code, out.getvalue(), err.getvalue(), ended


def _shape(code: int, stdout: bytes, stderr: bytes) -> str:
    """The shape of output that argparse ended: "help" for exit 0 with
    stdout starting `usage: togglesim` and no stderr, "error" for exit 2
    with no stdout and a last stderr line containing `error:`; else a
    description of what it printed, which no record holds."""
    if code == 0 and stdout.startswith(b"usage: togglesim") and not stderr:
        return "help"
    if code == 2 and not stdout and b"error:" in (stderr.splitlines() or [b""])[-1]:
        return "error"
    return f"unexpected: exit {code}, stdout {stdout[:80]!r}, stderr {stderr[-80:]!r}"


def record(argv, stdin, code, stdout: bytes, stderr: bytes, argparse: bool, output) -> dict:
    """The record of a line that exited `code` with `stdout` and `stderr`,
    written in the corpus directory's terms; `output` is the bytes of the
    file its `-o` wrote, or None."""
    result = {"argv": argv, "stdin": stdin, "exit": code}
    if argparse:
        return {**result, "argparse": _shape(code, stdout, stderr)}
    text = stdout.decode("utf-8", "backslashreplace")
    result.update({
        "stderr": stderr.decode("utf-8", "backslashreplace"),
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
        "stdout_bytes": len(stdout),
        "stdout_head": text.partition("\n")[0][:80],
    })
    if output_path(argv) is not None:
        result["output_sha256"] = None if output is None else hashlib.sha256(output).hexdigest()
    return result


def take_output(argv: list[str], directory: str) -> bytes | None:
    """The bytes of the file that the `-o` of `argv` names, removed, or None
    if it names none; relative to `directory`, where the line ran."""
    path = output_path(argv)
    if path is None:
        return None
    path = os.path.join(directory, fill(path, directory))
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    return data


def in_dir_terms(data: bytes, directory: str) -> bytes:
    """`data` with the path `directory` written `{dir}`."""
    return data.replace(directory.encode(), b"{dir}")


def run_line(argv: list[str], stdin: str | None, directory: str) -> tuple[dict, bytes, bytes]:
    """Run one corpus line through `cli.main` in `directory`, where
    `build_inputs` wrote the inputs: its record, its stdout and the file its
    `-o` wrote (b"" if none)."""
    data = None
    if stdin is not None:
        with open(os.path.join(directory, stdin), "rb") as fh:
            data = fh.read()
    cwd = os.getcwd()
    os.chdir(directory)  # where a relative path lands
    try:
        code, out, err, ended = run_main([fill(word, directory) for word in argv], data)
        output = take_output(argv, directory)
    finally:
        os.chdir(cwd)
    out, err = in_dir_terms(out, directory), in_dir_terms(err, directory)
    return record(argv, stdin, code, out, err, ended, output), out, output or b""


def read_records() -> list[dict]:
    with open(RECORDS, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def write_records() -> None:
    """Run every line in a new directory and write its records to RECORDS."""
    start = time.perf_counter()
    records = []
    with tempfile.TemporaryDirectory() as directory:
        directory = os.path.realpath(directory)
        build_inputs(directory)
        for argv, stdin in lines():
            records.append(run_line(argv, stdin, directory)[0])
    bad = [r for r in records if r.get("argparse", "help") not in ("help", "error")]
    if bad:
        raise SystemExit(f"argparse ended {len(bad)} lines with output of no known shape: "
                         f"{bad[0]}")
    with open(RECORDS, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)
    print(f"{len(records)} lines recorded to {RECORDS} in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)


if __name__ == "__main__":
    write_records()
