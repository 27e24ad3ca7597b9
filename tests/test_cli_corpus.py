"""The CLI contract: each line of the recorded corpus (see `cli_corpus`)
still ends as recorded, in process and, for a sample, as a process of its
own; a sweep that `cli.GRAMMAR` drives ends every line with exit 0, 2 or
3; and `analyze` of every trace that `gen` writes equals the reference
oracle's report."""

import itertools
import os
import random
import subprocess
import sys

import pytest

import cli_corpus
import reference_trace
import togglesim
from togglesim import generators
from togglesim.cli import GRAMMAR
from togglesim.cmdline import parse
from togglesim.trace_io import write_report

SRC = os.path.dirname(os.path.dirname(togglesim.__file__))
RECORDS = cli_corpus.read_records()


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = os.path.realpath(tmp_path_factory.mktemp("corpus"))
    cli_corpus.build_inputs(directory)
    return directory


def test_the_records_hold_every_line_and_no_other():
    # a line is added or dropped by editing cli_corpus.lines and re-recording
    assert [(r["argv"], r["stdin"]) for r in RECORDS] == cli_corpus.lines()


def by_command(records: list[dict]) -> dict:
    """The records of each command's lines; argparse's own lines (help, no
    command or an unknown one) under None."""
    groups = {}
    for r in records:
        command = r["argv"][0] if r["argv"] and r["argv"][0] in GRAMMAR else None
        groups.setdefault(command, []).append(r)
    return groups


GROUPS = by_command(RECORDS)


@pytest.mark.parametrize("expected", GROUPS.values(), ids=list(map(str, GROUPS)))
def test_lines_end_as_recorded(corpus_dir, expected):
    results = [cli_corpus.run_line(r["argv"], r["stdin"], corpus_dir)[0] for r in expected]
    assert results == expected


def process_sample(records: list[dict]) -> list[dict]:
    """The first line of each command and exit code that main returns, with
    a `-o` or not, and reading `-` from stdin, from a closed stdin, or not;
    and the first help and usage error that argparse ends."""
    sample = {}
    for r in records:
        argv = r["argv"]
        key = ((r["exit"],) if "argparse" in r else
               (argv[0], r["exit"], cli_corpus.output_path(argv) is not None,
                "-" in argv and r["stdin"] is None, "-" in argv and r["stdin"] is not None))
        sample.setdefault(key, r)
    return list(sample.values())


SAMPLE = process_sample(RECORDS)


def test_the_process_sample_covers_each_command_and_exit_code():
    assert len(SAMPLE) <= 40
    assert {r["argv"][0] for r in SAMPLE if r["argv"]} >= set(GRAMMAR)
    assert {r["exit"] for r in SAMPLE} == {0, 2, 3}


def close_stdin():
    os.close(0)


@pytest.mark.parametrize("expected", SAMPLE,
                         ids=[f"{RECORDS.index(r)}-{'-'.join(r['argv'][:1])}" for r in SAMPLE])
def test_line_ends_as_recorded_as_a_process(corpus_dir, expected):
    # `python -m togglesim.cli` enters at run(), with its exit and final flush
    argv, stdin = expected["argv"], expected["stdin"]
    if stdin is None:  # started with fd 0 closed, as `<&-` does
        source = {"stdin": subprocess.DEVNULL, "preexec_fn": close_stdin}
    else:
        with open(os.path.join(corpus_dir, stdin), "rb") as fh:
            source = {"input": fh.read()}
    done = subprocess.run(
        [sys.executable, "-m", "togglesim.cli", *(cli_corpus.fill(w, corpus_dir) for w in argv)],
        capture_output=True, cwd=corpus_dir, env={**os.environ, "PYTHONPATH": SRC}, timeout=60,
        **source,
    )
    output = cli_corpus.take_output(argv, corpus_dir)
    out, err = (cli_corpus.in_dir_terms(data, corpus_dir) for data in (done.stdout, done.stderr))
    assert cli_corpus.record(argv, stdin, done.returncode, out, err, "argparse" in expected,
                             output) == expected


def check_with_the_oracle(trace: bytes) -> None:
    """`analyze -` of `trace` through cli.main prints the reference oracle's
    report, or fails with the oracle's error line."""
    code, out, err, _ = cli_corpus.run_main(["analyze", "-"], trace)
    try:
        expected = write_report(reference_trace.analyze_trace(reference_trace.read_trace(trace)))
    except ValueError as exc:
        assert (code, out, err) == (3, b"", f"togglesim: error: {exc}\n".encode())
    else:
        assert (code, out.decode(), err) == (0, expected, b"")


def test_analyze_of_gen_output_equals_the_oracle(corpus_dir):
    for r in RECORDS:
        if r["argv"][:1] == ["gen"] and r["exit"] == 0:
            _, out, written = cli_corpus.run_line(r["argv"], r["stdin"], corpus_dir)
            check_with_the_oracle(written or out)  # the trace: the -o file, or stdout


# One set of edge values per type; a flag's values are its choices and one
# invalid value, or those of its type. A str flag also takes the valid
# values listed here, if any, and a `{name}` value names a corpus input.
EDGES = {
    int: ["0", "1", "2", "16", "17", "64", "65", "1024", "1025", "1" + "0" * 29],
    float: cli_corpus.POWER_VALUES,
    None: ["", "x"],
}
VALID = {"--seed": ["ACE1"], "--taps": ["16,14,13,11"], "--output": ["{out.trace}", "-"],
         "--from-report": ["{report.json}", "-"], "trace": ["{w16.bin}", "-"]}
MAX_CYCLES = 2**20


def values(flags: str, kind, choices) -> list[str]:
    if choices:
        return [*map(str, choices), "x"]
    return EDGES[kind] + VALID.get(flags.split()[-1], [])


def sweep_lines(count: int = 2000, seed: int = 38) -> list[list[str]]:
    """`count` seeded lines of GRAMMAR's commands: a required argument is
    given 19 times in 20, any other 2 in 5, each flag under one of
    its names, in shuffled order."""
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        command = rng.choice(list(GRAMMAR))
        words = []
        for flags, kind, choices, default, _ in GRAMMAR[command][1:]:
            positional = flags[0] != "-"
            if rng.random() >= (0.95 if positional or default is ... else 0.4):
                continue
            if kind is bool:
                words.append([flags.split()[-1]])
            else:
                value = rng.choice(values(flags, kind, choices))
                words.append([value] if positional else [rng.choice(flags.split()), value])
        rng.shuffle(words)
        lines.append([command, *itertools.chain.from_iterable(words)])
    return lines


class Unbounded(BaseException):
    """Raised where gen would start on more than MAX_CYCLES words: a line
    that it has accepted, but that would write for hours."""


@pytest.fixture
def bounded_gen(monkeypatch):
    generate_chunks = generators.generate_chunks

    def bounded(config, cycles):
        if cycles > MAX_CYCLES:
            raise Unbounded
        return generate_chunks(config, cycles)

    monkeypatch.setattr(generators, "generate_chunks", bounded)


def check_rules(argv: list[str], stdin, directory: str) -> dict | None:
    """Run `argv` and check that it exits 0, 2 or 3; that where argparse did
    not end it, a failure prints nothing but one `togglesim: error:` line,
    and argparse exits 2 where it did; that `power` prints no inf or nan; and
    that `analyze` of what `gen` wrote equals the oracle. The line's record,
    or None for a gen line stopped as Unbounded."""
    try:
        rec, out, written = cli_corpus.run_line(argv, stdin, directory)
    except Unbounded:
        return None
    assert rec["exit"] in (0, 2, 3), rec
    if "argparse" in rec:
        assert rec["argparse"] == "error" and parse(argv, GRAMMAR) is None, rec
    elif rec["exit"]:
        assert out == b"" and rec["stderr"].count("\n") == 1, rec
        assert rec["stderr"].startswith("togglesim: error: "), rec
    elif argv[0] == "power":
        assert b"inf" not in out and b"nan" not in out, rec
    elif argv[0] == "gen":
        check_with_the_oracle(written or out)
    return rec


def test_sweep_of_the_grammar(corpus_dir, bounded_gen):
    stdin = {"power": "report.json"}
    recs = [check_rules(argv, stdin.get(argv[0], "w16.bin"), corpus_dir)
            for argv in sweep_lines()]
    for command in GRAMMAR:  # each command both runs to success and fails
        assert {0, 2} <= {r["exit"] for r in recs if r and r["argv"][0] == command}, command


def test_power_grid(corpus_dir):
    for argv in cli_corpus.power_grid():
        check_rules(argv, None, corpus_dir)
