"""The package's shape: each name has one import path, importing a module
loads only what it uses, each command compiles only its own code, and the
public records are immutable values."""

import ast
import copy
import importlib
import inspect
import json
import operator
import os
import pickle
import pkgutil
import re
import subprocess
import sys
import typing

import pytest

import togglesim
import togglesim.cli
from togglesim.activity import ActivityReport, ReductionSummary
from togglesim.bits import Record, Word
from togglesim.generators import GeneratorConfig
from togglesim.power import DynamicPowerParams, StaticPowerParams
from togglesim.tables import CounterRow, GeneratorCell, GeneratorRow
from togglesim import trace
from togglesim.trace import Trace
from togglesim.transition_counter import CycleRecord

SRC = os.path.dirname(os.path.dirname(togglesim.__file__))


def fresh_import(statement: str) -> dict:
    """Run `statement` in a new interpreter and report what it loaded.

    The interpreter runs with -S: `site` and the `.pth` files it reads may
    import modules, typing among them, before the statement runs."""
    code = (
        f"import json, sys\n{statement}\n"
        "print(json.dumps({'togglesim': sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'togglesim'), 'csv': 'csv' in sys.modules,"
        " 'dataclasses': 'dataclasses' in sys.modules,"
        " 'typing': 'typing' in sys.modules}))"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    return json.loads(result.stdout)


# Each command line shape: its argv, TRACE standing for a small trace file,
# and the modules it loads besides the package, cli, cmdline and bits.
COMMANDS = {
    "gen": (["gen", "--kind", "lfsr_internal", "--width", "16", "--seed", "ACE1",
             "--cycles", "9"], ["generators", "recurrence", "writer"]),
    "gen-gray": (["gen", "--kind", "gray", "--width", "16", "--cycles", "9"],
                 ["encoders", "generators", "writer"]),
    "gen-cyclic": (["gen", "--kind", "ca150", "--width", "16", "--seed", "ACE1", "--boundary",
                    "cyclic", "--cycles", "9"], ["frobenius", "generators", "writer"]),
    "analyze": (["analyze", "TRACE"], ["activity", "trace_io"]),
    "analyze-encode": (["analyze", "TRACE", "--encode", "businvert"],
                       ["activity", "encoders", "trace_io"]),
    "tables": (["tables"], ["activity", "encoders", "generators", "recurrence", "tables"]),
    "power": (["power", "--tau", "0.5", "--cap", "1e-12", "--vdd", "1", "--freq", "1e6"],
              ["power"]),
}

# The most AST nodes that the togglesim sources each shape loads may hold,
# the package's and cli's included: with no bytecode cache, as the
# benchmark's processes run, a process compiles every one of them before
# its command runs.
NODE_BUDGETS = {
    "build_parser": 696,
    "gen": 4419,
    "analyze": 4788,
    "gen-gray": 4399,
    "gen-cyclic": 4118,
    "analyze-encode": 5488,
    "tables": 8055,
    "power": 3238,
}


def command_modules(tmp_path, argv: list[str]) -> list[str]:
    """The togglesim modules that a fresh interpreter loads to run `argv`."""
    trace_file = tmp_path / "words.trace"
    trace_file.write_text("width=4 radix=bin\n0000\n0101\n")
    argv = [str(trace_file) if arg == "TRACE" else arg for arg in argv]
    return fresh_import(
        "import contextlib, io\nfrom togglesim.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0"
    )["togglesim"]


def parser_modules() -> list[str]:
    return fresh_import("import togglesim.cli; togglesim.cli.build_parser()")["togglesim"]


def ast_nodes(module: str) -> int:
    with open(importlib.import_module(module).__file__, encoding="utf-8") as fh:
        return sum(1 for _ in ast.walk(ast.parse(fh.read())))


class TestImports:
    def test_bits_loads_only_bits(self):
        loaded = fresh_import("import togglesim.bits")
        assert loaded["togglesim"] == ["togglesim", "togglesim.bits"]
        assert not loaded["dataclasses"]

    def test_cli_loads_neither_the_probe_nor_csv(self):
        loaded = fresh_import("import togglesim.cli")
        assert "togglesim.cli" in loaded["togglesim"]
        assert "togglesim.transition_counter" not in loaded["togglesim"]
        assert not loaded["csv"]

    def test_cli_parser_loads_no_tables_power_or_dataclasses(self):
        # the grammar writes its choices out, so the argparse parser loads
        # only cli and the builder usage, and no other togglesim module
        loaded = fresh_import("import togglesim.cli; togglesim.cli.build_parser()")
        assert loaded["togglesim"] == ["togglesim", "togglesim.cli", "togglesim.usage"]
        assert not loaded["dataclasses"]

    def test_cli_parser_loads_no_typing(self):
        # under `from __future__ import annotations` no run-time name needs it
        loaded = fresh_import("import togglesim.cli; togglesim.cli.build_parser()")
        assert not loaded["typing"]

    @pytest.mark.parametrize("argv,extra", COMMANDS.values(), ids=COMMANDS)
    def test_each_command_loads_only_what_it_runs(self, tmp_path, argv, extra):
        # gen compiles neither the reader, the toggle fold nor the encoders,
        # and at most one engine of the linear kinds, the recurrence or the
        # Frobenius powers (a counter neither), analyze the encoders only to
        # re-encode and never the generators or the writer, and gen no
        # trace_io, whose header the writer writes itself; tables runs the
        # generators into the fold as gen | analyze - does, power only its
        # model, and no command builds a held Trace
        loaded = command_modules(tmp_path, argv)
        common = ["cli", "cmdline", "bits"]
        assert loaded == sorted(
            ["togglesim", *(f"togglesim.{name}" for name in common + extra)]
        )
        assert "togglesim.trace" not in loaded

    @pytest.mark.parametrize("shape", NODE_BUDGETS)
    def test_each_command_compiles_within_its_node_budget(self, tmp_path, shape):
        # each command's body and each primitive live with the code that
        # runs them, so that no command compiles another's code
        if shape == "build_parser":
            loaded = parser_modules()
        else:
            loaded = command_modules(tmp_path, COMMANDS[shape][0])
        assert sum(map(ast_nodes, loaded)) <= NODE_BUDGETS[shape]

    def test_analyze_as_run_imports_only_what_it_runs(self, tmp_path):
        # the real command line, as a pipeline runs it: -m runs cli as
        # __main__, so -X importtime reports the modules it imports
        trace = tmp_path / "words.trace"
        trace.write_text("width=4 radix=bin\n0000\n0101\n")
        env = {**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"}
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "togglesim.cli", "analyze", str(trace)],
            env=env, capture_output=True, text=True, check=True,
        )
        reported = {
            line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
            if line.startswith("import time:") and "|" in line
        }
        assert sorted(m for m in reported if m.split(".")[0] == "togglesim") == [
            "togglesim", "togglesim.activity", "togglesim.bits", "togglesim.cmdline",
            "togglesim.trace_io",
        ]

    @pytest.mark.parametrize("argv,argparse_loaded", [
        (COMMANDS["gen"][0], False), (["analyze", "-"], False),
        (["analyze", "-", "--format", "csv"], False),
        (["analyze", "-", "--format", "json"], False),
        (["analyze", "-", "--per-cycle", "--format", "json"], False),
        (COMMANDS["power"][0], False), (["gen", "--help"], True),
    ], ids=["gen", "analyze", "analyze-csv", "analyze-json", "analyze-per-cycle-json", "power",
            "gen-help"])
    def test_plain_line_as_run_loads_no_argparse(self, argv, argparse_loaded):
        # as the benchmark runs a pipeline's processes, with -S so that no site
        # .pth file loads them first: only the fallback to argparse, --help
        # here, imports argparse and with it gettext, locale, re and enum; a
        # plain analyze loads no re, as the trace header is checked without
        # it, and no line loads json, which loads re and enum: analyze writes
        # its json report itself, and only power --from-report imports json
        env = {**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"}
        result = subprocess.run(
            [sys.executable, "-S", "-X", "importtime", "-m", "togglesim.cli", *argv],
            input="width=4 radix=bin\n0000\n0101\n", env=env, capture_output=True,
            text=True, check=True,
        )
        reported = {
            line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
            if line.startswith("import time:") and "|" in line
        }
        heavy = {"argparse", "gettext", "locale", "re", "enum"}
        assert reported & heavy == (heavy if argparse_loaded else set())
        assert "json" not in reported

    def test_probe_loads_only_bits_and_activity(self):
        # activity holds the transition counts that the probe shares
        loaded = fresh_import("import togglesim.transition_counter")
        assert loaded["togglesim"] == [
            "togglesim", "togglesim.activity", "togglesim.bits", "togglesim.transition_counter"
        ]

    def test_root_re_exports_nothing(self):
        assert not hasattr(togglesim, "Trace")

    def test_submodule_import_from_root(self):
        # what importing cli from the root runs, as the benchmark's replay does
        loaded = fresh_import("__import__('togglesim', fromlist=['cli']).cli")
        assert "togglesim.cli" in loaded["togglesim"]


def defined_functions() -> dict:
    """Every function and method that a togglesim module defines, by dotted name."""
    found = {}
    for info in pkgutil.iter_modules(togglesim.__path__):
        module = importlib.import_module(f"togglesim.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for attr, member in members:
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(inspect.unwrap(member)):
                    found[".".join(filter(None, (module.__name__, name, attr)))] = member
    return found


FUNCTIONS = defined_functions()


@pytest.mark.parametrize("name", FUNCTIONS)
def test_annotations_resolve(name):
    # each annotation names something bound in its module at run time; a
    # class imported only where it is used is named in the docstring instead
    typing.get_type_hints(FUNCTIONS[name])


def test_console_script_is_the_main_block_entry():
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), encoding="utf-8") as fh:
        script = re.search(r'^togglesim = "togglesim\.cli:(\w+)"$', fh.read(), re.MULTILINE)
    main_block = re.search(
        r'^if __name__ == "__main__":\n    (\w+)\(\)\n\Z', inspect.getsource(togglesim.cli),
        re.MULTILINE,
    )
    assert script and main_block
    assert script[1] == main_block[1] == "run"


# Each record built twice from equal but separately made field values, the
# name of one of its fields, and a record that differs from the first two.
RECORDS = {
    "Word": (lambda: Word(12, 0xABC), "value", Word(12, 0xABD)),
    "Trace": (lambda: Trace(4, tuple([1, 2, 3])), "values", Trace(4, (1, 2))),
    "CycleRecord": (
        lambda: CycleRecord(3, False, Word(4, 5), Word(4, 6), 2, 7),
        "total_transition",
        CycleRecord(3, True, Word(4, 5), Word(4, 0), 0, 0),
    ),
    "ActivityReport": (
        lambda: ActivityReport(2, 3, 4, 4 / 6, tuple([2, 2]), tuple([1, 3])),
        "tau",
        ActivityReport(2, 3, 4, 4 / 6, (2, 2)),
    ),
    "ReductionSummary": (
        lambda: ReductionSummary(0.5, 0.25, 0.25, 0.5, 4),
        "transitions_delta",
        ReductionSummary(0.5, 0.25, 0.25, 0.5, 5),
    ),
    "GeneratorConfig": (
        lambda: GeneratorConfig("lfsr_internal", 4, Word(4, 1), frozenset([4, 3])),
        "seed",
        GeneratorConfig("lfsr_internal", 4, Word(4, 2), frozenset([4, 3])),
    ),
    "DynamicPowerParams": (
        lambda: DynamicPowerParams(0.5, 1e-12, 1.2, 1e8, 2),
        "frequency",
        DynamicPowerParams(0.5, 1e-12, 1.2, 2e8, 2),
    ),
    "StaticPowerParams": (
        lambda: StaticPowerParams(1e-12, -0.1, 300.0, 1.2),
        "temperature",
        StaticPowerParams(1e-12, -0.1, 310.0, 1.2),
    ),
    "CounterRow": (
        lambda: CounterRow("Gray Counter (4-bit)", 15, "0.25", 15, "0.25"),
        "transitions",
        CounterRow("Gray Counter (4-bit)", 16, "0.25", 15, "0.25"),
    ),
    "GeneratorCell": (
        lambda: GeneratorCell(8, 66, "0.51", 66, "0.51"),
        "reference_activity",
        GeneratorCell(8, 66, "0.51", 66, "0.52"),
    ),
    "GeneratorRow": (
        lambda: GeneratorRow("CA-90", tuple([GeneratorCell(8, 66, "0.51", 66, "0.51")])),
        "cells",
        GeneratorRow("CA-90", ()),
    ),
}

# What repr shows of each record's first value.
REPRS = {
    "Word": "Word(12, '101010111100')",
    "Trace": "Trace(width=4, values=(1, 2, 3))",
    "CycleRecord": (
        "CycleRecord(cycle=3, reset=False, datain=Word(4, '0101'), "
        "dataout=Word(4, '0110'), one_transition=2, total_transition=7)"
    ),
    "ActivityReport": (
        "ActivityReport(width=2, transfers=3, total_transitions=4, "
        "tau=0.6666666666666666, per_bit_toggles=(2, 2), per_cycle=(1, 3))"
    ),
    "ReductionSummary": (
        "ReductionSummary(tau_before=0.5, tau_after=0.25, tau_delta=0.25, "
        "relative_reduction=0.5, transitions_delta=4)"
    ),
    "GeneratorConfig": (
        "GeneratorConfig(kind='lfsr_internal', width=4, seed=Word(4, '0001'), "
        "taps=frozenset({3, 4}), boundary=None)"
    ),
    "DynamicPowerParams": (
        "DynamicPowerParams(tau=0.5, load_capacitance=1e-12, supply_voltage=1.2, "
        "frequency=100000000.0, voltage_exponent=2)"
    ),
    "StaticPowerParams": (
        "StaticPowerParams(saturation_current=1e-12, diode_voltage=-0.1, "
        "temperature=300.0, supply_voltage=1.2)"
    ),
    "CounterRow": (
        "CounterRow(label='Gray Counter (4-bit)', transitions=15, activity_display='0.25', "
        "reference_transitions=15, reference_activity='0.25')"
    ),
    "GeneratorCell": (
        "GeneratorCell(cycles=8, transitions=66, activity_display='0.51', "
        "reference_transitions=66, reference_activity='0.51')"
    ),
    "GeneratorRow": (
        "GeneratorRow(label='CA-90', cells=(GeneratorCell(cycles=8, transitions=66, "
        "activity_display='0.51', reference_transitions=66, reference_activity='0.51'),))"
    ),
}

# Each record with defaulted fields, built by keyword with the defaults
# omitted, and the same record with every field given positionally.
KEYWORD_DEFAULTS = {
    "ActivityReport": (
        lambda: ActivityReport(
            width=2, transfers=3, total_transitions=4, tau=4 / 6, per_bit_toggles=(2, 2)
        ),
        ActivityReport(2, 3, 4, 4 / 6, (2, 2), None),
    ),
    "GeneratorConfig": (
        lambda: GeneratorConfig(kind="binary", width=4, seed=Word(4, 0)),
        GeneratorConfig("binary", 4, Word(4, 0), None, None),
    ),
    "DynamicPowerParams": (
        lambda: DynamicPowerParams(
            tau=0.5, load_capacitance=1e-12, supply_voltage=1.2, frequency=1e8
        ),
        DynamicPowerParams(0.5, 1e-12, 1.2, 1e8, 1),
    ),
}


def test_every_record_class_has_value_semantics_tests():
    for module in pkgutil.iter_modules(togglesim.__path__):
        importlib.import_module(f"togglesim.{module.name}")
    pending, records = [Record], set()
    while pending:
        for cls in pending.pop().__subclasses__():
            pending.append(cls)
            if cls.__module__.startswith("togglesim."):
                records.add(cls.__name__)
    assert "Word" in records
    assert records - set(RECORDS) == set()


@pytest.mark.parametrize("name", RECORDS)
def test_repr(name):
    make, _, _ = RECORDS[name]
    assert repr(make()) == REPRS[name]


@pytest.mark.parametrize("make,positional", KEYWORD_DEFAULTS.values(), ids=KEYWORD_DEFAULTS)
def test_keyword_construction_fills_defaults(make, positional):
    assert make() == positional


def test_match_statement_binds_fields_by_position():
    match Word(4, 5):
        case Word(width, value):
            assert (width, value) == (4, 5)
        case _:
            pytest.fail("Word did not match its own class pattern")


# Each checked record, built with one field changed to a value its constructor
# rejects: the field and the bad value.
BAD_FIELDS = {
    "Word": ("value", 1 << 12),
    "GeneratorConfig": ("taps", frozenset([3])),
    "DynamicPowerParams": ("tau", 5),
    "StaticPowerParams": ("temperature", -1.0),
}


@pytest.mark.parametrize("name", BAD_FIELDS)
def test_replace_runs_the_constructors_checks(name):
    make, _, _ = RECORDS[name]
    record = make()
    field, bad = BAD_FIELDS[name]
    values = {**record._asdict(), field: bad}
    with pytest.raises(ValueError) as built:
        type(record)(**values)
    with pytest.raises(ValueError) as replaced:
        record._replace(**{field: bad})
    assert str(replaced.value) == str(built.value)


@pytest.mark.parametrize("make,field,other", RECORDS.values(), ids=RECORDS)
class TestValueSemantics:
    def test_every_record_but_trace_is_a_tuple_without_a_dict(self, make, field, other):
        record = make()
        assert isinstance(record, tuple) == (type(record) is not Trace)
        assert not hasattr(record, "__dict__")
        assert hasattr(record, "_fields") == (type(record) is not Trace)

    def test_namedtuple_record_is_the_sequence_of_its_fields(self, make, field, other):
        record = make()
        if not hasattr(record, "_fields"):  # Trace binds slots
            return
        names = type(record).__match_args__
        assert record._fields == names
        assert tuple(record) == tuple(getattr(record, name) for name in names)
        changed = record._replace(**{field: getattr(other, field)})
        assert type(changed) is type(record)
        assert changed == type(record)(**{**record._asdict(), field: getattr(other, field)})
        assert getattr(changed, field) == getattr(other, field)

    def test_assignment_raises(self, make, field, other):
        record = make()
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(other, field))
        assert record == make()

    def test_deletion_raises(self, make, field, other):
        record = make()
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert record == make()

    def test_equal_fields_compare_and_hash_equal(self, make, field, other):
        a, b = make(), make()
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert a != other

    def test_match_args_are_the_constructor_parameters(self, make, field, other):
        record = make()
        names = type(record).__match_args__
        assert names == tuple(inspect.signature(type(record)).parameters)
        assert type(record)(*(getattr(record, name) for name in names)) == record

    def test_never_equals_but_hashes_like_the_tuple_of_its_fields(self, make, field, other):
        # a Trace hashes like the tuple of what it stores, its width and
        # chunk, so that a hash unpacks no word
        record = make()
        fields = tuple(getattr(record, name) for name in type(record).__match_args__)
        assert record != fields and fields != record
        assert not record == fields and not fields == record
        stored = (record.width, record.chunk) if type(record) is Trace else fields
        assert hash(record) == hash(stored)

    def test_pickle_and_copy_round_trip(self, make, field, other):
        record = make()
        clones = [pickle.loads(pickle.dumps(record, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in [*clones, copy.copy(record), copy.deepcopy(record)]:
            assert type(clone) is type(record)
            assert clone == record
            assert getattr(clone, field) == getattr(record, field)


def test_records_of_different_classes_differ_with_equal_fields():
    cell = GeneratorCell(8, 66, "0.51", 66, "0.51")
    row = CounterRow(8, 66, "0.51", 66, "0.51")
    assert cell != row and row != cell
    assert GeneratorRow(8, 16) != Word(8, 16) and Word(8, 16) != GeneratorRow(8, 16)


def test_equal_traces_compare_and_hash_without_unpacking(monkeypatch):
    a, b, shorter = Trace(12, range(4000)), Trace(12, range(4000)), Trace(12, range(3999))

    def no_unpack(*args):
        raise AssertionError("unpacked")

    monkeypatch.setattr(trace, "unpack", no_unpack)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != shorter and a != Trace(13, range(4000))
    assert a != (12, a.chunk)


def test_trace_pickles_through_its_constructor():
    # Trace is no Record: it defines its pickling itself, as Record does
    t = Trace(4, (1, 2))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert t.__reduce_ex__(protocol) == (Trace, (4, (1, 2)))


@pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
def test_trace_has_no_order_even_against_a_tuple(op):
    t = Trace(4, (1, 2))
    for left, right in ((t, Trace(4, (1, 3))), (t, t), (t, (4, (1, 2))), ((4, t.chunk), t)):
        with pytest.raises(TypeError, match="not supported between instances of"):
            op(left, right)


@pytest.mark.parametrize("name", RECORDS)
def test_every_record_but_trace_is_a_tuple_record(name):
    cls = type(RECORDS[name][0]())
    assert issubclass(cls, tuple) == issubclass(cls, Record) == (cls is not Trace)


def test_cycle_record_rejects_mixed_widths():
    with pytest.raises(ValueError, match="width mismatch"):
        CycleRecord(0, False, Word(4, 5), Word(8, 5), 0, 0)
