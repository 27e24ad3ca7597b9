"""The package's shape: each name has one import path, importing a module
loads only what it uses, and the public records are immutable values."""

import copy
import importlib
import inspect
import json
import os
import pickle
import pkgutil
import subprocess
import sys

import pytest

import togglesim
from togglesim.activity import ActivityReport, ReductionSummary
from togglesim.bits import Record, Trace, Word
from togglesim.generators import GeneratorConfig
from togglesim.power import DynamicPowerParams, StaticPowerParams
from togglesim.tables import CounterRow, GeneratorCell, GeneratorRow
from togglesim.trace_io import TraceFileHeader
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
        # what every gen and analyze process runs before its command
        loaded = fresh_import("import togglesim.cli; togglesim.cli.build_parser()")
        assert "togglesim.tables" not in loaded["togglesim"]
        assert "togglesim.power" not in loaded["togglesim"]
        assert not loaded["dataclasses"]

    def test_cli_parser_loads_no_typing(self):
        # under `from __future__ import annotations` no run-time name needs it
        loaded = fresh_import("import togglesim.cli; togglesim.cli.build_parser()")
        assert not loaded["typing"]

    @pytest.mark.parametrize(
        "argv,extra",
        [
            (["gen", "--kind", "lfsr_internal", "--width", "16", "--seed", "ACE1",
              "--cycles", "9"], ["lanes"]),
            (["gen", "--kind", "gray", "--width", "16", "--cycles", "9"], ["encoders", "lanes"]),
            (["analyze", "TRACE"], ["activity"]),
            (["analyze", "TRACE", "--encode", "businvert"], ["activity", "encoders"]),
        ],
        ids=["gen", "gen-gray", "analyze", "analyze-encode"],
    )
    def test_each_command_loads_only_what_it_runs(self, tmp_path, argv, extra):
        # gen compiles neither the toggle fold nor the encoders, analyze the
        # encoders only to re-encode, and analyze never the generators' lanes
        trace = tmp_path / "words.trace"
        trace.write_text("width=4 radix=bin\n0000\n0101\n")
        argv = [str(trace) if arg == "TRACE" else arg for arg in argv]
        loaded = fresh_import(
            "import contextlib, io\nfrom togglesim.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0"
        )
        common = ["cli", "bits", "generators", "trace_io"]
        assert loaded["togglesim"] == sorted(
            ["togglesim", *(f"togglesim.{name}" for name in common + extra)]
        )

    def test_probe_loads_only_bits(self):
        loaded = fresh_import("import togglesim.transition_counter")
        assert loaded["togglesim"] == [
            "togglesim", "togglesim.bits", "togglesim.transition_counter"
        ]

    def test_root_re_exports_nothing(self):
        assert not hasattr(togglesim, "Trace")

    def test_submodule_import_from_root(self):
        # what importing cli from the root runs, as the benchmark's replay does
        loaded = fresh_import("__import__('togglesim', fromlist=['cli']).cli")
        assert "togglesim.cli" in loaded["togglesim"]


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
    "TraceFileHeader": (lambda: TraceFileHeader(8, 16), "radix", TraceFileHeader(8, 2)),
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
    "TraceFileHeader": "TraceFileHeader(width=8, radix=16)",
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


@pytest.mark.parametrize("make,field,other", RECORDS.values(), ids=RECORDS)
class TestValueSemantics:
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
        record = make()
        fields = tuple(getattr(record, name) for name in type(record).__match_args__)
        assert record != fields and fields != record
        assert not record == fields and not fields == record
        assert hash(record) == hash(fields)

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
    assert TraceFileHeader(8, 16) != Word(8, 16) and Word(8, 16) != TraceFileHeader(8, 16)


def test_cycle_record_differs_from_its_stored_tuple():
    record = CycleRecord(3, False, Word(4, 5), Word(4, 6), 2, 7)
    stored = tuple(record)
    assert record != stored and stored != record
    assert not record == stored and not stored == record


def test_cycle_record_rejects_mixed_widths():
    with pytest.raises(ValueError, match="width mismatch"):
        CycleRecord(0, False, Word(4, 5), Word(8, 5), 0, 0)
