"""The package's shape: each name has one import path, importing a module
loads only what it uses, and the public records are immutable values."""

import copy
import json
import os
import pickle
import subprocess
import sys

import pytest

import togglesim
from togglesim.activity import ActivityReport
from togglesim.bits import Trace, Word
from togglesim.generators import GeneratorConfig
from togglesim.transition_counter import CycleRecord

SRC = os.path.dirname(os.path.dirname(togglesim.__file__))


def fresh_import(statement: str) -> dict:
    """Run `statement` in a new interpreter and report what it loaded."""
    code = (
        f"import json, sys\n{statement}\n"
        "print(json.dumps({'togglesim': sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'togglesim'), 'csv': 'csv' in sys.modules}))"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(result.stdout)


class TestImports:
    def test_bits_loads_only_bits(self):
        loaded = fresh_import("import togglesim.bits")
        assert loaded["togglesim"] == ["togglesim", "togglesim.bits"]

    def test_cli_loads_neither_the_probe_nor_csv(self):
        loaded = fresh_import("import togglesim.cli")
        assert "togglesim.cli" in loaded["togglesim"]
        assert "togglesim.transition_counter" not in loaded["togglesim"]
        assert not loaded["csv"]

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
    "GeneratorConfig": (
        lambda: GeneratorConfig("lfsr_internal", 4, Word(4, 1), frozenset([4, 3])),
        "seed",
        GeneratorConfig("lfsr_internal", 4, Word(4, 2), frozenset([4, 3])),
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
    "GeneratorConfig": (
        "GeneratorConfig(kind='lfsr_internal', width=4, seed=Word(4, '0001'), "
        "taps=frozenset({3, 4}), boundary=None)"
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_repr(name):
    make, _, _ = RECORDS[name]
    assert repr(make()) == REPRS[name]


@pytest.mark.parametrize("make,field,other", RECORDS.values(), ids=RECORDS)
class TestValueSemantics:
    def test_assignment_raises(self, make, field, other):
        record = make()
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(other, field))
        assert record == make()

    def test_equal_fields_compare_and_hash_equal(self, make, field, other):
        a, b = make(), make()
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert a != other

    def test_pickle_and_copy_round_trip(self, make, field, other):
        record = make()
        clones = [pickle.loads(pickle.dumps(record, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in [*clones, copy.copy(record), copy.deepcopy(record)]:
            assert type(clone) is type(record)
            assert clone == record
            assert getattr(clone, field) == getattr(record, field)


def test_cycle_record_differs_from_its_stored_tuple():
    record = CycleRecord(3, False, Word(4, 5), Word(4, 6), 2, 7)
    stored = tuple(record)
    assert record != stored and stored != record
    assert not record == stored and not stored == record


def test_cycle_record_rejects_mixed_widths():
    with pytest.raises(ValueError, match="width mismatch"):
        CycleRecord(0, False, Word(4, 5), Word(8, 5), 0, 0)
