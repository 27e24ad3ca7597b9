import operator
import random
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from togglesim import transition_counter
from togglesim.bits import Trace, Word, word_from_text
from togglesim.transition_counter import (
    TOTAL_SATURATION,
    BitTransitionCounter,
    run_trace,
)
from reference_trace import hamming_distance
from strategies import traces, wide_trace


def pairwise_total(trace: Trace) -> int:
    # independent oracle: explicit loop over consecutive pairs
    total = 0
    for i in range(len(trace) - 1):
        total += hamming_distance(trace[i], trace[i + 1])
    return total


def stepped(trace: Trace, reset_on_cycle0: bool) -> list:
    # differential oracle for run_trace: the single-cycle model, one step per word
    counter = BitTransitionCounter(trace.width)
    return [
        counter.step(Word(trace.width, value), reset=(i == 0 and reset_on_cycle0))
        for i, value in enumerate(trace.values)
    ]


def fig3_trace() -> Trace:
    return Trace(16, [word_from_text(x, 16, 16).value for x in ("0000", "0303", "0F03")])


class TestInit:
    def test_fresh_state(self):
        counter = BitTransitionCounter(16)
        assert counter.prev_data == Word(16, 0)
        assert counter.total == 0

    def test_width_4(self):
        counter = BitTransitionCounter(4)
        assert counter.prev_data == Word(4, 0)

    @pytest.mark.parametrize("width", [0, -3, 1025])
    def test_bad_width(self, width):
        with pytest.raises(ValueError):
            BitTransitionCounter(width)


class TestStep:
    def test_reset_zeroes_outputs(self):
        counter = BitTransitionCounter(16)
        rec = counter.step(Word(16, 0), reset=True)
        assert rec.one_transition == 0
        assert rec.total_transition == 0
        assert rec.dataout == Word(16, 0)

    def test_reference_sequence(self):
        counter = BitTransitionCounter(16)
        counter.step(Word(16, 0x0000), reset=True)
        rec = counter.step(Word(16, 0x0303))
        assert (rec.one_transition, rec.total_transition) == (4, 4)
        rec = counter.step(Word(16, 0x0F03))
        assert (rec.one_transition, rec.total_transition) == (2, 6)

    def test_identity_input_counts_nothing(self):
        counter = BitTransitionCounter(8)
        counter.step(Word(8, 0xA5), reset=True)
        counter.step(Word(8, 0x5A))
        total = counter.total
        rec = counter.step(Word(8, 0x5A))
        assert rec.one_transition == 0
        assert rec.total_transition == total

    def test_width_mismatch(self):
        counter = BitTransitionCounter(8)
        with pytest.raises(ValueError):
            counter.step(Word(16, 0))

    def test_reset_reloads_comparison_register(self):
        # first post-reset count compares against the word applied during reset
        counter = BitTransitionCounter(4)
        counter.step(Word(4, 0b1111), reset=True)
        rec = counter.step(Word(4, 0b1110))
        assert rec.one_transition == 1

    def test_total_saturates(self):
        counter = BitTransitionCounter(8)
        counter.step(Word(8, 0), reset=True)
        counter.total = TOTAL_SATURATION - 1
        rec = counter.step(Word(8, 0xFF))
        assert rec.total_transition == TOTAL_SATURATION
        rec = counter.step(Word(8, 0x00))
        assert rec.total_transition == TOTAL_SATURATION


class TestRunTrace:
    def test_reference_totals(self):
        records = run_trace(fig3_trace())
        assert [r.total_transition for r in records] == [0, 4, 6]
        assert [r.one_transition for r in records] == [0, 4, 2]

    def test_dataout_lags_by_one_cycle(self):
        trace = fig3_trace()
        records = run_trace(trace)
        for k in range(1, len(trace)):
            assert records[k].dataout == trace[k - 1]

    def test_constant_trace(self):
        trace = Trace(8, [0x42] * 10)
        assert run_trace(trace)[-1].total_transition == 0

    def test_without_initial_reset_counts_from_zero_register(self):
        trace = Trace(4, [0b1111, 0b1111])
        records = run_trace(trace, reset_on_cycle0=False)
        assert records[0].one_transition == 4
        assert records[-1].total_transition == 4

    @given(traces(max_len=60, max_width=64))
    def test_final_total_matches_pairwise_oracle(self, trace):
        records = run_trace(trace)
        assert records[-1].total_transition == pairwise_total(trace)

    @given(traces(max_len=40))
    def test_one_transition_bounded_by_width(self, trace):
        for rec in run_trace(trace):
            assert 0 <= rec.one_transition <= trace.width

    @given(traces(min_len=3, max_len=30))
    def test_reset_isolates_history(self, trace):
        # resetting at cycle k makes totals depend only on words from k on
        k = len(trace) // 2
        counter = BitTransitionCounter(trace.width)
        for i, word in enumerate(trace):
            rec = counter.step(word, reset=(i == 0 or i == k))
        tail = Trace(trace.width, trace.values[k:])
        assert rec.total_transition == pairwise_total(tail)

    @given(traces(max_len=30))
    def test_cycle_numbers_are_sequential(self, trace):
        records = run_trace(trace)
        assert [r.cycle for r in records] == list(range(len(trace)))

    def test_record_repr(self):
        records = run_trace(Trace(4, (0b0001, 0b0010)))
        assert repr(records[1]) == (
            "CycleRecord(cycle=1, reset=False, datain=Word(4, '0010'), "
            "dataout=Word(4, '0001'), one_transition=2, total_transition=2)"
        )

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_record_has_no_order_even_against_its_tuple(self, op):
        record = run_trace(Trace(4, (0b0001, 0b0010)))[1]
        for left, right in ((record, tuple(record)), (tuple(record), record), (record, record)):
            with pytest.raises(TypeError, match="not supported between instances of 'CycleRecord'"):
                op(left, right)

    def test_records_repr(self):
        records = run_trace(Trace(4, (0b0001, 0b0010)))
        assert repr(records) == f"CycleRecords([{records[0]!r}, {records[1]!r}])"

    @pytest.mark.parametrize("other", [None, 3, object(), {0: 1}])
    def test_records_never_equal_a_non_sequence(self, other):
        records = run_trace(Trace(4, (0b0001, 0b0010)))
        assert records != other and other != records
        assert not records == other and not other == records

    def test_builds_no_word(self, monkeypatch):
        trace = wide_trace(16)

        def refuse(cls, width, value):
            raise AssertionError("run_trace built a checked Word")

        with monkeypatch.context() as patch:
            patch.setattr(Word, "__new__", refuse)  # the checked constructor
            # the records are built when read: read them all, and one by index
            records = list(run_trace(trace))
            assert run_trace(trace)[1] == records[1]
            assert run_trace(trace)[1:3] == records[1:3]
        assert [r.datain for r in records] == list(trace)
        assert [r.dataout for r in records[1:]] == list(trace)[:-1]


# Slices with every sign of start, stop and step, empty ones included.
SLICES = [slice(None), slice(None, None, 2), slice(1, None, 3), slice(None, None, -1),
          slice(-3, None), slice(None, -1, 2), slice(5, 2), slice(-1, 0, -2),
          slice(2, 100), slice(-100, 1)]


def assert_records_equal(records, expected):
    """The records view against the list `expected`: its length, every index
    (negatives too), stepped slices, two full iterations and equality."""
    assert len(records) == len(expected)
    assert list(records) == expected
    assert list(records) == expected  # each iteration builds the records anew
    # equal by value to any sequence of the same records, in either order
    assert records == expected and expected == records and records == tuple(expected)
    assert records != expected[:-1] and records != expected + expected[:1]
    for i in range(-len(expected), len(expected)):
        assert records[i] == expected[i]
    for index in (len(expected), -len(expected) - 1):
        with pytest.raises(IndexError):
            records[index]
    for cut in SLICES:
        assert records[cut] == expected[cut]


class TestRunTraceMatchesStep:
    @given(traces(min_len=1, max_len=40, max_width=1024), st.booleans())
    @example(wide_trace(1024), True)
    @example(wide_trace(1024), False)
    @example(Trace(1, (1,)), False)
    def test_records_equal(self, trace, reset):
        assert_records_equal(run_trace(trace, reset_on_cycle0=reset), stepped(trace, reset))

    @given(
        traces(min_len=1, max_len=20, max_width=8),
        st.booleans(),
        st.integers(0, 40),
    )
    @example(Trace(4, (0, 15, 0, 15)), True, 5)
    def test_records_equal_when_the_total_saturates(self, trace, reset, saturation):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transition_counter, "TOTAL_SATURATION", saturation)
            records = run_trace(trace, reset_on_cycle0=reset)
            expected = stepped(trace, reset)
        assert_records_equal(records, expected)


def test_run_trace_holds_counts_not_records():
    # the probe keeps constant state; run_trace keeps 2 + 8 B of counts per
    # cycle beside the trace, where a held CycleRecord per cycle took 176 B
    words = 200_000
    rng = random.Random(32)
    trace = Trace(32, tuple(rng.getrandbits(32) for _ in range(words)))
    tracemalloc.start()
    try:
        records = run_trace(trace)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 12 * words
    assert peak <= 12 * words
    assert records[-1].total_transition == pairwise_total(trace)
