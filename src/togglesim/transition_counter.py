"""Cycle-accurate model of a bus probe that counts bit transitions.

The counter sits on a bus without disturbing it: every input word reappears
on the output one clock cycle later. Two counts are maintained per cycle,
the number of lines that flipped between the last two words
(``one_transition``) and the running sum of those flips since the last
reset (``total_transition``).

Reset is synchronous and active high. While reset is asserted both counts
read 0 and the data output is driven to all zeros; the input word still
loads the comparison register, so the first post-reset count compares
against the last value applied during reset.

:class:`BitTransitionCounter` is the single-cycle model: ``step`` applies one
word and one reset level per clock edge. :func:`run_trace` gives the same
records for a whole trace at once. Like the probe, which keeps only the
previous word and a running total, it holds counts, not records: the
trace, and one ``array`` each of ``one_transition`` (the per-transfer
counts of ``analyze --per-cycle``) and ``total_transition`` counts, 10 B
per cycle. Each :class:`CycleRecord` is built when it is read, with the
trace's :class:`~togglesim.bits.Word` of its cycle and of the cycle before.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import accumulate, chain, repeat, tee
from operator import eq

from .activity import popcounts, transfer_diffs
from .bits import Record, Word, check_width

# Running total saturates instead of wrapping on very long runs.
TOTAL_SATURATION = (1 << 64) - 1


class CycleRecord(Record, namedtuple("CycleRecord", "cycle reset datain dataout "
                                     "one_transition total_transition")):
    """Outputs observed on one clock edge; ``datain`` and ``dataout`` are
    Words of one width."""

    __slots__ = ()

    def __new__(cls, cycle: int, reset: bool, datain: Word, dataout: Word,
                one_transition: int, total_transition: int) -> CycleRecord:
        if datain.width != dataout.width:
            raise ValueError(f"width mismatch: {datain.width} vs {dataout.width}")
        return super().__new__(cls, cycle, reset, datain, dataout, one_transition,
                               total_transition)


class BitTransitionCounter:
    """Single-owner mutable probe state; step strictly one cycle at a time."""

    def __init__(self, width: int):
        check_width(width)
        self.width = width
        self.prev_data = Word(width, 0)
        self.total = 0
        self._cycle = 0

    def step(self, datain: Word, reset: bool = False) -> CycleRecord:
        """Apply one clock edge and return the outputs for that cycle."""
        if datain.width != self.width:
            raise ValueError(f"width mismatch: {datain.width} vs {self.width}")
        cycle = self._cycle
        self._cycle += 1
        if reset:
            self.total = 0
            self.prev_data = datain
            return CycleRecord(cycle, True, datain, Word(self.width, 0), 0, 0)
        one = (self.prev_data.value ^ datain.value).bit_count()
        self.total = min(self.total + one, TOTAL_SATURATION)
        dataout = self.prev_data
        self.prev_data = datain
        return CycleRecord(cycle, False, datain, dataout, one, self.total)


class CycleRecords(Sequence):
    """The records of one :func:`run_trace`, a read-only sequence: each
    :class:`CycleRecord` is built when it is read, from the run's Trace and
    counts that this holds, and is not kept. It equals any sequence of the
    same records, a list of them included."""

    __slots__ = ("_trace", "_reset", "_ones", "_totals", "_zero")
    __hash__ = None  # equal by value, like a list of the records

    def __init__(self, trace, reset: bool, ones: array, totals: array) -> None:
        self._trace, self._reset, self._ones, self._totals = trace, reset, ones, totals
        self._zero = tuple.__new__(Word, (trace.width, 0))  # dataout on cycle 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"

    def __len__(self) -> int:
        return len(self._ones)

    def __iter__(self) -> Iterator[CycleRecord]:
        trace = self._trace
        words, before = tee(trace)  # one pass over the trace's Words
        return map(
            tuple.__new__,
            repeat(CycleRecord),
            zip(
                range(len(trace)),
                chain((self._reset,), repeat(False)),
                words,
                chain((self._zero,), before),  # dataout: the word before
                self._ones,
                self._totals,
            ),
        )

    def __getitem__(self, index: int | slice) -> CycleRecord | list[CycleRecord]:
        cycle = range(len(self))[index]  # an int, negatives counted from the end, or a range
        if isinstance(cycle, range):
            return list(map(self.__getitem__, cycle))
        trace = self._trace
        return tuple.__new__(CycleRecord, (
            cycle, self._reset if cycle == 0 else False, trace[cycle],
            trace[cycle - 1] if cycle else self._zero, self._ones[cycle], self._totals[cycle],
        ))


def run_trace(trace, reset_on_cycle0: bool = True) -> CycleRecords:
    """Feed a whole Trace through a fresh counter, one word per cycle.

    The records equal those of ``BitTransitionCounter.step`` applied to each
    word in turn, with reset asserted on cycle 0 only if ``reset_on_cycle0``.
    With that customary reset, the final ``total_transition`` equals the sum
    of Hamming distances over consecutive word pairs; without it, cycle 0
    counts the first word against the all-zero register. The result holds
    the trace and 2 + 8 B of counts per cycle, and builds each record when
    it is read.
    """
    reset = bool(reset_on_cycle0)
    zero = bytes((trace.width + 7) // 8)  # the register before cycle 0
    ones = array("H")
    for diffs in transfer_diffs(trace.width, chain((zero,), trace.chunks())):
        ones += popcounts(trace.width, diffs)
    if reset:
        ones[0] = 0
    totals = array("Q", accumulate(ones))
    if totals[-1] > TOTAL_SATURATION:  # totals never fall: the last is the largest
        totals = array("Q", map(min, totals, repeat(TOTAL_SATURATION)))
    return CycleRecords(trace, reset, ones, totals)
