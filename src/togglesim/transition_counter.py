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
records for a whole trace at once, counting on the trace's int values. Like
the probe, which keeps only the previous word and a running total, it holds
counts, not records: one ``array`` of ``one_transition`` and one of
``total_transition`` counts, 10 B per cycle beside the trace. Each
:class:`CycleRecord` is built when it is read, and builds its ``datain`` and
``dataout`` :class:`~togglesim.bits.Word` when those are read.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from functools import partial
from itertools import accumulate, chain, islice, repeat
from operator import eq, itemgetter, xor

from .bits import Record, Trace, Word, check_width

# Running total saturates instead of wrapping on very long runs.
TOTAL_SATURATION = (1 << 64) - 1


class CycleRecord(Record, tuple):
    """Outputs observed on one clock edge.

    A :class:`~togglesim.bits.Record` stored as a tuple, ``(cycle, reset,
    width, datain value, dataout value, one_transition, total_transition)``,
    with its fields read through properties. The records of :func:`run_trace`
    are built each time they are read, so building one must stay a single
    C-level ``tuple.__new__``: about 0.6 us per cycle, where a slotted
    ``Record`` holding two ``Word``s took 5.6-5.9 us. ``datain`` and
    ``dataout`` are built when read, and ``==`` compares the stored ints, so
    that it builds no ``Word``.
    """

    __slots__ = ()
    __match_args__ = (
        "cycle", "reset", "datain", "dataout", "one_transition", "total_transition"
    )
    __init__ = tuple.__init__  # the fields are bound by __new__

    def __new__(cls, cycle: int, reset: bool, datain: Word, dataout: Word,
                one_transition: int, total_transition: int) -> "CycleRecord":
        if datain.width != dataout.width:
            raise ValueError(f"width mismatch: {datain.width} vs {dataout.width}")
        return tuple.__new__(
            cls,
            (cycle, reset, datain.width, datain.value, dataout.value,
             one_transition, total_transition),
        )

    cycle = property(itemgetter(0))
    reset = property(itemgetter(1))
    one_transition = property(itemgetter(5))
    total_transition = property(itemgetter(6))

    @property
    def datain(self) -> Word:
        return Word(self[2], self[3])

    @property
    def dataout(self) -> Word:
        return Word(self[2], self[4])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    __hash__ = Record.__hash__
    # != inverts __eq__; records have no order, where tuple's would compare the layout
    __ne__ = object.__ne__
    __lt__, __le__ = object.__lt__, object.__le__
    __gt__, __ge__ = object.__gt__, object.__ge__


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
    """The records of one :func:`run_trace`, a read-only sequence.

    It holds the trace's values and the two count arrays; each
    :class:`CycleRecord` is built when it is read, by iteration or by
    index, and is not kept. It equals any sequence of the same records, a
    list of them included.
    """

    __slots__ = ("_width", "_values", "_reset", "_ones", "_totals")
    __hash__ = None  # equal by value, like a list of the records

    def __init__(self, width: int, values: tuple[int, ...], reset: bool,
                 ones: array, totals: array) -> None:
        self._width, self._values, self._reset = width, values, reset
        self._ones, self._totals = ones, totals

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[CycleRecord]:
        values = self._values
        return map(
            partial(tuple.__new__, CycleRecord),
            zip(
                range(len(values)),
                chain((self._reset,), repeat(False)),
                repeat(self._width),
                values,
                chain((0,), values),  # dataout: zero on cycle 0, then the word before
                self._ones,
                self._totals,
            ),
        )

    def __getitem__(self, index: int | slice) -> CycleRecord | list[CycleRecord]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        cycle = range(len(self._values))[index]  # an int, negatives counted from the end
        return tuple.__new__(CycleRecord, (
            cycle,
            self._reset if cycle == 0 else False,
            self._width,
            self._values[cycle],
            self._values[cycle - 1] if cycle else 0,
            self._ones[cycle],
            self._totals[cycle],
        ))


def run_trace(trace: Trace, reset_on_cycle0: bool = True) -> CycleRecords:
    """Feed a whole trace through a fresh counter, one word per cycle.

    The records equal those of ``BitTransitionCounter.step`` applied to each
    word in turn, with reset asserted on cycle 0 only if ``reset_on_cycle0``.
    With that customary reset, the final ``total_transition`` equals the sum
    of Hamming distances over consecutive word pairs; without it, cycle 0
    counts the first word against the all-zero register. The result holds
    the counts, 2 B (``one_transition``) and 8 B (``total_transition``) per
    cycle, and builds each record when it is read.
    """
    reset = bool(reset_on_cycle0)
    values = trace.values
    flips = map(int.bit_count, map(xor, values, islice(values, 1, None)))
    ones = array("H", chain((0 if reset else values[0].bit_count(),), flips))  # <= 1024 lines
    totals = array("Q", accumulate(ones))
    if totals[-1] > TOTAL_SATURATION:  # totals never fall: the last is the largest
        totals = array("Q", map(min, totals, repeat(TOTAL_SATURATION)))
    return CycleRecords(trace.width, values, reset, ones, totals)
