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
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import Trace, Word, check_width

# Running total saturates instead of wrapping on very long runs.
TOTAL_SATURATION = (1 << 64) - 1


@dataclass(frozen=True)
class CycleRecord:
    """Outputs observed on one clock edge."""

    cycle: int
    reset: bool
    datain: Word
    dataout: Word
    one_transition: int
    total_transition: int


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

    With the customary reset on cycle 0, the final ``total_transition``
    equals the sum of Hamming distances over consecutive word pairs.
    """
    counter = BitTransitionCounter(trace.width)
    return [
        counter.step(word, reset=(i == 0 and reset_on_cycle0))
        for i, word in enumerate(trace)
    ]
