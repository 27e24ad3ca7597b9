"""Fixed-width bit vectors and the transition-counting primitives.

A :class:`Word` is an immutable bit pattern of known width. Bit 0 is the
least significant bit and the rightmost character of the binary text form,
so a 16-bit bus "data(15)..data(0)" maps to indices 15..0. A :class:`Trace`
is a width plus a tuple of plain int values, one per clock cycle; iterating
or indexing it yields :class:`Word` objects. The number of word-to-word
transfers is one less than the number of words.

The transition count between two consecutive words is their Hamming
distance, i.e. the popcount of their XOR. :func:`transfer_xors` and
:func:`transfer_counts` give that per transfer over a sequence of int values;
the probe and the analyzer both count from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import xor
from typing import Iterable, Iterator, Sequence

MAX_WIDTH = 1024  # sanity bound; typical buses here are 4..16 lines

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def check_width(width: int) -> None:
    """Reject bus widths outside 1..MAX_WIDTH."""
    if not isinstance(width, int) or not 1 <= width <= MAX_WIDTH:
        raise ValueError(f"width must be an integer in 1..{MAX_WIDTH}, got {width!r}")


@dataclass(frozen=True)
class Word:
    """A value of exactly `width` bits; no hidden higher bits are stored."""

    width: int
    value: int

    def __post_init__(self) -> None:
        check_width(self.width)
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(
                f"value 0x{self.value:X} does not fit in {self.width} bits"
            )

    def bit(self, index: int) -> int:
        """Bit at `index`, 0 = LSB."""
        if not 0 <= index < self.width:
            raise IndexError(f"bit index {index} out of range for width {self.width}")
        return (self.value >> index) & 1

    def __xor__(self, other: "Word") -> "Word":
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")
        return Word(self.width, self.value ^ other.value)

    def complement(self) -> "Word":
        return Word(self.width, self.value ^ ((1 << self.width) - 1))

    def to_binary(self) -> str:
        """MSB-first binary text, exactly `width` characters."""
        return format(self.value, f"0{self.width}b")

    def to_hex(self) -> str:
        """Uppercase hex, zero-padded to ceil(width/4) digits."""
        return format(self.value, f"0{(self.width + 3) // 4}X")

    def __repr__(self) -> str:
        return f"Word({self.width}, '{self.to_binary()}')"


def value_from_text(text: str, radix: int, width: int) -> int:
    """Parse an MSB-first binary or hex string into a `width`-bit value.

    Binary accepts at most `width` digits, hex at most ceil(width/4); excess
    leading zeros within those limits are fine. Hex is case-insensitive.
    """
    check_width(width)
    if radix not in (2, 16):
        raise ValueError(f"radix must be 2 or 16, got {radix}")
    if not text:
        raise ValueError("empty text")
    if radix == 2:
        bad = set(text) - {"0", "1"}
        if bad:
            raise ValueError(f"invalid binary digit {sorted(bad)[0]!r} in {text!r}")
        if len(text) > width:
            raise ValueError(f"{len(text)} binary digits exceed width {width}")
        return int(text, 2)
    bad = set(text) - _HEX_DIGITS
    if bad:
        raise ValueError(f"invalid hex digit {sorted(bad)[0]!r} in {text!r}")
    if len(text) > (width + 3) // 4:
        raise ValueError(f"{len(text)} hex digits exceed width {width}")
    value = int(text, 16)
    if value >= 1 << width:
        raise ValueError(f"value 0x{value:X} does not fit in {width} bits")
    return value


def word_from_text(text: str, radix: int, width: int) -> Word:
    """value_from_text as a Word."""
    return Word(width, value_from_text(text, radix, width))


def popcount(a: Word) -> int:
    """Number of set bits."""
    return a.value.bit_count()


def hamming_distance(a: Word, b: Word) -> int:
    """Number of bit positions where two same-width words differ."""
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} vs {b.width}")
    return (a.value ^ b.value).bit_count()


def transfer_xors(values: Sequence[int]) -> Iterator[int]:
    """The lines that flip on each word-to-word transfer: each value XOR the next."""
    return map(xor, values, islice(values, 1, None))


def transfer_counts(values: Sequence[int]) -> Iterator[int]:
    """How many lines flip on each word-to-word transfer."""
    return map(int.bit_count, transfer_xors(values))


@dataclass(frozen=True)
class Trace:
    """Same-width int values over consecutive clock cycles, cycle 0 first."""

    width: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        check_width(self.width)
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("empty trace: need at least one word")
        low, high = min(self.values), max(self.values)
        if low < 0 or high >> self.width:
            raise ValueError(f"values {low}..{high} do not all fit in {self.width} bits")

    @classmethod
    def from_words(cls, words: Iterable[Word]) -> "Trace":
        ws = tuple(words)
        if not ws:
            raise ValueError("empty trace: need at least one word")
        width = ws[0].width
        for i, w in enumerate(ws):
            if w.width != width:
                raise ValueError(f"word {i} has width {w.width}, trace declares {width}")
        return cls(width, tuple(w.value for w in ws))

    @property
    def transfers(self) -> int:
        """Word-to-word transitions observed; len(values) - 1."""
        return len(self.values) - 1

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Word]:
        return (Word(self.width, v) for v in self.values)

    def __getitem__(self, index: int) -> Word:
        return Word(self.width, self.values[index])
