"""Fixed-width bit vectors and the transition-counting primitives.

A :class:`Word` is an immutable bit pattern of known width. Bit 0 is the
least significant bit and the rightmost character of the binary text form,
so a 16-bit bus "data(15)..data(0)" maps to indices 15..0. A :class:`Trace`
is a width plus a tuple of plain int values, one per clock cycle; iterating
or indexing it yields :class:`Word` objects, and a slice a list of them.
The number of word-to-word transfers is one less than the number of words.

The transition count between two consecutive words is their Hamming
distance, i.e. the popcount of their XOR.

Every chunked stage (generator, renderer, reader, encoders and the toggle
fold) passes a trace on in *chunks*: ``bytes`` holding one or more words of
``ceil(width / 8)`` bytes each, big-endian, in trace order, the bits above
`width` zero. It is what ``bytes.fromhex`` makes of a block of hex words, so
a stage works on a chunk in a few C-level calls, not one Python call per
word. :func:`pack` and :func:`unpack` convert at the edges of the stages
that need ints.

:class:`Record` is the base of every immutable value class in the package,
:class:`Word` and :class:`Trace` included: named ``__slots__`` fields bound
once by ``Record.__init__``, with equality, hash, repr and pickling by field.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, repeat
from operator import attrgetter

MAX_WIDTH = 1024  # sanity bound; typical buses here are 4..16 lines

# The byte budget of every chunked stage: the trace reader's block, and the
# values per generated, sliced or toggle-counted chunk (chunk_words). The
# per-chunk Python steps stay negligible next to the per-word work, and no
# stage's transient memory grows with the trace: under 1 MiB for the reader
# and the fold at any width, about 1.5 MiB for a generated chunk as text.
CHUNK_BYTES = 1 << 14

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def chunk_words(width: int) -> int:
    """Values per chunk of a `width`-bit trace: CHUNK_BYTES // ceil(width / 8)."""
    return CHUNK_BYTES // ((width + 7) // 8)


def chunked(values: Sequence[int], width: int) -> Iterator[bytes]:
    """`values` as chunks of chunk_words(width) words (the last may be shorter)."""
    step = chunk_words(width)
    return (pack(width, values[start : start + step]) for start in range(0, len(values), step))


def _restride(data: bytes, old: int, new: int) -> bytes:
    """Big-endian words of `old` bytes each as words of `new` bytes, zero
    bytes added or dropped at the top of each word."""
    if old == new:
        return data
    out = bytearray(len(data) // old * new)
    for j in range(1, min(old, new) + 1):
        out[new - j :: new] = data[old - j :: old]
    return out


def _machine_words(size: int):
    """An empty array of the narrowest unsigned machine integer of at least
    `size` bytes, or None past 8 bytes."""
    from array import array  # here, not at the top: the CLI starts without it

    return next((array(c) for c in "BHILQ" if array(c).itemsize >= size), None)


def pack(width: int, values: Iterable[int]) -> bytes:
    """A chunk of `width`-bit words from their values (see the module docstring)."""
    size = (width + 7) // 8
    items = _machine_words(size)
    if items is None:
        return b"".join(map(int.to_bytes, values, repeat(size), repeat("big")))
    items.extend(values)
    if sys.byteorder == "little":
        items.byteswap()
    return bytes(_restride(items.tobytes(), items.itemsize, size))


def unpack(width: int, chunk: bytes) -> list[int]:
    """The values of the `width`-bit words in `chunk`; the inverse of pack."""
    size = (width + 7) // 8
    items = _machine_words(size)
    if items is None:
        return [int.from_bytes(chunk[i : i + size], "big") for i in range(0, len(chunk), size)]
    items.frombytes(_restride(chunk, size, items.itemsize))
    if sys.byteorder == "little":
        items.byteswap()
    return items.tolist()


def check_width(width: int) -> None:
    """Reject bus widths outside 1..MAX_WIDTH."""
    if not isinstance(width, int) or not 1 <= width <= MAX_WIDTH:
        raise ValueError(f"width must be an integer in 1..{MAX_WIDTH}, got {width!r}")


class Record:
    """An immutable value: a subclass names its two or more fields in
    ``__slots__`` and passes their values, checked, to ``Record.__init__``.
    A subclass that stores its fields another way, as a tuple say, names
    them in ``__match_args__`` and reads each through a property.

    Records of the same class with equal fields compare and hash equal, like
    the tuple of their fields; a record equals nothing else. The repr is
    ``Name(field=value, ...)``, ``__match_args__`` is the field names, and
    pickle and copy rebuild a record through its constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__dict__.get("__match_args__", cls.__slots__)
        cls._values = attrgetter(*cls.__match_args__)  # a tuple: every record has 2+ fields

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self.__match_args__, self._values(self))
        return f"{type(self).__qualname__}({', '.join(fields)})"


class Word(Record):
    """A value of exactly `width` bits; no hidden higher bits are stored."""

    __slots__ = ("width", "value")

    def __init__(self, width: int, value: int) -> None:
        check_width(width)
        if not 0 <= value < (1 << width):
            raise ValueError(f"value 0x{value:X} does not fit in {width} bits")
        # Bound here, not through Record.__init__, which takes a Word from 0.9-1.1 us
        # to 1.6-1.7 us to build; iterating or indexing a Trace builds one per value.
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "value", value)

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


def hamming_distance(a: Word, b: Word) -> int:
    """Number of bit positions where two same-width words differ."""
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} vs {b.width}")
    return (a.value ^ b.value).bit_count()


class Trace(Record):
    """Same-width int values over consecutive clock cycles, cycle 0 first."""

    __slots__ = ("width", "values")

    def __init__(self, width: int, values: tuple[int, ...]) -> None:
        check_width(width)
        values = tuple(values)
        if not values:
            raise ValueError("empty trace: need at least one word")
        low, high = min(values), max(values)
        if low < 0 or high >> width:
            raise ValueError(f"values {low}..{high} do not all fit in {width} bits")
        super().__init__(width, values)

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

    @classmethod
    def from_chunks(cls, width: int, chunks: Iterable[bytes]) -> "Trace":
        """The trace of the words in `chunks`, in order."""
        return cls(width, tuple(chain.from_iterable(map(unpack, repeat(width), chunks))))

    @property
    def transfers(self) -> int:
        """Word-to-word transitions observed; len(values) - 1."""
        return len(self.values) - 1

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Word]:
        return map(Word, repeat(self.width), self.values)

    def __getitem__(self, index: int | slice) -> Word | list[Word]:
        if isinstance(index, slice):
            return list(map(Word, repeat(self.width), self.values[index]))
        return Word(self.width, self.values[index])
