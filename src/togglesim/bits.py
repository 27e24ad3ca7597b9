"""Fixed-width bit vectors and the transition-counting primitives.

A :class:`Word` is an immutable bit pattern of known width. Bit 0 is the
least significant bit and the rightmost character of the binary text form,
so a 16-bit bus "data(15)..data(0)" maps to indices 15..0. A :class:`Trace`
is a width plus its words, one per clock cycle, held as one chunk (below):
``ceil(width / 8)`` bytes per word. Iterating or indexing it yields
:class:`Word` objects, and a slice a list of them. The number of
word-to-word transfers is one less than the number of words.

The transition count between two consecutive words is their Hamming
distance, i.e. the popcount of their XOR.

Every chunked stage (generator, renderer, reader, encoders and the toggle
fold) passes a trace on in *chunks*: ``bytes`` holding one or more words of
``ceil(width / 8)`` bytes each, big-endian, in trace order, the bits above
`width` zero. It is what ``bytes.fromhex`` makes of a block of hex words, so
a stage works on a chunk in a few C-level calls, not one Python call per
word. :func:`pack` and :func:`unpack` convert at the edges of the stages
that need ints, and :func:`popcounts` counts the set bits of every word.
The stages that count transitions take the words in :func:`packs`.

:class:`Record` is the base of every immutable value class in the package,
:class:`Word` and :class:`Trace` included: named fields bound once, with
equality, hash, repr and pickling by field.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator
from functools import partialmethod
from itertools import chain, repeat
from operator import attrgetter, itemgetter

MAX_WIDTH = 1024  # sanity bound; typical buses here are 4..16 lines

# The byte budget of every chunked stage: the trace reader's block, and the
# values per generated or sliced chunk (chunk_words). The per-chunk Python
# steps stay negligible next to the per-word work, and no stage's transient
# memory grows with the trace: under 1 MiB for the reader, about 1.5 MiB for
# a generated chunk as text, and for the fold, whose packs hold PACK_WORDS
# words or more, a peak of about 1.4 MiB at 1024 bits (tracemalloc).
CHUNK_BYTES = 1 << 14

# The fewest words in a pack of transfers (see packs), so that a pack's
# Python steps per line or per byte lane are spread over many words at every
# width; at least 2, so that every pack holds a transfer.
PACK_WORDS = 2048

_DIGITS = {2: frozenset("01"), 16: frozenset("0123456789abcdefABCDEF")}


def chunk_words(width: int) -> int:
    """Values per chunk of a `width`-bit trace: CHUNK_BYTES // ceil(width / 8)."""
    return CHUNK_BYTES // ((width + 7) // 8)


def restride(data: bytes, old: int, new: int) -> bytes:
    """Big-endian words of `old` bytes each as words of `new` bytes, zero
    bytes added or dropped at the top of each word."""
    if old == new:
        return data
    out = bytearray(len(data) // old * new)
    for j in range(1, min(old, new) + 1):
        out[new - j :: new] = data[old - j :: old]
    return out


def _machine_words(size: int, chunk: bytes = b""):
    """The `size`-byte words of `chunk` in an array of the narrowest unsigned
    machine integer of at least `size` bytes, or None past 8 bytes."""
    from array import array  # here, not at the top: the CLI starts without it

    items = next((array(c) for c in "BHILQ" if array(c).itemsize >= size), None)
    if items is not None and chunk:
        items.frombytes(restride(chunk, size, items.itemsize))
        if sys.byteorder == "little":
            items.byteswap()
    return items


def pack(width: int, values: Iterable[int]) -> bytes:
    """A chunk of `width`-bit words from their values (see the module docstring)."""
    size = (width + 7) // 8
    items = _machine_words(size)
    if items is None:
        return b"".join(map(int.to_bytes, values, repeat(size), repeat("big")))
    items.extend(values)
    if sys.byteorder == "little":
        items.byteswap()
    return bytes(restride(items.tobytes(), items.itemsize, size))


def unpack(width: int, chunk: bytes) -> list[int]:
    """The values of the `width`-bit words in `chunk`; the inverse of pack."""
    size = (width + 7) // 8
    items = _machine_words(size, chunk)
    if items is None:
        from struct import iter_unpack  # here, not at the top: only wide words need it

        from_bytes = int.from_bytes
        return [from_bytes(word, "big") for (word,) in iter_unpack(f"{size}s", chunk)]
    return items.tolist()


_POPCOUNTS = bytes(map(int.bit_count, range(256)))


def popcount_slots(width: int, chunk: bytes) -> int:
    """The set bits of each `width`-bit word of `chunk`, each in a 2-byte
    slot of one big-endian int: one translate maps each byte to its
    popcount, and byte lane j (byte j of every word) is read as one int. Up
    to 31 lanes add with no carry out of a byte (31 * 8 < 256); the groups'
    sums, spread to 2-byte slots, add with no carry out of a slot
    (MAX_WIDTH < 2 ** 16)."""
    size = (width + 7) // 8
    bits, spread, total = chunk.translate(_POPCOUNTS), bytearray(2 * len(chunk) // size), 0
    for start in range(0, size, 31):
        lanes = (bits[j::size] for j in range(start, min(start + 31, size)))
        group = sum(map(int.from_bytes, lanes, repeat("big")))
        spread[1::2] = group.to_bytes(len(spread) // 2, "big")
        total += int.from_bytes(spread, "big")
    return total


def popcounts(width: int, chunk: bytes):
    """The set bits of each `width`-bit word of `chunk`, as an array('H')."""
    slots = popcount_slots(width, chunk).to_bytes(2 * len(chunk) // ((width + 7) // 8), "big")
    return _machine_words(2, slots)


def packs(width: int, chunks: Iterable[bytes]) -> Iterator[bytearray]:
    """The words of the trace in `chunks` in packs of chunk_words(width) or
    PACK_WORDS words, whichever is more, or more still, each pack starting
    with the last word of the one before, so that each transfer lies in one
    pack. A trace of one word makes no pack."""
    size, words = (width + 7) // 8, bytearray()  # the pack being gathered
    full = max(PACK_WORDS, chunk_words(width)) * size
    for chunk in chain(chunks, [b""]):  # an empty chunk ends a pack: the last one, say
        words += chunk
        if len(words) >= full or not chunk and len(words) > size:
            yield words
            words = words[-size:]


def transfer_diffs(width: int, chunks: Iterable[bytes]) -> Iterator[bytes]:
    """The flipped lines of each transfer of the trace in `chunks`, a chunk
    per pack (see packs). A pack read as one int, XORed with itself shifted
    down one word, holds each transfer's flips in the slot of its second
    word."""
    size = (width + 7) // 8
    for words in packs(width, chunks):
        packed = int.from_bytes(words, "big")
        yield (packed ^ (packed >> (8 * size))).to_bytes(len(words), "big")[size:]


def check_width(width: int) -> None:
    """Reject bus widths outside 1..MAX_WIDTH."""
    if not isinstance(width, int) or not 1 <= width <= MAX_WIDTH:
        raise ValueError(f"width must be an integer in 1..{MAX_WIDTH}, got {width!r}")


class Record:
    """An immutable value: a subclass names its two or more fields in
    ``__slots__`` and passes their values, checked, to ``Record.__init__``.
    A subclass stored as a tuple names them in ``__match_args__`` and reads
    each through a property.

    Records of the same class with equal fields compare and hash equal, like
    the tuple of their fields; a record equals nothing else and has no order,
    not even against a tuple. The repr is ``Name(field=value, ...)``, and
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
        if other.__class__ is not self.__class__:
            return False if isinstance(other, tuple) else NotImplemented
        if isinstance(self, tuple):  # stored as a tuple: compare what is stored
            return tuple.__eq__(self, other)
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    __ne__ = object.__ne__  # != inverts __eq__

    def _unordered(self, op: str, other: object) -> bool:
        raise TypeError(f"'{op}' not supported between instances of "
                        f"{type(self).__name__!r} and {type(other).__name__!r}")

    __lt__, __le__, __gt__, __ge__ = map(partialmethod, repeat(_unordered), ("<", "<=", ">", ">="))

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self.__match_args__, self._values(self))
        return f"{type(self).__qualname__}({', '.join(fields)})"


class Word(Record, tuple):
    """A value of exactly `width` bits (no hidden higher bits) and its text forms.

    A :class:`Record` stored as the tuple ``(width, value)`` and checked by
    ``Word(width, value)``; bit arithmetic is done on ``.value``. A Trace or
    CycleRecord builds the Word of a checked word with one ``tuple.__new__``."""

    __slots__ = ()
    __match_args__ = ("width", "value")
    __init__ = tuple.__init__  # the fields are bound by __new__

    def __new__(cls, width: int, value: int) -> "Word":
        check_width(width)
        if not 0 <= value < (1 << width):
            raise ValueError(f"value 0x{value:X} does not fit in {width} bits")
        return tuple.__new__(cls, (width, value))

    width = property(itemgetter(0))
    value = property(itemgetter(1))

    def to_binary(self) -> str:
        """MSB-first binary text, exactly `width` characters."""
        return format(self.value, f"0{self.width}b")

    def to_hex(self) -> str:
        """Uppercase hex, zero-padded to ceil(width/4) digits."""
        return format(self.value, f"0{(self.width + 3) // 4}X")

    def __repr__(self) -> str:
        return f"Word({self.width}, '{self.to_binary()}')"


def word_from_text(text: str, radix: int, width: int) -> Word:
    """Parse an MSB-first binary or hex string into a `width`-bit Word.

    Binary accepts at most `width` digits, hex at most ceil(width/4); excess
    leading zeros within those limits are fine. Hex is case-insensitive.
    """
    check_width(width)
    if radix not in (2, 16):
        raise ValueError(f"radix must be 2 or 16, got {radix}")
    if not text:
        raise ValueError("empty text")
    name, digits = ("binary", width) if radix == 2 else ("hex", (width + 3) // 4)
    bad = set(text) - _DIGITS[radix]
    if bad:
        raise ValueError(f"invalid {name} digit {sorted(bad)[0]!r} in {text!r}")
    if len(text) > digits:
        raise ValueError(f"{len(text)} {name} digits exceed width {width}")
    return Word(width, int(text, radix))  # which rejects a hex value above the width


class Trace(Record):
    """Same-width words over consecutive clock cycles, cycle 0 first, held
    as one chunk (see the module docstring): ceil(width / 8) bytes a word.
    ``Trace(width, values)`` checks and packs int values; ``values`` unpacks
    them. Iteration builds each :class:`Word` a chunk at a time.
    """

    __slots__ = ("width", "chunk")
    __match_args__ = ("width", "values")

    def __init__(self, width: int, values: Iterable[int]) -> None:
        check_width(width)
        values = tuple(values)
        if not values:
            raise ValueError("empty trace: need at least one word")
        low, high = min(values), max(values)
        if low < 0 or high >> width:
            raise ValueError(f"values {low}..{high} do not all fit in {width} bits")
        super().__init__(width, pack(width, values))

    @classmethod
    def from_chunks(cls, width: int, chunks: Iterable[bytes]) -> "Trace":
        """The trace of the words in `chunks`, checked in bulk: whole words
        only, and no bit set above `width`."""
        chunk = b"".join(chunks)  # first, so that an error of the chunks' source comes first
        check_width(width)
        size = (width + 7) // 8
        if not chunk:
            raise ValueError("empty trace: need at least one word")
        if len(chunk) % size:
            raise ValueError(f"{len(chunk)} bytes are not whole {size}-byte words")
        if width % 8 and max(chunk[::size]) >> (width % 8):
            raise ValueError(f"a word has a bit set above its {width} bits")
        trace = object.__new__(cls)
        Record.__init__(trace, width, chunk)
        return trace

    @property
    def values(self) -> tuple[int, ...]:
        """The words' int values, unpacked at each read."""
        return tuple(unpack(self.width, self.chunk))

    @property
    def transfers(self) -> int:
        """Word-to-word transitions observed; len(trace) - 1."""
        return len(self) - 1

    def chunks(self) -> Iterator[bytes]:
        """The words as chunks of chunk_words(width) words (the last may be shorter)."""
        chunk, step = self.chunk, chunk_words(self.width) * ((self.width + 7) // 8)
        return (chunk[start : start + step] for start in range(0, len(chunk), step))

    def iter_values(self) -> Iterator[int]:
        """The words' int values, unpacked a chunk at a time."""
        return chain.from_iterable(map(unpack, repeat(self.width), self.chunks()))

    def __len__(self) -> int:
        return len(self.chunk) // ((self.width + 7) // 8)

    def __iter__(self) -> Iterator[Word]:
        return map(tuple.__new__, repeat(Word), zip(repeat(self.width), self.iter_values()))

    def __getitem__(self, index: int | slice) -> Word | list[Word]:
        cycle = range(len(self))[index]  # an int, negatives counted from the end, or a range
        if isinstance(cycle, range):
            return list(map(self.__getitem__, cycle))
        size = (self.width + 7) // 8
        value = int.from_bytes(self.chunk[cycle * size : (cycle + 1) * size], "big")
        return tuple.__new__(Word, (self.width, value))
