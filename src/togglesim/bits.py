"""Fixed-width bit vectors, packed chunks of them, and the record base.

A :class:`Word` is an immutable bit pattern of known width. Bit 0 is the
least significant bit and the rightmost character of the binary text form,
so a 16-bit bus "data(15)..data(0)" maps to indices 15..0. A trace is a
width plus its words, one per clock cycle, and has one transfer fewer than
words. Every CLI command loads this module once it is parsed (the parser
needs none of it), and none builds a held trace, a ``togglesim.trace.Trace``.

Every chunked stage (generator, renderer, reader, encoders and the toggle
fold) passes a trace on in *chunks*: ``bytes`` holding one or more words of
``ceil(width / 8)`` bytes each, big-endian, in trace order, the bits above
`width` zero. It is what ``bytes.fromhex`` makes of a block of hex words, so
a stage works on a chunk in a few C-level calls, not one Python call per
word. :func:`pack` makes a chunk of ints, ``togglesim.trace.unpack`` reads
one back, and ``togglesim.activity`` counts transitions over chunks.

:class:`Record` is the base of the package's immutable records,
:class:`Word` included: each is a ``collections.namedtuple``, to which the
base adds checked ``_replace``, class-strict equality, no order and pickling
through the constructor. ``Trace``, a held trace, is no record.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Iterable
from functools import partialmethod
from itertools import repeat

MAX_WIDTH = 1024  # sanity bound; typical buses here are 4..16 lines

# What check_width and the trace header say of a width outside 1..MAX_WIDTH,
# before the width they were given.
BAD_WIDTH = f"width must be an integer in 1..{MAX_WIDTH}, got "

# The byte budget of every chunked stage: the trace reader's block, and the
# values per generated or sliced chunk (chunk_words). The per-chunk Python
# steps stay negligible next to the per-word work, and no stage's transient
# memory grows with the trace: under 1 MiB for the reader, about 1.5 MiB for
# a generated chunk as text, and for the fold, whose packs hold PACK_WORDS
# words or more (see `activity`), a peak of about 1.4 MiB at 1024 bits.
CHUNK_BYTES = 1 << 14

# The digits of each radix, in a word's text and in the trace reader's clean
# blocks, where a hex digit of either case is read.
DIGITS = {2: "01", 16: "0123456789abcdefABCDEF"}

# The trace format's name of each radix, in a header and in gen's options.
RADIXES = {"bin": 2, "hex": 16}


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


def machine_words(size: int, chunk: bytes = b""):
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
    items = machine_words(size)
    if items is None:
        return b"".join(map(int.to_bytes, values, repeat(size), repeat("big")))
    items.extend(values)
    if sys.byteorder == "little":
        items.byteswap()
    return bytes(restride(items.tobytes(), items.itemsize, size))


def check_width(width: int) -> None:
    """Reject bus widths outside 1..MAX_WIDTH."""
    if not isinstance(width, int) or not 1 <= width <= MAX_WIDTH:
        raise ValueError(f"{BAD_WIDTH}{width!r}")


class Record:
    """The base of the package's immutable records, each a
    ``collections.namedtuple`` subclass with ``__slots__ = ()``, checked, if
    at all, in ``__new__``. It adds what namedtuple lacks: ``_replace`` runs
    those checks, a record equals only a record of its own class with equal
    fields (and hashes like the tuple of them), it has no order, not even
    against a tuple, and pickle and copy rebuild it through its constructor.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, values: Iterable[object]) -> Record:  # so that _replace checks, too
        return cls(*values)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return False if isinstance(other, tuple) else NotImplemented
        return tuple.__eq__(self, other)  # compare what is stored

    __hash__ = tuple.__hash__
    __ne__ = object.__ne__  # != inverts __eq__

    def _unordered(self, op: str, other: object) -> bool:
        raise TypeError(f"'{op}' not supported between instances of "
                        f"{type(self).__name__!r} and {type(other).__name__!r}")

    __lt__, __le__, __gt__, __ge__ = map(partialmethod, repeat(_unordered), ("<", "<=", ">", ">="))

    def __reduce__(self):
        return self.__class__, tuple(self)


class Word(Record, namedtuple("Word", "width value")):
    """A value of exactly `width` bits (no hidden higher bits) and its text forms.

    Checked by ``Word(width, value)``; bit arithmetic is done on ``.value``.
    A Trace, and the records of ``run_trace``, build the Word of a checked
    word with one ``tuple.__new__``."""

    __slots__ = ()

    def __new__(cls, width: int, value: int) -> Word:
        check_width(width)
        if not 0 <= value < (1 << width):
            raise ValueError(f"value 0x{value:X} does not fit in {width} bits")
        return super().__new__(cls, width, value)

    def to_binary(self) -> str:
        """MSB-first binary text, exactly `width` characters."""
        return format(self.value, f"0{self.width}b")

    def to_hex(self) -> str:
        """Uppercase hex, zero-padded to ceil(width/4) digits."""
        return format(self.value, f"0{word_digits(self.width, 16)}X")

    def __repr__(self) -> str:
        return f"Word({self.width}, '{self.to_binary()}')"


def check_radix(radix: int) -> None:
    """Reject radixes other than 2 and 16."""
    if radix not in RADIXES.values():
        raise ValueError(f"radix must be 2 or 16, got {radix}")


def word_digits(width: int, radix: int) -> int:
    """The digits of a `width`-bit word written in full in `radix`, 2 or 16."""
    return width if radix == 2 else (width + 3) // 4


def word_from_text(text: str, radix: int, width: int) -> Word:
    """Parse an MSB-first binary or hex string into a `width`-bit Word.

    Binary accepts at most `width` digits, hex at most ceil(width/4); excess
    leading zeros within those limits are fine. Hex is case-insensitive.
    """
    check_width(width)
    check_radix(radix)
    if not text:
        raise ValueError("empty text")
    name, digits = "binary" if radix == 2 else "hex", word_digits(width, radix)
    bad = set(text).difference(DIGITS[radix])
    if bad:
        raise ValueError(f"invalid {name} digit {sorted(bad)[0]!r} in {text!r}")
    if len(text) > digits:
        raise ValueError(f"{len(text)} {name} digits exceed width {width}")
    return Word(width, int(text, radix))  # which rejects a hex value above the width
