"""A whole trace held in memory as one chunk (see `bits`), which no CLI
command builds: the whole-trace wrappers (`generate`, `read_trace`,
the encoders' `*_encode_trace`) import this module when they build one.
`unpack`, the inverse of `bits.pack`, is here with `Trace`, the one reader
of a chunk's words as ints. `Trace` is a slotted class, not one of the
tuple records on `bits.Record`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain, repeat

from .bits import Word, check_width, chunk_words, machine_words, pack


def unpack(width: int, chunk: bytes) -> list[int]:
    """The values of the `width`-bit words in `chunk`; the inverse of pack."""
    size = (width + 7) // 8
    items = machine_words(size, chunk)
    if items is None:
        from struct import iter_unpack  # here, not at the top: only wide words need it

        from_bytes = int.from_bytes
        return [from_bytes(word, "big") for (word,) in iter_unpack(f"{size}s", chunk)]
    return items.tolist()


class Trace:
    """Same-width words over consecutive clock cycles, cycle 0 first.
    ``Trace(width, values)`` checks and packs int values; ``values`` unpacks
    them. Iteration builds each :class:`Word` a chunk at a time. It binds
    slots: as a tuple, its ``in``, ``count``, ``index`` and ``+`` would act
    on ``(width, chunk)``, not on its words. Equality and hash read
    ``(width, chunk)``, which the words fix, so neither unpacks a word; repr,
    pickle and copy give ``width`` and ``values``, as the constructor takes.
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
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "chunk", pack(width, values))

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
        object.__setattr__(trace, "width", width)
        object.__setattr__(trace, "chunk", chunk)
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

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.width == other.width and self.chunk == other.chunk

    def __hash__(self) -> int:
        return hash((self.width, self.chunk))

    def __len__(self) -> int:
        return len(self.chunk) // ((self.width + 7) // 8)

    def __iter__(self) -> Iterator[Word]:
        values = chain.from_iterable(map(unpack, repeat(self.width), self.chunks()))
        return map(tuple.__new__, repeat(Word), zip(repeat(self.width), values))

    def __getitem__(self, index: int | slice) -> Word | list[Word]:
        cycle = range(len(self))[index]  # an int, negatives counted from the end, or a range
        if isinstance(cycle, range):
            return list(map(self.__getitem__, cycle))
        size = (self.width + 7) // 8
        value = int.from_bytes(self.chunk[cycle * size : (cycle + 1) * size], "big")
        return tuple.__new__(Word, (self.width, value))

    def __reduce__(self):
        return self.__class__, (self.width, self.values)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(width={self.width!r}, values={self.values!r})"
