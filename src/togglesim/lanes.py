"""Chunk sources of recurrences, stepped as SWAR lanes when linear over GF(2).

Lanes start in one of two ways. `source` (the LFSRs and null-boundary CAs)
jumps them ahead through the columns of a power of the step's bit matrix M,
which costs width ** 2 bits per big-int step: so only up to LANE_WIDTH bits
and in runs of at least width ** 2 words, and otherwise it runs the kind's
one-word step. `power_source` (the cyclic CAs) takes the powers M^(2^k) as
lane steps, at every width and run length. A cyclic step multiplies by
x + c + x^-1 modulo x^w - 1 (c = 1 for rule 150), and squaring over GF(2) is
additive, so M^(2^k) is x^d + c + x^-d, d = 2^k mod w: two rotations of each
lane (O. Martin, A. M. Odlyzko and S. Wolfram, "Algebraic properties of
cellular automata", Commun. Math. Phys. 93, 1984). At a power-of-two width
x^(w/2) = x^-(w/2), so M^(w/2) = c: rule 150's period divides w/2, and rule
90 is all-zero from step w/2 on.

`generators` imports this module when a generator runs, not at its top:
`analyze` imports `generators` for its parser's choices alone, and so
compiles none of this.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from .bits import chunk_words, pack
from .generators import Source, Step, Swar

# (k, bit 0 of every lane) -> M^(2^k), M the step's matrix, as the step of
# every lane at once
Power = Callable[[int, int], Step]

# In `source`, a linear kind of up to LANE_WIDTH bits steps about LANE_BITS
# bits of lanes at once; a wider one steps one word, as its jumps and
# transposition would cost more than the steps they save (measured at 72 to
# 256 bits).
LANE_BITS = 1024
LANE_WIDTH = 64


def _lane_count(width: int, words: int) -> int:
    """K, the lanes a linear kind of `width` bits steps in a run of `words`
    words: the largest power of two no greater than a chunk's words or
    LANE_BITS / (8 * ceil(width / 8)). It is 1 past LANE_WIDTH bits, and in
    a run of fewer than width ** 2 words, where setting up the jumps (big-int
    steps on `width` lanes at once) costs more than the lanes save (measured
    at 8 to 64 bits)."""
    if width > LANE_WIDTH or words < width * width:
        return 1
    per_chunk = min(chunk_words(width), words)
    return 1 << min(LANE_BITS // (8 * ((width + 7) // 8)), per_chunk).bit_length() - 1


def _apply(columns: list[int], lanes: int, low: int) -> int:
    """Every lane of `lanes` times the GF(2) matrix of `columns` (column i
    being the image of bit i); `low` has bit 0 of every lane set."""
    out = 0
    for i, column in enumerate(columns):
        out ^= ((lanes >> i) & low) * column
    return out


def _lane_order(data: bytes, lanes: int, size: int) -> bytes:
    """The words of `data`, rows of `lanes` words of `size` bytes each, lane
    by lane: lane 0's word of every row, then lane 1's, and so on. Words
    move as machine items, the widest that divides a word, in
    lanes * size / itemsize strided slices."""
    from array import array  # here, not at the top: the CLI starts without it

    items = array(next(c for c in "BHILQ" if array(c).itemsize == size & -size), data)
    per, out = size // items.itemsize, array(items.typecode, bytes(len(data)))
    span = len(items) // lanes  # the items of a lane
    for j in range(lanes):
        for k in range(per):
            out[j * span + k : (j + 1) * span : per] = items[j * per + k :: lanes * per]
    return out.tobytes()


def source(width: int, step: Step, swar: Swar | None = None) -> Source:
    """The source of a recurrence: the seed, then `step` of the word before.

    A kind linear over GF(2) also gives `swar`, its step on lanes of
    8 * ceil(width / 8) bits packed in one int, lane 0 the most significant
    (SWAR: Warren, Hacker's Delight, 2nd ed., 2012). A batch of K * m words
    is then K lanes started m words apart, each stepped m times, and the m
    rows are put in trace order. The lanes start by jumps ahead (Haramoto,
    Matsumoto, Nishimura, Panneton and L'Ecuyer, "Efficient jump ahead for
    F2-linear random number generators", INFORMS J. Computing 20(3), 2008):
    the columns of M^m, M being the step's matrix, are the `width` basis
    vectors stepped as lanes m times; squared, they make M^2m up to M^Km.
    The seed's lane doubles into K lanes through M^m .. M^(K/2 m), and M^Km
    moves every lane on to the next batch. At K = 1 the source runs `step`,
    which computes what swar(1) does, faster.
    """
    size = (width + 7) // 8
    bits = 8 * size

    def chunks(seed: int, cycles: int) -> Iterator[bytes]:
        words = cycles + 1
        per_chunk = min(chunk_words(width), words)
        lanes = _lane_count(width, words) if swar else 1
        steps = per_chunk // lanes
        batch, advance, starts = lanes * steps, step, seed
        if lanes > 1:
            low = ((1 << bits * max(lanes, width)) - 1) // ((1 << bits) - 1)
            advance, lane = swar(low), (1 << bits) - 1
            matrix = sum(1 << i * (bits + 1) for i in range(width))  # bit i in lane i
            for _ in range(steps):
                matrix = advance(matrix)
            jumps = [[(matrix >> i * bits) & lane for i in range(width)]]  # M^m
            for _ in range(lanes.bit_length() - 1):
                matrix = _apply(jumps[-1], matrix, low)
                jumps.append([(matrix >> i * bits) & lane for i in range(width)])
            for k, columns in enumerate(jumps[:-1]):
                starts = (starts << (bits << k)) | _apply(columns, starts, low)
        for start in range(0, words, batch):
            count = min(batch, words - start)
            used = -(-count // steps)  # the lanes that hold words of this batch
            s, rows = starts >> (lanes - used) * bits, []
            for _ in range(min(steps, count)):
                rows.append(s)
                s = advance(s)
            data = pack(used * bits, rows)
            yield _lane_order(data, used, size)[: count * size] if used > 1 else data
            starts = s if lanes == 1 else _apply(jumps[-1], starts, low)

    return chunks


def power_source(width: int, power: Power) -> Source:
    """The source of a linear kind that gives `power`, the lane step of its
    powers M^(2^k) (a cyclic CA: see the module docstring).

    A batch is K lanes, K the largest power of two no greater than a
    chunk's words or the run's: the seed's lane doubles into K lanes through
    M^1, M^2, .. M^(K/2), lane j holding the seed stepped j times, and M^K
    moves the lanes on to the next batch, in the last only those the run
    still needs. So each batch is one int whose bytes are its words in trace
    order, and the lanes need no jump columns and no reordering.
    """
    size = (width + 7) // 8
    bits, one = 8 * size, (1).to_bytes(size, "big")

    def chunks(seed: int, cycles: int) -> Iterator[bytes]:
        words = cycles + 1
        k = min(chunk_words(width), words).bit_length() - 1
        row, lanes = seed, 1 << k
        for j in range(k):
            row = row << (bits << j) | power(j, int.from_bytes(one * (1 << j), "big"))(row)
        yield row.to_bytes(size << k, "big")
        advance = power(k, int.from_bytes(one * min(lanes, words - lanes), "big"))
        for start in range(lanes, words, lanes):
            count = min(lanes, words - start)
            row = advance(row >> (lanes - count) * bits)
            yield row.to_bytes(count * size, "big")

    return chunks
