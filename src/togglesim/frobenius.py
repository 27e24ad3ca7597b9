"""The chunk source of a cyclic CA, which only its generator imports, and
the powers M^(2^k) of the step's bit matrix M, by which its lanes start at
every width and run length. A cyclic step multiplies by x + c + x^-1 modulo
x^w - 1 (c = 1 for rule 150), and squaring over GF(2) is additive, so
M^(2^k) is x^d + c + x^-d, d = 2^k mod w: two rotations of each lane (O.
Martin, A. M. Odlyzko and S. Wolfram, "Algebraic properties of cellular
automata", Commun. Math. Phys. 93, 1984). At a power-of-two width
x^(w/2) = x^-(w/2), so M^(w/2) = c: rule 150's period divides w/2, and
rule 90 is all-zero from step w/2 on.
"""

from __future__ import annotations

from collections.abc import Iterator

from .bits import chunk_words
from .generators import Source, Step


def power_source(width: int, self_mask: int) -> Source:
    """The source of a cyclic CA whose rule keeps the cells of `self_mask`
    (none for rule 90, all for rule 150).

    A batch is K lanes, K the largest power of two no greater than a
    chunk's words or the run's: the seed's lane doubles into K lanes through
    M^1, M^2, .. M^(K/2), lane j holding the seed stepped j times, and M^K
    moves the lanes on to the next batch, in the last only those the run
    still needs. So each batch is one int whose bytes are its words in trace
    order, and the lanes need no jump columns and no reordering.
    """
    size = (width + 7) // 8
    bits, one = 8 * size, (1).to_bytes(size, "big")

    def power(k: int, low: int) -> Step:
        # M^(2^k) = x^d + c + x^-d on every lane at once, `low` holding bit 0 of each
        d, own = pow(2, k, width), low * self_mask
        if 2 * d % width == 0:  # x^d = x^-d: the rotations cancel
            return lambda s: s & own
        e = width - d
        low_d, low_e = (low << d) - low, (low << e) - low  # bits 0 to d - 1, e - 1
        return lambda s: (((s >> d) & low_e) ^ ((s & low_d) << e) ^ ((s >> e) & low_d)
                          ^ ((s & low_e) << d) ^ (s & own))

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
