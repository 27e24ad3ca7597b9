"""The chunk source of a recurrence linear over GF(2), run in rows by its
seed orbit's least recurrence.

An orbit v_0, v_1, ... of a linear step M obeys v_n = XOR of v_(n-L) over a
set of lags L, for every n at or past the degree d of the orbit's
annihilating polynomial P. Elimination over the Krylov sequence, the first
d + 1 <= width + 1 words, finds d and the lags (D. H. Wiedemann, "Solving
sparse linear equations over finite fields", IEEE Trans. IT 32, 1986). Over
GF(2), P(x)^(2^k) = P(x^(2^k)), so the words 2^k apart obey the same
recurrence at lags L * 2^k: a row of K = 2^k consecutive words, held as one
int in trace order, is the XOR of the rows L back, once d rows precede it.
`frobenius` uses the same identity for the cyclic CAs, whose step it writes
in closed form.
"""

from __future__ import annotations

from collections.abc import Iterator

from .bits import chunk_words, pack
from .generators import Source, Step

# The most words the d rows of history hold, K times d: so a run's memory
# stops growing by its 2 ** 13th word, at most 1 MiB at 1024 bits.
HISTORY_WORDS = 1 << 13

# The most bits XORed into each word of a row, the orbit's lags times the
# width, for which rows beat one step per word (measured at 65 to 1024 bits).
XOR_BITS = 1 << 14


def least_recurrence(step: Step, seed: int) -> tuple[list[int], list[int]]:
    """The first d words of the orbit of `seed` under `step`, and the lags L
    by which every later word v_n is the XOR of the words v_(n-L).

    Each new word is reduced against a basis of the words before it, keyed
    by leading bit, tracking which words it has taken in; the first word to
    reduce to zero is v_d, the XOR of those words.
    """
    basis: dict[int, tuple[int, int]] = {}  # leading bit -> (vector, words it XORs)
    orbit, word = [], seed
    while True:
        n, vector, taken = len(orbit), word, 1 << len(orbit)
        while vector and vector.bit_length() in basis:
            reduced, xored = basis[vector.bit_length()]
            vector, taken = vector ^ reduced, taken ^ xored
        if not vector:
            return orbit, [n - i for i in range(n) if taken >> i & 1]
        basis[vector.bit_length()] = vector, taken
        orbit.append(word)
        word = step(word)


def source(width: int, step: Step) -> Source:
    """The source of a recurrence whose `step` is linear over GF(2): the
    seed, then `step` of the word before.

    A run goes in rows when it has at least width ** 2 words and its orbit
    at most XOR_BITS / width lags (every orbit, up to 128 bits), as finding
    the recurrence costs up to width ** 2 big-int XORs and a row XORs one
    held row per lag; any other run steps one word at a time. In rows, the
    first d words, from `step`, are rows of one word. K then doubles: d
    more rows at K pair into d rows of 2K words, while 2K is at most a
    chunk's words and d * 2K at most the run's words and HISTORY_WORDS.
    Each chunk is as many whole rows as fit in a chunk.
    """
    size = (width + 7) // 8
    bits = 8 * size

    def chunks(seed: int, cycles: int) -> Iterator[bytes]:
        words = cycles + 1
        if words >= width * width:
            rows, lags = least_recurrence(step, seed)
            if len(lags) * width <= XOR_BITS:
                yield from in_rows(rows, lags, words)
                return
        per_chunk = min(chunk_words(width), words)
        for start in range(0, words, per_chunk):
            values = []
            for _ in range(min(per_chunk, words - start)):
                values.append(seed)
                seed = step(seed)
            yield pack(width, values)

    def in_rows(rows: list[int], lags: list[int], words: int) -> Iterator[bytes]:
        def following() -> int:  # the row after `rows`: the XOR of the rows L back
            row = 0
            for lag in lags:
                row ^= rows[-lag]
            return row

        d = len(rows)
        limit = min(chunk_words(width), min(words, HISTORY_WORDS) // max(d, 1))
        k = 0
        while 2 << k <= limit:
            for _ in range(d):
                rows.append(following())
            rows = [rows[j] << (bits << k) | rows[j + 1] for j in range(0, 2 * d, 2)]
            k += 1
        spanned, per_chunk = -(-words >> k), chunk_words(width) >> k
        for first in range(0, spanned, per_chunk):
            chunk = []
            for r in range(first, min(first + per_chunk, spanned)):
                if r < d:
                    row = rows[r]
                else:
                    row = following()
                    rows.append(row)
                    del rows[0]
                chunk.append(row.to_bytes(size << k, "big"))
            yield b"".join(chunk)[: (words - (first << k)) * size]

    return chunks
