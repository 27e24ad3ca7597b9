"""The packed Trace and its whole-trace wrappers against the Word-based
oracle in reference_trace, at widths 1..MAX_WIDTH and at lengths on each
side of a chunk edge."""

import io
import random
import tracemalloc
from itertools import chain
from operator import xor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_trace as reference
from strategies import outcome
from togglesim.activity import PACK_WORDS, analyze_trace, popcounts, transfer_diffs
from togglesim.bits import MAX_WIDTH, Word, chunk_words, pack
from togglesim.encoders import bus_invert_encode_trace, gray_encode_trace
from togglesim.trace import Trace
from togglesim.trace_io import read_trace, render_trace
from togglesim.transition_counter import run_trace


def edge_lengths(width: int) -> list[int]:
    per_chunk = chunk_words(width)
    return [1, 2, per_chunk - 1, per_chunk, per_chunk + 1]


def random_values(width: int, length: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(width) for _ in range(length)]


@st.composite
def edge_cases(draw):
    """A width, and random values of a length at a chunk edge."""
    width = draw(st.integers(1, MAX_WIDTH))
    length = draw(st.sampled_from(edge_lengths(width)))
    return width, random_values(width, length, draw(st.integers(0, 2**32)))


# a slice of every sign of start, stop and step, an empty one included
SLICES = [slice(None), slice(1, None, 3), slice(None, None, -2), slice(-3, None),
          slice(5, 2), slice(2, 10**6)]


class TestAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(edge_cases())
    @example((1, [1] * 16385))
    @example((MAX_WIDTH, [0, (1 << MAX_WIDTH) - 1] * 8 + [1]))
    def test_views(self, case):
        width, values = case
        trace = Trace(width, values)
        words = [Word(width, value) for value in values]
        assert trace.chunk == pack(width, values)
        assert trace.values == tuple(values)
        assert list(trace) == words
        assert len(trace) == len(values) and trace.transfers == len(values) - 1
        for index in (0, -1, len(values) // 2):
            assert trace[index] == words[index]
        for index in (len(values), -len(values) - 1):
            with pytest.raises(IndexError):
                trace[index]
        for cut in SLICES:
            assert trace[cut] == words[cut]
        assert b"".join(trace.chunks()) == trace.chunk
        assert Trace.from_chunks(width, trace.chunks()) == trace

    @settings(max_examples=25, deadline=None)
    @given(edge_cases())
    @example((1, [0, 1] * 8192 + [1]))
    @example((MAX_WIDTH, [0, (1 << MAX_WIDTH) - 1] * 8 + [1]))
    def test_wrappers(self, case):
        width, values = case
        trace = Trace(width, values)
        words = tuple(Word(width, value) for value in values)
        for per_cycle in (False, True):
            assert outcome(analyze_trace, trace, per_cycle) == outcome(
                reference.analyze_trace, words, per_cycle
            )
        for radix in (2, 16):
            text = render_trace(trace, radix)
            assert text == reference.render_trace(words, radix)
            assert read_trace(io.StringIO(text)) == trace
        assert tuple(gray_encode_trace(trace)) == reference.gray_encode_trace(words)
        encoded = outcome(lambda: tuple(bus_invert_encode_trace(trace)))
        assert encoded == outcome(reference.bus_invert_encode_trace, words)
        flips = map(int.bit_count, map(xor, values, values[1:]))
        assert [r.one_transition for r in run_trace(trace)] == [0, *flips]


class TestFromChunks:
    @pytest.mark.parametrize("width", [9, 16, 17, 1000, MAX_WIDTH])
    def test_words_may_straddle_chunks_but_not_end_them(self, width):
        values = random_values(width, 3, width)
        chunk = pack(width, values)
        assert Trace.from_chunks(width, [chunk[:3], b"", chunk[3:]]) == Trace(width, values)
        with pytest.raises(ValueError, match="not whole"):
            Trace.from_chunks(width, [chunk[:-1]])

    @pytest.mark.parametrize("width", [1, 7, 9, 15, 1001, MAX_WIDTH - 1])
    def test_a_bit_above_the_width_is_rejected(self, width):
        size = (width + 7) // 8
        top = bytes([1 << width % 8]) + bytes(size - 1)  # the lowest bit above the width
        good = pack(width, [(1 << width) - 1])
        assert Trace.from_chunks(width, [good]).values == ((1 << width) - 1,)
        with pytest.raises(ValueError, match=f"above its {width} bits"):
            Trace.from_chunks(width, [good, top, good])


class TestTransferCounts:
    """activity.popcounts of activity.transfer_diffs, the per-transfer counts that
    analyze --per-cycle and run_trace share, against one bit_count each."""

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 247, 248, 256, 1024])
    def test_match_the_popcount_of_each_xor(self, width):
        full = (1 << width) - 1
        # every line flipping at once is the largest count a slot must hold
        per_pack = max(PACK_WORDS, chunk_words(width))
        values = [0, full, 0] + random_values(width, 2 * per_pack + 1, width)
        counts = chain.from_iterable(
            popcounts(width, diffs) for diffs in transfer_diffs(width, [pack(width, values)])
        )
        assert list(counts) == list(map(int.bit_count, map(xor, values, values[1:])))
        assert list(popcounts(width, pack(width, values))) == [v.bit_count() for v in values]


@pytest.mark.parametrize("width", [16, 32])
def test_a_held_trace_takes_its_packed_bytes(width):
    # a tuple of int values took about 40 B per word
    words = 200_000
    values = random_values(width, words, width)
    tracemalloc.start()
    try:
        trace = Trace(width, values)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= ((width + 7) // 8 + 1) * words
    assert len(trace) == words
