import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from togglesim import bits
from togglesim.activity import analyze_trace
from togglesim.bits import Trace, Word, pack, word_from_text
from togglesim.encoders import (
    bus_invert_encode_chunks, bus_invert_encode_trace, gray_encode_trace
)
from togglesim.generators import GeneratorConfig, generate
import reference_trace as reference
from reference_generators import gray_decode, gray_encode
from reference_trace import BusLineState, bus_invert_decode, bus_invert_encode, hamming_distance
from strategies import outcome, traces, wide_trace, words


class TestGray:
    """The oracle's single-word gray map, which the trace tests compare against."""

    def test_zero_fixed_point(self):
        assert gray_encode(Word(4, 0)) == Word(4, 0)

    def test_encode_example(self):
        assert gray_encode(word_from_text("0101", 2, 4)).to_binary() == "0111"

    def test_decode_inverts_encode_exhaustively(self):
        for value in range(16):
            w = Word(4, value)
            assert gray_decode(gray_encode(w)) == w

    @given(words())
    def test_round_trip(self, w):
        assert gray_decode(gray_encode(w)) == w
        assert gray_encode(gray_decode(w)) == w


class TestBusInvertStep:
    """The oracle's single-word bus-invert step, which the trace tests compare against."""

    def test_majority_flip_inverts(self):
        prev = BusLineState(Word(8, 0x00), False)
        out = bus_invert_encode(prev, Word(8, 0xFF))
        assert out == BusLineState(Word(8, 0x00), True)
        # one total line flip: data unchanged, invert line rises
        assert hamming_distance(prev.word, out.word) == 0

    def test_identity_transfer(self):
        prev = BusLineState(Word(8, 0x3C), False)
        out = bus_invert_encode(prev, Word(8, 0x3C))
        assert out == BusLineState(Word(8, 0x3C), False)

    def test_tie_does_not_invert(self):
        prev = BusLineState(Word(8, 0x00), False)
        out = bus_invert_encode(prev, Word(8, 0x0F))  # hamming exactly 4 of 8
        assert out == BusLineState(Word(8, 0x0F), False)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            bus_invert_encode(BusLineState(Word(8, 0), False), Word(4, 0))

    def test_decode_complement(self):
        assert bus_invert_decode(BusLineState(Word(8, 0x00), True)) == Word(8, 0xFF)

    def test_decode_pass_through(self):
        assert bus_invert_decode(BusLineState(Word(8, 0x5A), False)) == Word(8, 0x5A)

    def test_random_sequence_round_trip(self):
        rng = random.Random(7)
        line = BusLineState(Word(12, rng.getrandbits(12)), False)
        for _ in range(200):
            raw = Word(12, rng.getrandbits(12))
            line = bus_invert_encode(line, raw)
            assert bus_invert_decode(line) == raw

    @given(words(max_width=32), words(max_width=32))
    def test_data_flips_bounded(self, a, b):
        if a.width != b.width:
            b = Word(a.width, b.value & ((1 << a.width) - 1))
        prev = BusLineState(a, False)
        out = bus_invert_encode(prev, b)
        flips = hamming_distance(prev.word, out.word)
        assert flips <= a.width // 2
        assert flips + int(out.invert != prev.invert) <= a.width // 2 + 1


class TestTraceTransforms:
    def test_gray_mapped_counter_flips_once_per_transfer(self):
        config = GeneratorConfig(kind="binary", width=4, seed=Word(4, 0))
        encoded = gray_encode_trace(generate(config, 15))
        report = analyze_trace(encoded)
        assert report.total_transitions == report.transfers
        assert report.tau == 1 / 4

    @given(traces(max_len=30, max_width=16))
    def test_bus_invert_round_trip(self, trace):
        encoded = bus_invert_encode_trace(trace)
        assert encoded.width == trace.width + 1
        assert len(encoded) == len(trace)
        assert reference.bus_invert_decode_trace(tuple(encoded)) == tuple(trace)

    @given(traces(min_len=2, max_len=30, max_width=16))
    def test_bus_invert_never_beats_half_plus_invert(self, trace):
        encoded = bus_invert_encode_trace(trace)
        report = analyze_trace(encoded, include_per_cycle=True)
        assert all(c <= trace.width // 2 + 1 for c in report.per_cycle)

    @given(traces(min_len=2, max_len=30, max_width=16))
    def test_bus_invert_reduces_busy_traces(self, trace):
        raw = analyze_trace(trace)
        if raw.tau <= 0.5:
            return
        encoded = analyze_trace(bus_invert_encode_trace(trace))
        assert encoded.tau <= raw.tau

    def test_first_word_passes_through_uninverted(self):
        trace = Trace(4, [0b1010, 0b0101])
        encoded = bus_invert_encode_trace(trace)
        assert encoded[0].value == 0b1010  # invert bit low
        assert (encoded[0].value >> 4) & 1 == 0

    def test_decode_requires_data_lines(self):
        with pytest.raises(ValueError):
            reference.bus_invert_decode_trace((Word(1, 0),))


@st.composite
def tie_traces(draw, max_width=64):
    """Even-width traces where many transfers flip exactly half the lines,
    bus-invert's tie, whichever way the previous word went out."""
    width = 2 * draw(st.integers(1, max_width // 2))
    values = [draw(st.integers(0, (1 << width) - 1))]
    for _ in range(draw(st.integers(1, 30))):
        if draw(st.booleans()):
            flipped = draw(st.permutations(range(width)))[: width // 2]
            values.append(values[-1] ^ sum(1 << i for i in flipped))
        else:
            values.append(draw(st.integers(0, (1 << width) - 1)))
    return Trace(width, tuple(values))


def any_traces(min_width=1, max_width=64):
    drawn = traces(min_len=1, min_width=min_width, max_width=max_width)
    return st.one_of(drawn, tie_traces())


class TestAgainstReference:
    """The int-backed trace encoders against the Word-based ones they replaced."""

    def test_tie_stays_uninverted(self):
        trace = Trace(4, (0b0000, 0b0011, 0b1111, 0b1110, 0b0001))
        assert bus_invert_encode_trace(trace).values == (
            0b00000, 0b00011, 0b01111, 0b01110, 0b11110,
        )
        assert tuple(bus_invert_encode_trace(trace)) == reference.bus_invert_encode_trace(
            tuple(trace)
        )

    @given(any_traces())
    @example(wide_trace(256))
    @example(wide_trace(1024))
    def test_gray_encode_trace(self, trace):
        assert tuple(gray_encode_trace(trace)) == reference.gray_encode_trace(tuple(trace))

    @given(any_traces())
    @example(wide_trace(256))
    @example(wide_trace(1023))
    @example(wide_trace(1024))
    def test_bus_invert_encode_trace(self, trace):
        assert outcome(lambda: tuple(bus_invert_encode_trace(trace))) == outcome(
            reference.bus_invert_encode_trace, tuple(trace)
        )


@st.composite
def tie_heavy_values(draw, min_width=1, max_width=bits.MAX_WIDTH - 1):
    """A width and its words, where the next word usually flips exactly
    width // 2 lines: bus-invert's tie at an even width, in any invert state."""
    width = draw(st.integers(min_width, max_width))
    rng = random.Random(draw(st.integers(0, 2**32)))
    values = [rng.getrandbits(width)]
    for _ in range(draw(st.integers(0, 24))):
        if rng.random() < 0.75:
            values.append(values[-1] ^ sum(1 << i for i in rng.sample(range(width), width // 2)))
        else:
            values.append(rng.getrandbits(width))
    return width, values


def split(chunk: bytes, size: int, pieces: list[int]) -> list[bytes]:
    """`chunk` cut into pieces of the given numbers of words, the rest last."""
    cuts, start = [], 0
    for words in pieces:
        cuts.append(chunk[start : start + words * size])
        start += words * size
    return [*cuts, chunk[start:]]


def encoded_in_pieces(width: int, values: list[int], pieces: list[int],
                      pack_words: int) -> bytes:
    """bus_invert_encode_chunks over `values` cut into `pieces`, with packs
    of `pack_words` words, so that pieces and packs straddle each other."""
    chunks = split(pack(width, values), (width + 7) // 8, pieces)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bits, "CHUNK_BYTES", 1)
        patch.setattr(bits, "PACK_WORDS", pack_words)
        return b"".join(bus_invert_encode_chunks(width, chunks))


def reference_encoded(width: int, values: list[int]) -> bytes:
    encoded = reference.bus_invert_encode_trace(tuple(Word(width, v) for v in values))
    return pack(width + 1, [w.value for w in encoded])


class TestBusInvertChunks:
    """The batch encoder against the Word-based reference, for any split of
    a trace into chunks and any pack size: the invert line is a prefix XOR
    that a tie restarts, carried from pack to pack."""

    @given(tie_heavy_values(), st.lists(st.integers(0, 7), max_size=8), st.integers(2, 5))
    @example((1, [0, 1, 1, 0, 1, 0, 0]), [1, 0, 2], 2)  # width 1: half is 0, so no tie
    @example((9, [0b101010101]), [], 2)  # one word, sent as it is
    # odd width 7: 4 flips invert, then 3 (a tie only at even widths) keep it
    @example((7, [0, 0b1111, 0b1000, 0]), [2, 2], 2)
    # a tie right after an inverted word drops the invert line
    @example((4, [0, 0b0111, 0b0100, 0b0111]), [0, 1, 1, 1], 2)
    # inverted at the last word of a pack, and still at the next pack's first
    @example((8, [0, 0xFF, 0xFE, 0xFE, 0xFC]), [5], 3)
    @example((1023, [0, (1 << 1023) - 1, 1 << 1022, 0]), [1, 1], 2)
    def test_any_split_matches_reference(self, drawn, pieces, pack_words):
        width, values = drawn
        assert encoded_in_pieces(width, values, pieces, pack_words) == reference_encoded(
            width, values
        )

    @pytest.mark.parametrize("width", [1, 16, 17, 64, 65, 256, 1023])
    def test_unpatched_packs_match_reference(self, width):
        # more than two packs at every width, ties included where the width is even
        per_pack = max(bits.PACK_WORDS, bits.chunk_words(width))
        rng = random.Random(width)
        values = [rng.getrandbits(width)]
        for i in range(2 * per_pack + 3):
            flips = min(width, max(0, width // 2 + i % 3 - 1))  # one less than a tie, a tie, one more
            values.append(values[-1] ^ sum(1 << b for b in rng.sample(range(width), flips)))
        chunks = Trace(width, values).chunks()
        assert b"".join(bus_invert_encode_chunks(width, chunks)) == reference_encoded(
            width, values
        )

    def test_no_words_encode_to_no_chunk(self):
        assert list(bus_invert_encode_chunks(8, [b"", b""])) == []

    def test_max_width_reads_every_chunk_then_raises(self):
        read = []

        def chunks():
            for value in (0, 1, 2):
                read.append(value)
                yield pack(bits.MAX_WIDTH, [value])

        with pytest.raises(ValueError, match=r"one extra line above the 1024 data lines"):
            list(bus_invert_encode_chunks(bits.MAX_WIDTH, chunks()))
        assert read == [0, 1, 2]
