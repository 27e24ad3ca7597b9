import copy
import operator
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from togglesim.bits import Word, pack, word_from_text
from togglesim.trace import Trace, unpack
from reference_trace import hamming_distance
from strategies import word_pairs, word_triples, words


def hamming_by_loop(a: Word, b: Word) -> int:
    # independent oracle: compare text forms character by character
    return sum(1 for ca, cb in zip(a.to_binary(), b.to_binary()) if ca != cb)


class TestWordFromText:
    def test_hex_example(self):
        w = word_from_text("0303", 16, 16)
        assert w.to_binary() == "0000001100000011"

    def test_binary_seed_verbatim(self):
        w = word_from_text("1011001010110110", 2, 16)
        assert w.to_binary() == "1011001010110110"

    def test_short_hex_zero(self):
        assert word_from_text("0", 16, 16) == Word(16, 0)

    def test_lowercase_hex_renders_uppercase(self):
        assert word_from_text("0f03", 16, 16).to_hex() == "0F03"

    @pytest.mark.parametrize(
        "text,radix,width",
        [
            ("G3", 16, 16),
            ("0x12", 16, 16),
            ("012", 2, 16),
            ("", 2, 8),
        ],
    )
    def test_invalid_digits(self, text, radix, width):
        with pytest.raises(ValueError):
            word_from_text(text, radix, width)

    def test_value_exceeds_width(self):
        with pytest.raises(ValueError):
            word_from_text("3F", 16, 5)

    def test_too_many_digits(self):
        with pytest.raises(ValueError):
            word_from_text("00303", 16, 16)
        with pytest.raises(ValueError):
            word_from_text("0" * 17, 2, 16)

    @pytest.mark.parametrize("width", [0, -1, 1025])
    def test_width_out_of_range(self, width):
        with pytest.raises(ValueError):
            word_from_text("0", 2, width)

    def test_bad_radix(self):
        with pytest.raises(ValueError):
            word_from_text("0", 10, 8)


class TestWord:
    def test_no_hidden_bits(self):
        with pytest.raises(ValueError):
            Word(4, 16)
        with pytest.raises(ValueError):
            Word(4, -1)

    def test_hex_padding(self):
        assert Word(5, 3).to_hex() == "03"
        assert Word(16, 0x0F03).to_hex() == "0F03"

    @given(words())
    def test_text_round_trip(self, w):
        assert word_from_text(w.to_binary(), 2, w.width) == w
        assert word_from_text(w.to_hex(), 16, w.width) == w

    @given(words())
    def test_binary_text_is_exactly_width(self, w):
        assert len(w.to_binary()) == w.width
        assert len(w.to_hex()) == (w.width + 3) // 4

    def test_stored_as_a_tuple_but_never_equal_to_one(self):
        w = Word(4, 5)
        assert isinstance(w, tuple)
        assert w != (4, 5) and (4, 5) != w
        assert not w == (4, 5) and not (4, 5) == w
        assert w != [4, 5] and w == Word(4, 5)
        with pytest.raises(TypeError, match="'<' not supported between instances of 'Word'"):
            w < Word(4, 6)

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_no_order_even_against_a_tuple(self, op):
        # a tuple operand must not lend the Word its tuple order, either way round
        w = Word(4, 5)
        for left, right in ((w, (4, 6)), ((4, 6), w), (w, (4, 5)), ((4, 5), w), (w, w)):
            with pytest.raises(TypeError, match="not supported between instances of 'Word'"):
                op(left, right)

    def test_pickle_copy_hash_and_match_as_a_slotted_record(self):
        w = Word(12, 0xABC)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            # the pickle stream follows from this, as it did for the slotted Word
            assert w.__reduce_ex__(protocol) == (Word, (12, 0xABC))
            clone = pickle.loads(pickle.dumps(w, protocol))
            assert type(clone) is Word and clone == w
        for clone in (copy.copy(w), copy.deepcopy(w)):
            assert type(clone) is Word and clone == w
        assert hash(w) == hash((12, 0xABC))
        match w:
            case Word(12, value=value):
                assert value == 0xABC
            case _:
                pytest.fail("Word did not match its class pattern")


class TestHamming:
    def test_worked_example(self):
        a = word_from_text("00111100", 2, 8)
        b = word_from_text("11111101", 2, 8)
        assert hamming_distance(a, b) == 3

    def test_hex_example(self):
        assert hamming_distance(Word(16, 0x0000), Word(16, 0x0303)) == 4

    def test_second_hex_example(self):
        assert hamming_distance(Word(16, 0x0303), Word(16, 0x0F03)) == 2

    @given(words())
    def test_identity(self, w):
        assert hamming_distance(w, w) == 0

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(Word(4, 0), Word(8, 0))

    @given(word_pairs())
    def test_matches_loop_oracle(self, pair):
        a, b = pair
        assert hamming_distance(a, b) == hamming_by_loop(a, b)
        assert hamming_distance(a, b) == (a.value ^ b.value).bit_count()

    @given(word_pairs())
    def test_symmetry_and_bounds(self, pair):
        a, b = pair
        d = hamming_distance(a, b)
        assert d == hamming_distance(b, a)
        assert 0 <= d <= a.width
        assert (d == a.width) == (b.value == a.value ^ ((1 << a.width) - 1))

    @given(word_triples())
    def test_triangle_inequality(self, triple):
        a, b, c = triple
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


class TestTrace:
    def test_width_enforced(self):
        with pytest.raises(ValueError, match="above its 4 bits"):
            Trace.from_chunks(4, [b"\x00\x10"])

    @pytest.mark.parametrize("values", [(0, 16), (-1, 0), (3, -5, 15), (1 << 64,)])
    def test_out_of_range_values_rejected(self, values):
        with pytest.raises(ValueError, match="do not all fit in 4 bits"):
            Trace(4, values)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty trace"):
            Trace(4, ())
        with pytest.raises(ValueError, match="empty trace"):
            Trace.from_chunks(4, [])

    def test_transfers(self):
        t = Trace(4, (0,))
        assert t.transfers == 0
        t = Trace(4, (0, 1, 2))
        assert t.transfers == 2
        assert len(t) == 3
        assert t[1] == Word(4, 1)
        assert list(t) == [Word(4, 0), Word(4, 1), Word(4, 2)]

    @pytest.mark.parametrize("cut", [
        slice(1, 3), slice(None), slice(-2, None), slice(None, -1), slice(None, None, 2),
        slice(None, None, -1), slice(-1, 0, -2), slice(2, 1), slice(5, 9), slice(-9, 0),
    ])
    def test_slice_is_the_list_of_its_words(self, cut):
        assert Trace(4, (1, 2, 3))[cut] == [Word(4, v) for v in (1, 2, 3)[cut]]


# Widths on each side of a machine-integer size, and the largest allowed.
PACK_EDGE_WIDTHS = [1, 7, 8, 9, 16, 17, 24, 25, 32, 33, 56, 57, 63, 64, 65, 1023, 1024]


@st.composite
def packable(draw):
    width = draw(st.one_of(st.sampled_from(PACK_EDGE_WIDTHS), st.integers(1, 1024)))
    values = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=20))
    return width, values


class TestChunkLayout:
    """A chunk is each word in ceil(width / 8) big-endian bytes, in order."""

    @given(packable())
    def test_pack_lays_out_big_endian_words(self, case):
        width, values = case
        size = (width + 7) // 8
        assert pack(width, values) == b"".join(v.to_bytes(size, "big") for v in values)

    @given(packable())
    def test_unpack_inverts_pack(self, case):
        width, values = case
        assert unpack(width, pack(width, values)) == values

    def test_hex_block_is_a_chunk(self):
        assert unpack(12, bytes.fromhex("0ABC 0FFF 0000")) == [0xABC, 0xFFF, 0]

    @pytest.mark.parametrize("width", [65, 128, 256, 1023])
    @pytest.mark.parametrize("count", [0, 1, 300])
    def test_wide_unpack_equals_slice_loop(self, width, count):
        # past 8 bytes a word has no machine integer, so unpack splits the
        # chunk with struct; the loop it replaced slices one word at a time
        rng = random.Random(width)
        size = (width + 7) // 8
        chunk = pack(width, [rng.getrandbits(width) for _ in range(count)])
        sliced = [int.from_bytes(chunk[i : i + size], "big") for i in range(0, len(chunk), size)]
        assert unpack(width, chunk) == sliced
