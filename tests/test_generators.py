import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from togglesim import bits, recurrence
from togglesim.bits import Word, word_from_text
from togglesim.generators import (
    BOUNDARIES, DEFAULT_TAPS_16, KINDS, GeneratorConfig, generate, generate_chunks,
    kind_parameter
)
from togglesim.trace import unpack
import reference_generators as reference
from reference_trace import hamming_distance
from strategies import words


def step(kind: str, state: Word, **param) -> Word:
    """One generated step of `kind` from `state`."""
    return generate(GeneratorConfig(kind, state.width, state, **param), 1)[1]


def ca_by_cells(state: Word, rule: int, boundary: str) -> Word:
    # independent oracle: explicit per-cell neighbor lookup
    width = state.width
    bits = [(state.value >> i) & 1 for i in range(width)]

    def read(i):
        if 0 <= i < width:
            return bits[i]
        return 0 if boundary == "null" else bits[i % width]

    out = 0
    for i in range(width):
        left, right = read(i + 1), read(i - 1)
        new = left ^ right if rule == 90 else left ^ bits[i] ^ right
        out |= new << i
    return Word(width, out)


def first_repeat_period(kind: str, seed: Word, taps) -> int | None:
    # brute-force oracle: steps until the seed recurs; None if it never does
    values = generate(GeneratorConfig(kind, seed.width, seed, taps), 1 << seed.width).values
    return next((n for n in range(1, len(values)) if values[n] == seed.value), None)


class TestExternalLfsr:
    def test_hand_stepped_example(self):
        out = step("lfsr_external", word_from_text("1000", 2, 4), taps={4, 3})
        assert out.to_binary() == "1100"

    @pytest.mark.parametrize("seed_value", range(1, 16))
    def test_maximal_taps_give_period_15(self, seed_value):
        # this shift-toward-LSB form is injective only with position 1
        # tapped; {4,1} realizes x^4 + x^3 + 1
        seed = Word(4, seed_value)
        assert first_repeat_period("lfsr_external", seed, {4, 1}) == 15

    def test_untapped_lsb_collapses_to_short_cycle(self):
        # with {4,3} bit 0 never feeds back: the map is not injective, so
        # the orbit from 1000 falls into a 3-cycle and never returns
        config = GeneratorConfig("lfsr_external", 4, word_from_text("1000", 2, 4), {4, 3})
        seen = list(generate(config, 16))
        assert seen[0] not in seen[1:]
        assert seen[5] == seen[2]
        assert first_repeat_period("lfsr_external", seen[0], {4, 3}) is None

    def test_invalid_tap(self):
        with pytest.raises(ValueError, match="^invalid tap position 5 for width 4$"):
            GeneratorConfig("lfsr_external", 4, Word(4, 1), {5})
        with pytest.raises(ValueError, match="^at least one feedback tap is required$"):
            GeneratorConfig("lfsr_external", 4, Word(4, 1), set())


class TestInternalLfsr:
    def test_hand_stepped_example(self):
        # LSB exits: re-enters at the MSB and XORs into the tap-3 stage
        out = step("lfsr_internal", word_from_text("0001", 2, 4), taps={4, 3})
        assert (out.value >> 3) & 1 == 1
        assert out.to_binary() == "1100"

    def test_orbit_visits_all_nonzero_states(self):
        values = generate(GeneratorConfig("lfsr_internal", 4, Word(4, 1), {4, 3}), 15).values
        assert set(values[:15]) == set(range(1, 16))
        assert values[15] == 1

    @pytest.mark.parametrize("seed_value", range(1, 16))
    def test_period_15_from_any_seed(self, seed_value):
        seed = Word(4, seed_value)
        assert first_repeat_period("lfsr_internal", seed, {4, 3}) == 15


class TestMaximalLengthByBruteForce:
    """Some config-legal tap set reaches period 2^w - 1 for every width.

    The sets are discovered by scanning, then checked from every seed, so
    nothing here depends on frozen tap constants.
    """

    @pytest.mark.parametrize("width", range(2, 9))
    def test_external(self, width):
        full = (1 << width) - 1
        found = None
        middle = range(2, width)
        for bits in range(1 << len(middle)):
            taps = {width, 1} | {t for i, t in enumerate(middle) if bits >> i & 1}
            if first_repeat_period("lfsr_external", Word(width, 1), taps) == full:
                found = taps
                break
        assert found is not None
        for seed_value in range(1, full + 1):
            assert first_repeat_period("lfsr_external", Word(width, seed_value), found) == full

    @pytest.mark.parametrize("width", range(2, 9))
    def test_internal(self, width):
        full = (1 << width) - 1
        found = None
        lower = range(1, width)
        for bits in range(1 << len(lower)):
            taps = {width} | {t for i, t in enumerate(lower) if bits >> i & 1}
            if first_repeat_period("lfsr_internal", Word(width, 1), taps) == full:
                found = taps
                break
        assert found is not None
        for seed_value in range(1, full + 1):
            assert first_repeat_period("lfsr_internal", Word(width, seed_value), found) == full


class TestCa:
    def test_rule90_example(self):
        out = step("ca90", word_from_text("00100", 2, 5), boundary="null")
        assert out.to_binary() == "01010"

    def test_rule150_example(self):
        out = step("ca150", word_from_text("00100", 2, 5), boundary="null")
        assert out.to_binary() == "01110"

    @pytest.mark.parametrize("rule", [90, 150])
    @pytest.mark.parametrize("boundary", ["null", "cyclic"])
    def test_zero_is_fixed_point(self, rule, boundary):
        assert step(f"ca{rule}", Word(8, 0), boundary=boundary) == Word(8, 0)

    @given(words(max_width=32), st.sampled_from([90, 150]), st.sampled_from(["null", "cyclic"]))
    def test_matches_cell_oracle(self, state, rule, boundary):
        assert step(f"ca{rule}", state, boundary=boundary) == ca_by_cells(state, rule, boundary)

    @given(
        st.integers(1, 24),
        st.data(),
        st.sampled_from([90, 150]),
        st.sampled_from(["null", "cyclic"]),
    )
    def test_xor_linearity(self, width, data, rule, boundary):
        top = (1 << width) - 1
        a = Word(width, data.draw(st.integers(0, top)))
        b = Word(width, data.draw(st.integers(0, top)))
        kind = f"ca{rule}"
        assert step(kind, Word(width, a.value ^ b.value), boundary=boundary).value == (
            step(kind, a, boundary=boundary).value ^ step(kind, b, boundary=boundary).value
        )

    def test_bad_rule_and_boundary(self):
        # the rule is the kind's name, so an unsupported rule is an unknown kind
        with pytest.raises(ValueError, match="^unknown generator kind 'ca30'$"):
            GeneratorConfig("ca30", 4, Word(4, 1))
        with pytest.raises(ValueError, match="^boundary must be 'null' or 'cyclic', got 'wrap'$"):
            GeneratorConfig("ca90", 4, Word(4, 1), boundary="wrap")


class TestCounters:
    def test_binary_carry_chain(self):
        assert step("binary", word_from_text("0111", 2, 4)).to_binary() == "1000"

    def test_binary_wraparound(self):
        assert step("binary", Word(4, 0b1111)) == Word(4, 0)

    def test_gray_single_flip_example(self):
        out = step("gray", word_from_text("0001", 2, 4))
        assert out.to_binary() == "0011"

    def test_gray_matches_xor_shift_table(self):
        # gray sequence from the n ^ (n >> 1) table
        table = [n ^ (n >> 1) for n in range(16)]
        assert generate(GeneratorConfig("gray", 4, Word(4, table[0])), 15).values == tuple(table)

    @pytest.mark.parametrize("width", range(1, 17))
    def test_gray_flips_exactly_one_bit(self, width):
        # the full cycle from 0 passes through every state, wrap included
        trace = generate(GeneratorConfig("gray", width, Word(width, 0)), 1 << width)
        assert len(set(trace.values)) == 1 << width
        assert trace.values[-1] == 0
        for a, b in zip(trace.values, trace.values[1:]):
            assert hamming_distance(Word(width, a), Word(width, b)) == 1

    @pytest.mark.parametrize("width", range(2, 11))
    def test_binary_full_period_total(self, width):
        config = GeneratorConfig(kind="binary", width=width, seed=Word(width, 0))
        trace = generate(config, (1 << width) - 1)
        total = sum(
            hamming_distance(trace[i], trace[i + 1]) for i in range(len(trace) - 1)
        )
        assert total == 2 ** (width + 1) - width - 2

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="^unknown generator kind 'decade'$"):
            GeneratorConfig("decade", 4, Word(4, 0))


class TestConfig:
    def test_all_zero_lfsr_seed_rejected(self):
        for kind in ("lfsr_external", "lfsr_internal"):
            with pytest.raises(ValueError, match="all-zero LFSR seed"):
                GeneratorConfig(kind=kind, width=4, seed=Word(4, 0), taps={4, 3})

    def test_taps_must_include_width(self):
        with pytest.raises(ValueError, match="include the register width"):
            GeneratorConfig(kind="lfsr_internal", width=4, seed=Word(4, 1), taps={3, 2})

    def test_taps_required_for_lfsr(self):
        with pytest.raises(ValueError, match="requires feedback taps"):
            GeneratorConfig(kind="lfsr_external", width=4, seed=Word(4, 1))

    @pytest.mark.parametrize(
        "taps,named",
        [({4.9, 3.2}, r"(4\.9|3\.2)"), ("43", "'4'"), ((4, True), "True"), ((4, 3.0), r"3\.0"),
         ({4, "3"}, "'3'")],
        ids=["floats", "string", "bool", "integral-float", "digit-string"],
    )
    def test_non_int_taps_rejected(self, taps, named):
        # int() would quietly turn {4.9, 3.2} and '43' into {3, 4}
        for kind in ("lfsr_external", "lfsr_internal"):
            with pytest.raises(ValueError, match=f"^tap positions must be int, got {named}$"):
                GeneratorConfig(kind=kind, width=4, seed=Word(4, 1), taps=taps)

    def test_taps_forbidden_elsewhere(self):
        with pytest.raises(ValueError):
            GeneratorConfig(kind="gray", width=4, seed=Word(4, 0), taps={4})
        with pytest.raises(ValueError):
            GeneratorConfig(kind="ca90", width=4, seed=Word(4, 0), taps={4})

    def test_boundary_defaults_to_null_for_ca(self):
        config = GeneratorConfig(kind="ca90", width=4, seed=Word(4, 1))
        assert config.boundary == "null"

    def test_boundary_forbidden_elsewhere(self):
        with pytest.raises(ValueError):
            GeneratorConfig(kind="binary", width=4, seed=Word(4, 0), boundary="null")

    def test_seed_width_mismatch(self):
        with pytest.raises(ValueError):
            GeneratorConfig(kind="binary", width=4, seed=Word(8, 0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GeneratorConfig(kind="rule30", width=4, seed=Word(4, 0))


class TestGenerate:
    def test_binary_exhaustive(self):
        config = GeneratorConfig(kind="binary", width=4, seed=Word(4, 0))
        trace = generate(config, 15)
        assert len(trace) == 16
        assert [w.value for w in trace] == list(range(16))

    def test_gray_cycle_closure(self):
        config = GeneratorConfig(kind="gray", width=4, seed=Word(4, 0))
        trace = generate(config, 16)
        assert trace[16] == Word(4, 0)
        assert len(set(trace.values[:16])) == 16

    def test_lfsr_trace_shape_and_determinism(self):
        seed = word_from_text("1011001010110110", 2, 16)
        config = GeneratorConfig(
            kind="lfsr_external", width=16, seed=seed, taps={16, 14, 13, 11}
        )
        a = generate(config, 8)
        b = generate(config, 8)
        assert len(a) == 9
        assert a[0] == seed
        assert a.values == b.values

    def test_transfer_count(self):
        config = GeneratorConfig(kind="ca150", width=8, seed=Word(8, 1))
        assert generate(config, 0).transfers == 0
        assert generate(config, 7).transfers == 7

    def test_negative_cycles(self):
        config = GeneratorConfig(kind="binary", width=4, seed=Word(4, 0))
        with pytest.raises(ValueError):
            generate(config, -1)


WIDTHS = st.one_of(st.integers(1, 64), st.sampled_from([256, 1024]))


@st.composite
def configs(draw, widths=WIDTHS):
    """Any valid GeneratorConfig: all six kinds, random taps and seeds."""
    kind = draw(st.sampled_from(KINDS))
    width = draw(widths)
    taps = boundary = None
    low = 0
    if kind_parameter(kind) == "taps":
        taps = draw(st.sets(st.integers(1, width), max_size=6)) | {width}
        low = 1  # all-zero LFSR seeds are rejected
    elif kind_parameter(kind) == "boundary":
        boundary = draw(st.sampled_from(["null", "cyclic"]))
    seed = Word(width, draw(st.integers(low, (1 << width) - 1)))
    return GeneratorConfig(kind, width, seed, taps, boundary)


class TestAgainstReference:
    """The generator table against the Word-based steps it replaced."""

    @given(configs(), st.integers(0, 40))
    def test_generate_equals_reference_walk(self, config, cycles):
        assert list(generate(config, cycles)) == reference.walk(config, cycles)

    @given(configs(st.integers(1, 20)), st.integers(1, 16), st.data())
    def test_rows_equal_reference_walk(self, config, chunk, data):
        # chunks of a few words, and runs from width ** 2 words, where linear
        # kinds run in rows, to a few rows past the d <= width rows of history
        width = config.width
        most = max(width * width, width * chunk) + 4 * chunk
        cycles = data.draw(st.integers(width * width, most)) - 1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bits, "CHUNK_BYTES", chunk * ((width + 7) // 8))
            assert list(generate(config, cycles)) == reference.walk(config, cycles)


# every linear kind and CA boundary
LINEAR = [
    (kind, boundary)
    for kind in KINDS if kind_parameter(kind) is not None
    for boundary in (BOUNDARIES if kind_parameter(kind) == "boundary" else (None,))
]


def reference_step(config):
    """The reference's step of `config` on plain ints."""
    return lambda value: reference.step(config, Word(config.width, value)).value


def row_edges(config):
    """Cycle counts that end a run of a linear kind at each edge of its
    rows, d being its orbit's degree and K its rows' words: width ** 2 words,
    the shortest run in rows; past it, every d * K words, where K doubles;
    1, K - 1, K, K + 1 and 3 K words past the d rows of history of the
    widest K, and past two chunks of whole rows; and 0 and 1, short runs.
    Past 64 bits the runs in rows are long, so there only chunk edges: 1,
    m - 1, m and m + 1 words past three chunks of m words."""
    width, chunk = config.width, bits.chunk_words(config.width)
    if width > 64:
        return sorted({0, 1} | {3 * chunk + last - 1 for last in (1, chunk - 1, chunk, chunk + 1)})
    d = max(len(recurrence.least_recurrence(reference_step(config), config.seed.value)[0]), 1)
    widest = 1 << min(chunk, recurrence.HISTORY_WORDS // d).bit_length() - 1
    ends = {width * width + edge for edge in (0, 1)}
    ends |= {(d << j) + edge for j in range(widest.bit_length()) for edge in (-1, 0, 1)}
    for held in (max(width * width, d * widest), 2 * (chunk // widest * widest)):
        ends |= {held + last for last in (1, widest - 1, widest, widest + 1, 3 * widest)}
    return sorted({0, 1} | {n - 1 for n in ends if n >= width * width})


class TestLanes:
    """Linear kinds run in rows of K words past a gate; every cycle count at
    a gate, doubling or history edge, all-zero CA seeds and short cycles
    match the reference one step at a time. The widths run past 64 bits,
    where rows need long runs; cyclic CAs, which run by the powers M^(2^k)
    at every width, also at each of their doubling edges."""

    @staticmethod
    def check(config, cycle_counts):
        expected = tuple(w.value for w in reference.walk(config, max(cycle_counts)))
        for cycles in cycle_counts:
            assert generate(config, cycles).values == expected[: cycles + 1]

    @staticmethod
    def config(kind, width, boundary, seed):
        taps = None
        if kind_parameter(kind) == "taps":
            rng = random.Random(f"{kind}-{width}")
            taps = {width, 1} | {rng.randint(1, width) for _ in range(3)}
        return GeneratorConfig(kind, width, Word(width, seed), taps, boundary)

    @pytest.mark.parametrize("kind,boundary", LINEAR)
    @pytest.mark.parametrize("width", [*range(1, 66), 256, 1024])
    def test_small_chunks(self, kind, boundary, width):
        # 100-word chunks: rows of up to 64 words
        seeds = [random.Random(width).getrandbits(width) | 1]
        if kind_parameter(kind) == "boundary":
            seeds.append(0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bits, "CHUNK_BYTES", 100 * ((width + 7) // 8))
            for seed in seeds:
                config = self.config(kind, width, boundary, seed)
                self.check(config, row_edges(config))

    @pytest.mark.parametrize("kind,boundary", LINEAR)
    @pytest.mark.parametrize("width", [8, 16, 24, 64, 65])
    def test_budget_chunks(self, kind, boundary, width):
        seed = random.Random(width).getrandbits(width) | 1
        config = self.config(kind, width, boundary, seed)
        self.check(config, row_edges(config))

    @pytest.mark.parametrize("width", [2, 8, 16, 32, 64])
    def test_short_runs_step_one_word(self, width, monkeypatch):
        # fewer than width ** 2 words: finding the recurrence would cost more than rows save
        found, least_recurrence = [], recurrence.least_recurrence
        monkeypatch.setattr(recurrence, "least_recurrence",
                            lambda step, seed: found.append(seed) or least_recurrence(step, seed))
        config = self.config("lfsr_internal", width, None, 1)
        expected = tuple(w.value for w in reference.walk(config, width * width - 1))
        assert generate(config, width * width - 2).values == expected[:-1]
        assert found == []
        assert generate(config, width * width - 1).values == expected
        assert found == [1]

    @staticmethod
    def first_chunk_words(config, words):
        """The words of the first chunk of a run of `words` words in chunks
        of 255 words: whole rows, so 256 - K words in rows of K > 1 words,
        and 255 words one step at a time."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bits, "CHUNK_BYTES", 255 * ((config.width + 7) // 8))
            chunks = list(generate_chunks(config, words - 1))
        expected = tuple(w.value for w in reference.walk(config, words - 1))
        assert tuple(unpack(config.width, b"".join(chunks))) == expected
        return len(chunks[0]) // ((config.width + 7) // 8)

    @pytest.mark.parametrize("kind,boundary", [("lfsr_external", None), ("ca150", "null")])
    def test_orbits_with_many_lags_step_one_word(self, kind, boundary, monkeypatch):
        # a row XORs one held row per lag: past XOR_BITS / width lags one step is cheaper
        config = self.config(kind, 16, boundary, 0xACE1)
        d, lags = map(len, recurrence.least_recurrence(reference_step(config), 0xACE1))
        rows = 1 << (1000 // d).bit_length() - 1
        monkeypatch.setattr(recurrence, "XOR_BITS", 16 * lags)
        assert self.first_chunk_words(config, 1000) == 256 - rows
        monkeypatch.setattr(recurrence, "XOR_BITS", 16 * lags - 1)
        assert self.first_chunk_words(config, 1000) == 255

    @pytest.mark.parametrize("kind,boundary", [
        ("lfsr_internal", None), ("lfsr_external", None), ("ca90", "null"), ("ca150", "null")])
    @pytest.mark.parametrize("width", [3, 16, 17])
    def test_rows_double_at_each_multiple_of_the_degree(self, kind, boundary, width):
        # a run of d * K words, and no fewer, has rows of K words, up to a chunk's
        config = self.config(kind, width, boundary, random.Random(width).getrandbits(width) | 1)
        d = len(recurrence.least_recurrence(reference_step(config), config.seed.value)[0])
        runs = {width * width} | {(d << j) + edge for j in range(10) for edge in (-1, 0)}
        for run in sorted(n for n in runs if n >= max(width * width, 255)):
            rows = 1 << min(run // d, 255).bit_length() - 1
            assert self.first_chunk_words(config, run) == 256 - rows
        assert rows == 128

    @pytest.mark.parametrize("kind,boundary", [("lfsr_internal", None), ("ca90", "null")])
    @pytest.mark.parametrize("history", [1, 3, 4, 5, 8])
    def test_history_caps_the_rows(self, kind, boundary, history, monkeypatch):
        # d rows of K words hold at most HISTORY_WORDS: here K is at most
        # `history` words, however long the run, also past the history
        config = self.config(kind, 16, boundary, 0xACE1)
        d = len(recurrence.least_recurrence(reference_step(config), 0xACE1)[0])
        monkeypatch.setattr(recurrence, "HISTORY_WORDS", history * d)
        rows = 1 << history.bit_length() - 1
        for run in (256, 257, 256 + rows + 1, 2001):  # from width ** 2 words
            assert self.first_chunk_words(config, run) == 256 - rows

    @pytest.mark.parametrize(
        "kind,width,taps,boundary,seed,tail,period",
        [
            # the stock taps leave the LSB untapped, so M is singular
            ("lfsr_external", 16, DEFAULT_TAPS_16, None, 0b1011001010110110, 10, 63),
            # rule 90 on 2^k cyclic cells takes every state to all-zero
            ("ca90", 16, None, "cyclic", 0b1011001010110110, 8, 1),
            ("lfsr_external", 8, {8, 6, 5, 4}, None, 0x01, 1, 1),
        ],
        ids=["lfsr_external-stock-taps", "ca90-cyclic-lock-up", "lfsr_external-8-bit-fixed-point"],
    )
    @pytest.mark.parametrize("chunk", [5, 37, 300])
    def test_short_cycles(self, kind, width, taps, boundary, seed, tail, period, chunk):
        config = GeneratorConfig(kind, width, Word(width, seed), taps, boundary)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bits, "CHUNK_BYTES", chunk * ((width + 7) // 8))
            values = generate(config, 400).values
        assert values == tuple(w.value for w in reference.walk(config, 400))
        first = {}
        repeat = next(i for i, v in enumerate(values) if first.setdefault(v, i) != i)
        assert (first[values[repeat]], repeat - first[values[repeat]]) == (tail, period)

    @staticmethod
    def power_edges(lanes):
        """Cycle counts whose runs end at each doubling edge of a cyclic CA
        whose chunks hold `lanes` words, a power of two: 1, 2, 3, ..., K - 1,
        K and K + 1 words; and runs of three to four batches of K words."""
        ends = {(1 << j) + edge for j in range(lanes.bit_length()) for edge in (-1, 0, 1)}
        return sorted({n - 1 for n in ends if n} | {3 * lanes + n - 1 for n in (0, 1, lanes)})

    @pytest.mark.parametrize("kind", ["ca90", "ca150"])
    @pytest.mark.parametrize("width", [*range(1, 66), 100, 255, 256, 257, 512, 1024])
    @pytest.mark.parametrize("chunk", [16, 37])  # K = 16 and 32
    def test_cyclic_powers(self, kind, width, chunk):
        lanes = 1 << chunk.bit_length() - 1
        seeds = [0, (1 << width) - 1, random.Random(width).getrandbits(width)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bits, "CHUNK_BYTES", chunk * ((width + 7) // 8))
            for seed in seeds:
                self.check(self.config(kind, width, "cyclic", seed), self.power_edges(lanes))

    def test_cyclic_rule_150_period_divides_half_a_power_of_two_width(self):
        # x^(w/2) = x^-(w/2) modulo x^w - 1, so M^(w/2) = 1 and M^w = 1: at 256
        # cells word i + 128 is word i, and so is word i + 256
        config = self.config("ca150", 256, "cyclic", random.Random(256).getrandbits(256))
        values = generate(config, 600).values
        assert values == tuple(w.value for w in reference.walk(config, 600))
        assert values[256:] == values[:-256]
        assert values[128:] == values[:-128]

    @pytest.mark.parametrize("width", [2, 4, 8, 16, 32, 64, 256])
    def test_cyclic_rule_90_dies_at_half_a_power_of_two_width(self, width):
        # M^(w/2) = x^(w/2) + x^-(w/2) = 0 modulo x^w - 1: all-zero from step w/2
        config = self.config("ca90", width, "cyclic", (1 << width) - 1 - 2)
        values = generate(config, 2 * width).values
        assert values == tuple(w.value for w in reference.walk(config, 2 * width))
        assert values[width // 2 - 1] != 0
        assert not any(values[width // 2:])


COUNTER_WIDTHS = [*range(1, 17), 64, 65, 256]


class TestCounterChunks:
    """The gray counter is the binary counter's chunks through the gray map;
    every count, wrap and chunk edge matches the reference's one step at a time."""

    @staticmethod
    def check(kind, width, cycles):
        # start three counts short of the wrap from 2^width - 1 to 0
        count = (1 << width) - 3 if width > 1 else 1
        seed = Word(width, count ^ (count >> 1) if kind == "gray" else count)
        config = GeneratorConfig(kind, width, seed)
        expected = [w.value for w in reference.walk(config, cycles)]
        assert generate(config, cycles).values == tuple(expected)

    @pytest.mark.parametrize("kind", ["binary", "gray"])
    @pytest.mark.parametrize("width", COUNTER_WIDTHS)
    def test_budget_chunks(self, kind, width):
        # two chunk edges; below 13 bits a chunk also holds a whole cycle
        self.check(kind, width, 2 * bits.chunk_words(width) + 1)

    @pytest.mark.parametrize("kind", ["binary", "gray"])
    @pytest.mark.parametrize("width", COUNTER_WIDTHS)
    @pytest.mark.parametrize("chunk", [1, 2, 3, 5])
    def test_small_chunks(self, kind, width, chunk):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bits, "CHUNK_BYTES", chunk * ((width + 7) // 8))
            self.check(kind, width, 3 * chunk + 4)

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 8, 16])
    @pytest.mark.parametrize("rows,offset", [(0, 0), (0, 1), (0, -1), (1, -1), (1, 1),
                                             (-1, 0), (-1, 1)])
    def test_binary_rows_start_at_multiples_of_k(self, width, rows, offset):
        # rows of K words from multiples of K, the first cut at the seed; in
        # 16-word chunks K = 16: from 4 bits each wrap falls between rows,
        # and below 4 bits a row holds whole periods
        size, k = (width + 7) // 8, 16
        seed = (rows * k + offset) & ((1 << width) - 1)
        config = GeneratorConfig("binary", width, Word(width, seed))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bits, "CHUNK_BYTES", k * size)
            chunks = list(generate_chunks(config, 3 * k + 4))
        head = -seed % k
        rest = 3 * k + 5 - head
        assert [len(chunk) // size for chunk in chunks] == (
            [head] * (head > 0) + [k] * (rest // k) + [rest % k] * (rest % k > 0))
        assert tuple(unpack(width, b"".join(chunks))) == tuple(
            w.value for w in reference.walk(config, 3 * k + 4))
