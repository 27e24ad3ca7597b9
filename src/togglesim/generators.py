"""Deterministic stimulus sources for exercising a bus or circuit under test.

Six generator kinds are modeled: internal (Galois) and external (Fibonacci)
linear feedback shift registers, elementary cellular automata with rules 90
and 150, and plain binary and gray address counters.

Shift and tap conventions, fixed so sequences are reproducible:

* Registers shift one position toward the LSB per step (bit i takes the old
  bit i+1).
* Tap positions are 1-based, position `width` being the MSB stage; tap t
  reads or injects at bit index t-1.
* External LFSR: the XOR of all tapped bits of the old state enters at the
  vacated MSB. Maximal-length sequences in this form require a tap at
  position 1; otherwise the LSB stage never feeds back, the state map is
  not injective, and orbits collapse into shorter cycles.
* Internal LFSR: the old LSB is the feedback bit; it enters at the MSB and
  XORs into bit t-1 for every tap t below `width`.
* CA cells are the bit positions; the left neighbor of cell i is bit i+1
  (one position more significant), the right neighbor bit i-1. A null
  boundary reads constant 0 outside the register; a cyclic boundary wraps.

`_GENERATORS` is the single place a kind is defined: it names the one
`GeneratorConfig` field the kind accepts (`taps`, `boundary` or none) and a
builder that returns the kind's chunk source, made by `lanes` (gray: the
binary counter's, gray-mapped). The binary counter, LFSRs and null-boundary
CAs give `lanes.source` their one-word step, the linear ones also their
step on lanes of words in one int, started by jumps through matrix columns.
A cyclic CA gives `lanes.power_source` its powers M^(2^k), two rotations of
each lane by the Frobenius identity of O. Martin, A. M. Odlyzko and S.
Wolfram ("Algebraic properties of cellular automata", Commun. Math. Phys.
93, 1984). `GeneratorConfig` validates every parameter once, so the
builders trust it. `generate_chunks`, or `generate` for a whole `Trace`, is
the one way to run a generator: the CLI, tables and benchmark all use it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from .bits import Record, Trace, Word, check_width

Step = Callable[[int], int]
# (bit 0 of every lane) -> the step of every lane at once
Swar = Callable[[int], Step]
# (seed value, cycles) -> the seed and `cycles` generated words, as chunks
Source = Callable[[int, int], Iterator[bytes]]

# Stock degree-16 feedback polynomial, used for 16-bit registers when none
# is given explicitly; maximal-length in the Galois form.
DEFAULT_TAPS_16 = frozenset({16, 14, 13, 11})

BOUNDARIES = ("null", "cyclic")


def _fibonacci(width: int, taps: frozenset[int]) -> Source:
    from .lanes import source

    mask = 0
    for t in taps:
        mask |= 1 << (t - 1)
    top = width - 1
    # the largest power of two below the width (0 at width 1): in lanes, the
    # first fold moves a lane's tapped bits from `half` up onto those below
    # it, and the rest fold those to their parity in bit 0
    half = 1 << top.bit_length() >> 1

    def swar(low: int) -> Step:
        lower, upper = low * (mask & ((1 << half) - 1)), low * (mask >> half << half)
        keep, folds = low * ((1 << top) - 1), [half >> k for k in range(1, half.bit_length())]

        def step(s: int) -> int:
            t = (s & lower) ^ ((s & upper) >> half)
            for fold in folds:
                t ^= t >> fold
            return ((s >> 1) & keep) | ((t & low) << top)

        return step

    return source(width, lambda v: (v >> 1) | (((v & mask).bit_count() & 1) << top), swar)


def _galois(width: int, taps: frozenset[int]) -> Source:
    from .lanes import source

    mask = 1 << (width - 1)
    for t in taps:
        if t != width:
            mask |= 1 << (t - 1)

    def swar(low: int) -> Step:
        # the product puts `mask` in every lane whose low bit is set
        keep = low * ((1 << (width - 1)) - 1)
        return lambda s: ((s >> 1) & keep) ^ ((s & low) * mask)

    return source(width, lambda v: (v >> 1) ^ mask if v & 1 else v >> 1, swar)


def _ca(width: int, self_mask: int, boundary: str) -> Source:
    from .lanes import power_source, source

    full = (1 << width) - 1
    if boundary == "null":
        def swar(low: int) -> Step:
            # in lanes, a shift brings in a bit of the next lane, which `down` and `up` clear
            down, up, own = low * (full >> 1), low * (full ^ 1), low * self_mask
            return lambda s: ((s >> 1) & down) ^ ((s << 1) & up) ^ (s & own)

        return source(width, lambda v: (v >> 1) ^ ((v << 1) & full) ^ (v & self_mask), swar)

    def power(k: int, low: int) -> Step:
        # M^(2^k) = x^d + c + x^-d, d = 2^k mod w, c = 1 for rule 150 (see `lanes`)
        d = pow(2, k, width)
        if 2 * d % width == 0:  # x^d = x^-d: the rotations cancel
            return (lambda s: s) if self_mask else (lambda s: 0)
        e = width - d
        low_d, low_e = (low << d) - low, (low << e) - low  # bits 0 to d - 1, e - 1
        if self_mask:
            return lambda s: (((s >> d) & low_e) ^ ((s & low_d) << e) ^ ((s >> e) & low_d)
                              ^ ((s & low_e) << d) ^ s)
        return lambda s: (
            ((s >> d) & low_e) ^ ((s & low_d) << e) ^ ((s >> e) & low_d) ^ ((s & low_e) << d))

    return power_source(width, power)


def _binary(width: int) -> Source:
    from .lanes import source

    full = (1 << width) - 1
    return source(width, lambda v: (v + 1) & full)


def _gray(width: int) -> Source:
    from .encoders import gray_map, gray_to_binary  # here: only the gray kind needs them

    binary = _binary(width)
    return lambda seed, cycles: (
        gray_map(width, chunk) for chunk in binary(gray_to_binary(seed), cycles))


# kind -> (the one GeneratorConfig field it accepts, builder taking the
# width and that field's already validated value and returning the source)
_GENERATORS: dict[str, tuple[str | None, Callable[..., Source]]] = {
    "lfsr_internal": ("taps", _galois),
    "lfsr_external": ("taps", _fibonacci),
    "ca90": ("boundary", lambda width, boundary: _ca(width, 0, boundary)),
    "ca150": ("boundary", lambda width, boundary: _ca(width, (1 << width) - 1, boundary)),
    "binary": (None, lambda width, _: _binary(width)),
    "gray": (None, lambda width, _: _gray(width)),
}
KINDS = tuple(_GENERATORS)


def kind_parameter(kind: str) -> str | None:
    """The GeneratorConfig field `kind` accepts: "taps", "boundary" or None."""
    return _GENERATORS[kind][0]


class GeneratorConfig(Record):
    """Everything that determines a stimulus stream.

    `taps` applies to LFSR kinds only and must include position `width`;
    `boundary` applies to CA kinds only and defaults to null.
    """

    __slots__ = ("kind", "width", "seed", "taps", "boundary")

    def __init__(self, kind: str, width: int, seed: Word,
                 taps: frozenset[int] | None = None, boundary: str | None = None) -> None:
        if kind not in _GENERATORS:
            raise ValueError(f"unknown generator kind {kind!r}")
        check_width(width)
        if seed.width != width:
            raise ValueError(f"seed width {seed.width} does not match generator width {width}")
        param = kind_parameter(kind)
        if param == "taps":
            if taps is None:
                raise ValueError(f"{kind} requires feedback taps")
            taps = tuple(taps)
            for t in taps:
                if isinstance(t, bool) or not isinstance(t, int):
                    raise ValueError(f"tap positions must be int, got {t!r}")
            taps = frozenset(taps)
            if not taps:
                raise ValueError("at least one feedback tap is required")
            for t in sorted(taps):
                if not 1 <= t <= width:
                    raise ValueError(f"invalid tap position {t} for width {width}")
            if width not in taps:
                raise ValueError(f"taps must include the register width {width}")
            if seed.value == 0:
                raise ValueError("all-zero LFSR seed locks up; use a non-zero seed")
        elif taps is not None:
            raise ValueError("taps apply to LFSR kinds only")
        if param == "boundary":
            boundary = boundary if boundary is not None else "null"
            if boundary not in BOUNDARIES:
                raise ValueError(f"boundary must be 'null' or 'cyclic', got {boundary!r}")
        elif boundary is not None:
            raise ValueError("boundary applies to CA kinds only")
        super().__init__(kind, width, seed, taps, boundary)


def generate_chunks(config: GeneratorConfig, cycles: int) -> Iterator[bytes]:
    """Seed plus `cycles` generated words, as chunks (see `bits`) of at most
    chunk_words(width) words, the seed first."""
    if cycles < 0:
        raise ValueError(f"cycles must be >= 0, got {cycles}")
    param, build = _GENERATORS[config.kind]
    source = build(config.width, getattr(config, param) if param else None)
    yield from source(config.seed.value, cycles)


def generate(config: GeneratorConfig, cycles: int) -> Trace:
    """Seed plus `cycles` generated words: a trace with `cycles` transfers."""
    return Trace.from_chunks(config.width, generate_chunks(config, cycles))
