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
builder that returns the kind's chunk source (gray: the binary counter's,
gray-mapped). The LFSRs and null-boundary CAs give `recurrence.source`
their one-word step, by which it finds the seed orbit's least recurrence
and runs it in rows of consecutive words. A cyclic CA's source is
`frobenius.power_source`, which owns the powers M^(2^k) of its step. The
binary counter emits rows of K words that start at multiples of K, the
first cut to start at the seed, each one packed row of 0 .. K - 1 modulo
2 ** width OR'd with one high part, so it needs neither. Each builder imports the engine it runs. `GeneratorConfig`
validates every parameter once, so the builders trust it. `generate_chunks`,
or `generate` for a whole `Trace`, is the one way to run a generator: the
CLI, tables and benchmark all use it. Only `gen` and `tables` load this
module; the CLI parser writes out `KINDS` and `BOUNDARIES`, pinned by a test.
`cmd_gen` is the `gen` command's body, which renders with `writer`.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Callable, Iterator

from . import UsageError
from .bits import RADIXES, Record, Word, check_width, chunk_words, pack, word_from_text

Step = Callable[[int], int]
# (seed value, cycles) -> the seed and `cycles` generated words, as chunks
Source = Callable[[int, int], Iterator[bytes]]

# Stock degree-16 feedback polynomial, used for 16-bit registers when none
# is given explicitly; maximal-length in the Galois form.
DEFAULT_TAPS_16 = frozenset({16, 14, 13, 11})

BOUNDARIES = ("null", "cyclic")


def _fibonacci(width: int, taps: frozenset[int]) -> Source:
    from .recurrence import source

    mask = 0
    for t in taps:
        mask |= 1 << (t - 1)
    top = width - 1
    return source(width, lambda v: (v >> 1) | (((v & mask).bit_count() & 1) << top))


def _galois(width: int, taps: frozenset[int]) -> Source:
    from .recurrence import source

    mask = 1 << (width - 1)
    for t in taps:
        if t != width:
            mask |= 1 << (t - 1)
    return source(width, lambda v: (v >> 1) ^ mask if v & 1 else v >> 1)


def _ca(width: int, self_mask: int, boundary: str) -> Source:
    full = (1 << width) - 1
    if boundary == "null":
        from .recurrence import source

        return source(width, lambda v: (v >> 1) ^ ((v << 1) & full) ^ (v & self_mask))

    from .frobenius import power_source

    return power_source(width, self_mask)


def _binary(width: int) -> Source:
    size, full = (width + 7) // 8, (1 << width) - 1

    def chunks(seed: int, cycles: int) -> Iterator[bytes]:
        # rows of K words from multiples of K, the first cut to start at the
        # seed: each is `base`, 0 .. K - 1 modulo 2 ** width, OR'd with one
        # high part in every word
        words = cycles + 1
        k = min(chunk_words(width), words).bit_length() - 1
        base = int.from_bytes(pack(width, map(full.__and__, range(1 << k))), "big")
        for start in range(-(seed % (1 << k)), words, 1 << k):
            high = ((seed + start) & full).to_bytes(size, "big") * (1 << k)
            row = (base | int.from_bytes(high, "big")).to_bytes(size << k, "big")
            yield row[max(-start, 0) * size : (words - start) * size]

    return chunks


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


class GeneratorConfig(Record, namedtuple("GeneratorConfig", "kind width seed taps boundary",
                                         defaults=[None, None])):
    """Everything that determines a stimulus stream.

    `taps` applies to LFSR kinds only and must include position `width`;
    `boundary` applies to CA kinds only and defaults to null.
    """

    __slots__ = ()

    def __new__(cls, kind: str, width: int, seed: Word, taps: frozenset[int] | None = None,
                boundary: str | None = None) -> GeneratorConfig:
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
        return super().__new__(cls, kind, width, seed, taps, boundary)


def generate_chunks(config: GeneratorConfig, cycles: int) -> Iterator[bytes]:
    """Seed plus `cycles` generated words, as chunks (see `bits`) of at most
    chunk_words(width) words, the seed first."""
    if cycles < 0:
        raise ValueError(f"cycles must be >= 0, got {cycles}")
    param, build = _GENERATORS[config.kind]
    source = build(config.width, getattr(config, param) if param else None)
    yield from source(config.seed.value, cycles)


def generate(config: GeneratorConfig, cycles: int):
    """Seed plus `cycles` generated words: a Trace with `cycles` transfers."""
    from .trace import Trace

    return Trace.from_chunks(config.width, generate_chunks(config, cycles))


def parse_taps(text: str) -> frozenset[int]:
    """The tap positions that a `--taps` option of `gen` or `tables` names."""
    try:
        return frozenset(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"--taps must be comma-separated integers, got {text!r}")


def _build_config(args) -> GeneratorConfig:
    """The GeneratorConfig that the `gen` arguments in `args` name."""
    try:
        check_width(args.width)
    except ValueError as exc:
        raise UsageError(f"bad --width: {exc}")
    text, radix = args.seed if args.seed is not None else "0" * args.width, args.seed_radix
    if radix == "auto":  # binary iff the string is all 0/1 and spans the full width
        radix = "bin" if set(text) <= {"0", "1"} and len(text) == args.width else "hex"
    try:
        seed = word_from_text(text, RADIXES[radix], args.width)
    except ValueError as exc:
        raise UsageError(f"bad --seed: {exc}")
    taps = parse_taps(args.taps) if args.taps is not None else None
    if taps is None and kind_parameter(args.kind) == "taps":
        if args.width != 16:
            raise UsageError(f"--taps is required for {args.kind} at width {args.width} "
                             "(a default exists only for width 16)")
        taps = DEFAULT_TAPS_16
    try:
        return GeneratorConfig(kind=args.kind, width=args.width, seed=seed, taps=taps,
                               boundary=args.boundary)
    except ValueError as exc:
        raise UsageError(str(exc))


def cmd_gen(args) -> None:
    """The `gen` command: write the trace its parsed command line names."""
    from .writer import render_chunks

    config = _build_config(args)
    if args.cycles < 0:
        raise UsageError(f"--cycles must be >= 0, got {args.cycles}")
    chunks = generate_chunks(config, args.cycles)
    texts = render_chunks(config.width, chunks, RADIXES[args.radix])
    words = args.cycles + 1
    if args.output is not None:  # an empty path fails to open, as analyze's does
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.writelines(texts)
        print(f"wrote {words} words to {args.output}")
    else:
        sys.stdout.writelines(texts)
        sys.stdout.flush()  # a failed write fails here, before the count is reported
        print(f"{words} words", file=sys.stderr)
