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
builder that validates that parameter once and returns the kind's step as
a plain `int -> int` recurrence. `GeneratorConfig`, `generate`, the public
`*_step` functions and the CLI all go through it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from .bits import Record, Trace, Word, check_width
from .encoders import binary_to_gray, gray_to_binary

Step = Callable[[int], int]

# Stock degree-16 feedback polynomial, used for 16-bit registers when none
# is given explicitly; maximal-length in the Galois form.
DEFAULT_TAPS_16 = frozenset({16, 14, 13, 11})

BOUNDARIES = ("null", "cyclic")


def _validated_taps(taps: Iterable[int], width: int) -> frozenset[int]:
    positions = frozenset(int(t) for t in taps)
    if not positions:
        raise ValueError("at least one feedback tap is required")
    for t in sorted(positions):
        if not 1 <= t <= width:
            raise ValueError(f"invalid tap position {t} for width {width}")
    return positions


def _check_boundary(boundary: str) -> None:
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary must be 'null' or 'cyclic', got {boundary!r}")


def _fibonacci(width: int, taps: Iterable[int]) -> Step:
    mask = 0
    for t in _validated_taps(taps, width):
        mask |= 1 << (t - 1)
    top = width - 1
    return lambda v: (v >> 1) | (((v & mask).bit_count() & 1) << top)


def _galois(width: int, taps: Iterable[int]) -> Step:
    mask = 1 << (width - 1)
    for t in _validated_taps(taps, width):
        if t != width:
            mask |= 1 << (t - 1)
    return lambda v: (v >> 1) ^ mask if v & 1 else v >> 1


def _ca(width: int, rule: int | Sequence[int], boundary: str) -> Step:
    _check_boundary(boundary)
    full = (1 << width) - 1
    # Both rules XOR the two neighbors; rule-150 cells also XOR themselves in.
    if isinstance(rule, int):
        if rule not in (90, 150):
            raise ValueError(f"rule must be 90 or 150, got {rule}")
        self_mask = full if rule == 150 else 0
    else:
        rules = tuple(rule)
        if len(rules) != width:
            raise ValueError(f"need one rule per cell: got {len(rules)} for width {width}")
        self_mask = 0
        for i, r in enumerate(rules):
            if r not in (90, 150):
                raise ValueError(f"rule must be 90 or 150, got {r} at cell {i}")
            if r == 150:
                self_mask |= 1 << i
    if boundary == "null":
        return lambda v: (v >> 1) ^ ((v << 1) & full) ^ (v & self_mask)
    top = width - 1
    return lambda v: (
        (v >> 1 | (v & 1) << top) ^ ((v << 1 | v >> top) & full) ^ (v & self_mask)
    )


def _binary(width: int, _: None) -> Step:
    full = (1 << width) - 1
    return lambda v: (v + 1) & full


def _gray(width: int, _: None) -> Step:
    full = (1 << width) - 1
    return lambda g: binary_to_gray((gray_to_binary(g) + 1) & full)


# kind -> (the one GeneratorConfig field it accepts, builder taking the
# width and that field's value and returning the validated step)
_GENERATORS: dict[str, tuple[str | None, Callable[..., Step]]] = {
    "lfsr_internal": ("taps", _galois),
    "lfsr_external": ("taps", _fibonacci),
    "ca90": ("boundary", lambda width, boundary: _ca(width, 90, boundary)),
    "ca150": ("boundary", lambda width, boundary: _ca(width, 150, boundary)),
    "binary": (None, _binary),
    "gray": (None, _gray),
}
KINDS = tuple(_GENERATORS)


def kind_parameter(kind: str) -> str | None:
    """The GeneratorConfig field `kind` accepts: "taps", "boundary" or None."""
    return _GENERATORS[kind][0]


def lfsr_external_step(state: Word, taps: Iterable[int]) -> Word:
    """Fibonacci form: tapped bits XOR together and feed the vacated MSB."""
    return Word(state.width, _fibonacci(state.width, taps)(state.value))


def lfsr_internal_step(state: Word, taps: Iterable[int]) -> Word:
    """Galois form: the exiting LSB re-enters at the MSB and XORs into each tapped stage."""
    return Word(state.width, _galois(state.width, taps)(state.value))


def ca_step(state: Word, rule: int | Sequence[int], boundary: str = "null") -> Word:
    """One synchronous update of a one-dimensional CA register.

    rule 90 sets each cell to left XOR right, rule 150 to left XOR self XOR
    right. A per-cell sequence of 90/150 (index i ruling cell/bit i) is also
    accepted for hybrid registers.
    """
    return Word(state.width, _ca(state.width, rule, boundary)(state.value))


def counter_step(state: Word, kind: str) -> Word:
    """Advance a binary or gray address counter by one, wrapping at 2^width."""
    if kind not in ("binary", "gray"):
        raise ValueError(f"counter kind must be 'binary' or 'gray', got {kind!r}")
    return Word(state.width, _GENERATORS[kind][1](state.width, None)(state.value))


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
            taps = _validated_taps(taps, width)
            if width not in taps:
                raise ValueError(f"taps must include the register width {width}")
            if seed.value == 0:
                raise ValueError("all-zero LFSR seed locks up; use a non-zero seed")
        elif taps is not None:
            raise ValueError("taps apply to LFSR kinds only")
        if param == "boundary":
            boundary = boundary if boundary is not None else "null"
            _check_boundary(boundary)
        elif boundary is not None:
            raise ValueError("boundary applies to CA kinds only")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "boundary", boundary)


def generate(config: GeneratorConfig, cycles: int) -> Trace:
    """Seed plus `cycles` generated words: a trace with `cycles` transfers."""
    if cycles < 0:
        raise ValueError(f"cycles must be >= 0, got {cycles}")
    param, build = _GENERATORS[config.kind]
    step = build(config.width, getattr(config, param) if param else None)
    value = config.seed.value
    values = [value]
    for _ in range(cycles):
        value = step(value)
        values.append(value)
    return Trace(config.width, tuple(values))
