"""Word-based generator steps kept as the differential-testing oracle.

These are the straightforward implementations the library's int-backed
generator table replaced, copied unchanged (gray mapping included) so fast
paths are always checked against them; `walk` is the plain step loop.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from togglesim.bits import Word
from togglesim.generators import GeneratorConfig


def gray_encode(w: Word) -> Word:
    """Reflected-binary code: each increment of the source flips one bit."""
    return Word(w.width, w.value ^ (w.value >> 1))


def gray_decode(g: Word) -> Word:
    """Inverse of gray_encode (prefix XOR from the MSB down)."""
    value = g.value
    mask = value >> 1
    while mask:
        value ^= mask
        mask >>= 1
    return Word(g.width, value)


def _validated_taps(taps: Iterable[int], width: int) -> frozenset[int]:
    positions = frozenset(int(t) for t in taps)
    if not positions:
        raise ValueError("at least one feedback tap is required")
    for t in sorted(positions):
        if not 1 <= t <= width:
            raise ValueError(f"invalid tap position {t} for width {width}")
    return positions


def _fibonacci_mask(taps: Iterable[int], width: int) -> int:
    mask = 0
    for t in _validated_taps(taps, width):
        mask |= 1 << (t - 1)
    return mask


def _galois_mask(taps: Iterable[int], width: int) -> int:
    mask = 1 << (width - 1)
    for t in _validated_taps(taps, width):
        if t != width:
            mask |= 1 << (t - 1)
    return mask


def lfsr_external_step(state: Word, taps: Iterable[int]) -> Word:
    """Fibonacci form: tapped bits XOR together and feed the vacated MSB."""
    mask = _fibonacci_mask(taps, state.width)
    feedback = (state.value & mask).bit_count() & 1
    return Word(state.width, (state.value >> 1) | (feedback << (state.width - 1)))


def lfsr_internal_step(state: Word, taps: Iterable[int]) -> Word:
    """Galois form: the exiting LSB re-enters at the MSB and XORs into each tapped stage."""
    mask = _galois_mask(taps, state.width)
    value = state.value >> 1
    if state.value & 1:
        value ^= mask
    return Word(state.width, value)


def ca_step(state: Word, rule: int | Sequence[int], boundary: str = "null") -> Word:
    """One synchronous update of a one-dimensional CA register.

    rule 90 sets each cell to left XOR right, rule 150 to left XOR self XOR
    right. A per-cell sequence of 90/150 (index i ruling cell/bit i) is also
    accepted for hybrid registers.
    """
    width = state.width
    v = state.value
    mask = (1 << width) - 1
    if boundary == "null":
        left = v >> 1
        right = (v << 1) & mask
    elif boundary == "cyclic":
        left = (v >> 1) | ((v & 1) << (width - 1))
        right = ((v << 1) | (v >> (width - 1))) & mask
    else:
        raise ValueError(f"boundary must be 'null' or 'cyclic', got {boundary!r}")
    updated90 = left ^ right
    updated150 = left ^ v ^ right
    if isinstance(rule, int):
        if rule == 90:
            return Word(width, updated90)
        if rule == 150:
            return Word(width, updated150)
        raise ValueError(f"rule must be 90 or 150, got {rule}")
    rules = tuple(rule)
    if len(rules) != width:
        raise ValueError(f"need one rule per cell: got {len(rules)} for width {width}")
    value = 0
    for i, r in enumerate(rules):
        if r == 90:
            value |= updated90 & (1 << i)
        elif r == 150:
            value |= updated150 & (1 << i)
        else:
            raise ValueError(f"rule must be 90 or 150, got {r} at cell {i}")
    return Word(width, value)


def counter_step(state: Word, kind: str) -> Word:
    """Advance a binary or gray address counter by one, wrapping at 2^width."""
    mask = (1 << state.width) - 1
    if kind == "binary":
        return Word(state.width, (state.value + 1) & mask)
    if kind == "gray":
        nxt = (gray_decode(state).value + 1) & mask
        return gray_encode(Word(state.width, nxt))
    raise ValueError(f"counter kind must be 'binary' or 'gray', got {kind!r}")


def step(config: GeneratorConfig, current: Word) -> Word:
    """One step of the configured generator."""
    if config.kind == "lfsr_external":
        return lfsr_external_step(current, config.taps)
    if config.kind == "lfsr_internal":
        return lfsr_internal_step(current, config.taps)
    if config.kind == "ca90":
        return ca_step(current, 90, config.boundary)
    if config.kind == "ca150":
        return ca_step(current, 150, config.boundary)
    return counter_step(current, config.kind)


def walk(config: GeneratorConfig, cycles: int) -> list[Word]:
    """Seed plus `cycles` reference steps."""
    words = [config.seed]
    for _ in range(cycles):
        words.append(step(config, words[-1]))
    return words
