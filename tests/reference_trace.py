"""Word-based trace functions kept as the differential-testing oracle.

These are the straightforward implementations the library's int-backed
trace layer replaced, copied unchanged apart from taking and returning
tuples of Words where they took and returned a Trace (the width is that of
the first word), `read_trace` taking the bytes a stream holds (it decodes
and parses the whole text at once, where the library streams it), and
`parse_trace` following three later format rules: one byte-order mark at
the very start is skipped, a header's width takes ASCII digits only, and
a width of more digits than MAX_WIDTH's, leading zeros aside, is rejected
before `int()` reads it.
`word_from_text` comes along because the copied bodies call it and the
library has rewritten it, and `_check_header` checks a header's fields as
the library's header record did, so that the oracle shares no header code
with the reader it is compared with. The single-word bus-invert step
(`BusLineState`, `bus_invert_encode` and `bus_invert_decode`) and
`hamming_distance` live only here: the library encodes chunks of ints and
counts flips a pack at a time.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import pairwise

from reference_generators import gray_encode
from togglesim.activity import ActivityReport, switching_activity
from togglesim.bits import MAX_WIDTH, Record, Word, check_width
from togglesim.trace_io import TraceFormatError

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_RADIX_BY_NAME = {"bin": 2, "hex": 16}
_NAME_BY_RADIX = {2: "bin", 16: "hex"}
_HEADER_RE = re.compile(r"^width=([0-9]+)\s+radix=(bin|hex)$")


def hamming_distance(a: Word, b: Word) -> int:
    """Number of bit positions where two same-width words differ."""
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} vs {b.width}")
    return (a.value ^ b.value).bit_count()


def word_from_text(text: str, radix: int, width: int) -> Word:
    """Parse an MSB-first binary or hex string into a `width`-bit Word.

    Binary accepts at most `width` digits, hex at most ceil(width/4); excess
    leading zeros within those limits are fine. Hex is case-insensitive.
    """
    check_width(width)
    if radix not in (2, 16):
        raise ValueError(f"radix must be 2 or 16, got {radix}")
    if not text:
        raise ValueError("empty text")
    if radix == 2:
        bad = set(text) - {"0", "1"}
        if bad:
            raise ValueError(f"invalid binary digit {sorted(bad)[0]!r} in {text!r}")
        if len(text) > width:
            raise ValueError(f"{len(text)} binary digits exceed width {width}")
        return Word(width, int(text, 2))
    bad = set(text) - _HEX_DIGITS
    if bad:
        raise ValueError(f"invalid hex digit {sorted(bad)[0]!r} in {text!r}")
    if len(text) > (width + 3) // 4:
        raise ValueError(f"{len(text)} hex digits exceed width {width}")
    value = int(text, 16)
    if value >= 1 << width:
        raise ValueError(f"value 0x{value:X} does not fit in {width} bits")
    return Word(width, value)


def _check_header(width: int, radix: int) -> None:
    """Reject a header width outside 1..MAX_WIDTH or a radix but 2 and 16."""
    if not isinstance(width, int) or not 1 <= width <= MAX_WIDTH:
        raise ValueError(f"width must be an integer in 1..{MAX_WIDTH}, got {width!r}")
    if radix not in (2, 16):
        raise ValueError(f"radix must be 2 or 16, got {radix}")


def parse_trace(text: str) -> tuple[Word, ...]:
    """Parse trace text into Words; raises TraceFormatError with line numbers.
    One byte-order mark at the very start of the text is skipped."""
    width = radix = None
    words: list[Word] = []
    for lineno, raw_line in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if width is None:
            match = _HEADER_RE.match(line)
            if not match:
                raise TraceFormatError(
                    f"line {lineno}: expected header 'width=<n> radix=<bin|hex>', got {line!r}"
                )
            # leading zeros dropped before int(), which takes 4300 digits at most
            digits = match.group(1).lstrip("0") or "0"
            if len(digits) > len(str(MAX_WIDTH)):
                raise TraceFormatError(
                    f"line {lineno}: width must be an integer in 1..{MAX_WIDTH}, got {digits}"
                )
            width, radix = int(digits), _RADIX_BY_NAME[match.group(2)]
            try:
                _check_header(width, radix)
            except ValueError as exc:
                raise TraceFormatError(f"line {lineno}: {exc}") from exc
            continue
        try:
            words.append(word_from_text(line, radix, width))
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc
    if width is None:
        raise TraceFormatError("missing header 'width=<n> radix=<bin|hex>'")
    if not words:
        raise TraceFormatError("empty trace: no words after the header")
    return tuple(words)


def read_trace(data: bytes) -> tuple[Word, ...]:
    """Parse a trace file's bytes, decoded as a whole before parsing."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # number lines as parse_trace does; the text before exc.start is valid
        lineno = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise TraceFormatError(
            f"line {lineno}: byte 0x{data[exc.start]:02X} is not UTF-8 text "
            f"({exc.reason})"
        ) from exc
    return parse_trace(text)


def render_trace(words: tuple[Word, ...], radix: int = 2) -> str:
    """Canonical text form; parse_trace(render_trace(t)) == t."""
    _check_header(words[0].width, radix)
    lines = [f"width={words[0].width} radix={_NAME_BY_RADIX[radix]}"]
    if radix == 2:
        lines.extend(w.to_binary() for w in words)
    else:
        lines.extend(w.to_hex() for w in words)
    return "\n".join(lines) + "\n"


def gray_encode_trace(words: tuple[Word, ...]) -> tuple[Word, ...]:
    """Gray-map every word of a trace (an address-bus style recoding)."""
    return tuple(gray_encode(w) for w in words)


class BusLineState(Record, namedtuple("BusLineState", "word invert")):
    """What is physically on the wires: data lines plus the invert line."""

    __slots__ = ()


def bus_invert_encode(prev: BusLineState, next_raw: Word) -> BusLineState:
    """Choose the next line state for `next_raw` given the current lines.

    If more than half the data lines would flip, the complement is driven
    with the invert line high; a tie (exactly half) stays uninverted so the
    invert line keeps quiet.
    """
    if prev.word.width != next_raw.width:
        raise ValueError(f"width mismatch: {prev.word.width} vs {next_raw.width}")
    if 2 * hamming_distance(prev.word, next_raw) > next_raw.width:
        mask = (1 << next_raw.width) - 1
        return BusLineState(Word(next_raw.width, next_raw.value ^ mask), True)
    return BusLineState(next_raw, False)


def bus_invert_decode(line: BusLineState) -> Word:
    """Recover the raw word from the line state."""
    word = line.word
    return Word(word.width, word.value ^ ((1 << word.width) - 1)) if line.invert else word


def _with_invert_line(state: BusLineState) -> Word:
    # Invert line rides as the extra MSB above the data lines.
    w = state.word
    return Word(w.width + 1, (int(state.invert) << w.width) | w.value)


def bus_invert_encode_trace(words: tuple[Word, ...]) -> tuple[Word, ...]:
    """Re-encode a raw trace as it would appear on invert-signaled lines.

    Output words are one bit wider, the invert line being the extra MSB.
    The first word is transmitted unmodified with the invert line low.
    """
    width = words[0].width
    if width >= MAX_WIDTH:
        raise ValueError(
            f"bus-invert needs one extra line above the {width} data lines, "
            f"but bus width is capped at MAX_WIDTH={MAX_WIDTH}"
        )
    state = BusLineState(words[0], False)
    encoded = [_with_invert_line(state)]
    for raw in words[1:]:
        state = bus_invert_encode(state, raw)
        encoded.append(_with_invert_line(state))
    return tuple(encoded)


def bus_invert_decode_trace(encoded: tuple[Word, ...]) -> tuple[Word, ...]:
    """Strip the invert line and undo inversions, recovering the raw trace."""
    if encoded[0].width < 2:
        raise ValueError("encoded trace must carry at least one data line")
    width = encoded[0].width - 1
    mask = (1 << width) - 1
    words = []
    for w in encoded:
        line = BusLineState(Word(width, w.value & mask), bool(w.value >> width))
        words.append(bus_invert_decode(line))
    return tuple(words)


def analyze_trace(words: tuple[Word, ...], include_per_cycle: bool = False) -> ActivityReport:
    """Count transitions over consecutive word pairs of a trace."""
    if len(words) < 2:
        raise ValueError("trace too short: need at least 2 words to observe a transfer")
    width = words[0].width
    transfers = len(words) - 1
    toggles = [0] * width
    per_cycle: list[int] = []
    total = 0
    for prev, cur in pairwise(words):
        diff = prev.value ^ cur.value
        count = diff.bit_count()
        total += count
        per_cycle.append(count)
        while diff:
            low = diff & -diff
            toggles[low.bit_length() - 1] += 1
            diff ^= low
    return ActivityReport(
        width=width,
        transfers=transfers,
        total_transitions=total,
        tau=switching_activity(total, width, transfers),
        per_bit_toggles=tuple(toggles),
        per_cycle=tuple(per_cycle) if include_per_cycle else None,
    )
