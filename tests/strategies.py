"""Shared hypothesis strategies for bit-vector tests."""

import random

from hypothesis import strategies as st

from togglesim.bits import Trace, Word


@st.composite
def words(draw, min_width=1, max_width=64):
    width = draw(st.integers(min_width, max_width))
    return Word(width, draw(st.integers(0, (1 << width) - 1)))


@st.composite
def word_pairs(draw, min_width=1, max_width=64):
    """Two words of the same (drawn) width."""
    width = draw(st.integers(min_width, max_width))
    top = (1 << width) - 1
    return (
        Word(width, draw(st.integers(0, top))),
        Word(width, draw(st.integers(0, top))),
    )


@st.composite
def word_triples(draw, min_width=1, max_width=64):
    width = draw(st.integers(min_width, max_width))
    top = (1 << width) - 1
    return tuple(Word(width, draw(st.integers(0, top))) for _ in range(3))


@st.composite
def traces(draw, min_len=2, max_len=40, min_width=1, max_width=32):
    width = draw(st.integers(min_width, max_width))
    top = (1 << width) - 1
    values = draw(st.lists(st.integers(0, top), min_size=min_len, max_size=max_len))
    return Trace(width, tuple(values))


def wide_trace(width, length=12):
    """A fixed pseudo-random trace, for explicit examples beyond drawn widths."""
    rng = random.Random(width)
    return Trace(width, tuple(rng.getrandbits(width) for _ in range(length)))


def outcome(fn, *args):
    """fn's result, or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
