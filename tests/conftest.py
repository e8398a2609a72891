from __future__ import annotations

import hypothesis.strategies as st


@st.composite
def citation_vectors(draw, max_len: int = 8, max_cite: int = 12):
    """Random valid citation vectors, possibly empty."""
    counts = draw(st.lists(st.integers(1, max_cite), max_size=max_len))
    return tuple(sorted(counts, reverse=True))


@st.composite
def nonempty_citation_vectors(draw, max_len: int = 8, max_cite: int = 12):
    counts = draw(st.lists(st.integers(1, max_cite), min_size=1, max_size=max_len))
    return tuple(sorted(counts, reverse=True))


@st.composite
def wide_citation_vectors(draw, max_len: int = 60, max_cite: int = 10_000):
    """Longer vectors with counts up to 10^4 and long runs of ties.

    Each run repeats one count up to 20 times; counts are drawn either near
    the vector's length, where w and the one-sided rec variants turn, or
    anywhere up to ``max_cite``.
    """
    count = st.one_of(st.integers(1, max_len), st.integers(1, max_cite))
    runs = draw(st.lists(st.tuples(count, st.integers(1, 20)), max_size=max_len))
    counts = [c for c, repeat in runs for _ in range(repeat)][:max_len]
    return tuple(sorted(counts, reverse=True))
