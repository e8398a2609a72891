"""Finite citation-vector domains and brute-force oracles.

A domain is the set of all citation vectors with at most ``n_max``
publications and at most ``c_max`` citations each, plus the empty vector.
Enumeration follows the fixed order of ``canonical_key`` so that every
scan of an enumerated box is deterministic and "first counterexample" is
well defined.
"""

from __future__ import annotations

import math
import random
from itertools import chain, combinations_with_replacement
from typing import Iterator, NamedTuple

from .core import Vector, citation_count, make_vector

#: Scans keep max(n_max, c_max) values per domain vector, at most this many; ``box_size`` refuses a box of more vectors.
EXHAUSTIVE_BUDGET = 10_000_000

#: Number of vectors drawn in seeded (non-exhaustive) sampling mode.
DEFAULT_SAMPLE_SIZE = 500


class DomainBudgetError(Exception):
    """Raised instead of silently truncating a too-large exhaustive scan."""


class _Bounds(NamedTuple):
    n_max: int
    c_max: int
    seed: int | None = None


class DomainSpec(_Bounds):
    """Bounds of a finite scan domain, with an optional sampling seed."""

    __slots__ = ()

    # A NamedTuple body may not define __new__, so the check lives in this subclass.
    def __new__(cls, n_max: int, c_max: int, seed: int | None = None) -> DomainSpec:
        if n_max < 1 or c_max < 1:
            raise ValueError(f"domain bounds must be >= 1, got {n_max}x{c_max}")
        return super().__new__(cls, n_max, c_max, seed)

    @classmethod
    def _make(cls, iterable) -> DomainSpec:
        # _replace builds through _make, which would skip the check otherwise.
        return cls(*iterable)


def canonical_key(v: Vector) -> tuple:
    """The canonical order of vectors: total citations, then length, then entries."""
    return citation_count(v), len(v), v


def count_vectors(n_max: int, c_max: int) -> int:
    """Number of domain vectors: the multisets of at most n_max counts from 1..c_max."""
    return math.comb(n_max + c_max, n_max)


def box_size(spec: DomainSpec) -> int:
    """Number of vectors in the box; the one place that refuses a box above EXHAUSTIVE_BUDGET."""
    # C(n_max + c_max, k) rises for k <= min(n_max, c_max), so the first term past the budget refuses
    # the box; its exact count, of up to millions of digits, would take seconds to minutes.
    total, size = spec.n_max + spec.c_max, 1
    for k in range(1, min(spec.n_max, spec.c_max) + 1):
        size = size * (total - k + 1) // k
        if size > EXHAUSTIVE_BUDGET:
            raise DomainBudgetError(
                f"domain {spec.n_max}x{spec.c_max} holds more vectors than the exhaustive budget of {EXHAUSTIVE_BUDGET}"
            )
    return size


def enumerate_vectors(spec: DomainSpec) -> Iterator[Vector]:
    """All domain vectors in canonical order.

    The vectors of length n are the n-multisets of 1..c_max, each drawn
    in descending order.  Refuses domains above EXHAUSTIVE_BUDGET
    (``box_size``) outright rather than truncating.
    """
    box_size(spec)
    counts = range(spec.c_max, 0, -1)
    vectors = chain.from_iterable(combinations_with_replacement(counts, n) for n in range(spec.n_max + 1))
    yield from sorted(vectors, key=canonical_key)


def sample_vectors(spec: DomainSpec, size: int = DEFAULT_SAMPLE_SIZE) -> list[Vector]:
    """Seeded uniform draw from the domain box; non-exhaustive by nature.

    Raw entry lists are drawn uniformly and normalised, duplicates are
    dropped, and the empty vector is always included so baseline checks
    stay meaningful.  The result is deterministic for a given seed.
    """
    if spec.seed is None:
        raise ValueError("sampling a domain requires a seed")
    if size < 1:
        raise ValueError(f"sample size must be at least 1, got {size}")
    rng = random.Random(spec.seed)
    seen: dict[Vector, None] = {(): None}
    for _ in range(size):
        raw = [rng.randint(0, spec.c_max) for _ in range(spec.n_max)]
        seen.setdefault(make_vector(raw), None)
    return list(seen)


def enumerate_uniform_dominated(x: Vector) -> Iterator[Vector]:
    """Every uniform vector dominated by x, the empty vector first."""
    yield ()
    for j in range(1, len(x) + 1):
        for c in range(1, x[j - 1] + 1):
            yield (c,) * j


def brute_force_rec(x: Vector) -> int:
    """Oracle for rec: heaviest uniform vector dominated by x.

    Deliberately computed by enumerating uniform vectors and summing
    their entries, with no reference to the i * x_i formula.
    """
    return max(citation_count(u) for u in enumerate_uniform_dominated(x))
