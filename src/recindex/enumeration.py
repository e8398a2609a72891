"""Finite citation-vector domains and brute-force oracles.

A domain is the set of all citation vectors with at most ``n_max``
publications and at most ``c_max`` citations each, plus the empty vector.
Enumeration follows a fixed canonical order (total citations, then
length, then entries) so that every scan in the package is deterministic
and "first counterexample" is well defined.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .core import Vector, citation_count, make_vector

#: Exhaustive scans refuse domains with more vectors than this.
EXHAUSTIVE_BUDGET = 10_000_000

#: Number of vectors drawn in seeded (non-exhaustive) sampling mode.
DEFAULT_SAMPLE_SIZE = 500


class DomainBudgetError(Exception):
    """Raised instead of silently truncating a too-large exhaustive scan."""


@dataclass(frozen=True)
class DomainSpec:
    """Bounds of a finite scan domain, with an optional sampling seed."""

    n_max: int
    c_max: int
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_max < 1 or self.c_max < 1:
            raise ValueError(f"domain bounds must be >= 1, got {self.n_max}x{self.c_max}")


@lru_cache(maxsize=None)
def count_vectors(n_max: int, c_max: int) -> int:
    """Number of domain vectors, counted by an independent recursion.

    Vectors are grouped by their first entry f; the remainder is a vector
    with at most n_max - 1 entries each at most f.  This never touches the
    enumeration generator, so the two can cross-check each other.
    """
    if n_max == 0:
        return 1
    return sum(count_vectors(n_max - 1, first) for first in range(c_max + 1))


def _partitions(total: int, max_part: int, max_len: int) -> Iterator[Vector]:
    if total == 0:
        yield ()
        return
    if max_len == 0:
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first, max_len - 1):
            yield (first, *rest)


def enumerate_vectors(spec: DomainSpec) -> Iterator[Vector]:
    """All domain vectors in canonical order (total, length, entries).

    Refuses domains above EXHAUSTIVE_BUDGET outright rather than
    truncating.
    """
    size = count_vectors(spec.n_max, spec.c_max)
    if size > EXHAUSTIVE_BUDGET:
        raise DomainBudgetError(
            f"domain {spec.n_max}x{spec.c_max} holds {size} vectors, "
            f"above the exhaustive budget of {EXHAUSTIVE_BUDGET}"
        )
    for total in range(spec.n_max * spec.c_max + 1):
        yield from sorted(_partitions(total, spec.c_max, spec.n_max), key=lambda v: (len(v), v))


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
