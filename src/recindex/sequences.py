"""Constructive citation histories and incremental-growth checks.

A constructive sequence replays a researcher's record one citation at a
time: it starts from the empty vector, adds exactly one citation per
step, keeps every step dominated by the next, and ends at the target.
A sequence is f-incremental for an index f when every strict increase
of f lands on a uniform vector.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import (
    Vector,
    add_citation_at,
    citation_count,
    dominates,
    is_incremental_step,
    is_valid_vector,
    max_uniform_dominated,
    rec,
    valid_positions,
)
from .enumeration import canonical_key

FOUND = "found"
ABSENT = "absent"


class ConstructiveSequence(NamedTuple):
    steps: tuple[Vector, ...]
    target: Vector


class IncrementalCheck(NamedTuple):
    """Outcome of an f-incremental check; falsy when a step violates it."""

    ok: bool
    violation_index: int | None = None

    def __bool__(self) -> bool:
        return self.ok


class SearchOutcome(NamedTuple):
    """Result of a witness search: ``absent`` means the whole space below the target was exhausted."""

    status: str
    sequence: ConstructiveSequence | None = None
    expansions: int = 0


def is_constructive(steps: Sequence[Iterable[int]], target: Iterable[int]) -> bool:
    """True for a chain of valid vectors from () to the target, one step per
    citation, each strictly dominating the step before it.

    Strict domination between valid vectors adds at least one citation, and
    there are exactly ``citation_count(target)`` steps, so each adds exactly one.
    """
    seq, goal = [tuple(s) for s in steps], tuple(target)
    return (
        all(map(is_valid_vector, seq)) and seq[:1] == [()] and seq[-1] == goal
        and len(seq) == citation_count(goal) + 1
        and all(a != b and dominates(a, b) for a, b in zip(seq, seq[1:]))
    )


def is_f_incremental(seq: ConstructiveSequence, f: Callable[[Vector], float]) -> IncrementalCheck:
    """Check that every strict f increase along seq lands on a uniform vector.

    Rejects sequences that are not constructive.  On failure the 0-based
    index of the first offending step is reported.
    """
    if not is_constructive(seq.steps, seq.target):
        raise ValueError("sequence is not constructive")
    previous = f(seq.steps[0])
    for i, step in enumerate(seq.steps[1:], 1):
        current = f(step)
        if not is_incremental_step(previous, current, step):
            return IncrementalCheck(False, i)
        previous = current
    return IncrementalCheck(True, None)


# ---------------------------------------------------------------------------
# deterministic builder
# ---------------------------------------------------------------------------


def _rec_incremental_ranks(target: Vector) -> Iterator[int]:
    """The rank that each step of ``build_rec_incremental(target)`` cites."""
    if not target:
        return
    rectangle = max_uniform_dominated(target)
    width, height = len(rectangle), rectangle[0]
    yield 1
    j = c = 1  # the rectangle so far: j publications, c citations each
    while (j, c) != (width, height):
        if j < width and (j <= c or c == height):  # no wider than tall, or at full height
            assert c <= j + 1, "unsafe publication addition"
            yield from repeat(j + 1, c)  # a new publication, cited c times
            j += 1
        else:  # one more citation to every publication
            assert j <= c + 1, "unsafe citation row"
            yield from range(1, j + 1)
            c += 1
    for k, want in enumerate(target, 1):
        yield from repeat(k, want - (height if k <= width else 0))


def build_rec_incremental(target: Vector) -> ConstructiveSequence:
    """Build a rec-incremental constructive sequence for any target.

    Each step is one ``add_citation_at`` from the last, at a planned rank.
    The maximizing rectangle (width k, height x_k) is grown first: rank 1,
    then a near-square staircase that alternates a new publication (rank
    j + 1, c times; safe while c <= j + 1) with a citation to each of the j
    publications (ranks 1..j; safe while j <= c + 1), then the long side
    alone.  So rec only moves when a rectangle is completed, a uniform step.
    The other citations cannot change rec: each rank, leftmost first, is
    cited until it reaches the target.  The output is re-verified before it
    is returned; a target that is not a citation vector is refused with a
    ``ValueError``.
    """
    if not is_valid_vector(target):
        raise ValueError(f"target {target!r} is not a citation vector")
    steps = accumulate(_rec_incremental_ranks(target), add_citation_at, initial=())
    sequence = ConstructiveSequence(tuple(steps), target)
    try:
        if is_f_incremental(sequence, rec):
            return sequence
    except ValueError:  # is_f_incremental refuses a sequence that is not constructive
        pass
    raise RuntimeError(f"builder produced an invalid sequence for {target}")


# ---------------------------------------------------------------------------
# exhaustive witness search
# ---------------------------------------------------------------------------


def search_incremental(target: Vector, f: Callable[[Vector], float]) -> SearchOutcome:
    """Search for an f-incremental constructive sequence to the target.

    Depth-first over single-citation extensions in canonical order, with
    memoised dead ends; every intermediate of any constructive sequence
    is dominated by the target, so the search space is exactly the
    vectors below it, each expanded at most once.
    """
    dead: set[Vector] = set()
    expansions = 0

    def extensions(v: Vector) -> list[Vector]:
        out = [add_citation_at(v, k) for k in valid_positions(v)]
        return sorted((w for w in out if dominates(w, target)), key=canonical_key)

    # One frame per vector on the current path: the vector, its f and an
    # iterator over its untried extensions.  A frame whose extensions run
    # out is a dead end.
    frames: list[tuple[Vector, float, Iterator[Vector]]] = []
    step: tuple[Vector, float] | None = ((), f(()))
    while step is not None:
        v, fv = step
        expansions += 1
        if v == target:
            path = tuple(u for u, _, _ in frames) + (v,)
            return SearchOutcome(FOUND, ConstructiveSequence(path, target), expansions)
        frames.append((v, fv, iter(extensions(v))))
        step = None
        while frames and step is None:
            u, fu, untried = frames[-1]
            for w in untried:
                if w in dead:
                    continue
                fw = f(w)
                if is_incremental_step(fu, fw, w):
                    step = (w, fw)
                    break
            else:
                frames.pop()
                dead.add(u)
    return SearchOutcome(ABSENT, None, expansions)
