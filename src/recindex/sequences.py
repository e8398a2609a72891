"""Constructive citation histories and incremental-growth checks.

A constructive sequence replays a researcher's record one citation at a
time: it starts from the empty vector, adds exactly one citation per
step, keeps every step dominated by the next, and ends at the target.
A sequence is f-incremental for an index f when every strict increase
of f lands on a uniform vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .core import (
    TOLERANCE,
    Vector,
    add_citation_at,
    citation_count,
    dominates,
    is_uniform,
    is_valid_vector,
    rec,
    rec_index,
    valid_positions,
)
from .enumeration import canonical_key

FOUND = "found"
ABSENT = "absent"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class ConstructiveSequence:
    steps: tuple[Vector, ...]
    target: Vector


@dataclass(frozen=True)
class IncrementalCheck:
    """Outcome of an f-incremental check; falsy when a step violates it."""

    ok: bool
    violation_index: int | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a witness search.

    ``absent`` is a definitive no (the whole space below the target was
    exhausted); ``indeterminate`` only means the step budget ran out.
    """

    status: str
    sequence: ConstructiveSequence | None = None
    expansions: int = 0


def _evaluator(f) -> Callable[[Vector], float]:
    # accepts either a bare callable or an index object with .evaluate
    return getattr(f, "evaluate", f)


def is_constructive(steps: Sequence[Iterable[int]], target: Iterable[int]) -> bool:
    """Verify every structural requirement of a constructive sequence."""
    seq = [tuple(s) for s in steps]
    goal = tuple(target)
    if not seq or any(not is_valid_vector(s) for s in seq) or not is_valid_vector(goal):
        return False
    if seq[0] != () or seq[-1] != goal:
        return False
    if len(seq) != citation_count(goal) + 1:
        return False
    for a, b in zip(seq, seq[1:]):
        if not dominates(a, b) or citation_count(b) != citation_count(a) + 1:
            return False
    return True


def is_f_incremental(seq: ConstructiveSequence, f) -> IncrementalCheck:
    """Check that every strict f increase along seq lands on a uniform vector.

    Rejects sequences that are not constructive.  On failure the 0-based
    index of the first offending step is reported.
    """
    if not is_constructive(seq.steps, seq.target):
        raise ValueError("sequence is not constructive")
    evaluate = _evaluator(f)
    previous = evaluate(seq.steps[0])
    for i, step in enumerate(seq.steps[1:], 1):
        current = evaluate(step)
        if current > previous + TOLERANCE and not is_uniform(step):
            return IncrementalCheck(False, i)
        previous = current
    return IncrementalCheck(True, None)


# ---------------------------------------------------------------------------
# deterministic builder
# ---------------------------------------------------------------------------


def build_rec_incremental(target: Vector) -> ConstructiveSequence:
    """Build a rec-incremental constructive sequence for any target.

    The maximizing rectangle (width k, height x_k) is grown first: a
    near-square staircase 1x1 -> mxm with m = min(k, x_k), alternating a
    new publication (safe while the height is at most width + 1) with one
    citation to every publication (safe while the width is at most
    height + 1), then the long dimension alone until the rectangle is
    complete.  Under those conditions rec only moves when a rectangle is
    completed, which is always a uniform step.  The remaining citations
    cannot change rec at all, so they are filled in leftmost-deficient
    order.  The output is re-verified before being returned.
    """
    steps: list[Vector] = [()]
    if target:
        analysis = rec_index(target)
        width, height = analysis.width, analysis.height
        assert width is not None and height is not None
        side = min(width, height)

        current = (1,)
        steps.append(current)
        j, c = 1, 1  # current rectangle: j publications, c citations each

        def add_publication() -> None:
            nonlocal current, j
            assert c <= j + 1, "unsafe publication addition"
            for d in range(1, c + 1):
                current = current[:j] + (d,)
                steps.append(current)
            j += 1

        def add_citation_row() -> None:
            nonlocal current, c
            assert j <= c + 1, "unsafe citation row"
            for t in range(1, j + 1):
                current = (c + 1,) * t + (c,) * (j - t)
                steps.append(current)
            c += 1

        for _ in range(side - 1):
            add_publication()
            add_citation_row()
        while j < width:
            add_publication()
        while c < height:
            add_citation_row()

        while current != target:
            padded = current + (0,) * (len(target) - len(current))
            k = next(i for i, (have, want) in enumerate(zip(padded, target), 1) if have < want)
            current = add_citation_at(current, k)
            steps.append(current)

    sequence = ConstructiveSequence(tuple(steps), target)
    if not is_constructive(sequence.steps, target) or not is_f_incremental(sequence, rec):
        raise RuntimeError(f"builder produced an invalid sequence for {target}")
    return sequence


# ---------------------------------------------------------------------------
# exhaustive witness search
# ---------------------------------------------------------------------------


def search_incremental(target: Vector, f, budget: int | None = None) -> SearchOutcome:
    """Search for an f-incremental constructive sequence to the target.

    Depth-first over single-citation extensions in canonical order, with
    memoised dead ends; every intermediate of any constructive sequence
    is dominated by the target, so the search space is exactly the
    vectors below it.  ``budget`` caps node expansions: exceeding it
    yields an indeterminate outcome, which is distinct from a proven
    absence.
    """
    evaluate = _evaluator(f)
    needed = citation_count(target) + 1
    if budget is not None and budget < needed:
        raise ValueError(f"budget {budget} cannot cover the {needed} steps to {target}")

    dead: set[Vector] = set()
    path: list[Vector] = [()]
    expansions = 0

    class _Exhausted(Exception):
        pass

    def extensions(v: Vector) -> list[Vector]:
        out = [add_citation_at(v, k) for k in valid_positions(v)]
        return sorted((w for w in out if dominates(w, target)), key=canonical_key)

    def dfs(v: Vector, fv: float) -> bool:
        nonlocal expansions
        expansions += 1
        if budget is not None and expansions > budget:
            raise _Exhausted
        if v == target:
            return True
        for w in extensions(v):
            if w in dead:
                continue
            fw = evaluate(w)
            if fw > fv + TOLERANCE and not is_uniform(w):
                continue
            path.append(w)
            if dfs(w, fw):
                return True
            path.pop()
        dead.add(v)
        return False

    try:
        found = dfs((), evaluate(()))
    except _Exhausted:
        return SearchOutcome(INDETERMINATE, None, expansions)
    if not found:
        return SearchOutcome(ABSENT, None, expansions)
    return SearchOutcome(FOUND, ConstructiveSequence(tuple(path), target), expansions)
