"""Citation vectors and the geometric indices computed from them.

A citation vector records per-publication citation counts as positive
integers sorted in descending order.  The empty tuple is a valid vector
(a researcher with no cited publications) and every index maps it to 0.
Everything in this module is a pure function over plain tuples.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, NamedTuple

Vector = tuple[int, ...]

#: Absolute tolerance of the three relations below, which every property of
#: index values reads.  Each is True only when its comparison is, so a NaN
#: difference, from a NaN value or from inf - inf, breaks the property.
TOLERANCE = 1e-9

INFLUENTIAL = "influential"
PROLIFIC = "prolific"
BALANCED = "balanced"
EMPTY = "empty"


def close(a: float, b: float) -> bool:
    """a and b differ by at most TOLERANCE."""
    return abs(a - b) <= TOLERANCE


def at_most(a: float, b: float) -> bool:
    """a exceeds b by at most TOLERANCE."""
    return a - b <= TOLERANCE


def rises(a: float, b: float) -> bool:
    """b exceeds a by more than TOLERANCE."""
    return b - a > TOLERANCE


def make_vector(raw: Iterable[int]) -> Vector:
    """Normalise raw citation counts into a citation vector.

    Zero entries are dropped (uncited publications carry no index weight)
    and the rest are sorted descending.  Negative counts are rejected with
    the offending position named.
    """
    values = list(raw)
    # Plain ints whose least non-zero value is positive skip the loop, which names a bad count's position.
    if set(map(type, values)) <= {int}:
        vector = sorted(filter(None, values), reverse=True)
        if not vector or vector[-1] > 0:
            return tuple(vector)
    for pos, value in enumerate(values):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"citation count at position {pos} is not an integer: {value!r}")
        if value < 0:
            raise ValueError(f"negative citation count {value} at position {pos}")
    return tuple(sorted((v for v in values if v > 0), reverse=True))


def is_valid_vector(x: object) -> bool:
    """True for a tuple of positive integers (any int subclass but bool) in descending order.

    Each entry type is tested once, and a descending tuple is positive when its last entry is.
    """
    return (
        isinstance(x, tuple) and all(issubclass(t, int) and t is not bool for t in set(map(type, x)))
        and all(map(operator.ge, x, x[1:])) and (not x or x[-1] > 0)
    )


def is_uniform(x: Vector) -> bool:
    """True when every publication has the same citation count.

    The empty vector is uniform vacuously.
    """
    return len(x) == 0 or x[0] == x[-1]


def citation_count(x: Vector) -> int:
    """Total number of citations (the L1 norm)."""
    return sum(x)


# ---------------------------------------------------------------------------
# rec and chi: the largest rectangle under the citation curve
# ---------------------------------------------------------------------------


class RecAnalysis(NamedTuple):
    """Largest-rectangle analysis of a citation vector.

    ``value`` is the maximal area i * x_i over publication ranks i.  A
    maximizing rectangle is ``width`` publications wide (the smallest
    maximizer; ``maximizers`` holds all of them) and ``height = x_width``
    citations tall; ``classification`` is ``classify(width, height)``.
    """

    value: int
    maximizers: tuple[int, ...]
    width: int | None
    height: int | None
    classification: str


def rec(x: Vector) -> int:
    """max over i of i * x_i, the area of the largest dominated rectangle."""
    best = 0
    for i, c in enumerate(x, 1):
        area = i * c
        if area > best:
            best = area
    return best


def rec_index(x: Vector) -> RecAnalysis:
    """Full rectangle analysis: value, maximizer set, and classification."""
    r = ReportIndices._make(report_indices(x))
    return RecAnalysis(r.rec, r.maximizers, r.rect_width, x[r.rect_width - 1] if x else None, r.classification)


def classify(width: int, height: int) -> str:
    """The shape of a maximizing rectangle: taller than wide is influential,
    wider than tall is prolific, square is balanced."""
    return INFLUENTIAL if height > width else PROLIFIC if height < width else BALANCED


def chi_index(x: Vector) -> float:
    """Square root of rec; geometrically the side of the equivalent square."""
    return math.sqrt(rec(x))


def h_index(x: Vector) -> int:
    """Largest h such that at least h publications have h citations each."""
    h = 0
    for i, c in enumerate(x, 1):
        if c < i:
            break
        h = i
    return h


def w_index(x: Vector) -> int:
    """Largest w such that the top w publications have at least w, w-1, ..., 1
    citations, the w field of ``report_indices`` without the rest of its pass."""
    # For positive counts w = min(n, min over i of x_i + i - 1); as x_i + i - 1 >= i, no rank past
    # the least value so far can lower it.
    lowest = len(x)
    for k, c in enumerate(x, 1):
        if k > lowest:
            break
        if c + k - 1 < lowest:
            lowest = c + k - 1
    return lowest


class ReportIndices(NamedTuple):
    """The fields of ``report_indices``, in its order.

    g is the largest rank whose cumulative citations reach g^2 (no
    zero-padding beyond the actual publication list); w is the largest w
    such that the top w publications have at least w, w-1, ..., 1
    citations respectively.  The records of ``rec_index``, ``aux_indices``
    and ``rec_variants`` describe the others.
    """

    n: int
    citations: int
    max: int
    h: int
    g: int
    w: int
    euclidean: float
    rec: int
    chi: float
    rec_i: int
    rec_p: int
    rect_width: int | None
    maximizers: tuple[int, ...]
    classification: str


def report_indices(x: Vector) -> tuple:
    """Every report index of x from a single pass, as a plain tuple in the
    order of ``ReportIndices``, whose ``_make`` names the fields.

    h, g and w hold on a prefix of a descending vector, so the pass stops testing them once all three fail.
    """
    total = squares = best = h = g = w = influence = wide = 0
    maximizers: list[int] = []
    lowest = x[0] if x else 0
    ranks = enumerate(x, 1)
    for k, c in ranks:
        total += c
        squares += c * c
        area = k * c
        if area > best:
            best = area
            maximizers = [k]
        elif area == best:
            maximizers.append(k)
        if c >= k:  # a rectangle at least as tall as wide
            h = k
            influence = best
        elif area > wide:
            wide = area
        if total >= k * k:
            g = k
        # w is feasible iff min over i <= w of x_i + i - 1 is >= w.  The
        # minimum never grows with w while w does, so the feasible w form a prefix.
        if c + k - 1 < lowest:
            lowest = c + k - 1
        if lowest >= k:
            w = k
        elif c < k and g < k:  # h, g and w all fail at k, so they fail at every later rank
            break
    # Past the break every rectangle is wider than tall, and rec >= wide, so an area below wide changes nothing.
    for k, c in ranks:
        total += c
        squares += c * c
        area = k * c
        if area >= wide:
            wide = area
            if area > best:
                best = area
                maximizers = [k]
            elif area == best:
                maximizers.append(k)
    if x:
        width = maximizers[0]
        classification = classify(width, x[width - 1])
    else:
        width, classification = None, EMPTY
    # Reflection maps rectangles at least as tall as wide to ones at least as
    # wide as tall, so rec_p is the largest of those under x, k wide and
    # min(x_k, k) tall: the larger of the tall prefix's widest square, h * h,
    # and the largest rectangle past it.  The conjugate itself is never built.
    return (
        len(x), total, x[0] if x else 0,  # n, citations, max
        h, g, w, math.sqrt(squares),  # h, g, w, euclidean
        best, math.sqrt(best), influence, max(h * h, wide),  # rec, chi, rec_i, rec_p
        width, tuple(maximizers), classification,  # rect_width, maximizers, classification
    )


class AuxIndices(NamedTuple):
    publication_count: int
    max_citation: int
    euclidean: float
    g_index: int
    w_index: int


def aux_indices(x: Vector) -> AuxIndices:
    """Companion indices: n, x_1, Euclidean length, g-index and w-index."""
    r = ReportIndices._make(report_indices(x))
    return AuxIndices(r.n, r.max, r.euclidean, r.g, r.w)


# ---------------------------------------------------------------------------
# conjugation and the two one-sided rec variants
# ---------------------------------------------------------------------------


def conjugate(x: Vector) -> Vector:
    """Reflect the citation diagram: entry i counts publications with >= i citations."""
    # Entries x_{k+1} < j <= x_k of the conjugate all equal k (x_{n+1} = 0).
    counts: list[int] = []
    below = 0
    for k in range(len(x), 0, -1):
        counts += [k] * (x[k - 1] - below)
        below = x[k - 1]
    return tuple(counts)


class RecVariants(NamedTuple):
    """rec restricted to each side of the diagram's diagonal.

    ``influence`` maximises i * x_i over ranks with i <= x_i (rectangles at
    least as tall as wide); ``prolificity`` is the same quantity computed
    on the conjugate vector.
    """

    influence: int
    prolificity: int


def rec_variants(x: Vector) -> RecVariants:
    r = ReportIndices._make(report_indices(x))
    return RecVariants(r.rec_i, r.rec_p)


# ---------------------------------------------------------------------------
# order and growth operations
# ---------------------------------------------------------------------------


def dominates(x: Vector, y: Vector) -> bool:
    """True when x is dominated by y: y has at least as many publications
    and at least as many citations at every rank."""
    return len(x) <= len(y) and all(map(operator.le, x, y))


def scale(x: Vector, factor: int) -> Vector:
    """Multiply every citation count by a positive integer factor."""
    if not isinstance(factor, int) or isinstance(factor, bool) or factor < 1:
        raise ValueError(f"scale factor must be a positive integer, got {factor!r}")
    return tuple([c * factor for c in x])


def valid_positions(x: Vector) -> list[int]:
    """1-based ranks where a single citation may be added.

    A citation can only go to the first publication of each equal-count
    run (keeping the vector sorted), or open a new publication at rank
    n + 1.
    """
    positions = []
    for k in range(1, len(x) + 1):
        if k == 1 or x[k - 1] != x[k - 2]:
            positions.append(k)
    positions.append(len(x) + 1)
    return positions


def add_citation_at(x: Vector, k: int) -> Vector:
    """Add one citation to the publication at rank k.

    ``k = n + 1`` records a new publication with a single citation.  The
    rank must be the first of its equal-count run so the result stays
    sorted; anything else is rejected.
    """
    n = len(x)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1 or k > n + 1:
        raise ValueError(f"position {k} out of range 1..{n + 1}")
    if k == n + 1:
        return x + (1,)
    if k > 1 and x[k - 2] == x[k - 1]:
        first = x.index(x[k - 1]) + 1
        raise ValueError(
            f"cannot add a citation at position {k}: position {first} has the "
            f"same count {x[k - 1]} and must receive it first"
        )
    return x[: k - 1] + (x[k - 1] + 1,) + x[k:]


def add_one_to_all(x: Vector) -> Vector:
    """Give every existing publication one extra citation."""
    return tuple([c + 1 for c in x])


def max_uniform_dominated(x: Vector) -> Vector:
    """The heaviest uniform vector dominated by x (shortest on ties).

    For width k the best dominated uniform is x_k repeated k times, so the
    answer is the narrowest rectangle of area rec(x): the smallest k with
    k * x_k = rec(x), found in the same pass that finds rec(x).
    ``classify_row`` and ``build_rec_incremental`` read that rectangle here.
    """
    best = width = 0
    for k, c in enumerate(x, 1):
        if k * c > best:
            best, width = k * c, k
    return (x[width - 1],) * width if x else ()
