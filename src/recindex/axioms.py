"""Executable property checkers for citation indices over finite domains.

Each axiom id names one entry of ``AXIOMS``: a description, the
candidates the axiom draws from a domain, and one predicate that turns a
violating candidate into its witness.  A scan returns the first witness
in the domain's order: canonical order for an enumerated box, draw order
for a sample.  Replaying a stored witness runs the same predicate on it,
independently of the scan that found it.
"""

from __future__ import annotations

from array import array
from enum import Enum
from functools import cached_property, partial
from itertools import accumulate, repeat
from operator import getitem
from typing import Callable, Iterable, Iterator, NamedTuple

from . import sequences
from .core import (
    Vector,
    add_citation_at,
    add_one_to_all,
    at_most,
    chi_index,
    citation_count,
    close,
    conjugate,
    dominates,
    h_index,
    is_uniform,
    is_valid_vector,
    rec,
    rises,
    scale,
    valid_positions,
)
from .enumeration import (
    DEFAULT_SAMPLE_SIZE,
    EXHAUSTIVE_BUDGET,
    DomainBudgetError,
    DomainSpec,
    box_size,
    canonical_key,
    enumerate_uniform_dominated,
    enumerate_vectors,
    sample_vectors,
)

SATISFIED = "satisfied-on-domain"
VIOLATED = "violated"

#: Search-effort cap used when the uniform-increment checker confirms an
#: absence through the sequence search.
UI_SEARCH_BUDGET = 1_000_000


class AxiomId(str, Enum):
    """Closed set of checkable properties."""

    MONOTONICITY = "M"
    STRICT_MONOTONICITY = "SM"
    SCALE_INVARIANCE = "SI"
    SELF_CONJUGACY = "SC"
    RECTANGLE_COMPLETION = "RC"
    UNIFORM_CITATION = "UC"
    UNIFORM_EQUIVALENCE = "UE"
    CITATION_INCREASE = "CI"
    UNIFORM_MONOTONICITY = "UM"
    UNIFORM_SINGLE_CITATION = "USC"
    UNIFORM_INCREMENT = "UI"
    RANK_INDEPENDENCE = "RANK_IND"
    RANK_SCALE_INVARIANCE = "RANK_SI"


class IndexUnderTest(NamedTuple):
    name: str
    evaluate: Callable[[Vector], float]


def make_index(name: str, evaluate: Callable[[Vector], float]) -> IndexUnderTest:
    """Wrap an index function, enforcing the zero baseline on registration."""
    baseline = evaluate(())
    if not close(baseline, 0):
        raise ValueError(f"index {name!r} maps the empty vector to {baseline!r}, not 0")
    return IndexUnderTest(name, evaluate)


class AxiomVerdict(NamedTuple):
    """Outcome of one (index, axiom, domain) check; the fields are in the order of its JSON keys."""

    index: str
    axiom: str
    n_max: int
    c_max: int
    exhaustive: bool
    status: str
    counterexample: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == SATISFIED

    def to_json(self) -> dict:
        return self._asdict()


# ---------------------------------------------------------------------------
# index registry
# ---------------------------------------------------------------------------


def _avg_rec_citation(x: Vector) -> float:
    return (rec(x) + citation_count(x)) / 2


def _h_squared(x: Vector) -> int:
    return h_index(x) ** 2


def _max_citation(x: Vector) -> int:
    return x[0] if x else 0


def _max_n_x1(x: Vector) -> int:
    return max(len(x), x[0]) if x else 0


def _min_n_x1(x: Vector) -> int:
    return min(len(x), x[0]) if x else 0


def _n_times_min(x: Vector) -> int:
    return len(x) * x[-1] if x else 0


REC = make_index("rec", rec)
CHI = make_index("chi", chi_index)
H = make_index("h", h_index)
CITATION_COUNT = make_index("citation_count", citation_count)


def counterexample_registry() -> list[IndexUnderTest]:
    """The eight indices used to separate the core properties.

    Apart from rec itself, each is a plausible-looking index that fails
    some property the others keep, which is what makes the independence
    matrix informative.
    """
    return [
        make_index("avg_rec_citation", _avg_rec_citation),
        make_index("h_squared", _h_squared),
        make_index("publication_count", len),
        make_index("max_citation", _max_citation),
        make_index("max_n_x1", _max_n_x1),
        make_index("min_n_x1", _min_n_x1),
        make_index("n_times_min", _n_times_min),
        REC,
    ]


# ---------------------------------------------------------------------------
# the shared scan domain
# ---------------------------------------------------------------------------


class Domain(NamedTuple):
    """One scan domain, built once and shared by every check over it.

    ``vectors`` is the whole box in canonical order when ``exhaustive``,
    else a seeded sample in draw order; a vector's id is its position
    there, and ``ids`` maps each vector to its id.  The empty vector has
    id 0.  ``grid[j - 1][c - 1]`` is the uniform vector ``(c,) * j`` of the
    box, and ``uniforms`` holds the same vectors and () in canonical order.
    The one-citation steps of an exhaustive box are the id pairs
    ``(step_lower[s], step_upper[s])``: the upper vector adds one citation
    to the lower one at rank ``step_position[s]`` and stays in the box.
    They are listed by ascending lower id, then rank; a sampled domain has
    none.  A domain keeps no image of its vectors: each ``_walk`` builds the
    images it reads.
    """

    spec: DomainSpec
    vectors: list[Vector]
    exhaustive: bool
    grid: list[list[Vector]]
    uniforms: list[Vector]
    ids: dict[Vector, int]
    step_lower: array
    step_upper: array
    step_position: array


def build_domain(spec: DomainSpec, sample_size: int = DEFAULT_SAMPLE_SIZE) -> Domain:
    """Enumerate the box, or draw ``sample_size`` vectors from it when the box
    is too large and ``spec`` has a seed; no other scan function reads a size.

    One rule admits a domain: SI, RANK_SI and RANK_IND keep c_max values for
    each vector, so c_max times the vectors the domain can hold (``box_size``,
    or ``sample_size + 1`` as a sample keeps the empty vector) must fit
    EXHAUSTIVE_BUDGET.  So must the c_max * n_max * (n_max + 1) / 2 counts of
    the uniform vectors a sample keeps.  Both refusals come before anything
    is enumerated or drawn.
    """
    try:
        exhaustive = box_size(spec) * spec.c_max <= EXHAUSTIVE_BUDGET
    except DomainBudgetError:  # more vectors than the budget, so more image values too
        exhaustive = False
    if not exhaustive and (spec.seed is None or (sample_size + 1) * spec.c_max > EXHAUSTIVE_BUDGET):
        held = (
            "its box holds; supply a seed for a sampled (non-exhaustive) scan"
            if spec.seed is None
            else f"a sample of {sample_size} holds with the empty vector"
        )
        raise DomainBudgetError(
            f"the image tables of domain {spec.n_max}x{spec.c_max} hold {spec.c_max} values for each vector, so at "
            f"most {EXHAUSTIVE_BUDGET // spec.c_max} vectors fit the budget of {EXHAUSTIVE_BUDGET}, fewer than {held}"
        )
    if not exhaustive and spec.c_max * spec.n_max * (spec.n_max + 1) // 2 > EXHAUSTIVE_BUDGET:
        raise DomainBudgetError(
            f"the uniform vectors of domain {spec.n_max}x{spec.c_max} hold more counts "
            f"than the budget of {EXHAUSTIVE_BUDGET}, even for a sampled scan"
        )
    vectors = list(enumerate_vectors(spec)) if exhaustive else sample_vectors(spec, sample_size)
    grid = [[(c,) * j for c in range(1, spec.c_max + 1)] for j in range(1, spec.n_max + 1)]
    uniforms = sorted([(), *(u for row in grid for u in row)], key=canonical_key)
    ids = {v: i for i, v in enumerate(vectors)}
    step_lower, step_upper, step_position = array("i"), array("i"), array("b" if spec.n_max < 128 else "i")
    if exhaustive:
        for i, x in enumerate(vectors):
            # Rank k takes a citation when x_k differs from x_{k-1}; rank n + 1 reads a count of 0 and opens a
            # publication.  Reading c_max for x_0 and cutting at rank n_max drop the steps that leave the box.
            before = spec.c_max
            for k, c in enumerate((x + (0,))[: spec.n_max], 1):
                if c != before:
                    step_lower.append(i)
                    step_upper.append(ids[x[: k - 1] + (c + 1,) + x[k:]])
                    step_position.append(k)
                before = c
    return Domain(spec, vectors, exhaustive, grid, uniforms, ids, step_lower, step_upper, step_position)


# ---------------------------------------------------------------------------
# the axioms
# ---------------------------------------------------------------------------


class _Session:
    """The checks of one index over one domain, reading shared value tables.

    ``values[i]`` is f of the vector with id i and ``uniform_rows[j - 1][c - 1]``
    is f of ``(c,) * j``, each built on first use; the uniform rows read a
    grid vector that the domain holds from ``values`` by its id and
    evaluate only the others, so a box evaluates none of them again.  A
    vector outside the domain is evaluated where it is needed and never
    kept as a key.  The image axioms keep no table: ``_walk`` leaves the
    first candidate of each, by its ``_Image``, in ``walked``.  A session is opened for one
    index and dropped with it, so no f value is shared between indices;
    only the domain and a walk's images are.
    """

    def __init__(self, index: IndexUnderTest, domain: Domain) -> None:
        self.index, self.domain = index, domain
        # f runs once per candidate, and a NamedTuple field reads slower than an attribute.
        self._id, self._evaluate = domain.ids.get, index.evaluate
        self.walked: dict[_Image, list[tuple]] = {}

    @cached_property
    def values(self) -> list:
        return list(map(self._evaluate, self.domain.vectors))

    def f(self, v: Vector):
        """f of any vector; the predicates read it."""
        i = self._id(v)
        return self._evaluate(v) if i is None else self.values[i]

    @cached_property
    def uniform_rows(self) -> list[list]:
        values, get, evaluate = self.values, self._id, self._evaluate
        return [[evaluate(u) if (i := get(u)) is None else values[i] for u in row] for row in self.domain.grid]

    def uniform(self, u: Vector):
        """f of a uniform vector of the box."""
        return self.uniform_rows[len(u) - 1][u[0] - 1] if u else self.values[0]

    def image_values(self, column: tuple[Iterable[int], list]) -> Iterator:
        """f of each image of a ``_walk`` column, by id, each evaluated as it is read."""
        values, evaluate = self.values, self._evaluate
        return (values[j] if j >= 0 else evaluate(w) for j, w in zip(*column))

    @cached_property
    def blocks(self) -> tuple[list[array], bool]:
        """The ids in f order, cut into blocks within TOLERANCE of their first
        value, and whether f keeps the blocks apart.  Every session of a walk
        holds its blocks, so ids are kept as machine ints."""
        values, blocks = self.values, []
        for i in sorted(range(len(values)), key=values.__getitem__):
            if blocks and at_most(values[i], values[blocks[-1][0]]):
                blocks[-1].append(i)
            else:
                blocks.append(array("i", [i]))
        return blocks, _blocks_stay_apart(blocks, values)

    def flips(self, image: _Image, param: tuple, after: list) -> bool:
        """Whether some id pair compares with another sign in ``after``, f of each
        image under ``param``; the first such pair goes to ``walked[image]``.

        If f keeps its blocks apart, pairs tie exactly within a block, so no pair
        flips exactly when ``after`` keeps them apart too; if not, ties chain
        (a ~ b ~ c, a !~ c), or a table is not finite and its order means
        nothing, and the pairs are compared one by one."""
        blocks, separated = self.blocks
        if separated and _blocks_stay_apart(blocks, after):
            return False
        pair = next(_flipped_pairs(self.values, after), None)
        if pair is not None:
            self.walked[image] = [(self.domain.vectors[pair[0]], self.domain.vectors[pair[1]], *param)]
        return pair is not None


class Axiom(NamedTuple):
    """One checkable property, stated once for the scan and for replay.

    ``candidates(session)`` yields, in the domain's order, tuples of the
    witness values named by ``keys``; it may skip candidates that cannot
    violate the property, which it decides from the session's tables by
    the relation that the predicate reads.  An image axiom's ``image``
    tells ``_walk`` how to find its candidates, which ``candidates`` reads.
    ``violates(f, *candidate)`` returns the witness a violating candidate
    makes, else None.
    """

    description: str
    keys: tuple[str, ...]
    candidates: Callable[[_Session], Iterable[tuple]]
    violates: Callable[..., dict | None]
    image: _Image | None = None


class _Image(NamedTuple):
    """An image axiom as ``_walk`` reads it: f of ``transform(x, *p)`` for
    each parameter tuple p, (least,) to (c_max,), or () alone when ``least``
    is None.  A rank axiom (``relation`` None) is decided for each p by
    ``_Session.flips``.  A pointwise one breaks at an x of id ``first`` or
    more where ``relation(C * f(x), f(image))`` fails, for p = (C,) or C = 1."""

    transform: Callable[..., Vector]
    least: int | None
    relation: Callable[[float, float], bool] | None = None
    first: int = 0

    def params(self, c_max: int) -> list[tuple]:
        return [()] if self.least is None else [(c,) for c in range(self.least, c_max + 1)]


def _sign(a: float, b: float) -> float:
    """0 when a and b are close, else 1 or -1 as a is above or below b, or NaN, equal to no sign, if neither holds."""
    return 0 if close(a, b) else 1 if a > b else -1 if a < b else float("nan")


def _finite(table: Iterable) -> bool:
    """True when the table holds no NaN or infinity: a sum over one is not close to itself (nor is an overflow)."""
    total = sum(table)
    return close(total, total)


def _first_witness(axiom: Axiom, session: _Session) -> dict | None:
    f, violates = session.f, axiom.violates
    for candidate in axiom.candidates(session):
        witness = violates(f, *candidate)
        if witness is not None:
            return witness
    return None


def _violates_um(f, x, y):
    return AXIOMS[AxiomId.MONOTONICITY].violates(f, x, y) if is_uniform(x) else None


def _violates_ue(f, x):
    fx = f(x)
    candidates = [[u, f(u)] for u in enumerate_uniform_dominated(x)]
    if not any(close(fu, fx) for _, fu in candidates):
        return {"x": x, "f_x": fx, "candidates": candidates}
    return None


def _violates_ui(f, target):
    outcome = sequences.search_incremental(target, f, budget=UI_SEARCH_BUDGET)
    if outcome.status == sequences.ABSENT:
        return {"target": target, "note": "no f-incremental constructive sequence"}
    return None


def _domination_axiom(description: str, edge_holds, holds: Callable[[float, float], bool]) -> Axiom:
    """``edge_holds(f(v), f(w))`` tests a one-citation step v -> w; x under
    y is a witness when ``holds(f(x), f(y))`` fails."""

    def violates(f, x, y):
        # Comparing table values is cheaper than ``dominates``, and
        # pair scans mostly meet pairs whose values are in order.
        fx, fy = f(x), f(y)
        if x != y and not holds(fx, fy) and dominates(x, y):
            return {"x": x, "y": y, "f_x": fx, "f_y": fy}
        return None

    def candidates(s: _Session):
        # Domination is generated by single-citation additions, so on a
        # closed domain edges that hold along every chain settle the
        # verdict; the pair scan only runs when a witness must be reported.
        domain, values = s.domain, s.values
        if domain.exhaustive and all(
            map(edge_holds, map(values.__getitem__, domain.step_lower), map(values.__getitem__, domain.step_upper))
        ):
            return ()
        scored = list(zip(domain.vectors, values))
        return ((x, y) for x, fx in scored for y, fy in scored if not holds(fx, fy))

    return Axiom(description, ("x", "y"), candidates, violates)


def _step_axiom(description: str, relation, bound, witness) -> Axiom:
    """An axiom broken by a one-citation step (x, k), x growing into
    ``grown``, when ``relation(f(grown), b)`` fails for ``b = bound(f(x),
    grown, k)``; the witness is ``witness(x, k, grown, f(x), f(grown), b)``."""

    def violates(f, x, position):
        grown = add_citation_at(x, position)
        fx, fg = f(x), f(grown)
        expected = bound(fx, grown, position)
        return None if relation(fg, expected) else witness(x, position, grown, fx, fg, expected)

    def candidates(s: _Session):
        # On a closed domain an in-box step is two table reads.  When all of them hold, only the steps that
        # leave the box, in the same order, can give a witness; else every step goes to the predicate in order.
        domain, read = s.domain, s.values.__getitem__
        grown = map(domain.vectors.__getitem__, domain.step_upper)
        expected = map(bound, map(read, domain.step_lower), grown, domain.step_position)
        if domain.exhaustive and all(map(relation, map(read, domain.step_upper), expected)):
            # rank 1 leaves the box when x_1 = c_max; rank n_max + 1 is a step only when x has n_max entries
            n_max, top = domain.spec.n_max, (domain.spec.c_max,)
            return (
                (x, k) for x in domain.vectors for k in (1, n_max + 1) if (x[:1] == top if k == 1 else len(x) == n_max)
            )
        return ((x, k) for x in domain.vectors for k in valid_positions(x))

    return Axiom(description, ("x", "position"), candidates, violates)


def _blocks_stay_apart(blocks: list[array], table: list) -> bool:
    """True when the table is finite, spans at most TOLERANCE on each block
    of ids and each block lies more than TOLERANCE below the next."""
    if not _finite(table):
        return False
    previous_hi = float("-inf")
    for block in blocks:
        values = list(map(table.__getitem__, block))
        lo, hi = min(values), max(values)
        if not close(hi, lo) or not rises(previous_hi, lo):
            return False
        previous_hi = hi
    return True


def _flipped_pairs(before: list, after: list):
    """Id pairs i < j, in order, whose comparison has another sign after."""
    for i, (b, a) in enumerate(zip(before, after)):
        for j in range(i + 1, len(before)):
            if _sign(b, before[j]) != _sign(a, after[j]):
                yield i, j


def _pointwise_axiom(description: str, transform, label: str, relation, key: str = "", first=0) -> Axiom:
    """An axiom broken by x where ``relation(C * f(x), f(transform(x, C)))``
    fails for a parameter C named ``key``, or where ``relation(f(x),
    f(transform(x)))`` fails when there is none; the witness names C, or else
    the image as ``label``.  The walk builds its images with ``transform``
    too, and ``first`` is the least id it reads: 1 leaves out (), of id 0,
    which the predicate then refuses as well."""

    def violates(f, x, *param):
        if first and not x:
            return None
        image = transform(x, *param)
        fx, fi = f(x), f(image)
        if relation((param[0] if param else 1) * fx, fi):
            return None
        return {"x": x, **({key: param[0]} if param else {label: image}), "f_x": fx, f"f_{label}": fi}

    image = _Image(transform, 1 if key else None, relation, first)
    return Axiom(description, ("x", key) if key else ("x",), partial(_walked, image), violates, image)


def _rank_axiom(description: str, key: str, transform, least: int) -> Axiom:
    """An axiom broken by x and y whose f values compare with another sign
    after ``transform(., C)``, for C from ``least`` to c_max; the walk reads the same images."""

    def violates(f, x, y, param):
        before = [f(x), f(y)]
        after = [f(transform(x, param)), f(transform(y, param))]
        if _sign(*before) != _sign(*after):
            return {"x": x, "y": y, key: param, "before": before, "after": after}
        return None

    image = _Image(transform, least)
    return Axiom(description, ("x", "y", key), partial(_walked, image), violates, image)


def _citation_count_axiom(
    description: str, uniforms: Callable[[_Session], Iterable[Vector]], premise: Callable[[Vector], bool]
) -> Axiom:
    """f must equal the citation count on each vector of ``uniforms(session)``,
    each of which meets ``premise``, as a witness must."""

    def violates(f, x):
        if not premise(x):
            return None
        fx, count = f(x), citation_count(x)
        if not close(fx, count):
            return {"x": x, "f_x": fx, "citation_count": count}
        return None

    def candidates(s: _Session):
        # (c,) * j cites j * c times, so the uniform table is compared with len(u) * u[0].
        return ((u,) for u in uniforms(s) if not close(s.uniform(u), len(u) * u[0] if u else 0))

    return Axiom(description, ("x",), candidates, violates)


def _uniform_equivalence_candidates(s: _Session):
    # The uniforms under x are () and (c,)*j for j <= len(x) and c <= x_j.  firsts[j - 1] maps each value of row
    # j to its first c, so an exact match takes one lookup per j; a value that is not close to itself, NaN or an
    # infinity, matches nothing and is left out, so only a row that is not finite filters its values one by one.
    # Only an x without an exact match gets the tolerant scan.
    base, rows = s.values[0], s.uniform_rows
    firsts = [
        dict(zip(reversed(row), range(len(row), 0, -1)))
        if _finite(row)
        else {fu: c for c, fu in reversed(list(enumerate(row, 1))) if close(fu, fu)}
        for row in rows
    ]

    def matched(x, fx) -> bool:
        return any(first.get(fx, c + 1) <= c for first, c in zip(firsts, x)) or close(base, fx) or any(
            close(fu, fx) for row, c in zip(rows, x) for fu in row[:c]
        )

    return ((x,) for x, fx in zip(s.domain.vectors, s.values) if not matched(x, fx))


def _uniform_monotonicity_candidates(s: _Session):
    # (c,)*j lies under y exactly when j <= len(y) and c <= y_j, so the
    # largest f over the uniforms under y is the largest running maximum
    # top[j][y_j]; only a y that this maximum exceeds can be in a witness,
    # and only with a uniform under it that scores more than y.  A maximum
    # over NaN means nothing, so a uniform table that is not finite makes every y a suspect.
    base, rows = s.values[0], s.uniform_rows
    top = [list(accumulate(row, max, initial=base)) for row in rows]
    finite = _finite([base, *map(sum, rows)])
    suspects = [
        (y, fy)
        for y, fy in zip(s.domain.vectors, s.values)
        if not (finite and at_most(max(map(getitem, top, y), default=base), fy))
    ]
    if not suspects:
        return
    for u in s.domain.uniforms:
        fu, j = s.uniform(u), len(u)
        for y, fy in suspects:
            if not at_most(fu, fy) and j <= len(y) and (not u or u[0] <= y[j - 1]):
                yield u, y


def _add_publication(x: Vector, citations: int) -> Vector:
    return tuple(sorted(x + (citations,), reverse=True))


def _column(domain: Domain, transform: Callable[..., Vector], param: tuple, lo: int, hi: int) -> tuple[array, list]:
    """The id of each image ``transform(x, *param)`` of the vectors of ids lo
    to hi - 1, -1 outside the domain, and, only where it is -1, the image.
    Only an image that fits the box is looked up; factor 1 gives x itself, found by id."""
    images = list(map(transform, domain.vectors[lo:hi], *map(repeat, param)))
    n_max, c_max, get = domain.spec.n_max, domain.spec.c_max, domain.ids.get
    ids = array("i", (get(w, -1) if not w or w[0] <= c_max and len(w) <= n_max else -1 for w in images))
    return ids, [None if j >= 0 else w for j, w in zip(ids, images)]


#: Ids per slice of a column; the walk holds one slice at a time.
_SLICE = 1 << 14


def _walk(domain: Domain, sessions: list[_Session], images: list[_Image]) -> None:
    """Leave in each session's ``walked`` the first candidate, if any, of each image axiom of ``images``.

    A column holds the images under one transform and parameter tuple.  The
    columns go by transform, in the order of ``images``, then by parameter.
    A column is built once, slice by slice up to the last id that a session
    still reads, and each slice is evaluated for each session that reads
    it, into a table if a rank axiom reads it, else lazily, and dropped; no
    two pointwise axioms read one transform.  A rank axiom decides each
    parameter from its table and reads no later column once one flips.  A
    pointwise axiom keeps its least (id, parameter) witness: a column reads
    only the ids below the best so far, and stops at the first that breaks
    the relation.
    """
    vectors, n, c_max = domain.vectors, len(domain.vectors), domain.spec.c_max
    best = {(s, im): (n, ()) for s in sessions for im in images if im.relation}
    ranked = {(s, im) for s in sessions for im in images if not im.relation}
    readers: dict[tuple, list[_Image]] = {}
    for im in images:
        for param in im.params(c_max):
            readers.setdefault((im.transform, param), []).append(im)
    transforms = list(dict.fromkeys(im.transform for im in images))
    for (transform, param), users in sorted(readers.items(), key=lambda r: (transforms.index(r[0][0]), r[0][1])):
        rank = [(s, im) for s in sessions for im in users if (s, im) in ranked]
        reach = [best[s, im][0] for s in sessions for im in users if (s, im) in best]
        stop = n if rank else max(reach, default=0)
        tables = {s: [] for s, _ in rank}
        factor = param[0] if param else 1
        for lo in range(0, stop, _SLICE):
            hi = min(stop, lo + _SLICE)
            column = _column(domain, transform, param, lo, hi)
            for s in sessions:
                scans = [im for im in users if (s, im) in best and lo < best[s, im][0]]
                table = s.image_values(column)
                if s in tables:
                    table = list(table)
                    tables[s] += table
                for im in scans:
                    first, relation = im.first, im.relation
                    scan = zip(range(lo, min(best[s, im][0], hi)), s.values[lo:hi], table)
                    hit = next((i for i, fx, fi in scan if i >= first and not relation(factor * fx, fi)), None)
                    best[s, im] = best[s, im] if hit is None else (hit, param)
        ranked -= {(s, im) for s, im in rank if s.flips(im, param, tables[s])}
    for (s, im), (i, param) in best.items():
        s.walked[im] = [(vectors[i], *param)] if i < n else []
    for s, im in ranked:
        s.walked[im] = []


def _walked(image: _Image, s: _Session) -> list[tuple]:
    """An image axiom's candidates: those a walk over many sessions left, else those of a walk over this one."""
    if image not in s.walked:
        _walk(s.domain, [s], [image])
    return s.walked[image]


def _unreachable_targets(s: _Session):
    domain = s.domain
    if not domain.exhaustive:
        raise DomainBudgetError(
            "the uniform-increment check needs an exhaustive domain; "
            "sampled vectors are not closed under removing citations"
        )
    # Reachability under "strict increases must land uniform" does not
    # depend on the eventual target (every prefix of a constructive
    # sequence is dominated by its endpoint), so one bottom-up pass over
    # the steps decides all targets at once.  Every step into v starts at
    # a vector of smaller total, so of smaller id, and steps come by
    # ascending lower id: all of them precede any step out of v, and v's
    # flag is final before it is read.
    vectors, values = domain.vectors, s.values
    reachable = bytearray(len(vectors))
    reachable[0] = 1  # the empty vector
    for i, j in zip(domain.step_lower, domain.step_upper):
        if reachable[i] and not reachable[j] and sequences.is_incremental_step(values[i], values[j], vectors[j]):
            reachable[j] = 1
    for v, ok in zip(vectors, reachable):
        if not ok:
            yield (v,)
            # The scan only comes back here when the search found a sequence.
            raise RuntimeError(f"reachability scan disagrees with search at {v}")


AXIOMS: dict[AxiomId, Axiom] = {
    # M's tolerance does not add up along a chain (drops within it can
    # chain past it), so its edges must hold exactly, and inf -> inf, whose
    # difference is NaN, does not; SM's margin adds up.
    AxiomId.MONOTONICITY: _domination_axiom("f never decreases along domination", lambda fv, fw: fw - fv >= 0, at_most),
    AxiomId.STRICT_MONOTONICITY: _domination_axiom("f strictly increases along strict domination", rises, rises),
    AxiomId.SCALE_INVARIANCE: _pointwise_axiom(
        "scaling citations by C scales f by C", scale, "scaled", close, key="factor"
    ),
    # conjugate is looked up at each call, so perfbench's tracer can count its calls
    AxiomId.SELF_CONJUGACY: _pointwise_axiom(
        "f is unchanged by conjugation", lambda x: conjugate(x), "conjugate", close
    ),
    AxiomId.RECTANGLE_COMPLETION: _step_axiom(
        "f(x + citation at k) = max(f(x), k * (x_k + 1))",
        close,
        lambda fx, grown, k: max(fx, k * grown[k - 1]),
        lambda x, k, grown, fx, fg, b: {"x": x, "position": k, "extended": grown, "f_extended": fg, "expected": b},
    ),
    AxiomId.UNIFORM_CITATION: _citation_count_axiom(
        "on uniform vectors f equals the citation count", lambda s: s.domain.uniforms, is_uniform
    ),
    AxiomId.UNIFORM_EQUIVALENCE: Axiom(
        "some dominated uniform vector has the same f", ("x",), _uniform_equivalence_candidates, _violates_ue
    ),
    # no publications means nothing receives a citation, so the walk skips (), of id 0
    AxiomId.CITATION_INCREASE: _pointwise_axiom(
        "one citation to every publication raises f", add_one_to_all, "incremented", rises, first=1
    ),
    AxiomId.UNIFORM_MONOTONICITY: Axiom(
        "monotone when the dominated side is uniform",
        ("x", "y"),
        _uniform_monotonicity_candidates,
        _violates_um,
    ),
    AxiomId.UNIFORM_SINGLE_CITATION: _citation_count_axiom(
        "f of n singly-cited publications is n",
        lambda s: ((1,) * j for j in range(s.domain.spec.n_max + 1)),
        lambda x: set(x) <= {1},
    ),
    AxiomId.UNIFORM_INCREMENT: Axiom(
        "an f-incremental constructive sequence exists", ("target",), _unreachable_targets, _violates_ui
    ),
    AxiomId.RANK_INDEPENDENCE: _rank_axiom(
        "adding the same new publication preserves ranking", "added_citations", _add_publication, 1
    ),
    # scaling by 1 changes no ranking, though a NaN, which has no sign, would seem to change one
    AxiomId.RANK_SCALE_INVARIANCE: _rank_axiom(
        "scaling both records preserves ranking", "factor", scale, 2
    ),
}

_CHI_STEP = _step_axiom(
    "chi grows by at most 1 per added citation",
    at_most,
    lambda fx, grown, k: fx + 1,
    lambda x, k, grown, fx, fg, b: {"x": x, "position": k, "chi_before": fx, "chi_after": fg},
)


def _verdict(index: str, axiom: str, domain: Domain, counterexample: dict | None) -> AxiomVerdict:
    status = VIOLATED if counterexample is not None else SATISFIED
    return AxiomVerdict(index, axiom, domain.spec.n_max, domain.spec.c_max, domain.exhaustive, status, counterexample)


def check_axiom(
    index: IndexUnderTest, axiom: AxiomId | str, domain: Domain, *, session: _Session | None = None
) -> AxiomVerdict:
    """Scan one axiom for one index over a domain that ``build_domain`` built.

    Returns a verdict whose counterexample, if any, is the first in the
    domain's order and replays independently.  ``session``, opened for this
    index and domain, shares the value tables of the index's other checks.
    """
    axiom = AxiomId(axiom)
    session = session or _Session(index, domain)
    return _verdict(index.name, axiom.value, session.domain, _first_witness(AXIOMS[axiom], session))


def check_registry(
    indices: Iterable[IndexUnderTest], domain: Domain, axioms: Iterable[AxiomId | str] = AxiomId
) -> dict[str, dict[str, AxiomVerdict | None]]:
    """Check each axiom for every index, evaluating each index once per vector and building each image once.

    The axiom ids are read first, so an unknown one is refused before
    anything is built.  One ``_walk`` over the image axioms' columns serves
    every index; then each index's cells go through ``check_axiom``, and its
    session is dropped before the next index's.  Rows map an axiom that
    needs an exhaustive domain to None on a sampled one.
    """
    axioms = [AxiomId(axiom) for axiom in axioms]
    sessions = [_Session(index, domain) for index in indices]
    _walk(domain, sessions, [AXIOMS[axiom].image for axiom in axioms if AXIOMS[axiom].image])
    rows: dict[str, dict[str, AxiomVerdict | None]] = {}
    while sessions:
        session = sessions.pop(0)
        row = rows[session.index.name] = {}
        for axiom in axioms:
            try:
                row[axiom.value] = check_axiom(session.index, axiom, domain, session=session)
            except DomainBudgetError:
                row[axiom.value] = None
    return rows


#: The witness keys that hold a vector; the others hold a rank, a factor or a count.
_VECTOR_KEYS = frozenset({"x", "y", "target"})


def replay_counterexample(verdict: AxiomVerdict, index: IndexUnderTest) -> bool:
    """Re-derive a stored counterexample from scratch.

    True when the stored data still exhibits a genuine violation of the
    axiom for the given index, independent of the scan that found it.
    Witnesses read back from JSON, with lists for vectors, replay too; a
    vector that is not a citation vector raises ``ValueError``.
    """
    if verdict.counterexample is None:
        return False
    axiom = AXIOMS[AxiomId(verdict.axiom)]
    ce = verdict.counterexample
    candidate = [tuple(ce[k]) if isinstance(ce[k], list) else ce[k] for k in axiom.keys]
    for key, value in zip(axiom.keys, candidate):
        if key in _VECTOR_KEYS and not is_valid_vector(value):
            raise ValueError(f"witness key {key!r} is not a citation vector: {ce[key]!r}")
    return axiom.violates(index.evaluate, *candidate) is not None


# ---------------------------------------------------------------------------
# independence matrix and the chi step bound
# ---------------------------------------------------------------------------

INDEPENDENCE_AXIOMS = (
    AxiomId.MONOTONICITY,
    AxiomId.UNIFORM_CITATION,
    AxiomId.UNIFORM_EQUIVALENCE,
)


def expected_independence_pattern() -> dict[str, dict[str, str]]:
    """The documented verdict pattern the independence matrix is compared to.

    Note: exhaustive checking refutes the min_n_x1 / UE cell recorded
    here (x = <2,1> has min(n, x_1) = 2 while every dominated uniform
    vector scores 1), so on any domain with bounds >= 2 the computed
    matrix reports one extra violation.  The claimed pattern is kept
    as-is so the discrepancy stays visible in the comparison.
    """
    return {
        "avg_rec_citation": {"M": SATISFIED, "UC": SATISFIED, "UE": VIOLATED},
        "h_squared": {"M": SATISFIED, "UC": VIOLATED, "UE": SATISFIED},
        "publication_count": {"M": SATISFIED, "UC": VIOLATED, "UE": SATISFIED},
        "max_citation": {"M": SATISFIED, "UC": VIOLATED, "UE": SATISFIED},
        "max_n_x1": {"M": SATISFIED, "UC": VIOLATED, "UE": SATISFIED},
        "min_n_x1": {"M": SATISFIED, "UC": VIOLATED, "UE": SATISFIED},
        "n_times_min": {"M": VIOLATED, "UC": SATISFIED, "UE": SATISFIED},
        "rec": {"M": SATISFIED, "UC": SATISFIED, "UE": SATISFIED},
    }


def independence_matrix(domain: Domain) -> dict[str, dict[str, AxiomVerdict]]:
    """Check M, UC and UE for every registry index over one domain, evaluating each index once per vector."""
    return check_registry(counterexample_registry(), domain, INDEPENDENCE_AXIOMS)


def pattern_mismatches(
    matrix: dict[str, dict[str, AxiomVerdict | None]],
) -> list[tuple[str, str, str, AxiomVerdict]]:
    """Cells where the computed matrix disagrees with the documented pattern.

    Only the pattern's cells are read, so the full rows of ``check_registry``
    serve as they are.
    """
    return [
        (name, axiom, want, matrix[name][axiom])
        for name, cells in expected_independence_pattern().items()
        for axiom, want in cells.items()
        if matrix[name][axiom].status != want
    ]


def chi_increment_bound(domain: Domain) -> AxiomVerdict:
    """Verify chi grows by at most 1 under any single added citation."""
    return _verdict("chi", "CHI_STEP_BOUND", domain, _first_witness(_CHI_STEP, _Session(CHI, domain)))
