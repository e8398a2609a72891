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
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate, repeat
from operator import le
from typing import Callable, Iterable

from . import sequences
from .core import (
    TOLERANCE,
    Vector,
    add_citation_at,
    add_one_to_all,
    chi_index,
    citation_count,
    conjugate,
    dominates,
    h_index,
    is_uniform,
    rec,
    scale,
    valid_positions,
)
from .enumeration import (
    DEFAULT_SAMPLE_SIZE,
    EXHAUSTIVE_BUDGET,
    DomainBudgetError,
    DomainSpec,
    canonical_key,
    count_vectors,
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


@dataclass(frozen=True)
class IndexUnderTest:
    name: str
    evaluate: Callable[[Vector], float]


def make_index(name: str, evaluate: Callable[[Vector], float]) -> IndexUnderTest:
    """Wrap an index function, enforcing the zero baseline on registration."""
    baseline = evaluate(())
    if abs(baseline) > TOLERANCE:
        raise ValueError(f"index {name!r} maps the empty vector to {baseline!r}, not 0")
    return IndexUnderTest(name, evaluate)


@dataclass(frozen=True)
class AxiomVerdict:
    """Outcome of one (index, axiom, domain) check."""

    index: str
    axiom: str
    n_max: int
    c_max: int
    status: str
    counterexample: dict | None = None
    exhaustive: bool = True

    @property
    def ok(self) -> bool:
        return self.status == SATISFIED

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "axiom": self.axiom,
            "n_max": self.n_max,
            "c_max": self.c_max,
            "exhaustive": self.exhaustive,
            "status": self.status,
            "counterexample": _jsonable(self.counterexample),
        }


def _jsonable(obj):
    if isinstance(obj, (tuple, list)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    return obj


# ---------------------------------------------------------------------------
# index registry
# ---------------------------------------------------------------------------


def _avg_rec_citation(x: Vector) -> float:
    return (rec(x) + citation_count(x)) / 2


def _h_squared(x: Vector) -> int:
    return h_index(x) ** 2


def _publication_count(x: Vector) -> int:
    return len(x)


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
        make_index("publication_count", _publication_count),
        make_index("max_citation", _max_citation),
        make_index("max_n_x1", _max_n_x1),
        make_index("min_n_x1", _min_n_x1),
        make_index("n_times_min", _n_times_min),
        REC,
    ]


# ---------------------------------------------------------------------------
# the shared scan domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Domain:
    """One scan domain, built once and shared by every check over it.

    ``vectors`` is the whole box in canonical order when ``exhaustive``,
    else a seeded sample in draw order; a vector's id is its position
    there, and ``ids`` maps each vector to its id.  The empty vector has
    id 0.  ``uniforms`` holds every uniform vector of the box in canonical
    order.
    The one-citation steps of an exhaustive box are the id pairs
    ``(step_lower[s], step_upper[s])``: the upper vector adds one citation
    to the lower one and stays in the box.  They are listed by ascending
    lower id; a sampled domain has none.
    """

    spec: DomainSpec
    vectors: list[Vector]
    exhaustive: bool
    uniforms: list[Vector]
    ids: dict[Vector, int]
    step_lower: array
    step_upper: array


def build_domain(spec: DomainSpec, sample_size: int = DEFAULT_SAMPLE_SIZE) -> Domain:
    """Enumerate the box, or sample it when it exceeds the exhaustive budget."""
    size = count_vectors(spec.n_max, spec.c_max)
    if size <= EXHAUSTIVE_BUDGET:
        vectors, exhaustive = list(enumerate_vectors(spec)), True
    elif spec.seed is None:
        raise DomainBudgetError(
            f"domain {spec.n_max}x{spec.c_max} holds {size} vectors, above the "
            f"exhaustive budget of {EXHAUSTIVE_BUDGET}; supply a seed for a "
            f"sampled (non-exhaustive) scan"
        )
    else:
        vectors, exhaustive = sample_vectors(spec, sample_size), False
    uniforms = [()] + [(c,) * j for j in range(1, spec.n_max + 1) for c in range(1, spec.c_max + 1)]
    uniforms.sort(key=canonical_key)
    ids = {v: i for i, v in enumerate(vectors)}
    step_lower, step_upper = array("i"), array("i")
    if exhaustive:
        for i, v in enumerate(vectors):
            for k in valid_positions(v):
                j = ids.get(add_citation_at(v, k))
                if j is not None:
                    step_lower.append(i)
                    step_upper.append(j)
    return Domain(spec, vectors, exhaustive, uniforms, ids, step_lower, step_upper)


def _as_domain(domain: Domain | DomainSpec | tuple[int, int], sample_size: int) -> Domain:
    if isinstance(domain, Domain):
        return domain
    spec = domain if isinstance(domain, DomainSpec) else DomainSpec(*domain)
    return build_domain(spec, sample_size)


# ---------------------------------------------------------------------------
# the axioms
# ---------------------------------------------------------------------------


class _Session:
    """The checks of one index over one domain, reading shared value tables.

    ``values[i]`` is f of the vector with id i, ``uniform_rows[j - 1][c - 1]``
    is f of ``(c,) * j``, and an image table, kept per (transform, param),
    lists f of every vector's image by id.  Each table is built on first
    use: a vector of the domain reads ``values`` by id, any other is
    evaluated into the table that needs it and never kept as a key.  A
    session is opened for one index and dropped with it, so nothing is
    shared between indices.
    """

    def __init__(self, index: IndexUnderTest, domain: Domain) -> None:
        self.index, self.domain = index, domain
        self._images: dict = {}

    @cached_property
    def values(self) -> list:
        return list(map(self.index.evaluate, self.domain.vectors))

    def f(self, v: Vector):
        """f of any vector; the predicates read it."""
        i = self.domain.ids.get(v)
        return self.index.evaluate(v) if i is None else self.values[i]

    def _f_all(self, vectors: Iterable[Vector]) -> list:
        get, values, evaluate = self.domain.ids.get, self.values, self.index.evaluate
        return [evaluate(w) if (i := get(w)) is None else values[i] for w in vectors]

    @cached_property
    def uniform_rows(self) -> list[list]:
        spec = self.domain.spec
        return [self._f_all((c,) * j for c in range(1, spec.c_max + 1)) for j in range(1, spec.n_max + 1)]

    def uniform(self, u: Vector):
        """f of a uniform vector of the box."""
        return self.uniform_rows[len(u) - 1][u[0] - 1] if u else self.values[0]

    def images(self, transform: Callable[[Vector, int], Vector], param: int) -> list:
        """The image table of one param, built whole."""
        key = (transform, param)
        if key not in self._images:
            self._images[key] = self._f_all(map(transform, self.domain.vectors, repeat(param)))
        return self._images[key]

    def image_rows(self, transform: Callable[[Vector, int], Vector], params: range):
        """Yield ``(x, f(x), images)`` by id, ``images[k]`` being f of
        ``transform(x, params[k])``.

        The image tables are filled as the walk goes and kept for
        ``images`` only when it ends, so a scan that stops at an early
        witness evaluates no image past it.
        """
        tables: list[list] = [[] for _ in params]
        for x, fx in zip(self.domain.vectors, self.values):
            row = self._f_all(map(transform, repeat(x), params))
            for table, value in zip(tables, row):
                table.append(value)
            yield x, fx, row
        self._images.update(((transform, param), table) for param, table in zip(params, tables))


@dataclass(frozen=True)
class Axiom:
    """One checkable property, stated once for the scan and for replay.

    ``candidates(session)`` yields, in the domain's order, tuples of the
    witness values named by ``keys``; it may skip candidates that cannot
    violate the property, which it decides from the session's tables.
    ``violates(f, *candidate)`` returns the witness a violating
    candidate makes, else None.
    """

    description: str
    keys: tuple[str, ...]
    candidates: Callable[[_Session], Iterable[tuple]]
    violates: Callable[..., dict | None]


def _sign(a: float, b: float) -> int:
    if abs(a - b) <= TOLERANCE:
        return 0
    return 1 if a > b else -1


def _first_witness(axiom: Axiom, session: _Session) -> dict | None:
    f, violates = session.f, axiom.violates
    for candidate in axiom.candidates(session):
        witness = violates(f, *candidate)
        if witness is not None:
            return witness
    return None


def _each_vector(s: _Session):
    return ((x,) for x in s.domain.vectors)


def _growth_steps(s: _Session):
    return ((x, k) for x in s.domain.vectors for k in valid_positions(x))


def _monotonicity(strict: bool):
    """The M predicate, or the SM one when ``strict``."""

    def violates(f, x, y):
        # Comparing table values is cheaper than ``dominates``, and
        # pair scans mostly meet pairs whose values are in order.
        fx, fy = f(x), f(y)
        broken = (x != y and fy <= fx + TOLERANCE) if strict else fx > fy + TOLERANCE
        if broken and dominates(x, y):
            return {"x": x, "y": y, "f_x": fx, "f_y": fy}
        return None

    return violates


_violates_m = _monotonicity(strict=False)
_violates_sm = _monotonicity(strict=True)


def _violates_um(f, x, y):
    witness = _violates_m(f, x, y)
    return witness if witness is not None and is_uniform(x) else None


def _violates_si(f, x, factor):
    fx, scaled = f(x), f(scale(x, factor))
    if abs(scaled - factor * fx) > TOLERANCE:
        return {"x": x, "factor": factor, "f_x": fx, "f_scaled": scaled}
    return None


def _violates_sc(f, x):
    p = conjugate(x)
    fx, fp = f(x), f(p)
    if abs(fx - fp) > TOLERANCE:
        return {"x": x, "conjugate": p, "f_x": fx, "f_conjugate": fp}
    return None


def _violates_rc(f, x, position):
    grown = add_citation_at(x, position)
    old = x[position - 1] if position <= len(x) else 0
    fg, expected = f(grown), max(f(x), position * (old + 1))
    if abs(fg - expected) > TOLERANCE:
        return {"x": x, "position": position, "extended": grown, "f_extended": fg, "expected": expected}
    return None


def _violates_citation_count(f, x):
    fx, count = f(x), citation_count(x)
    if abs(fx - count) > TOLERANCE:
        return {"x": x, "f_x": fx, "citation_count": count}
    return None


def _violates_ue(f, x):
    fx = f(x)
    if not any(abs(f(u) - fx) <= TOLERANCE for u in enumerate_uniform_dominated(x)):
        return {"x": x, "f_x": fx, "candidates": [[u, f(u)] for u in enumerate_uniform_dominated(x)]}
    return None


def _violates_ci(f, x):
    grown = add_one_to_all(x)
    fx, fg = f(x), f(grown)
    if fg <= fx + TOLERANCE:
        return {"x": x, "incremented": grown, "f_x": fx, "f_incremented": fg}
    return None


def _violates_ui(f, target):
    outcome = sequences.search_incremental(target, f, budget=UI_SEARCH_BUDGET)
    if outcome.status == sequences.ABSENT:
        return {"target": target, "note": "no f-incremental constructive sequence"}
    return None


def _violates_chi_step(f, x, position):
    before, after = f(x), f(add_citation_at(x, position))
    if after > before + 1 + TOLERANCE:
        return {"x": x, "position": position, "chi_before": before, "chi_after": after}
    return None


def _domination_axiom(description: str, violates, edge_holds, pair_breaks) -> Axiom:
    """``edge_holds(f(v), f(w))`` tests a one-citation step v -> w;
    ``pair_breaks(f(x), f(y))`` says whether x under y may be a witness."""

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
        return ((x, y) for x, fx in scored for y, fy in scored if pair_breaks(fx, fy))

    return Axiom(description, ("x", "y"), candidates, violates)


def _scale_candidates(s: _Session):
    factors = range(2, s.domain.spec.c_max + 1)  # scale(x, 1) is x
    return (
        (x, factor)
        for x, fx, scaled in s.image_rows(scale, factors)
        for factor, fs in zip(factors, scaled)
        if abs(fs - factor * fx) > TOLERANCE
    )


def _blocks_stay_apart(blocks: list[list[int]], table: list) -> bool:
    """True when the table spans at most TOLERANCE on each block of ids
    and each block lies more than TOLERANCE below the next."""
    previous_hi = float("-inf")
    for block in blocks:
        values = [table[i] for i in block]
        if max(values) - min(values) > TOLERANCE or min(values) - previous_hi <= TOLERANCE:
            return False
        previous_hi = max(values)
    return True


def _flipped_pairs(before: list, after: list):
    """Id pairs i < j, in order, whose comparison has another sign after."""
    for i, (b, a) in enumerate(zip(before, after)):
        for j in range(i + 1, len(before)):
            if _sign(b, before[j]) != _sign(a, after[j]):
                yield i, j


def _rank_axiom(key: str, first: int, transform, description: str) -> Axiom:
    def violates(f, x, y, param):
        before = [f(x), f(y)]
        after = [f(transform(x, param)), f(transform(y, param))]
        if _sign(*before) != _sign(*after):
            return {"x": x, "y": y, key: param, "before": before, "after": after}
        return None

    def candidates(s: _Session):
        # Cut the f order into blocks within TOLERANCE of their first value.
        # If f keeps the blocks apart, pairs tie exactly within a block, so
        # no pair flips exactly when the transformed f keeps them apart too;
        # if not, ties chain (a ~ b ~ c, a !~ c) and the pairs whose signs
        # differ in the tables go to the predicate.
        vectors, values = s.domain.vectors, s.values
        blocks: list[list[int]] = []
        for i in sorted(range(len(values)), key=values.__getitem__):
            if blocks and values[i] - values[blocks[-1][0]] <= TOLERANCE:
                blocks[-1].append(i)
            else:
                blocks.append([i])
        separated = _blocks_stay_apart(blocks, values)
        for param in range(first, s.domain.spec.c_max + 1):
            after = s.images(transform, param)
            if not (separated and _blocks_stay_apart(blocks, after)):
                yield from ((vectors[i], vectors[j], param) for i, j in _flipped_pairs(values, after))

    return Axiom(description, ("x", "y", key), candidates, violates)


def _citation_count_candidates(uniforms: Callable[[_Session], Iterable[Vector]]):
    def candidates(s: _Session):
        return ((u,) for u in uniforms(s) if abs(s.uniform(u) - citation_count(u)) > TOLERANCE)

    return candidates


def _uniform_equivalence_candidates(s: _Session):
    # The uniforms under x are () and (c,)*j for j <= len(x) and c <= x_j.
    base, rows = s.values[0], s.uniform_rows

    def matched(x, fx) -> bool:
        return abs(base - fx) <= TOLERANCE or any(
            abs(fu - fx) <= TOLERANCE for row, c in zip(rows, x) for fu in row[:c]
        )

    return ((x,) for x, fx in zip(s.domain.vectors, s.values) if not matched(x, fx))


def _uniform_monotonicity_candidates(s: _Session):
    # (c,)*j lies under y exactly when j <= len(y) and c <= y_j, so the
    # largest f over the uniforms under y is the largest running maximum
    # top[j][y_j]; only a y that this maximum exceeds can be in a witness,
    # and only with a uniform under it that scores more than y.
    base = s.values[0]
    top = [list(accumulate(row, max, initial=base)) for row in s.uniform_rows]
    suspects = [
        (y, fy)
        for y, fy in zip(s.domain.vectors, s.values)
        if max((row[c] for row, c in zip(top, y)), default=base) > fy + TOLERANCE
    ]
    for u in s.domain.uniforms:
        fu, j = s.uniform(u), len(u)
        for y, fy in suspects:
            if fu > fy + TOLERANCE and j <= len(y) and (not u or u[0] <= y[j - 1]):
                yield u, y


def _add_publication(x: Vector, citations: int) -> Vector:
    return tuple(sorted(x + (citations,), reverse=True))


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
        if reachable[i] and not reachable[j]:
            if values[j] <= values[i] + TOLERANCE or is_uniform(vectors[j]):
                reachable[j] = 1
    for v, ok in zip(vectors, reachable):
        if not ok:
            yield (v,)
            # The scan only comes back here when the search found a sequence.
            raise RuntimeError(f"reachability scan disagrees with search at {v}")


AXIOMS: dict[AxiomId, Axiom] = {
    # M's tolerance does not add up along a chain (drops within it can
    # chain past it), so its edges must hold exactly; SM's margin does.
    AxiomId.MONOTONICITY: _domination_axiom(
        "f never decreases along domination", _violates_m, le, lambda fx, fy: fx > fy + TOLERANCE
    ),
    AxiomId.STRICT_MONOTONICITY: _domination_axiom(
        "f strictly increases along strict domination",
        _violates_sm,
        lambda fv, fw: fw > fv + TOLERANCE,
        lambda fx, fy: fy <= fx + TOLERANCE,
    ),
    AxiomId.SCALE_INVARIANCE: Axiom(
        "scaling citations by C scales f by C", ("x", "factor"), _scale_candidates, _violates_si
    ),
    AxiomId.SELF_CONJUGACY: Axiom("f is unchanged by conjugation", ("x",), _each_vector, _violates_sc),
    AxiomId.RECTANGLE_COMPLETION: Axiom(
        "f(x + citation at k) = max(f(x), k * (x_k + 1))", ("x", "position"), _growth_steps, _violates_rc
    ),
    AxiomId.UNIFORM_CITATION: Axiom(
        "on uniform vectors f equals the citation count",
        ("x",),
        _citation_count_candidates(lambda s: s.domain.uniforms),
        _violates_citation_count,
    ),
    AxiomId.UNIFORM_EQUIVALENCE: Axiom(
        "some dominated uniform vector has the same f", ("x",), _uniform_equivalence_candidates, _violates_ue
    ),
    AxiomId.CITATION_INCREASE: Axiom(
        "one citation to every publication raises f",
        ("x",),
        # no publications means nothing receives a citation
        lambda s: ((x,) for x in s.domain.vectors if x),
        _violates_ci,
    ),
    AxiomId.UNIFORM_MONOTONICITY: Axiom(
        "monotone when the dominated side is uniform",
        ("x", "y"),
        _uniform_monotonicity_candidates,
        _violates_um,
    ),
    AxiomId.UNIFORM_SINGLE_CITATION: Axiom(
        "f of n singly-cited publications is n",
        ("x",),
        _citation_count_candidates(lambda s: ((1,) * j for j in range(s.domain.spec.n_max + 1))),
        _violates_citation_count,
    ),
    AxiomId.UNIFORM_INCREMENT: Axiom(
        "an f-incremental constructive sequence exists", ("target",), _unreachable_targets, _violates_ui
    ),
    AxiomId.RANK_INDEPENDENCE: _rank_axiom(
        "added_citations", 1, _add_publication, "adding the same new publication preserves ranking"
    ),
    AxiomId.RANK_SCALE_INVARIANCE: _rank_axiom("factor", 2, scale, "scaling both records preserves ranking"),
}

_CHI_STEP = Axiom(
    "chi grows by at most 1 per added citation", ("x", "position"), _growth_steps, _violates_chi_step
)


def _verdict(index: str, axiom: str, domain: Domain, counterexample: dict | None) -> AxiomVerdict:
    return AxiomVerdict(
        index=index,
        axiom=axiom,
        n_max=domain.spec.n_max,
        c_max=domain.spec.c_max,
        status=VIOLATED if counterexample is not None else SATISFIED,
        counterexample=counterexample,
        exhaustive=domain.exhaustive,
    )


def check_axiom(
    index: IndexUnderTest,
    axiom: AxiomId | str,
    domain: Domain | DomainSpec | tuple[int, int],
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    *,
    session: _Session | None = None,
) -> AxiomVerdict:
    """Scan one axiom for one index over a finite domain.

    Returns a verdict whose counterexample, if any, is the first in the
    domain's order and replays independently.  A ``Domain`` is used as
    built; ``sample_size`` only applies when one is built here.
    ``session``, opened by ``check_index`` for this index and ``Domain``,
    shares the value tables of the index's other checks.
    """
    axiom = AxiomId(axiom)
    session = session or _Session(index, _as_domain(domain, sample_size))
    return _verdict(index.name, axiom.value, session.domain, _first_witness(AXIOMS[axiom], session))


def check_index(index: IndexUnderTest, domain: Domain) -> dict[str, AxiomVerdict | None]:
    """Check every axiom for one index, evaluating the index once per vector.

    Every check reads one session's value tables, which are dropped on
    return.  An axiom that needs an exhaustive domain maps to None on a
    sampled one.
    """
    session = _Session(index, domain)
    row: dict[str, AxiomVerdict | None] = {}
    for axiom in AxiomId:
        try:
            row[axiom.value] = check_axiom(index, axiom, domain, session=session)
        except DomainBudgetError:
            row[axiom.value] = None
    return row


def replay_counterexample(verdict: AxiomVerdict, index: IndexUnderTest) -> bool:
    """Re-derive a stored counterexample from scratch.

    True when the stored data still exhibits a genuine violation of the
    axiom for the given index, independent of the scan that found it.
    Witnesses read back from JSON, with lists for vectors, replay too.
    """
    if verdict.counterexample is None:
        return False
    axiom = AXIOMS[AxiomId(verdict.axiom)]
    ce = verdict.counterexample
    candidate = [tuple(ce[k]) if isinstance(ce[k], list) else ce[k] for k in axiom.keys]
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
    rows = {
        "avg_rec_citation": {"M": SATISFIED, "UC": SATISFIED, "UE": VIOLATED},
        "h_squared": {"M": SATISFIED, "UC": VIOLATED, "UE": SATISFIED},
        "publication_count": {"M": SATISFIED, "UC": VIOLATED, "UE": SATISFIED},
        "max_citation": {"M": SATISFIED, "UC": VIOLATED, "UE": SATISFIED},
        "max_n_x1": {"M": SATISFIED, "UC": VIOLATED, "UE": SATISFIED},
        "min_n_x1": {"M": SATISFIED, "UC": VIOLATED, "UE": SATISFIED},
        "n_times_min": {"M": VIOLATED, "UC": SATISFIED, "UE": SATISFIED},
        "rec": {"M": SATISFIED, "UC": SATISFIED, "UE": SATISFIED},
    }
    return rows


def independence_matrix(
    domain: Domain | DomainSpec | tuple[int, int],
    sample_size: int = DEFAULT_SAMPLE_SIZE,
) -> dict[str, dict[str, AxiomVerdict]]:
    """Check M, UC and UE for every registry index over one domain."""
    domain = _as_domain(domain, sample_size)
    matrix: dict[str, dict[str, AxiomVerdict]] = {}
    for index in counterexample_registry():
        matrix[index.name] = {
            axiom.value: check_axiom(index, axiom, domain)
            for axiom in INDEPENDENCE_AXIOMS
        }
    return matrix


def pattern_mismatches(
    matrix: dict[str, dict[str, AxiomVerdict]],
) -> list[tuple[str, str, str, AxiomVerdict]]:
    """Cells where the computed matrix disagrees with the documented pattern."""
    expected = expected_independence_pattern()
    out = []
    for name, row in matrix.items():
        for axiom, verdict in row.items():
            want = expected[name][axiom]
            if verdict.status != want:
                out.append((name, axiom, want, verdict))
    return out


def chi_increment_bound(
    domain: Domain | DomainSpec | tuple[int, int],
    sample_size: int = DEFAULT_SAMPLE_SIZE,
) -> AxiomVerdict:
    """Verify chi grows by at most 1 under any single added citation."""
    domain = _as_domain(domain, sample_size)
    return _verdict("chi", "CHI_STEP_BOUND", domain, _first_witness(_CHI_STEP, _Session(CHI, domain)))
