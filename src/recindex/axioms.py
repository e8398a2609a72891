"""Executable property checkers for citation indices over finite domains.

Each axiom id names one entry of ``AXIOMS``: a description, the
candidates the axiom draws from a domain, and one predicate that turns a
violating candidate into its witness.  A scan returns the first witness
in canonical enumeration order; replaying a stored witness runs the same
predicate on it, independently of the scan that found it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, combinations, product
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
    make_vector,
    rec,
    scale,
    valid_positions,
)
from .enumeration import (
    DEFAULT_SAMPLE_SIZE,
    EXHAUSTIVE_BUDGET,
    DomainBudgetError,
    DomainSpec,
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
    else a seeded sample; a vector's id is its position there.
    ``uniforms`` holds every uniform vector of the box in canonical order.
    The one-citation steps of an exhaustive box are the id pairs
    ``(step_lower[s], step_upper[s])``: the upper vector adds one citation
    to the lower one and stays in the box.  They are listed by ascending
    lower id; a sampled domain has none.
    """

    spec: DomainSpec
    vectors: list[Vector]
    exhaustive: bool
    uniforms: list[Vector]
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
    uniforms.sort(key=lambda v: (citation_count(v), len(v), v))
    step_lower, step_upper = array("i"), array("i")
    if exhaustive:
        ids = {v: i for i, v in enumerate(vectors)}
        for i, v in enumerate(vectors):
            for k in valid_positions(v):
                j = ids.get(add_citation_at(v, k))
                if j is not None:
                    step_lower.append(i)
                    step_upper.append(j)
    return Domain(spec, vectors, exhaustive, uniforms, step_lower, step_upper)


def _as_domain(domain: Domain | DomainSpec | tuple[int, int], sample_size: int) -> Domain:
    if isinstance(domain, Domain):
        return domain
    spec = domain if isinstance(domain, DomainSpec) else DomainSpec(*domain)
    return build_domain(spec, sample_size)


# ---------------------------------------------------------------------------
# the axioms
# ---------------------------------------------------------------------------

#: An index under scan, or under replay.
Index = Callable[[Vector], float]


@dataclass(frozen=True)
class Axiom:
    """One checkable property, stated once for the scan and for replay.

    ``candidates(domain, f)`` yields, in canonical order, tuples of the
    witness values named by ``keys``; it may skip candidates that cannot
    violate the property.  ``violates(f, *candidate)`` returns the
    witness a violating candidate makes, else None.
    """

    description: str
    keys: tuple[str, ...]
    candidates: Callable[[Domain, Index], Iterable[tuple]]
    violates: Callable[..., dict | None]


def _sign(a: float, b: float) -> int:
    if abs(a - b) <= TOLERANCE:
        return 0
    return 1 if a > b else -1


class _Memo(dict):
    """Memoised evaluation of one index; ``__getitem__`` is the index."""

    def __init__(self, evaluate: Index) -> None:
        super().__init__()
        self._evaluate = evaluate

    def __missing__(self, v: Vector) -> float:
        value = self[v] = self._evaluate(v)
        return value


def _first_witness(axiom: Axiom, evaluate: Index, domain: Domain) -> dict | None:
    f = _Memo(evaluate).__getitem__
    violates = axiom.violates
    for candidate in axiom.candidates(domain, f):
        witness = violates(f, *candidate)
        if witness is not None:
            return witness
    return None


def _each_vector(domain: Domain, f: Index):
    return ((x,) for x in domain.vectors)


def _growth_steps(domain: Domain, f: Index):
    return ((x, k) for x in domain.vectors for k in valid_positions(x))


def _monotonicity(strict: bool):
    """The M predicate, or the SM one when ``strict``."""

    def violates(f, x, y):
        # Comparing memoised values is cheaper than ``dominates``, and
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


def _domination_axiom(description: str, violates, edge_holds) -> Axiom:
    def candidates(domain: Domain, f: Index):
        # Domination is generated by single-citation additions, so on a
        # closed domain edges that hold along every chain settle the
        # verdict; the pair scan only runs when a witness must be reported.
        vectors, steps = domain.vectors, zip(domain.step_lower, domain.step_upper)
        if domain.exhaustive and all(edge_holds(f, vectors[i], vectors[j]) for i, j in steps):
            return ()
        return product(domain.vectors, repeat=2)

    return Axiom(description, ("x", "y"), candidates, violates)


def _blocks_stay_apart(blocks: list[list[Vector]], g: Index) -> bool:
    """True when g spans at most TOLERANCE on each block and each block
    lies more than TOLERANCE below the next; g runs once per vector."""
    previous_hi = float("-inf")
    for block in blocks:
        values = [g(v) for v in block]
        if max(values) - min(values) > TOLERANCE or min(values) - previous_hi <= TOLERANCE:
            return False
        previous_hi = max(values)
    return True


def _rank_axiom(key: str, first: int, transform, description: str) -> Axiom:
    def violates(f, x, y, param):
        before = [f(x), f(y)]
        after = [f(transform(x, param)), f(transform(y, param))]
        if _sign(*before) != _sign(*after):
            return {"x": x, "y": y, key: param, "before": before, "after": after}
        return None

    def candidates(domain: Domain, f: Index):
        # Cut the f order into blocks within TOLERANCE of their first value.
        # If f keeps the blocks apart, pairs tie exactly within a block, so
        # no pair flips exactly when the transformed f keeps them apart too;
        # if not, ties chain (a ~ b ~ c, a !~ c) and the pair scan decides.
        blocks: list[list[Vector]] = []
        for v in sorted(domain.vectors, key=lambda v: (f(v), len(v), v)):
            if blocks and f(v) - f(blocks[-1][0]) <= TOLERANCE:
                blocks[-1].append(v)
            else:
                blocks.append([v])
        separated = _blocks_stay_apart(blocks, f)
        for param in range(first, domain.spec.c_max + 1):
            if not (separated and _blocks_stay_apart(blocks, lambda v: f(transform(v, param)))):
                yield from ((x, y, param) for x, y in combinations(domain.vectors, 2))

    return Axiom(description, ("x", "y", key), candidates, violates)


def _uniform_monotonicity_candidates(domain: Domain, f: Index):
    # (c,)*j lies under y exactly when j <= len(y) and c <= y_j, so the
    # largest f over the uniforms under y is the largest running maximum
    # top[j][y_j]; only a y that this maximum exceeds can be in a witness.
    base, c_max = f(()), domain.spec.c_max
    top = [list(accumulate((f((c,) * j) for c in range(1, c_max + 1)), max, initial=base))
           for j in range(1, domain.spec.n_max + 1)]
    suspects = [y for y in domain.vectors
                if max((row[c] for row, c in zip(top, y)), default=base) > f(y) + TOLERANCE]
    return product(domain.uniforms, suspects)


def _add_publication(x: Vector, citations: int) -> Vector:
    return make_vector(x + (citations,))


def _unreachable_targets(domain: Domain, f: Index):
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
    vectors = domain.vectors
    reachable = bytearray(len(vectors))
    reachable[0] = 1  # the empty vector
    for i, j in zip(domain.step_lower, domain.step_upper):
        if reachable[i] and not reachable[j]:
            w = vectors[j]
            if f(w) <= f(vectors[i]) + TOLERANCE or is_uniform(w):
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
        "f never decreases along domination", _violates_m, lambda f, v, w: f(v) <= f(w)
    ),
    AxiomId.STRICT_MONOTONICITY: _domination_axiom(
        "f strictly increases along strict domination",
        _violates_sm,
        lambda f, v, w: _violates_sm(f, v, w) is None,
    ),
    AxiomId.SCALE_INVARIANCE: Axiom(
        "scaling citations by C scales f by C",
        ("x", "factor"),
        lambda domain, f: product(domain.vectors, range(1, domain.spec.c_max + 1)),
        _violates_si,
    ),
    AxiomId.SELF_CONJUGACY: Axiom("f is unchanged by conjugation", ("x",), _each_vector, _violates_sc),
    AxiomId.RECTANGLE_COMPLETION: Axiom(
        "f(x + citation at k) = max(f(x), k * (x_k + 1))", ("x", "position"), _growth_steps, _violates_rc
    ),
    AxiomId.UNIFORM_CITATION: Axiom(
        "on uniform vectors f equals the citation count",
        ("x",),
        lambda domain, f: ((u,) for u in domain.uniforms),
        _violates_citation_count,
    ),
    AxiomId.UNIFORM_EQUIVALENCE: Axiom(
        "some dominated uniform vector has the same f", ("x",), _each_vector, _violates_ue
    ),
    AxiomId.CITATION_INCREASE: Axiom(
        "one citation to every publication raises f",
        ("x",),
        # no publications means nothing receives a citation
        lambda domain, f: ((x,) for x in domain.vectors if x),
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
        lambda domain, f: (((1,) * j,) for j in range(domain.spec.n_max + 1)),
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
) -> AxiomVerdict:
    """Scan one axiom for one index over a finite domain.

    Returns a verdict whose counterexample, if any, is the first in
    canonical enumeration order and replays independently.  A ``Domain``
    is used as built; ``sample_size`` only applies when one is built here.
    """
    axiom = AxiomId(axiom)
    domain = _as_domain(domain, sample_size)
    return _verdict(index.name, axiom.value, domain, _first_witness(AXIOMS[axiom], index.evaluate, domain))


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
    return _verdict("chi", "CHI_STEP_BOUND", domain, _first_witness(_CHI_STEP, chi_index, domain))
