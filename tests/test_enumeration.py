from __future__ import annotations

import time
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given

from conftest import citation_vectors
from recindex.axioms import build_domain
from recindex.core import add_citation_at, citation_count, dominates, is_uniform, rec, valid_positions
from recindex.enumeration import (
    DomainBudgetError,
    DomainSpec,
    EXHAUSTIVE_BUDGET,
    box_size,
    brute_force_rec,
    count_vectors,
    enumerate_uniform_dominated,
    enumerate_vectors,
    sample_vectors,
)


def test_domain_spec_rejects_bad_bounds():
    with pytest.raises(ValueError):
        DomainSpec(0, 3)
    with pytest.raises(ValueError):
        DomainSpec(3, 0)


def test_domain_spec_copies_are_checked_too():
    assert DomainSpec(3, 4)._replace(seed=5) == DomainSpec(3, 4, seed=5)
    with pytest.raises(ValueError):
        DomainSpec(3, 4)._replace(c_max=0)
    with pytest.raises(ValueError):
        DomainSpec._make((0, 4, None))


def test_smallest_domains():
    assert list(enumerate_vectors(DomainSpec(1, 1))) == [(), (1,)]
    assert list(enumerate_vectors(DomainSpec(2, 2))) == [
        (),
        (1,),
        (2,),
        (1, 1),
        (2, 1),
        (2, 2),
    ]


def test_domain_sizes():
    assert count_vectors(1, 1) == 2
    assert count_vectors(2, 2) == 6
    assert count_vectors(3, 3) == 20


@lru_cache(maxsize=None)
def recursive_count(n_max: int, c_max: int) -> int:
    """The counting oracle: vectors grouped by their first entry f, the
    remainder being a vector of at most n_max - 1 entries each at most f."""
    if n_max == 0:
        return 1
    return sum(recursive_count(n_max - 1, first) for first in range(c_max + 1))


def _partitions(total: int, max_part: int, max_len: int):
    if total == 0:
        yield ()
        return
    if max_len == 0:
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first, max_len - 1):
            yield (first, *rest)


def partition_order(spec: DomainSpec):
    """The enumeration oracle: the partitions of each total, each total
    sorted by length and entries."""
    for total in range(spec.n_max * spec.c_max + 1):
        yield from sorted(_partitions(total, spec.c_max, spec.n_max), key=lambda v: (len(v), v))


def test_enumeration_matches_recursive_counter_up_to_8x8():
    for n in range(1, 9):
        for c in range(1, 9):
            spec = DomainSpec(n, c)
            assert list(enumerate_vectors(spec)) == list(partition_order(spec)), spec
            assert count_vectors(n, c) == recursive_count(n, c), spec


def test_enumeration_is_canonical_and_deterministic():
    spec = DomainSpec(4, 4)
    first = list(enumerate_vectors(spec))
    assert first == list(enumerate_vectors(spec))
    keys = [(citation_count(v), len(v), v) for v in first]
    assert keys == sorted(keys)
    assert len(set(first)) == len(first)


def test_enumeration_refuses_oversized_domains():
    with pytest.raises(DomainBudgetError):
        list(enumerate_vectors(DomainSpec(40, 40)))


def test_box_size_admits_exactly_the_boxes_within_the_budget():
    edges = [(1, 9_999_999), (1, 10_000_000), (9_999_999, 1), (10_000_000, 1), (2, 4470), (2, 4471)]
    for n, c in [*((n, c) for n in range(1, 13) for c in range(1, 13)), *edges]:
        count = count_vectors(n, c)
        if count <= EXHAUSTIVE_BUDGET:
            assert box_size(DomainSpec(n, c)) == count, (n, c)
        else:
            with pytest.raises(DomainBudgetError):
                box_size(DomainSpec(n, c))


def test_a_huge_box_is_refused_without_its_exact_count():
    # math.comb(2 * 10**6, 10**6), the exact count of this box, takes tens of seconds.
    start = time.perf_counter()
    with pytest.raises(DomainBudgetError, match="exhaustive budget"):
        box_size(DomainSpec(10**6, 10**6))
    assert time.perf_counter() - start < 1.0


def test_sampling_is_seeded_and_deterministic():
    spec = DomainSpec(40, 40, seed=7)
    a = sample_vectors(spec, 50)
    b = sample_vectors(spec, 50)
    assert a == b
    assert a[0] == ()
    assert all(len(v) <= 40 and (not v or v[0] <= 40) for v in a)
    with pytest.raises(ValueError):
        sample_vectors(DomainSpec(40, 40), 50)
    for size in (0, -5):
        with pytest.raises(ValueError, match=f"sample size must be at least 1, got {size}"):
            sample_vectors(spec, size)


def test_uniform_dominated_staircase():
    uniforms = list(enumerate_uniform_dominated((6, 4, 3, 1)))
    assert uniforms[0] == ()
    assert len(uniforms) - 1 == 6 + 4 + 3 + 1
    assert all(is_uniform(u) for u in uniforms)
    assert all(dominates(u, (6, 4, 3, 1)) for u in uniforms)


def test_uniform_dominated_square():
    assert list(enumerate_uniform_dominated((2, 2))) == [(), (1,), (2,), (1, 1), (2, 2)]


def domination_pairs(spec: DomainSpec):
    """The pair oracle: all ordered pairs (x, y) of domain vectors with x
    dominated by y."""
    vectors = list(enumerate_vectors(spec))
    for x in vectors:
        for y in vectors:
            if dominates(x, y):
                yield x, y


def test_domination_pairs_smallest_domains():
    assert list(domination_pairs(DomainSpec(1, 1))) == [
        ((), ()),
        ((), (1,)),
        ((1,), (1,)),
    ]
    assert sum(1 for _ in domination_pairs(DomainSpec(2, 2))) == 20


# a step's rank reaches n_max + 1, so from 127 entries it no longer fits a signed byte
@pytest.mark.parametrize("bounds", [(1, 1), (2, 3), (3, 2), (4, 4), (5, 5), (126, 1), (127, 1), (130, 1)])
def test_domain_steps_are_the_domination_pairs_one_citation_apart(bounds):
    domain = build_domain(DomainSpec(*bounds))
    ids = {v: i for i, v in enumerate(domain.vectors)}
    oracle = {
        (ids[x], ids[y])
        for x, y in domination_pairs(domain.spec)
        if citation_count(y) == citation_count(x) + 1
    }
    assert domain.uniforms == [v for v in domain.vectors if is_uniform(v)]
    # the list holds every valid step once, in (id, rank) order
    vectors = domain.vectors
    valid = [(i, k) for i, x in enumerate(vectors) for k in valid_positions(x)]
    assert list(zip(domain.step_lower, domain.step_position)) == valid
    # no step grows into (), so the steps of a nonzero upper id are exactly the
    # domination pairs one citation apart, each adding its citation at its rank
    inside = [(i, j, k) for i, j, k in zip(domain.step_lower, domain.step_upper, domain.step_position) if j]
    assert len(inside) == len(oracle)
    assert {(i, j) for i, j, _ in inside} == oracle
    assert 0 not in {j for _, j in oracle}
    for i, j, k in inside:
        assert vectors[j] == add_citation_at(vectors[i], k)
    # and upper id 0 marks exactly the steps that leave the box
    exits = [(i, k) for i, j, k in zip(domain.step_lower, domain.step_upper, domain.step_position) if not j]
    assert len(exits) == len(valid) - len(oracle)
    assert all(add_citation_at(vectors[i], k) not in ids for i, k in exits)


# the first 14x14 oracle sample and the 12x12 sample that CI pins, with
# their counts of in-sample steps and of exits
@pytest.mark.parametrize("bounds, size, inside, exits", [(14, 40, 0, 399), (12, 500, 2, 4214)])
def test_a_sample_lists_its_own_steps_and_the_rest_as_exits(bounds, size, inside, exits):
    domain = build_domain(DomainSpec(bounds, bounds, seed=1), sample_size=size)
    vectors, ids = domain.vectors, domain.ids
    assert not domain.exhaustive
    # its steps are exactly its own pairs one citation apart
    apart = {
        (i, j)
        for (i, x), (j, y) in product(enumerate(vectors), repeat=2)
        if citation_count(y) == citation_count(x) + 1 and dominates(x, y)
    }
    steps = [(i, j) for i, j in zip(domain.step_lower, domain.step_upper) if j]
    assert len(steps) == len(apart) == inside and set(steps) == apart
    valid = [(i, k) for i, x in enumerate(vectors) for k in valid_positions(x)]
    grown = [ids.get(add_citation_at(vectors[i], k), 0) for i, k in valid]
    assert list(zip(domain.step_lower, domain.step_upper, domain.step_position)) == [
        (i, j, k) for (i, k), j in zip(valid, grown)
    ]
    assert grown.count(0) == exits


# the 14x14 oracle samples, the 30x30 registry sample and a denser 12x12 one
@pytest.mark.parametrize(
    "bounds, seed, size", [(14, 1, 40), (14, 2, 40), (14, 3, 40), (30, 5, 60), (12, 1, 200), (14, 4, 1)]
)
def test_sampled_domain_lists_its_domination_pairs(bounds, seed, size):
    domain = build_domain(DomainSpec(bounds, bounds, seed=seed), sample_size=size)
    vectors = domain.vectors
    assert len(set(vectors)) == len(vectors) and not domain.exhaustive
    naive = [
        (i, j) for i, x in enumerate(vectors) for j, y in enumerate(vectors) if i != j and dominates(x, y)
    ]
    assert list(zip(domain.pair_lower, domain.pair_upper)) == naive
    assert domain.pair_lower.typecode == domain.pair_upper.typecode == "i"


@pytest.mark.parametrize("bounds", [(1, 1), (2, 3), (4, 4), (5, 5), (130, 1)])
def test_a_box_lists_no_domination_pairs(bounds):
    domain = build_domain(DomainSpec(*bounds))
    assert domain.exhaustive and len(domain.pair_lower) == len(domain.pair_upper) == 0


def test_brute_force_rec_known_values():
    assert brute_force_rec(()) == 0
    assert brute_force_rec((6, 4, 3, 1)) == 9
    assert brute_force_rec((100,)) == 100
    assert brute_force_rec((1,) * 100) == 100


@given(citation_vectors())
def test_brute_force_rec_agrees_with_formula(x):
    assert brute_force_rec(x) == rec(x)
