from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given

from conftest import citation_vectors
from recindex.axioms import build_domain
from recindex.core import citation_count, dominates, is_uniform, rec
from recindex.enumeration import (
    DomainBudgetError,
    DomainSpec,
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


@pytest.mark.parametrize("bounds", [(1, 1), (2, 3), (3, 2), (4, 4), (5, 5)])
def test_domain_steps_are_the_domination_pairs_one_citation_apart(bounds):
    domain = build_domain(DomainSpec(*bounds))
    ids = {v: i for i, v in enumerate(domain.vectors)}
    oracle = {
        (ids[x], ids[y])
        for x, y in domination_pairs(domain.spec)
        if citation_count(y) == citation_count(x) + 1
    }
    assert domain.uniforms == [v for v in domain.vectors if is_uniform(v)]
    steps = list(zip(domain.step_lower, domain.step_upper))
    assert len(steps) == len(oracle)
    assert set(steps) == oracle
    assert all(a <= b for a, b in zip(domain.step_lower, domain.step_lower[1:]))


def test_sampled_domain_has_no_steps():
    domain = build_domain(DomainSpec(14, 14, seed=1), sample_size=40)
    assert not domain.exhaustive
    assert len(domain.step_lower) == len(domain.step_upper) == 0


def test_brute_force_rec_known_values():
    assert brute_force_rec(()) == 0
    assert brute_force_rec((6, 4, 3, 1)) == 9
    assert brute_force_rec((100,)) == 100
    assert brute_force_rec((1,) * 100) == 100


@given(citation_vectors())
def test_brute_force_rec_agrees_with_formula(x):
    assert brute_force_rec(x) == rec(x)
