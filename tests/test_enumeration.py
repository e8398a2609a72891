from __future__ import annotations

import pytest
from hypothesis import given

from conftest import citation_vectors
from recindex.core import citation_count, dominates, is_uniform, rec
from recindex.enumeration import (
    DomainBudgetError,
    DomainSpec,
    brute_force_rec,
    count_vectors,
    domination_pairs,
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


def test_enumeration_matches_recursive_counter_up_to_8x8():
    for n in range(1, 9):
        for c in range(1, 9):
            assert len(list(enumerate_vectors(DomainSpec(n, c)))) == count_vectors(n, c)


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


def test_domination_pairs_smallest_domains():
    assert list(domination_pairs(DomainSpec(1, 1))) == [
        ((), ()),
        ((), (1,)),
        ((1,), (1,)),
    ]
    assert sum(1 for _ in domination_pairs(DomainSpec(2, 2))) == 20


def test_brute_force_rec_known_values():
    assert brute_force_rec(()) == 0
    assert brute_force_rec((6, 4, 3, 1)) == 9
    assert brute_force_rec((100,)) == 100
    assert brute_force_rec((1,) * 100) == 100


@given(citation_vectors())
def test_brute_force_rec_agrees_with_formula(x):
    assert brute_force_rec(x) == rec(x)
