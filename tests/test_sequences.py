from __future__ import annotations

import re
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import citation_vectors, naive_is_valid_vector
from recindex.axioms import CHI, H, counterexample_registry
from recindex.core import (
    TOLERANCE,
    add_citation_at,
    citation_count,
    dominates,
    is_uniform,
    rec,
    valid_positions,
)
from recindex.enumeration import DomainSpec, canonical_key, enumerate_vectors
from recindex.sequences import (
    ABSENT,
    FOUND,
    ConstructiveSequence,
    build_rec_incremental,
    is_constructive,
    is_f_incremental,
    search_incremental,
)

GOOD_STEPS = [(), (1,), (1, 1), (2, 1), (2, 2)]


def test_is_constructive_accepts_good_sequence():
    assert is_constructive(GOOD_STEPS, (2, 2))


def test_is_constructive_trivial_empty_target():
    assert is_constructive([()], ())


def test_is_constructive_rejections():
    assert not is_constructive([], (1,))
    assert not is_constructive([(), (2,)], (2,))  # two citations in one step
    assert not is_constructive([(), (1,), (2,)], (2, 2))  # wrong endpoint
    assert not is_constructive([(1,), (1, 1)], (1, 1))  # must start empty
    assert not is_constructive([(), (1,), (1, 2)], (1, 2))  # invalid vector
    # one citation per step, but (1,1,1) does not dominate (2,)
    assert not is_constructive([(), (1,), (2,), (1, 1, 1)], (1, 1, 1))


def naive_is_constructive(steps, target):
    """Each rule of a constructive sequence written out on its own: at least
    one step, every step and the target a valid vector, () first, the target
    last, one step per citation, and each step dominated by the next with
    exactly one citation more."""
    seq, goal = [tuple(s) for s in steps], tuple(target)
    if not seq or not all(naive_is_valid_vector(s) for s in seq) or not naive_is_valid_vector(goal):
        return False
    if seq[0] != () or seq[-1] != goal or len(seq) != sum(goal) + 1:
        return False
    for a, b in zip(seq, seq[1:]):
        if len(a) > len(b) or any(a[i] > b[i] for i in range(len(a))) or sum(b) != sum(a) + 1:
            return False
    return True


class Cites(IntEnum):
    ONE = 1
    TWO = 2


@st.composite
def step_chains(draw):
    """A constructive sequence grown by random single citations, then possibly
    broken by one edit, with its target."""
    steps = [()]
    for _ in range(draw(st.integers(0, 7))):
        steps.append(add_citation_at(steps[-1], draw(st.sampled_from(valid_positions(steps[-1])))))
    target = steps[-1]
    i = draw(st.integers(0, len(steps) - 1))
    edit = draw(st.sampled_from(["none", "drop", "repeat", "swap", "grow", "target", "lists", "entry"]))
    if edit == "drop":
        del steps[i]
    elif edit == "repeat":
        steps.insert(i, steps[i])
    elif edit == "swap" and i:
        steps[i - 1], steps[i] = steps[i], steps[i - 1]
    elif edit == "grow":
        steps[i] = steps[i] + (1,)
    elif edit == "target":
        target = draw(st.sampled_from([target + (1,), target[:-1], (target[0] + 1,) + target[1:] if target else (1,)]))
    elif edit == "lists":
        steps = [list(s) for s in steps]
    elif edit == "entry" and target:
        steps[-1] = steps[-1][:-1] + (draw(st.sampled_from([True, 1.0, Cites.ONE, 0, -1])),)
    return steps, target


@given(step_chains())
@settings(max_examples=300)
def test_is_constructive_matches_the_naive_rules(chain):
    steps, target = chain
    assert is_constructive(steps, target) == naive_is_constructive(steps, target)


@pytest.mark.parametrize(
    "steps, target, constructive",
    [
        ([(), (Cites.ONE,), (Cites.TWO,)], (2,), True),  # an int subclass other than bool
        ([(), (1,), (Cites.TWO,)], (Cites.TWO,), True),
        ([(), (True,)], (1,), False),  # (True,) == (1,), but a bool is not a count
        ([(), (1.0,)], (1,), False),
        ([(), (1,), (1, 0)], (1, 0), False),
        ([(), (1,), (1, -1)], (1, -1), False),
        ([(), (1,), (1, 1), (1, 2)], (1, 2), False),  # unsorted
        ([[], [1], [1, 1]], [1, 1], True),  # steps given as lists
        ([(), [1], (1, 1)], (1, 1), True),
        (GOOD_STEPS, lambda: (c for c in (2, 2)), True),  # a generator target
        (GOOD_STEPS, lambda: iter([2, 1]), False),
        ([], (), False),  # an empty step list
        ([(), (1,), (1,), (1, 1)], (1, 1), False),  # a repeated step
        ([(), (1,), (1, 1), (3, 1)], (3, 1), False),  # a step that adds two citations
        # Domination alone accepts these two; strict domination and the step count refuse them.
        ([(), (1,), (1,), (3,)], (3,), False),  # a repeated step padded to the right length
        ([(), (1,), (2, 1), (2, 2)], (2, 2), False),  # one step short
        ([(), (1,), (1, 1), (2, 1), (2, 2), (2, 2)], (2, 2), False),  # one step too many
    ],
)
def test_is_constructive_edge_cases(steps, target, constructive):
    fresh = target if callable(target) else lambda: target  # a generator target is read once
    assert is_constructive(steps, fresh()) is constructive
    assert naive_is_constructive(steps, fresh()) is constructive


def test_is_f_incremental_on_uniform_landings():
    seq = ConstructiveSequence(tuple(GOOD_STEPS), (2, 2))
    check = is_f_incremental(seq, rec)
    assert check.ok and check.violation_index is None
    assert bool(check)


def test_is_f_incremental_reports_first_violation():
    steps = ((), (1,), (2,), (3,), (3, 1), (3, 2))
    check = is_f_incremental(ConstructiveSequence(steps, (3, 2)), rec)
    assert not check.ok
    assert check.violation_index == 5  # rec jumps 3 -> 6 landing on <3,2>
    assert not check


def test_is_f_incremental_rejects_non_constructive_input():
    with pytest.raises(ValueError, match="not constructive"):
        is_f_incremental(ConstructiveSequence(((), (2,)), (2,)), rec)


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------


def test_build_empty_and_singleton():
    assert build_rec_incremental(()).steps == ((),)
    assert build_rec_incremental((1,)).steps == ((), (1,))


def test_build_square_exact_path():
    assert build_rec_incremental((2, 2)).steps == ((), (1,), (1, 1), (2, 1), (2, 2))


def test_build_staircase_exact_path():
    built = build_rec_incremental((6, 4, 3, 1))
    assert built.steps == (
        (),
        (1,),
        (1, 1),
        (2, 1),
        (2, 2),
        (2, 2, 1),
        (2, 2, 2),
        (3, 2, 2),
        (3, 3, 2),
        (3, 3, 3),
        (4, 3, 3),
        (5, 3, 3),
        (6, 3, 3),
        (6, 4, 3),
        (6, 4, 3, 1),
    )
    assert len(built.steps) == citation_count((6, 4, 3, 1)) + 1
    assert (3, 3, 3) in built.steps  # the completed maximizing rectangle


def test_build_extends_the_long_dimension_only():
    tall = build_rec_incremental((5,))
    assert tall.steps == ((), (1,), (2,), (3,), (4,), (5,))
    wide = build_rec_incremental((1, 1, 1))
    assert wide.steps == ((), (1,), (1, 1), (1, 1, 1))


@pytest.mark.parametrize(
    "attr, broken",
    [
        # every sequence reads as not constructive, which is_f_incremental refuses with a ValueError
        ("is_constructive", lambda steps, target: False),
        # the widest rectangle of <3,1> is <1,1>, so rec rises onto <3,1>, which is not uniform
        ("max_uniform_dominated", lambda x: (x[-1],) * len(x)),
    ],
)
def test_a_build_that_fails_its_check_raises_runtime_error(monkeypatch, attr, broken):
    monkeypatch.setattr(f"recindex.sequences.{attr}", broken)
    with pytest.raises(RuntimeError, match="invalid sequence for"):
        build_rec_incremental((3, 1))


@pytest.mark.parametrize("target", [(1, 2), (2, 0), (2, -1), [2, 1], (True,), (2.0, 1)])
def test_the_builder_refuses_a_target_that_is_not_a_citation_vector(target):
    with pytest.raises(ValueError, match=rf"target {re.escape(repr(target))} is not a citation vector"):
        build_rec_incremental(target)


def test_a_refused_target_stops_a_map_over_targets():
    # A StopIteration leaking out of the builder would end the map early and silently.
    with pytest.raises(ValueError, match="not a citation vector"):
        list(map(build_rec_incremental, [(2, 1), (1, 2)]))


def _assert_builder_contract(target):
    built = build_rec_incremental(target)
    assert is_constructive(built.steps, target)
    assert is_f_incremental(built, rec)
    rectangle = max(
        (s for s in built.steps if is_uniform(s)), key=citation_count
    )
    assert citation_count(rectangle) == rec(target)
    values = [rec(s) for s in built.steps]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(dominates(s, target) for s in built.steps)


def test_builder_contract_exhaustive_5x5():
    for target in enumerate_vectors(DomainSpec(5, 5)):
        _assert_builder_contract(target)


@settings(max_examples=60)
@given(citation_vectors(max_len=7, max_cite=9))
def test_builder_contract_random(target):
    _assert_builder_contract(target)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_finds_rec_witness():
    outcome = search_incremental((2, 1), rec)
    assert outcome.status == FOUND
    assert outcome.sequence is not None
    assert is_constructive(outcome.sequence.steps, (2, 1))
    assert is_f_incremental(outcome.sequence, rec)


def test_search_empty_target():
    outcome = search_incremental((), rec)
    assert outcome.status == FOUND
    assert outcome.sequence.steps == ((),)


def test_search_definitive_absence_for_citation_count():
    # citation count rises at every step, so landing on the non-uniform
    # target itself already breaks the condition
    outcome = search_incremental((2, 1), citation_count)
    assert outcome.status == ABSENT
    assert outcome.sequence is None


def test_search_agrees_with_builder_on_a_domain():
    for target in enumerate_vectors(DomainSpec(3, 3)):
        assert search_incremental(target, rec).status == FOUND


def test_search_classifies_every_small_target_under_citation_count():
    # citation count rises at every step, so every step must be uniform;
    # uniform-to-uniform single-citation moves exist only along a pure
    # row or a pure column
    for target in enumerate_vectors(DomainSpec(3, 3)):
        outcome = search_incremental(target, citation_count)
        reachable = target == () or len(target) == 1 or target[0] == 1
        assert outcome.status == (FOUND if reachable else ABSENT)


def _recursive_search(target, f):
    """The recursive depth-first search that ``search_incremental`` replaced,
    kept as its oracle: (status, expansions, steps or None)."""
    dead = set()
    path = [()]
    expansions = 0

    def extensions(v):
        out = [add_citation_at(v, k) for k in valid_positions(v)]
        return sorted((w for w in out if dominates(w, target)), key=canonical_key)

    def dfs(v, fv):
        nonlocal expansions
        expansions += 1
        if v == target:
            return True
        for w in extensions(v):
            if w in dead:
                continue
            fw = f(w)
            if fw > fv + TOLERANCE and not is_uniform(w):
                continue
            path.append(w)
            if dfs(w, fw):
                return True
            path.pop()
        dead.add(v)
        return False

    found = dfs((), f(()))
    return (FOUND, expansions, tuple(path)) if found else (ABSENT, expansions, None)


def test_search_matches_the_recursive_oracle_on_a_domain():
    # Every 5x5 target under every registry index, chi and h.
    for index in [*counterexample_registry(), CHI, H]:
        for target in enumerate_vectors(DomainSpec(5, 5)):
            outcome = search_incremental(target, index.evaluate)
            steps = outcome.sequence.steps if outcome.sequence else None
            want = _recursive_search(target, index.evaluate)
            assert (outcome.status, outcome.expansions, steps) == want, (index.name, target)


@pytest.mark.parametrize("target", [(1500,), (3000, 2)])
def test_search_reaches_deep_targets(target):
    # One citation per step: deeper than the interpreter's recursion limit.
    outcome = search_incremental(target, rec)
    assert outcome.status == FOUND
    assert len(outcome.sequence.steps) == citation_count(target) + 1
