from __future__ import annotations

import functools
import json
import random
from array import array
from collections import Counter
from itertools import combinations, product, zip_longest

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import citation_vectors

from recindex import sequences
from recindex.axioms import (
    AXIOMS,
    SATISFIED,
    VIOLATED,
    AxiomId,
    AxiomVerdict,
    IndexUnderTest,
    build_domain,
    CITATION_COUNT,
    CHI,
    CHI_STEP_BOUND,
    H,
    INDEPENDENCE_AXIOMS,
    REC,
    _CHI_STEP,
    _Session,
    _add_publication,
    _blocks_stay_apart,
    _column,
    _flipped_pairs,
    _uniform_equivalence_candidates,
    _violates_ue,
    _violates_um,
    check_axiom,
    check_registry,
    chi_increment_bound,
    counterexample_registry,
    expected_independence_pattern,
    independence_matrix,
    make_index,
    pattern_mismatches,
    replay_counterexample,
)
from recindex.core import (
    TOLERANCE,
    add_citation_at,
    add_one_to_all,
    chi_index,
    citation_count,
    conjugate,
    dominates,
    is_uniform,
    rec,
    rec_index,
    scale,
    valid_positions,
)
from recindex.enumeration import DomainBudgetError, DomainSpec, box_size, canonical_key, enumerate_vectors

#: Every box up to 4x4, each built once and passed to every check over it.
SMALL_BOXES = {(n, c): build_domain(DomainSpec(n, c)) for n in range(1, 5) for c in range(1, 5)}
DOMAIN = SMALL_BOXES[4, 4]


def _registry():
    return {index.name: index for index in counterexample_registry()}


def test_make_index_enforces_zero_baseline():
    for shift in (1, float("nan")):
        with pytest.raises(ValueError, match="empty vector"):
            make_index("shifted", lambda v: len(v) + shift)
    ok = make_index("len", lambda v: len(v))
    assert ok.evaluate((5, 2)) == 2


def test_registry_names_and_order():
    assert [i.name for i in counterexample_registry()] == [
        "avg_rec_citation",
        "h_squared",
        "publication_count",
        "max_citation",
        "max_n_x1",
        "min_n_x1",
        "n_times_min",
        "rec",
    ]


def test_axiom_ids_are_closed_and_described():
    assert len(AxiomId) == 13
    assert {a.value for a in AxiomId} == {
        "M", "SM", "SI", "SC", "RC", "UC", "UE", "CI", "UM", "USC", "UI",
        "RANK_IND", "RANK_SI",
    }


def test_check_axiom_accepts_string_ids():
    verdict = check_axiom(REC, "M", DOMAIN)
    assert verdict.ok
    assert verdict.status == SATISFIED
    assert (verdict.n_max, verdict.c_max, verdict.exhaustive) == (4, 4, True)


def test_the_registry_call_accepts_string_ids_and_refuses_an_unknown_one_first():
    assert check_registry([REC], DOMAIN, ["M", "SI"]) == {
        "rec": {"M": check_axiom(REC, "M", DOMAIN), "SI": check_axiom(REC, "SI", DOMAIN)}
    }

    def unevaluated(v):
        raise AssertionError(f"evaluated {v}")

    # SI's walk would evaluate the index, so a refusal after it would not be the ValueError
    with pytest.raises(ValueError, match="XX"):
        check_registry([IndexUnderTest("never", unevaluated)], DOMAIN, ["SI", "XX"])


# ---------------------------------------------------------------------------
# pinned verdicts and first-in-order witnesses
# ---------------------------------------------------------------------------


def test_rec_verdicts_across_all_axioms():
    passing = {"M", "SI", "SC", "RC", "UC", "UE", "CI", "UM", "USC", "UI", "RANK_SI"}
    for axiom in AxiomId:
        verdict = check_axiom(REC, axiom, DOMAIN)
        assert verdict.ok == (axiom.value in passing), axiom


def test_rec_strict_monotonicity_witness():
    verdict = check_axiom(REC, "SM", DOMAIN)
    assert verdict.status == VIOLATED
    assert verdict.counterexample["x"] == (2,)
    assert verdict.counterexample["y"] == (2, 1)
    assert replay_counterexample(verdict, REC)


def test_avg_rec_citation_fails_uniform_equivalence_at_2_1():
    index = _registry()["avg_rec_citation"]
    verdict = check_axiom(index, "UE", DOMAIN)
    assert verdict.status == VIOLATED
    ce = verdict.counterexample
    assert ce["x"] == (2, 1)
    assert ce["f_x"] == pytest.approx(2.5)
    assert [tuple(u) for u, _ in ce["candidates"]] == [(), (1,), (2,), (1, 1)]
    assert [value for _, value in ce["candidates"]] == [0, 1, 2, 2]
    assert replay_counterexample(verdict, index)


def test_h_squared_fails_uniform_citation_at_2():
    index = _registry()["h_squared"]
    verdict = check_axiom(index, "UC", DOMAIN)
    assert verdict.status == VIOLATED
    assert verdict.counterexample == {"x": (2,), "f_x": 1, "citation_count": 2}
    assert replay_counterexample(verdict, index)


def test_max_citation_fails_uniform_citation_at_1_1():
    index = _registry()["max_citation"]
    verdict = check_axiom(index, "UC", DOMAIN)
    assert verdict.status == VIOLATED
    assert verdict.counterexample["x"] == (1, 1)


def test_max_n_x1_fails_uniform_citation_at_2_2():
    index = _registry()["max_n_x1"]
    verdict = check_axiom(index, "UC", DOMAIN)
    assert verdict.status == VIOLATED
    assert verdict.counterexample["x"] == (2, 2)


def test_n_times_min_fails_monotonicity_with_shrinking_minimum():
    index = _registry()["n_times_min"]
    verdict = check_axiom(index, "M", DOMAIN)
    assert verdict.status == VIOLATED
    ce = verdict.counterexample
    assert (ce["x"], ce["y"]) == ((3,), (3, 1))
    assert (ce["f_x"], ce["f_y"]) == (3, 2)
    assert replay_counterexample(verdict, index)


def test_min_n_x1_fails_uniform_equivalence_despite_passing_elsewhere():
    # min(n, x1) keeps monotonicity but <2,1> scores 2 while every
    # dominated uniform vector scores at most 1
    index = _registry()["min_n_x1"]
    verdict = check_axiom(index, "UE", DOMAIN)
    assert verdict.status == VIOLATED
    assert verdict.counterexample["x"] == (2, 1)
    assert replay_counterexample(verdict, index)
    assert check_axiom(index, "M", DOMAIN).ok
    assert not check_axiom(index, "UC", DOMAIN).ok


def test_citation_count_keeps_the_rank_properties():
    for axiom in ("SM", "RANK_IND", "RANK_SI"):
        assert check_axiom(CITATION_COUNT, axiom, DOMAIN).ok


def test_h_fails_rank_scale_invariance():
    verdict = check_axiom(H, "RANK_SI", DOMAIN)
    assert verdict.status == VIOLATED
    assert replay_counterexample(verdict, H)


def test_rec_and_chi_fail_rank_independence_and_replay():
    for index in (REC, CHI):
        verdict = check_axiom(index, "RANK_IND", DOMAIN)
        assert verdict.status == VIOLATED
        assert replay_counterexample(verdict, index)


def test_citation_count_uniform_increment_absence_witness():
    verdict = check_axiom(CITATION_COUNT, "UI", SMALL_BOXES[3, 3])
    assert verdict.status == VIOLATED
    assert verdict.counterexample["target"] == (2, 1)
    assert replay_counterexample(verdict, CITATION_COUNT)


def test_witnesses_read_back_from_json_replay_only_for_their_index():
    # Lists stand in for tuples once a verdict has been through JSON.  A
    # witness never replays against rec for an axiom rec satisfies.
    rec_keeps = {a for a in AxiomId if check_axiom(REC, a, SMALL_BOXES[3, 3]).ok}
    replayed = 0
    for index in counterexample_registry():
        for axiom in AxiomId:
            verdict = check_axiom(index, axiom, SMALL_BOXES[3, 3])
            if verdict.ok:
                continue
            parsed = AxiomVerdict(**json.loads(json.dumps(verdict._asdict())))
            assert replay_counterexample(parsed, index), (index.name, axiom)
            if axiom in rec_keeps:
                assert not replay_counterexample(parsed, REC), (index.name, axiom)
            replayed += 1
    assert replayed > len(AxiomId)


def test_replay_returns_false_for_clean_verdicts():
    verdict = check_axiom(REC, "M", DOMAIN)
    assert replay_counterexample(verdict, REC) is False


#: Candidates outside their axiom's premise, each of which some registry
#: index would break if the predicate left the premise to the scan's filters:
#: M and SM need x under y and x != y, UM and UC a uniform x, USC an x of
#: ones and CI a publication to cite.
NON_WITNESSES = [
    ("M", {"x": (3,), "y": (1, 1)}),
    ("SM", {"x": (2, 1), "y": (2, 1)}),
    ("UM", {"x": (3, 2), "y": (3, 2, 1)}),
    ("UC", {"x": (2, 1)}),
    ("USC", {"x": (2, 1)}),
    ("USC", {"x": (2, 2)}),
    ("CI", {"x": ()}),
]


@pytest.mark.parametrize("axiom, counterexample", NON_WITNESSES, ids=[f"{a}-{c['x']}" for a, c in NON_WITNESSES])
def test_a_candidate_outside_the_premise_replays_for_no_index(axiom, counterexample):
    for index in counterexample_registry():
        verdict = AxiomVerdict(index.name, axiom, 4, 4, True, VIOLATED, counterexample)
        assert replay_counterexample(verdict, index) is False, index.name
        parsed = AxiomVerdict(**json.loads(json.dumps(verdict._asdict())))
        assert replay_counterexample(parsed, index) is False, index.name


@pytest.mark.parametrize(
    "axiom, counterexample",
    [
        pytest.param("UC", {"x": [1, 2]}, id="ascending"),
        pytest.param("M", {"x": [1], "y": [1, 0]}, id="zero"),
        pytest.param("CI", {"x": [True]}, id="bool"),
        pytest.param("SI", {"x": 3, "factor": 2}, id="int"),
        pytest.param("RANK_IND", {"x": [1], "y": [2.0], "added_citations": 1}, id="float"),
        pytest.param("UI", {"target": [-1]}, id="negative"),
    ],
)
def test_replay_refuses_a_vector_that_is_not_a_citation_vector(axiom, counterexample):
    verdict = AxiomVerdict("rec", axiom, 4, 4, True, VIOLATED, counterexample)
    with pytest.raises(ValueError, match="not a citation vector"):
        replay_counterexample(verdict, REC)


@pytest.mark.parametrize(
    "axiom, key, value",
    [
        *(("RANK_IND", "added_citations", c) for c in (0, -2, 1.5, True)),
        ("SI", "factor", 0),
        ("RANK_SI", "factor", False),
        ("RC", "position", 0),
        ("RC", "position", "1"),
        (CHI_STEP_BOUND, "position", 0),
    ],
)
def test_replay_refuses_an_integer_key_outside_its_premise(axiom, key, value):
    # The scan reads factors, ranks and added citations from 1 up; an extra key is ignored.
    counterexample = {"x": [1], "y": [2], key: value}
    for index in counterexample_registry():
        verdict = AxiomVerdict(index.name, axiom, 4, 4, True, VIOLATED, counterexample)
        with pytest.raises(ValueError, match=f"witness key '{key}' is not an integer of at least 1"):
            replay_counterexample(verdict, index)


@pytest.mark.parametrize(
    "axiom, counterexample, keys",
    [
        pytest.param("M", {"x": [2]}, "x, y", id="missing-key"),
        pytest.param("RC", [[2], 1], "x, position", id="list"),
        pytest.param("UI", "(2, 1)", "target", id="string"),
        pytest.param("RANK_SI", {"x": [1], "y": [2]}, "x, y, factor", id="missing-param"),
        pytest.param(CHI_STEP_BOUND, {"x": [2]}, "x, position", id="chi-missing-position"),
    ],
)
def test_replay_refuses_a_malformed_counterexample_naming_its_keys(axiom, counterexample, keys):
    verdict = AxiomVerdict("rec", axiom, 4, 4, True, VIOLATED, counterexample)
    with pytest.raises(ValueError, match=f"witness of axiom {axiom} is a dict with the keys {keys}:"):
        replay_counterexample(verdict, REC)


def test_replay_refuses_an_unknown_axiom_naming_it():
    verdict = AxiomVerdict("rec", "XX", 4, 4, True, VIOLATED, {"x": [1]})
    with pytest.raises(ValueError, match="XX"):
        replay_counterexample(verdict, REC)


def test_a_chi_bound_witness_replays_for_its_index_and_not_for_chi(monkeypatch):
    # h_squared rises by 3 from <2,1> to <2,2>, so the chi bound's scan over it finds a witness.
    h_squared = _registry()["h_squared"]
    monkeypatch.setattr("recindex.axioms.CHI", h_squared)
    verdict = chi_increment_bound(DOMAIN)
    assert (verdict.axiom, verdict.status) == (CHI_STEP_BOUND, VIOLATED)
    parsed = AxiomVerdict(**json.loads(json.dumps(verdict._asdict())))
    assert replay_counterexample(parsed, h_squared)
    assert replay_counterexample(parsed, CHI) is False
    edited = parsed._replace(counterexample={**parsed.counterexample, "x": [2, 1], "position": 2})
    assert replay_counterexample(edited, h_squared)


def _naive_dominated(x, y) -> bool:
    return len(x) <= len(y) and all(x[i] <= y[i] for i in range(len(x)))


def _naive_sign(a, b):
    diff = a - b
    return 0 if abs(diff) <= TOLERANCE else 1 if diff > 0 else -1 if diff < 0 else "no sign"


def _naive_flip(before, after) -> bool:
    signs = _naive_sign(*before), _naive_sign(*after)
    return signs[0] != signs[1] or "no sign" in signs


def _off(a, b) -> bool:
    return not abs(a - b) <= TOLERANCE


def _naive_scale(v, factor):
    return tuple(e * factor for e in v)


def _naive_breaks(axiom: str, f, x, *rest) -> bool:
    """Whether the candidate breaks the axiom, from its description in ``AXIOMS``, with nothing of the scan."""
    uniform = len(set(x)) <= 1
    if axiom in ("M", "UM"):  # f never decreases along domination, for UM from a uniform vector
        (y,) = rest
        return (axiom == "M" or uniform) and x != y and _naive_dominated(x, y) and f(x) - f(y) > TOLERANCE
    if axiom == "SM":  # f strictly increases along strict domination
        (y,) = rest
        return x != y and _naive_dominated(x, y) and not f(y) - f(x) > TOLERANCE
    if axiom == "SI":  # scaling citations by C scales f by C
        (factor,) = rest
        return _off(f(_naive_scale(x, factor)), factor * f(x))
    if axiom == "SC":  # f is unchanged by conjugation
        return _off(f(tuple(sum(1 for e in x if e >= i) for i in range(1, (x[0] if x else 0) + 1))), f(x))
    if axiom == "RC":  # f(x + citation at k) = max(f(x), k * (x_k + 1))
        (k,) = rest
        grown = list(x) + [0]
        grown[k - 1] += 1
        return _off(f(tuple(e for e in grown if e)), max(f(x), k * grown[k - 1]))
    if axiom == "UC":  # on uniform vectors f equals the citation count
        return uniform and _off(f(x), sum(x))
    if axiom == "USC":  # f of n singly-cited publications is n
        return all(e == 1 for e in x) and _off(f(x), len(x))
    if axiom == "UE":  # some dominated uniform vector has the same f
        under = [()] + [(c,) * j for j in range(1, len(x) + 1) for c in range(1, x[j - 1] + 1)]
        return all(_off(f(u), f(x)) for u in under)
    if axiom == "CI":  # one citation to every publication raises f
        return len(x) > 0 and not f(tuple(e + 1 for e in x)) - f(x) > TOLERANCE
    y, param = rest
    if axiom == "RANK_IND":  # adding the same new publication preserves ranking
        after = [f(tuple(sorted(v + (param,), reverse=True))) for v in (x, y)]
    else:  # RANK_SI: scaling both records preserves ranking
        after = [f(_naive_scale(v, param)) for v in (x, y)]
    return _naive_flip((f(x), f(y)), after)


_SMALL_VECTORS = st.one_of(
    citation_vectors(max_len=4, max_cite=5),
    st.builds(lambda c, j: (c,) * j, st.integers(1, 5), st.integers(0, 4)),
)


@st.composite
def candidates_of_every_axiom(draw):
    """One candidate for each axiom but UI, whose predicate is the sequence search itself; y is
    drawn above x, which it then dominates, as often as apart from it."""
    x, other = draw(_SMALL_VECTORS), draw(_SMALL_VECTORS)
    if draw(st.booleans()):
        other = tuple(max(a, b) for a, b in zip_longest(x, other, fillvalue=0))
    k = draw(st.sampled_from(valid_positions(x)))
    factor, added = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    params = {"x": x, "y": other, "position": k, "factor": factor, "added_citations": added}
    return {a: tuple(params[key] for key in AXIOMS[a].keys) for a in AxiomId if a is not AxiomId.UNIFORM_INCREMENT}


@settings(max_examples=300, deadline=None)
@given(candidates_of_every_axiom())
def test_a_predicate_accepts_exactly_the_candidates_that_break_its_axiom(candidates):
    for index in counterexample_registry() + [CHI, H, CITATION_COUNT]:
        for axiom, candidate in candidates.items():
            accepted = AXIOMS[axiom].violates(index.evaluate, *candidate) is not None
            assert accepted == _naive_breaks(axiom.value, index.evaluate, *candidate), (index.name, axiom, candidate)


# ---------------------------------------------------------------------------
# independence matrix
# ---------------------------------------------------------------------------


def test_independence_matrix_shape_and_exhaustiveness():
    matrix = independence_matrix(DOMAIN)
    assert set(matrix) == set(expected_independence_pattern())
    for row in matrix.values():
        assert set(row) == {"M", "UC", "UE"}
        assert all(v.exhaustive for v in row.values())


def test_independence_matrix_matches_documented_pattern_except_one_cell():
    matrix = independence_matrix(DOMAIN)
    mismatches = pattern_mismatches(matrix)
    assert len(mismatches) == 1
    name, axiom, want, verdict = mismatches[0]
    assert (name, axiom) == ("min_n_x1", "UE")
    assert want == SATISFIED
    assert verdict.status == VIOLATED
    assert verdict.counterexample["x"] == (2, 1)


def test_registry_rows_isolate_the_three_core_properties():
    matrix = independence_matrix(DOMAIN)
    profiles = {
        name: tuple(row[a].status for a in ("M", "UC", "UE"))
        for name, row in matrix.items()
    }
    assert profiles["rec"] == (SATISFIED, SATISFIED, SATISFIED)
    assert profiles["avg_rec_citation"] == (SATISFIED, SATISFIED, VIOLATED)
    assert profiles["n_times_min"] == (VIOLATED, SATISFIED, SATISFIED)
    assert profiles["h_squared"] == (SATISFIED, VIOLATED, SATISFIED)


def test_monotone_uniform_equivalent_indices_gain_citation_increase():
    # any index passing M, UC and UE on the domain also passes CI there
    for index in counterexample_registry():
        core = [check_axiom(index, a, DOMAIN).ok for a in ("M", "UC", "UE")]
        if all(core):
            assert check_axiom(index, "CI", DOMAIN).ok, index.name


def test_rectangle_completion_pins_down_rec_on_the_domain():
    for index in counterexample_registry():
        verdict = check_axiom(index, "RC", DOMAIN)
        assert verdict.ok == (index.name == "rec"), index.name


# ---------------------------------------------------------------------------
# optimised checkers against naive scans
# ---------------------------------------------------------------------------


def _naive_monotone(index, vectors, strict):
    ev = index.evaluate
    for x in vectors:
        for y in vectors:
            if not dominates(x, y):
                continue
            if strict and x != y and ev(y) <= ev(x) + TOLERANCE:
                return False
            if not strict and ev(x) > ev(y) + TOLERANCE:
                return False
    return True


def test_edge_scan_monotonicity_agrees_with_pair_scan():
    vectors = list(enumerate_vectors(DomainSpec(3, 3)))
    for index in counterexample_registry():
        for axiom, strict in (("M", False), ("SM", True)):
            fast = check_axiom(index, axiom, SMALL_BOXES[3, 3]).ok
            assert fast == _naive_monotone(index, vectors, strict), (index.name, axiom)


def _naive_rank(index, vectors, transform):
    ev = index.evaluate

    def sign(a, b):
        diff = ev(a) - ev(b)
        return 0 if abs(diff) <= TOLERANCE else (1 if diff > 0 else -1)

    for i, x in enumerate(vectors):
        for y in vectors[i + 1 :]:
            tx, ty = transform(x), transform(y)
            before = sign(x, y)
            diff = index.evaluate(tx) - index.evaluate(ty)
            after = 0 if abs(diff) <= TOLERANCE else (1 if diff > 0 else -1)
            if before != after:
                return False
    return True


def test_rank_checks_agree_with_naive_pair_scans():
    vectors = list(enumerate_vectors(DomainSpec(3, 3)))
    for index in counterexample_registry():
        si = all(
            _naive_rank(index, vectors, lambda v, c=c: scale(v, c)) for c in range(2, 4)
        )
        assert check_axiom(index, "RANK_SI", SMALL_BOXES[3, 3]).ok == si, index.name
        ind = all(
            _naive_rank(
                index,
                vectors,
                lambda v, e=e: tuple(sorted(v + (e,), reverse=True)),
            )
            for e in range(1, 4)
        )
        assert check_axiom(index, "RANK_IND", SMALL_BOXES[3, 3]).ok == ind, index.name


def _value_table(seed: int, key) -> IndexUnderTest:
    """A seeded random index of ``key(v)`` with exact ties and ties that
    chain within TOLERANCE (0 ~ 0.6T ~ 1.2T, but 0 and 1.2T differ).
    Keyed by length or total, the RANK transforms move whole tie blocks
    together; vectors outside the box draw from the same levels."""
    levels = [0.0, 0.6 * TOLERANCE, 1.2 * TOLERANCE, 1.8 * TOLERANCE, 1.0, 1.0 + 0.6 * TOLERANCE, 2.0]
    return make_index(
        f"{key.__name__}_table_{seed}",
        lambda v: random.Random(f"{seed}:{key(v)}").choice(levels) if v else 0.0,
    )


#: f by the largest count.  On the 4x4 box, scaling by 2 keeps each block
#: of tied values within TOLERANCE, but (4,) and (3,) go from apart to
#: tied, which only the gap to the block's largest scaled value shows.
_PEAK_LEVELS = {2: 0.5 * TOLERANCE, 3: 5.0, 4: 0.5 * TOLERANCE, 6: 1.5 * TOLERANCE, 8: 0.9 * TOLERANCE}

ADVERSARIAL = [
    *(_value_table(seed, key) for seed in range(2) for key in (tuple, len, citation_count)),
    # non-monotone: every citation lowers f by less than TOLERANCE
    make_index("drift", lambda v: -0.6 * TOLERANCE * citation_count(v)),
    # neighbours in f order tie before and after adding a publication,
    # but () and (1, 1) go from unequal to tied
    make_index("short_len", lambda v: 0.6 * TOLERANCE * min(len(v), 2)),
    # f does not keep its blocks apart (0 ~ 0.6T ~ 1.2T), while adding a
    # publication does; (1,) and (1, 1) go from tied to apart
    make_index("step_len", lambda v: 0.6 * TOLERANCE * len(v) if len(v) <= 2 else 10.0 * (len(v) - 2)),
    # () and (1,) tie, but adding a publication spreads them to 0 and 5
    make_index("len_after_first", lambda v: 5 * max(len(v) - 1, 0)),
    make_index("peak_table", lambda v: _PEAK_LEVELS.get(max(v, default=0), 0.0)),
]

#: One NaN object for every table below, so that witnesses holding it
#: compare equal.
NAN = float("nan")

#: rec with one value put in from a table: NaN, +inf or -inf at one vector.
#: Every comparison with a NaN difference breaks a property, and the
#: filters' shortcuts (exact maps, running maxima, sorted blocks, edge
#: tests) must not drop the witnesses that makes.  (8, 6) lies outside the
#: 4x4 box, where only the table of (4, 3) scaled by 2 holds its value.
NON_FINITE = [
    *(
        make_index(f"rec_{value}_at_{''.join(map(str, at))}", lambda v, table={at: value}: table.get(v, rec(v)))
        for value in (NAN, float("inf"), float("-inf"))
        for at in [(1,), (2,), (2, 1), (1, 1), (3, 2, 1), (8, 6)]
    ),
    # f never drops along a step, but inf -> inf has a NaN difference
    make_index("rec_inf_from_2", lambda v: float("inf") if dominates((2,), v) else rec(v)),
]

ORACLE_DOMAINS = {
    "4x4": DOMAIN,
    "5x5": build_domain(DomainSpec(5, 5)),
    # some conjugates and add_one_to_all images of these leave the box
    "3x7": build_domain(DomainSpec(3, 7)),
    "7x3": build_domain(DomainSpec(7, 3)),
    # 14x14 is the smallest square box past the exhaustive budget, so
    # the smallest that build_domain samples
    **{f"14x14_seed{seed}": build_domain(DomainSpec(14, 14, seed=seed), sample_size=40) for seed in (1, 2, 3)},
}


def _naive_candidates(axiom: str, domain):
    if axiom in ("M", "SM"):
        return product(domain.vectors, repeat=2)
    if axiom == "UM":
        return product(domain.uniforms, domain.vectors)
    if axiom == "SI":
        return product(domain.vectors, range(1, domain.spec.c_max + 1))
    if axiom in ("UE", "SC"):
        return ((x,) for x in domain.vectors)
    if axiom == "CI":
        return ((x,) for x in domain.vectors if x)
    if axiom == "UC":
        return ((u,) for u in domain.uniforms)
    if axiom == "USC":
        return (((1,) * j,) for j in range(domain.spec.n_max + 1))
    if axiom == "RC":
        return ((x, k) for x in domain.vectors for k in valid_positions(x))
    first = 1 if axiom == "RANK_IND" else 2
    return (
        (x, y, param)
        for param in range(first, domain.spec.c_max + 1)
        for x, y in combinations(domain.vectors, 2)
    )


@pytest.mark.parametrize("axiom", ["M", "SM", "UM", "RANK_IND", "RANK_SI", "SI", "UE", "UC", "USC", "SC", "CI", "RC"])
@pytest.mark.parametrize("domain_name", list(ORACLE_DOMAINS))
def test_filtered_scans_give_the_naive_first_witness(axiom, domain_name):
    domain = ORACLE_DOMAINS[domain_name]
    violates = AXIOMS[AxiomId(axiom)].violates
    for index in counterexample_registry() + ADVERSARIAL + NON_FINITE:
        f = functools.cache(index.evaluate)
        naive = next((w for c in _naive_candidates(axiom, domain) if (w := violates(f, *c)) is not None), None)
        verdict = check_axiom(index, axiom, domain)
        assert (verdict.status, verdict.counterexample) == (
            VIOLATED if naive is not None else SATISFIED,
            naive,
        ), index.name


def test_um_on_a_box_whose_steps_keep_m_reads_no_uniform_table():
    # Every uniform under y joins y by steps inside the box, so once M's exact step rule holds, UM has no witness.
    domain = ORACLE_DOMAINS["5x5"]
    kept = []
    for index in counterexample_registry():
        f = functools.cache(index.evaluate)
        steps = zip(domain.step_lower, domain.step_upper)
        if not all(f(domain.vectors[j]) - f(domain.vectors[i]) >= 0 for i, j in steps):
            continue
        kept.append(index.name)
        session = _Session(index, domain)
        assert check_axiom(index, "M", domain, session=session).ok
        verdict = check_axiom(index, "UM", domain, session=session)
        assert "uniform_rows" not in vars(session), index.name
        naive = next((w for c in _naive_candidates("UM", domain) if (w := _violates_um(f, *c)) is not None), None)
        assert (verdict.status, verdict.counterexample) == (VIOLATED if naive else SATISFIED, naive), index.name
    assert len(kept) == 7 and "n_times_min" not in kept


#: chi with NaN, +inf or -inf at one vector.  (4,), (8,), (1, 1, 1, 1) and
#: (1,) * 8 each lie outside some oracle box, where only a step that
#: leaves the box reaches them.
CHI_VARIANTS = [
    CHI,
    *(
        make_index(f"chi_{value}_at_{''.join(map(str, at))}", lambda v, table={at: value}: table.get(v, chi_index(v)))
        for value in (NAN, float("inf"), float("-inf"))
        for at in [(1,), (2, 1), (1, 1), (3, 2, 1), (4,), (8,), (1, 1, 1, 1), (1,) * 8]
    ),
    # (7, 7, 7) leaves the 3x7 box by both ranks 1 and 4, and both steps
    # break the bound, so the witness shows which one the scan takes first
    make_index("chi_nan_past_777", lambda v: NAN if v in ((8, 7, 7), (7, 7, 7, 1)) else chi_index(v)),
]


@pytest.mark.parametrize("domain_name", list(ORACLE_DOMAINS))
def test_the_chi_bound_gives_the_naive_first_witness(domain_name, monkeypatch):
    domain = ORACLE_DOMAINS[domain_name]
    steps = [(x, k) for x in domain.vectors for k in valid_positions(x)]
    for index in CHI_VARIANTS:
        f = functools.cache(index.evaluate)
        naive = next((w for c in steps if (w := _CHI_STEP.violates(f, *c)) is not None), None)
        monkeypatch.setattr("recindex.axioms.CHI", index)
        verdict = chi_increment_bound(domain)
        assert (verdict.status, verdict.counterexample) == (
            VIOLATED if naive is not None else SATISFIED,
            naive,
        ), index.name


#: The 12x12 sample that CI pins.  Of its 4,216 valid steps only two grow
#: into the sample; the rest leave it.
SAMPLE_12 = build_domain(DomainSpec(12, 12, seed=1), sample_size=500)


def _rc_off_at(y, offset):
    """rec, but offset at y; at each vector one step above y, the value that RC expects from y."""
    table = {y: rec(y) + offset}
    for k in valid_positions(y):
        grown = add_citation_at(y, k)
        table[grown] = max(rec(y) + offset, k * grown[k - 1])
    return make_index(f"rec_{offset:+}_at_{y}", lambda v: table.get(v, rec(v)))


@pytest.mark.parametrize("step", [0, 1])
def test_a_step_inside_a_sample_gives_the_naive_first_witness(step, monkeypatch):
    # Each index breaks RC or the chi bound at one in-sample step and at no exit, so a scan that read only the
    # exits once a step inside fails would report the sample as satisfied.
    domain = SAMPLE_12
    assert len(domain.step_lower) == 2
    inside = (domain.vectors[domain.step_lower[step]], domain.step_position[step])
    y = domain.vectors[domain.step_upper[step]]
    steps = [(x, k) for x in domain.vectors for k in valid_positions(x)]
    chi_off = [
        make_index(f"chi_{value}_at_{y}", lambda v, value=value: value if v == y else chi_index(v))
        for value in (chi_index(y) + 2, float("inf"))
    ]
    cases = [(AXIOMS[AxiomId.RECTANGLE_COMPLETION], _rc_off_at(y, offset)) for offset in (1, -1)]
    for axiom, index in cases + [(_CHI_STEP, index) for index in chi_off]:
        f = functools.cache(index.evaluate)
        naive = [(c, w) for c in steps if (w := axiom.violates(f, *c)) is not None]
        assert [c for c, _ in naive] == [inside], index.name
        if axiom is _CHI_STEP:
            monkeypatch.setattr("recindex.axioms.CHI", index)
            verdict = chi_increment_bound(domain)
        else:
            verdict = check_axiom(index, "RC", domain)
        assert (verdict.status, verdict.counterexample) == (VIOLATED, naive[0][1]), index.name


def test_a_nan_value_breaks_every_property_that_compares_it():
    # f((1,)) = NaN.  UI lets f rise onto any uniform vector, and every
    # step out of (1,) lands on one, so UI alone still holds.
    row = check_registry([NON_FINITE[0]], SMALL_BOXES[3, 3])[NON_FINITE[0].name]
    assert [axiom for axiom, verdict in row.items() if verdict.ok] == ["UI"]


def test_the_pointwise_image_scans_read_the_empty_vector_except_ci():
    # () is its own image under every transform; a NaN there breaks SI and SC,
    # while CI reads only vectors with a publication to cite.
    nan_at_empty = IndexUnderTest("nan_at_empty", lambda v: rec(v) if v else NAN)
    for axiom in ("SI", "SC"):
        assert check_axiom(nan_at_empty, axiom, SMALL_BOXES[3, 3]).counterexample["x"] == (), axiom
    assert check_axiom(nan_at_empty, "CI", SMALL_BOXES[3, 3]).ok
    # every factor breaks SI at (), and the least is reported whatever order the axioms are listed in
    row = check_registry([nan_at_empty], SMALL_BOXES[3, 3], ["RANK_SI", "SI"])["nan_at_empty"]
    assert row["SI"] == check_axiom(nan_at_empty, "SI", SMALL_BOXES[3, 3]) and row["SI"].counterexample["factor"] == 1


def _moved(base, moves: dict) -> IndexUnderTest:
    """``base`` with the values of ``moves`` put in."""
    return make_index("moved", lambda v: moves.get(v, base(v)))


def _zero(v):
    return 0


def _edge(axioms: str, shift: float, base, moves: dict, witness: dict | None):
    return pytest.param(axioms.split(), _moved(base, moves), witness, id=f"{axioms.replace(' ', '+')}-{shift}T")


T = TOLERANCE

#: Each relation at its tolerance edge on the 2x2 box, whose vectors are
#: (), (1,), (2,), (1, 1), (2, 1) and (2, 2) in canonical order.  One value
#: moves 1.5, 1.0 or 0.6 times TOLERANCE from where the property holds.
#: Each difference that a relation reads is exact, so the 1.0 case turns on
#: whether its comparison is strict.  The witnesses are written out, not
#: drawn from the predicates.
RELATION_EDGES = [
    # M and UM break where f drops by more than TOLERANCE, here from (1,) to (2,)
    _edge("M UM", 1.5, _zero, {(1,): 1.5 * T}, {"x": (1,), "y": (2,), "f_x": 1.5 * T, "f_y": 0}),
    _edge("M UM", 1.0, _zero, {(1,): T}, None),
    _edge("M UM", 0.6, _zero, {(1,): 0.6 * T}, None),
    # SM breaks unless f rises by more than TOLERANCE, here from () to (1,)
    _edge("SM", 1.5, citation_count, {(1,): 1.5 * T}, None),
    _edge("SM", 1.0, citation_count, {(1,): T}, {"x": (), "y": (1,), "f_x": 0, "f_y": T}),
    _edge("SM", 0.6, citation_count, {(1,): 0.6 * T}, {"x": (), "y": (1,), "f_x": 0, "f_y": 0.6 * T}),
    # so does CI, here from (1,) to (2,)
    _edge("CI", 1.5, citation_count, {(1,): 0, (2,): 1.5 * T}, None),
    _edge(
        "CI", 1.0, citation_count, {(1,): 0, (2,): T}, {"x": (1,), "incremented": (2,), "f_x": 0, "f_incremented": T}
    ),
    _edge(
        "CI",
        0.6,
        citation_count,
        {(1,): 0, (2,): 0.6 * T},
        {"x": (1,), "incremented": (2,), "f_x": 0, "f_incremented": 0.6 * T},
    ),
    # SI breaks where f(k x) is off k f(x) by more than TOLERANCE, here f(2) off 2 f(1); f(4) = 2 f(2) keeps
    # (2,) in step
    _edge("SI", 1.5, _zero, {(2,): 1.5 * T, (4,): 3 * T}, {"x": (1,), "factor": 2, "f_x": 0, "f_scaled": 1.5 * T}),
    _edge("SI", 1.0, _zero, {(2,): T, (4,): 2 * T}, None),
    _edge("SI", 0.6, _zero, {(2,): 0.6 * T, (4,): 1.2 * T}, None),
    # SC breaks where f of x and of its conjugate differ by more than TOLERANCE, here of (2,) and (1, 1)
    _edge("SC", 1.5, _zero, {(1, 1): 1.5 * T}, {"x": (2,), "conjugate": (1, 1), "f_x": 0, "f_conjugate": 1.5 * T}),
    _edge("SC", 1.0, _zero, {(1, 1): T}, None),
    _edge("SC", 0.6, _zero, {(1, 1): 0.6 * T}, None),
    # UC and USC break where f is off the citation count by more than TOLERANCE, here at (1, 1); only at (),
    # whose count is 0, can the difference be exactly TOLERANCE
    _edge("UC USC", 1.5, citation_count, {(1, 1): 2 + 1.5 * T}, {"x": (1, 1), "f_x": 2 + 1.5 * T, "citation_count": 2}),
    _edge("UC USC", 1.0, citation_count, {(): T}, None),
    _edge("UC USC", 0.6, citation_count, {(1, 1): 2 + 0.6 * T}, None),
]


@pytest.mark.parametrize("axioms, index, witness", RELATION_EDGES)
def test_each_relation_at_its_tolerance_edge(axioms, index, witness):
    for axiom in axioms:
        verdict = check_axiom(index, axiom, SMALL_BOXES[2, 2])
        assert (verdict.status, verdict.counterexample) == (VIOLATED if witness else SATISFIED, witness), axiom
        assert replay_counterexample(verdict, index) == (witness is not None), axiom


MAPPED_DOMAINS = [
    *(build_domain(DomainSpec(n, c)) for n in range(1, 6) for c in range(1, 6)),
    ORACLE_DOMAINS["3x7"],
    ORACLE_DOMAINS["7x3"],
    ORACLE_DOMAINS["14x14_seed1"],
]


def _walked_columns(domain) -> list[tuple]:
    """Every (transform, parameter tuple) whose images a registry walk over the domain builds."""
    factors = [(c,) for c in range(1, domain.spec.c_max + 1)]
    conjugates = AXIOMS[AxiomId.SELF_CONJUGACY].image.transform
    return [(conjugates, ()), (add_one_to_all, ()), *((t, p) for t in (scale, _add_publication) for p in factors)]


@pytest.mark.parametrize("domain", MAPPED_DOMAINS, ids=lambda d: f"{d.spec.n_max}x{d.spec.c_max}")
def test_each_column_matches_the_dict_lookup(domain):
    images = [axiom.image for axiom in AXIOMS.values() if axiom.image]
    columns = _walked_columns(domain)
    assert set(columns) == {(im.transform, p) for im in images for p in im.params(domain.spec.c_max)}
    for transform, param in columns:
        expected = [transform(v, *param) for v in domain.vectors]
        ids, kept = _column(domain, transform, param, 0, len(domain.vectors))
        assert list(ids) == [domain.ids.get(w, -1) for w in expected], (transform.__name__, param)
        # an image in the domain is read by its id, so only the others are kept
        assert kept == [None if j >= 0 else w for j, w in zip(ids, expected)], (transform.__name__, param)


@pytest.mark.parametrize("domain", MAPPED_DOMAINS, ids=lambda d: f"{d.spec.n_max}x{d.spec.c_max}")
def test_columns_built_in_slices_look_up_only_what_fits_the_box(domain):
    n, n_max, c_max = len(domain.vectors), domain.spec.n_max, domain.spec.c_max
    for transform, param in _walked_columns(domain):
        ids, images = array("i"), []
        for lo in range(0, n, 7):
            sliced = _column(domain, transform, param, lo, lo + 7)
            ids, images = ids + sliced[0], images + list(sliced[1])
        assert (ids, images) == _column(domain, transform, param, 0, n), (transform.__name__, param)
        for w, j in zip([transform(v, *param) for v in domain.vectors], ids):
            # only an image that fits the box is looked up; on a box, each that fits is found
            fits = not w or (w[0] <= c_max and len(w) <= n_max)
            assert j == domain.ids.get(w, -1) and (j >= 0 or not fits or not domain.exhaustive), (param, w)
    # the walk's images are the predicates' own
    conjugates = AXIOMS[AxiomId.SELF_CONJUGACY].image.transform
    assert [conjugates(v) for v in domain.vectors] == [conjugate(v) for v in domain.vectors]
    for c in range(1, c_max + 1):
        published = _column(domain, _add_publication, (c,), 0, n)[0]
        assert all(j == -1 for v, j in zip(domain.vectors, published) if len(v) == n_max)


def test_result_records_are_immutable():
    verdict = check_axiom(REC, "UC", DOMAIN)
    for record in (verdict, DomainSpec(3, 3), rec_index((6, 4, 3, 1))):
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)


@pytest.mark.parametrize("domain_name", list(ORACLE_DOMAINS))
def test_one_session_gives_the_single_cell_verdicts(domain_name):
    # Tables built for one check and read by the next must not change a verdict.
    domain = ORACLE_DOMAINS[domain_name]
    for index in counterexample_registry() + ADVERSARIAL + [CHI]:
        session = _Session(index, domain)
        for axiom in AxiomId:
            if axiom is AxiomId.UNIFORM_INCREMENT and not domain.exhaustive:
                for shared in (session, None):
                    with pytest.raises(DomainBudgetError):
                        check_axiom(index, axiom, domain, session=shared)
                continue
            shared = check_axiom(index, axiom, domain, session=session)
            assert shared == check_axiom(index, axiom, domain), (index.name, axiom)
    row = check_registry([REC], domain)[REC.name]
    assert row == {a.value: None if row[a.value] is None else check_axiom(REC, a, domain) for a in AxiomId}


def test_a_failing_scale_scan_stops_at_its_witness():
    # Only the images of vectors up to the witness's are evaluated.
    domain = ORACLE_DOMAINS["5x5"]
    calls: Counter = Counter()

    def counted(v):
        calls[v] += 1
        return H.evaluate(v)

    verdict = check_axiom(IndexUnderTest("h", counted), "SI", domain)
    assert not verdict.ok
    images = (domain.spec.c_max - 1) * (domain.ids[verdict.counterexample["x"]] + 1)
    assert sum(calls.values()) <= len(domain.vectors) + images + 1


@pytest.mark.parametrize("axiom, domain_name", [("SC", "3x7"), ("CI", "7x3")])
def test_a_failing_conjugate_or_increment_scan_stops_at_its_witness(axiom, domain_name):
    # Only the images of vectors up to the witness's are evaluated, though many later images leave the box.
    domain = ORACLE_DOMAINS[domain_name]
    calls: Counter = Counter()

    def counted(v):
        calls[v] += 1
        return len(v)

    verdict = check_axiom(IndexUnderTest("publication_count", counted), axiom, domain)
    assert not verdict.ok
    images = domain.ids[verdict.counterexample["x"]] + 1
    assert sum(calls.values()) <= len(domain.vectors) + images + 1


@pytest.mark.parametrize("domain_name", ["4x4", "5x5"])
def test_one_session_evaluates_each_domain_vector_once(domain_name):
    domain = ORACLE_DOMAINS[domain_name]
    for index in counterexample_registry():
        calls: Counter = Counter()

        def counted(v, evaluate=index.evaluate):
            calls[v] += 1
            return evaluate(v)

        row = check_registry([IndexUnderTest(index.name, counted)], domain)[index.name]
        assert set(row) == {a.value for a in AxiomId} and None not in row.values()
        assert all(calls[v] == 1 for v in domain.vectors), index.name


#: The oracle domains, boxes with one citation count, which have no scale factor
#: past 1, and one more seeded sample, where almost every image leaves the domain.
REGISTRY_DOMAINS = {
    **ORACLE_DOMAINS,
    **{f"{n}x1": SMALL_BOXES[n, 1] for n in (1, 4)},
    "30x30_seed5": build_domain(DomainSpec(30, 30, seed=5), sample_size=60),
}


def _single_cell_row(index, domain) -> dict:
    row = {}
    for axiom in AxiomId:
        try:
            row[axiom.value] = check_axiom(index, axiom, domain)
        except DomainBudgetError:
            row[axiom.value] = None
    return row


@pytest.mark.parametrize("domain_name", list(REGISTRY_DOMAINS))
def test_the_registry_call_gives_each_index_its_single_cell_row(domain_name):
    # One walk serves indices whose SI and rank scans stop at different ids
    # and parameters, or never, with values that are not finite among them.
    domain = REGISTRY_DOMAINS[domain_name]
    indices = counterexample_registry() + ADVERSARIAL + NON_FINITE + [CHI]
    rows = check_registry(indices, domain)
    assert list(rows) == [index.name for index in indices]
    for index in indices:
        assert rows[index.name] == _single_cell_row(index, domain), index.name


@pytest.mark.parametrize("domain_name", ["5x5", "3x7", "7x3", "14x14_seed1"])
def test_each_image_is_built_once_per_registry_pass(domain_name, monkeypatch):
    domain = ORACLE_DOMAINS[domain_name]
    built: Counter = Counter()

    def counted(domain, transform, param, lo, hi):
        ids, images = _column(domain, transform, param, lo, hi)
        built.update((transform, param, i) for i in range(lo, lo + len(ids)))
        return ids, images

    monkeypatch.setattr("recindex.axioms._column", counted)
    registry = counterexample_registry()
    # publication_count keeps both rank properties and rec keeps SI, SC and CI, so the registry pass needs every
    # image: the conjugates, the add_one_to_all images, each factor's and each added publication's
    every = {(t, p, i) for t, p in _walked_columns(domain) for i in range(len(domain.vectors))}
    for indices in [registry, *([index] for index in registry)]:
        built.clear()
        check_registry(indices, domain)
        assert max(built.values()) == 1, [index.name for index in indices]
        assert set(built) == every or len(indices) == 1


def test_scale_invariance_reports_the_least_vector_before_the_least_factor():
    # f breaks SI at (3,) by factor 2 and at (1,), an earlier vector, only by
    # factor 3, so a later factor's scan finds the witness.
    index = make_index("rec_99_at_3", lambda v: 99 if v == (3,) else rec(v))
    verdict = check_axiom(index, "SI", ORACLE_DOMAINS["5x5"])
    assert verdict.counterexample == {"x": (1,), "factor": 3, "f_x": 1, "f_scaled": 99}


@pytest.mark.parametrize("domain", MAPPED_DOMAINS, ids=lambda d: f"{d.spec.n_max}x{d.spec.c_max}")
def test_the_uniform_grid_holds_every_uniform_vector_of_the_box(domain):
    n_max, c_max = domain.spec.n_max, domain.spec.c_max
    assert domain.grid == [[(c,) * j for c in range(1, c_max + 1)] for j in range(1, n_max + 1)]
    assert domain.uniforms == sorted([(), *(u for row in domain.grid for u in row)], key=canonical_key)


def test_the_independence_matrix_evaluates_each_index_once_per_vector(monkeypatch):
    calls: Counter = Counter()
    registry = counterexample_registry()

    def counted(index):
        def evaluate(v):
            calls[index.name, v] += 1
            return index.evaluate(v)

        return IndexUnderTest(index.name, evaluate)

    monkeypatch.setattr("recindex.axioms.counterexample_registry", lambda: list(map(counted, registry)))
    matrix = independence_matrix(DOMAIN)
    assert {name: set(row) for name, row in matrix.items()} == {i.name: {"M", "UC", "UE"} for i in registry}
    assert all(calls[index.name, v] == 1 for index in registry for v in DOMAIN.vectors)


def test_uniform_increment_dp_agrees_with_search_for_rec():
    assert check_axiom(REC, "UI", SMALL_BOXES[3, 3]).ok


def _ui_verdict(index: IndexUnderTest, target) -> AxiomVerdict:
    counterexample = {"target": target, "note": "no f-incremental constructive sequence"}
    return AxiomVerdict(index.name, "UI", max(len(target), 1), max(target, default=1), True, VIOLATED, counterexample)


def _assert_ui_agrees_with_the_search(domain, indices):
    # The scan confirms its own target over the box that target spans, but only the search over every
    # earlier vector shows none was wrongly called reachable.  A replay decides any target over its own
    # box, and the unbudgeted search is its oracle on every vector of the domain.
    for index in indices:
        f = functools.cache(index.evaluate)
        absent = [v for v in domain.vectors if sequences.search_incremental(v, f).status == sequences.ABSENT]
        first = _ui_verdict(index, absent[0]).counterexample if absent else None
        assert check_axiom(index, "UI", domain).counterexample == first, index.name
        assert [v for v in domain.vectors if replay_counterexample(_ui_verdict(index, v), index)] == absent, index.name


@pytest.mark.parametrize("bounds", [(3, 3), (4, 4), (3, 5)])
def test_uniform_increment_target_is_the_first_the_search_refutes(bounds):
    _assert_ui_agrees_with_the_search(build_domain(DomainSpec(*bounds)), counterexample_registry() + ADVERSARIAL)


def test_uniform_increment_scan_and_replay_never_run_the_search(monkeypatch):
    def search(*args, **kwargs):
        raise AssertionError("the sequence search ran")

    monkeypatch.setattr("recindex.sequences.search_incremental", search)
    registry = _registry()
    witnesses = [row["UI"] for row in check_registry(registry.values(), DOMAIN).values() if not row["UI"].ok]
    assert [verdict.index for verdict in witnesses] == ["avg_rec_citation", "min_n_x1"]
    assert all(replay_counterexample(verdict, registry[verdict.index]) for verdict in witnesses)


def test_uniform_increment_replay_refuses_a_target_box_over_the_budget():
    calls = []
    counting = make_index("counting", lambda v: calls.append(v) or rec(v))
    calls.clear()  # make_index checks f(()) once
    with pytest.raises(DomainBudgetError, match="20x1000"):
        replay_counterexample(_ui_verdict(counting, (1000,) * 20), counting)
    assert calls == []


@pytest.mark.parametrize("bounds", sorted(SMALL_BOXES))
def test_uniform_increment_reachability_agrees_with_search_on_non_finite_values(bounds):
    # The reachability pass and the search read one step rule, so a NaN or
    # infinite value cannot make them disagree.
    _assert_ui_agrees_with_the_search(SMALL_BOXES[bounds], NON_FINITE)


# ---------------------------------------------------------------------------
# the paper's characterisation of rec as an oracle
# ---------------------------------------------------------------------------

#: A box is closed under domination, so the proof that M, UC and UE
#: characterise rec runs on a box of SMALL_BOXES alone.

#: Shifts within, just past and well past TOLERANCE; 0 first, as the simplest.
_FINE = [0.0, 0.6 * TOLERANCE, -0.6 * TOLERANCE, 1.5 * TOLERANCE, -1.5 * TOLERANCE]
_COARSE = [0.0, 1.0, -1.0, 0.5, -0.5]


def _box_table_index(domain, table) -> IndexUnderTest:
    """f read from a table by vector id; any vector outside the box raises."""
    return make_index("box_table", dict(zip(domain.vectors, table)).__getitem__)


def _same_rec_above(domain, v) -> list[int]:
    """Ids of v and of the box vectors above it that share its rec."""
    return [i for i, w in enumerate(domain.vectors) if rec(w) == rec(v) and dominates(v, w)]


@st.composite
def proof_chains(draw):
    """Where to move rec on a box: at a vector x, at a heaviest uniform u
    under x and at one more vector w by a shift of its own, each with the
    vectors above it that share its rec; then whether to pin and whether
    to make the table monotone.  A box of one row or one column holds
    only uniforms, so x would be u."""
    domain = SMALL_BOXES[draw(st.sampled_from([(n, c) for n in range(2, 5) for c in range(2, 5)]))]
    vectors = domain.vectors
    x = vectors[draw(st.integers(1, len(vectors) - 1))]
    u = draw(st.sampled_from([w for w in domain.uniforms if dominates(w, x) and citation_count(w) == rec(x)]))
    w = vectors[draw(st.integers(1, len(vectors) - 1))]
    other = (_same_rec_above(domain, w), draw(st.sampled_from(_COARSE)))
    pin, monotone = draw(st.booleans()), draw(st.booleans())
    return domain, _same_rec_above(domain, u), _same_rec_above(domain, x), other, pin, monotone


def _moved_rec(domain, moves, pin: bool, monotone: bool) -> list[float]:
    """rec on the box moved by ``(ids, shift)`` pairs, then perhaps pinned
    to the citation count on the uniforms, then perhaps made monotone."""
    table = [float(rec(v)) for v in domain.vectors]
    for ids, shift in moves:
        for i in ids:
            table[i] += shift
    if pin:
        for i, v in enumerate(domain.vectors):
            if is_uniform(v):
                table[i] = float(citation_count(v))
    if monotone:
        # Steps come by ascending lower id, so each value is final before
        # it is passed up; the table then never drops along a step.
        for i, j in zip(domain.step_lower, domain.step_upper):
            table[j] = max(table[j], table[i])
    return table


def _core_verdicts(index, domain) -> list[bool]:
    """M, UC and UE, each checked alone and all three in one session."""
    session = _Session(index, domain)
    single = [check_axiom(index, axiom, domain).ok for axiom in INDEPENDENCE_AXIOMS]
    shared = [check_axiom(index, axiom, domain, session=session).ok for axiom in INDEPENDENCE_AXIOMS]
    assert single == shared
    return single


@settings(max_examples=200, deadline=None)
@given(proof_chains())
def test_m_uc_and_ue_pin_an_index_to_rec_on_the_box(chain):
    # UE gives a uniform u under x with f(x) ~ f(u), and UC gives
    # f(u) ~ |u| <= rec(x); M and UC at the heaviest uniform under x give
    # f(x) >= rec(x) up to the tolerance.  Each ~ costs one TOLERANCE, so
    # every pair of fine shifts at u and x is tried.
    domain, u_ids, x_ids, other, pin, monotone = chain
    for u_shift, x_shift in product(_FINE, repeat=2):
        table = _moved_rec(domain, [(u_ids, u_shift), (x_ids, x_shift), other], pin, monotone)
        if all(_core_verdicts(_box_table_index(domain, table), domain)):
            assert all(abs(f - rec(v)) <= 2 * TOLERANCE for v, f in zip(domain.vectors, table)), (u_shift, x_shift)


@pytest.mark.parametrize("bounds", sorted(SMALL_BOXES))
def test_rec_read_from_its_box_passes_m_uc_and_ue(bounds):
    domain = SMALL_BOXES[bounds]
    assert all(_core_verdicts(_box_table_index(domain, list(map(rec, domain.vectors))), domain))


# ---------------------------------------------------------------------------
# the uniform table, UE's exact maps, UM's suspects and the rank blocks
# against their naive forms
# ---------------------------------------------------------------------------

#: Values whose exact and tolerant matches differ: NaN and the infinities
#: match nothing, not even themselves; -0.0 and 0.0, and an int and the
#: float equal to it, match exactly; 1e308 twice overflows a sum of finite values.
_AWKWARD = [NAN, float("inf"), float("-inf"), -0.0, 0.0, 0, 1, 1.0, 2, 2.0, 1e308, -1e308, 1 + 0.6 * TOLERANCE]

#: A box, which holds its uniform vectors, and a sample, which holds few of them.
_TABLE_DOMAINS = {"3x3": SMALL_BOXES[3, 3], "14x14_seed1": ORACLE_DOMAINS["14x14_seed1"]}


def _hashed_index(table: list) -> IndexUnderTest:
    """f drawn from a table by the vector's hash, so vectors inside and outside a domain share its values."""
    return IndexUnderTest("hashed", lambda v: table[hash(v) % len(table)])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_TABLE_DOMAINS)), st.lists(st.sampled_from(_AWKWARD), min_size=1, max_size=12))
def test_ue_exact_maps_give_the_tolerant_scan_on_awkward_values(domain_name, table):
    domain, index = _TABLE_DOMAINS[domain_name], _hashed_index(table)
    naive = [(x,) for x in domain.vectors if _violates_ue(index.evaluate, x) is not None]
    assert list(_uniform_equivalence_candidates(_Session(index, domain))) == naive


_LEVELS = [0.0, 0.6 * TOLERANCE, 1.2 * TOLERANCE, 1.0, 1.0 + 0.6 * TOLERANCE, 2.0, 5.0, -0.0, NAN, float("inf")]
_NUDGES = [0.0, 0.3 * TOLERANCE, -0.3 * TOLERANCE, 0.6 * TOLERANCE]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_blocks_kept_apart_after_a_transform_flip_no_pair(data):
    domain = SMALL_BOXES[2, 3]
    n = len(domain.vectors)
    values = data.draw(st.lists(st.sampled_from(_LEVELS), min_size=n, max_size=n))
    if data.draw(st.booleans()):
        after = data.draw(st.lists(st.sampled_from(_LEVELS), min_size=n, max_size=n))
    else:  # one rising map for every value, and a nudge of its own within TOLERANCE
        factor = data.draw(st.sampled_from([1, 2, 3]))
        nudges = data.draw(st.lists(st.sampled_from(_NUDGES), min_size=n, max_size=n))
        after = [factor * v + d for v, d in zip(values, nudges)]
    session = _Session(IndexUnderTest("table", dict(zip(domain.vectors, values)).__getitem__), domain)
    blocks, separated = session.blocks
    if separated and _blocks_stay_apart(blocks, after):
        assert next(_flipped_pairs(session.values, after), None) is None


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(_TABLE_DOMAINS)),
    st.sampled_from([0.5, 1, 2]),
    st.lists(st.sampled_from(_FINE), min_size=1, max_size=4),
    st.integers(0, 9),
)
def test_a_um_verdict_without_suspects_gives_the_naive_pair_scan(domain_name, factor, nudges, seed):
    # rec nudged by less than TOLERANCE leaves no suspect y; a nudge past it may make some
    domain = _TABLE_DOMAINS[domain_name]
    index = IndexUnderTest("nudged_rec", lambda v: factor * rec(v) + random.Random(f"{seed}:{v}").choice(nudges))
    f = functools.cache(index.evaluate)
    naive = next((w for c in _naive_candidates("UM", domain) if (w := _violates_um(f, *c)) is not None), None)
    verdict = check_axiom(index, "UM", domain)
    assert (verdict.status, verdict.counterexample) == (VIOLATED if naive is not None else SATISFIED, naive)


@pytest.mark.parametrize("domain_name", ["5x5", "3x7", "14x14_seed1", "14x14_seed2", "30x30_seed5"])
def test_the_uniform_table_evaluates_each_grid_vector_once(domain_name):
    # a box reads every grid vector from its values; a sample evaluates nearly all of them
    domain = REGISTRY_DOMAINS[domain_name]
    grid = [u for row in domain.grid for u in row]
    for index in counterexample_registry() + ADVERSARIAL + NON_FINITE:
        calls: Counter = Counter()

        def counted(v, evaluate=index.evaluate):
            calls[v] += 1
            return evaluate(v)

        rows = _Session(IndexUnderTest(index.name, counted), domain).uniform_rows
        assert rows == [[index.evaluate(u) for u in row] for row in domain.grid], index.name
        assert all(calls[u] == 1 for u in grid) and max(calls.values()) == 1, index.name


@pytest.mark.parametrize("domain_name", ["14x14_seed1", "14x14_seed2", "14x14_seed3", "30x30_seed5"])
def test_a_sample_tests_domination_only_to_confirm_a_reported_witness(domain_name, monkeypatch):
    # the sample's pair list is built before dominates is counted; the scans then read it
    domain = REGISTRY_DOMAINS[domain_name]
    calls: Counter = Counter()

    def counted(x, y):
        calls[x, y] += 1
        return dominates(x, y)

    monkeypatch.setattr("recindex.axioms.dominates", counted)
    rows = check_registry(counterexample_registry() + ADVERSARIAL + NON_FINITE, domain)
    witnesses = Counter(
        (v.counterexample["x"], v.counterexample["y"])
        for row in rows.values()
        for axiom, v in row.items()
        if axiom in ("M", "SM", "UM") and not v.ok
    )
    assert witnesses and calls == witnesses


def _uc_verdicts(index: IndexUnderTest, domain) -> list:
    """The UC and USC verdicts of the scan and of the naive scan in canonical order."""
    pairs = []
    for axiom in ("UC", "USC"):
        f = functools.cache(index.evaluate)
        violates = AXIOMS[AxiomId(axiom)].violates
        naive = next((w for c in _naive_candidates(axiom, domain) if (w := violates(f, *c)) is not None), None)
        pairs.append(((VIOLATED if naive else SATISFIED, naive), check_axiom(index, axiom, domain)[5:]))
    return pairs


@pytest.mark.parametrize("domain_name", ["4x4", "14x14_seed1"])
def test_the_uniform_table_pass_keeps_the_canonical_first_witness(domain_name):
    # (3,) comes before (1, 1) in the table's row order, but (1, 1) cites fewer times, so it comes first canonically
    domain = ORACLE_DOMAINS[domain_name]
    index = make_index("rec_off_at_3_and_11", lambda v: rec(v) + 1 if v in ((3,), (1, 1)) else rec(v))
    verdict = check_axiom(index, "UC", domain)
    assert verdict.counterexample == {"x": (1, 1), "f_x": 3, "citation_count": 2}
    assert check_axiom(index, "USC", domain).counterexample == verdict.counterexample
    for naive, scanned in _uc_verdicts(index, domain):
        assert naive == scanned


@pytest.mark.parametrize("domain_name", ["4x4", "14x14_seed1"])
def test_a_table_of_citation_counts_settles_uc_and_usc_in_one_pass(domain_name, monkeypatch):
    domain = ORACLE_DOMAINS[domain_name]
    read: Counter = Counter()
    f = _Session.f
    monkeypatch.setattr(_Session, "f", lambda self, v: read.update([v]) or f(self, v))
    for index in (REC, CITATION_COUNT):
        session = _Session(index, domain)
        assert all(check_axiom(index, axiom, domain, session=session).ok for axiom in ("UC", "USC"))
    assert not read


@pytest.mark.parametrize("domain_name", ["4x4", "14x14_seed1"])
@pytest.mark.parametrize("value", [NAN, float("inf"), float("-inf")])
@pytest.mark.parametrize("at", [(), (1,), (3,), (2, 2), (1, 1, 1, 1), (4, 4, 4)])
def test_a_uniform_table_with_one_value_that_is_not_finite_gives_the_naive_scan(domain_name, value, at):
    # () is outside the table's rows; make_index would refuse a value there, so the index is built directly
    domain = ORACLE_DOMAINS[domain_name]
    for base in (rec, citation_count, len):
        index = IndexUnderTest(f"{base.__name__}_{value}_at_{at}", lambda v, b=base: value if v == at else b(v))
        for naive, scanned in _uc_verdicts(index, domain):
            assert naive == scanned, index.name


@pytest.mark.parametrize("domain_name", ["14x14_seed1", "30x30_seed5"])
def test_a_sample_reads_the_ue_witness_uniforms_from_the_built_table(domain_name):
    domain = REGISTRY_DOMAINS[domain_name]
    for index in counterexample_registry():
        calls: Counter = Counter()

        def counted(v, evaluate=index.evaluate):
            calls[v] += 1
            return evaluate(v)

        session = _Session(IndexUnderTest(index.name, counted), domain)
        off_grid = (domain.spec.c_max + 1,) * 2
        # before the table is built, f evaluates a uniform vector that the sample lacks and builds no table
        absent = next(u for row in domain.grid for u in row if u not in domain.ids)
        assert session.f(absent) == index.evaluate(absent) and "uniform_rows" not in session.__dict__
        session.uniform_rows
        calls.clear()
        verdict = check_axiom(index, "UE", domain, session=session)
        assert verdict == check_axiom(index, "UE", domain), index.name
        assert session.f(absent) == index.evaluate(absent) and session.f(off_grid) == index.evaluate(off_grid)
        # only the uniform vector outside the box was evaluated again
        assert calls == Counter({off_grid: 1}), index.name


# ---------------------------------------------------------------------------
# sampled domains and serialisation
# ---------------------------------------------------------------------------


def test_oversized_domain_requires_a_seed():
    with pytest.raises(DomainBudgetError, match="seed"):
        build_domain(DomainSpec(40, 40))


def test_sampled_scan_is_labelled_and_deterministic():
    spec = DomainSpec(40, 40, seed=11)
    first = check_axiom(REC, "M", build_domain(spec, 60))
    second = check_axiom(REC, "M", build_domain(spec, 60))
    assert first == second
    assert first.exhaustive is False
    assert first.ok


def test_sampled_domain_whose_uniforms_exceed_the_budget_is_refused():
    # 300x300 keeps 300 * 300 * 301 / 2 = 13,545,000 uniform counts for
    # any sample; the refusal comes before anything is drawn or built.
    with pytest.raises(DomainBudgetError, match="uniform vectors of domain 300x300"):
        build_domain(DomainSpec(300, 300, seed=1), 5)


@pytest.fixture
def calls(monkeypatch):
    """Stand-ins for enumerate_vectors and sample_vectors that log each call; a sample is the empty vector alone.

    A box of more than 100,000 vectors is logged and not listed, so a refusal that regressed into a build fails
    on the log instead of building millions of vectors."""
    log = []

    def enumerate_box(spec):
        log.append(("enumerate", spec))
        if box_size(spec) > 100_000:
            pytest.fail(f"{spec} was enumerated")
        return enumerate_vectors(spec)

    def sample(spec, size):
        log.append(("sample", spec, size))
        return [()]

    monkeypatch.setattr("recindex.axioms.enumerate_vectors", enumerate_box)
    monkeypatch.setattr("recindex.axioms.sample_vectors", sample)
    return log


def _refuse(spec, sample_size, calls, match):
    with pytest.raises(DomainBudgetError, match=match):
        build_domain(spec, sample_size)
    assert calls == [], f"{spec} was refused after {calls}"


def test_a_domain_whose_image_tables_exceed_the_budget_is_refused(calls):
    # SI, RANK_SI and RANK_IND keep c_max values for each vector the domain can hold, charged max(n_max, c_max).
    # 1x3161 holds 3,162 vectors: 3,162 * 3,161 = 9,995,082 values fit the budget.
    assert build_domain(DomainSpec(1, 3161)).exhaustive and calls == [("enumerate", DomainSpec(1, 3161))]
    calls.clear()
    # 1x3162 holds 3,163 vectors, 10,001,406 values: sampled with a seed, refused without one.
    _refuse(DomainSpec(1, 3162), 500, calls, r"1x3162 hold 3162 values .* fewer than its box holds; supply a seed")
    assert not build_domain(DomainSpec(1, 3162, seed=1)).exhaustive
    assert calls == [("sample", DomainSpec(1, 3162, seed=1), 500)]
    calls.clear()
    # 3x400 (10,827,401 vectors) is sampled; a sample keeps the empty vector too, so 24,999 draws fill the budget.
    build_domain(DomainSpec(3, 400, seed=1), 24_999)
    assert calls == [("sample", DomainSpec(3, 400, seed=1), 24_999)]
    calls.clear()
    _refuse(
        DomainSpec(3, 400, seed=1),
        25_000,
        calls,
        "the image tables of domain 3x400 hold 400 values for each vector, so at most 25000 vectors fit the budget "
        "of 10000000, fewer than a sample of 25000 holds with the empty vector",
    )
    _refuse(DomainSpec(1, 100000), 500, calls, "image tables of domain 1x100000 hold 100000 values")


@pytest.mark.parametrize("n_max, c_max", [(2000, 2), (31, 5), (100, 3), (3162, 1), (5000, 1)])
def test_a_domain_is_charged_the_entries_of_its_longest_vector(calls, n_max, c_max):
    # 2000x2 holds 2,003,001 vectors of up to 2,000 entries: 2 image values each would fit the budget, their
    # 2,670,668,000 entries would not.  Each vector is charged max(n_max, c_max) values.
    _refuse(
        DomainSpec(n_max, c_max),
        500,
        calls,
        rf"^the image tables of domain {n_max}x{c_max} hold {n_max} values for each vector, so at most "
        rf"{10_000_000 // n_max} vectors fit the budget of 10000000, fewer than its box holds; supply a seed",
    )


def test_a_box_refused_for_its_long_vectors_is_sampled_with_a_seed(calls):
    # 501 vectors of up to 2,000 entries fit the budget; 5000x1 does not, as its uniforms hold 12,502,500 counts.
    assert not build_domain(DomainSpec(2000, 2, seed=1)).exhaustive
    assert calls == [("sample", DomainSpec(2000, 2, seed=1), 500)]


def test_a_box_over_the_image_budget_is_refused_before_it_is_enumerated(calls):
    # 12x12 holds 2,704,156 vectors, more than the 833,333 whose 12 values fit.
    _refuse(
        DomainSpec(12, 12),
        500,
        calls,
        r"^the image tables of domain 12x12 hold 12 values for each vector, so at most 833333 vectors fit the budget "
        r"of 10000000, fewer than its box holds; supply a seed for a sampled \(non-exhaustive\) scan$",
    )
    assert not build_domain(DomainSpec(12, 12, seed=1), 30).exhaustive
    assert calls == [("sample", DomainSpec(12, 12, seed=1), 30)]


def test_uniform_increment_reachability_is_cross_checked_by_the_target_box(monkeypatch):
    # The reachability pass hands its first unreachable target to the UI predicate, which runs the pass again
    # over the box that target spans; should that pass reach it, the scan stops rather than move on.
    ui = AXIOMS[AxiomId.UNIFORM_INCREMENT]
    monkeypatch.setitem(AXIOMS, AxiomId.UNIFORM_INCREMENT, ui._replace(violates=lambda f, target: None))
    with pytest.raises(RuntimeError, match=r"reachability scan disagrees with the pass over the 2x2 box of \(2, 1\)"):
        check_axiom(_registry()["avg_rec_citation"], "UI", SMALL_BOXES[3, 3])


def test_uniform_increment_refuses_sampled_domains():
    domain = build_domain(DomainSpec(40, 40, seed=3))
    with pytest.raises(DomainBudgetError, match="exhaustive"):
        check_axiom(REC, "UI", domain)


def test_verdict_to_json_is_plain_data():
    verdict = check_axiom(_registry()["n_times_min"], "M", DOMAIN)
    # json writes the witness's tuples as arrays, so the payload needs no copy
    payload = json.loads(json.dumps(verdict._asdict()))
    assert payload["status"] == VIOLATED
    assert payload["counterexample"]["x"] == [3]
    assert payload["counterexample"]["y"] == [3, 1]
    assert payload["exhaustive"] is True
    clean = check_axiom(REC, "UC", DOMAIN)._asdict()
    assert clean["counterexample"] is None


def test_chi_increment_bound_holds_exhaustively():
    verdict = chi_increment_bound(ORACLE_DOMAINS["5x5"])
    assert verdict.ok
    assert verdict.axiom == "CHI_STEP_BOUND"
    assert verdict.exhaustive
