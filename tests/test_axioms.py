from __future__ import annotations

import functools
import json
import random
from collections import Counter
from itertools import combinations, product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

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
    H,
    INDEPENDENCE_AXIOMS,
    REC,
    _Session,
    check_axiom,
    check_index,
    chi_increment_bound,
    counterexample_registry,
    expected_independence_pattern,
    independence_matrix,
    make_index,
    pattern_mismatches,
    replay_counterexample,
)
from recindex.core import TOLERANCE, citation_count, dominates, is_uniform, rec, scale
from recindex.enumeration import DomainBudgetError, DomainSpec, enumerate_vectors

DOMAIN = (4, 4)


def _registry():
    return {index.name: index for index in counterexample_registry()}


def test_make_index_enforces_zero_baseline():
    with pytest.raises(ValueError, match="empty vector"):
        make_index("shifted", lambda v: len(v) + 1)
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


def test_check_axiom_accepts_string_ids_and_tuple_domains():
    verdict = check_axiom(REC, "M", DOMAIN)
    assert verdict.ok
    assert verdict.status == SATISFIED
    assert (verdict.n_max, verdict.c_max, verdict.exhaustive) == (4, 4, True)


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
    verdict = check_axiom(CITATION_COUNT, "UI", (3, 3))
    assert verdict.status == VIOLATED
    assert verdict.counterexample["target"] == (2, 1)
    assert replay_counterexample(verdict, CITATION_COUNT)


def test_witnesses_read_back_from_json_replay_only_for_their_index():
    # Lists stand in for tuples once a verdict has been through JSON.  A
    # witness never replays against rec for an axiom rec satisfies.
    rec_keeps = {a for a in AxiomId if check_axiom(REC, a, (3, 3)).ok}
    replayed = 0
    for index in counterexample_registry():
        for axiom in AxiomId:
            verdict = check_axiom(index, axiom, (3, 3))
            if verdict.ok:
                continue
            parsed = AxiomVerdict(**json.loads(json.dumps(verdict.to_json())))
            assert replay_counterexample(parsed, index), (index.name, axiom)
            if axiom in rec_keeps:
                assert not replay_counterexample(parsed, REC), (index.name, axiom)
            replayed += 1
    assert replayed > len(AxiomId)


def test_replay_returns_false_for_clean_verdicts():
    verdict = check_axiom(REC, "M", DOMAIN)
    assert replay_counterexample(verdict, REC) is False


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
            fast = check_axiom(index, axiom, (3, 3)).ok
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
        assert check_axiom(index, "RANK_SI", (3, 3)).ok == si, index.name
        ind = all(
            _naive_rank(
                index,
                vectors,
                lambda v, e=e: tuple(sorted(v + (e,), reverse=True)),
            )
            for e in range(1, 4)
        )
        assert check_axiom(index, "RANK_IND", (3, 3)).ok == ind, index.name


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

ORACLE_DOMAINS = {
    "4x4": build_domain(DomainSpec(4, 4)),
    "5x5": build_domain(DomainSpec(5, 5)),
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
    if axiom == "UE":
        return ((x,) for x in domain.vectors)
    if axiom == "UC":
        return ((u,) for u in domain.uniforms)
    if axiom == "USC":
        return (((1,) * j,) for j in range(domain.spec.n_max + 1))
    first = 1 if axiom == "RANK_IND" else 2
    return (
        (x, y, param)
        for param in range(first, domain.spec.c_max + 1)
        for x, y in combinations(domain.vectors, 2)
    )


@pytest.mark.parametrize("axiom", ["M", "SM", "UM", "RANK_IND", "RANK_SI", "SI", "UE", "UC", "USC"])
@pytest.mark.parametrize("domain_name", list(ORACLE_DOMAINS))
def test_filtered_scans_give_the_naive_first_witness(axiom, domain_name):
    domain = ORACLE_DOMAINS[domain_name]
    violates = AXIOMS[AxiomId(axiom)].violates
    for index in counterexample_registry() + ADVERSARIAL:
        f = functools.cache(index.evaluate)
        naive = next((w for c in _naive_candidates(axiom, domain) if (w := violates(f, *c)) is not None), None)
        verdict = check_axiom(index, axiom, domain)
        assert (verdict.status, verdict.counterexample) == (
            VIOLATED if naive is not None else SATISFIED,
            naive,
        ), index.name


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
    row = check_index(REC, domain)
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


@pytest.mark.parametrize("bounds", [(4, 4), (5, 5)])
def test_one_session_evaluates_each_domain_vector_once(bounds):
    domain = build_domain(DomainSpec(*bounds))
    for index in counterexample_registry():
        calls: Counter = Counter()

        def counted(v, evaluate=index.evaluate):
            calls[v] += 1
            return evaluate(v)

        row = check_index(IndexUnderTest(index.name, counted), domain)
        assert set(row) == {a.value for a in AxiomId} and None not in row.values()
        assert all(calls[v] == 1 for v in domain.vectors), index.name


def test_uniform_increment_dp_agrees_with_search_for_rec():
    assert check_axiom(REC, "UI", (3, 3)).ok


@pytest.mark.parametrize("bounds", [(3, 3), (4, 4), (3, 5)])
def test_uniform_increment_target_is_the_first_the_search_refutes(bounds):
    # The scan confirms its own target through the search, but only the
    # search over every earlier vector shows none was wrongly called reachable.
    domain = build_domain(DomainSpec(*bounds))
    for index in counterexample_registry() + ADVERSARIAL:
        f = functools.cache(index.evaluate)
        first = next(
            (v for v in domain.vectors if sequences.search_incremental(v, f).status == sequences.ABSENT),
            None,
        )
        verdict = check_axiom(index, "UI", domain)
        if first is None:
            assert verdict.ok, index.name
        else:
            assert verdict.counterexample["target"] == first, index.name


# ---------------------------------------------------------------------------
# the paper's characterisation of rec as an oracle
# ---------------------------------------------------------------------------

#: Every box up to 4x4.  A box is closed under domination, so the proof
#: that M, UC and UE characterise rec runs on the box alone.
SMALL_BOXES = {(n, c): build_domain(DomainSpec(n, c)) for n in range(1, 5) for c in range(1, 5)}

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
# sampled domains and serialisation
# ---------------------------------------------------------------------------


def test_oversized_domain_requires_a_seed():
    with pytest.raises(DomainBudgetError, match="seed"):
        check_axiom(REC, "M", (40, 40))


def test_sampled_scan_is_labelled_and_deterministic():
    spec = DomainSpec(40, 40, seed=11)
    first = check_axiom(REC, "M", spec, sample_size=60)
    second = check_axiom(REC, "M", spec, sample_size=60)
    assert first == second
    assert first.exhaustive is False
    assert first.ok


def test_uniform_increment_refuses_sampled_domains():
    with pytest.raises(DomainBudgetError, match="exhaustive"):
        check_axiom(REC, "UI", DomainSpec(40, 40, seed=3))


def test_verdict_to_json_is_plain_data():
    verdict = check_axiom(_registry()["n_times_min"], "M", DOMAIN)
    payload = verdict.to_json()
    assert payload["status"] == VIOLATED
    assert payload["counterexample"]["x"] == [3]
    assert payload["counterexample"]["y"] == [3, 1]
    assert payload["exhaustive"] is True
    clean = check_axiom(REC, "UC", DOMAIN).to_json()
    assert clean["counterexample"] is None


def test_chi_increment_bound_holds_exhaustively():
    verdict = chi_increment_bound((5, 5))
    assert verdict.ok
    assert verdict.axiom == "CHI_STEP_BOUND"
    assert verdict.exhaustive
