from __future__ import annotations

import math
from enum import IntEnum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import citation_vectors, naive_is_valid_vector, nonempty_citation_vectors, wide_citation_vectors
from recindex.core import (
    BALANCED,
    EMPTY,
    INFLUENTIAL,
    PROLIFIC,
    TOLERANCE,
    add_citation_at,
    add_one_to_all,
    aux_indices,
    chi_index,
    citation_count,
    conjugate,
    dominates,
    h_index,
    is_incremental_step,
    is_uniform,
    is_valid_vector,
    make_vector,
    max_uniform_dominated,
    rec,
    rec_index,
    AuxIndices,
    RecAnalysis,
    RecVariants,
    ReportIndices,
    rec_variants,
    report_indices,
    scale,
    valid_positions,
    w_index,
)
from recindex.enumeration import brute_force_rec
from recindex.ingest import ResearcherRecord, report_row

# Three extreme profiles with the same total: one blockbuster paper, a
# balanced 10x10 record, and one hundred singly-cited papers.
SINGLE = (100,)
SQUARE = (10,) * 10
FLAT = (1,) * 100

STAIRCASE = (6, 4, 3, 1)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_make_vector_sorts_and_drops_zeros():
    assert make_vector([1, 3, 0, 6, 4, 0]) == (6, 4, 3, 1)
    assert make_vector([]) == ()
    assert make_vector([0, 0]) == ()


def test_make_vector_rejects_negatives_by_position():
    with pytest.raises(ValueError, match="position 2"):
        make_vector([3, 1, -2])


def test_make_vector_rejects_non_integers():
    with pytest.raises(ValueError, match="not an integer"):
        make_vector([1, 2.5])  # type: ignore[list-item]


def test_is_valid_vector():
    assert is_valid_vector(())
    assert is_valid_vector((6, 4, 3, 1))
    assert not is_valid_vector((1, 2))
    assert not is_valid_vector((3, 0))
    assert not is_valid_vector([3, 1])


@given(st.lists(st.integers(0, 50), max_size=10))
def test_make_vector_output_is_valid(raw):
    assert is_valid_vector(make_vector(raw))


def loop_make_vector(raw):
    """``make_vector`` as it was before its fast path: every count is
    checked in a Python loop."""
    values = list(raw)
    for pos, value in enumerate(values):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"citation count at position {pos} is not an integer: {value!r}")
        if value < 0:
            raise ValueError(f"negative citation count {value} at position {pos}")
    return tuple(sorted((v for v in values if v > 0), reverse=True))


class Level(IntEnum):
    NONE = 0
    ONE = 1
    MANY = 7


@given(
    st.one_of(
        st.lists(st.integers(-3, 40), max_size=10),
        st.lists(
            st.one_of(
                st.integers(-3, 40),
                st.booleans(),
                st.floats(-2, 40, allow_nan=False),
                st.sampled_from(Level),
            ),
            max_size=10,
        ),
    )
)
def test_make_vector_matches_the_checking_loop(raw):
    try:
        expected = loop_make_vector(raw)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            make_vector(raw)
        assert str(caught.value) == str(exc)
    else:
        got = make_vector(raw)
        assert got == expected
        assert [type(v) for v in got] == [type(v) for v in expected]


def test_is_uniform():
    assert is_uniform(())
    assert is_uniform((4, 4, 4))
    assert not is_uniform((4, 3))


def test_incremental_step_lets_f_rise_only_onto_a_uniform_vector():
    # Within TOLERANCE a rise is no rise; past it, only a uniform w (the empty one included) admits it.
    assert is_incremental_step(1.0, 1.0 + TOLERANCE / 2, (2, 1))
    assert not is_incremental_step(1.0, 1.0 + 2 * TOLERANCE, (2, 1))
    assert all(is_incremental_step(1.0, 5.0, w) for w in [(), (3,), (2, 2, 2)])
    assert is_incremental_step(5.0, 1.0, (2, 1))
    # A NaN difference, from a NaN f(w) or from inf - inf, is no fall: refused unless w is uniform.
    for fv, fw in [(1.0, math.nan), (math.inf, math.inf)]:
        assert not is_incremental_step(fv, fw, (2, 1))
        assert is_incremental_step(fv, fw, (2, 2))


def test_sequences_reads_the_step_rule_of_core():
    from recindex import core, sequences

    assert sequences.is_incremental_step is core.is_incremental_step


# ---------------------------------------------------------------------------
# rec / chi / h
# ---------------------------------------------------------------------------


def test_rec_staircase():
    analysis = rec_index(STAIRCASE)
    assert analysis.value == 9
    assert analysis.maximizers == (3,)
    assert analysis.width == 3 and analysis.height == 3
    assert analysis.classification == BALANCED


def test_rec_extreme_profiles():
    assert rec_index(SINGLE).classification == INFLUENTIAL
    assert rec_index(SQUARE).classification == BALANCED
    assert rec_index(FLAT).classification == PROLIFIC
    assert rec(SINGLE) == rec(SQUARE) == rec(FLAT) == 100


def test_rec_empty():
    analysis = rec_index(())
    assert analysis.value == 0
    assert analysis.maximizers == ()
    assert analysis.width is None
    assert analysis.classification == EMPTY


def test_rec_tie_uses_smallest_width():
    # areas of <4,2,1>: 4, 4, 3 -> widths 1 and 2 tie
    analysis = rec_index((4, 2, 1))
    assert analysis.maximizers == (1, 2)
    assert analysis.width == 1
    assert analysis.classification == INFLUENTIAL


def test_chi_equal_for_extreme_profiles():
    for x in (SINGLE, SQUARE, FLAT):
        assert abs(chi_index(x) - 10.0) <= TOLERANCE


def test_h_extreme_profiles():
    assert h_index(SINGLE) == 1
    assert h_index(SQUARE) == 10
    assert h_index(FLAT) == 1
    assert h_index(STAIRCASE) == 3
    assert h_index(()) == 0


@given(citation_vectors())
def test_chi_squares_back_to_rec(x):
    assert abs(chi_index(x) ** 2 - rec(x)) <= 1e-6


@given(citation_vectors())
def test_sandwich_bounds(x):
    h = h_index(x)
    r = rec(x)
    assert h * h <= r <= citation_count(x)
    if x:
        assert r <= len(x) * x[0]


# ---------------------------------------------------------------------------
# companion indices
# ---------------------------------------------------------------------------


def test_aux_staircase():
    aux = aux_indices(STAIRCASE)
    assert aux.publication_count == 4
    assert aux.max_citation == 6
    assert abs(aux.euclidean - math.sqrt(62)) <= TOLERANCE
    assert aux.g_index == 3
    assert aux.w_index == 4


def test_aux_empty_is_all_zero():
    aux = aux_indices(())
    assert aux == type(aux)(0, 0, 0.0, 0, 0)


def test_aux_square():
    aux = aux_indices(SQUARE)
    assert aux.g_index == 10
    assert aux.w_index == 10
    assert abs(aux.euclidean - math.sqrt(1000)) <= TOLERANCE


@given(nonempty_citation_vectors())
def test_g_index_against_direct_scan(x):
    best = 0
    for g in range(1, len(x) + 1):
        if sum(x[:g]) >= g * g:
            best = g
    assert aux_indices(x).g_index == best


@given(nonempty_citation_vectors())
def test_w_index_against_direct_scan(x):
    best = 0
    for w in range(1, len(x) + 1):
        if all(x[i - 1] >= w - i + 1 for i in range(1, w + 1)):
            best = w
    assert aux_indices(x).w_index == best


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------


def test_conjugate_known_pair():
    assert conjugate(STAIRCASE) == (4, 3, 3, 2, 1, 1)
    assert conjugate((4, 3, 3, 2, 1, 1)) == STAIRCASE
    assert conjugate(()) == ()


@given(citation_vectors())
def test_conjugate_involution(x):
    assert conjugate(conjugate(x)) == x


@given(nonempty_citation_vectors())
def test_conjugate_swaps_count_and_max(x):
    p = conjugate(x)
    assert len(p) == x[0]
    assert p[0] == len(x)


@given(citation_vectors())
def test_conjugate_preserves_rec_h_and_total(x):
    p = conjugate(x)
    assert rec(p) == rec(x)
    assert h_index(p) == h_index(x)
    assert citation_count(p) == citation_count(x)


def test_rec_variants_examples():
    assert rec_variants(STAIRCASE) == RecVariants(influence=9, prolificity=9)
    assert rec_variants(SINGLE) == RecVariants(influence=100, prolificity=1)
    assert rec_variants(()) == RecVariants(influence=0, prolificity=0)


@given(citation_vectors())
def test_rec_variants_recombine(x):
    variants = rec_variants(x)
    assert max(variants.influence, variants.prolificity) == rec(x)


def naive_conjugate(x):
    """The conjugate by one increment per citation: the O(sum x) oracle."""
    if not x:
        return ()
    counts = [0] * x[0]
    for c in x:
        for i in range(c):
            counts[i] += 1
    return tuple(counts)


def one_sided(v):
    """max of i * v_i over ranks with i <= v_i, scanned directly."""
    return max((i * c for i, c in enumerate(v, 1) if i <= c), default=0)


def naive_w_index(x):
    """The largest w with x_i >= w - i + 1 for all i <= w, trying each w."""
    for w in range(len(x), 0, -1):
        if all(x[i - 1] >= w - i + 1 for i in range(1, w + 1)):
            return w
    return 0


@settings(max_examples=200)
@given(wide_citation_vectors())
def test_conjugate_matches_naive_oracle(x):
    assert conjugate(x) == naive_conjugate(x)


@settings(max_examples=200)
@given(wide_citation_vectors())
def test_rec_variants_match_naive_oracle(x):
    assert rec_variants(x) == RecVariants(one_sided(x), one_sided(naive_conjugate(x)))


@settings(max_examples=200)
@given(wide_citation_vectors())
def test_w_index_matches_naive_oracle(x):
    assert aux_indices(x).w_index == naive_w_index(x)


# brute_force_rec enumerates every dominated uniform vector, up to 600,000 on these vectors.
@settings(deadline=None)
@given(st.one_of(wide_citation_vectors(), citation_vectors()))
@example(())
@example((5,) * 12)  # h, g and w stop inside one long run
@example((60, 30, 20, 15, 12, 10))  # six maximizers
@example((12, 6, 4, 3, 2, 2, 1))
@example((10,) + (1,) * 30)  # g and w stop early, then the tail runs on
@example((40, 3, 3, 3, 3, 3, 3, 3, 3))
@example((3,) * 40)  # w stops at 3, before the long tail
@example(tuple(range(40, 0, -1)))  # w = n, so w never stops early
@example((5, 1, 1, 1, 1))  # maximizers (1, 5) straddle the break after rank 3
@example((6, 2, 2, 2, 2, 2))  # the tail sets rec = 12 and rec_p
@example((4, 4, 4, 4) + (1,) * 12)  # maximizers (4, 16), the second in the tail
def test_report_indices_match_naive_oracles(x):
    """Every field of the one pass, and each function and report row that
    reads it, against oracles that share none of its code."""
    best = brute_force_rec(x)
    maximizers = tuple(i for i, c in enumerate(x, 1) if i * c == best)
    if x:
        width, height = maximizers[0], x[maximizers[0] - 1]
        shape = INFLUENTIAL if height > width else PROLIFIC if height < width else BALANCED
    else:
        width, height, shape = None, None, EMPTY
    want = ReportIndices(
        n=len(x),
        citations=sum(x),
        max=max(x, default=0),
        h=max(h for h in range(len(x) + 1) if sum(c >= h for c in x) >= h),
        g=max(g for g in range(len(x) + 1) if sum(x[:g]) >= g * g),
        w=naive_w_index(x),
        euclidean=math.sqrt(sum(c * c for c in x)),
        rec=best,
        chi=math.sqrt(best),
        rec_i=one_sided(x),
        rec_p=one_sided(naive_conjugate(x)),
        rect_width=width,
        maximizers=maximizers,
        classification=shape,
    )
    assert ReportIndices._make(report_indices(x)) == want
    assert rec_index(x) == RecAnalysis(best, maximizers, width, height, shape)
    assert aux_indices(x) == AuxIndices(want.n, want.max, want.euclidean, want.g, want.w)
    assert rec_variants(x) == RecVariants(want.rec_i, want.rec_p)
    assert (h_index(x), citation_count(x), chi_index(x)) == (want.h, want.citations, want.chi)
    assert w_index(x) == want.w
    assert report_row(ResearcherRecord("r", x)) == ("r", x, *want)


# ---------------------------------------------------------------------------
# order and growth
# ---------------------------------------------------------------------------


def test_dominates():
    assert dominates((), (1,))
    assert dominates((3, 1), (6, 4, 3, 1))
    assert dominates(STAIRCASE, STAIRCASE)
    assert not dominates((1, 1), (3,))
    assert not dominates((7,), (6, 4))


def naive_dominates(x, y):
    """y is at least as long as x and at least as large at each of x's ranks."""
    return len(x) <= len(y) and all(x[i] <= y[i] for i in range(len(x)))


#: Entries a citation vector must refuse, or, for Level, accept as an int.
ODD_ENTRIES = [True, False, 0, -1, 1.0, 2.5, Level.ONE, Level.MANY, Level.NONE, "1", None]


@st.composite
def vector_candidates(draw):
    """Tuples of counts, sorted or not, some with one entry swapped for an odd
    one, some given as lists."""
    counts = draw(st.lists(st.integers(1, 12), max_size=8))
    if draw(st.booleans()):
        counts.sort(reverse=True)
    if counts and draw(st.booleans()):
        counts[draw(st.integers(0, len(counts) - 1))] = draw(st.sampled_from(ODD_ENTRIES))
    return draw(st.sampled_from([tuple, tuple, tuple, list]))(counts)


@given(vector_candidates())
def test_is_valid_vector_matches_the_naive_definition(x):
    assert is_valid_vector(x) == naive_is_valid_vector(x)


@pytest.mark.parametrize(
    "x, valid",
    [
        ((), True),
        ((Level.MANY, Level.ONE), True),  # an int subclass other than bool
        ((3, Level.ONE), True),
        ((True,), False),
        ((2, True), False),
        ((1.0,), False),
        ((2, 1.0), False),
        ((2, 0), False),
        ((0,), False),
        ((2, -1), False),
        ((1, 2), False),  # unsorted
        ((3, 1, 2), False),
        ([3, 1], False),  # a list is not a tuple
        (("2", "1"), False),
        ((2, None), False),
    ],
)
def test_is_valid_vector_edge_cases(x, valid):
    assert is_valid_vector(x) is valid
    assert naive_is_valid_vector(x) is valid


@given(citation_vectors(max_len=5, max_cite=4), citation_vectors(max_len=5, max_cite=4))
def test_dominates_matches_the_naive_definition(x, y):
    assert dominates(x, y) == naive_dominates(x, y)
    assert dominates(x, x) and naive_dominates(y, y)
    grown = tuple(c + 1 for c in x) + y[len(x):]
    assert dominates(x, grown) and naive_dominates(x, grown)


def test_scale():
    assert scale(STAIRCASE, 2) == (12, 8, 6, 2)
    assert scale((), 5) == ()
    with pytest.raises(ValueError):
        scale(STAIRCASE, 0)
    with pytest.raises(ValueError):
        scale(STAIRCASE, -1)


@given(citation_vectors(max_cite=9), st.integers(1, 5))
def test_rec_scales_linearly(x, factor):
    assert rec(scale(x, factor)) == factor * rec(x)


def test_valid_positions():
    assert valid_positions(STAIRCASE) == [1, 2, 3, 4, 5]
    assert valid_positions((6, 4, 4, 1)) == [1, 2, 4, 5]
    assert valid_positions(()) == [1]


def test_add_citation_known_jumps():
    assert add_citation_at(STAIRCASE, 3) == (6, 4, 4, 1)
    assert rec(add_citation_at(STAIRCASE, 3)) == 12
    assert add_citation_at(STAIRCASE, 4) == (6, 4, 3, 2)
    assert rec(add_citation_at(STAIRCASE, 4)) == 9
    assert add_citation_at(STAIRCASE, 5) == (6, 4, 3, 1, 1)
    assert add_citation_at((), 1) == (1,)


def test_add_citation_rejects_mid_run():
    with pytest.raises(ValueError, match="position 2"):
        add_citation_at((6, 4, 4, 1), 3)
    with pytest.raises(ValueError, match="out of range"):
        add_citation_at(STAIRCASE, 6)
    with pytest.raises(ValueError, match="out of range"):
        add_citation_at(STAIRCASE, 0)


@given(citation_vectors(), st.data())
def test_single_citation_rec_recurrence(x, data):
    positions = valid_positions(x)
    k = data.draw(st.sampled_from(positions))
    grown = add_citation_at(x, k)
    old = x[k - 1] if k <= len(x) else 0
    assert rec(grown) == max(rec(x), k * (old + 1))


@given(citation_vectors(), st.data())
def test_single_citation_chi_step_bound(x, data):
    k = data.draw(st.sampled_from(valid_positions(x)))
    assert chi_index(add_citation_at(x, k)) <= chi_index(x) + 1 + TOLERANCE


def test_add_one_to_all():
    assert add_one_to_all((1, 1)) == (2, 2)
    assert add_one_to_all(()) == ()
    assert rec((2, 2)) > rec((1, 1))


@given(nonempty_citation_vectors())
def test_blanket_citation_strictly_raises_rec(x):
    assert rec(add_one_to_all(x)) > rec(x)


@given(st.one_of(citation_vectors(), wide_citation_vectors()), st.integers(1, 1000))
def test_scale_and_add_one_to_all_match_their_loops(x, factor):
    scaled, incremented = [], []
    for c in x:
        scaled.append(c * factor)
        incremented.append(c + 1)
    assert scale(x, factor) == tuple(scaled) and type(scale(x, factor)) is tuple
    assert add_one_to_all(x) == tuple(incremented) and type(add_one_to_all(x)) is tuple


def test_max_uniform_dominated():
    assert max_uniform_dominated(STAIRCASE) == (3, 3, 3)
    assert max_uniform_dominated(SQUARE) == SQUARE
    assert max_uniform_dominated(()) == ()


@given(citation_vectors())
def test_max_uniform_dominated_properties(x):
    u = max_uniform_dominated(x)
    assert is_uniform(u)
    assert dominates(u, x)
    assert citation_count(u) == rec(x)
    assert len(u) == (ReportIndices._make(report_indices(x)).rect_width or 0)  # the narrowest of the rec rectangles
