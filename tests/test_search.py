import random
import sys
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stcores import (
    InfiniteFamilyError,
    Partition,
    anderson_count,
    check_core_twinfree_identity,
    compositions_of,
    count_twin_free_tuples,
    enumerate_core,
    enumerate_core_bounded,
    enumerate_distinct_by_perimeter,
    enumerate_odd_by_perimeter,
    fibonacci,
    fms_selfconjugate_count,
    gap_poset,
    has_distinct_parts,
    has_odd_parts,
    is_t_core,
    is_t_core_beta,
    is_twin_free,
    partitions_of,
    to_beta,
)
from stcores import search
from stcores.betaset import _decode_ascending
from stcores.partition import conjugate
from stcores.search import (
    FILTERS,
    CoreSummary,
    _canonical,
    _ideals,
    _kept_betas,
    _result,
    canonical_key,
    summarize_core,
)

from oracles import (
    brute_partitions_upto,
    distinct_by_perimeter_checked,
    down_closed_subsets_recursive,
    enumerate_core_reference,
    is_self_conjugate_beta,
    odd_by_perimeter_checked,
    partitions,
    perimeter_family,
    sieve_gaps,
)


class TestGapPoset:
    def test_small_examples(self):
        assert gap_poset(3, 5) == (1, 2, 4, 7)
        assert gap_poset(2, 3) == (1,)
        assert gap_poset(3, 4) == (1, 2, 5)

    def test_trivial_generator(self):
        assert gap_poset(1, 9) == ()
        assert gap_poset(9, 1) == ()
        assert gap_poset(1, 1) == ()
        # no universe is sized by the huge generator
        assert gap_poset(1, 10**12) == gap_poset(10**12, 1) == ()
        assert enumerate_core(1, 10**12).count == 1
        assert summarize_core(10**12, 1, "self_conjugate").count == 1
        # the walk sizes its table by F, never by the huge generator
        for s, t in [(1, 10**12), (10**12, 1), (1, 1)]:
            for part_filter in sorted(FILTERS):
                assert list(_ideals(s, t, part_filter)) == [()], (s, t, part_filter)

    def test_genus_and_frobenius_formulas(self):
        for s in range(1, 41):
            for t in range(1, 41):
                if gcd(s, t) != 1:
                    continue
                gaps = gap_poset(s, t)
                assert gaps == sieve_gaps(s, t), (s, t)
                assert len(gaps) == (s - 1) * (t - 1) // 2
                if gaps:
                    assert gaps[-1] == s * t - s - t

    @pytest.mark.parametrize("s,t,common", [(2, 4, 2), (6, 9, 3), (4, 4, 4), (12, 12, 12)])
    def test_non_coprime(self, s, t, common):
        with pytest.raises(InfiniteFamilyError) as err:
            gap_poset(s, t)
        assert err.value.common == common
        assert "infinite family" in str(err.value)
        assert str(common) in str(err.value)

    @pytest.mark.parametrize("s,t", [(0, 3), (3, 0), (-1, 2), (True, 2), (2, False)])
    def test_rejects_nonpositive(self, s, t):
        with pytest.raises(ValueError):
            gap_poset(s, t)


class TestGapLimit:
    @pytest.mark.parametrize("s,t", [(99999999999, 100000000000), (1500, 1501)])
    @pytest.mark.parametrize("part_filter", sorted(FILTERS))
    def test_huge_walk_refused_before_walking(self, monkeypatch, s, t, part_filter):
        def no_walk(*args):
            raise AssertionError("the walk started")

        # Unpatched, (1500, 1501) would walk for minutes if the gate let it through.
        monkeypatch.setattr(search, "_ideals", no_walk)
        for call in (enumerate_core, summarize_core, search.family_size):
            with pytest.raises(ValueError, match="limit of 1000000"):
                call(s, t, part_filter)
        with pytest.raises(ValueError, match="limit of 1000000"):
            gap_poset(s, t)

    def test_limit_boundary(self):
        # (s-1)(t-1)/2 gaps: exactly 10^6 passes, 10^6 + 1 is refused
        assert search.family_size(2, 2000001, "odd") is None
        with pytest.raises(ValueError, match="1000001 gaps, above the limit of 1000000"):
            search.family_size(2, 2000003, "odd")


class TestEnumerateCore:
    def test_3_5_distinct(self):
        result = enumerate_core(3, 5, "distinct")
        assert result.count == 4
        assert [lam.parts for lam in result.partitions] == [(), (1,), (2,), (3, 1)]

    def test_5_7_distinct(self):
        result = enumerate_core(5, 7, "distinct")
        assert result.count == 16
        assert result.max_size == 21
        assert result.max_size_witnesses == (Partition((9, 5, 4, 2, 1)),)
        listed = {
            (), (1,), (2,), (3,), (4,), (2, 1), (3, 1), (5, 1), (3, 2),
            (4, 2, 1), (6, 2, 1), (4, 3, 1), (7, 3, 2), (5, 4, 2, 1),
            (8, 4, 3, 1), (9, 5, 4, 2, 1),
        }
        assert {lam.parts for lam in result.partitions} == listed

    def test_3_4_all(self):
        result = enumerate_core(3, 4, "all")
        assert result.count == 5

    def test_2_3_all_against_micro_oracle(self):
        # independent generation of everything small, filtered by hooks
        naive = {
            lam.parts
            for lam in brute_partitions_upto(4)
            if is_t_core(lam, 2) and is_t_core(lam, 3)
        }
        result = enumerate_core(2, 3, "all")
        assert {lam.parts for lam in result.partitions} == naive == {(), (1,)}

    def test_one_core_is_empty_only(self):
        result = enumerate_core(1, 9)
        assert [lam.parts for lam in result.partitions] == [()]
        assert enumerate_core(1, 1).count == 1

    def test_infinite_family_raises(self):
        with pytest.raises(InfiniteFamilyError):
            enumerate_core(2, 4, "distinct")
        with pytest.raises(InfiniteFamilyError):
            enumerate_core(7, 7)

    def test_unknown_filter(self):
        with pytest.raises(ValueError) as err:
            enumerate_core(3, 4, "weird")
        assert "distinct" in str(err.value)

    @pytest.mark.parametrize("s,t", [(2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 5), (4, 5)])
    def test_matches_bounded_oracle_all_filters(self, s, t):
        # the bound sum(gaps) provably covers every core of the pair
        bound = sum(gap_poset(s, t))
        naive_all = enumerate_core_bounded(s, t, "all", bound).partitions
        for name, predicate in FILTERS.items():
            fast = enumerate_core(s, t, name)
            slow = tuple(lam for lam in naive_all if predicate(lam))
            assert fast.partitions == slow

    def test_canonical_order_and_determinism(self):
        result = enumerate_core(5, 7, "distinct")
        assert list(result.partitions) == sorted(result.partitions, key=canonical_key)
        again = enumerate_core(5, 7, "distinct")
        assert result == again

    def test_canonical_helper_matches_canonical_key(self):
        # (5, 3) is a prefix of (5, 3, 1) and (2, 1) of (2, 1, 1): the prefix
        # comes first, by size, although it is smaller in descending order.
        mixed = list(enumerate_core_bounded(2, 5, "all", 12).partitions) + [
            Partition(parts) for parts in [(5, 3), (5, 3, 1), (2, 1), (2, 1, 1), (6, 2), (5, 3)]
        ]
        random.Random(10).shuffle(mixed)
        assert _canonical(mixed) == sorted(mixed, key=canonical_key)

    def test_witnesses_are_the_tail_of_the_listing(self):
        # the size-ascending tail against a scan of every listed size
        mixed = list(enumerate_core_bounded(2, 5, "all", 12).partitions)
        random.Random(12).shuffle(mixed)
        families = [
            mixed,
            enumerate_core_bounded(3, 6, "all", 12).partitions,
            enumerate_core(10, 11, "distinct").partitions,
            enumerate_core(11, 12).partitions,
            [],
        ]
        counts = []
        for found in families:
            result = _result(0, 0, "all", list(found))
            scan = tuple(lam for lam in result.partitions if lam.size == result.max_size)
            assert result.max_size_witnesses == scan
            counts.append(len(scan))
        assert counts == [1, 2, 2, 1, 0]

    @pytest.mark.parametrize("part_filter", sorted(FILTERS))
    def test_listing_in_canonical_key_order_for_every_small_pair(self, part_filter):
        for s in range(1, 10):
            for t in range(s, 10):
                if gcd(s, t) != 1:
                    continue
                result = enumerate_core(s, t, part_filter)
                listed = result.partitions
                assert listed == tuple(sorted(listed, key=canonical_key)), (s, t)
                sizes = [lam.size for lam in listed]
                assert result.max_size == max(sizes, default=0)
                tail = tuple(lam for lam in listed if lam.size == result.max_size)
                assert result.max_size_witnesses == tail, (s, t)

    @given(st.lists(partitions(max_part=6, max_len=5)))
    def test_canonical_helper_matches_canonical_key_on_any_list(self, family):
        assert _canonical(family) == sorted(family, key=canonical_key)

    def test_distinct_results_have_twin_free_downclosed_betas(self):
        gaps = set(gap_poset(7, 9))
        for lam in enumerate_core(7, 9, "distinct").partitions:
            beta = to_beta(lam)
            assert is_twin_free(beta)
            assert beta <= gaps
            for x in beta:
                for below in (x - 7, x - 9):
                    assert below <= 0 or below in beta

    def test_fibonacci_counts(self):
        for s in range(1, 13):
            assert enumerate_core(s, s + 1, "distinct").count == fibonacci(s + 1)

    def test_self_conjugate_filter(self):
        result = enumerate_core(4, 5, "self_conjugate")
        for lam in result.partitions:
            assert FILTERS["self_conjugate"](lam)
        assert result.count == 6  # C(2 + 2, 2)


class TestBetaSetPath:
    """The walk with beta-set filters against the recursive walk with FILTERS."""

    @pytest.mark.parametrize("part_filter", sorted(FILTERS))
    def test_matches_recursive_walk_oracle(self, part_filter):
        for s in range(1, 11):
            for t in range(1, 11):
                if gcd(s, t) == 1:
                    fast = enumerate_core(s, t, part_filter)
                    assert fast == enumerate_core_reference(s, t, part_filter), (s, t)

    @pytest.mark.parametrize(
        "s,t",
        [
            pair
            for s in range(1, 12)
            for t in (s + 1, s + 2, 2 * s - 1, 2 * s + 1)
            if gcd(s, t) == 1
            for pair in ((s, t), (t, s))
        ],
    )
    def test_distinct_walk_matches_recursive_take_leave(self, s, t):
        # the addability rule, with no gap list, against take/leave over the sieved gaps;
        # the walk's own order is already the sorted one
        want = sorted(tuple(sorted(ideal)) for ideal in down_closed_subsets_recursive(s, t, True))
        assert list(_kept_betas(s, t, "distinct")) == want

    @pytest.mark.parametrize("part_filter", sorted(FILTERS))
    def test_walk_order_is_lexicographic(self, part_filter):
        # pre-order over ascending frames: appending x + min(s, t) relies on it
        for s in range(1, 13):
            for t in range(1, 13):
                if gcd(s, t) == 1:
                    walked = list(_ideals(s, t, part_filter))
                    assert walked == sorted(walked), (s, t)

    def test_self_conjugate_beta_predicate_exhaustive(self):
        for lam in brute_partitions_upto(14):
            beta = tuple(sorted(to_beta(lam)))
            assert is_self_conjugate_beta(beta) == (conjugate(lam) == lam), lam

    @pytest.mark.parametrize(
        "part_filter,predicate",
        [("distinct", has_distinct_parts), ("odd", has_odd_parts)],
        ids=["distinct", "odd"],
    )
    def test_pruned_walk_matches_post_filter(self, part_filter, predicate):
        # the pruned walk yields exactly the kept ideals of the unpruned one, in walk order
        for s in range(1, 18):
            for t in range(s + 1, 19 - s):
                if gcd(s, t) == 1:
                    full = _ideals(s, t, "all")
                    want = [beta for beta in full if predicate(_decode_ascending(beta))]
                    assert list(_ideals(s, t, part_filter)) == want, (s, t)

    @pytest.mark.parametrize(
        "s,t", [(s, t) for s in range(1, 13) for t in range(1, 13) if gcd(s, t) == 1]
    )
    def test_self_conjugate_walk_matches_post_filter(self, s, t):
        # the arm-set walk against the unpruned gap walk plus the beta-set predicate
        kept = [beta for beta in _ideals(s, t, "all") if is_self_conjugate_beta(beta)]
        want = _result(s, t, "self_conjugate", [_decode_ascending(beta) for beta in kept])
        assert enumerate_core(s, t, "self_conjugate") == want
        assert _summary_of(summarize_core(s, t, "self_conjugate")) == _summary_of(want)
        # every walked arm set is kept
        walked = sum(1 for _ in _ideals(s, t, "self_conjugate"))
        assert walked == len(kept) == fms_selfconjugate_count(s, t)

    def test_unchecked_decode_exhaustive(self):
        for lam in brute_partitions_upto(14):
            decoded = _decode_ascending(tuple(sorted(to_beta(lam))))
            assert decoded == lam
            assert Partition(decoded.parts) == decoded  # would pass the skipped checks

    def test_recursion_limit_untouched(self):
        limit = sys.getrecursionlimit()
        assert enumerate_core(3, 4).count == 5
        # (2, 2501) has a chain of 1250 gaps, deeper than the default limit
        assert enumerate_core(2, 2501).count == 1251
        assert sys.getrecursionlimit() == limit
        assert not hasattr(search, "sys")


def _summary_of(result) -> tuple:
    return result.count, result.max_size, result.max_size_witnesses


# Coprime pairs, both orders, whose whole family stays small enough to list.
SMALL_PAIRS = [
    (s, t)
    for s in range(1, 30)
    for t in range(1, 30)
    if gcd(s, t) == 1 and anderson_count(s, t) <= 3000
]
CLOSED_FORMS = {"all": anderson_count, "self_conjugate": fms_selfconjugate_count}


class TestSummaryFold:
    """summarize_core against the listing and the recursive-walk oracle."""

    def test_5_7_distinct(self):
        assert summarize_core(5, 7, "distinct") == CoreSummary(
            5, 7, "distinct", 16, 21, (Partition((9, 5, 4, 2, 1)),)
        )

    def test_witnesses_canonically_ordered(self):
        # (7, 8) distinct has two maximal witnesses (7 = 1 mod 3)
        summary = summarize_core(7, 8, "distinct")
        assert len(summary.max_size_witnesses) == 2
        assert list(summary.max_size_witnesses) == sorted(
            summary.max_size_witnesses, key=canonical_key
        )

    @pytest.mark.parametrize("part_filter", sorted(FILTERS))
    def test_matches_listing_and_oracle(self, part_filter):
        for s in range(1, 11):
            for t in range(1, 11):
                if gcd(s, t) == 1:
                    folded = _summary_of(summarize_core(s, t, part_filter))
                    assert folded == _summary_of(enumerate_core(s, t, part_filter)), (s, t)
                    assert folded == _summary_of(enumerate_core_reference(s, t, part_filter)), (s, t)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SMALL_PAIRS), st.sampled_from(sorted(FILTERS)))
    def test_random_pairs_match_listing_and_closed_forms(self, pair, part_filter):
        s, t = pair
        summary = summarize_core(s, t, part_filter)
        assert (summary.s, summary.t, summary.filter) == (s, t, part_filter)
        assert _summary_of(summary) == _summary_of(enumerate_core(s, t, part_filter))
        size = search.family_size(s, t, part_filter)
        if part_filter in CLOSED_FORMS:
            assert size == summary.count == CLOSED_FORMS[part_filter](s, t)
        else:
            assert size is None

    def test_errors_match_enumerate_core(self):
        for call in (summarize_core, search.family_size):
            with pytest.raises(InfiniteFamilyError):
                call(2, 4, "distinct")
            with pytest.raises(ValueError) as err:
                call(3, 4, "weird")
            assert "distinct" in str(err.value)
        with pytest.raises(ValueError):
            summarize_core(True, 2)


class TestEnumerateCoreBounded:
    def test_non_coprime_staircases(self):
        result = enumerate_core_bounded(2, 4, "all", 6)
        assert {lam.parts for lam in result.partitions} == {(), (1,), (2, 1), (3, 2, 1)}

    def test_bound_truncates(self):
        assert enumerate_core_bounded(2, 4, "all", 2).count == 2

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            enumerate_core_bounded(0, 3, "all", 5)
        with pytest.raises(ValueError):
            enumerate_core_bounded(2, 3, "all", -1)
        # bools and floats are refused as enumerate_core refuses them
        with pytest.raises(ValueError, match="integer >= 1"):
            enumerate_core_bounded(True, 2, "all", 3)
        with pytest.raises(ValueError, match="integer >= 1"):
            enumerate_core_bounded(2.0, 3, "all", 3)


class TestPerimeterEnumerators:
    def test_distinct_examples(self):
        assert [lam.parts for lam in enumerate_distinct_by_perimeter(0)] == [()]
        assert {lam.parts for lam in enumerate_distinct_by_perimeter(5)} == {
            (5,), (4, 1), (4, 2), (4, 3), (3, 2, 1),
        }
        assert len(enumerate_distinct_by_perimeter(6)) == 8

    def test_odd_examples(self):
        assert [lam.parts for lam in enumerate_odd_by_perimeter(1)] == [(1,)]
        assert {lam.parts for lam in enumerate_odd_by_perimeter(5)} == {
            (5,), (3, 3, 3), (3, 3, 1), (3, 1, 1), (1, 1, 1, 1, 1),
        }
        assert {lam.parts for lam in enumerate_odd_by_perimeter(4)} == {
            (1, 1, 1, 1), (3, 3), (3, 1),
        }

    def test_counts_are_fibonacci(self):
        for m in range(1, 21):
            want = fibonacci(m)
            assert len(enumerate_distinct_by_perimeter(m)) == want
            assert len(enumerate_odd_by_perimeter(m)) == want

    def test_shapes_and_perimeters(self):
        for m in range(0, 13):
            for lam in enumerate_distinct_by_perimeter(m):
                assert has_distinct_parts(lam)
                assert (lam.parts[0] + lam.ell - 1 if lam else 0) == m
            for lam in enumerate_odd_by_perimeter(m):
                assert has_odd_parts(lam)
                assert (lam.parts[0] + lam.ell - 1 if lam else 0) == m

    def test_against_box_oracle(self):
        # the box oracle shares no step with the shape-built generators
        for m in range(0, 16):
            want_d = {lam.parts for lam in perimeter_family(m, has_distinct_parts)}
            want_o = {lam.parts for lam in perimeter_family(m, has_odd_parts)}
            assert {lam.parts for lam in enumerate_distinct_by_perimeter(m)} == want_d
            assert {lam.parts for lam in enumerate_odd_by_perimeter(m)} == want_o

    def test_levels_match_checked_builder(self):
        for m in range(0, 21):
            distinct = enumerate_distinct_by_perimeter(m)
            odd = enumerate_odd_by_perimeter(m)
            assert distinct == distinct_by_perimeter_checked(m), m
            assert odd == odd_by_perimeter_checked(m), m
            for lam in distinct + odd:
                assert type(lam.parts) is tuple
                assert Partition(lam.parts) == lam  # would pass the skipped checks

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            enumerate_distinct_by_perimeter(-1)
        with pytest.raises(ValueError):
            enumerate_odd_by_perimeter(-2)


class TestTwinFreeTuples:
    def test_degenerate_universe(self):
        for d in range(1, 5):
            assert count_twin_free_tuples(1, d, exclude_last=False) == 1
            assert count_twin_free_tuples(1, d, exclude_last=True) == 1

    def test_two_element_universe(self):
        for d in range(1, 6):
            assert count_twin_free_tuples(2, d, exclude_last=False) == d + 1
            assert count_twin_free_tuples(2, d, exclude_last=True) == d

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        assert count_twin_free_tuples(1, 5000, True) == 1

    def test_pinned_value_s5_d2(self):
        # d(3d + 2) at d = 2
        assert count_twin_free_tuples(5, 2, exclude_last=True) == 16

    def test_tuples_match_distinct_core_enumeration(self):
        for d in range(1, 4):
            for s in range(1, 9):
                t = d * s - 1
                if t < 1:
                    continue
                assert (
                    count_twin_free_tuples(s, d, exclude_last=True)
                    == enumerate_core(s, t, "distinct").count
                )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            count_twin_free_tuples(0, 1, exclude_last=False)
        with pytest.raises(ValueError):
            count_twin_free_tuples(3, 0, exclude_last=False)


@pytest.mark.parametrize(
    "call",
    [
        compositions_of,
        enumerate_distinct_by_perimeter,
        enumerate_odd_by_perimeter,
        partitions_of,
        lambda x: count_twin_free_tuples(x, 1, True),
        lambda x: count_twin_free_tuples(3, x, True),
        lambda x: enumerate_core_bounded(2, 4, "all", x),
        lambda x: is_t_core(Partition((2, 1)), x),
        lambda x: is_t_core_beta(frozenset({3, 1}), x),
        lambda x: check_core_twinfree_identity(3, x),
    ],
    ids=[
        "compositions_of", "distinct", "odd", "partitions_of", "tuples_s", "tuples_d",
        "bounded", "is_t_core", "is_t_core_beta", "twinfree_identity_d",
    ],
)
@pytest.mark.parametrize("bad", [True, 2.5, -1])
def test_integer_arguments_reject_bools_floats_and_negatives(call, bad):
    # checked at the call, before anything is built or listed
    with pytest.raises(ValueError, match="must be an integer >="):
        call(bad)
