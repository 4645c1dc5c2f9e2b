import pytest
from hypothesis import given

from stcores import (
    Partition,
    conjugate,
    has_distinct_parts,
    has_odd_parts,
    hook_length,
    is_t_core,
    partitions_of,
    perimeter,
)
from stcores.partition import hook_rows

from oracles import hook_multiset, iter_partitions, partitions


def all_upto(n):
    return [lam for k in range(n + 1) for lam in partitions_of(k)]


class TestConstruction:
    def test_empty(self):
        lam = Partition(())
        assert lam.ell == 0 and lam.size == 0
        assert not lam
        assert str(lam) == "()"

    def test_basic_fields(self):
        lam = Partition((4, 2, 1))
        assert lam.ell == 3
        assert lam.size == 7
        assert list(lam) == [4, 2, 1]
        assert len(lam) == 3
        assert str(lam) == "(4,2,1)"

    def test_accepts_weakly_decreasing(self):
        assert Partition((3, 3, 1)).parts == (3, 3, 1)

    @pytest.mark.parametrize("bad", [(1, 2), (3, 1, 2), (0,), (-1,), (2, 0), (2.5,)])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            Partition(bad)

    def test_equality_and_hash(self):
        assert Partition((2, 1)) == Partition((2, 1))
        assert Partition((2, 1)) != Partition((2,))
        assert len({Partition((2, 1)), Partition((2, 1))}) == 1


class TestHookLength:
    def test_single_cell(self):
        assert hook_length(Partition((1,)), 1, 1) == 1

    def test_two_rows(self):
        lam = Partition((3, 2))
        assert hook_length(lam, 1, 1) == 4
        assert hook_length(lam, 1, 2) == 3

    def test_staircase_corner(self):
        assert hook_length(Partition((3, 2, 1)), 1, 1) == 5

    def test_full_grids(self):
        grids = {
            (3, 2, 1): [[5, 3, 1], [3, 1], [1]],
            (3, 2): [[4, 3, 1], [2, 1]],
            (2, 1): [[3, 1], [1]],
        }
        for parts, grid in grids.items():
            lam = Partition(parts)
            got = [
                [hook_length(lam, i, j) for j in range(1, parts[i - 1] + 1)]
                for i in range(1, len(parts) + 1)
            ]
            assert got == grid
            assert list(hook_rows(lam))[::-1] == grid

    @pytest.mark.parametrize(
        "i,j", [(2, 3), (3, 1), (0, 1), (1, 0), (1, 4), (True, 1), (1, 2.0), (1.0, 1)]
    )
    def test_out_of_diagram(self, i, j):
        with pytest.raises(ValueError) as err:
            hook_length(Partition((3, 2)), i, j)
        assert f"({i}, {j})" in str(err.value)

    def test_out_of_diagram_empty(self):
        with pytest.raises(ValueError):
            hook_length(Partition(()), 1, 1)


class TestPerimeter:
    def test_examples(self):
        assert perimeter(Partition(())) == 0
        assert perimeter(Partition((3, 2, 1))) == 5
        assert perimeter(Partition((3, 3))) == 4

    def test_equals_max_hook_exhaustive(self):
        for lam in all_upto(14):
            hooks = hook_multiset(lam)
            if lam:
                assert perimeter(lam) == hooks[-1] == hook_length(lam, 1, 1)
            else:
                assert perimeter(lam) == 0


class TestIsTCore:
    def test_examples(self):
        assert is_t_core(Partition((3, 2, 1)), 2)
        assert not is_t_core(Partition((2, 1)), 3)
        for t in (1, 2, 7):
            assert is_t_core(Partition(()), t)

    def test_rejects_t_zero(self):
        with pytest.raises(ValueError):
            is_t_core(Partition((2, 1)), 0)

    def test_matches_hook_multiset(self):
        for lam in all_upto(9):
            hooks = set(hook_multiset(lam))
            for t in range(1, 8):
                assert is_t_core(lam, t) == (t not in hooks)

    def test_t_core_implies_multiples(self):
        for lam in all_upto(14):
            for t in range(1, 7):
                if is_t_core(lam, t):
                    for n in (2, 3):
                        assert is_t_core(lam, n * t)

    def test_distinct_core_pair_iff_small_perimeter(self):
        # Distinct parts: avoiding hooks s and s+1 pins the perimeter below s.
        for lam in all_upto(14):
            if not has_distinct_parts(lam):
                continue
            for s in range(1, 17):
                both = is_t_core(lam, s) and is_t_core(lam, s + 1)
                assert both == (perimeter(lam) <= s - 1)


class TestPredicates:
    def test_distinct(self):
        assert has_distinct_parts(Partition((4, 2, 1)))
        assert not has_distinct_parts(Partition((3, 3)))
        assert has_distinct_parts(Partition(()))

    def test_odd(self):
        assert has_odd_parts(Partition((3, 3, 1)))
        assert not has_odd_parts(Partition((4, 1)))
        assert has_odd_parts(Partition(()))


class TestConjugate:
    def test_examples(self):
        assert conjugate(Partition((3, 1))) == Partition((2, 1, 1))
        assert conjugate(Partition(())) == Partition(())
        assert conjugate(Partition((1, 1, 1))) == Partition((3,))

    def test_involution_and_invariants(self):
        for lam in all_upto(12):
            twice = conjugate(conjugate(lam))
            assert twice == lam
            mirror = conjugate(lam)
            assert mirror.size == lam.size
            assert perimeter(mirror) == perimeter(lam)
            assert hook_multiset(mirror) == hook_multiset(lam)

    @given(partitions())
    def test_involution_property(self, lam):
        assert conjugate(conjugate(lam)) == lam


class TestPartitionsOf:
    def test_counts(self):
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        assert [len(list(partitions_of(n))) for n in range(11)] == expected

    def test_matches_independent_generator(self):
        for n in range(11):
            ours = {lam.parts for lam in partitions_of(n)}
            theirs = set(iter_partitions(n))
            assert ours == theirs

    def test_order_and_determinism(self):
        first = list(partitions_of(8))
        assert first[0] == Partition((8,))
        assert first[-1] == Partition((1,) * 8)
        assert first == list(partitions_of(8))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            list(partitions_of(-1))

    @given(partitions())
    def test_strategy_round_trip(self, lam):
        assert Partition(lam.parts) == lam
