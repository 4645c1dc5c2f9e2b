import pytest
from hypothesis import given

from stcores import (
    Partition,
    compositions_of,
    distinct_to_odd,
    enumerate_distinct_by_perimeter,
    enumerate_odd_by_perimeter,
    fibonacci,
    has_distinct_parts,
    has_odd_parts,
    inverse_lambda_d,
    inverse_lambda_o,
    is_composition,
    lambda_d,
    lambda_o,
    odd_to_distinct,
    perimeter,
)

from oracles import compositions, lambda_d_checked, lambda_o_checked, perimeter_family


class TestCompositionsOf:
    def test_small_tables(self):
        assert compositions_of(0) == [()]
        assert compositions_of(1) == [(1,)]
        assert compositions_of(2) == [(1, 1)]
        assert compositions_of(3) == [(1, 1, 1), (2, 1)]
        assert compositions_of(4) == [(1, 1, 1, 1), (1, 2, 1), (2, 1, 1)]

    def test_counts_are_fibonacci(self):
        for m in range(1, 19):
            assert len(compositions_of(m)) == fibonacci(m)

    def test_lexicographic_order_and_validity(self):
        for m in range(0, 12):
            words = compositions_of(m)
            assert words == sorted(words)
            assert len(set(words)) == len(words)
            for mu in words:
                assert is_composition(mu)
                assert sum(mu) == m

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            compositions_of(-1)


class TestIsComposition:
    def test_cases(self):
        assert is_composition(())
        assert is_composition((1,))
        assert is_composition((2, 1))
        assert not is_composition((1, 2))
        assert not is_composition((2,))
        assert not is_composition((3, 1))


class TestForwardMaps:
    def test_lambda_d_examples(self):
        assert lambda_d(()) == Partition(())
        assert lambda_d((1,)) == Partition((1,))
        assert lambda_d((1, 2, 1)) == Partition((3, 1))
        assert lambda_d((2, 2, 1)) == Partition((3, 2, 1))

    def test_lambda_o_examples(self):
        assert lambda_o(()) == Partition(())
        assert lambda_o((1,)) == Partition((1,))
        assert lambda_o((1, 2, 1)) == Partition((3, 3))
        assert lambda_o((2, 2, 1)) == Partition((5,))

    @pytest.mark.parametrize(
        "bad", [(1, 2), (2,), (3, 1), (0, 1), (True,), (2, True), (2.0, 1.0), (1.0,)]
    )
    def test_reject_invalid_compositions(self, bad):
        with pytest.raises(ValueError):
            lambda_d(bad)
        with pytest.raises(ValueError):
            lambda_o(bad)

    def test_match_checked_builders(self):
        for m in range(0, 19):
            for mu in compositions_of(m):
                image_d, image_o = lambda_d(mu), lambda_o(mu)
                assert image_d == lambda_d_checked(mu), mu
                assert image_o == lambda_o_checked(mu), mu
                for lam in (image_d, image_o):
                    assert type(lam.parts) is tuple
                    assert Partition(lam.parts) == lam  # would pass the skipped checks

    def test_images_have_right_shape_and_perimeter(self):
        for m in range(0, 19):
            for mu in compositions_of(m):
                image_d, image_o = lambda_d(mu), lambda_o(mu)
                assert perimeter(image_d) == m
                assert perimeter(image_o) == m
                assert all(a > b for a, b in zip(image_d.parts, image_d.parts[1:]))
                assert all(p % 2 == 1 for p in image_o.parts)


class TestInverses:
    def test_examples(self):
        assert inverse_lambda_d(Partition((3, 2, 1))) == (2, 2, 1)
        assert inverse_lambda_d(Partition((1,))) == (1,)
        assert inverse_lambda_d(Partition(())) == ()
        assert inverse_lambda_o(Partition((3, 3, 3))) == (1, 1, 2, 1)
        assert inverse_lambda_o(Partition(())) == ()

    def test_reject_wrong_shape(self):
        with pytest.raises(ValueError):
            inverse_lambda_d(Partition((3, 3)))
        with pytest.raises(ValueError):
            inverse_lambda_o(Partition((2, 1)))

    def test_round_trips(self):
        for m in range(0, 19):
            for mu in compositions_of(m):
                assert inverse_lambda_d(lambda_d(mu)) == mu
                assert inverse_lambda_o(lambda_o(mu)) == mu

    @given(compositions())
    def test_round_trip_property(self, mu):
        assert inverse_lambda_d(lambda_d(mu)) == mu
        assert inverse_lambda_o(lambda_o(mu)) == mu


class TestComposedBijection:
    def test_examples(self):
        assert distinct_to_odd(Partition((3, 1))) == Partition((3, 3))
        assert distinct_to_odd(Partition((4, 2))) == Partition((3, 3, 1))
        assert distinct_to_odd(Partition((3, 2, 1))) == Partition((5,))
        assert odd_to_distinct(Partition((3, 3))) == Partition((3, 1))

    def test_reject_wrong_shape(self):
        with pytest.raises(ValueError):
            distinct_to_odd(Partition((3, 3)))
        with pytest.raises(ValueError):
            odd_to_distinct(Partition((2, 1)))

    def test_match_checked_composition_route(self):
        for m in range(0, 17):
            for lam in perimeter_family(m, has_distinct_parts):
                image = distinct_to_odd(lam)
                mu = inverse_lambda_d(lam)
                assert image == lambda_o(mu) == lambda_o_checked(mu), lam
                assert Partition(image.parts) == image
            for lam in perimeter_family(m, has_odd_parts):
                image = odd_to_distinct(lam)
                mu = inverse_lambda_o(lam)
                assert image == lambda_d(mu) == lambda_d_checked(mu), lam
                assert Partition(image.parts) == image

    def test_size_not_preserved(self):
        image_d, image_o = lambda_d((1, 2, 1)), lambda_o((1, 2, 1))
        assert image_d.size == 4
        assert image_o.size == 6

    def test_images_match_perimeter_enumeration(self):
        for m in range(0, 15):
            family = compositions_of(m)
            image_d = {lambda_d(mu) for mu in family}
            image_o = {lambda_o(mu) for mu in family}
            assert image_d == set(enumerate_distinct_by_perimeter(m))
            assert image_o == set(enumerate_odd_by_perimeter(m))

    def test_bijection_between_families(self):
        for m in range(0, 15):
            family_d = enumerate_distinct_by_perimeter(m)
            family_o = set(enumerate_odd_by_perimeter(m))
            mapped = [distinct_to_odd(lam) for lam in family_d]
            assert set(mapped) == family_o
            assert len(set(mapped)) == len(mapped)
            for before, after in zip(family_d, mapped):
                assert perimeter(before) == perimeter(after)
                assert odd_to_distinct(after) == before
