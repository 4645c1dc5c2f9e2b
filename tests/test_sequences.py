import sys

import pytest

import stcores
from stcores import (
    CountPolynomial,
    InfiniteFamilyError,
    anderson_count,
    catalan,
    check_core_twinfree_identity,
    count_twin_free_tuples,
    fibonacci,
    fms_selfconjugate_count,
    m_poly,
    n_poly,
)

from oracles import count_distinct_partitions, count_odd_partitions


class TestFibonacci:
    def test_indexing(self):
        assert [fibonacci(n) for n in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
        assert fibonacci(5) == 5
        assert fibonacci(7) == 13

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fibonacci(-1)

    def test_big_values_exact(self):
        assert fibonacci(300) == (
            222232244629420445529739893461909967206666939096499764990979600
        )


class TestBinomialForms:
    def test_anderson_examples(self):
        assert anderson_count(3, 4) == 5
        assert anderson_count(2, 3) == 2
        assert anderson_count(1, 9) == 1

    def test_catalan(self):
        assert [catalan(s) for s in range(7)] == [1, 1, 2, 5, 14, 42, 132]
        for s in range(1, 11):
            assert anderson_count(s, s + 1) == catalan(s)

    def test_anderson_symmetric(self):
        assert anderson_count(4, 9) == anderson_count(9, 4)

    def test_fms_examples(self):
        assert fms_selfconjugate_count(3, 4) == 3
        assert fms_selfconjugate_count(5, 7) == 10
        for t in (2, 5, 8):
            assert fms_selfconjugate_count(1, t) == 1

    @pytest.mark.parametrize("fn", [anderson_count, fms_selfconjugate_count])
    def test_reject_non_coprime(self, fn):
        with pytest.raises(ValueError):
            fn(4, 6)
        with pytest.raises(ValueError):
            fn(0, 3)
        with pytest.raises(ValueError):
            fn(True, 3)
        with pytest.raises(InfiniteFamilyError) as err:
            fn(2, 4)
        assert err.value.common == 2

    def test_inexact_division_raises(self):
        # the binomial forms divide exactly; a remainder is a bug, not a count
        assert stcores.sequences._exact_div(8, 2) == 4
        with pytest.raises(ArithmeticError, match="7 is not divisible by 2"):
            stcores.sequences._exact_div(7, 2)

    def test_one_infinite_family_error(self):
        assert stcores.search.InfiniteFamilyError is InfiniteFamilyError
        assert stcores.sequences.InfiniteFamilyError is InfiniteFamilyError


class TestCountPolynomial:
    def test_normalization(self):
        assert CountPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert CountPolynomial(()).coeffs == ()
        assert CountPolynomial((0,)).coeffs == ()

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            CountPolynomial((1, -2))

    def test_evaluation(self):
        poly = CountPolynomial((2, 0, 3))  # 3d^2 + 2
        assert poly(0) == 2
        assert poly(1) == 5
        assert poly(10) == 302

    def test_degree_and_str(self):
        assert CountPolynomial(()).degree == -1
        assert CountPolynomial((7,)).degree == 0
        assert str(CountPolynomial((0, 2, 1))) == "d^2 + 2d"
        assert str(CountPolynomial((0, 2, 7, 4))) == "4d^3 + 7d^2 + 2d"
        assert str(CountPolynomial(())) == "0"
        assert str(CountPolynomial((1,))) == "1"


class TestGeneralizedFibonacci:
    def test_n_poly_small_list(self):
        expected = [(1,), (0, 1), (0, 2), (0, 2, 1), (0, 2, 3), (0, 2, 5, 1), (0, 2, 7, 4)]
        assert [n_poly(s).coeffs for s in range(1, 8)] == expected

    def test_m_poly_starts(self):
        assert m_poly(1).coeffs == (1,)
        assert m_poly(2).coeffs == (1, 1)
        assert m_poly(3).coeffs == (1, 2)  # (d+1) + d*1

    def test_recurrences_hold_as_polynomials(self):
        # X(s) = X(s-1) + d * X(s-2), coefficient by coefficient
        for poly in (n_poly, m_poly):
            for s in range(3, 16):
                prev, shifted = poly(s - 1).coeffs, (0,) + poly(s - 2).coeffs
                width = max(len(prev), len(shifted))
                prev += (0,) * (width - len(prev))
                shifted += (0,) * (width - len(shifted))
                want = CountPolynomial(tuple(x + y for x, y in zip(prev, shifted)))
                assert poly(s) == want, (poly.__name__, s)

    def test_collapse_to_fibonacci_at_one(self):
        for s in range(1, 21):
            assert n_poly(s)(1) == fibonacci(s)
            assert m_poly(s)(1) == fibonacci(s + 1)

    def test_rejects_bad_s(self):
        with pytest.raises(ValueError):
            n_poly(0)
        with pytest.raises(ValueError):
            m_poly(-2)

    def test_deep_s_needs_no_recursion(self):
        limit = sys.getrecursionlimit()
        assert n_poly(1200).degree == 600
        assert m_poly(1200).degree == 600
        assert sys.getrecursionlimit() == limit

    @pytest.mark.parametrize("fn", [fibonacci, catalan, m_poly, n_poly])
    def test_no_memo(self, fn):
        # a memo would be process-global state that grows with every call
        assert not hasattr(fn, "cache_info")

    @pytest.mark.parametrize("fn", [fibonacci, catalan, m_poly, n_poly])
    @pytest.mark.parametrize("bad", [True, 2.5, -1])
    def test_rejects_bools_floats_and_negatives(self, fn, bad):
        with pytest.raises(ValueError):
            fn(bad)

    def test_polynomials_match_brute_force(self):
        for d in range(1, 5):
            for s in range(1, 13):
                assert n_poly(s)(d) == count_twin_free_tuples(s, d, exclude_last=True)
                assert m_poly(s)(d) == count_twin_free_tuples(s, d, exclude_last=False)


class TestCoreTwinfreeIdentity:
    def test_small_cases(self):
        for d in range(1, 6):
            assert check_core_twinfree_identity(3, d)
            assert check_core_twinfree_identity(4, d)
        assert check_core_twinfree_identity(10, 3)

    def test_range(self):
        for s in range(3, 13):
            for d in range(1, 5):
                assert check_core_twinfree_identity(s, d)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            check_core_twinfree_identity(2, 1)
        with pytest.raises(ValueError):
            check_core_twinfree_identity(5, 0)


class TestEulerDeskCheck:
    def test_distinct_equals_odd_counts(self):
        # classic size statistic, checked by naive listing
        for n in range(0, 41):
            assert count_distinct_partitions(n) == count_odd_partitions(n)
