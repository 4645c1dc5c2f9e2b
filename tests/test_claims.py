import pytest

from stcores import CLAIMS, run_claim
from stcores import claims as claims_mod
from stcores import sequences as sequences_mod


SMALL_RANGES = {
    "fib-distinct": {"max_s": 8},
    "distinct-odd": {"max_m": 8},
    "fib-general": {"max_d": 2, "max_s": 6},
    "conjecture2": {"max_s": 9},
    "maxsize-s-s2": {"max_s": 9},
    "maxsize-s-s1": {"max_s": 10},
    "anderson": {"max_sum": 11},
    "selfconjugate": {"max_sum": 11},
}


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_every_claim_passes_on_reduced_range(name):
    report = run_claim(name, **SMALL_RANGES[name])
    assert report.passed, report.mismatches
    assert report.cases
    assert report.claim == name
    assert report.seconds >= 0
    assert report.range


def test_fib_distinct_default_range_passes():
    report = run_claim("fib-distinct")
    assert report.passed
    assert len(report.cases) == 20
    assert report.range == "s = 1..20"


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_every_claim_passes_on_default_range(name):
    report = run_claim(name)
    assert report.passed, report.mismatches


def test_selfconjugate_passes_far_past_default_range():
    # the arm-set walk visits only the counted cores, so s + t <= 29 is cheap
    report = run_claim("selfconjugate", max_sum=29)
    assert report.passed, report.mismatches
    assert len(report.cases) == 134


def test_report_lists_every_mismatch():
    report = run_claim("fib-distinct", max_s=6)
    assert report.mismatches == ()
    assert all(case.expected == case.got for case in report.cases)


def test_fib_general_passes_at_depths_past_the_recursion_limit():
    # d = 1100 nests more tuple levels than the default recursion limit of 1000 frames
    assert run_claim("fib-general", max_d=1100, max_s=1).passed


def test_unknown_claim_raises_key_error():
    with pytest.raises(KeyError):
        run_claim("not-a-claim")


def test_wrong_range_flag_rejected():
    with pytest.raises(ValueError) as err:
        run_claim("conjecture2", max_m=5)
    assert "--max-m" in str(err.value)


@pytest.mark.parametrize("value", [True, 2.5, "3"])
def test_non_int_range_rejected(value):
    with pytest.raises(ValueError) as err:
        run_claim("fib-distinct", max_s=value)
    assert "--max-s" in str(err.value)


def test_none_ranges_fall_back_to_defaults():
    report = run_claim("anderson", max_sum=None)
    assert report.range == "coprime s < t with s + t <= 15"
    assert report.passed


# Harness meta-test: corrupting any formula constant must flip the matching
# claim to FAIL.  Each entry names the module attribute the claim reads and
# a corrupted stand-in.

MUTATIONS = [
    ("fib-distinct", sequences_mod, "fibonacci", lambda n: 1, {"max_s": 6}),
    ("distinct-odd", sequences_mod, "fibonacci", lambda n: n + 1, {"max_m": 6}),
    ("fib-general", sequences_mod, "n_poly",
     lambda s: sequences_mod.CountPolynomial((1, 1)), {"max_d": 2, "max_s": 5}),
    ("conjecture2", claims_mod, "conjecture2_count", lambda s: 2 ** (s - 1) + 1, {"max_s": 7}),
    ("maxsize-s-s2", claims_mod, "max_size_s_plus_2", lambda s: 0, {"max_s": 7}),
    ("maxsize-s-s2", claims_mod, "witness_length_s_plus_2", lambda s: 1, {"max_s": 7}),
    ("maxsize-s-s2", claims_mod, "witness_largest_part_s_plus_2", lambda s: 1, {"max_s": 7}),
    ("maxsize-s-s1", claims_mod, "max_size_s_plus_1", lambda s: s, {"max_s": 7}),
    ("maxsize-s-s1", claims_mod, "witness_count_s_plus_1", lambda s: 3, {"max_s": 7}),
    ("anderson", sequences_mod, "anderson_count", lambda s, t: 7, {"max_sum": 8}),
    ("selfconjugate", sequences_mod, "fms_selfconjugate_count", lambda s, t: 0, {"max_sum": 8}),
]


@pytest.mark.parametrize(
    "name,module,attr,mutant,ranges",
    MUTATIONS,
    ids=[f"{name}:{attr}" for name, _, attr, _, ranges in MUTATIONS],
)
def test_mutated_formula_fails_its_claim(monkeypatch, name, module, attr, mutant, ranges):
    baseline = run_claim(name, **ranges)
    assert baseline.passed
    monkeypatch.setattr(module, attr, mutant)
    corrupted = run_claim(name, **ranges)
    assert not corrupted.passed
    assert corrupted.mismatches


def test_raising_case_builder_is_a_failed_case(monkeypatch):
    def broken(s, t):
        raise ArithmeticError("corrupted closed form")

    monkeypatch.setattr(sequences_mod, "anderson_count", broken)
    report = run_claim("anderson", max_sum=8)
    assert not report.passed
    assert report.mismatches
    assert all(case.got == "ArithmeticError" for case in report.mismatches)
