import contextlib
import io
import tracemalloc
from dataclasses import replace

import pytest

from stcores import CLAIMS, run_claim, shared_fold
from stcores import cli as cli_mod
from stcores import claims as claims_mod
from stcores import partition as partition_mod
from stcores import search as search_mod
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
    ("conjecture2", sequences_mod, "conjecture2_count", lambda s: 2 ** (s - 1) + 1, {"max_s": 7}),
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


# Enumerator-side meta-test: a corrupted fold must flip every claim that
# reads the corrupted field, alone and inside one `verify all` whose claims
# share one memo.  The fold is patched on `search`, where the claims look it up.

FOLD_MUTATIONS = {
    "count": (
        lambda summary: replace(summary, count=summary.count + 1),
        ("anderson", "conjecture2", "fib-distinct", "fib-general", "selfconjugate"),
    ),
    "max_size": (
        lambda summary: replace(summary, max_size=summary.max_size + 1),
        ("maxsize-s-s1", "maxsize-s-s2"),
    ),
}


def _corrupt_fold(monkeypatch, field):
    mutant, _ = FOLD_MUTATIONS[field]
    original = search_mod.summarize_core
    monkeypatch.setattr(
        search_mod, "summarize_core", lambda s, t, f="all": mutant(original(s, t, f))
    )


def _verify_all_csv() -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_mod.main(["verify", "all", "--format", "csv"])
    return code, out.getvalue().splitlines()[1:]


@pytest.mark.parametrize(
    "field,name",
    [(field, name) for field, (_, names) in FOLD_MUTATIONS.items() for name in names],
)
def test_corrupted_fold_fails_the_claim(monkeypatch, field, name):
    assert run_claim(name).passed
    _corrupt_fold(monkeypatch, field)
    corrupted = run_claim(name)
    assert not corrupted.passed
    assert corrupted.mismatches


@pytest.mark.parametrize("field", sorted(FOLD_MUTATIONS))
def test_corrupted_fold_fails_its_claims_in_verify_all(monkeypatch, field):
    code, rows = _verify_all_csv()
    assert code == 0 and all(row.endswith(",True") for row in rows)
    _corrupt_fold(monkeypatch, field)
    code, rows = _verify_all_csv()
    assert code == 3
    failed = {row.split(",")[1].split()[0] for row in rows if row.endswith(",False")}
    assert failed == {"claim=" + name for name in FOLD_MUTATIONS[field][1]}


def test_a_shared_fold_serves_later_claims_from_its_memo(monkeypatch):
    calls = []
    original = search_mod.summarize_core

    def counted(s, t, part_filter="all"):
        calls.append((s, t, part_filter))
        return original(s, t, part_filter)

    monkeypatch.setattr(search_mod, "summarize_core", counted)
    fold = shared_fold()
    assert run_claim("fib-distinct", fold=fold).passed
    assert len(calls) == 20
    # every (s, s+1) family with s <= 18 was folded by fib-distinct
    assert run_claim("maxsize-s-s1", fold=fold).passed
    assert len(calls) == 20
    assert run_claim("maxsize-s-s1").passed  # the default fold is a fresh memo
    assert len(calls) == 38


def test_a_raising_fold_fails_every_case_that_reads_it(monkeypatch):
    # a fold that raises is not memoized, so each case sharing its family fails too
    def broken(s, t, part_filter="all"):
        raise ArithmeticError("corrupted enumerator")

    monkeypatch.setattr(search_mod, "summarize_core", broken)
    fold = shared_fold()
    reports = [run_claim(name, fold=fold) for name in ("fib-distinct", "maxsize-s-s1")]
    assert [len(r.mismatches) for r in reports] == [20, 18]
    assert all(c.got == "ArithmeticError" for r in reports for c in r.cases)


def test_raising_case_builder_is_a_failed_case(monkeypatch):
    def broken(s, t):
        raise ArithmeticError("corrupted closed form")

    monkeypatch.setattr(sequences_mod, "anderson_count", broken)
    report = run_claim("anderson", max_sum=8)
    assert not report.passed
    assert report.mismatches
    assert all(case.got == "ArithmeticError" for case in report.mismatches)


def test_distinct_odd_counts_shapes_without_building_partitions(monkeypatch):
    def refused(*args):
        raise AssertionError("distinct-odd built or sorted a partition")

    monkeypatch.setattr(search_mod, "_result", refused)
    monkeypatch.setattr(search_mod, "_sorted_shapes", refused)
    monkeypatch.setattr(partition_mod, "_new", refused)  # every unchecked wrap starts here
    report = run_claim("distinct-odd", max_m=12)
    assert report.passed, report.mismatches
    assert len(report.cases) == 24  # M = 1..12, two families


def test_distinct_odd_memory_does_not_grow_with_the_family():
    # F(22) = 17,711 shapes per family: a listing of them takes megabytes
    tracemalloc.start()
    try:
        report = run_claim("distinct-odd", max_m=22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"
