"""Verification claims: each pits an enumerator against a closed form.

A claim produces one case per checked identity; a report collects the
cases, an overall verdict, and the wall-clock time.  The enumeration side
is always an exact search from `search`: `summarize_core` where only
counts, max sizes and witnesses are compared (the residue-height DP for
`all` and for `distinct` (s, t) with max = +-1 mod min, one fold over the
walk for every other family), the unsorted perimeter shapes where only
their number is.  The expected side is a formula, so corrupting either
one makes the claim fail loudly.  A case reads at most one (s, t, filter)
family, named by its claim's `family`, and its builder only compares that
family's summary with a formula.  `run_claim` checks every family of the
range against `search.GAP_LIMIT`, then folds each through one fold, by
default a `shared_fold()`, a memo over `search.summarize_core`; one request
passes the same one to every claim it runs, so it folds each unordered
family once.  A claim's scope returns its range text and lazy case params.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from itertools import chain
from math import gcd
from typing import Callable, Iterator

from . import search, sequences
from .sequences import _exact_div

# The summary of the (s, t, filter) family, as `shared_fold` returns it.
Fold = Callable[[int, int, str], search.CoreSummary]


@dataclass(frozen=True)
class ClaimCase:
    params: dict
    expected: str
    got: str
    ok: bool


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    range: str
    cases: tuple[ClaimCase, ...]
    passed: bool
    seconds: float

    @property
    def mismatches(self) -> tuple[ClaimCase, ...]:
        return tuple(c for c in self.cases if not c.ok)


@dataclass(frozen=True)
class Claim:
    name: str
    summary: str
    defaults: dict
    scope: Callable[..., "tuple[str, Iterator[dict]]"]
    family: Callable[[dict], "tuple[int, int, str] | None"]  # the one family a case reads
    cases: Callable[[dict, "search.CoreSummary | None"], "list[ClaimCase]"]


def _case(params: dict, expected, got) -> ClaimCase:
    return ClaimCase(params, str(expected), str(got), expected == got)


# Closed forms behind the max-size claims.

def max_size_s_plus_2(s: int) -> int:
    """Observed largest size of an (s, s+2)-core with distinct parts, s odd."""
    return _exact_div((s * s - 1) * (s + 3) * (5 * s + 17), 384)


def witness_length_s_plus_2(s: int) -> int:
    """Observed number of parts of the unique maximal (s, s+2)-core."""
    return _exact_div((s - 1) * (s + 5), 8)


def witness_largest_part_s_plus_2(s: int) -> int:
    """Observed largest part of the unique maximal (s, s+2)-core."""
    return _exact_div(3 * (s * s - 1), 8)


def max_size_s_plus_1(s: int) -> int:
    """Largest size of an (s, s+1)-core with distinct parts: floor(s(s+1)/6)."""
    return s * (s + 1) // 6


def witness_count_s_plus_1(s: int) -> int:
    """Two maximal witnesses exactly when s = 1 mod 3 and s >= 4, else one."""
    return 2 if s >= 4 and s % 3 == 1 else 1


# Case builders, each called with the case params and the summary of the
# family its claim names (None if it names none); no builder folds.  Formulas
# are reached through their defining module so a corrupted formula
# (monkeypatched in the harness meta-test) is picked up at call time; hence
# `_count_cases` takes a callable of the case params, not a bound formula.

def _count_cases(closed_form: Callable[[dict], int]) -> Callable[..., list[ClaimCase]]:
    """Cases that compare the count of the case's family with closed_form(p)."""

    def cases(p: dict, summary: search.CoreSummary) -> list[ClaimCase]:
        return [_case(p, closed_form(p), summary.count)]

    return cases


def _distinct_odd_cases(p: dict, summary: None) -> list[ClaimCase]:
    m = p["m"]
    want = sequences.fibonacci(m)
    shapes = {"distinct": search._distinct_shapes(m), "odd": search._odd_shapes(m)}
    return [_case({"m": m, "family": f}, want, sum(1 for _ in it)) for f, it in shapes.items()]


def _fib_general_family(p: dict) -> tuple[int, int, str] | None:
    d, s = p["d"], p["s"]
    return (s, d * s - 1, "distinct") if d * s > 1 else None  # (1, 1) has no companion period


def _fib_general_cases(p: dict, summary: search.CoreSummary | None) -> list[ClaimCase]:
    d, s = p["d"], p["s"]
    want = sequences.n_poly(s)(d)
    tuples = search.count_twin_free_tuples(s, d, exclude_last=True)
    cases = [_case({"d": d, "s": s, "check": "tuples"}, want, tuples)]
    if summary is not None:
        cases.append(_case({"d": d, "s": s, "check": "enumeration"}, want, summary.count))
    return cases


def _maxsize_s_s2_cases(p: dict, summary: search.CoreSummary) -> list[ClaimCase]:
    s = p["s"]
    witnesses = summary.max_size_witnesses
    top = witnesses[0]
    return [
        _case({"s": s, "check": "max_size"}, max_size_s_plus_2(s), summary.max_size),
        _case({"s": s, "check": "witnesses"}, 1, len(witnesses)),
        _case({"s": s, "check": "witness_parts"}, witness_length_s_plus_2(s), top.ell),
        _case(
            {"s": s, "check": "witness_largest"},
            witness_largest_part_s_plus_2(s),
            top.parts[0] if top else 0,
        ),
    ]


def _maxsize_s_s1_cases(p: dict, summary: search.CoreSummary) -> list[ClaimCase]:
    s = p["s"]
    return [
        _case({"s": s, "check": "max_size"}, max_size_s_plus_1(s), summary.max_size),
        _case(
            {"s": s, "check": "witnesses"},
            witness_count_s_plus_1(s),
            len(summary.max_size_witnesses),
        ),
    ]


# Scopes.  Each kind of range is one function of a claim's range flags that
# returns the range text for the report and the case params, yielded
# lazily, so the text and the cases it describes come from one place.

def _s_scope(max_s: int) -> tuple[str, Iterator[dict]]:
    return f"s = 1..{max_s}", ({"s": s} for s in range(1, max_s + 1))

def _odd_s_scope(max_s: int) -> tuple[str, Iterator[dict]]:
    return f"odd s = 3..{max_s}", ({"s": s} for s in range(3, max_s + 1, 2))

def _m_scope(max_m: int) -> tuple[str, Iterator[dict]]:
    return f"M = 1..{max_m}", ({"m": m} for m in range(1, max_m + 1))

def _ds_scope(max_d: int, max_s: int) -> tuple[str, Iterator[dict]]:
    return f"d = 1..{max_d}, s = 1..{max_s}", (
        {"d": d, "s": s} for d in range(1, max_d + 1) for s in range(1, max_s + 1)
    )

def _coprime_pair_scope(max_sum: int) -> tuple[str, Iterator[dict]]:
    return f"coprime s < t with s + t <= {max_sum}", (
        {"s": s, "t": t}
        for s in range(1, max_sum)
        for t in range(s + 1, max_sum - s + 1)
        if gcd(s, t) == 1
    )


CLAIMS: dict[str, Claim] = {
    claim.name: claim
    for claim in [
        Claim(
            "fib-distinct",
            "the number of (s, s+1)-core partitions into distinct parts is the "
            "Fibonacci number F(s+1)",
            {"max_s": 20},
            _s_scope,
            lambda p: (p["s"], p["s"] + 1, "distinct"),
            _count_cases(lambda p: sequences.fibonacci(p["s"] + 1)),
        ),
        Claim(
            "distinct-odd",
            "partitions with perimeter M into distinct parts and into odd parts "
            "are both counted by F(M)",
            {"max_m": 20},
            _m_scope,
            lambda p: None,
            _distinct_odd_cases,
        ),
        Claim(
            "fib-general",
            "the number of (s, ds-1)-core partitions into distinct parts matches "
            "the generalized Fibonacci polynomial and the twin-free tuple brute force",
            {"max_d": 3, "max_s": 8},
            _ds_scope,
            _fib_general_family,
            _fib_general_cases,
        ),
        Claim(
            "conjecture2",
            "for odd s, the number of (s, s+2)-core partitions into distinct parts "
            "is 2^(s-1)",
            {"max_s": 15},
            _odd_s_scope,
            lambda p: (p["s"], p["s"] + 2, "distinct"),
            _count_cases(lambda p: sequences.conjecture2_count(p["s"])),
        ),
        Claim(
            "maxsize-s-s2",
            "the largest (s, s+2)-core with distinct parts is unique with size "
            "(s^2-1)(s+3)(5s+17)/384, (s-1)(s+5)/8 parts, largest part 3(s^2-1)/8",
            {"max_s": 15},
            _odd_s_scope,
            lambda p: (p["s"], p["s"] + 2, "distinct"),
            _maxsize_s_s2_cases,
        ),
        Claim(
            "maxsize-s-s1",
            "the largest (s, s+1)-core with distinct parts has size floor(s(s+1)/6), "
            "with two maximal witnesses iff s = 1 mod 3 (s >= 4), else one",
            {"max_s": 18},
            _s_scope,
            lambda p: (p["s"], p["s"] + 1, "distinct"),
            _maxsize_s_s1_cases,
        ),
        Claim(
            "anderson",
            "the number of (s, t)-core partitions is C(s+t, s)/(s+t) for coprime s, t",
            {"max_sum": 15},
            _coprime_pair_scope,
            lambda p: (p["s"], p["t"], "all"),
            _count_cases(lambda p: sequences.anderson_count(p["s"], p["t"])),
        ),
        Claim(
            "selfconjugate",
            "the number of self-conjugate (s, t)-core partitions is "
            "C(s//2 + t//2, s//2) for coprime s, t",
            {"max_sum": 15},
            _coprime_pair_scope,
            lambda p: (p["s"], p["t"], "self_conjugate"),
            _count_cases(lambda p: sequences.fms_selfconjugate_count(p["s"], p["t"])),
        ),
    ]
}


def _guarded_cases(claim: Claim, params: dict, fold: Fold) -> list[ClaimCase]:
    """The cases for params, their family folded; a fold or builder that raises is one FAIL case."""
    try:
        family = claim.family(params)
        return claim.cases(params, None if family is None else fold(*family))
    except MemoryError:  # running out of memory refutes nothing
        raise
    except Exception as exc:  # a broken formula or enumerator fails the claim, not the run
        return [ClaimCase(params, "no exception", type(exc).__name__, False)]


def shared_fold() -> Fold:
    """A fresh memo over search.summarize_core, for the one request that builds it.

    The (s, t)- and (t, s)-cores are one family, so the memo is keyed by
    (min(s, t), max(s, t), part_filter): each family is folded once, and
    either order gets that summary, its s <= t.  search.summarize_core is
    looked up at each miss, so a patch of that name reaches every fold.  A
    fold that raises is not kept, as `functools.cache` stores only returns.
    The memo lives as long as the returned function: build one per request
    and pass it to every claim or table cell of that request.
    """
    memo = cache(lambda s, t, part_filter: search.summarize_core(s, t, part_filter))
    return lambda s, t, part_filter: memo(min(s, t), max(s, t), part_filter)


def run_claim(name: str, *, fold: Fold | None = None, **ranges: int) -> VerificationReport:
    """Run one claim; unknown names raise KeyError, bad or empty ranges ValueError.

    A range value other than None must be an exact int, not a bool.  Every
    family the range's cases read is checked first, so a range with one
    over search.GAP_LIMIT raises search.GapLimitError before any fold.  A
    fold or case builder that raises, short of MemoryError, becomes a FAIL
    case.  fold gives the families' summaries, a fresh `shared_fold()` by
    default; a fold shared with earlier claims answers their families from
    its memo, so this report's seconds exclude them.
    """
    fold = shared_fold() if fold is None else fold
    claim = CLAIMS[name]
    merged = dict(claim.defaults)
    for key, value in ranges.items():
        if value is None:
            continue
        flag = "--" + key.replace("_", "-")
        if key not in claim.defaults:
            accepted = ", ".join("--" + k.replace("_", "-") for k in claim.defaults)
            raise ValueError(f"claim {name!r} does not accept {flag}; it accepts: {accepted}")
        if type(value) is not int:
            raise ValueError(f"claim {name!r} needs an integer {flag}, got {value!r}")
        merged[key] = value
    start = time.perf_counter()
    for s, t, _ in filter(None, map(claim.family, claim.scope(**merged)[1])):
        search._require_walkable(s, t)
    described, params = claim.scope(**merged)
    cases = tuple(chain.from_iterable(_guarded_cases(claim, p, fold) for p in params))
    if not cases:  # every param yields a case, so an empty range folded nothing
        raise ValueError(f"claim {name!r} has no cases in the range {described}")
    return VerificationReport(
        claim=name,
        range=described,
        cases=cases,
        passed=all(c.ok for c in cases),
        seconds=time.perf_counter() - start,
    )
