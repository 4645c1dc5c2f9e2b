"""Independent oracles and shared hypothesis strategies for the test suite.

Everything here recomputes expected values by a route different from the
implementation under test: a different partition-generation algorithm,
direct box enumeration for fixed perimeter, restricted recursive
counters, the original gap sieve, the original recursive order-ideal
walk with partition-level filters, the original beta-set test for
self-conjugacy, and the original perimeter-level recurrences and
composition maps, which construct every partition through the checked
`Partition(...)`.
Keep these dumb.
"""

from __future__ import annotations

from typing import Callable, Iterator

import hypothesis.strategies as st

from stcores import EnumerationResult, Partition, from_beta, hook_length
from stcores.bijection import _checked
from stcores.search import FILTERS, _predicate, _result, canonical_key
from stcores.sequences import _require_coprime


def iter_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n via the iterative 'next partition' rule.

    Deliberately a different algorithm from stcores.partitions_of.
    """
    if n == 0:
        yield ()
        return
    state = [n]
    while True:
        yield tuple(state)
        idx = len(state) - 1
        while idx >= 0 and state[idx] == 1:
            idx -= 1
        if idx < 0:
            return
        remainder = len(state) - idx  # the trailing ones plus 1 from state[idx]
        state[idx] -= 1
        chunk = state[idx]
        del state[idx + 1 :]
        while remainder:
            take = min(chunk, remainder)
            state.append(take)
            remainder -= take


def sieve_gaps(s: int, t: int) -> tuple[int, ...]:
    """The gaps of <s, t>, ascending, by sieving 0..s*t - s - t for representable numbers."""
    _require_coprime(s, t)
    if s == 1 or t == 1:
        return ()
    frob = s * t - s - t
    representable = bytearray(frob + 1)
    representable[0] = 1
    for x in range(1, frob + 1):
        if (x >= s and representable[x - s]) or (x >= t and representable[x - t]):
            representable[x] = 1
    return tuple(x for x in range(1, frob + 1) if not representable[x])


def down_closed_subsets_recursive(s: int, t: int, twin_free_only: bool) -> list[frozenset[int]]:
    """All order ideals of the (s, t) gap poset by recursive take/leave over the sieved gaps.

    Each gap in ascending order is either left out or, when its lower
    covers are present, taken.  The recursion is one level per gap, so keep
    the posets small (under ~900 gaps).
    """
    order = sieve_gaps(s, t)
    chosen: set[int] = set()
    found: list[frozenset[int]] = []

    def walk(i: int) -> None:
        if i == len(order):
            found.append(frozenset(chosen))
            return
        x = order[i]
        walk(i + 1)  # leave x out
        if any(y > 0 and y not in chosen for y in (x - s, x - t)):
            return
        if twin_free_only and (x - 1 in chosen or x + 1 in chosen):
            return
        chosen.add(x)
        walk(i + 1)  # take x
        chosen.remove(x)

    walk(0)
    return found


def is_self_conjugate_beta(beta: tuple[int, ...]) -> bool:
    """conjugate(lam) == lam, read on lam's ascending beta-set.

    With h = max(beta), the conjugate's beta-set (lam's first-row hooks) is
    {0..h} minus {h - x : x in beta}.  They agree exactly when beta minus h
    and its reflection h - (beta minus h) are disjoint and fill {1..h-1}.
    """
    if not beta:
        return True
    h = beta[-1]
    below = beta[:-1]
    if 2 * len(below) != h - 1:
        return False
    members = set(below)
    return all(h - x not in members for x in below)


def enumerate_core_reference(s: int, t: int, part_filter: str = "all") -> EnumerationResult:
    """enumerate_core by the recursive walk, the checked from_beta and FILTERS."""
    predicate = _predicate(part_filter)
    found = [
        lam
        for lam in map(from_beta, down_closed_subsets_recursive(s, t, part_filter == "distinct"))
        if predicate(lam)
    ]
    return _result(s, t, part_filter, [lam.parts for lam in found])


def distinct_by_perimeter_checked(m: int) -> list[Partition]:
    """Distinct parts of perimeter m by the level recurrence, checked at every level.

    Level m: add 1 to the largest part of a level-(m-1) partition, or stack
    old largest + 1 on a nonempty level-(m-2) partition.  These are
    lambda_d's moves, not the shape-built listing of the package.
    """
    older = [Partition(())]
    if m == 0:
        return older
    newer = [Partition((1,))]
    for _ in range(2, m + 1):
        bumped = [Partition((lam.parts[0] + 1,) + lam.parts[1:]) for lam in newer]
        stacked = [Partition((lam.parts[0] + 1,) + lam.parts) for lam in older if lam]
        older, newer = newer, bumped + stacked
    return sorted(newer, key=canonical_key)


def odd_by_perimeter_checked(m: int) -> list[Partition]:
    """Odd parts of perimeter m by the level recurrence, checked at every level.

    Level m: add 2 to the largest part of a nonempty level-(m-2) partition,
    or repeat the largest part of a level-(m-1) partition (lambda_o's moves).
    """
    older = [Partition(())]
    if m == 0:
        return older
    newer = [Partition((1,))]
    for _ in range(2, m + 1):
        widened = [Partition((lam.parts[0] + 2,) + lam.parts[1:]) for lam in older if lam]
        repeated = [Partition((lam.parts[0],) + lam.parts) for lam in newer]
        older, newer = newer, widened + repeated
    return sorted(newer, key=canonical_key)


def lambda_d_checked(mu: tuple[int, ...]) -> Partition:
    """lambda_d built largest part first with list.insert, through Partition(...)."""
    mu = _checked(mu)
    if not mu:
        return Partition(())
    parts = [1]
    for x in reversed(mu[:-1]):
        if x == 1:
            parts[0] += 1
        else:
            parts.insert(0, parts[0] + 1)
    return Partition(tuple(parts))


def lambda_o_checked(mu: tuple[int, ...]) -> Partition:
    """lambda_o built largest part first with list.insert, through Partition(...)."""
    mu = _checked(mu)
    if not mu:
        return Partition(())
    parts = [1]
    for x in reversed(mu[:-1]):
        if x == 1:
            parts.insert(0, parts[0])
        else:
            parts[0] += 2
    return Partition(tuple(parts))


def brute_partitions_upto(max_size: int) -> list[Partition]:
    return [Partition(p) for n in range(max_size + 1) for p in iter_partitions(n)]


def hook_multiset(lam: Partition) -> list[int]:
    """Sorted list of all hook lengths of lam, cell by cell."""
    return sorted(
        hook_length(lam, i, j)
        for i in range(1, lam.ell + 1)
        for j in range(1, lam.parts[i - 1] + 1)
    )


def weakly_decreasing_tuples(length: int, maxpart: int) -> Iterator[tuple[int, ...]]:
    if length == 0:
        yield ()
        return
    for first in range(maxpart, 0, -1):
        for rest in weakly_decreasing_tuples(length - 1, first):
            yield (first,) + rest


def perimeter_family(m: int, predicate: Callable[[Partition], bool]) -> list[Partition]:
    """All partitions with perimeter exactly m passing predicate.

    Fixing the perimeter pins largest part + number of parts, so the family
    is enumerated directly as boxes (largest, m + 1 - largest) -- no
    recurrence involved.
    """
    empty = Partition(())
    if m == 0:
        return [empty] if predicate(empty) else []
    found = []
    for largest in range(1, m + 1):
        length = m + 1 - largest
        for tail in weakly_decreasing_tuples(length - 1, largest):
            lam = Partition((largest,) + tail)
            if predicate(lam):
                found.append(lam)
    return found


def count_distinct_partitions(n: int) -> int:
    """Number of partitions of n into strictly decreasing parts, by listing."""

    def walk(remaining: int, cap: int) -> int:
        if remaining == 0:
            return 1
        return sum(walk(remaining - k, k - 1) for k in range(min(cap, remaining), 0, -1))

    return walk(n, n)


def count_odd_partitions(n: int) -> int:
    """Number of partitions of n into odd parts, by listing."""

    def walk(remaining: int, cap: int) -> int:
        if remaining == 0:
            return 1
        k = min(cap, remaining)
        if k % 2 == 0:
            k -= 1
        total = 0
        while k >= 1:
            total += walk(remaining - k, k)
            k -= 2
        return total

    return walk(n, n)


@st.composite
def partitions(draw, max_part: int = 15, max_len: int = 8) -> Partition:
    parts = draw(st.lists(st.integers(1, max_part), max_size=max_len))
    return Partition(tuple(sorted(parts, reverse=True)))


@st.composite
def compositions(draw, max_len: int = 14) -> tuple[int, ...]:
    body = draw(st.lists(st.sampled_from([1, 2]), max_size=max_len))
    if not body:
        return ()
    return tuple(body[:-1]) + (1,)
