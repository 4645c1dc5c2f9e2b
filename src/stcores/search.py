"""Exact enumerators and counters for simultaneous core partitions.

Everything here is exact: these are the independent engines that the
closed forms in `sequences` get checked against.

The workhorse walks order ideals.  For coprime s and t, the first-column
hook-length set of any partition avoiding hooks s and t is closed under
subtracting s or t while the result stays positive, and it cannot contain
any number representable as a*s + b*t with a, b >= 0 (such a member would
chain down to 0, which is impossible).  So these sets live inside the gaps
of the numerical semigroup generated by s and t -- there are
(s-1)(t-1)/2 gaps, the largest being s*t - s - t -- and they are exactly
the down-closed subsets of the poset on the gaps in which x sits above
x - s and x - t.  With a, b = min(s, t), max(s, t), the least member of
<s, t> congruent to j*b mod a is j*b (0 <= j < a), so class j, the gaps
congruent to r_j = j*b mod a, is the chain r_j, r_j + a, ..., j*b - a of
g_j = j*b // a gaps.  `_residue_classes` tables (r_j, g_j) for j = 1..a-1;
`gap_poset`, the public listing of the gaps, and the height DP below read
it.  The walk does not.

The walk needs no gap list, only one rule.  With top = F = s*t - s - t,
y is addable to an ideal once y <= top and each of y - s, y - t is chosen
or below the floor 0; a chain that reaches 0 makes y representable.  A
number whose lower covers are gaps or negative is a gap, so every y the
rule admits is one, and the only table is the chosen set, sized by top.
The roots, addable to the empty ideal, are 1..min(s, t) - 1.

The walk builds each ideal by adding gaps in ascending order, so every
ideal is reached once, from the ideal without its largest element.  A node
extends only by its addable gaps above its last element x: those it
inherited, then x + min(s, t) if addable (`_ideals` says why), at most
one per residue class mod min(s, t).  That bounds the work per ideal; the
ancestors sit on an explicit stack, so no recursion limit bounds the
depth, and a leaf, a node with no candidates, is yielded but never
pushed.  It yields (size, parts), not hook sets: adding x to an ideal of
ell elements puts a new top row x - ell on the partition built so far,
positive and no shorter than the old top row, as x is above ell and
every chosen element; the size is carried along, so no core is summed.

Every filter is decided inside the walk, so it yields only kept ideals:
`_ideals` drops a candidate with every ideal built on it, and its
docstring tables each filter's drop rule, why it holds, and the two slot
reads of the partner test.  `self_conjugate` walks
X = {lam_i - i + 1 : lam_i >= i}, the Frobenius arms plus one (Ford, Mai
& Sze 2009): lam is an (s, t)-core exactly when X is closed under
subtracting s and t while positive and no x, x' in X (x = x' included)
have x + x' in {s + 1, t + 1}; such x, x' are partners.  X lies in
1..(F+1)//2, since 2*max(X) - 1 is the (1, 1) hook, a gap.  So the same
rule walks the arm sets with top = (F+1)//2 and the floor 1, the closure
holding only while positive, from the roots 1..min(s, t, top), and it
yields lam itself, one wrapped hook per arm.  The partition-level
predicates in FILTERS stay as the oracle for the bounded enumerator and
the tests.

`summarize_core` answers `all`, and `distinct` when b = +-1 mod a, by the
residue-height DP (Anderson 2002), which counts the ideals without
walking them.  An ideal meets class j in a bottom segment of height h_j.
Closure under -a holds inside a class.  Under -b it links class j to
class j - 1 only: r_j - b = r_{j-1} - (g_j - g_{j-1})*a, so the top
r_j + (h-1)*a of a segment of height h needs element h - (g_j - g_{j-1})
of class j - 1, or nothing when that is below 1, where the top less b is
negative.  So the ideals are the height paths with 0 <= h_j <= g_j,
from h_0 = 0, in which h_{j-1} >= h_j - slack, with slack = g_j - g_{j-1}.
When b = +-1 mod a, r_j = +-j mod a: the residues r and r + 1 lie in
consecutive classes (residue 0 holds no gap), and an ideal holds twins
x - 1, x exactly when two consecutive classes are both non-empty, as then
their bottoms are twins.  `distinct` forbids that; on other pairs twin
residues lie in classes far apart, beyond one height of state, so those
families walk.  The predecessor rule, for the pass and the backtrack
alike: h_prev >= h - slack, and h_prev = 0 when twin-free and h > 0, so
a twin-free class stops at height slack.  Class j adds h_j to ell and
h_j*r_j + a*C(h_j, 2) to the sum of beta, and the size is that sum less
C(ell, 2).  So each class keeps the number of paths per h_j, and their
largest sum of beta per (h_j, ell), built in one pass down its heights:
as h falls, so does h - slack, and each previous height joins one
running dict and total once; height 0, which every previous height
reaches, keeps the dict.  Backtracking every path of the largest size
gives the witnesses: a path's gaps are a beta-set, which
`betaset.from_beta` decodes.

Every other family goes to `_walk_summary`, one fold over the walk's
(size, parts) pairs: it counts them and keeps only the parts of the
largest size, as the walk gives it, its witnesses.  A summary has few
witnesses, so both routes build them by the checked constructor and
order them by `canonical_key`.  `_result` is the canonical sort for
listings only, over (size, parts) pairs: one bucket per given size, each
sorted once, the buckets taken by ascending size, so the last bucket is
the listing's tail and gives its largest size and first witness.  The
CLI renders these tuples; only the listing entry points wrap them,
unchecked, as partitions, all at once by `partition._trusted_all`.  The
perimeter shapes carry no size, so `_sorted_shapes` orders them by two C
sorts instead and wraps them the same way.  Every listing walks, so it
stays a second route to every count the DP gives.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, combinations, combinations_with_replacement, repeat
from operator import add
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .betaset import from_beta, is_twin_free
from .partition import (
    Partition,
    _trusted_all,
    conjugate,
    has_distinct_parts,
    has_odd_parts,
    is_t_core,
    partitions_of,
)
# InfiniteFamilyError is re-exported here.
from .sequences import InfiniteFamilyError, _require_coprime, _require_int
from .sequences import anderson_count, conjecture2_count, fms_selfconjugate_count, m_poly, n_poly


GAP_LIMIT = 1_000_000


class GapLimitError(ValueError):
    """The pair's walk would run over more than GAP_LIMIT gaps: a refusal, not a refutation."""


def _require_walkable(s: int, t: int) -> None:
    """_require_coprime, then GapLimitError above GAP_LIMIT gaps, as many as self_conjugate's arms."""
    _require_coprime(s, t)
    gaps = (s - 1) * (t - 1) // 2
    if gaps > GAP_LIMIT:
        raise GapLimitError(
            f"the ({s}, {t}) walk runs over {gaps} gaps, above the limit of {GAP_LIMIT}"
        )


def _residue_classes(s: int, t: int) -> list[tuple[int, int]]:
    """(r_j, g_j) for j = 1..a-1: class j holds the g_j gaps r_j, r_j + a, ..., j*b - a.

    With a, b = sorted((s, t)), r_j = j*b mod a and g_j = j*b // a.
    """
    a, b = sorted((s, t))
    return [(j * b % a, j * b // a) for j in range(1, a)]


def gap_poset(s: int, t: int) -> tuple[int, ...]:
    """The gaps of <s, t>, ascending, listed by residue class mod min(s, t)."""
    _require_walkable(s, t)
    a = min(s, t)
    return tuple(sorted(r + k * a for r, g in _residue_classes(s, t) for k in range(g)))


def _ideals(s: int, t: int, part_filter: str) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Each order ideal the walk keeps, once, in lexicographic order, as its core's (size, parts).

    The module's rule, with top = F and floor 0 for gaps, (F+1)//2 and 1 for
    the arm sets of `self_conjugate`, walked depth first, in pre-order.  A
    gap x puts the new top row x - len(below) on the parts below, adding as
    many cells; an arm x wraps the hook of arm and leg x - 1 around them,
    2x - 1 cells: a new top row x, every old row one longer, then ones down
    to row x.  That fits, as the old lam has lam_1 <= x - 1 rows.  A node is (parts, candidates, last, size): its addable
    elements above its last element, ascending, consumed from the front.
    The current node lives in locals, the stack holds its ancestors, and
    leaving a node unchooses its last element; the root's, 0, is never
    chosen.  With a, b = sorted((s, t)), choosing x unlocks at most x + a:
    x + b's other lower cover, x + b - a, lies above x, so it is unchosen
    and above the floor.  An inherited c has c - a chosen (below x) or
    below the floor (below 1 <= x), so c < x + a: the append keeps the
    candidates ascending, at most one per residue class mod a.  A node
    with no candidates is a leaf: yielded, but neither chosen nor entered,
    as only its descendants would read the mark.  A filter drops x with
    every ideal built on it:

        filter           drop x when                          what stays
        distinct         x - 1 is chosen                      the twins x - 1, x
        odd              x - len(below) is even               that even part
        self_conjugate   chosen[left[x]] or chosen[right[x]]  x and its partner

    Every candidate lies above the last element, so x - 1 can only be that
    element, a gap x's row is the new top row, and a partner below x is
    chosen already.  So node x drops x + 1 from the front of its
    candidates as it builds them, and `odd` and `self_conjugate` test each
    popped x.  For `self_conjugate`, `left` and `right`, built before the
    walk for p = s + 1 and t + 1, map each arm x to a slot of `chosen`:
    p - x, the partner, when 0 < p - x < x; top + 2, a slot set once and
    never cleared, when p - x is x itself; else 0, the root's slot, never
    set, as a partner above x is not chosen yet and its own test catches
    the pair.  So the partner test is two reads.  The one invariant: a
    drop removes exactly the ideals that extend the current ideal plus x
    by larger elements, and its reason holds in all of them, since a
    larger element moves neither x's row nor anything below x.  A dropped
    x is not inherited by later siblings, which lie above it; the children
    of smaller candidates still inherit it and test it afresh.  Every
    other filter name walks every ideal.
    """
    arm_sets = part_filter == "self_conjugate"
    frob = s * t - s - t
    top, floor = ((frob + 1) // 2, 1) if arm_sets else (frob, 0)
    twin_free = part_filter == "distinct"
    odd_parts = part_filter == "odd"
    a, b = sorted((s, t))
    # slot 0, the root's, exists even at top = -1; slot top + 2 is set for self-partners
    chosen = bytearray(top + 3)
    if arm_sets:
        chosen[top + 2] = 1
        left, right = (
            [p - x if 0 < p - x < x else top + 2 if p - x == x else 0 for x in range(top + 1)]
            for p in (s + 1, t + 1)
        )
    # the roots: each y with y - a < floor
    below, candidates, last, size = (), list(range(1, min(a + floor, top + 1))), 0, 0
    stack: list[tuple] = []
    yield 0, ()
    while True:
        if not candidates:
            if not stack:
                return
            chosen[last] = 0
            below, candidates, last, size = stack.pop()
            continue
        x = candidates.pop(0)
        if arm_sets:
            if chosen[left[x]] or chosen[right[x]]:
                continue
            parts = (x, *map(add, below, repeat(1)), *(1,) * (x - 1 - len(below)))
            grown = size + 2 * x - 1
        else:
            part = x - len(below)
            if odd_parts and not part & 1:
                continue
            parts = (part,) + below
            grown = size + part
        yield grown, parts
        rest = (
            candidates[1:] if twin_free and candidates and candidates[0] == x + 1 else candidates[:]
        )
        y = x + a
        if y <= top and (y - b < floor or chosen[y - b]):
            rest.append(y)
        if rest:
            chosen[x] = 1
            stack.append((below, candidates, last, size))
            below, candidates, last, size = parts, rest, x, grown


FILTERS: dict[str, Callable[[Partition], bool]] = {
    "all": lambda lam: True,
    "distinct": has_distinct_parts,
    "odd": has_odd_parts,
    "self_conjugate": lambda lam: conjugate(lam) == lam,
}


def _predicate(part_filter: str) -> Callable[[Partition], bool]:
    try:
        return FILTERS[part_filter]
    except KeyError:
        raise ValueError(
            f"unknown filter {part_filter!r}; valid filters: {', '.join(sorted(FILTERS))}"
        ) from None


def _plus_minus_one(a: int, b: int) -> bool:
    """Whether b = +-1 mod a: the distinct families the paper counts, for a <= b."""
    return b % a in (1, a - 1)


def family_size(s: int, t: int, part_filter: str) -> Optional[int]:
    """The closed-form count; None for odd and for the distinct pairs with no closed form.

    Gated first: comb hangs on a huge pair.  With a, b = sorted((s, t)) and
    q, r = divmod(b, a), the distinct count is n_poly(a)(q + 1) for r = a - 1
    (b = (q + 1)a - 1), m_poly(a)(q) for r = 1 (b = qa + 1) and
    conjecture2_count(a) for b = a + 2, where coprimality makes a odd.
    """
    _predicate(part_filter)
    _require_walkable(s, t)
    if part_filter == "all":
        return anderson_count(s, t)
    if part_filter == "self_conjugate":
        return fms_selfconjugate_count(s, t)
    a, b = sorted((s, t))
    if part_filter == "distinct" and _plus_minus_one(a, b):
        q, r = divmod(b, a)
        return n_poly(a)(q + 1) if r == a - 1 else m_poly(a)(q)
    if part_filter == "distinct" and b == a + 2:
        return conjecture2_count(a)
    return None


def canonical_key(lam: Partition) -> tuple[int, tuple[int, ...]]:
    """Sort key: size ascending, then parts lexicographically descending.

    The definition of canonical order, and the sort of summary witnesses.
    The listings sort by `_result`, which gives the same order faster; the
    tests compare the two.
    """
    parts = lam.parts
    return (sum(parts), tuple([-p for p in parts]))


class _Listing(NamedTuple):
    """A family's parts tuples in canonical order, its largest size and its first witness's index."""

    parts: list[tuple[int, ...]]
    max_size: int
    witness_start: int


@dataclass(frozen=True)
class EnumerationResult:
    """Complete, canonically ordered listing of one (s, t, filter) family."""

    s: int
    t: int
    filter: str
    partitions: tuple[Partition, ...]
    count: int
    max_size: int
    max_size_witnesses: tuple[Partition, ...]


def _result(found: Iterable[tuple[int, tuple[int, ...]]]) -> _Listing:
    """The parts of (size, parts) pairs in canonical_key order: bucketed by size, each sorted once.

    The sort of listings only; summaries order their few witnesses by
    `canonical_key` itself.  Within one size no parts tuple is a proper
    prefix of another, since the longer one would have the larger sum.  So
    descending parts order a bucket exactly as ascending negated parts do,
    and the buckets are joined by ascending size; the last one, of the
    largest size, is the tail.
    """
    buckets: defaultdict[int, list[tuple[int, ...]]] = defaultdict(list)
    for size, parts in found:
        buckets[size].append(parts)
    ordered: list[tuple[int, ...]] = []
    for size in sorted(buckets):
        ordered += sorted(buckets[size], reverse=True)
    max_size = max(buckets, default=0)
    return _Listing(ordered, max_size, len(ordered) - len(buckets[max_size]))


def _listing(s: int, t: int, part_filter: str, bound: Optional[int] = None) -> _Listing:
    """enumerate_core, or enumerate_core_bounded up to a bound, as parts tuples; same errors."""
    predicate = _predicate(part_filter)
    if bound is None:
        _require_walkable(s, t)
        return _result(_ideals(s, t, part_filter))
    _require_int("s", s)
    _require_int("t", t)
    _require_int("max_size", bound, 0)
    cores = (lam for n in range(bound + 1) for lam in partitions_of(n) if is_t_core(lam, s))
    return _result((lam.size, lam.parts) for lam in cores if is_t_core(lam, t) and predicate(lam))


def _wrapped(s: int, t: int, part_filter: str, listing: _Listing) -> EnumerationResult:
    """The listing with each parts tuple wrapped, unchecked, as a Partition.

    The walk's rows are positive and weakly decreasing (see `_ideals`), and
    the bounded route lists the parts of checked partitions.
    """
    found = tuple(_trusted_all(listing.parts))
    witnesses = found[listing.witness_start :]
    return EnumerationResult(s, t, part_filter, found, len(found), listing.max_size, witnesses)


def enumerate_core(s: int, t: int, part_filter: str = "all") -> EnumerationResult:
    """All (s, t)-core partitions passing the filter, canonically ordered.

    Requires gcd(s, t) = 1, otherwise the family is infinite and
    InfiniteFamilyError is raised, and at most GAP_LIMIT gaps, otherwise
    ValueError.  Filters: all, distinct, odd, self_conjugate, each decided
    inside the walk, which yields the parts of the kept cores only.
    """
    return _wrapped(s, t, part_filter, _listing(s, t, part_filter))


@dataclass(frozen=True)
class CoreSummary:
    """Count and largest members of one (s, t, filter) family, without the listing."""

    s: int
    t: int
    filter: str
    count: int
    max_size: int
    max_size_witnesses: tuple[Partition, ...]  # canonically ordered


def summarize_core(s: int, t: int, part_filter: str = "all") -> CoreSummary:
    """enumerate_core's count, max_size and max_size_witnesses, without the listing.

    Same arguments and errors as enumerate_core.  `all`, and `distinct`
    when max(s, t) = +-1 mod min(s, t), are answered by the residue-height
    DP (`_height_summary`); every other family by one fold over the walk
    (`_walk_summary`).  Both give the witnesses canonically ordered.
    """
    _predicate(part_filter)  # rejects unknown filters
    _require_walkable(s, t)
    a, b = sorted((s, t))
    if part_filter == "all" or (part_filter == "distinct" and _plus_minus_one(a, b)):
        return _height_summary(s, t, part_filter)
    return _walk_summary(s, t, part_filter)


def _walk_summary(s: int, t: int, part_filter: str) -> CoreSummary:
    """summarize_core by one fold over the walk, for any walkable family the caller checked.

    Each kept core is counted at the size the walk gives it; only the parts
    of the largest ones are kept, as plain tuples, then built as checked
    partitions and sorted by `canonical_key`.
    """
    count = 0
    max_size = -1
    witnesses: list[tuple[int, ...]] = []
    for size, parts in _ideals(s, t, part_filter):
        count += 1
        if size > max_size:
            max_size = size
            witnesses = [parts]
        elif size == max_size:
            witnesses.append(parts)
    top = tuple(sorted(map(Partition, witnesses), key=canonical_key))
    return CoreSummary(s, t, part_filter, count, max_size, top)


def _height_summary(s: int, t: int, part_filter: str) -> CoreSummary:
    """summarize_core by the class heights (module docstring), for a pair the caller checked.

    `distinct` is exact only when max(s, t) = +-1 mod min(s, t).  Per
    height h of a class: the number of paths ending there, and a row of
    their largest sum of beta per ell.  `merged` and `total` hold the
    previous class's heights k and above, k falling to max(0, h - slack);
    they start as a copy of its top height, which every h reading them
    admits, and end as row 0.  Each backtracked path's gaps are decoded by
    `betaset.from_beta`, checked, and the witnesses sorted by
    `canonical_key`.
    """
    twin_free = part_filter == "distinct"
    a = min(s, t)
    classes = _residue_classes(s, t)
    paths = [1]
    rows = [{0: 0}]  # class 0, residue 0, holds no gap
    steps = []  # per class: r, slack and the previous class's rows
    g_prev = 0
    for r, g in classes:
        slack = g - g_prev  # h is admissible above h_prev >= h - slack
        g_prev = g
        steps.append((r, slack, rows))
        k = len(rows) - 1
        merged, total = dict(rows[k]), paths[k]  # the previous class's heights k and above
        heights = range(slack if twin_free else g, -1, -1)
        new_paths, new_rows = [0] * len(heights), [merged] * len(heights)
        for h in heights:
            while k > max(0, h - slack):
                k -= 1
                total += paths[k]
                for ell, best in rows[k].items():
                    if best > merged.get(ell, -1):
                        merged[ell] = best
            source, new_paths[h] = (rows[0], paths[0]) if twin_free and h else (merged, total)
            if h:
                gain = h * r + a * (h * (h - 1) // 2)
                new_rows[h] = {ell + h: best + gain for ell, best in source.items()}
        paths, rows = new_paths, new_rows
    max_size = -1
    stack: list[tuple] = []
    for h, row in enumerate(rows):
        for ell, best in row.items():
            size = best - ell * (ell - 1) // 2
            if size > max_size:
                max_size, stack = size, []
            if size == max_size:
                stack.append((len(classes), h, ell, best, ()))
    witnesses = []
    while stack:
        j, h, ell, best, above = stack.pop()  # above: (h_{j+1}, (h_{j+2}, ...)), () past the last
        if not j:
            gaps = []
            for r, _ in classes:
                h, above = above
                gaps += range(r, r + h * a, a)
            witnesses.append(from_beta(gaps))
            continue
        r, slack, rows = steps[j - 1]
        best -= h * r + a * (h * (h - 1) // 2)
        ell -= h
        for h_prev in range(max(0, h - slack), 1 if twin_free and h else len(rows)):
            if rows[h_prev].get(ell) == best:
                stack.append((j - 1, h_prev, ell, best, (h, above)))
    top = tuple(sorted(witnesses, key=canonical_key))
    return CoreSummary(s, t, part_filter, sum(paths), max_size, top)


def enumerate_core_bounded(
    s: int, t: int, part_filter: str, max_size: int
) -> EnumerationResult:
    """(s, t)-core partitions of size <= max_size, by direct generation.

    Works for any s, t >= 1, coprime or not, but the listing is complete
    only up to the size bound.  Independent of the order-ideal walk (plain
    hook predicates on every partition), so it doubles as a slow
    cross-check for enumerate_core.
    """
    return _wrapped(s, t, part_filter, _listing(s, t, part_filter, max_size))


def _distinct_shapes(m: int) -> Iterator[tuple[int, ...]]:
    """The parts of every partition into distinct parts with perimeter m, lazily, unsorted.

    m is checked at the call.  Built from the shape: a partition with largest
    part L and perimeter m has m + 1 - L parts, so it is L followed by a
    combination of m - L of the parts L - 1, ..., 1, taken in decreasing
    order.  There are C(L - 1, m - L) of them for each L, and the sum over L
    of C(L - 1, m - L) is the shallow-diagonal sum of Pascal's triangle, F(m).
    Each shape is (L,) + a combination, joined by `map(add)`: one Python
    frame per L, none per shape.
    """
    _require_int("m", m, 0)
    if m == 0:
        return iter([()])
    return chain.from_iterable(
        map(add, repeat((largest,)), combinations(range(largest - 1, 0, -1), m - largest))
        for largest in range(1, m + 1)
    )


def _odd_shapes(m: int) -> Iterator[tuple[int, ...]]:
    """The parts of every partition into odd parts with perimeter m, lazily, unsorted.

    m is checked at the call.  Built from the shape: an odd largest part
    L = 2j + 1 followed by a weakly decreasing multiset of m - L odd parts
    no larger than L, chosen from the j + 1 values L, L - 2, ..., 1.  There
    are C(m - 1 - j, j) of them for each j, so the count is the same
    shallow-diagonal sum, F(m).  Joined as in `_distinct_shapes`, with no
    Python frame per shape.
    """
    _require_int("m", m, 0)
    if m == 0:
        return iter([()])
    return chain.from_iterable(
        map(add, repeat((largest,)), combinations_with_replacement(range(largest, 0, -2), m - largest))
        for largest in range(1, m + 1, 2)
    )


def _sorted_shapes(shapes: Iterable[tuple[int, ...]]) -> list[Partition]:
    """The shapes in canonical order, wrapped unchecked by `partition._trusted_all`.

    Two C sorts instead of `_result`: parts descending, then a stable sort
    by size, which keeps that order within each size.  Within one size no
    shape is a proper prefix of another, so descending parts is the order
    of canonical_key there, as in `_result`.  Sizes are summed by
    `key=sum`, with no Python frame per shape.
    """
    found = sorted(shapes, reverse=True)
    found.sort(key=sum)
    return _trusted_all(found)


def enumerate_distinct_by_perimeter(m: int) -> list[Partition]:
    """All partitions into distinct parts with perimeter exactly m, canonically ordered."""
    return _sorted_shapes(_distinct_shapes(m))


def enumerate_odd_by_perimeter(m: int) -> list[Partition]:
    """All partitions into odd parts with perimeter exactly m, canonically ordered."""
    return _sorted_shapes(_odd_shapes(m))


def count_twin_free_tuples(s: int, d: int, exclude_last: bool) -> int:
    """Count nested tuples (X_1, ..., X_d) of twin-free subsets of {1, ..., s-1}.

    The nesting is X_d inside X_(d-1) inside ... inside X_1.  Literal brute
    force over every tuple -- this is the oracle side of the recurrences in
    `sequences`, so it stays dumb on purpose.  With exclude_last, tuples
    whose innermost set contains s - 1 are not counted.  The tuples are
    walked on an explicit stack, so no d reaches the recursion limit.
    """
    _require_int("s", s)
    _require_int("d", d)
    top = s - 1
    total = 0
    stack = [(1, tuple(range(1, s)))]  # (level, superset): X_level ranges over its subsets
    while stack:
        level, superset = stack.pop()
        for r in range(len(superset) + 1):
            for xs in combinations(superset, r):
                if not is_twin_free(xs):
                    continue
                if level < d:
                    stack.append((level + 1, xs))
                elif not (exclude_last and top in xs):
                    total += 1
    return total
