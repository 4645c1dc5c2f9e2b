"""Perimeter-preserving correspondence between three families.

The pivot is the set of compositions with parts 1 and 2 whose last part is
1 (the empty composition is allowed).  Reading such a composition right to
left drives two constructions in lockstep:

  * distinct side: a 1 grows the current largest part by one, a 2 stacks a
    new largest part (old largest + 1) on top;
  * odd side: a 1 repeats the current largest part, a 2 grows the largest
    part by two.

Each entry adds exactly its own value to the perimeter of both partitions,
so composing one map with the inverse of the other yields a bijection
between partitions into distinct parts and partitions into odd parts that
preserves the perimeter -- though not, in general, the size.

`distinct_to_odd` and `odd_to_distinct` are that composition, computed
without building the composition.  Set aside the final 1 of a nonempty
composition; what is left is 1^a_1 2 1^a_2 2 ... 2 1^a_k, with k - 1 twos
and runs a_i >= 0 of ones between them.  Then:

  * the distinct-parts partition p_1 > ... > p_k has the runs as its gaps,
    a_i = p_i - p_{i+1} - 1 with p_{k+1} = 0;
  * the odd-parts partition has largest part 2k - 1, and the odd value
    2(k - i) + 1 occurs a_i times, plus once more for the largest (i = 1):
    read right to left, the final 1 and each 2 bring a new value, each 1
    repeats it, and each 2 takes one copy of the old value away.

So each map reads the other side's runs off its input's gaps or
multiplicities, one step per part value.  `lambda_d`, `lambda_o` and their
inverses stay the literal construction, one step per composition entry.
"""

from __future__ import annotations

from .partition import Partition, _trusted
from .sequences import _require_int

CompositionC = tuple[int, ...]


def is_composition(mu: CompositionC) -> bool:
    """Parts all exact ints 1 or 2 (not True or 2.0), and a nonempty word ends in 1."""
    return all(type(x) is int and x in (1, 2) for x in mu) and (not mu or mu[-1] == 1)


def _checked(mu: CompositionC) -> CompositionC:
    mu = tuple(mu)
    if not is_composition(mu):
        raise ValueError(
            f"invalid composition {mu}: parts must be 1 or 2 and the last part must be 1"
        )
    return mu


def compositions_of(m: int) -> list[CompositionC]:
    """All valid compositions of weight m, in lexicographic order.

    A valid word of weight m >= 1 is a word of weight m - 1 followed by the
    final 1, and appending the same entry keeps the lexicographic order.
    """
    _require_int("m", m, 0)
    if m == 0:
        return [()]

    def words(k: int):  # every word of weight k over {1, 2}, lexicographically
        if k < 2:
            yield (1,) * k  # () or (1,)
            return
        for rest in words(k - 1):
            yield (1,) + rest
        for rest in words(k - 2):
            yield (2,) + rest

    return [w + (1,) for w in words(m - 1)]


def lambda_d(mu: CompositionC) -> Partition:
    """Distinct-parts partition assigned to mu; its perimeter is sum(mu).

    Parts are kept smallest first, so the largest is at the end: a 1 grows
    it and a 2 appends old largest + 1, which keeps the parts positive and
    strictly increasing, i.e. distinct once reversed.
    """
    mu = _checked(mu)
    if not mu:
        return _trusted(())
    parts = [1]  # the rightmost entry is a 1
    for x in reversed(mu[:-1]):
        if x == 1:
            parts[-1] += 1
        else:
            parts.append(parts[-1] + 1)
    return _trusted(tuple(reversed(parts)))


def lambda_o(mu: CompositionC) -> Partition:
    """Odd-parts partition assigned to mu; its perimeter is sum(mu).

    Parts are kept smallest first: a 1 appends a copy of the largest and a
    2 grows it by two, so the parts stay odd, positive and weakly
    increasing, i.e. weakly decreasing once reversed.
    """
    mu = _checked(mu)
    if not mu:
        return _trusted(())
    parts = [1]
    for x in reversed(mu[:-1]):
        if x == 1:
            parts.append(parts[-1])
        else:
            parts[-1] += 2
    return _trusted(tuple(reversed(parts)))


# The one text per shape, read by every map's and inverse's check inside
# its own loop.
_NOT_DISTINCT = "expected a partition into distinct parts, got {}"
_NOT_ODD = "expected a partition into odd parts, got {}"


def inverse_lambda_d(lam: Partition) -> CompositionC:
    """The unique composition with lambda_d(mu) = lam.

    Peeling from the outside in: when the largest part exceeds the second
    by exactly 1 the last step must have been a stack (emit 2 and drop the
    largest part); otherwise it was a grow (emit 1 and decrement).  So a
    part p above a part q contributes p - q - 1 ones and then a 2, and the
    smallest part p contributes p ones.  Raises ValueError unless lam has
    distinct parts: its parts are weakly decreasing, so a p no larger than
    the q below it is a repeat.
    """
    parts = lam.parts
    mu: list[int] = []
    for p, q in zip(parts, parts[1:] + (0,)):
        if p <= q:
            raise ValueError(_NOT_DISTINCT.format(lam))
        mu.extend((1,) * (p - q - 1))
        mu.append(2 if q else 1)
    return tuple(mu)


def inverse_lambda_o(lam: Partition) -> CompositionC:
    """The unique composition with lambda_o(mu) = lam.

    A repeated largest part must come from a repeat step (emit 1 and drop
    one copy); otherwise the gap is at least 2 by oddness, so the last step
    grew the largest part by two (emit 2 and subtract 2).  So a part p
    above a part q, or above nothing with q = 1, contributes (p - q) / 2
    twos and then a 1.  Raises ValueError unless every part is odd.
    """
    parts = lam.parts
    mu: list[int] = []
    for p, q in zip(parts, parts[1:] + (1,)):
        if not p & 1:
            raise ValueError(_NOT_ODD.format(lam))
        mu.extend((2,) * ((p - q) // 2))
        mu.append(1)
    return tuple(mu)


def distinct_to_odd(lam: Partition) -> Partition:
    """Perimeter-preserving image of a distinct-parts partition among odd-parts ones.

    For lam = (p_1 > ... > p_k) the image is 2k - 1 repeated p_1 - p_2
    times, then 2(k - i) + 1 repeated p_i - p_{i+1} - 1 times for i = 2..k,
    with p_{k+1} = 0.  This is lambda_o(inverse_lambda_d(lam)): the gaps of
    lam are the runs of ones of the composition, and lambda_o turns those
    runs into these multiplicities (see the module docstring), so no
    composition is built.  One step per part, which also checks the shape:
    lam's parts are weakly decreasing, so they are distinct exactly when
    no gap p_i - p_{i+1} - 1 is negative, the top one included.  Raises
    ValueError unless lam has distinct parts.
    """
    parts = lam.parts
    if not parts:
        return _trusted(())
    odd = 2 * len(parts) - 1
    runs = [odd]  # the largest value gets one copy more than its gap
    above = parts[0]
    for p in parts[1:] + (0,):
        gap = above - p - 1
        if gap < 0:
            raise ValueError(_NOT_DISTINCT.format(lam))
        runs += (odd,) * gap
        above = p
        odd -= 2
    return _trusted(tuple(runs))  # odd values 2k - 1 down to 1, so weakly decreasing


def odd_to_distinct(lam: Partition) -> Partition:
    """Inverse of distinct_to_odd; raises ValueError unless lam has odd parts.

    For lam with n parts, largest part 2k - 1 and m(v) parts equal to v, the
    image has k parts.  From the bottom they are the running sums of
    m(v) + 1 over v = 1, 3, ..., 2k - 3, and the top part is n + k - 1.
    This is lambda_d(inverse_lambda_o(lam)): the multiplicities of lam are
    the runs of ones of the composition, and lambda_d turns those runs into
    these gaps (see the module docstring), so no composition is built.  One
    pass over lam, from its smallest part, which also checks the shape:
    after closing every odd value below a part p, the current odd value is
    p exactly when p is odd.
    """
    parts = lam.parts
    if not parts:
        return _trusted(())
    sums: list[int] = []
    part = 0
    odd = 1
    for p in reversed(parts):
        while odd < p:  # every copy of odd is counted: close its part
            part += 1
            sums.append(part)
            odd += 2
        if odd != p:
            raise ValueError(_NOT_ODD.format(lam))
        part += 1
    sums.append(part)
    sums.reverse()
    return _trusted(tuple(sums))  # running sums from 1, each above the last, reversed
