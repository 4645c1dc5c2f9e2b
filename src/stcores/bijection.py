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
"""

from __future__ import annotations

from .partition import Partition, has_distinct_parts, has_odd_parts
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


def _build_d(mu: CompositionC) -> Partition:
    """lambda_d for a composition already known to be valid.

    Parts are kept smallest first, so the largest is at the end: a 1 grows
    it and a 2 appends old largest + 1, which keeps the parts positive and
    strictly increasing, i.e. distinct once reversed.
    """
    if not mu:
        return Partition._trusted(())
    parts = [1]  # the rightmost entry is a 1
    for x in reversed(mu[:-1]):
        if x == 1:
            parts[-1] += 1
        else:
            parts.append(parts[-1] + 1)
    return Partition._trusted(tuple(reversed(parts)))


def _build_o(mu: CompositionC) -> Partition:
    """lambda_o for a composition already known to be valid.

    Parts are kept smallest first: a 1 appends a copy of the largest and a
    2 grows it by two, so the parts stay odd, positive and weakly
    increasing, i.e. weakly decreasing once reversed.
    """
    if not mu:
        return Partition._trusted(())
    parts = [1]
    for x in reversed(mu[:-1]):
        if x == 1:
            parts.append(parts[-1])
        else:
            parts[-1] += 2
    return Partition._trusted(tuple(reversed(parts)))


def lambda_d(mu: CompositionC) -> Partition:
    """Distinct-parts partition assigned to mu; its perimeter is sum(mu)."""
    return _build_d(_checked(mu))


def lambda_o(mu: CompositionC) -> Partition:
    """Odd-parts partition assigned to mu; its perimeter is sum(mu)."""
    return _build_o(_checked(mu))


def inverse_lambda_d(lam: Partition) -> CompositionC:
    """The unique composition with lambda_d(mu) = lam.

    Peeling from the outside in: when the largest part exceeds the second
    by exactly 1 the last step must have been a stack (emit 2 and drop the
    largest part); otherwise it was a grow (emit 1 and decrement).  So a
    part p above a part q contributes p - q - 1 ones and then a 2, and the
    smallest part p contributes p ones.
    """
    if not has_distinct_parts(lam):
        raise ValueError(f"expected a partition into distinct parts, got {lam}")
    parts = lam.parts
    mu: list[int] = []
    for p, q in zip(parts, parts[1:] + (0,)):
        mu.extend((1,) * (p - q - 1))
        mu.append(2 if q else 1)
    return tuple(mu)


def inverse_lambda_o(lam: Partition) -> CompositionC:
    """The unique composition with lambda_o(mu) = lam.

    A repeated largest part must come from a repeat step (emit 1 and drop
    one copy); otherwise the gap is at least 2 by oddness, so the last step
    grew the largest part by two (emit 2 and subtract 2).  So a part p
    above a part q, or above nothing with q = 1, contributes (p - q) / 2
    twos and then a 1.
    """
    if not has_odd_parts(lam):
        raise ValueError(f"expected a partition into odd parts, got {lam}")
    parts = lam.parts
    mu: list[int] = []
    for p, q in zip(parts, parts[1:] + (1,)):
        mu.extend((2,) * ((p - q) // 2))
        mu.append(1)
    return tuple(mu)


def distinct_to_odd(lam: Partition) -> Partition:
    """Perimeter-preserving image of a distinct-parts partition among odd-parts ones.

    Raises ValueError unless lam has distinct parts; the composition in
    between is valid by construction, so it is not checked again.
    """
    return _build_o(inverse_lambda_d(lam))


def odd_to_distinct(lam: Partition) -> Partition:
    """Inverse of distinct_to_odd; raises ValueError unless lam has odd parts."""
    return _build_d(inverse_lambda_o(lam))
