"""First-column hook-length encoding of partitions.

A partition is uniquely determined by the set of hook lengths of its
first-column cells: row i contributes parts[i] + ell - i.  The encoding is
kept minimal (no zero element, no shifted copies), so each finite set of
distinct positive integers corresponds to exactly one partition.  Questions
about hooks turn into questions about these sets: avoiding a hook of length
t becomes closure under subtracting t, and distinctness of parts becomes
the absence of consecutive elements.
"""

from __future__ import annotations

from typing import Iterable

from .partition import Partition
from .sequences import _require_int

BetaSet = frozenset[int]


def to_beta(lam: Partition) -> BetaSet:
    """Set of first-column hook lengths of lam; one element per part."""
    ell = lam.ell
    return frozenset(part + ell - i for i, part in enumerate(lam.parts, start=1))


def from_beta(beta: Iterable[int]) -> Partition:
    """The unique partition whose first-column hook lengths are exactly beta."""
    elems = list(beta)
    for x in elems:
        _require_int("beta-set element", x)
    if len(set(elems)) != len(elems):
        raise ValueError(f"beta-set elements must be distinct, got {sorted(elems)}")
    hooks = sorted(elems, reverse=True)
    ell = len(hooks)
    return Partition(tuple(h - (ell - i) for i, h in enumerate(hooks, start=1)))


def is_t_core_beta(beta: BetaSet, t: int) -> bool:
    """Whether the partition encoded by beta has no hook of length t.

    On the set side: every element x >= t must have x - t present as well.
    Since 0 is never a member, t itself being in beta already fails.
    """
    _require_int("t", t)
    return all(x - t in beta for x in beta if x >= t)


def is_twin_free(xs: Iterable[int]) -> bool:
    """True when xs contains no two consecutive integers."""
    s = set(xs)
    return all(x + 1 not in s for x in s)
