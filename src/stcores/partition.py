"""Integer partitions and their Young-diagram geometry.

A partition is stored as a weakly decreasing tuple of positive integers.
`Partition(...)` validates and never sorts; `_trusted` and `_trusted_all`
are the only builders that skip the checks.  Rows and columns of the Young
diagram are 1-indexed.  All values are immutable and every function here
is pure, so everything can be shared freely between threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from operator import gt
from typing import Iterable, Iterator, Sequence

from .sequences import _require_int


def format_parts(parts: Iterable[int]) -> str:
    """'(3,2,1)' for the parts 3, 2, 1; '()' for none."""
    return "(" + ",".join(map(str, parts)) + ")"


@dataclass(frozen=True, slots=True)
class Partition:
    """Weakly decreasing tuple of positive integers; () is the empty partition.

    Slotted: an instance holds the one `parts` slot and no `__dict__`.
    """

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        for p in parts:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise ValueError(f"partition parts must be positive integers, got {p!r}")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"partition parts must be weakly decreasing, got {parts}")

    @property
    def ell(self) -> int:
        """Number of parts."""
        return len(self.parts)

    @property
    def size(self) -> int:
        """Sum of the parts."""
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __str__(self) -> str:
        return format_parts(self.parts)


_new = object.__new__
_set_parts = Partition.parts.__set__


def _trusted(parts: tuple[int, ...]) -> Partition:
    """A Partition of parts, built without the checks of __post_init__.

    The caller guarantees a weakly decreasing tuple of positive ints and
    says why at the call.  The slot is written through its own descriptor,
    as __post_init__ writes it through object.__setattr__, past the frozen
    __setattr__.
    """
    lam = _new(Partition)
    _set_parts(lam, parts)
    return lam


def _trusted_all(parts: Sequence[tuple[int, ...]]) -> list[Partition]:
    """`_trusted` over a sequence, one Partition per parts tuple, in order.

    The objects are made and their slots written by `map`, consumed in C,
    with no Python frame per partition.
    """
    wrapped = list(map(_new, repeat(Partition, len(parts))))
    deque(map(_set_parts, wrapped, parts), maxlen=0)
    return wrapped


def hook_length(lam: Partition, i: int, j: int) -> int:
    """Hook length of cell (i, j): arm + leg + 1.

    The arm counts cells to the right in row i, the leg counts cells below
    in column j.  Raises ValueError unless i, j are exact ints naming a cell.
    """
    exact = type(i) is int and type(j) is int  # no bools, no floats
    if not exact or i < 1 or i > lam.ell or j < 1 or j > lam.parts[i - 1]:
        raise ValueError(f"cell ({i}, {j}) is outside the Young diagram of {lam}")
    arm = lam.parts[i - 1] - j
    leg = sum(1 for r in range(i, lam.ell) if lam.parts[r] >= j)
    return arm + leg + 1


def perimeter(lam: Partition) -> int:
    """Largest part plus number of parts minus 1; 0 for the empty partition.

    Equals the maximum hook length, which sits in the corner cell (1, 1).
    """
    if not lam.parts:
        return 0
    return lam.parts[0] + lam.ell - 1


def hook_rows(lam: Partition) -> Iterator[list[int]]:
    """Each row's hook lengths, left to right, bottom row first.

    One pass up the diagram: below[j] counts the cells of column j + 1 from
    the current row down, so that cell's hook is its arm p - j - 1 plus
    below[j].  The last row yielded is the top one, whose first hook is the
    perimeter.  Every cell costs O(1); `hook_length` is the checked
    single-cell route.
    """
    below = [0] * (lam.parts[0] if lam.parts else 0)
    for p in reversed(lam.parts):
        for j in range(p):
            below[j] += 1
        yield [p - j - 1 + below[j] for j in range(p)]


def is_t_core(lam: Partition, t: int) -> bool:
    """True when no cell of the Young diagram has hook length t."""
    _require_int("t", t)
    return not any(t in row for row in hook_rows(lam))


def has_distinct_parts(lam: Partition) -> bool:
    return all(map(gt, lam.parts, lam.parts[1:]))


def has_odd_parts(lam: Partition) -> bool:
    return all(p % 2 for p in lam.parts)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: column lengths become the parts."""
    if not lam.parts:
        return Partition(())
    return Partition(
        tuple(sum(1 for p in lam.parts if p >= j) for j in range(1, lam.parts[0] + 1))
    )


def partitions_of(n: int) -> Iterator[Partition]:
    """Every partition of n, in descending lexicographic order; n is checked at the call."""
    _require_int("n", n, 0)

    def walk(remaining: int, cap: int, prefix: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield Partition(tuple(prefix))
            return
        for k in range(min(cap, remaining), 0, -1):
            prefix.append(k)
            yield from walk(remaining - k, k, prefix)
            prefix.pop()

    return walk(n, n if n else 1, [])
