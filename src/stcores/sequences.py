"""Exact closed forms and recurrences cross-checked against the enumerators.

Everything is arbitrary-precision integer arithmetic; no floats anywhere.
The generalized Fibonacci families are kept as polynomials in the parameter
d, so a single computation certifies the counts for every d at once;
integer values are obtained by evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd


def _require_int(name: str, value: int, minimum: int = 1) -> None:
    """Reject a non-int, a bool or an int below minimum with ValueError."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def fibonacci(n: int) -> int:
    """F_n with F_0 = 0 and F_1 = 1."""
    _require_int("n", n, 0)
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num} is not divisible by {den}")
    return q


class InfiniteFamilyError(ValueError):
    """The requested (s, t)-core family is infinite because gcd(s, t) > 1."""

    def __init__(self, s: int, t: int, common: int):
        self.s = s
        self.t = t
        self.common = common
        super().__init__(
            f"({s}, {t})-core partitions form an infinite family: "
            f"gcd({s}, {t}) = {common} > 1, so there is no finite count"
        )


def _require_coprime(s: int, t: int) -> None:
    """_require_int on s and t, then InfiniteFamilyError for gcd(s, t) > 1."""
    _require_int("s", s)
    _require_int("t", t)
    common = gcd(s, t)
    if common != 1:
        raise InfiniteFamilyError(s, t, common)


def anderson_count(s: int, t: int) -> int:
    """Number of partitions avoiding hooks of both lengths s and t: C(s+t, s)/(s+t).

    The division is checked to be exact; a remainder would mean a bug or
    non-coprime input.
    """
    _require_coprime(s, t)
    return _exact_div(comb(s + t, s), s + t)


def catalan(s: int) -> int:
    """C(2s, s)/(s+1); equals anderson_count(s, s+1)."""
    _require_int("s", s, 0)
    return _exact_div(comb(2 * s, s), s + 1)


def fms_selfconjugate_count(s: int, t: int) -> int:
    """Number of self-conjugate (s, t)-core partitions: C(s//2 + t//2, s//2)."""
    _require_coprime(s, t)
    return comb(s // 2 + t // 2, s // 2)


@dataclass(frozen=True)
class CountPolynomial:
    """Polynomial with nonnegative integer coefficients; coeffs[k] multiplies d**k.

    Trailing zero coefficients are stripped, so the leading coefficient is
    nonzero (the zero polynomial is the empty tuple).
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        for c in coeffs:
            _require_int("coefficient", c, 0)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __call__(self, d: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * d + c
        return value

    def __add__(self, other: "CountPolynomial") -> "CountPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        padded = b + (0,) * (len(a) - len(b))
        return CountPolynomial(tuple(x + y for x, y in zip(a, padded)))

    def times_d(self) -> "CountPolynomial":
        """Multiply by the variable d."""
        return CountPolynomial((0,) + self.coeffs) if self.coeffs else self

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                power = "d" if k == 1 else f"d^{k}"
                terms.append(power if c == 1 else f"{c}{power}")
        return " + ".join(terms)


def _twin_free_recurrence(s: int, x2: CountPolynomial) -> CountPolynomial:
    """X(s) for X(s) = X(s-1) + d * X(s-2), X(1) = 1 and X(2) = x2, by one loop."""
    _require_int("s", s)
    x1 = CountPolynomial((1,))
    for _ in range(s - 1):
        x1, x2 = x2, x2 + x1.times_d()
    return x1


def m_poly(s: int) -> CountPolynomial:
    """Number of nested twin-free tuples of length d inside {1, ..., s-1}.

    As a polynomial in d: X(1) = 1, X(2) = d + 1, and
    X(s) = X(s-1) + d * X(s-2).
    """
    return _twin_free_recurrence(s, CountPolynomial((1, 1)))


def n_poly(s: int) -> CountPolynomial:
    """Number of (s, ds-1)-core partitions into distinct parts, as a polynomial in d.

    Same recurrence as m_poly with starts X(1) = 1 and X(2) = d.  At d = 1
    this collapses to the Fibonacci numbers: n_poly(s)(1) = F_s.
    """
    return _twin_free_recurrence(s, CountPolynomial((0, 1)))


def check_core_twinfree_identity(s: int, d: int) -> bool:
    """Whether n_poly(s) = m_poly(s-1) + (d-1) * m_poly(s-2) holds at the integer d."""
    _require_int("s", s, 3)
    _require_int("d", d)
    return n_poly(s)(d) == m_poly(s - 1)(d) + (d - 1) * m_poly(s - 2)(d)
