"""Exact-integer polynomial families: psi_k(r, x), Q_{n,k}(x), and f_{n,k}.

The psi family is defined for r >= 0 and k in [r+1] (zero outside), with
psi_1(0, x) = 1, and can be generated by two recurrences:

  bew:        psi_k(r, x) = (x - r - k + 1) psi_k(r-1, x) + (r + k - 2) psi_{k-1}(r-1, x)
  ramanujan:  psi_k(r+1, x) = (x - 1) psi_k(r, x-1) + psi_{k-1}(r+1, x) - psi_{k-1}(r+1, x-1)

The Q family is defined for n >= 1 and 0 <= k <= n-1 (zero outside), with
Q_{1,0}(x) = 1, and admits five routes that must agree exactly:

  shor:       Q_{n,k}(x) = (x + n - 1) Q_{n-1,k}(x) + (n + k - 2) Q_{n-1,k-1}(x)
  shor-alt:   Q_{n,k}(x) = (x - k + 1) Q_{n-1,k}(x+1) + (n + k - 2) Q_{n-1,k-1}(x+1)
  zeng-a:     Q_{n,k}(x) = (x + n - 1) Q_{n-1,k}(x) + Q_{n,k-1}(x) - Q_{n,k-1}(x-1)
  zeng-b:     Q_{n,k}(x) = Q_{n,k}(x-1) + (n + k - 1) Q_{n-1,k}(x)   (implicit in x)
  from-psi:   Q_{n,k}(x) = psi_{k+1}(n - 1, x + n)

The numbers f_{n,k} = Q_{n,k}(0) satisfy their own recurrence
f_{n,k} = (n-1) f_{n-1,k} + (n+k-2) f_{n-1,k-1} and count rooted labeled
trees on [n] with k improper edges.  Row sums: sum_k psi_k(r, x) = x^r,
sum_k Q_{n,k}(x) = (x+n)^(n-1), sum_k f_{n,k} = n^(n-1).

All coefficients are exact Python integers; zeng-b is solved coefficient by
coefficient from the top degree down, with the constant term pinned by
f_{n,k}.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

__all__ = [
    "IntPoly",
    "psi_bew",
    "psi_ramanujan",
    "q_shor",
    "q_shor_alt",
    "q_zeng_a",
    "q_zeng_b",
    "q_from_psi",
    "f",
]


class IntPoly:
    """Dense univariate polynomial with exact integer coefficients.

    Coefficients are stored low-to-high with no trailing zeros; the zero
    polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c: int) -> "IntPoly":
        return cls((c,))

    @classmethod
    def x(cls) -> "IntPoly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def coeff(self, j: int) -> int:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(other * c for c in self.coeffs)
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "IntPoly":
        if e < 0:
            raise ValueError("negative power")
        out = IntPoly.constant(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def shift(self, c: int) -> "IntPoly":
        """Compose x -> x + c."""
        if c == 0 or self.is_zero():
            return self
        out = IntPoly()
        xc = IntPoly((c, 1))
        for a in reversed(self.coeffs):
            out = out * xc + IntPoly.constant(a)
        return out

    def __call__(self, x: int) -> int:
        acc = 0
        for a in reversed(self.coeffs):
            acc = acc * x + a
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({self.coeffs!r})"

    def __str__(self) -> str:
        """Render as "c_d x^d + ... + c_0", e.g. "45x^2+195x+190"."""
        if self.is_zero():
            return "0"
        parts = []
        for j in range(self.degree, -1, -1):
            c = self.coeff(j)
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if j == 0:
                body = str(mag)
            else:
                xs = "x" if j == 1 else f"x^{j}"
                body = xs if mag == 1 else f"{mag}{xs}"
            parts.append(sign + body)
        return "".join(parts)


_ZERO = IntPoly()
_ONE = IntPoly.constant(1)


def _psi_range(r: int, k: int) -> bool:
    return r >= 0 and 1 <= k <= r + 1


@lru_cache(maxsize=None)
def psi_bew(r: int, k: int) -> IntPoly:
    """psi_k(r, x) by the two-term recurrence in r."""
    if not _psi_range(r, k):
        return _ZERO
    if r == 0:
        return _ONE
    return (IntPoly((-(r + k - 1), 1)) * psi_bew(r - 1, k)
            + (r + k - 2) * psi_bew(r - 1, k - 1))


@lru_cache(maxsize=None)
def psi_ramanujan(r: int, k: int) -> IntPoly:
    """psi_k(r, x) by the original shift recurrence; rows fill in increasing k."""
    if not _psi_range(r, k):
        return _ZERO
    if r == 0:
        return _ONE
    prev = psi_ramanujan(r - 1, k)
    same_row = psi_ramanujan(r, k - 1)
    return (IntPoly((-1, 1)) * prev.shift(-1)) + same_row - same_row.shift(-1)


def _q_range(n: int, k: int) -> bool:
    return n >= 1 and 0 <= k <= n - 1


@lru_cache(maxsize=None)
def q_shor(n: int, k: int) -> IntPoly:
    """Q_{n,k}(x) by the plain two-term recurrence in n."""
    if not _q_range(n, k):
        return _ZERO
    if n == 1:
        return _ONE
    return (IntPoly((n - 1, 1)) * q_shor(n - 1, k)
            + (n + k - 2) * q_shor(n - 1, k - 1))


@lru_cache(maxsize=None)
def q_shor_alt(n: int, k: int) -> IntPoly:
    """Q_{n,k}(x) by the shifted-argument recurrence."""
    if not _q_range(n, k):
        return _ZERO
    if n == 1:
        return _ONE
    return (IntPoly((1 - k, 1)) * q_shor_alt(n - 1, k).shift(1)
            + (n + k - 2) * q_shor_alt(n - 1, k - 1).shift(1))


@lru_cache(maxsize=None)
def q_zeng_a(n: int, k: int) -> IntPoly:
    """Q_{n,k}(x) by the mixed recurrence descending in n and k."""
    if not _q_range(n, k):
        return _ZERO
    if n == 1:
        return _ONE
    lower = q_zeng_a(n, k - 1)
    return (IntPoly((n - 1, 1)) * q_zeng_a(n - 1, k)
            + lower - lower.shift(-1))


@lru_cache(maxsize=None)
def q_zeng_b(n: int, k: int) -> IntPoly:
    """Q_{n,k}(x) from Q_{n,k}(x) - Q_{n,k}(x-1) = (n+k-1) Q_{n-1,k}(x).

    The difference determines the coefficients above the constant term from
    the top degree down (the shift makes each one depend only on higher
    ones); the constant term is f(n, k).
    """
    if not _q_range(n, k):
        return _ZERO
    if n == 1:
        return _ONE
    g = (n + k - 1) * q_zeng_b(n - 1, k)
    d = n - 1 - k
    coeffs = [0] * (d + 1)
    rem = g
    x = IntPoly.x()
    for j in range(d, 0, -1):
        c = rem.coeff(j - 1)
        a, r = divmod(c, j)
        if r:
            raise ArithmeticError(f"non-integer coefficient solving Q({n},{k})")
        coeffs[j] = a
        step = x ** j
        rem = rem - (step - step.shift(-1)) * a
    if not rem.is_zero():
        raise ArithmeticError(f"inconsistent difference equation for Q({n},{k})")
    coeffs[0] = f(n, k)
    return IntPoly(coeffs)


def q_from_psi(n: int, k: int) -> IntPoly:
    """Q_{n,k}(x) = psi_{k+1}(n-1, x+n)."""
    if not _q_range(n, k):
        return _ZERO
    return psi_bew(n - 1, k + 1).shift(n)


@lru_cache(maxsize=None)
def f(n: int, k: int) -> int:
    """Number of rooted labeled trees on [n] with k improper edges."""
    if not _q_range(n, k):
        return 0
    if n == 1:
        return 1
    return (n - 1) * f(n - 1, k) + (n + k - 2) * f(n - 1, k - 1)


def poly_table(family: str, maximum: int) -> dict[tuple[int, int], IntPoly]:
    """Cells of the psi table (keys (r, k), r <= maximum) or the Q table
    (keys (n, k), n <= maximum)."""
    if family == "psi":
        return {(r, k): psi_bew(r, k)
                for r in range(maximum + 1) for k in range(1, r + 2)}
    if family == "q":
        return {(n, k): q_shor(n, k)
                for n in range(1, maximum + 1) for k in range(n)}
    raise ValueError(f"unknown family {family!r}")
