"""Truncated formal power series with exact rational coefficients.

Used to check the generating-function identity defining psi_k(r, x) at
integer values of x:

    sum_{k>=0} (x+k)^(r+k) e^(-u(x+k)) u^k / k!
        = sum_{k=1}^{r+1} psi_k(r, x) / (1-u)^(r+k)

Both sides are expanded in u up to a truncation order M; the left sum may be
cut at k = M because its k-th term is divisible by u^k.  Checking at enough
integer x values implies the polynomial identity, so no bivariate machinery
is needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterable

from .polynomials import psi_bew

__all__ = ["RatSeries", "exp_linear", "inv_power", "genfun_mismatch"]


class RatSeries:
    """Power series in u truncated after u^order, with Fraction coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Fraction | int] = ()):
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > order + 1:
            raise ValueError("more coefficients than the order allows")
        cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        self.order = order
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, order: int) -> "RatSeries":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "RatSeries":
        return cls(order, (1,))

    def _check(self, other: "RatSeries") -> None:
        if self.order != other.order:
            raise ValueError("mismatched truncation orders")

    def __add__(self, other: "RatSeries") -> "RatSeries":
        self._check(other)
        return RatSeries(self.order, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "RatSeries") -> "RatSeries":
        self._check(other)
        return RatSeries(self.order, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other) -> "RatSeries":
        if isinstance(other, (int, Fraction)):
            return RatSeries(self.order, (a * other for a in self.coeffs))
        self._check(other)
        out = [Fraction(0)] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j in range(self.order + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return RatSeries(self.order, out)

    __rmul__ = __mul__

    def shift_up(self, k: int) -> "RatSeries":
        """Multiply by u^k (truncating at the same order)."""
        if k < 0:
            raise ValueError("k must be >= 0")
        return RatSeries(self.order, (Fraction(0),) * k + self.coeffs[: self.order + 1 - k])

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatSeries) and self.order == other.order
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"RatSeries({self.order}, {self.coeffs!r})"


def exp_linear(c: int, order: int) -> RatSeries:
    """e^(-c u) = sum_j (-c)^j u^j / j! truncated at u^order."""
    return RatSeries(order, (Fraction((-c) ** j, factorial(j)) for j in range(order + 1)))


def inv_power(p: int, order: int) -> RatSeries:
    """1 / (1-u)^p = sum_j C(j+p-1, p-1) u^j truncated at u^order."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return RatSeries(order, (comb(j + p - 1, p - 1) for j in range(order + 1)))


def _genfun_sides(r: int, x_val: int, order: int,
                  psi_eval: Callable[[int, int, int], int] | None) -> tuple[RatSeries, RatSeries]:
    if r < 0:
        raise ValueError("r must be >= 0")
    if psi_eval is None:
        psi_eval = lambda rr, kk, xx: psi_bew(rr, kk)(xx)
    lhs = RatSeries.zero(order)
    for k in range(order + 1):
        scale = Fraction((x_val + k) ** (r + k), factorial(k))
        lhs = lhs + exp_linear(x_val + k, order).shift_up(k) * scale
    rhs = RatSeries.zero(order)
    for k in range(1, r + 2):
        rhs = rhs + inv_power(r + k, order) * psi_eval(r, k, x_val)
    return lhs, rhs


def genfun_mismatch(r: int, x_val: int, order: int,
                    psi_eval: Callable[[int, int, int], int] | None = None) -> int | None:
    """Index of the first coefficient where the two sides differ, or None
    when they agree exactly up to u^order.

    `psi_eval(r, k, x)` overrides the psi values, which lets tests run a
    deliberately perturbed table as a negative control.
    """
    lhs, rhs = _genfun_sides(r, x_val, order, psi_eval)
    for j, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
        if a != b:
            return j
    return None

