"""The generating-function identity defining psi_k(r, x), checked at integer
values of x:

    sum_{k>=0} (x+k)^(r+k) e^(-u(x+k)) u^k / k!
        = sum_{k=1}^{r+1} psi_k(r, x) / (1-u)^(r+k)

Each u^j coefficient of both sides has a closed form.  The k-th left term is
divisible by u^k, so only k <= j contribute, and e^(-cu) gives (-c)^i / i!
at u^i; times j! the left coefficient is therefore the integer
sum_{k<=j} (-1)^(j-k) C(j, k) (x+k)^(r+j).  On the right, 1 / (1-u)^p gives
C(j+p-1, j) at u^j.  Checking at enough integer x values implies the
polynomial identity, so no bivariate machinery is needed.
"""

from __future__ import annotations

from math import comb, factorial
from typing import Callable

from .polynomials import psi_bew

__all__ = ["genfun_mismatch"]


def genfun_mismatch(r: int, x_val: int, order: int,
                    psi_eval: Callable[[int, int, int], int] | None = None) -> int | None:
    """Index of the first coefficient where the two sides differ, or None
    when they agree exactly up to u^order.

    `psi_eval(r, k, x)` overrides the psi values, which lets tests run a
    deliberately perturbed table as a negative control.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if order < 0:
        raise ValueError("order must be >= 0")
    if psi_eval is None:
        psi_eval = lambda rr, kk, xx: psi_bew(rr, kk)(xx)
    psi = [psi_eval(r, k, x_val) for k in range(1, r + 2)]
    for j in range(order + 1):
        lhs = sum((-1) ** (j - k) * comb(j, k) * (x_val + k) ** (r + j)
                  for k in range(j + 1))
        rhs = sum(p * comb(j + r + k - 1, j) for k, p in enumerate(psi, 1))
        if lhs != factorial(j) * rhs:
            return j
    return None
