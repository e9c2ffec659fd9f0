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

All coefficients are exact Python integers, and no route recurses: each
but from-psi is a memoised table that `_table` fills on an explicit work
stack with just the cells a request depends on.  shor, bew and f cost O(d)
per cell of degree d; ramanujan, shor-alt, zeng-a and from-psi make one
O(d^2) Taylor shift per cell (`IntPoly.shift`, multiply-free by +-1), of
the whole right-hand side on ramanujan and shor-alt.  zeng-b is solved
top-down, each coefficient by one C-level pass over the row of (x-1)^j in
`_DOWN`, with f_{n,k} as the constant term.  `ROUTES` lists every route by
family and method; the first method of each family is its default.
"""

from __future__ import annotations

from math import comb
from operator import add
from typing import Iterable

__all__ = [
    "IntPoly",
    "ROUTES",
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
        """Compose x -> x + c by the Pascal scheme: d rounds of synthetic
        division by x - c, in place on one coefficient list."""
        a = list(self.coeffs)
        if c == 0 or len(a) < 2:
            return self
        for i in range(len(a) - 1):
            js = range(len(a) - 2, i - 1, -1)
            if c == 1:
                for j in js:
                    a[j] += a[j + 1]
            elif c == -1:
                for j in js:
                    a[j] -= a[j + 1]
            else:
                for j in js:
                    a[j] += c * a[j + 1]
        return IntPoly(a)

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


_ONE, _X = IntPoly.constant(1), IntPoly.x()
_DOWN: list[list[int]] = []  # [j]: (x-1)^j below x^j; zeng-b grows it and keeps it


# the cells a rule reads, as (row, column) offsets back from its own
_ABOVE, _DIAG, _LEFT = (1, 0), (1, 1), (0, 1)


def _table(name: str, doc: str, first: int, lo: int, one, reads: tuple, rule):
    """One route's table as a memoised cell lookup (a, k) -> value, named
    `name` and documented by `doc`.

    Row a >= first holds k in [lo, lo + a - first], and every other cell is
    zero.  Row `first` is the cell `one`; each later cell is
    `rule(a, k, *cells)`, the cells at (a - da, k - dk) for (da, dk) in
    `reads`.  A request computes, on an explicit work stack, only the
    cells it depends on that no earlier request computed.
    """
    zero = one * 0
    memo = {(first, lo): one}

    def inside(a: int, k: int) -> bool:
        return 0 <= k - lo <= a - first

    def cell(a: int, k: int):
        stack = [(a, k)]
        while stack:
            b, j = stack[-1]
            if (b, j) in memo or not inside(b, j):
                stack.pop()
                continue
            deps = [(b - da, j - dk) for da, dk in reads]
            todo = [d for d in deps if d not in memo and inside(*d)]
            if todo:
                stack += todo
            else:
                stack.pop()
                memo[b, j] = rule(b, j, *(memo.get(d, zero) for d in deps))
        return memo.get((a, k), zero)

    cell.__name__ = cell.__qualname__ = name
    cell.__doc__ = doc
    return cell


def _zeng_b_cell(n: int, k: int, above: IntPoly) -> IntPoly:
    # Q(x) - Q(x-1) = g(x), g = (n+k-1) Q_{n-1,k}, on one int list from the
    # top: the x^(j-1) coefficient of g fixes a_j, and a_j (x^j - (x-1)^j),
    # which is -a_j times the row _DOWN[j], comes off the lower ones.
    d = n - 1 - k
    rem = [(n + k - 1) * c for c in above.coeffs]
    rem += [0] * (d - len(rem))
    coeffs = [0] * (d + 1)
    _DOWN.extend([(-1) ** (j - i) * comb(j, i) for i in range(j)]
                 for j in range(len(_DOWN), d + 1))
    for j in range(d, 0, -1):
        a, r = divmod(rem[j - 1], j)
        if r:
            raise ArithmeticError(f"non-integer coefficient solving Q({n},{k})")
        coeffs[j] = a
        rem[:j] = map(add, rem, map(a.__mul__, _DOWN[j]))
    if any(rem):
        raise ArithmeticError(f"inconsistent difference equation for Q({n},{k})")
    coeffs[0] = f(n, k)
    return IntPoly(coeffs)


psi_bew = _table("psi_bew", "psi_k(r, x) by the two-term recurrence in r.",
                 0, 1, _ONE, (_ABOVE, _DIAG), lambda r, k, above, diag:
                 IntPoly((1 - r - k, 1)) * above + (r + k - 2) * diag)
psi_ramanujan = _table("psi_ramanujan",
                       "psi_k(r, x) by the original shift recurrence; rows fill in increasing k.",
                       0, 1, _ONE, (_ABOVE, _LEFT), lambda r, k, above, left:
                       left + (_X * above - left).shift(-1))
q_shor = _table("q_shor", "Q_{n,k}(x) by the plain two-term recurrence in n.",
                1, 0, _ONE, (_ABOVE, _DIAG), lambda n, k, above, diag:
                IntPoly((n - 1, 1)) * above + (n + k - 2) * diag)
q_shor_alt = _table("q_shor_alt", "Q_{n,k}(x) by the shifted-argument recurrence.",
                    1, 0, _ONE, (_ABOVE, _DIAG), lambda n, k, above, diag:
                    (IntPoly((-k, 1)) * above + (n + k - 2) * diag).shift(1))
q_zeng_a = _table("q_zeng_a", "Q_{n,k}(x) by the mixed recurrence descending in n and k.",
                  1, 0, _ONE, (_ABOVE, _LEFT), lambda n, k, above, left:
                  IntPoly((n - 1, 1)) * above + left - left.shift(-1))
q_zeng_b = _table("q_zeng_b",
                  "Q_{n,k}(x) from Q_{n,k}(x) - Q_{n,k}(x-1) = (n+k-1) Q_{n-1,k}(x).",
                  1, 0, _ONE, (_ABOVE,), _zeng_b_cell)
f = _table("f", "Number of rooted labeled trees on [n] with k improper edges.",
           1, 0, 1, (_ABOVE, _DIAG), lambda n, k, above, diag:
           (n - 1) * above + (n + k - 2) * diag)


def q_from_psi(n: int, k: int) -> IntPoly:
    """Q_{n,k}(x) = psi_{k+1}(n-1, x+n); both sides are zero on the same cells."""
    return psi_bew(n - 1, k + 1).shift(n)


# family -> method -> route, as `ramapoly poly --family F --method M` names
# them; the first method of each family is its default
ROUTES = {
    "psi": {"bew": psi_bew, "ramanujan": psi_ramanujan},
    "q": {"shor": q_shor, "shor-alt": q_shor_alt, "zeng-a": q_zeng_a, "zeng-b": q_zeng_b,
          "from-psi": q_from_psi},
    "f": {"shor": f},
}


def poly_table(family: str, maximum: int) -> dict[tuple[int, int], IntPoly]:
    """Cells of the psi table (keys (r, k), r <= maximum) or the Q table
    (keys (n, k), n <= maximum), by the family's first route in `ROUTES`.
    A maximum below the family's first row (psi 0, q 1) is refused."""
    if family not in ("psi", "q"):
        raise ValueError(f"unknown family {family!r}")
    first = 0 if family == "psi" else 1
    if maximum < first:
        raise ValueError(f"{family} tables need a maximum of at least {first}")
    route = next(iter(ROUTES[family].values()))
    if family == "psi":
        return {(r, k): route(r, k) for r in range(maximum + 1) for k in range(1, r + 2)}
    return {(n, k): route(n, k) for n in range(1, maximum + 1) for k in range(n)}
