"""Exhaustive-enumeration oracle suites.

Each suite regenerates a family of exact facts (table cells, recurrence
agreements, enumeration identities, bijection certifications, the
lambda-class recurrence) and compares them against independently computed
values: embedded golden data, closed-form counts, or brute-force
enumeration.  Every comparison is exact; a report carries one record per
checked instance plus the wall time.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, combinations
from math import factorial, prod
from typing import Callable, Hashable, Iterator

from . import bijections as bj
from .polynomials import ROUTES, IntPoly, f, psi_bew, q_shor
from .series import genfun_mismatch
from .trees import (ClassFilter, PlaneTree, RootedTree, _heads, _k_lambda_counts, _run_shards,
                    _trees)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "tabulate",
    "count_class",
    "reproduce_tables",
    "check_recurrences",
    "check_identities",
    "check_bijections",
    "check_conjecture",
    "check_genfun",
    "lambda_table",
    "lambda_recurrence_mismatches",
    "double_factorial",
    "SUITES",
    "PSI_TABLE",
    "Q_TABLE",
    "LAMBDA_TABLES",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: str
    actual: str
    ok: bool


@dataclass
class VerificationReport:
    suite: str
    results: list[CheckResult] = field(default_factory=list)
    wall_ns: int = 0
    # where an enumerating suite's time went (ns per phase) and the work it did
    phases: dict[str, int] = field(default_factory=Counter)
    counts: dict[str, int] = field(default_factory=Counter)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.ok]

    def check(self, name: str, expected, actual) -> bool:
        ok = expected == actual
        self.results.append(CheckResult(name, str(expected), str(actual), ok))
        return ok

    def note(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append(CheckResult(name, "pass", detail or ("pass" if ok else "fail"), ok))

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Add the time the block takes to phases[name]."""
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.phases[name] += time.perf_counter_ns() - t0

    def summary(self) -> str:
        state = "PASS" if self.ok else "FAIL"
        work = [f"{name} {ns / 10**9:.2f}s" for name, ns in self.phases.items()]
        work += [f"{name} {c}" for name, c in self.counts.items()]
        return (f"suite {self.suite}: {state} "
                f"({len(self.results) - len(self.failures)}/{len(self.results)} checks, "
                f"{self.wall_ns / 10**9:.2f}s{''.join('; ' + w for w in work)})")

    def lines(self, only_failures: bool = False) -> list[str]:
        out = []
        for r in self.results:
            if only_failures and r.ok:
                continue
            mark = "ok" if r.ok else "FAIL"
            out.append(f"[{mark}] {r.name}: expected {r.expected}, got {r.actual}")
        out.append(self.summary())
        return out

    def json_lines(self) -> list[str]:
        out = [json.dumps({"suite": self.suite, "name": r.name, "expected": r.expected,
                           "actual": r.actual, "ok": r.ok}, sort_keys=True)
               for r in self.results]
        out.append(json.dumps({"suite": self.suite, "ok": self.ok,
                               "checks": len(self.results),
                               "wall_time": round(self.wall_ns / 10**9, 3),
                               "phases_ns": self.phases, "counts": self.counts},
                              sort_keys=True))
        return out


def _require_size(value: int, least: int, name: str = "nmax") -> None:
    # A size below the smallest one a suite checks would report a vacuous pass.
    if value < least:
        raise ValueError(f"{name} must be at least {least}")


def _timed(fn):
    def wrap(*args, **kwargs):
        t0 = time.perf_counter_ns()
        rep = fn(*args, **kwargs)
        rep.wall_ns = time.perf_counter_ns() - t0
        return rep
    return wrap


def double_factorial(m: int) -> int:
    """1 * 3 * ... * m for odd m; 1 when m < 1."""
    return prod(range(1, m + 1, 2))


# From this n on the certifier and tabulate run one forked shard per usable CPU.
# In-process against two shards, at n = 5 and 6: a certifier pass over [n] with the
# colour maps 114 against 67 ms and 1.11 against 0.63 s, the plane record 4.7 against
# 6.4 and 42 against 27 ms, the identities key 4.6 against 7.0 and 45.0 against 28.9
# ms (medians of 12-15 alternating runs, 2-vCPU Xeon, Python 3.11).  The n = 5
# certifier gain is inside the spread of a pass (76-144 ms in-process).
_VERIFY_SHARD_MIN_N = 6


def tabulate(n: int, key: Callable[[RootedTree], Hashable], unrooted: bool = False) -> Counter:
    """key(t) -> count over all trees on [n], rooted at 1 when `unrooted`."""
    units = [h for h in _heads(n) if not h[0]] if unrooted else _heads(n)
    return _run_shards(lambda head: Counter(map(key, _trees(n, head))), units,
                       n >= _VERIFY_SHARD_MIN_N, f"tabulate n={n}")


def count_class(n: int, filt: ClassFilter | None = None, unrooted: bool = False) -> int:
    """Exact cardinality of a filtered enumeration."""
    return tabulate(n, (filt or ClassFilter()).matches, unrooted)[True]


# -- golden tables (coefficients low-to-high) -----------------------------------

PSI_TABLE: dict[tuple[int, int], tuple[int, ...]] = {
    (0, 1): (1,),
    (1, 1): (-1, 1), (1, 2): (1,),
    (2, 1): (2, -3, 1), (2, 2): (-5, 3), (2, 3): (3,),
    (3, 1): (-6, 11, -6, 1), (3, 2): (26, -26, 6), (3, 3): (-35, 15), (3, 4): (15,),
    (4, 1): (24, -50, 35, -10, 1), (4, 2): (-154, 200, -80, 10),
    (4, 3): (340, -255, 45), (4, 4): (-315, 105), (4, 5): (105,),
}

Q_TABLE: dict[tuple[int, int], tuple[int, ...]] = {
    (1, 0): (1,),
    (2, 0): (1, 1), (2, 1): (1,),
    (3, 0): (2, 3, 1), (3, 1): (4, 3), (3, 2): (3,),
    (4, 0): (6, 11, 6, 1), (4, 1): (18, 22, 6), (4, 2): (25, 15), (4, 3): (15,),
    (5, 0): (24, 50, 35, 10, 1), (5, 1): (96, 150, 70, 10),
    (5, 2): (190, 195, 45), (5, 3): (210, 105), (5, 4): (105,),
}

# (n, k) -> |R_{n,k}[lambda = i]| for i = 1, 2, 3
LAMBDA_TABLES: dict[int, dict[tuple[int, int], int]] = {
    1: {(2, 1): 1,
        (3, 1): 1, (3, 2): 2,
        (4, 1): 2, (4, 2): 7, (4, 3): 8,
        (5, 1): 6, (5, 2): 29, (5, 3): 59, (5, 4): 48},
    2: {(3, 1): 1, (3, 2): 1,
        (4, 1): 2, (4, 2): 5, (4, 3): 4,
        (5, 1): 6, (5, 2): 23, (5, 3): 37, (5, 4): 24},
    3: {(4, 1): 2, (4, 2): 4, (4, 3): 3,
        (5, 1): 6, (5, 2): 20, (5, 3): 29, (5, 4): 18},
}


def _with_lambda(cells: Counter) -> Counter:
    # the (k, lambda) cells of the trees whose lambda is defined
    return Counter({cell: c for cell, c in cells.items() if cell[1] is not None})


def lambda_table(n: int) -> Counter:
    """(k, lambda) -> count over rooted trees on [n] whose max label has a
    child."""
    return _with_lambda(_k_lambda_counts(n))


def lambda_recurrence_mismatches(prev: Counter, cur: Counter,
                                 n: int) -> list[tuple[int, int, int, int]]:
    """(k, i, expected, actual) for every cell of the lambda table `cur` on
    [n] that breaks the recurrence from the table `prev` on [n-1]:
    |R_{n,k}[lambda=i]| = (n-2)|R_{n-1,k}[lambda=i]| + (n+k-3)|R_{n-1,k-1}[lambda=i]|
    for 1 <= i <= n-2."""
    out = []
    for i in range(1, n - 1):
        for k in range(n):
            want = (n - 2) * prev.get((k, i), 0) + (n + k - 3) * prev.get((k - 1, i), 0)
            if cur.get((k, i), 0) != want:
                out.append((k, i, want, cur.get((k, i), 0)))
    return out


def _check_row_sums(rep: VerificationReport, rmax: int, nmax: int) -> None:
    # sum_k psi_k(r, x) = x^r for r <= rmax, sum_k Q_{n,k}(x) = (x+n)^(n-1)
    # for n <= nmax, by each family's first route
    psi, q = (next(iter(ROUTES[family].values())) for family in ("psi", "q"))
    for r in range(rmax + 1):
        rep.check(f"psi row sum r={r}", IntPoly.x() ** r,
                  sum((psi(r, k) for k in range(1, r + 2)), IntPoly()))
    for n in range(1, nmax + 1):
        rep.check(f"Q row sum n={n}", IntPoly((n, 1)) ** (n - 1),
                  sum((q(n, k) for k in range(n)), IntPoly()))


@_timed
def reproduce_tables() -> VerificationReport:
    """Regenerate every cell of the psi, Q, and lambda tables."""
    rep = VerificationReport("tables")
    psi, q = (next(iter(ROUTES[family].values())) for family in ("psi", "q"))
    for (r, k), coeffs in sorted(PSI_TABLE.items()):
        rep.check(f"psi r={r} k={k}", IntPoly(coeffs), psi(r, k))
    for (n, k), coeffs in sorted(Q_TABLE.items()):
        rep.check(f"Q n={n} k={k}", IntPoly(coeffs), q(n, k))
    _check_row_sums(rep, 4, 5)
    tabs = {n: lambda_table(n) for n in range(2, 6)}
    for i, cells in sorted(LAMBDA_TABLES.items()):
        for (n, k), value in sorted(cells.items()):
            rep.check(f"lambda={i} n={n} k={k}", value, tabs[n][(k, i)])
    return rep


@_timed
def check_recurrences(nmax: int) -> VerificationReport:
    """All generation routes agree exactly, degrees and leading signs are
    right, and the three row-sum identities hold."""
    _require_size(nmax, SUITES["recurrences"][2])
    rep = VerificationReport("recurrences")
    # every route of a family against the family's first one
    (psi_first, *psi_others), (q_first, *q_others) = ROUTES["psi"].values(), ROUTES["q"].values()
    for r in range(nmax + 1):
        same = all(route(r, k) == psi_first(r, k) for k in range(0, r + 3) for route in psi_others)
        rep.note(f"psi routes agree r={r}", same)
    for n in range(1, nmax + 1):
        for k in range(n):
            base = q_first(n, k)
            rep.note(f"Q routes agree n={n} k={k}", all(route(n, k) == base for route in q_others))
            rep.check(f"Q degree n={n} k={k}", n - 1 - k, base.degree)
            rep.note(f"Q leading positive n={n} k={k}", base.leading > 0)
            rep.check(f"f = Q(0) n={n} k={k}", f(n, k), base(0))
        rep.note(f"Q zero out of range n={n}", q_first(n, n).is_zero() and q_first(n, -1).is_zero())
        rep.check(f"f row sum n={n}", n ** (n - 1), sum(f(n, k) for k in range(n)))
    _check_row_sums(rep, nmax, nmax)
    return rep


# -- enumeration identities ------------------------------------------------------


def _identity_key(t: RootedTree) -> tuple[int, int, bool, bool, bool]:
    # (k, deg(1), rooted at 1, max label internal, second-smallest label internal)
    n = t.size
    return (t.improper_count(), t.degree(1), not t.parents[0], t.degree(n) > 0,
            n > 1 and t.degree(2) > 0)


def _deg1_poly(counter: Counter, k: int) -> IntPoly:
    # sum of x^(deg(1)-1) over the class with k improper edges; the root 1 has deg(1) >= 1
    coeffs = [0] * max([d for _, d in counter], default=0)
    for (kk, d), c in counter.items():
        if kk == k:
            coeffs[d - 1] += c
    return IntPoly(coeffs)


@_timed
def check_identities(nmax: int) -> VerificationReport:
    """Enumeration interpretations of the Q family and the counting
    identities that tie consecutive sizes together; nmax bounds the largest
    enumerated tree."""
    _require_size(nmax, SUITES["identities"][2])
    rep = VerificationReport("identities")
    # One pass per [n], over every rooted tree below nmax and the trees rooted at 1
    # on [nmax].  rooted[n] counts (k, deg(1)) over the rooted trees on [n], and
    # unrooted[size] over the trees on [size] rooted at 1, in "all" and in the four
    # classes that pin whether the max or the second-smallest label is a leaf.
    rooted = {n: Counter() for n in range(1, nmax)}
    unrooted = {size: defaultdict(Counter) for size in range(2, nmax + 1)}
    with rep.phase("enumerate"):
        for n in range(1, nmax + 1):
            tab = tabulate(n, _identity_key, unrooted=n == nmax)
            rep.counts["trees visited"] += tab.total()
            for (k, d, at_1, max_internal, second_internal), c in tab.items():
                if n < nmax:
                    rooted[n][(k, d)] += c
                if at_1 and n > 1:
                    summ = unrooted[n]
                    summ["all"][(k, d)] += c
                    summ["max_internal" if max_internal else "max_leaf"][(k, d)] += c
                    summ["second_internal" if second_internal else "second_leaf"][(k, d)] += c
    with rep.phase("check"):
        for n in range(2, max(nmax, 12) + 1):
            for k in range(n):
                lhs = q_shor(n, k).shift(-1)
                rhs = (IntPoly((-k, 1)) * q_shor(n - 1, k)
                       + (n + k - 2) * q_shor(n - 1, k - 1))
                rep.check(f"shifted two-term identity n={n} k={k}", lhs, rhs)

        for n, cnt in rooted.items():
            for k in range(n):
                total = sum(c for (kk, _), c in cnt.items() if kk == k)
                rep.check(f"f interpretation n={n} k={k}", f(n, k), total)
                acc = IntPoly()
                for (kk, d), c in cnt.items():
                    if kk == k:
                        acc = acc + c * IntPoly((1, 1)) ** d
                rep.check(f"deg(1) interpretation over rooted trees n={n} k={k}",
                          q_shor(n, k), acc)
            rep.check(f"rooted total n={n}", n ** (n - 1), sum(cnt.values()))

        for size, summ in unrooted.items():
            n = size - 1
            for k in range(size):
                rep.check(f"deg(1) interpretation over min-rooted trees n={n} k={k}",
                          q_shor(n, k), _deg1_poly(summ["all"], k))
                if n >= 2:
                    rep.check(f"max-leaf refinement n={n} k={k}",
                              IntPoly((n - 1, 1)) * q_shor(n - 1, k),
                              _deg1_poly(summ["max_leaf"], k))
                    rep.check(f"max-internal refinement n={n} k={k}",
                              (n + k - 2) * q_shor(n - 1, k - 1),
                              _deg1_poly(summ["max_internal"], k))
                    rep.check(f"max-internal refinement shifted n={n} k={k}",
                              (n + k - 1) * q_shor(n - 1, k),
                              _deg1_poly(summ["max_internal"], k + 1))
                rep.check(f"second-leaf class n={n} k={k}",
                          q_shor(n, k).shift(-1), _deg1_poly(summ["second_leaf"], k))
                rep.check(f"degree-preserving exchange n={n} k={k}",
                          _deg1_poly(summ["second_internal"], k),
                          _deg1_poly(summ["max_internal"], k + 1))
                for r in range(1, size):
                    rep.check(f"degree-preserving exchange n={n} k={k} r={r}",
                              summ["second_internal"].get((k, r), 0),
                              summ["max_internal"].get((k + 1, r), 0))
                    if n in unrooted:
                        rep.check(f"second-internal count n={n} k={k} r={r}",
                                  (n + k - 1) * unrooted[n]["all"].get((k, r), 0),
                                  summ["second_internal"].get((k, r), 0))
            if n in rooted:
                for k in range(n):
                    lhs = sum(c for (kk, d), c in rooted[n].items() if kk == k and d > 0)
                    rep.check(f"min-internal count n={n} k={k}",
                              (n + k - 1) * f(n - 1, k), lhs)
                    for r in range(n):
                        rep.check(f"fresh-root class count n={n} k={k} r={r}",
                                  rooted[n].get((k, r), 0),
                                  summ["second_leaf"].get((k, r + 1), 0))
    return rep


# -- bijection certification ------------------------------------------------------


def _fails(t, fwd, inv, image: Callable[[RootedTree], bool], labels: tuple) -> bool:
    # whether inv(fwd(t)) != t, or fwd(t) lacks the labels or the statistics
    # of its codomain cell, which `image` reads off fwd(t)'s core: the one a
    # rooted map kept in place, or else the one inv built
    try:
        u = fwd(t)
        return not (inv(u) == t and u.labels == labels and image(u))
    except ValueError:  # a map rejected a tree of its class
        return True


def _certify_shard(n: int, grow: bool, head: tuple) -> Counter:
    # The trees on [n] whose parent arrays start with `head`, counted by cell (kind, *stats)
    # (README, "The certifier streams", says which statistics key each), by failed map
    # ("failed", kind, *stats), as "trees", "maps", "all-improper" and by flatten case "A"-"D".
    # `grow` maps [n] into [n + 1] too.
    labels, grown = tuple(range(1, n + 1)), tuple(range(1, n + 2))
    got = Counter()

    def domain(cell, t, fwd, inv, image, on=labels) -> None:
        # t is in a domain cell: count it, and whether it fails the cell's map
        got[cell] += 1
        got["maps"] += 2
        if _fails(t, fwd, inv, image, on):
            got[("failed", *cell)] += 1

    def flatten(t, m):
        # the case must be the one read off the image: is the min under the
        # max, and does the max keep just the m moved children
        trace: list = []
        u = bj.flatten_min(t, trace)
        tag = trace[-1]  # flatten_min appends its CaseTag last
        got[tag.case.value] += 1
        tight = u.degree(n) == m
        case = ("D" if tight else "C") if u.is_descendant(1, n) else ("B" if tight else "A")
        if tag.case.value != case:  # fails the record
            raise ValueError(f"flatten reported case {tag.case.value} for case {case}")
        return u

    for t in _trees(n, head):
        got["trees"] += 1
        k, i = t.improper_count(), t.proper_on_max_path()
        dmin, dmax = t.degree(1), t.degree(n)
        got["all-improper"] += k == n - 1
        if dmin:
            domain(("rooted", k), t, bj.rooted_fwd, bj.rooted_inv,
                   lambda u: u.improper_count() == k + 1 and u.degree(n) > 0)
            if i:
                domain(("lowering", k, i), t, bj.lower, bj.lift,
                       lambda u: (u.improper_count(), u.proper_on_max_path()) == (k + 1, i - 1)
                       and u.degree(n) > 0 and (u.degree(1) > 0 or u.lower_critical() == 1))
            else:
                domain(("flat", k, dmin), t, lambda t: flatten(t, dmin),
                       lambda u: bj.unflatten_min(u, dmin),
                       lambda u: (u.improper_count(), u.proper_on_max_path(), u.degree(1))
                       == (k + dmin, 0, 0) and u.degree(n) >= dmin and u.lower_critical() != 1)
        if dmax:  # lambda is defined here, and read only when deg(1) = 0
            if dmin or t.lower_critical() == 1:
                got["lifting", k, i] += 1
            elif i:  # a restricted cell that is a domain too
                domain(("restricted", k, i, dmax), t, bj.lower, bj.lift,
                       lambda u: (u.improper_count(), u.proper_on_max_path(), u.degree(1),
                                  u.degree(n)) == (k + 1, i - 1, 0, dmax + 1)
                       and u.lower_critical() != 1)
            else:
                got["restricted", k, i, dmax] += 1
        if dmin == 1:
            b = t.beta_star()
            domain(("dom_fold", k, b), t, bj.fold_stem, bj.unfold_stem,
                   lambda u: (u.improper_count(), u.degree(1), u.mu()) == (k + 1, 0, b))
        elif not dmin and n > 1:  # so 1 is not the root
            got["cod_fold", k, t.mu()] += 1
        if t.parents[0] == 0 and n > 1:
            if t.degree(2):
                domain(("min_dom", k, dmin), t, bj.unrooted_fwd, bj.unrooted_inv,
                       lambda u: (u.parents[0], u.improper_count(), u.degree(1)) == (0, k + 1, dmin)
                       and u.degree(n) > 0)
            else:
                got["fresh", k, dmin] += 1
            if dmax:
                got["min_cod", k, dmin] += 1
        if grow:
            for black in chain.from_iterable(combinations(t.children(1), s)
                                             for s in range(dmin + 1)):
                domain(("colour", k), bj.ColoredRootedTree(t, frozenset(black)), bj.color_split,
                       bj.color_merge, lambda u: (u.parents[0], u.improper_count()) == (0, k),
                       grown)
            domain(("insert", k, dmin + 1), t, bj.insert_root, bj.extract_root,
                   lambda u: (u.parents[0], u.degree(2), u.degree(1), u.improper_count())
                   == (0, 0, dmin + 1, k), grown)
    return got


def _cells(counts: Counter, *kind: str) -> list[tuple[tuple, int]]:
    # the nonempty cells of a kind, or of its failures ("failed", kind), keys increasing
    return sorted((k[len(kind):], c) for k, c in counts.items() if k[:len(kind)] == kind and c)


def _note_rooted(rep: VerificationReport, n: int, got: Counter) -> None:
    # the records of the maps within [n], in their fixed order, from its pass's sums
    ok = {}

    def forward(name: str, cell: tuple, cod: int) -> None:
        # no tree of the domain cell failed its map, and |D| = |C|
        ok[cell] = not got[("failed", *cell)] and got[cell] == cod
        rep.note(name, ok[cell])

    cod = Counter()  # the rooted codomain of k: every codomain cell of k
    for kind in ("lifting", "restricted"):
        for (k, *_), c in _cells(got, kind):
            cod[k] += c
    for (k,), c in _cells(got, "rooted"):
        forward(f"rooted bijection n={n} k={k} ({c} trees)", ("rooted", k), cod[k + 1])
    for k in sorted(cod):
        rep.note(f"rooted inverse round-trip n={n} k={k}",  # derived: see check_bijections
                 ok.get(("rooted", k - 1), False))
    for (k, i), _ in _cells(got, "lowering"):
        forward(f"lowering class n={n} k={k} i={i}", ("lowering", k, i),
                got["lifting", k + 1, i - 1])
    for (k, i, m), _ in _cells(got, "restricted"):
        if i >= 1:
            forward(f"restricted lowering n={n} k={k} i={i} deg(max)={m}",
                    ("restricted", k, i, m), got["restricted", k + 1, i - 1, m + 1])
    for (k, m), _ in _cells(got, "flat"):
        forward(f"flatten classes n={n} k={k} m={m}", ("flat", k, m),
                sum(got["restricted", k + m, 0, d] for d in range(m, n)))
    # every case fires from n = 5 on (case A needs five labels)
    rep.note(f"flatten cases n={n}", n < 5 or all(got[c] for c in "ABCD"),
             " ".join(f"{c}={got[c]}" for c in "ABCD"))
    for (k, b), _ in _cells(got, "dom_fold"):
        forward(f"fold classes n={n} k={k} w={b}", ("dom_fold", k, b), got["cod_fold", k + 1, b])
    for (k, r), c in _cells(got, "min_dom"):
        forward(f"min-rooted bijection size={n} k={k} r={r} ({c} trees)", ("min_dom", k, r),
                got["min_cod", k + 1, r])
    for (k, r), _ in _cells(got, "min_cod"):  # derived: see check_bijections
        rep.note(f"min-rooted inverse round-trip size={n} k={k} r={r}",
                 ok.get(("min_dom", k - 1, r), False))
    # the pass's coverage against the algebra: Q_{n,k}(x) sums (1 + x)^deg(1) over R_{n,k},
    # and a max leaf hangs under any of n - 1 labels without adding an improper edge
    for k in range(n):
        q = q_shor(n, k)
        rep.check(f"rooted domain covered n={n} k={k}", q(0) - q(-1), got["rooted", k])
        rep.check(f"rooted codomain covered n={n} k={k}", f(n, k) - (n - 1) * f(n - 1, k), cod[k])


def _increasing_plane_trees(n: int, shape: tuple = ((),)) -> Iterator[tuple[tuple, PlaneTree]]:
    # Independent generator of the trees on [n] grown from `shape`, each as its
    # shape and its PlaneTree: insert each label v in increasing order as a new
    # leaf in every child slot (2v-3 of them).  A shape holds child lists, shape[u - 1]
    # the children of u, grown depth first, so only those beside one path are held.
    stack = [shape]
    while stack:
        shape = stack.pop()
        if len(shape) < n:
            v = len(shape) + 1
            stack += reversed([shape[:j] + (kids[:pos] + (v,) + kids[pos:],) + shape[j + 1:] + ((),)
                               for j, kids in enumerate(shape) for pos in range(len(kids) + 1)])
            continue
        pre, todo = [], [1]  # the preorder
        while todo:
            pre.append(todo.pop())
            todo += reversed(shape[pre[-1] - 1])
        yield shape, PlaneTree(tuple(pre), tuple([len(shape[u - 1]) for u in pre]))


def certify_plane(rep: VerificationReport, n: int, count: int) -> None:
    """The plane record, from the codomain side: plane_inv maps each
    independently generated increasing plane tree on [n] to an all-improper
    tree on [n] that plane_fwd takes back, so it is injective, and `count`,
    the number of all-improper trees on [n], equal to theirs makes it onto."""
    labels = tuple(range(1, n + 1))

    def work(shape: tuple) -> Counter:
        # the plane trees grown from `shape`, by whether they fail
        return Counter(_fails(p, bj.plane_inv, bj.plane_fwd, lambda t: t.improper_count() == n - 1,
                              labels) for _, p in _increasing_plane_trees(n, shape))

    with rep.phase("plane"):  # dealt in the shapes on the first min(n, 4) labels
        units = [shape for shape, _ in _increasing_plane_trees(min(n, 4))]
        fails = _run_shards(work, units, n >= _VERIFY_SHARD_MIN_N, f"plane bijection n={n}")
    rep.counts["maps applied"] += 2 * fails.total()
    target = double_factorial(2 * n - 3)
    rep.note(f"plane bijection n={n} (both sides {target})",
             not fails[True] and count == target == fails.total())


@_timed
def check_bijections(nmax: int) -> VerificationReport:
    """Certify every map over full enumerations, keeping only counts.  One
    pass per [n] (dealt to the shards in the heads of its parent arrays) files
    each tree in its cells and applies each map whose domain holds it:
    inv(fwd(t)) = t makes fwd injective, the statistics of fwd(t) put it in
    its codomain cell, and |D| = |C| from the counts makes fwd(D) = C.  For
    n < nmax the colour and fresh-root maps grow [n] into [n + 1].  The
    inverse round-trip record of class k takes the verdict of the forward
    record of class k - 1 (False if that class is empty): inv ran on all of
    C and fwd(inv(u)) = u, as the maps keep no state.  The plane record is
    certified from the codomain side (certify_plane)."""
    _require_size(nmax, SUITES["bijections"][2])
    rep = VerificationReport("bijections")
    passes = []  # the cell counts, failures and tally of each [n]
    with rep.phase("map"):
        for n in range(1, nmax + 1):
            got = _run_shards(partial(_certify_shard, n, n < nmax), _heads(n),
                              n >= _VERIFY_SHARD_MIN_N, f"bijection certifier n={n}")
            passes.append(got)
            # |D| = |C| compares two counts of one pass: a dropped tree could shrink both
            rep.check(f"trees seen n={n}", n ** (n - 1), got["trees"])
            rep.counts["trees visited"] += got["trees"]
            rep.counts["maps applied"] += got["maps"]
            if n > 1:
                _note_rooted(rep, n, got)
        for n, (got, cod) in enumerate(zip(passes, passes[1:]), 1):
            pairs = sum(c for _, c in _cells(got, "colour"))
            rep.note(f"color split/merge n={n} ({pairs} colored trees)",
                     not _cells(got, "failed", "colour") and pairs == (n + 1) ** (n - 1))
            rep.note(f"fresh-root bijection n={n}", not _cells(got, "failed", "insert")
                     and _cells(got, "insert") == _cells(cod, "fresh"))
    for n, got in enumerate(passes, 1):
        certify_plane(rep, n, got["all-improper"])
    return rep


# -- the lambda-class recurrence ---------------------------------------------------


@_timed
def check_conjecture(nmax: int) -> VerificationReport:
    """The refined recurrence for |R_{n,k}[lambda=i]|, its special cases, and
    the all-improper double-factorial count."""
    _require_size(nmax, SUITES["conjecture"][2])
    rep = VerificationReport("conjecture")
    census = {}
    for n in range(2, nmax + 1):
        with rep.phase(f"count n={n}"):
            census[n] = _k_lambda_counts(n)
        rep.counts[f"internal-max trees n={n}"] = sum(c for (_, lam), c in census[n].items() if lam)
    rep.counts["trees counted"] = sum(sum(c.values()) for c in census.values())
    with rep.phase("check"):
        tabs = {n: _with_lambda(c) for n, c in census.items()}
        for n in range(3, nmax + 1):
            rep.check(f"lambda recurrence n={n}, mismatching (k, i, expected, actual)",
                      [], lambda_recurrence_mismatches(tabs[n - 1], tabs[n], n))
        for n in range(2, nmax + 1):
            for i in range(1, n):
                rep.check(f"k=1 classes are (n-2)! n={n} i={i}",
                          factorial(n - 2), tabs[n].get((1, i), 0))
            for k in range(1, n):
                rep.check(f"lambda at second-max n={n} k={k}",
                          f(n - 1, k - 1), tabs[n].get((k, n - 1), 0))
            rep.check(f"all-improper count n={n}", double_factorial(2 * n - 3),
                      sum(c for (k, _), c in census[n].items() if k == n - 1))
            rep.check(f"enumeration complete n={n}", n ** (n - 1), sum(census[n].values()))
        for i, cells in sorted(LAMBDA_TABLES.items()):
            for (n, k), value in sorted(cells.items()):
                if n <= nmax:
                    rep.check(f"lambda table i={i} n={n} k={k}", value, tabs[n].get((k, i), 0))
    return rep


@_timed
def check_genfun(rmax: int, order: int = 10) -> VerificationReport:
    """The generating-function identity at the integers x = -2..5, plus a
    perturbed negative control that must fail."""
    _require_size(rmax, SUITES["genfun"][2], "rmax")
    _require_size(order, 1, "order")  # the negative control needs a u^1 coefficient
    rep = VerificationReport("genfun")
    for r in range(rmax + 1):
        for x in range(-2, 6):
            bad = genfun_mismatch(r, x, order)
            rep.note(f"genfun r={r} x={x} M={order}",
                     bad is None, "exact" if bad is None else f"coeff {bad} differs")
    def perturbed(r, k, x):
        # psi_1 + 1 and psi_2 - 1 keep the row sum, the u^0 coefficient, so
        # only a coefficient j >= 1 can catch the wrong table
        return psi_bew(r, k)(x) + {1: 1, 2: -1}.get(k, 0)
    bad = genfun_mismatch(1, 3, order, psi_eval=perturbed)
    rep.note("negative control: perturbed table must fail",
             bad is not None, f"first mismatch at coeff {bad}")
    return rep


# suite name -> (suite, default size bound = its acceptance size, smallest
# size that checks anything), both sizes None for the fixed tables
SUITES: dict[str, tuple[Callable[..., VerificationReport], int | None, int | None]] = {
    "tables": (reproduce_tables, None, None),
    "recurrences": (check_recurrences, 12, 1),
    "identities": (check_identities, 7, 2),
    "bijections": (check_bijections, 7, 2),
    "conjecture": (check_conjecture, 8, 3),
    "genfun": (check_genfun, 4, 0),
}
