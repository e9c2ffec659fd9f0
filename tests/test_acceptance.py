"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one pass/fail line.  All comparisons are exact (integers,
integer polynomials, rationals); the only tolerances are runtime budgets.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion lines.
"""

import time
from collections import Counter

from ramapoly.bijections import lift, lower, plane_fwd, plane_inv
from ramapoly.polynomials import IntPoly, f, q_shor
from ramapoly.trees import (ClassFilter, enumerate_rooted, enumerate_unrooted,
                            plane_from_text, plane_to_text, tree_from_text)
from ramapoly.verify import (VerificationReport, certify_plane, check_bijections,
                             check_conjecture, check_genfun, check_identities,
                             check_recurrences, count_class, reproduce_tables)

import golden


def _finish(num: int, label: str, ok: bool, elapsed: float, budget: float) -> None:
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num} ({label}): {verdict} in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed its exact checks"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_1_table_reproduction():
    t0 = time.perf_counter()
    rep = reproduce_tables()
    _finish(1, "table reproduction", rep.ok, time.perf_counter() - t0, 1.0)


def test_criterion_2_recurrence_cross_validation():
    t0 = time.perf_counter()
    rep = check_recurrences(12)
    _finish(2, "recurrence cross-validation", rep.ok, time.perf_counter() - t0, 5.0)


def test_criterion_3_combinatorial_interpretation():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 8):
        counts = Counter(t.improper_count() for t in enumerate_rooted(n))
        ok &= all(counts.get(k, 0) == f(n, k) for k in range(n))
        ok &= sum(counts.values()) == n ** (n - 1)
    for n in range(1, 7):
        acc: dict[int, Counter] = {}
        for t in enumerate_unrooted(n + 1):
            acc.setdefault(t.improper_count(), Counter())[t.degree(1) - 1] += 1
        for k in range(n):
            exps = acc.get(k, Counter())
            got = IntPoly(exps.get(j, 0) for j in range(max(exps, default=0) + 1))
            ok &= got == q_shor(n, k)
    _finish(3, "combinatorial interpretation", ok, time.perf_counter() - t0, 120.0)


def test_criterion_4_generating_function():
    t0 = time.perf_counter()
    rep = check_genfun(rmax=4, order=10)
    _finish(4, "generating function", rep.ok, time.perf_counter() - t0, 5.0)


def test_criterion_5_figures_as_golden_tests():
    t0 = time.perf_counter()
    got1 = {t.parents for t in enumerate_rooted(4, ClassFilter(k=1, deg_min=">0"))}
    got2 = {t.parents for t in enumerate_rooted(4, ClassFilter(k=2, deg_max=">0"))}
    ok = got1 == golden.SIXTEEN_DEG1 and got2 == golden.SIXTEEN_DEG4
    before = tree_from_text(golden.LOWER_PAIR_BEFORE)
    after = tree_from_text(golden.LOWER_PAIR_AFTER)
    ok &= lower(before) == after and lift(after) == before
    tree = tree_from_text(golden.PLANE_PAIR_TREE)
    plane = plane_from_text(golden.PLANE_PAIR_PLANE)
    ok &= plane_to_text(plane_fwd(tree)) == golden.PLANE_PAIR_PLANE
    ok &= plane_inv(plane) == tree
    _finish(5, "figures as golden tests", ok, time.perf_counter() - t0, 10.0)


def test_criterion_6_bijection_certification():
    t0 = time.perf_counter()
    rep6 = check_bijections(6)
    mid = time.perf_counter()
    assert mid - t0 < 60.0, "n<=6 certification exceeded one minute"
    rep7 = check_bijections(7)
    _finish(6, "bijection certification n<=7", rep6.ok and rep7.ok,
            time.perf_counter() - mid, 600.0)


def test_criterion_7_counting_identities():
    t0 = time.perf_counter()
    rep = check_identities(7)
    _finish(7, "counting identities", rep.ok, time.perf_counter() - t0, 60.0)


def test_criterion_8_lambda_recurrence():
    t0 = time.perf_counter()
    rep = check_conjecture(8)
    _finish(8, "lambda-class recurrence n<=8", rep.ok, time.perf_counter() - t0, 900.0)


def test_criterion_9_plane_tree_bijection():
    t0 = time.perf_counter()
    rep = VerificationReport("plane")
    for n in range(1, 9):
        certify_plane(rep, n, count_class(n, ClassFilter(k=n - 1)))
    _finish(9, "plane-tree bijection n<=8", rep.ok, time.perf_counter() - t0, 300.0)
