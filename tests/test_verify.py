import hashlib
import json
import os
import random
import re
import signal
from collections import Counter
from dataclasses import replace

import pytest

from golden import CENSUS_8, CENSUS_9
from ramapoly import bijections as bj, trees, verify as vf
from ramapoly.polynomials import f, q_shor
from ramapoly.trees import ClassFilter, RootedTree, enumerate_rooted
from ramapoly.verify import (LAMBDA_TABLES, PSI_TABLE, Q_TABLE, CheckResult,
                             VerificationReport, certify_plane, check_bijections,
                             check_conjecture, check_genfun, check_identities,
                             check_recurrences, count_class, double_factorial,
                             lambda_recurrence_mismatches, lambda_table,
                             reproduce_tables)


def test_report_pass_fail_coupling():
    rep = VerificationReport("demo")
    rep.check("a", 1, 1)
    assert rep.ok and not rep.failures
    rep.check("b", 1, 2)
    assert not rep.ok
    assert [r.name for r in rep.failures] == ["b"]


def test_report_lines_and_json():
    rep = VerificationReport("demo")
    rep.check("a", "x", "x")
    rep.check("b", 3, 4)
    lines = rep.lines()
    assert any("[ok] a" in ln for ln in lines)
    assert any("[FAIL] b" in ln for ln in lines)
    assert lines[-1].startswith("suite demo: FAIL")
    records = [json.loads(ln) for ln in rep.json_lines()]
    assert records[0] == {"suite": "demo", "name": "a", "expected": "x",
                          "actual": "x", "ok": True}
    assert records[-1]["ok"] is False and records[-1]["checks"] == 2


def test_only_failures_filter():
    rep = VerificationReport("demo")
    rep.check("a", 1, 1)
    rep.check("b", 1, 2)
    lines = rep.lines(only_failures=True)
    assert len(lines) == 2 and "[FAIL] b" in lines[0]


def test_count_class_examples():
    assert count_class(5, ClassFilter(k=2, lam=1)) == 29
    assert count_class(4, ClassFilter(k=3, lam=3)) == 3
    assert count_class(4, ClassFilter(k=1, deg_min=">0")) == 16
    assert count_class(4, ClassFilter(k=1, deg_second=">0"), unrooted=True) == \
        count_class(4, ClassFilter(k=2, deg_max=">0"), unrooted=True)


def test_double_factorial():
    assert [double_factorial(2 * n - 3) for n in range(1, 7)] == [1, 1, 3, 15, 105, 945]


def test_lambda_table_matches_golden():
    tabs = {n: lambda_table(n) for n in range(2, 6)}
    for i, cells in LAMBDA_TABLES.items():
        for (n, k), value in cells.items():
            assert tabs[n][(k, i)] == value


def test_lambda_recurrence_mismatches():
    prev, cur = lambda_table(4), lambda_table(5)
    assert lambda_recurrence_mismatches(prev, cur, 5) == []
    cur[(2, 1)] += 1
    assert lambda_recurrence_mismatches(prev, cur, 5) == [(2, 1, 29, 30)]


def test_golden_censuses_satisfy_the_recurrence():
    # the frozen n = 8 and n = 9 censuses, cross-checked without enumerating
    tabs = [Counter({cell: c for cell, c in g.items() if cell[1]}) for g in (CENSUS_8, CENSUS_9)]
    assert lambda_recurrence_mismatches(*tabs, 9) == []
    assert sum(CENSUS_9.values()) == 9 ** 8
    assert sum(c for (k, _), c in CENSUS_9.items() if k == 8) == double_factorial(15)


def test_golden_tables_complete():
    assert len(PSI_TABLE) == 15 and len(Q_TABLE) == 15
    assert sum(len(v) for v in LAMBDA_TABLES.values()) == 26


def test_reproduce_tables_passes():
    rep = reproduce_tables()
    assert rep.ok and len(rep.results) == 66


def test_check_recurrences_passes():
    assert check_recurrences(8).ok


def test_check_identities_passes_small():
    rep = check_identities(5)
    assert rep.ok and rep.wall_ns < 30 * 10**9


def test_check_bijections_passes_small():
    assert check_bijections(5).ok


def test_check_conjecture_passes_small():
    rep = check_conjecture(5)
    assert rep.ok
    with pytest.raises(ValueError):
        check_conjecture(2)


def test_check_genfun_includes_negative_control():
    rep = check_genfun(rmax=2, order=6)
    assert rep.ok
    control = [r for r in rep.results if "negative control" in r.name]
    assert len(control) == 1 and control[0].ok
    # the perturbation keeps the row sum, so coefficient 0 cannot catch it
    coeff = control[0].actual.rpartition(" ")[2]
    assert coeff.isdigit() and int(coeff) >= 1
    with pytest.raises(ValueError):
        check_genfun(rmax=2, order=0)


def test_reports_deterministic():
    a = check_conjecture(4)
    b = check_conjecture(4)
    assert a.results == b.results


def test_check_result_is_frozen():
    r = CheckResult("x", "1", "1", True)
    with pytest.raises(AttributeError):
        r.ok = False


def test_certifier_fails_injected_faults(monkeypatch):
    # each fault fails records of its own maps instead of raising
    clean = check_bijections(5)
    flatten = bj.flatten_min

    def miscased(t, trace=None):  # reports case A where it ran case C
        u = flatten(t, trace)
        if trace and trace[-1].case is bj.Case.C:
            trace[-1] = replace(trace[-1], case=bj.Case.A)
        return u

    monkeypatch.setattr(bj, "flatten_min", miscased)
    assert [r.name for r in check_bijections(5).failures] == [
        "flatten classes n=4 k=2 m=1", "flatten classes n=5 k=2 m=1",
        "flatten classes n=5 k=2 m=2", "flatten classes n=5 k=3 m=1",
        "flatten cases n=5"]  # no case C is reported at n = 5
    monkeypatch.undo()
    # an identity lift breaks every map built on it, and only those
    monkeypatch.setattr(bj, "lift", lambda t, trace=None: t)
    on_lift = ("rooted bijection", "rooted inverse round-trip", "lowering class",
               "restricted lowering", "min-rooted bijection", "min-rooted inverse round-trip")
    assert [r.name for r in check_bijections(5).failures] == [
        r.name for r in clean.results if r.name.startswith(on_lift)]
    monkeypatch.undo()
    # an identity run of lifts, which rooted_fwd makes after flattening m >= 2 children,
    # breaks some records of the maps built on rooted_fwd, and only those
    monkeypatch.setattr(bj, "_lifts", lambda s, trace, times: s)
    on_fwd = ("rooted bijection", "rooted inverse round-trip",
              "min-rooted bijection", "min-rooted inverse round-trip")
    failed = {r.name for r in check_bijections(5).failures}
    assert failed and failed <= {r.name for r in clean.results if r.name.startswith(on_fwd)}


def test_flatten_case_counts():
    # one record per n counts the flatten dispatches; from n = 5 on it
    # fails unless all four cases fire (case A first fires at n = 5)
    cases = {r.name: r for r in check_bijections(5).results if r.name.startswith("flatten cases")}
    assert list(cases) == [f"flatten cases n={n}" for n in range(2, 6)]
    assert cases["flatten cases n=4"].actual == "A=0 B=1 C=1 D=7" and cases["flatten cases n=4"].ok
    assert cases["flatten cases n=5"].actual == "A=2 B=17 C=14 D=64" and cases["flatten cases n=5"].ok


def test_dropped_prefix_fails_the_trees_seen_record(monkeypatch):
    # a walk that skips one head's last prefix at n = 5 loses the trees it completes
    real, dropped = trees._prefixes, trees._heads(5)[-1]

    def short(n, head=()):
        walk = [(p[:], [c[:] for c in kids], low[:], k) for p, kids, low, k in real(n, head)]
        return iter(walk[:-1] if (n, tuple(head)) == (5, dropped) else walk)

    monkeypatch.setattr(trees, "_prefixes", short)
    seen = {r.name: r for r in check_bijections(5).results if r.name.startswith("trees seen")}
    assert list(seen) == [f"trees seen n={n}" for n in range(1, 6)]
    assert all(seen[f"trees seen n={n}"].ok for n in range(1, 5))
    assert not seen["trees seen n=5"].ok
    assert seen["trees seen n=5"].expected == "625" and int(seen["trees seen n=5"].actual) < 625


@pytest.mark.parametrize("name, ps, fault, failed", [
    ("rooted_inv", (0, 4, 1, 1), "wrong",
     ["rooted bijection n=4 k=0 (6 trees)", "rooted inverse round-trip n=4 k=1"]),
    ("rooted_inv", (0, 1, 5, 2, 2), "raise",
     ["rooted bijection n=5 k=0 (24 trees)", "rooted inverse round-trip n=5 k=1"]),
    ("rooted_fwd", (3, 1, 0, 1, 4), "wrong",
     ["rooted bijection n=5 k=1 (90 trees)", "rooted inverse round-trip n=5 k=2"]),
    ("unrooted_inv", (0, 1, 5, 2, 1), "wrong",
     ["min-rooted bijection size=5 k=0 r=2 (9 trees)",
      "min-rooted inverse round-trip size=5 k=1 r=2"]),
    ("unrooted_inv", (0, 4, 2, 1), "raise",
     ["min-rooted bijection size=4 k=0 r=1 (2 trees)",
      "min-rooted inverse round-trip size=4 k=1 r=1"]),
])
def test_one_tree_fault_fails_forward_and_derived_inverse_record(monkeypatch, name, ps, fault,
                                                                 failed):
    # The inverse round-trip records repeat the forward verdict, which is
    # sound only for maps that answer the same on every call.  So the fault
    # is keyed on the tree, never on a call count: a map that misbehaves on
    # its Nth call keeps state, and the derivation does not cover it.  The
    # key includes the labels, so the subtrees that the min-rooted maps hand
    # to the rooted ones (labels without 1) never match.
    real = getattr(bj, name)
    target = (tuple(range(1, len(ps) + 1)), ps)

    def faulty(t, trace=None):
        if (t.labels, t.parents) != target:
            return real(t, trace)
        if fault == "raise":
            raise bj.DomainError("injected")
        return t  # the identity on one tree: a wrong image

    monkeypatch.setattr(bj, name, faulty)
    assert [r.name for r in check_bijections(5).failures] == failed


@pytest.mark.parametrize("w", [1, 2])
@pytest.mark.parametrize("name, fault, failed", [
    ("color_split", "wrong", "color split/merge n=4 (125 colored trees)"),
    ("color_split", "raise", "color split/merge n=4 (125 colored trees)"),
    ("insert_root", "wrong", "fresh-root bijection n=4"),
    ("insert_root", "raise", "fresh-root bijection n=4"),
])
def test_one_tree_fault_in_a_growing_map_fails_its_own_record(monkeypatch, w, name, fault,
                                                              failed):
    # Keyed on the input as above.  insert_root is color_split with every
    # child of 1 black, so the colour fault keys on a black set that is not
    # all of them.  A wrong image is the image of another input.
    real = getattr(bj, name)
    t0 = RootedTree((1, 2, 3, 4), (0, 1, 1, 2))
    key, other = ((bj.ColoredRootedTree(t0, frozenset({2})), bj.ColoredRootedTree(t0))
                  if name == "color_split" else (t0, RootedTree((1, 2, 3, 4), (0, 1, 1, 1))))

    def faulty(x):
        if x != key:
            return real(x)
        if fault == "raise":
            raise bj.DomainError("injected")
        return real(other)

    monkeypatch.setattr(bj, name, faulty)
    _shards(monkeypatch, w)
    assert [r.name for r in check_bijections(5).failures] == [failed]
    _no_children_left()


def _shards(monkeypatch, w: int, least: int = 2) -> None:
    # the certifier, the plane record and tabulate run on w shards from n = least on
    monkeypatch.setattr(trees, "_usable_cpus", lambda: w)
    monkeypatch.setattr(vf, "_VERIFY_SHARD_MIN_N", least)


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _records(rep: VerificationReport) -> list[tuple]:
    return [(r.name, r.ok, r.actual) for r in rep.results]


def _digest(rep: VerificationReport) -> str:
    # sha256 of the --json record lines, the timed summary line dropped
    return hashlib.sha256("".join(ln + "\n" for ln in rep.json_lines()[:-1]).encode()).hexdigest()


@pytest.mark.parametrize("w", [1, 3])
def test_records_match_their_golden_digests(monkeypatch, w):
    # the records of both suites are golden, on any shard count
    _shards(monkeypatch, w)
    assert _digest(check_bijections(6)) == (
        "f314cacf87fad5e859e2b4a4b73475fd6b070cd5bd5c085bb6a309b6965830e2")
    assert _digest(check_conjecture(8)) == (
        "e15cd0628bd4246d23a45fcf2af15c280057139fccda35deb98000a8379476ed")
    assert _digest(check_identities(7)) == (
        "b5adddc0758722297ac0fb15aa1c8198fb04ac1cc4cb73465fa3fe99eb53ff76")
    assert _digest(check_identities(8)) == (
        "0dda2a0f2b77f771d02babdc596c63938803d583e230798324380a4ffffa9e85")
    _no_children_left()


@pytest.mark.parametrize("nmax", range(2, 7))
def test_sharded_certifier_equals_in_process(monkeypatch, nmax):
    _shards(monkeypatch, 1)
    want = check_bijections(nmax)
    for w in (1, 2, 3):
        _shards(monkeypatch, w)
        rep = check_bijections(nmax)
        assert _records(rep) == _records(want) and rep.counts == want.counts
        assert set(rep.phases) == {"map", "plane"}
    _no_children_left()


@pytest.mark.parametrize("w", [2, 3])
def test_shuffled_units_give_the_same_records(monkeypatch, w):
    # every pass (the trees on each [n] and the plane record) dealt in a
    # fixed shuffled order
    _shards(monkeypatch, 1)
    want = check_bijections(6)
    run = vf._run_shards

    def shuffled(work, units, *args):
        return run(work, random.Random(len(units)).sample(units, len(units)), *args)

    monkeypatch.setattr(vf, "_run_shards", shuffled)
    _shards(monkeypatch, w)
    rep = check_bijections(6)
    assert _records(rep) == _records(want) and rep.counts == want.counts
    _no_children_left()


def _lowering_class(n: int, k: int, i: int) -> list:
    # the domain of record "lowering class n k i"
    return [t for t in enumerate_rooted(n) if t.degree(1) > 0
            and t.improper_count() == k and t.proper_on_max_path() == i]


@pytest.mark.parametrize("fault", ["round trip", "outside class", "not injective", "wrong cell"])
def test_fault_only_shard_one_sees_fails_the_same_records(monkeypatch, fault):
    # The planted tree t0 lies in one unit of the pass over [n], so on two
    # shards only the one that pulls that unit maps it.  n is a leaf of t0, so
    # t0 is no image of any map and lift(t0) runs only where the fault plants
    # it.  A wrong cell has the right k and deg(n) > 0, so only i can catch it.
    n, k, i = 5, 1, 1
    cls = _lowering_class(n, k, i)
    t0 = next(t for t in cls[1:] if t.degree(n) == 0)
    lower, lift = bj.lower, bj.lift
    image = lower(t0)
    # a tree of lifting cell (k + 1, i) rather than (k + 1, i - 1)
    off = next(t for t in enumerate_rooted(n) if t.degree(n) > 0 and t.degree(1) > 0
               and t.improper_count() == k + 1 and t.proper_on_max_path() == i)
    planted = {"outside class": t0, "not injective": lower(cls[0]), "wrong cell": off}

    def faulty_lower(t, trace=None):
        if t != t0 or fault == "round trip":
            return lower(t, trace)
        return planted[fault]

    def faulty_lift(t, trace=None):
        if fault == "round trip" and t == image:
            return t
        return t0 if fault in ("outside class", "wrong cell") and t == planted[fault] \
            else lift(t, trace)

    monkeypatch.setattr(bj, "lower", faulty_lower)
    monkeypatch.setattr(bj, "lift", faulty_lift)
    _shards(monkeypatch, 1)
    want = check_bijections(n)
    _shards(monkeypatch, 2)
    rep = check_bijections(n)
    assert f"lowering class n={n} k={k} i={i}" in [r.name for r in want.failures]
    assert _records(rep) == _records(want) and rep.counts == want.counts
    _no_children_left()


@pytest.mark.parametrize("fault, code", [("raise", 1), ("killed", -9)], ids=["raise", "killed"])
def test_failed_certifier_shard_raises_once_every_child_is_reaped(monkeypatch, fault, code):
    # t0 lies in one unit: the shard that pulls it is the one named
    n, k, i = 5, 1, 1
    t0 = _lowering_class(n, k, i)[0]
    lower, parent = bj.lower, os.getpid()

    def faulty(t, trace=None):
        if t == t0 and os.getpid() != parent:
            if fault == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise ZeroDivisionError("injected")  # no ValueError: the shard fails
        return lower(t, trace)

    monkeypatch.setattr(bj, "lower", faulty)
    _shards(monkeypatch, 2, least=n)
    with pytest.raises(RuntimeError) as exc:
        check_bijections(n)
    assert re.fullmatch(rf"bijection certifier n=5: shard \d exited {code} with no result",
                        str(exc.value)), str(exc.value)
    _no_children_left()


def test_certify_plane_fails_a_wrong_domain_count():
    # certify_plane maps from the plane side; its count checks fail a count
    # of the all-improper trees that misses one or holds one more
    n = 5
    count = count_class(n, ClassFilter(k=n - 1))
    for given, ok in ((count, True), (count - 1, False), (count + 1, False)):
        rep = VerificationReport("plane")
        certify_plane(rep, n, given)
        assert rep.ok is ok and len(rep.results) == 1


@pytest.mark.parametrize("unrooted", [False, True])
@pytest.mark.parametrize("n", [6, 7])
def test_sharded_tabulate_equals_in_process(monkeypatch, n, unrooted):
    # tabulate and count_class on 1, 2 and 3 shards, dealt a fixed shuffled order
    def key(t):
        return t.parents[-1], t.parents[0]

    filt = ClassFilter(k=2)
    _shards(monkeypatch, 1)
    want = vf.tabulate(n, key, unrooted)
    count = count_class(n, filt, unrooted)
    # R_{n,2} counts f(n, 2) trees, and Q_{n-1,2}(1) of them are rooted at 1
    assert want.total() == n ** (n - 1 - unrooted)
    assert count == (q_shor(n - 1, 2)(1) if unrooted else f(n, 2))
    run = vf._run_shards

    def shuffled(work, units, *args):
        return run(work, random.Random(len(units)).sample(units, len(units)), *args)

    monkeypatch.setattr(vf, "_run_shards", shuffled)
    for w in (1, 2, 3):
        _shards(monkeypatch, w)
        assert vf.tabulate(n, key, unrooted) == want and count_class(n, filt, unrooted) == count
    _no_children_left()


def test_forward_records_cover_their_domains():
    # A class that lost a cell on both of its sides would still biject, so
    # the domain sizes are checked against counts: 1 is a leaf in
    # (n-1)^(n-1) rooted trees on [n], and 2 in (n-1)^(n-2) trees rooted at
    # 1 (in the one tree on [2], so size 2 has no min-rooted records)
    names = [r.name for r in check_bijections(6).results]
    assert len(names) == len(set(names))
    sizes = Counter()
    for name in names:
        m = re.fullmatch(r"(rooted|min-rooted) bijection (?:n|size)=(\d+) .*\((\d+) trees\)", name)
        if m:
            sizes[(m[1], int(m[2]))] += int(m[3])
    assert sizes == {**{("rooted", n): n ** (n - 1) - (n - 1) ** (n - 1) for n in range(2, 7)},
                     **{("min-rooted", n): n ** (n - 2) - (n - 1) ** (n - 2) for n in range(3, 7)}}


def test_bijection_report_phases_and_counts():
    rep = check_bijections(6)
    assert set(rep.phases) == {"map", "plane"}
    assert all(isinstance(ns, int) and ns > 0 for ns in rep.phases.values())
    # the phases cover the run: within 5% of its wall time
    assert 19 * rep.wall_ns <= 20 * sum(rep.phases.values()) <= 20 * rep.wall_ns
    # one pass over the rooted trees on each of [1..6]: it also files the
    # min-rooted trees, and the colour and fresh-root maps grow [1..5]
    visited = sum(n ** (n - 1) for n in range(1, 7))
    assert rep.counts == {"trees visited": visited, "maps applied": 35522}
    last = json.loads(rep.json_lines()[-1])
    assert last["phases_ns"] == rep.phases and last["counts"] == rep.counts
    assert "; map " in rep.summary() and "; maps applied 35522)" in rep.summary()
    other = check_recurrences(3)
    assert other.phases == {} and other.counts == {}
    assert json.loads(other.json_lines()[-1])["phases_ns"] == {}


def test_conjecture_report_phases_and_counts():
    rep = check_conjecture(6)
    assert list(rep.phases) == [f"count n={n}" for n in range(2, 7)] + ["check"]
    assert all(isinstance(ns, int) and ns > 0 for ns in rep.phases.values())
    assert sum(rep.phases.values()) <= rep.wall_ns
    # the max label n is a leaf of (n - 1)^(n - 1) of the n^(n - 1) trees
    assert rep.counts == {**{f"internal-max trees n={n}": n ** (n - 1) - (n - 1) ** (n - 1)
                             for n in range(2, 7)},
                          "trees counted": sum(n ** (n - 1) for n in range(2, 7))}
    last = json.loads(rep.json_lines()[-1])
    assert last["phases_ns"] == rep.phases and last["counts"] == rep.counts
    assert rep.summary().endswith("; trees counted 8476)")


def test_identities_report_phases_and_counts():
    rep = check_identities(5)
    assert set(rep.phases) == {"enumerate", "check"}
    assert all(isinstance(ns, int) and ns > 0 for ns in rep.phases.values())
    assert sum(rep.phases.values()) <= rep.wall_ns
    # one pass per [n]: the rooted trees on [1..4], whose heads p_1 = 0 are the
    # trees rooted at 1, and the trees on [5] rooted at 1
    visited = sum(n ** (n - 1) for n in range(1, 5)) + 5 ** 3
    assert rep.counts == {"trees visited": visited}
    last = json.loads(rep.json_lines()[-1])
    assert last["phases_ns"] == rep.phases and last["counts"] == rep.counts
    assert rep.summary().endswith(f"; trees visited {visited})")
