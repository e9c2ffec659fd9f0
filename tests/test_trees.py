import os
import pickle
import random
import re
import signal
import sys
import time
from collections import Counter
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from ramapoly.trees import (ClassFilter, CycleError, DisconnectedError, LabelError, PlaneTree,
                            RootedTree, TreeError, _heads, _k_lambda_counts,
                            _k_lambda_rows, _prefixes, build,
                            enumerate_rooted, enumerate_unrooted, plane_from_text,
                            plane_to_text, tree_from_text, tree_to_text)

import conftest as oc
from conftest import rooted_trees
from golden import CENSUS_8, SIXTEEN_DEG1, SIXTEEN_DEG4
from ramapoly import trees
from ramapoly.bijections import DomainError, plane_fwd, plane_inv
from ramapoly.cli import _read_colored

tt = tree_from_text
_dumps = pickle.dumps


# -- construction ----------------------------------------------------------------

def test_build_two_node():
    t = build(1, {2: 1})
    assert t.root == 1 and t.parent(2) == 1 and t.size == 2


def test_build_chain():
    t = build(2, {1: 2, 3: 1})
    assert t.root == 2 and t.parent(1) == 2 and t.parent(3) == 1


def test_build_cycle():
    with pytest.raises(CycleError):
        build(1, {2: 3, 3: 2})


def test_build_root_with_parent():
    with pytest.raises(LabelError):
        build(1, {1: 2, 2: 1})


def test_build_bad_labels():
    with pytest.raises(LabelError):
        build(0, {1: 0})
    with pytest.raises(LabelError):
        build(1, {2: 5})
    with pytest.raises(LabelError):
        build(1, {-3: 1})


def test_parse_needs_exactly_one_root():
    with pytest.raises(DisconnectedError):
        tree_from_text("0 0 1")
    with pytest.raises(DisconnectedError):
        tree_from_text("2 1")


# -- statistics on pinned examples --------------------------------------------------

def chain_4132():
    return build(4, {1: 4, 3: 1, 2: 3})


def test_is_proper():
    t = chain_4132()
    assert oc.o_is_proper(t, 3) is True
    assert oc.o_is_proper(t, 1) is False
    assert oc.o_is_proper(build(1, {2: 1}), 2) is True


def test_improper_count():
    assert chain_4132().improper_count() == 2
    assert build(1, {2: 1, 3: 1, 4: 2}).improper_count() == 0
    assert tt("9 6 7 0 9 4 4 9 6").improper_count() == 8


def test_beta():
    assert chain_4132().beta(3) == 2
    assert chain_4132().beta(2) == 2
    assert tt("2 0 4 6 9 9 2 9 2").beta(9) == 3


def test_degree_descendant_path():
    c = build(2, {1: 2, 3: 1})
    assert build(1, {2: 1}).degree(1) == 1
    assert c.is_descendant(3, 1) is True
    assert c.is_descendant(1, 3) is False
    assert c.path_to_root(3) == (3, 1, 2)
    assert all(c.is_descendant(v, v) for v in c.labels)


def test_proper_on_max_path():
    assert tt("2 0 4 2 9 4 2 9 6").proper_on_max_path() == 2
    assert build(4, {1: 4, 2: 4, 3: 4}).proper_on_max_path() == 0
    assert tt("2 0 1").proper_on_max_path() == 1


def test_upper_critical():
    assert oc.o_upper_critical(tt("2 0 4 2 9 4 2 9 6")) == 4
    assert oc.o_upper_critical(tt("2 0 1")) == 1


def test_lower_critical():
    assert tt("2 0 4 6 9 9 2 9 2").lower_critical() == 4
    assert build(2, {3: 2, 1: 3}).lower_critical() == 1
    with pytest.raises(TreeError):
        build(1, {2: 1, 3: 2}).lower_critical()


def test_mu():
    assert build(3, {2: 3, 1: 3}).mu() == 3
    assert build(2, {3: 2, 1: 3}).mu() == 2
    assert build(3, {1: 3, 2: 1}).mu() == 3
    with pytest.raises(TreeError):
        build(1, {2: 1}).mu()
    for n in range(2, 8):  # every tree on [n] for n <= 7 against the oracle
        assert all((t.mu() if t.parents[0] else None) == oc.o_mu(t) for t in enumerate_rooted(n))


def test_alpha_beta_star():
    fig = tt("2 0 4 6 9 9 2 9 2")
    assert oc.o_alpha(fig) == 8
    assert build(1, {2: 1, 3: 1}).beta_star() == 2
    with pytest.raises(TreeError):
        build(2, {1: 2}).beta_star()


def test_relabel():
    assert oc.relabel(build(1, {2: 1}), [5, 9]) == build(5, {9: 5})
    t = build(2, {1: 2, 3: 1})
    assert oc.relabel(t, [1, 2, 3]) == t
    r = oc.relabel(t, [4, 7, 8])
    assert r == build(7, {4: 7, 8: 4})
    assert r.improper_count() == t.improper_count() == 1
    with pytest.raises(LabelError):
        oc.relabel(t, [1, 2])
    with pytest.raises(LabelError):
        oc.relabel(t, [1, 2, 2])


# -- enumeration ----------------------------------------------------------------

def test_enumerate_counts():
    assert sum(1 for _ in enumerate_rooted(3)) == 9
    for n in range(1, 7):
        assert sum(1 for _ in enumerate_rooted(n)) == n ** (n - 1)
        assert sum(1 for _ in enumerate_unrooted(n)) == n ** max(n - 2, 0)


def test_enumerate_unrooted_rooted_at_min():
    assert all(t.root == 1 for t in enumerate_unrooted(4))


def test_enumerate_canonical_order_and_uniqueness():
    # strictly increasing parent tuples are sorted and unique; order is what a
    # rewritten walk could break without changing any count
    for n in range(1, 7):
        seen = [t.parents for t in enumerate_rooted(n)]
        assert len(seen) == n ** (n - 1)
        assert all(a < b for a, b in zip(seen, seen[1:]))


def _is_tree(ps: tuple[int, ...]) -> bool:
    # one root, and every parent walk reaches it within n steps
    n = len(ps)
    if ps.count(0) != 1:
        return False
    for v in range(1, n + 1):
        for _ in range(n):
            if not v:
                break
            v = ps[v - 1]
        if v:
            return False
    return True


def test_enumerate_is_every_acyclic_array_in_order():
    for n in range(1, 7):
        arrays = [ps for ps in product(range(n + 1), repeat=n) if _is_tree(ps)]
        assert [t.parents for t in enumerate_rooted(n)] == arrays
        assert [t.parents for t in enumerate_unrooted(n)] == [ps for ps in arrays if ps[0] == 0]


def _k_lambda_by_methods(t) -> tuple[int, int | None]:
    return t.improper_count(), (t.lower_critical() if t.degree(t.max_label) else None)


def test_k_lambda_counts_match_oracles_and_per_tree_methods():
    for n in range(1, 7):
        want = Counter((oc.o_improper_count(t), oc.o_lower_critical(t))
                       for t in enumerate_rooted(n))
        assert _k_lambda_counts(n) == want
    assert _k_lambda_counts(7) == Counter(map(_k_lambda_by_methods, enumerate_rooted(7)))


def test_k_lambda_counts_match_golden_census_at_eight():
    assert _k_lambda_counts(8) == CENSUS_8


def _forked(monkeypatch, n: int, cpus: int) -> Counter:
    # the census of [n] dealt to the shards of `cpus` usable CPUs, whatever n
    monkeypatch.setattr(trees, "_usable_cpus", lambda: cpus)
    return trees._run_shards(partial(trees._k_lambda_rows, n), _heads(n), True,
                             f"lambda census n={n}")


def test_sharded_census_equals_in_process_count(monkeypatch):
    for shards in (2, 3):
        assert _forked(monkeypatch, 7, shards) == _k_lambda_rows(7)
        assert _forked(monkeypatch, 8, shards) == CENSUS_8  # the frozen in-process count
    for n in range(2, 7):  # up to one shard per parent of 1
        assert all(_forked(monkeypatch, n, shards) == _k_lambda_rows(n)
                   for shards in range(1, n + 1))


def test_every_parent_of_one_covers_n_to_the_n_minus_two_trees():
    for n in range(2, 8):
        heads = _heads(n)
        assert heads == sorted(set(heads)) and len(heads) <= 256
        # the walks pinned to each head, heads in order, are the full walk, and none is empty
        walks = [[p[:] for p, *_ in _prefixes(n, h)] for h in heads]
        assert all(walks) and sum(walks, []) == [p[:] for p, *_ in _prefixes(n)]
        assert all(p[1:len(h) + 1] == list(h) for h, walk in zip(heads, walks) for p in walk)
        # 1 under itself, and from n = 3 on two roots among 1..n-1 or a 2-cycle, walks nothing
        for h in [(1,)] + [(0, 0), (2, 1)] * (n > 2):
            assert list(_prefixes(n, h)) == []
        for q in [0, *range(2, n + 1)]:
            assert sum(_k_lambda_rows(n, h).total() for h in heads if h[0] == q) == n ** (n - 2)
    assert _heads(1) == [(0,)] and [p[:] for p, *_ in _prefixes(1, (0,))] == [[0]]
    assert list(_prefixes(1, (2,))) == []


@pytest.mark.parametrize("shards", [2, 3])
def test_shuffled_units_give_the_same_census(monkeypatch, shards):
    # the fork driver deals each pass's units in a fixed shuffled order
    run = trees._run_shards

    def shuffled(work, units, *args):
        return run(work, random.Random(len(units)).sample(units, len(units)), *args)

    monkeypatch.setattr(trees, "_run_shards", shuffled)
    for n in (3, 7):
        assert _forked(monkeypatch, n, shards) == _k_lambda_rows(n)
    _no_children_left()


def _no_fork(*args):
    raise AssertionError("forked")


@pytest.mark.parametrize("n, affinity, cpus, has_fork", [
    (7, {0}, 4, True),  # one usable CPU, whatever the machine has
    (7, None, 1, True),  # no affinity call: the CPU count decides
    (7, {0, 1}, 2, False),
    (5, {0, 1, 2, 3}, 4, True),  # below the shard threshold
])
def test_census_runs_in_process_where_it_cannot_shard(monkeypatch, n, affinity, cpus, has_fork):
    want = _k_lambda_rows(n)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if has_fork:
        monkeypatch.setattr(os, "fork", _no_fork)
    else:
        monkeypatch.delattr(os, "fork", raising=False)
    assert _k_lambda_counts(n) == want


def test_census_takes_one_shard_per_usable_cpu(monkeypatch):
    forks, fork = [], os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(os, "fork", counted)
    assert _k_lambda_counts(7) == _k_lambda_rows(7) and len(forks) == 3
    monkeypatch.setattr(trees, "_usable_cpus", lambda: 64)  # never more shards than units
    forks.clear()
    assert trees._run_shards(Counter, "abc", True, "demo") == Counter("abc") and len(forks) == 3


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fault, code, why", [
    ("raise", 1, "ValueError('injected')"),
    ("list", 1, "TypeError('unit (0, 1) gave a list, not a Counter')"),
    ("killed", -9, None),
], ids=["raise", "list", "killed"])
def test_failed_shard_raises_once_every_child_is_reaped(monkeypatch, capfd, fault, code, why):
    # One unit is faulty: whichever shard pulls it is the one named, with the
    # error it printed, and the sound shards pull the rest.
    rows = trees._k_lambda_rows

    def faulty(n, head):
        if head == (0, 1):
            if fault == "raise":
                raise ValueError("injected")
            if fault == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            return list(rows(n, head))  # Counter.update would count its keys
        return rows(n, head)

    monkeypatch.setattr(trees, "_k_lambda_rows", faulty)
    monkeypatch.setattr(trees, "_usable_cpus", lambda: 3)
    with pytest.raises(RuntimeError) as exc:
        _k_lambda_counts(7)
    found = re.fullmatch(rf"lambda census n=7: shard (\d) exited {code} with no result",
                         str(exc.value))
    assert found, str(exc.value)  # exactly one shard named
    err = capfd.readouterr().err
    assert err == (f"lambda census n=7 shard {found[1]}: {why}\n" if why else "")
    _no_children_left()


def test_fork_driver_refuses_more_units_than_a_byte_names(monkeypatch):
    monkeypatch.setattr(trees, "_usable_cpus", lambda: 2)
    with pytest.raises(ValueError, match="257 units"):
        trees._run_shards(lambda u: Counter(sum=u), range(257), True, "demo")
    assert (trees._run_shards(lambda u: Counter(sum=u, units=1), range(256), True, "demo")
            == Counter(sum=255 * 128, units=256))
    with pytest.raises(TypeError, match="unit 0 gave a list, not a Counter"):  # in-process
        trees._run_shards(lambda u: [u], range(3), False, "demo")
    _no_children_left()


@pytest.mark.parametrize("sent, why", [
    (lambda result: b"cut short", "shard 0 exited 0 with no result; shard 1 exited 0 with no result"),
    (lambda result: _dumps((result[0], 0)), "the shards did 0 of 2 units"),
], ids=["unreadable", "miscounted"])
def test_a_result_that_does_not_add_up_raises(monkeypatch, sent, why):
    # every child exits 0, but what it pickles is no result, or owns up to no units
    monkeypatch.setattr(trees, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(pickle, "dumps", sent)
    with pytest.raises(RuntimeError) as exc:
        trees._run_shards(Counter, "ab", True, "demo")
    assert str(exc.value) == f"demo: {why}"
    _no_children_left()


def test_interrupted_census_kills_and_reaps_its_children(monkeypatch):
    class Interrupt(Exception):
        pass

    def hang(n, ones):
        time.sleep(60)

    def interrupt(signum, frame):
        raise Interrupt

    monkeypatch.setattr(trees, "_k_lambda_rows", hang)
    monkeypatch.setattr(trees, "_usable_cpus", lambda: 2)
    old = signal.signal(signal.SIGALRM, interrupt)
    try:
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.3)
        with pytest.raises(Interrupt):
            _k_lambda_counts(7)
        assert time.perf_counter() - t0 < 10
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    _no_children_left()


def _walk_end(n: int, head: tuple) -> dict:
    # The locals of the frame of _prefixes(n, head), drained, as it returns:
    # the forest of a walk that yields nothing shows only there.
    end = {}

    def keep(frame, event, arg):
        if event == "return":  # a yield is one too; the last is the end
            end.update(frame.f_locals)
        return keep

    def trace(frame, event, arg):
        if frame.f_code is _prefixes.__code__:
            frame.f_trace_lines = False
            return keep
        return None

    old = sys.gettrace()
    sys.settrace(trace)
    try:
        for _ in _prefixes(n, head):
            pass
    finally:
        sys.settrace(old)
    return end


def test_prefix_forest_matches_its_parent_tuple():
    # The live forest of each prefix, unpinned, under every head and under the
    # dead pins, against one rebuilt from the prefix alone.  A virtual root
    # n + 1 above the forest's roots (n, and the root among 1..n-1 if any)
    # makes it one tree whose subtrees are the forest's; each edge out of
    # n + 1 is improper.  When the walk ends, every hang must be undone, in a
    # walk that yields nothing too.
    for n in range(1, 7):
        top = n + 1
        for head in [(), *_heads(n), (1,), (0, 0), (2, 1)]:
            for p, kids, low, k in _prefixes(n, head):
                assert p[1:len(head) + 1] == list(head[:n - 1])
                t = RootedTree(tuple(range(1, top + 1)),
                               tuple([q or top for q in p[1:]]) + (top, 0))
                assert kids == [[u for u in range(1, n) if p[u] == v] for v in range(top)]
                assert low == [0] + [oc.o_beta(t, v) for v in range(1, top)]
                assert k == oc.o_improper_count(t) - 1 - (0 in p[1:])
            end = _walk_end(n, head)
            assert end["kids"] == [[] for _ in range(top)] and end["low"] == list(range(top))
            assert not end.get("trail") and not end.get("stack")


def test_enumerate_filtered_sixteen_tree_classes():
    got1 = {t.parents for t in enumerate_rooted(4, ClassFilter(k=1, deg_min=">0"))}
    assert got1 == SIXTEEN_DEG1
    got2 = {t.parents for t in enumerate_rooted(4, ClassFilter(k=2, deg_max=">0"))}
    assert got2 == SIXTEEN_DEG4


def test_all_improper_forces_min_leaf():
    for n in range(2, 6):
        for t in enumerate_rooted(n, ClassFilter(k=n - 1)):
            assert t.degree(t.min_label) == 0


def test_stats_match_definitional_oracles_exhaustively():
    for n in range(1, 6):
        for t in enumerate_rooted(n):
            assert t.improper_count() == oc.o_improper_count(t)
            assert t.proper_on_max_path() == oc.o_proper_on_max_path(t)
            for v in t.labels:
                assert t.beta(v) == oc.o_beta(t, v)
            lam = oc.o_lower_critical(t)
            if lam is None:
                assert t.degree(t.max_label) == 0
            else:
                assert t.lower_critical() == lam
            m = oc.o_mu(t)
            if m is not None:
                assert t.mu() == m
            bs = oc.o_beta_star(t)
            if bs is not None:
                assert t.beta_star() == bs


GAPPY_LABELS = (2, 3, 5, 7, 11, 13)


def _rejects(accessor, label) -> bool:
    # pytest.raises costs more than the accessor, and this runs ~5*10^5 times
    try:
        accessor(label)
    except LabelError:
        return True
    return False


def test_position_core_matches_oracles_on_both_label_sets():
    # Every rooted tree with n <= 6, on [n] and relabelled onto a set with
    # gaps, where a label's position and its value differ.
    for n in range(1, 7):
        for base in enumerate_rooted(n):
            for t in (base, oc.relabel(base, GAPPY_LABELS[:n])):
                labels = t.labels
                for v in labels:
                    assert t.parent(v) == (t.parents[labels.index(v)] or None)
                    kids = tuple(u for u in labels if t.parent(u) == v)
                    assert t.children(v) == kids and t.degree(v) == len(kids)
                    path = oc.o_path_to_root(t, v)
                    assert t.path_to_root(v) == tuple(path)
                    assert t.beta(v) == oc.o_beta(t, v)
                    for y in labels:
                        assert t.is_descendant(v, y) == (y in path)
                assert t.improper_count() == oc.o_improper_count(t)
                assert t.proper_on_max_path() == oc.o_proper_on_max_path(t)
                for stat, oracle in ((t.lower_critical, oc.o_lower_critical),
                                     (t.mu, oc.o_mu), (t.beta_star, oc.o_beta_star)):
                    want = oracle(t)
                    if want is None:
                        with pytest.raises(TreeError):
                            stat()
                    else:
                        assert stat() == want
                gap = [v for v in range(1, labels[-1]) if v not in labels][-1:]
                for bad in [0, labels[-1] + 1, *gap]:
                    assert all(_rejects(accessor, bad) for accessor in (
                        t.parent, t.children, t.degree, t.path_to_root, t.beta,
                        lambda v: t.is_descendant(v, t.root),
                        lambda v: t.is_descendant(t.root, v)))


def test_critical_nodes_match_definitions_on_all_seven_label_trees():
    # full brute-force recomputation of the two path statistics at n=7
    for t in enumerate_rooted(7):
        lam = oc.o_lower_critical(t)
        if lam is not None:
            assert t.lower_critical() == lam
        m = oc.o_mu(t)
        if m is not None:
            assert t.mu() == m


# -- properties over random label sets ----------------------------------------------

@settings(max_examples=120, deadline=None)
@given(rooted_trees(max_size=8, max_label=40))
def test_random_trees_match_oracles(t):
    assert t.improper_count() == oc.o_improper_count(t)
    assert t.beta(t.root) == t.min_label
    assert t.proper_on_max_path() == oc.o_proper_on_max_path(t)
    lam = oc.o_lower_critical(t)
    if lam is not None:
        assert t.lower_critical() == lam
    m = oc.o_mu(t)
    if m is not None:
        assert t.mu() == m


@settings(max_examples=80, deadline=None)
@given(rooted_trees(max_size=7), st.sets(st.integers(1, 99), min_size=7, max_size=7))
def test_relabel_is_order_isomorphic(t, fresh):
    target = sorted(fresh)[: t.size]
    r = oc.relabel(t, target)
    assert r.improper_count() == t.improper_count()
    assert r.proper_on_max_path() == t.proper_on_max_path()
    rank = {v: i for i, v in enumerate(t.labels)}
    for v in t.labels:
        assert r.degree(target[rank[v]]) == t.degree(v)
    if t.degree(t.max_label) > 0:
        assert r.lower_critical() == target[rank[t.lower_critical()]]
    if t.root != t.min_label:
        assert r.mu() == target[rank[t.mu()]]


@settings(max_examples=100, deadline=None)
@given(rooted_trees(max_size=8, max_label=60))
def test_text_round_trip(t):
    assert tree_from_text(tree_to_text(t)) == t


def test_labeled_two_line_form():
    t = build(7, {4: 7, 8: 4})
    text = tree_to_text(t)
    assert text.splitlines()[0] == "labels: 4 7 8"
    assert tree_from_text(text) == t


def test_subtree_extraction():
    t = tt("2 0 4 2 9 4 2 9 6")
    s = oc.subtree(t, 9)
    assert s.labels == (5, 8, 9) and s.root == 9
    assert s.parent(5) == 9 and s.parent(8) == 9


def test_value_semantics():
    t = build(1, {2: 1})
    u = oc.relabel(t, [3, 4])
    assert t == build(1, {2: 1})
    assert u != t
    assert len({t, build(1, {2: 1})}) == 1


# -- plane trees ----------------------------------------------------------------

def test_plane_text_round_trip():
    s = "1(5(8(9)) 2(6) 3(7 4))"
    p = plane_from_text(s)
    assert plane_to_text(p) == s
    assert p.labels == (1, 5, 8, 9, 2, 6, 3, 7, 4)
    assert oc.o_plane_parents(p) == [None, 1, 5, 8, 1, 2, 1, 3, 3]


def test_plane_child_order_significant():
    a = plane_from_text("1(2 3)")
    b = plane_from_text("1(3 2)")
    assert a != b


def test_deep_plane_trees_compare_and_hash():
    n = 50_000
    path = "(".join(map(str, range(1, n + 1))) + ")" * (n - 1)
    a, b = plane_from_text(path), plane_from_text(path)
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert plane_to_text(a) == path
    assert repr(a) == f"plane_from_text({path!r})"
    assert a.labels == tuple(range(1, n + 1))
    assert oc.o_plane_parents(a) == [None, *range(1, n)]
    # another deepest label; the same preorder labels in another shape
    assert a != plane_from_text(path.replace(f"({n})", f"({n + 1})"))
    flat = PlaneTree(tuple(range(1, n + 1)), (n - 1,) + (0,) * (n - 1))
    assert a != flat and flat.labels == a.labels
    assert plane_to_text(flat) == "1(" + " ".join(map(str, range(2, n + 1))) + ")"
    assert PlaneTree((1, 2), (1, 0)) == PlaneTree((1, 2), (1, 0))
    assert PlaneTree((1, 2), (1, 0)) != PlaneTree((1,), (0,)) and PlaneTree((1,), (0,)) != 1


def test_plane_errors():
    with pytest.raises(LabelError):
        plane_from_text("1(2 2)")
    with pytest.raises(TreeError):
        plane_from_text("1(2")
    with pytest.raises(TreeError):
        plane_from_text("1)2")


def _plane_edits(text, positions=None):
    # every one-character deletion, insertion and replacement of text, at every position
    # or at those given
    for i in range(len(text) + 1) if positions is None else positions:
        for c in "() 03x":
            yield text[:i] + c + text[i:]
            if i < len(text):
                yield text[:i] + c + text[i + 1:]
        if i < len(text):
            yield text[:i] + text[i + 1:]


def _increasing_plane_text(rng, n):
    # a seeded increasing plane tree on [n]: label v goes into one of the 2v - 3 child
    # slots of the tree on [v - 1], the deg(u) + 1 of each node u in label order
    kids = [[] for _ in range(n + 1)]
    for v in range(2, n + 1):
        r, u = rng.randrange(2 * v - 3), 1
        while r > len(kids[u]):
            r -= len(kids[u]) + 1
            u += 1
        kids[u].insert(r, v)
    order, todo = [], [1]
    while todo:
        order.append(todo.pop())
        todo += reversed(kids[order[-1]])
    return plane_to_text(PlaneTree(tuple(order), tuple(len(kids[u]) for u in order)))


def test_plane_reader_matches_the_character_walk():
    # The reader gives the character walk's tree, or its error type and message, on
    # every increasing plane tree on [n], n <= 6, and its mirror image (label v read
    # as n + 1 - v), and on every one-character edit of a seeded sample of them,
    # moved onto two-digit labels too.  Long texts, seeded ones on [50..200] and the
    # path on [200], and their edits at seeded positions and at the last four, which
    # lie in the last separator, put faults deep in the text, many lists deep.
    sized = [(n, plane_to_text(plane_fwd(t))) for n in range(1, 7) for t in enumerate_rooted(n)
             if t.improper_count() == n - 1]
    assert len(sized) == 1 + 1 + 3 + 15 + 105 + 945
    texts = [text for _, text in sized]
    mirrored = [re.sub(r"[0-9]+", lambda m: str(n + 1 - int(m[0])), text) for n, text in sized]
    rng = random.Random(30)
    sample = rng.sample(texts[-1050:], 40)
    sample += [re.sub(r"[0-9]+", lambda m: str(9 + 3 * int(m[0])), t) for t in sample[:20]]
    long = [_increasing_plane_text(rng, n) for n in range(50, 201, 10)]
    long.append("(".join(map(str, range(1, 201))) + ")" * 199)
    edits = [e for t in long for e in _plane_edits(
        t, [*rng.sample(range(len(t) - 3), 36), *range(len(t) - 3, len(t) + 1)])]
    assert len(edits) == len(long) * (39 * 13 + 6)  # 40 positions, the last at the end
    checked = 0
    for text in (*texts, *mirrored, *(e for t in sample for e in _plane_edits(t)), *long,
                 *edits):
        assert _outcome(plane_from_text, text) == _outcome(oc.o_plane_from_text, text), text
        checked += 1
    assert checked > 10000


def _plane_pair(pair):
    return PlaneTree(*pair)


def _plane_inv_text(text):
    # what `ramapoly bij --map plane --dir inv` does with its input
    return plane_inv(plane_from_text(text))


# A table of mangled tree inputs with the exception class and the exact
# message each one raises; every row must keep both.
_READ_ERRORS = [
    (tree_from_text, "1 x 0", LabelError, "bad integer 'x'"),
    (tree_from_text, "1 2.5 0", LabelError, "bad integer '2.5'"),
    (tree_from_text, "labels: 2 a\n0 2", LabelError, "bad integer 'a'"),
    (tree_from_text, "labels: 2 2 5\n0 2 2", LabelError, "duplicate label 2"),
    (tree_from_text, "labels: 5 5\n0 5", LabelError, "duplicate label 5"),
    (tree_from_text, "labels: -1 3\n3 0", LabelError, "invalid label -1"),
    (tree_from_text, "labels: 0 1\n1 0", LabelError, "invalid label 0"),
    (tree_from_text, "labels: -2 -1\n-1 0", LabelError, "invalid label -1"),
    (tree_from_text, "0 7 1", LabelError, "parent 7 of 2 is not a label"),
    (tree_from_text, "labels: 2 5\n0 3", LabelError, "parent 3 of 5 is not a label"),
    (tree_from_text, "1 2 1", DisconnectedError, "expected exactly one root, found 0"),
    (tree_from_text, "labels: 4 6 9\n6 9 4", DisconnectedError,
     "expected exactly one root, found 0"),
    (tree_from_text, "0 0 1", DisconnectedError, "expected exactly one root, found 2"),
    (tree_from_text, "labels: 2 5 5\n0 0 2", DisconnectedError,
     "expected exactly one root, found 2"),
    (tree_from_text, "0 3 2", CycleError, "cycle through label 2"),
    (tree_from_text, "0 3 4 5 6 2", CycleError, "cycle through label 2"),
    (tree_from_text, "0 3 4 5 3 1", CycleError, "cycle through label 3"),
    (tree_from_text, "labels: 5 2\n0 5", LabelError, "labels line must be sorted"),
    (tree_from_text, "", TreeError, "empty tree text"),
    (tree_from_text, " \n\n", TreeError, "empty tree text"),
    (tree_from_text, "labels: 1 2\n0 1\n3", TreeError, "labeled form needs exactly two lines"),
    (tree_from_text, "0 1\n1 0", TreeError, "ptree v1 is a single line"),
    (tree_from_text, "labels: 1 2 3\n0 1", TreeError, "label/parent count mismatch"),
    (_plane_inv_text, "1(2", TreeError, "unbalanced parentheses"),
    (_plane_inv_text, "1(2(3 4)", TreeError, "unbalanced parentheses"),
    (_plane_inv_text, "1(2))", TreeError, "trailing input at position 4"),
    (_plane_inv_text, "1 2", TreeError, "trailing input at position 1"),
    (_plane_inv_text, "", TreeError, "expected a label at position 0"),
    (_plane_inv_text, "-1(2)", TreeError, "expected a label at position 0"),
    (_plane_inv_text, "1(2 x)", TreeError, "expected a label at position 4"),
    (_plane_inv_text, "1(2 2)", LabelError, "duplicate label 2"),
    (_plane_inv_text, "1(2(3) 2)", LabelError, "duplicate label 2"),
    (_plane_inv_text, "0(1)", LabelError, "invalid label 0"),
    (_plane_inv_text, "2(1)", DomainError, "plane tree must be increasing"),
    (_plane_inv_text, "2(3(1))", DomainError, "plane tree must be increasing"),
    # not increasing and a duplicate label: the label error wins
    (_plane_inv_text, "3(1 3)", LabelError, "duplicate label 3"),
    (_plane_inv_text, "5(6 7(8 5))", LabelError, "duplicate label 5"),
    (plane_inv, PlaneTree((3, 1, 3), (2, 0, 0)), LabelError, "duplicate label 3"),
    (plane_inv, PlaneTree((2, 1, 5, 4, 5), (2, 1, 0, 1, 0)), LabelError, "duplicate label 5"),
    (plane_inv, PlaneTree((1, 0), (1, 0)), LabelError, "invalid label 0"),
    # (labels, degrees) pairs that are not the preorder of one tree
    (_plane_pair, ((1, 2), (1,)), TreeError, "not the preorder of a plane tree"),
    (_plane_pair, ((1, 2, 3, 4), (3, -1, 1, 0)), TreeError, "not the preorder of a plane tree"),
    (_plane_pair, ((1, 2), (0, 0)), TreeError, "not the preorder of a plane tree"),
    (_plane_pair, ((1,), (1,)), TreeError, "not the preorder of a plane tree"),
    # the black line of `ramapoly bij --map color --dir fwd`
    (_read_colored, "0 1\nblack: 2 2", LabelError, "duplicate label 2"),
    (_read_colored, "0 1\nblack: x", LabelError, "bad integer 'x'"),
    # a "(" opens a non-empty child list
    (_plane_inv_text, "1()", TreeError, "expected a label at position 2"),
    (_plane_inv_text, "1(2()3)", TreeError, "expected a label at position 4"),
    # labels and integers are ASCII digits: int() also reads other scripts' digits, "_" and "+"
    (_plane_inv_text, "1(²)", TreeError, "expected a label at position 2"),
    (_plane_inv_text, "1(٢)", TreeError, "expected a label at position 2"),
    (tree_from_text, "0 ١", LabelError, "bad integer '١'"),
    (tree_from_text, "0 1_0 1", LabelError, "bad integer '1_0'"),
    (tree_from_text, "0 +1", LabelError, "bad integer '+1'"),
]


@pytest.mark.parametrize("read, text, cls, message", _READ_ERRORS)
def test_read_errors_are_frozen(read, text, cls, message):
    with pytest.raises(cls) as info:
        read(text)
    assert type(info.value) is cls and str(info.value) == message


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _malformed(t):
    # single-token edits of t's parent entries
    labels, parents = t.labels, t.parents
    for i, v in enumerate(labels):
        # a non-integer, and a parent that is no label
        for p in ("x", labels[-1] + 1, -1):
            yield parents[:i] + (p,) + parents[i + 1:]
        if parents[i]:  # a second root, and a cycle through v
            for p in (0, *oc.o_subtree(t, v)):
                yield parents[:i] + (p,) + parents[i + 1:]


def test_malformed_texts_fail_as_build_does():
    # Every tree on [n], n <= 5, and a seeded sample on [6] and [7], in the
    # ptree form and moved onto sparse labels in the `labels:` form: with
    # one root, the reader refuses each single-token edit with the error
    # `build` raises on the same parent map; a bad token or root count has
    # its frozen message.
    rng = random.Random(18)
    trees = [t for n in range(1, 6) for t in enumerate_rooted(n)]
    trees += [t for n in (6, 7) for t in rng.sample(list(enumerate_rooted(n)), 60)]
    checked = 0
    for base in trees:
        for t in (base, oc.relabel(base, [3 * v + 1 for v in base.labels])):
            head = "" if t.labels[-1] == t.size else "labels: " + " ".join(map(str, t.labels)) + "\n"
            for entries in _malformed(t):
                roots = entries.count(0)
                if "x" in entries:
                    want = LabelError, "bad integer 'x'"
                elif roots != 1:
                    want = DisconnectedError, f"expected exactly one root, found {roots}"
                else:
                    parent = {v: p for v, p in zip(t.labels, entries) if p}
                    want = _outcome(build, t.labels[entries.index(0)], parent)
                    assert isinstance(want, tuple)  # build refuses the edit too
                got = _outcome(tree_from_text, head + " ".join(map(str, entries)))
                assert got == want, (t, entries)
                checked += 1
    assert checked > 30000


def test_reader_refuses_cycles_as_the_stamp_walk_names_them():
    # Every parent line on [n], n <= 6, with one 0 and its other entries in 1..n:
    # the reader runs the beta walk while it checks, and refuses a cycle with the
    # label the stamp-walk oracle names; an accepted tree keeps the up and low of
    # a fresh core, and its completed core is a fresh one's.
    refused = 0
    for n in range(1, 7):
        for parents in product(range(n + 1), repeat=n):
            if parents.count(0) != 1:
                continue
            got, cycle = _outcome(tree_from_text, " ".join(map(str, parents))), oc.o_cycle(parents)
            if cycle is None:
                fresh = RootedTree(got.labels, got.parents)._arrays()
                assert got._core[::2] == fresh[::2], parents
                assert got._arrays() == fresh, parents
            else:
                assert got == (CycleError, f"cycle through label {cycle}"), parents
                refused += 1
    assert refused == sum(n ** n - n ** (n - 1) for n in range(1, 7))


def test_build_names_a_cycle_in_key_order():
    # the first key to walk into a cycle names it: 5, where label order would name 2
    with pytest.raises(CycleError, match="^cycle through label 5$"):
        build(1, {5: 4, 4: 5, 3: 2, 2: 3})


def test_duplicate_labels_are_refused_not_dropped():
    # a parent map keeps one entry per label, so these once read as a
    # two-node tree and as a cycle through 5
    for text in ("labels: 2 5 5\n0 2 2", "labels: 2 5 5\n0 2 5"):
        with pytest.raises(LabelError, match="^duplicate label 5$"):
            tree_from_text(text)


# -- filters ----------------------------------------------------------------------

def test_filter_degree_specs():
    t = build(1, {2: 1, 3: 1})
    assert ClassFilter(deg_min="=2").matches(t)
    assert ClassFilter(deg_min=">0").matches(t)
    assert ClassFilter(deg_min=">=2").matches(t)
    assert not ClassFilter(deg_min="0").matches(t)
    assert ClassFilter(deg_max="0").matches(t)
    with pytest.raises(ValueError):
        ClassFilter(deg_min="abc")


def test_filter_critical_values():
    assert sum(1 for _ in enumerate_rooted(5, ClassFilter(k=2, lam=1))) == 29
    assert sum(1 for _ in enumerate_rooted(4, ClassFilter(k=3, lam=3))) == 3
    assert sum(1 for _ in enumerate_rooted(4, ClassFilter(k=1, deg_min=">0"))) == 16


def test_filter_lambda_requires_max_child():
    leafy = build(1, {2: 1, 3: 2})
    assert not ClassFilter(lam=1).matches(leafy)
