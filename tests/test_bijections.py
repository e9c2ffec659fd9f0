import hashlib
import random
import re
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from ramapoly.bijections import (Case, CaseTag, ColoredRootedTree, DomainError,
                                 color_merge, color_split, extract_root,
                                 flatten_min, fold_stem, insert_root, lift,
                                 lower, plane_fwd, plane_inv, rooted_fwd,
                                 rooted_inv, unflatten_min, unfold_stem,
                                 unrooted_fwd, unrooted_inv)
from ramapoly.trees import (ClassFilter, PlaneTree, RootedTree, build, enumerate_rooted,
                            enumerate_unrooted, plane_from_text, plane_to_text,
                            tree_from_text, tree_to_text)
from ramapoly.verify import double_factorial

from conftest import (o_lift, o_lower, o_plane_parents, o_upper_critical, relabel, rooted_trees,
                      subtree)
import golden

tt = tree_from_text


# -- lowering / lifting -----------------------------------------------------------

def test_lower_golden_pair():
    before, after = tt(golden.LOWER_PAIR_BEFORE), tt(golden.LOWER_PAIR_AFTER)
    assert lower(before) == after
    assert lift(after) == before


def test_lower_chain():
    assert tree_to_text(lower(tt("2 0 1"))) == "3 0 2"
    assert tree_to_text(lift(tt("3 0 2"))) == "2 0 1"


def test_lower_requires_proper_edge():
    with pytest.raises(DomainError):
        lower(build(3, {2: 3, 1: 2}))


def test_lift_requires_max_child():
    with pytest.raises(DomainError):
        lift(build(1, {2: 1, 3: 2}))


def test_lower_statistic_deltas():
    for n in range(2, 6):
        for t in enumerate_rooted(n):
            if t.proper_on_max_path() < 1:
                continue
            w = o_upper_critical(t)
            u = lower(t)
            assert u.improper_count() == t.improper_count() + 1
            assert u.proper_on_max_path() == t.proper_on_max_path() - 1
            assert u.degree(n) == t.degree(n) + 1
            assert u.degree(w) == t.degree(w) - 1
            for v in t.labels:
                if v not in (n, w):
                    assert u.degree(v) == t.degree(v)
            assert lift(u) == t


@settings(max_examples=120, deadline=None)
@given(rooted_trees(min_size=2, max_size=8, max_label=40))
def test_lift_lower_round_trip_random_labels(t):
    if t.degree(t.max_label) > 0:
        up = lift(t)
        assert up.improper_count() == t.improper_count() - 1
        assert lower(up) == t


def test_lower_and_lift_match_their_oracles():
    # lower and lift give the conftest oracles' tree, or their DomainError and message,
    # on every rooted tree on [n], n <= 6, and on a seeded sparse relabelling of each
    rng, calls = random.Random(17), 0
    for n in range(1, 7):
        for t in enumerate_rooted(n):
            for s in (t, relabel(t, rng.sample(range(1, 100), n))):
                for fn, oracle in ((lower, o_lower), (lift, o_lift)):
                    got, want = (_tree_or_error(f, s) for f in (fn, oracle))
                    assert got == want, (fn.__name__, tree_to_text(s))
                    calls += 1
    assert calls == 4 * (1 + 2 + 9 + 64 + 625 + 7776)


def _tree_or_error(fn, t):
    try:
        return fn(t)
    except DomainError as exc:
        return type(exc), str(exc)


# -- stem folding --------------------------------------------------------------

def test_fold_small_examples():
    assert tree_to_text(fold_stem(tt("2 0 1"))) == "3 3 0"
    assert tree_to_text(fold_stem(tt("3 1 0"))) == "3 0 2"
    assert tree_to_text(unfold_stem(tt("3 3 0"))) == "2 0 1"
    assert tree_to_text(unfold_stem(tt("3 0 2"))) == "3 1 0"


def test_fold_golden_pair():
    before, after = tt(golden.FOLD_PAIR_BEFORE), tt(golden.FOLD_PAIR_AFTER)
    assert before.beta_star() == 11
    assert fold_stem(before) == after
    assert after.mu() == 11
    assert unfold_stem(after) == before


def test_fold_domain_checks():
    with pytest.raises(DomainError):
        fold_stem(build(1, {2: 1, 3: 1}))
    with pytest.raises(DomainError):
        unfold_stem(build(1, {2: 1}))
    with pytest.raises(DomainError):
        unfold_stem(build(2, {1: 2, 3: 1}))


def test_fold_classes_exhaustive():
    for n in range(2, 6):
        for t in enumerate_rooted(n):
            if t.degree(1) != 1:
                continue
            w = t.beta_star()
            u = fold_stem(t)
            assert u.degree(1) == 0
            assert u.improper_count() == t.improper_count() + 1
            assert u.mu() == w
            assert unfold_stem(u) == t


@settings(max_examples=120, deadline=None)
@given(rooted_trees(min_size=2, max_size=8, max_label=40))
def test_fold_round_trip_random_labels(t):
    if t.degree(t.min_label) == 1:
        u = fold_stem(t)
        assert u.mu() == t.beta_star()
        assert unfold_stem(u) == t


# -- the four-case surgery --------------------------------------------------------

def test_flatten_case_a_example():
    t = tt("3 5 0 1 3")
    trace = []
    u = flatten_min(t, trace)
    assert tree_to_text(u) == "3 5 0 5 3"
    assert u.improper_count() == 4 and u.degree(5) == 2
    assert u.lower_critical() == 2
    tag = next(e for e in trace if isinstance(e, CaseTag))
    assert tag.case is Case.A
    assert unflatten_min(u, 1) == t


def test_flatten_records_case_tags():
    seen = set()
    for t in enumerate_rooted(5):
        if t.degree(1) == 0 or t.proper_on_max_path() != 0:
            continue
        trace = []
        u = flatten_min(t, trace)
        tag = next(e for e in reversed(trace) if isinstance(e, CaseTag))
        seen.add(tag.case)
        if tag.case is Case.D:
            assert tag.boundaries and tag.located is not None
        assert unflatten_min(u, t.degree(1), []) == t
    assert seen == {Case.A, Case.B, Case.C, Case.D}


def test_flatten_domain_checks():
    with pytest.raises(DomainError):
        flatten_min(build(2, {1: 2}))           # min is a leaf
    with pytest.raises(DomainError):
        flatten_min(build(1, {2: 1}))           # proper edge on the max path
    with pytest.raises(DomainError):
        unflatten_min(tt("3 5 0 5 3"), 0)
    with pytest.raises(DomainError):
        unflatten_min(tt("3 5 0 5 3"), 3)       # deg(max) < m


def test_flatten_composite_class():
    # deg(min)=m goes to: min a leaf, max degree >= m, lower critical > min,
    # improper count up by m, still no proper edge on the max path
    for n in range(3, 6):
        for t in enumerate_rooted(n):
            m = t.degree(1)
            if m == 0 or t.proper_on_max_path() != 0:
                continue
            u = flatten_min(t)
            assert u.degree(1) == 0
            assert u.degree(n) >= m
            assert u.proper_on_max_path() == 0
            assert u.lower_critical() > 1
            assert u.improper_count() == t.improper_count() + m


# -- the rooted bijection -----------------------------------------------------------

def test_rooted_examples():
    assert tree_to_text(rooted_fwd(tt("2 0 1"))) == "3 0 2"
    out = rooted_fwd(tt("3 5 0 1 3"))
    assert tree_to_text(out) == "3 5 0 5 3"
    assert rooted_inv(out) == tt("3 5 0 1 3")


def test_rooted_maps_sixteen_tree_class_onto_its_partner():
    image = {rooted_fwd(tt(" ".join(map(str, ps)))).parents
             for ps in golden.SIXTEEN_DEG1}
    assert image == golden.SIXTEEN_DEG4


def test_rooted_domain_checks():
    with pytest.raises(DomainError):
        rooted_fwd(build(2, {1: 2}))
    with pytest.raises(DomainError):
        rooted_inv(build(1, {2: 1, 3: 2}))


def test_rooted_bijection_exhaustive_small():
    for n in range(2, 6):
        dom = [t for t in enumerate_rooted(n) if t.degree(1) > 0]
        image = set()
        for t in dom:
            u = rooted_fwd(t)
            assert u.improper_count() == t.improper_count() + 1
            assert u.degree(n) > 0
            assert rooted_inv(u) == t
            image.add(u)
        assert len(image) == len(dom)
        cod = {t for t in enumerate_rooted(n) if t.degree(n) > 0}
        assert image == {u for u in cod}
        for u in cod:
            assert rooted_fwd(rooted_inv(u)) == u


@settings(max_examples=150, deadline=None)
@given(rooted_trees(min_size=2, max_size=7, max_label=40))
def test_rooted_round_trip_random_labels(t):
    if t.degree(t.min_label) > 0:
        u = rooted_fwd(t)
        assert u.improper_count() == t.improper_count() + 1
        assert u.degree(u.max_label) > 0
        assert rooted_inv(u) == t


# -- the min-rooted bijection ---------------------------------------------------------

def test_unrooted_examples():
    assert tree_to_text(unrooted_fwd(tt("0 1 2 3"))) == "0 1 4 2"
    assert tree_to_text(unrooted_inv(tt("0 1 4 2"))) == "0 1 2 3"


def test_unrooted_reduces_to_rooted_for_single_branch():
    # with deg(1)=1 the whole action happens inside the only branch
    for t in enumerate_unrooted(5):
        if t.degree(1) != 1 or t.degree(2) == 0:
            continue
        u = unrooted_fwd(t)
        branch = subtree(t, t.children(1)[0])
        direct = rooted_fwd(branch)
        assert subtree(u, u.children(1)[0]) == direct


def test_unrooted_preserves_root_degree_exhaustive():
    for size in range(3, 6):
        for t in enumerate_unrooted(size):
            if t.degree(2) == 0:
                continue
            u = unrooted_fwd(t)
            assert u.degree(1) == t.degree(1)
            assert u.degree(size) > 0
            assert u.improper_count() == t.improper_count() + 1
            assert unrooted_inv(u) == t


def test_unrooted_domain_checks():
    with pytest.raises(DomainError):
        unrooted_fwd(build(2, {1: 2}))       # not rooted at the min
    with pytest.raises(DomainError):
        unrooted_fwd(tt("0 1 1"))            # second label is a leaf
    with pytest.raises(DomainError):
        unrooted_inv(tt("0 1 1"))            # max label is a leaf


def test_unrooted_cardinalities_match():
    for size in range(3, 7):
        for k in range(size - 1):
            for r in range(1, size):
                dom = sum(1 for t in enumerate_unrooted(
                    size, ClassFilter(k=k, deg_second=">0")) if t.degree(1) == r)
                cod = sum(1 for t in enumerate_unrooted(
                    size, ClassFilter(k=k + 1, deg_max=">0")) if t.degree(1) == r)
                assert dom == cod


# -- coloring and the fresh root ------------------------------------------------------

def test_color_split_examples():
    assert tree_to_text(color_split(ColoredRootedTree(tt("0 1")))) == "0 1 2"
    two = color_split(ColoredRootedTree(tt("0 1"), frozenset({2})))
    assert tree_to_text(two) == "0 1 1"
    back = color_merge(two)
    assert back.tree == tt("0 1") and back.black == frozenset({2})


def test_color_black_must_be_children_of_min():
    with pytest.raises(DomainError):
        ColoredRootedTree(tt("0 1 2"), frozenset({3}))


def test_color_bijection_exhaustive():
    for n in range(1, 5):
        seen = set()
        total = 0
        for t in enumerate_rooted(n):
            for size in range(t.degree(1) + 1):
                for black in combinations(t.children(1), size):
                    u = color_split(ColoredRootedTree(t, frozenset(black)))
                    assert u.improper_count() == t.improper_count()
                    assert u.root == 1
                    back = color_merge(u)
                    assert back.tree == t and back.black == frozenset(black)
                    seen.add(u)
                    total += 1
        assert total == len(seen) == (n + 1) ** (n - 1)


def test_color_proves_degree_identity():
    # sum over min-rooted trees of x^(deg(1)-1) equals
    # sum over rooted trees of (x+1)^deg(1), refined by improper count
    from collections import Counter
    from ramapoly.polynomials import IntPoly
    for n in range(1, 6):
        left = Counter()
        for t in enumerate_unrooted(n + 1):
            left[(t.improper_count(), t.degree(1) - 1)] += 1
        right = {}
        for t in enumerate_rooted(n):
            k = t.improper_count()
            right.setdefault(k, IntPoly())
            right[k] = right[k] + IntPoly((1, 1)) ** t.degree(1)
        for k, poly in right.items():
            got = IntPoly(left.get((k, j), 0) for j in range(n + 1))
            assert got == poly


def test_insert_root_examples():
    assert tree_to_text(insert_root(tt("0 1"))) == "0 1 1"
    assert tree_to_text(insert_root(tt("0"))) == "0 1"
    assert tree_to_text(extract_root(tt("0 1 1"))) == "0 1"


def test_insert_root_bijection_exhaustive():
    for n in range(1, 6):
        image = set()
        for t in enumerate_rooted(n):
            u = insert_root(t)
            assert u.improper_count() == t.improper_count()
            assert u.degree(1) == t.degree(1) + 1
            assert u.degree(2) == 0
            assert extract_root(u) == t
            image.add(u)
        cod = {t for t in enumerate_unrooted(n + 1) if t.degree(2) == 0}
        assert image == cod


def test_extract_root_domain_checks():
    with pytest.raises(DomainError):
        extract_root(tt("0 1 2"))     # deg(2) != 0
    with pytest.raises(DomainError):
        extract_root(build(5, {9: 5}))  # not contiguous labels


# -- plane trees -----------------------------------------------------------------

def test_plane_golden_pair():
    t = tt(golden.PLANE_PAIR_TREE)
    p = plane_fwd(t)
    assert plane_to_text(p) == golden.PLANE_PAIR_PLANE
    assert plane_inv(plane_from_text(golden.PLANE_PAIR_PLANE)) == t


def test_plane_two_node():
    assert plane_to_text(plane_fwd(tt("2 0"))) == "1(2)"


def test_plane_domain_checks():
    with pytest.raises(DomainError):
        plane_fwd(tt("0 1"))             # has a proper edge
    with pytest.raises(DomainError):
        plane_inv(plane_from_text("2(1)"))


def test_plane_bijection_exhaustive():
    for n in range(1, 7):
        seen = set()
        count = 0
        for t in enumerate_rooted(n, ClassFilter(k=n - 1)):
            p = plane_fwd(t)
            assert all(q is None or q < v for v, q in zip(p.labels, o_plane_parents(p)))
            assert sorted(p.labels) == list(t.labels)
            back = plane_inv(p)
            assert back == t
            assert back.improper_count() == back.size - 1
            seen.add(p)
            count += 1
        assert count == len(seen) == double_factorial(2 * n - 3)


def _increasing_plane(rng: random.Random, n: int) -> PlaneTree:
    # label v goes into a random slot among the children of a random label below it
    kids: list[list[int]] = [[] for _ in range(n + 1)]
    for v in range(2, n + 1):
        u = rng.randrange(1, v)
        kids[u].insert(rng.randint(0, len(kids[u])), v)
    labels, stack = [], [1]
    while stack:
        labels.append(v := stack.pop())
        stack.extend(reversed(kids[v]))
    return PlaneTree(tuple(labels), tuple(len(kids[v]) for v in labels))


def test_plane_round_trip_on_large_random_trees():
    rng = random.Random(28)
    for n in (*range(1, 40), *range(100, 2001, 100)):
        p = _increasing_plane(rng, n)
        assert plane_fwd(plane_inv(p)) == p, n


@settings(max_examples=100, deadline=None)
@given(rooted_trees(min_size=1, max_size=8, max_label=40))
def test_plane_round_trip_random_labels(t):
    if t.improper_count() == t.size - 1:
        p = plane_fwd(t)
        assert all(q is None or q < v for v, q in zip(p.labels, o_plane_parents(p)))
        assert plane_inv(p) == t


# -- the min-rooted maps off [n] ---------------------------------------------------

MIN_ROOTED = [t for n in range(2, 7) for t in enumerate_unrooted(n)]


@st.composite
def min_rooted_trees(draw):
    # a tree rooted at its min, moved onto a drawn label set
    t = draw(st.sampled_from(MIN_ROOTED))
    return relabel(t, draw(st.sets(st.integers(1, 60), min_size=t.size, max_size=t.size)))


@settings(max_examples=300, deadline=None)
@given(min_rooted_trees())
def test_unrooted_round_trip_random_labels(t):
    if t.degree(t.labels[1]) > 0:
        u = unrooted_fwd(t)
        assert u.labels == t.labels and u.root == t.root
        assert u.improper_count() == t.improper_count() + 1
        assert u.degree(u.root) == t.degree(t.root)
        assert u.degree(u.max_label) > 0
        assert unrooted_inv(u) == t
    if t.degree(t.max_label) > 0:
        v = unrooted_inv(t)
        assert v.improper_count() == t.improper_count() - 1
        assert v.degree(v.root) == t.degree(t.root)
        assert unrooted_fwd(v) == t


# -- label equivariance -------------------------------------------------------------

SPARSE = (2, 5, 7, 11, 13, 17)

# the maps that work on any label set, with unflatten_min at m = 1, 2, 3
ANY_LABELS = {
    "lower": lower, "lift": lift, "fold_stem": fold_stem, "unfold_stem": unfold_stem,
    "flatten_min": flatten_min,
    **{f"unflatten_min m={m}": (lambda t, trace, m=m: unflatten_min(t, m, trace))
       for m in (1, 2, 3)},
    "rooted_fwd": rooted_fwd, "rooted_inv": rooted_inv,
    "unrooted_fwd": unrooted_fwd, "unrooted_inv": unrooted_inv,
}


def _outcome(fn, t):
    # (result, trace) or (exception type, message); the trace keeps only the
    # CaseTag records
    trace = []
    try:
        out = fn(t, trace)
    except ValueError as exc:
        return type(exc), str(exc)
    return out, [e for e in trace if isinstance(e, CaseTag)]


def _plane_relabel(p, labels):
    return plane_from_text(re.sub(r"\d+", lambda m: str(labels[int(m.group()) - 1]),
                                  plane_to_text(p)))


def test_maps_commute_with_relabeling():
    # Every map sees only the order of the labels: on a tree moved onto a
    # sparse label set it gives the moved result, the same error, or the
    # CaseTags with their labels moved.  The four maps defined on [n] only
    # reject the moved tree.
    for n in range(1, 7):
        s = SPARSE[:n]
        for t in enumerate_rooted(n):
            ts = relabel(t, s)
            for name, fn in ANY_LABELS.items():
                want, got = _outcome(fn, t), _outcome(fn, ts)
                if isinstance(want[0], RootedTree):
                    want = (relabel(want[0], s), [
                        CaseTag(e.case, None if e.located is None else s[e.located - 1],
                                tuple(s[b - 1] for b in e.boundaries)) for e in want[1]])
                assert got == want, (name, t)
            if t.improper_count() == n - 1:
                p = plane_fwd(t)
                assert plane_fwd(ts) == _plane_relabel(p, s)
                assert plane_inv(_plane_relabel(p, s)) == ts
            else:
                with pytest.raises(DomainError, match="every edge must be improper"):
                    plane_fwd(ts)
            for fn in (color_merge, insert_root, extract_root,
                       lambda u: color_split(ColoredRootedTree(u))):
                with pytest.raises(DomainError):
                    fn(ts)


# sha256 of every map in ANY_LABELS on every rooted tree on [n], n <= 6: the
# output's parents and each trace entry, or the error's type and message
GOLDEN_SMALL_SHA256 = "9c24c1c9a65efcb633767fc08e2672cfcced8214d462e2ee6399327051be60a3"


def _core(t):
    # a core with its child lists sorted into tuples: a map's output core may
    # hold the children in any order, and a leaf's () or []
    up, kids, low = t._arrays()
    return tuple(up), tuple(tuple(sorted(k)) for k in kids), tuple(low)


def test_maps_golden_on_all_small_trees_and_pure():
    # Every map gives the same outputs, traces and errors as it always has;
    # none changes its input or the input's cached core, and an output's core
    # is the one a fresh build gives.
    digest = hashlib.sha256()
    for n in range(1, 7):
        for t in enumerate_rooted(n):
            core = repr(t._arrays())
            for name, fn in ANY_LABELS.items():
                trace = []
                try:
                    out = fn(t, trace)
                except ValueError as exc:
                    entry = (name, t.parents, type(exc).__name__, str(exc))
                else:
                    entry = (name, t.parents, out.parents, [str(e) for e in trace])
                    assert _core(out) == _core(RootedTree(out.labels, out.parents)), (name, t)
                digest.update(repr(entry).encode())
                assert repr(t._arrays()) == core == repr(RootedTree(t.labels, t.parents)._arrays())
    assert digest.hexdigest() == GOLDEN_SMALL_SHA256


# every map, as fn(t, trace): those of ANY_LABELS and the maps on [n] (color_split
# with every other child of the min black)
EVERY_MAP = {
    **ANY_LABELS,
    "color_split": lambda t, trace: color_split(
        ColoredRootedTree(t, frozenset(t.children(t.min_label)[::2]))),
    "color_merge": lambda t, trace: color_merge(t),
    "insert_root": lambda t, trace: insert_root(t),
    "extract_root": lambda t, trace: extract_root(t),
    "plane_fwd": lambda t, trace: plane_fwd(t),
}


def _large_trees():
    # seeded trees of 50 to 1,001 labels, each on [n] and on sparse labels: rooted
    # anywhere, at the min with 2 inner, at the max with the min inner, at the min
    # with 2 a leaf (insert_root), and all-improper
    rng = random.Random(30)
    trees = []
    for n in (50, 300, 1000):
        for head in ((rng.randint(1, n),), (1, 2), (n, 1)):  # the root, then its child
            rest = [v for v in range(1, n + 1) if v not in head]
            order = [*head, *rng.sample(rest, n - len(head))]
            parent = {order[i]: order[rng.randrange(i)] for i in range(1, n)}
            parent[order[-1]] = head[-1]  # the last label placed is a leaf
            trees.append(build(head[0], parent))
        trees += [insert_root(trees[-3]), plane_inv(_increasing_plane(rng, n))]
    return trees + [relabel(t, range(7, 7 * t.size + 1, 7)) for t in trees]


def _run(fn, t):
    # (result, trace) or (exception type, message)
    trace = []
    try:
        out = fn(t, trace)
    except ValueError as exc:
        return type(exc), str(exc)
    return out, trace


def test_maps_on_read_trees_match_fresh_builds():
    # A tree read from text holds the up and low of its core, and no kids.  On every
    # tree on [n], n <= 6, and the seeded large trees, every map gives a read tree the
    # output and trace, or error, it gives a fresh build, the output's core is a fresh
    # build's, and so is the read tree's core once completed.
    for t in [*(t for n in range(1, 7) for t in enumerate_rooted(n)), *_large_trees()]:
        text = tree_to_text(t)
        for name, fn in EVERY_MAP.items():
            read, fresh = tree_from_text(text), RootedTree(t.labels, t.parents)
            assert read._core[1] is None
            got = _run(fn, read)
            assert got == _run(fn, fresh), (name, t)
            if isinstance(got[0], RootedTree):
                assert _core(got[0]) == _core(RootedTree(got[0].labels, got[0].parents)), (name, t)
            assert read._arrays() == fresh._arrays() == RootedTree(t.labels, t.parents)._arrays()


def test_maps_reading_no_children_leave_a_read_tree_without_them():
    # The colour and fresh-root maps read the parents; lower and plane_fwd read up and
    # beta, and so does rooted_fwd on its lowering route.  None of them completes the
    # core of a tree read from text, whether it maps the tree or refuses it.
    names = ("color_split", "color_merge", "insert_root", "extract_root", "lower",
             "plane_fwd", "rooted_fwd")
    for t in [*(t for n in range(1, 7) for t in enumerate_rooted(n)), *_large_trees()]:
        for name in names:
            read, trace = tree_from_text(tree_to_text(t)), []
            try:
                EVERY_MAP[name](read, trace)
            except DomainError:
                pass
            if not any(str(e).startswith("route: flatten") for e in trace):
                assert read._core[1] is None, (name, t)


@pytest.mark.parametrize("step", [1, 3])
def test_runs_of_steps_match_the_one_step_maps_on_a_large_star(step):
    # The star under the max (n the root, 1 its only child, 2..n-1 under 1) takes a
    # flatten and n - 3 lifts forward and n - 3 lowers back: the runs rooted_fwd and
    # rooted_inv make on one core each give the outputs and traces of the one-step maps.
    n = 400
    labels = tuple(range(step, step * n + 1, step))
    t = RootedTree(labels, (labels[-1],) + (labels[0],) * (n - 2) + (0,))
    run, steps = [], []
    u = flatten_min(t, steps)
    for _ in range(n - 3):
        u = lift(u, steps)
    assert rooted_fwd(t, run) == u and run[1:] == steps
    run, steps = [], []
    v = u
    for _ in range(n - 3):
        v = lower(v, steps)
    assert unflatten_min(v, n - 2, steps) == t == rooted_inv(u, run) and run[1:] == steps
