"""Rooted labeled trees, improper-edge statistics, and exhaustive enumeration.

A rooted labeled tree lives on an arbitrary finite set of distinct positive
integer labels, stored sorted with the parent of each.  For an edge (p, c), c the
child, the edge is *proper* when p is smaller than every label in the subtree
of c, and *improper* otherwise.  The count of improper edges is the central
statistic here; the classes R_{n,k} (rooted trees on [n] with k improper
edges) and T_{n,k} (trees rooted at their minimum label, the "unrooted"
convention) are carved out of the enumeration with `ClassFilter`.  There is
one enumeration, of the rooted trees by parent array; the trees rooted at 1
are its head, the arrays with p_1 = 0.

The remaining statistics are the critical-node data used by the bijection
module: beta(v) is the minimum label in the subtree of v, the upper critical
node is the head of the first proper edge on the path from the maximum label
to the root, the lower critical node (lambda) and mu are the first nodes on
certain paths that are smaller than everything outside their subtree, and
beta_star is the least beta over the children of the minimum label.  Everything
is exact and pure: operations return new trees and never mutate their inputs.
"""

from __future__ import annotations

import os
import re
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, compress, repeat
from operator import gt
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "TreeError",
    "LabelError",
    "CycleError",
    "DisconnectedError",
    "RootedTree",
    "PlaneTree",
    "ClassFilter",
    "build",
    "enumerate_rooted",
    "enumerate_unrooted",
    "tree_to_text",
    "tree_from_text",
    "plane_to_text",
    "plane_from_text",
]

class TreeError(ValueError):
    """Base class for malformed-tree errors."""


class LabelError(TreeError):
    """Duplicate, non-positive, or out-of-set labels."""


class CycleError(TreeError):
    """The parent map contains a cycle."""


class DisconnectedError(TreeError):
    """Not a single tree: no root, several roots, or unreachable nodes."""


def _descend(kids: Sequence, low: Sequence[int], i: int, bound: int) -> int:
    # The first position z on the downward path from position i toward
    # beta(i) that is below `bound` and below every position in the subtree
    # of i outside the subtree of z (i itself passes the second test
    # vacuously); 0 when there is none.  Every z on the path is at least
    # beta(i), which passes the second test, so there is one iff beta(i) is
    # below `bound`.  `kids` and `low` come from a tree's core or `_prefixes`.
    target = low[i]
    if target >= bound:
        return 0
    out = len(kids)  # above every position
    # out leaves out the positions passed: one below out is >= bound, so above any stop
    while i >= bound or i >= out:
        for c in kids[i]:
            b = low[c]
            if b == target:
                nxt = c
            elif b < out:
                out = b
        i = nxt
    return i


class RootedTree:
    """Immutable rooted tree over a sorted tuple of distinct positive labels.

    `parents[i]` is the parent label of `labels[i]`, with 0 marking the root.
    The constructor trusts its arguments; use `build` for validated input.

    The statistics run on positions: `labels[i - 1]` sits at position i, and
    position 0 stands above the root.  Labels are sorted, so position order
    is label order and every comparison holds unchanged in position space;
    positions turn back into labels only at the public methods.
    """

    __slots__ = ("labels", "parents", "_core")

    def __init__(self, labels: tuple[int, ...], parents: tuple[int, ...]):
        self.labels = labels
        self.parents = parents
        self._core = None

    def _arrays(self, ups: Sequence | None = None) -> tuple[list[int], list, list[int]] | None:
        """(up, kids, low) by position, built once per tree, not to be changed:
        the parent (0 at the root), the children (`()` for a leaf; increasing
        unless a map relinked them) and the position of beta.  Slot 0 has the
        root as its only child and low 0.  `ups`, the parents as positions,
        may be given; if they close a cycle, nothing is built and None returned."""
        core = self._core
        if core is None:
            labels, n = self.labels, len(self.labels)
            if ups is None:
                ups = (self.parents if labels[-1] == n  # on [n] a label is its own position
                       else list(map(dict(zip((0, *labels), range(n + 1))).__getitem__, self.parents)))
            up = [0, *ups]
            kids: list = [()] * (n + 1)
            low = list(range(n + 1))
            for i, p in enumerate(ups, 1):
                if kids[p]:
                    kids[p].append(i)
                else:
                    kids[p] = [i]
                # beta: walk up from each position in increasing order, halting at
                # an ancestor (or slot 0) that already holds a smaller minimum.  A
                # walk that halts on i, or on a node it set, has gone round a cycle.
                while low[p] > i:
                    low[p] = i
                    p = up[p]
                if low[p] == i:
                    return None
            core = self._core = (up, kids, low)
        return core

    def _pos(self, v: int) -> int:
        labels, n = self.labels, len(self.labels)
        i = v if labels[-1] == n else bisect_left(labels, v) + 1
        if 0 < i <= n and labels[i - 1] == v:
            return i
        raise LabelError(f"label {v} not in tree")

    def _names(self, positions) -> tuple[int, ...]:
        return tuple([self.labels[i - 1] for i in positions])

    def _up_path(self, i: int, top: int = 0) -> list[int]:
        # positions (i, ..., top) following parent links, to the root if top is 0
        up = (self._core or self._arrays())[0]
        path = [i]
        while i != top and up[i]:
            i = up[i]
            path.append(i)
        return path

    # -- basic structure ---------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def root(self) -> int:
        return self.labels[self.parents.index(0)]

    @property
    def min_label(self) -> int:
        return self.labels[0]

    @property
    def max_label(self) -> int:
        return self.labels[-1]

    def parent(self, v: int) -> int | None:
        """Parent label of v, or None for the root."""
        return self.parents[self._pos(v) - 1] or None

    def children(self, v: int) -> tuple[int, ...]:  # read off the parents: no core
        return tuple(compress(self.labels, map(self.labels[self._pos(v) - 1].__eq__, self.parents)))

    def degree(self, v: int) -> int:
        return len((self._core or self._arrays())[1][self._pos(v)])

    def path_to_root(self, v: int) -> tuple[int, ...]:
        """The sequence (v, ..., root) following parent links."""
        return self._names(self._up_path(self._pos(v)))

    def is_descendant(self, x: int, y: int) -> bool:
        """True iff x lies in the subtree rooted at y (every node is its own
        descendant)."""
        return self._pos(y) in self._up_path(self._pos(x))

    # -- improper-edge statistics ------------------------------------------

    def beta(self, v: int) -> int:
        """Minimum label in the subtree rooted at v."""
        return self.labels[(self._core or self._arrays())[2][self._pos(v)] - 1]

    def improper_count(self) -> int:
        up, _, low = self._core or self._arrays()
        # the root's parent slot 0 never exceeds a position
        return sum(map(gt, up, low))

    def proper_on_max_path(self) -> int:
        """Number of proper edges on the path from the max label to the root
        (0 when the max label is the root)."""
        up, _, low = self._core or self._arrays()
        count, i = 0, len(up) - 1
        while up[i]:
            count += up[i] < low[i]
            i = up[i]
        return count

    def lower_critical(self) -> int:
        """First node u past the max label on the path toward beta(max) that
        is smaller than everything in the max subtree outside u's own
        subtree.  Defined whenever the max label has a child."""
        n = len(self.labels)
        i = self._attach(n, n)
        if not i:
            raise TreeError("max label is a leaf")
        return self.labels[i - 1]

    def _attach(self, i: int, bound: int) -> int:
        return _descend(*(self._core or self._arrays())[1:], i, bound)

    def mu(self) -> int:
        """First node past the min label on the min-to-root path that is
        smaller than everything outside its subtree; the root qualifies
        vacuously.  Defined whenever the min label is not the root."""
        return self.labels[self._mu(self._up_path(1)) - 1]

    def _mu(self, path: list[int]) -> int:
        # mu by position in the subtree of path[-1], given the path up to it
        # from the min.  Walk down keeping the minimum outside the current
        # subtree; the last node that qualifies is the first seen from the min.
        if len(path) == 1:
            raise TreeError("min label is the root")
        _, kids, low = self._core or self._arrays()
        out = len(kids)  # above every position
        for j in range(len(path) - 1, 0, -1):
            u = path[j]
            if u < out:
                found = out = u
            for c in kids[u]:
                if low[c] < out and c != path[j - 1]:
                    out = low[c]
        return found

    def beta_star(self) -> int:
        """min{beta(a) : a child of the min label}."""
        _, kids, low = self._core or self._arrays()
        if not kids[1]:
            raise TreeError("min label is a leaf")
        return self.labels[min([low[a] for a in kids[1]]) - 1]

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, RootedTree)
                and self.labels == other.labels
                and self.parents == other.parents)

    def __hash__(self) -> int:
        return hash((self.labels, self.parents))

    def __repr__(self) -> str:
        return f"RootedTree({self.labels!r}, {self.parents!r})"


def build(root: int, parent: Mapping[int, int]) -> RootedTree:
    """Validated construction from a root label and a child -> parent map.

    The label set is `{root} | parent.keys()`.  Raises LabelError for bad or
    duplicate labels, CycleError when parent links loop.
    """
    nodes = [root, *parent]
    _check_labels(nodes)  # the keys are distinct: a duplicate is the root
    labels = tuple(sorted(nodes))
    return _tree(labels, tuple(map(parent.get, labels, repeat(0))), parent)


def _tree(labels: tuple, parents: tuple, keys: Iterable, ups: list | None = None) -> RootedTree:
    # The tree on the sorted distinct positive `labels` with one root among the
    # aligned `parents` (as positions in `ups`, if known), its core built.  Over
    # `keys`, the labels but the root in order, the first parent that is no label
    # raises; if the core build meets a cycle, the first walk up to meet its own
    # stamp names it.
    n = len(labels)
    if ups is None:  # the parents and keys as positions
        pos = dict(zip((0, *labels), range(n + 1)))
        ups = list(map(pos.get, parents, repeat(-1)))
        keys = map(pos.__getitem__, keys)
    if ups.count(0) != 1 or min(ups) < 0 or max(ups) > n:
        v = next(v for v in keys if not 0 < ups[v - 1] <= n)
        raise LabelError(f"parent {parents[v - 1]!r} of {labels[v - 1]} is not a label")
    t = RootedTree(labels, parents)
    if t._arrays(ups) is None:
        up, stamp = [0, *ups], [-1] + [0] * n  # slot 0, above the root, ends every walk
        for v in keys:
            u = v
            while not stamp[u]:  # stamp each node with the first walk to reach it
                stamp[u] = v
                w, u = u, up[u]
            if stamp[u] == v:  # named as w names its parent
                raise CycleError(f"cycle through label {parents[w - 1]}")
    return t


def _check_labels(labels: Sequence) -> None:
    # Labels are distinct positive integers: one pass in C for the common
    # case, then a walk that names the first bad label.
    if ({*map(type, labels)} <= {int} and min(labels, default=1) > 0
            and len({*labels}) == len(labels)):
        return
    seen = set()
    for v in labels:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise LabelError(f"invalid label {v!r}")
        if v in seen:
            raise LabelError(f"duplicate label {v}")
        seen.add(v)


def _moved(t: RootedTree, moves: Mapping[int, int]) -> RootedTree:
    # Trusted constructor for surgery results: t, on the same labels, with each
    # position of `moves` re-hung under its new parent position (0: the root).
    parents = list(t.parents)
    for i, p in moves.items():
        parents[i - 1] = t.labels[p - 1] if p else 0
    return RootedTree(t.labels, tuple(parents))


# -- plane trees -------------------------------------------------------------


@dataclass(frozen=True)
class PlaneTree:
    """Rooted tree with ordered children, stored as its preorder: `labels[j]`
    has `degrees[j]` children, the subtrees that follow it in order.  The
    labels are checked by the readers and maps, not here."""

    labels: tuple[int, ...]
    degrees: tuple[int, ...]

    def __post_init__(self):
        d, n = self.degrees, len(self.degrees)
        # Each node but the last leaves a child slot open for the next: the
        # degrees up to node j sum past j, and all n of them sum to n - 1.
        if (len(self.labels) != n or min(d, default=0) < 0 or sum(d) != n - 1
                or not all(map(int.__gt__, accumulate(d[:-1]), range(n - 1)))):
            raise TreeError("not the preorder of a plane tree")

    def __repr__(self) -> str:
        return f"plane_from_text({plane_to_text(self)!r})"


# -- class filters -----------------------------------------------------------


def _parse_deg_spec(spec: str) -> tuple[int, bool]:
    # (bound, exact): "0" and "=m" pin the degree, ">m" and ">=m" bound it
    # from below.
    s = spec.strip()
    try:
        if s.startswith(">="):
            return int(s[2:]), False
        if s.startswith(">"):
            return int(s[1:]) + 1, False
        return int(s[1:] if s.startswith("=") else s), True
    except ValueError:
        raise ValueError(f"bad degree spec {spec!r}") from None


@dataclass(frozen=True)
class ClassFilter:
    """Predicate bundle naming a tree class.

    Degree constraints are strings like "0", "=2", ">0", ">=3" and apply to
    the minimum, second-smallest, and maximum label respectively; a bad spec
    raises ValueError at construction.  `lam`, `mu`, and `beta_star` pin
    critical-node values (constraints on lam imply deg(max) > 0, on mu that
    the min is not the root, on beta_star that deg(min) > 0).  `path_proper`
    is the number of proper edges on the max-to-root path.
    """

    k: int | None = None
    deg_min: str | None = None
    deg_second: str | None = None
    deg_max: str | None = None
    path_proper: int | None = None
    lam: int | None = None
    mu: int | None = None
    beta_star: int | None = None

    def __post_init__(self):
        # (tree position, bound, exact) per degree spec
        specs = ((1, self.deg_min), (2, self.deg_second), (-1, self.deg_max))
        object.__setattr__(self, "_degs", tuple(
            (pos, *_parse_deg_spec(spec)) for pos, spec in specs if spec is not None))

    def matches(self, t: RootedTree) -> bool:
        if self.k is not None and t.improper_count() != self.k:
            return False
        for pos, bound, exact in self._degs:
            if pos > t.size:
                return False
            d = len(t._arrays()[1][pos])
            if (d != bound) if exact else (d < bound):
                return False
        if self.path_proper is not None and t.proper_on_max_path() != self.path_proper:
            return False
        if self.lam is not None and (not t.degree(t.max_label)
                                     or t.lower_critical() != self.lam):
            return False
        if self.mu is not None and (t.root == t.min_label or t.mu() != self.mu):
            return False
        return self.beta_star is None or (t.degree(t.min_label) > 0
                                          and t.beta_star() == self.beta_star)


# -- enumeration ---------------------------------------------------------------


def _prefixes(n: int, head: Sequence[int] = ()) -> Iterator[tuple[list[int], list, list[int], int]]:
    # Every parent assignment p_1..p_{n-1} that starts with `head` and that the
    # max label n completes into a rooted tree on [n], in lexicographic order,
    # with the live forest it makes on [n] (changed when the next one is asked
    # for), as (p, kids, low, k): p[i] is the parent of i, kids[v] the children
    # of v (kids[0] holds the root among 1..n-1, if any, whose tree holds the
    # labels n may hang under; n, a root, is in none), low[v] the least label in
    # the subtree of v, and k the number of improper edges; all lists are
    # increasing.  Label i, still a root when its level comes, may hang under any
    # label outside its subtree, and under 0 while no root is chosen.  A stack of
    # option iterators walks the levels depth first; the last level n-1, where
    # most prefixes are made, yields and undoes each option in place.
    kids, low = [[] for _ in range(n + 1)], list(range(n + 1))
    if n == 1:
        if not any(head):
            yield [0], kids, low, 0
        return
    last = n - 1
    p = [0] * n
    # Level i's undo record: ks[i], k once i hangs, and the pairs (a, old
    # low[a]) that hanging i pushed onto the trail after marks[i].
    ks, marks = [0] * n, [0] * n
    trail: list[int] = []

    def options(i: int) -> list[int]:
        # the parents of i that close no cycle, pinned to head[i - 1] within the head
        sub = [i]
        for u in sub:  # the list grows while it is walked
            sub += kids[u]
        out = [q for q in range(1 if kids[0] else 0, n + 1) if q not in sub]
        return out if i > len(head) else [q for q in out if q == head[i - 1]]

    def unhang(i: int) -> None:
        kids[p[i]].pop()
        mark = marks[i]
        while len(trail) > mark:
            old = trail.pop()
            low[trail.pop()] = old

    stack = [iter(options(1))]  # stack[i - 1]: the untried options of level i
    while stack:
        # low[i] and the trail's length are the same for every option of level i
        i = len(stack)
        b, mark = low[i], len(trail)
        for q in stack[-1]:
            # Hang the root i under q.  The subtrees of q and its ancestors gain
            # low[i], and an edge (u, a) above them turns improper when low[a]
            # falls below u; low[0] = 0 stops the walk above a root.
            p[i] = q
            kids[q].append(i)
            k = ks[i - 1] + (q > b)
            a = q
            while low[a] > b:
                u = p[a] if a < i else 0  # a > i is a root still
                if b < u < low[a]:
                    k += 1
                trail.append(a)
                trail.append(low[a])
                low[a] = b
                a = u
            if i < last:
                ks[i], marks[i] = k, mark
                stack.append(iter(options(i + 1)))
                break
            yield p, kids, low, k
            kids[q].pop()
            while len(trail) > mark:
                old = trail.pop()
                low[trail.pop()] = old
        else:  # level i is exhausted
            stack.pop()
            if i > 1:
                unhang(i - 1)


def _heads(n: int) -> list[tuple[int, ...]]:
    # The units a pass over [n] is dealt in: the heads (p_1, p_2) of its parent arrays,
    # p_1 alone below n = 3, in order.  p_2 is 0 only if p_1 is not, and 1 unless p_1 is 2.
    ones = [0, *range(2, n + 1)]
    return ([(q, r) for q in ones for r in range(n + 1)
             if r != 2 and (q, r) not in ((0, 0), (2, 1))] if n > 2 else [(q,) for q in ones])


def _k_lambda_rows(n: int, head: Sequence[int] = ()) -> Counter:
    # (k, lambda or None) -> count over the rooted trees on [n] whose parent array
    # starts with `head`, tallied in rows[lambda or 0][k].  The trees completing one
    # prefix differ only in the parent q of n, so they share the subtree M of n,
    # lambda = lambda(M) and every edge off the path from q to the root, all read
    # from the prefix forest with b = beta(n).  Hanging n under q adds the edge into
    # n (improper iff q > b), and the edge (u, c) on the path turns improper iff
    # b < u < low[c]; the walk from the root adds those up top-down.
    rows = [[0] * n for _ in range(n + 1)]
    for _, kids, low, k in _prefixes(n, head):
        if not kids[n]:  # b = n: no parent of n moves k (n = 1 is its own root)
            rows[0][k] += n - 1 or 1
            continue
        row = rows[_descend(kids, low, n, n)]
        if not kids[0]:  # n is the root of its one tree
            row[k] += 1
            continue
        b = low[n]
        todo = [(kids[0][0], k)]  # from the root
        for u, d in todo:  # the list grows while it is walked
            row[d + (u > b)] += 1
            for c in kids[u]:
                todo.append((c, d + (b < u < low[c])))
    return Counter({(k, i or None): c for i, r in enumerate(rows) for k, c in enumerate(r) if c})


# Below this n the census runs in-process.  Two shards dealt the units take
# 11.1 ms at n = 6 against 8.4 ms in-process, and 63 ms at n = 7 against 79 ms
# (medians of 15 and 31 alternating runs, 2-vCPU Xeon, Python 3.11).
_SHARD_MIN_N = 7


def _k_lambda_counts(n: int) -> Counter:
    # _k_lambda_rows over all rooted trees on [n], on forked shards from _SHARD_MIN_N on
    return _run_shards(partial(_k_lambda_rows, n), _heads(n), n >= _SHARD_MIN_N,
                       f"lambda census n={n}")


def _usable_cpus() -> int:
    # how many forked shards can run at once: 1 without os.fork
    if not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_shards(work: Callable[[object], Counter], units: Sequence, shard: bool,
                what: str) -> Counter:
    # The Counters work(unit) summed over `units`, in-process or, if `shard`, on a forked
    # child per usable CPU (per unit at most).  Before the first fork the parent writes
    # each unit's index as a byte to a task pipe, in one atomic write (at most 256 bytes,
    # below PIPE_BUF); each child pulls one at a time until the pipe is empty, so a fast
    # shard takes more, then pickles its sum and unit count once to its own pipe.  Every
    # child is reaped before the call returns or raises; a parent exception kills them
    # first, and a failed, silent or miscounting child raises RuntimeError.
    if len(units) > 256:
        raise ValueError(f"{what}: {len(units)} units, but one byte names at most 256")

    def add_up(picks: Iterable[int]) -> tuple[Counter, int]:
        # work(units[i]) summed over the indices i in `picks`, and their number
        total, done = Counter(), 0
        for done, i in enumerate(picks, 1):
            part = work(units[i])
            if not isinstance(part, Counter):  # update would count a list's elements
                raise TypeError(f"unit {units[i]!r} gave a {type(part).__name__}, not a Counter")
            total.update(part)
        return total, done

    shards = min(_usable_cpus(), len(units)) if shard else 1
    if shards < 2:
        return add_up(range(len(units)))[0]
    import pickle
    import signal
    pids, reads, got = [], [], []
    tasks, deal = os.pipe()
    os.write(deal, bytes(range(len(units))))
    os.close(deal)  # so a child's read ends once the units run out
    try:
        for j in range(shards):
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:  # the child: it never leaves this block
                    code = 1
                    try:
                        result = add_up(map(ord, iter(partial(os.read, tasks, 1), b"")))
                        os.write(w, pickle.dumps(result))  # a short write reads as no result
                        code = 0
                    except Exception as exc:  # an interrupt ends it with code 1, quietly
                        os.write(2, f"{what} shard {j}: {exc!r}\n".encode())
                    finally:
                        os._exit(code)
            finally:
                os.close(w)  # so the parent's read ends at the child's exit
            pids.append(pid)
        for r in reads:
            with open(r, "rb", closefd=False) as src:
                got.append(src.read())
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for r in (tasks, *reads):
            os.close(r)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    total, done, bad = Counter(), 0, []
    for j, (code, data) in enumerate(zip(codes, got)):
        try:
            part, did = pickle.loads(data)  # raises if nothing came, or half of it
            total.update(part)
            done += did
        except Exception:
            code = f"{code} with no result"
        if code:
            bad.append(f"shard {j} exited {code}")
    if bad:
        raise RuntimeError(f"{what}: " + "; ".join(bad))
    if done != len(units):
        raise RuntimeError(f"{what}: the shards did {done} of {len(units)} units")
    return total


def _trees(n: int, head: tuple = (), filt: ClassFilter | None = None) -> Iterator[RootedTree]:
    # the rooted trees on [n] passing `filt` whose parent arrays start with `head`, in order
    if n < 1:
        raise ValueError("n must be positive")
    labels = tuple(range(1, n + 1))
    for p, kids, _, _ in _prefixes(n, head):
        prefix = tuple(p[1:])
        free = kids[0][:]  # the labels outside the subtree of n: the tree of the other root
        for u in free:  # the list grows while it is walked
            free += kids[u]
        free.sort()
        for q in free or (0,):
            t = RootedTree(labels, prefix + (q,))
            if filt is None or filt.matches(t):
                yield t


def enumerate_rooted(n: int, filt: ClassFilter | None = None) -> Iterator[RootedTree]:
    """All n^(n-1) rooted labeled trees on [n] passing `filt`, each exactly
    once, ordered lexicographically by parent array (root encoded 0)."""
    yield from _trees(n, (), filt)


def enumerate_unrooted(n: int, filt: ClassFilter | None = None) -> Iterator[RootedTree]:
    """All n^(n-2) trees on [n] in the unrooted convention: rooted at 1.
    Parent arrays with p_1 = 0 sort first, so these head the rooted ones."""
    yield from _trees(n, (0,), filt)


# -- text formats ----------------------------------------------------------------
#
# ptree v1: trees on [n] are one line of n whitespace-separated parents with
# 0 marking the root; other label sets use two lines, "labels: l_1 ... l_m"
# followed by the parent entries aligned to the sorted labels.  Plane trees
# are nested parentheses, "label(child1 child2 ...)", child order significant.


def tree_to_text(t: RootedTree) -> str:
    line = " ".join(map(str, t.parents))
    if t.labels[-1] == t.size:  # the sorted distinct positive labels are 1..n
        return line
    return "labels: " + " ".join(map(str, t.labels)) + "\n" + line


_INT, _LABEL = re.compile(r"-?[0-9]+"), re.compile(r"[0-9]+")  # tree texts hold ASCII digits


def _ints(tokens: Sequence[str]) -> list[int]:
    # int() also reads "+1", "1_0" and other scripts' digits, but on ASCII tokens
    # free of "+" and "_" just _INT
    text = "".join(tokens)
    if text.isascii() and "+" not in text and "_" not in text:
        try:
            return list(map(int, tokens))
        except ValueError:
            pass
    raise LabelError(f"bad integer {next(t for t in tokens if not _INT.fullmatch(t))!r}")


def tree_from_text(text: str) -> RootedTree:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise TreeError("empty tree text")
    if lines[0].lstrip().startswith("labels:"):
        if len(lines) != 2:
            raise TreeError("labeled form needs exactly two lines")
        labels = _ints(lines[0].split(":", 1)[1].split())
        parents = _ints(lines[1].split())
        if len(labels) != len(parents):
            raise TreeError("label/parent count mismatch")
        if labels != sorted(labels):
            raise LabelError("labels line must be sorted")
    else:
        if len(lines) != 1:
            raise TreeError("ptree v1 is a single line")
        parents, labels = _ints(lines[0].split()), None
    roots = parents.count(0)
    if roots != 1:
        raise DisconnectedError(f"expected exactly one root, found {roots}")
    if labels is None:  # on [n] a label is its own position
        labels = tuple(range(1, len(parents) + 1))
        return _tree(labels, tuple(parents), compress(labels, parents), parents)
    if len({*labels}) < len(labels):  # the map below would keep one of each duplicate
        _check_labels(labels)
    return build(labels[parents.index(0)], {v: p for v, p in zip(labels, parents) if p})


def plane_to_text(p: PlaneTree) -> str:
    out, left = [], []  # left: the children still to write in each open "("
    for label, d in zip(p.labels, p.degrees):
        out.append(str(label))
        if d:
            out.append("(")
            left.append(d)
            continue
        while left:  # a leaf ends a child of the innermost open node, maybe its last
            left[-1] -= 1
            if left[-1]:
                out.append(" ")
                break
            left.pop()
            out.append(")")
    return "".join(out)


def plane_from_text(text: str) -> PlaneTree:
    s = text.strip()
    pos, end = 0, len(s)
    labels, degrees = [], [0]  # in preorder, after the degree of a slot above the root
    stack = [0]  # the indices in degrees of that slot and of each open node
    while True:
        label = _LABEL.match(s, pos)
        if label is None:
            raise TreeError(f"expected a label at position {pos}")
        labels.append(int(label[0]))
        pos = label.end()
        degrees[stack[-1]] += 1
        degrees.append(0)
        opened = pos < end and s[pos] == "("
        if opened:
            stack.append(len(labels))
            pos += 1
        while len(stack) > 1:  # close nodes until another child starts
            while pos < end and s[pos] == " ":
                pos += 1
            if pos == end:
                raise TreeError("unbalanced parentheses")
            if opened or s[pos] != ")":  # a "(" holds at least one child
                break
            pos += 1
            stack.pop()
        if len(stack) == 1:
            break
    if pos != end:
        raise TreeError(f"trailing input at position {pos}")
    _check_labels(labels)
    return PlaneTree(tuple(labels), tuple(degrees[1:]))
