"""Rooted labeled trees, improper-edge statistics, and exhaustive enumeration.

A rooted labeled tree lives on an arbitrary finite set of distinct positive
integer labels and is stored as a parent map.  For an edge (p, c) with c the
child, the edge is *proper* when p is smaller than every label in the subtree
of c, and *improper* otherwise.  The count of improper edges is the central
statistic here; the classes R_{n,k} (rooted trees on [n] with k improper
edges) and T_{n,k} (trees rooted at their minimum label, the "unrooted"
convention) are carved out of the enumeration with `ClassFilter`.

The remaining statistics are the critical-node data used by the bijection
module: beta(v) is the minimum label in the subtree of v, the upper critical
node is the head of the first proper edge on the path from the maximum label
to the root, the lower critical node (lambda) and mu are the first nodes on
certain paths that are smaller than everything outside their subtree, and
alpha / beta_star are extremes of beta over children of the maximum/minimum
label.  Everything is exact and pure: operations return new trees and never
mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

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


class RootedTree:
    """Immutable rooted tree over a sorted tuple of distinct positive labels.

    `parents[i]` is the parent label of `labels[i]`, with 0 marking the root.
    The constructor trusts its arguments; use `build` for validated input.
    """

    __slots__ = ("labels", "parents", "_kids", "_betas")

    def __init__(self, labels: tuple[int, ...], parents: tuple[int, ...]):
        self.labels = labels
        self.parents = parents
        self._kids = None
        self._betas = None

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

    def parent_map(self) -> dict[int, int]:
        """Label -> parent label mapping, root mapped to 0."""
        return dict(zip(self.labels, self.parents))

    def _children(self) -> dict[int, list[int]]:
        if self._kids is None:
            kids: dict[int, list[int]] = {v: [] for v in self.labels}
            for v, p in zip(self.labels, self.parents):
                if p:
                    kids[p].append(v)
            self._kids = kids
        return self._kids

    def parent(self, v: int) -> int | None:
        """Parent label of v, or None for the root."""
        p = self.parents[self._pos(v)]
        return p if p else None

    def _pos(self, v: int) -> int:
        try:
            i = self.labels.index(v)
        except ValueError:
            raise LabelError(f"label {v} not in tree") from None
        return i

    def children(self, v: int) -> tuple[int, ...]:
        kids = self._children()
        if v not in kids:
            raise LabelError(f"label {v} not in tree")
        return tuple(kids[v])

    def degree(self, v: int) -> int:
        return len(self.children(v))

    def path_to_root(self, v: int) -> tuple[int, ...]:
        """The sequence (v, ..., root) following parent links."""
        pm = self.parent_map()
        if v not in pm:
            raise LabelError(f"label {v} not in tree")
        path = [v]
        while pm[path[-1]]:
            path.append(pm[path[-1]])
        return tuple(path)

    def is_descendant(self, x: int, y: int) -> bool:
        """True iff x lies in the subtree rooted at y (every node is its own
        descendant)."""
        return y in self.path_to_root(x)

    def subtree_labels(self, v: int) -> tuple[int, ...]:
        """Sorted labels of the subtree rooted at v."""
        kids = self._children()
        if v not in kids:
            raise LabelError(f"label {v} not in tree")
        out = []
        stack = [v]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(kids[u])
        out.sort()
        return tuple(out)

    def subtree(self, v: int) -> RootedTree:
        """The subtree rooted at v as a standalone tree."""
        sub = self.subtree_labels(v)
        inside = set(sub)
        pm = self.parent_map()
        return RootedTree(sub, tuple(pm[u] if u != v and pm[u] in inside else 0
                                     for u in sub))

    # -- improper-edge statistics ------------------------------------------

    def _beta_all(self) -> dict[int, int]:
        # Walk up from each label in increasing order; stop once an ancestor
        # already holds a smaller minimum.
        if self._betas is None:
            pm = self.parent_map()
            betas = {v: v for v in self.labels}
            for v in self.labels:
                u = pm[v]
                while u and betas[u] > v:
                    betas[u] = v
                    u = pm[u]
            self._betas = betas
        return self._betas

    def beta(self, v: int) -> int:
        """Minimum label in the subtree rooted at v."""
        betas = self._beta_all()
        if v not in betas:
            raise LabelError(f"label {v} not in tree")
        return betas[v]

    def is_proper(self, c: int) -> bool:
        """True iff the edge entering c from its parent is proper."""
        p = self.parent(c)
        if p is None:
            raise TreeError("the root has no entering edge")
        return p < self.beta(c)

    def improper_count(self) -> int:
        betas = self._beta_all()
        return sum(1 for v, p in zip(self.labels, self.parents)
                   if p and p > betas[v])

    def proper_on_max_path(self) -> int:
        """Number of proper edges on the path from the max label to the root
        (0 when the max label is the root)."""
        path = self.path_to_root(self.max_label)
        return sum(1 for c in path[:-1] if self.is_proper(c))

    def upper_critical(self) -> int:
        """Head of the first proper edge on the max-to-root path."""
        path = self.path_to_root(self.max_label)
        for c in path[:-1]:
            if self.is_proper(c):
                return self.parent(c)
        raise TreeError("no proper edge on the path from the max label")

    def max_to_beta_path(self) -> tuple[int, ...]:
        """The downward path (max, ..., beta(max)); max must have a child."""
        mx = self.max_label
        if self.degree(mx) == 0:
            raise TreeError("max label is a leaf")
        betas = self._beta_all()
        target = betas[mx]
        path = [mx]
        u = mx
        while u != target:
            u = next(c for c in self.children(u) if betas[c] == target)
            path.append(u)
        return tuple(path)

    def lower_critical(self) -> int:
        """First node u past the max label on the path toward beta(max) that
        is smaller than everything in the max subtree outside u's own
        subtree.  Defined whenever the max label has a child."""
        betas = self._beta_all()
        out = self.max_label + 1  # above every label
        path = self.max_to_beta_path()
        for prev, u in zip(path, path[1:]):
            side = [betas[c] for c in self.children(prev) if c != u]
            out = min([out, prev, *side])
            if u < out:
                return u
        raise AssertionError("beta(max) always qualifies")

    def mu(self) -> int:
        """First node past the min label on the min-to-root path that is
        smaller than everything outside its subtree; the root qualifies
        vacuously.  Defined whenever the min label is not the root."""
        mn = self.min_label
        if self.root == mn:
            raise TreeError("min label is the root")
        betas = self._beta_all()
        path = self.path_to_root(mn)
        outs = {}
        out = self.max_label + 1  # above every label
        for idx in range(len(path) - 1, -1, -1):
            u = path[idx]
            outs[u] = out
            if idx:
                nxt = path[idx - 1]
                side = [betas[c] for c in self.children(u) if c != nxt]
                out = min([out, u, *side])
        for u in path[1:]:
            if u < outs[u]:
                return u
        raise AssertionError("the root always qualifies")

    def alpha(self) -> int:
        """max{beta(b) : b child of the max label}."""
        mx = self.max_label
        if self.degree(mx) == 0:
            raise TreeError("max label is a leaf")
        return max(self.beta(b) for b in self.children(mx))

    def beta_star(self) -> int:
        """min{beta(a) : a child of the min label}."""
        mn = self.min_label
        if self.degree(mn) == 0:
            raise TreeError("min label is a leaf")
        return min(self.beta(a) for a in self.children(mn))

    # -- relabeling ---------------------------------------------------------

    def relabel(self, new_labels: Sequence[int]) -> RootedTree:
        """Order-isomorphic relabeling: the i-th smallest label becomes the
        i-th smallest element of `new_labels`."""
        target = tuple(sorted(new_labels))
        if len(target) != len(set(target)):
            raise LabelError("duplicate labels in relabel target")
        if len(target) != self.size:
            raise LabelError("relabel target has wrong size")
        if target and target[0] < 1:
            raise LabelError("labels must be positive")
        ren = dict(zip(self.labels, target))
        return RootedTree(target, tuple(ren[p] if p else 0 for p in self.parents))

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
    items = [(root, 0)] + sorted(parent.items())
    labels = []
    for v, _ in items:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise LabelError(f"invalid label {v!r}")
        labels.append(v)
    if root in parent:
        raise LabelError("the root cannot have a parent")
    label_set = set(labels)
    if len(label_set) != len(labels):
        raise LabelError("duplicate labels")
    for v, p in parent.items():
        if p not in label_set:
            raise LabelError(f"parent {p!r} of {v} is not a label")
    # Every node must reach the root; with one parent per non-root node the
    # only failure mode is a cycle.
    state = {root: True}
    for v in parent:
        path = []
        u = v
        while u not in state:
            path.append(u)
            state[u] = False
            u = parent[u]
        if state[u] is False:
            raise CycleError(f"cycle through label {u}")
        for w in path:
            state[w] = True
    pm = dict(parent)
    pm[root] = 0
    slabels = tuple(sorted(labels))
    return RootedTree(slabels, tuple(pm[v] for v in slabels))


def _from_pmap(pmap: Mapping[int, int]) -> RootedTree:
    # Trusted internal constructor for surgery results.
    labels = tuple(sorted(pmap))
    return RootedTree(labels, tuple(pmap[v] for v in labels))


# -- plane trees -------------------------------------------------------------


@dataclass(frozen=True)
class PlaneTree:
    """Rooted tree with ordered children; labels are distinct positive ints."""

    label: int
    children: tuple["PlaneTree", ...] = ()

    def iter_nodes(self) -> Iterator["PlaneTree"]:
        yield self
        for c in self.children:
            yield from c.iter_nodes()

    def label_set(self) -> frozenset[int]:
        return frozenset(node.label for node in self.iter_nodes())

    @property
    def size(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def check_labels(self) -> None:
        seen = set()
        for node in self.iter_nodes():
            v = node.label
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise LabelError(f"invalid label {v!r}")
            if v in seen:
                raise LabelError(f"duplicate label {v}")
            seen.add(v)

    def is_increasing(self) -> bool:
        """True iff every child label exceeds its parent label."""
        return all(c.label > node.label
                   for node in self.iter_nodes() for c in node.children)


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
        # (position in the sorted labels, bound, exact) per degree spec
        specs = ((0, self.deg_min), (1, self.deg_second), (-1, self.deg_max))
        object.__setattr__(self, "_degs", tuple(
            (pos, *_parse_deg_spec(spec)) for pos, spec in specs if spec is not None))

    def matches(self, t: RootedTree) -> bool:
        if self.k is not None and t.improper_count() != self.k:
            return False
        for pos, bound, exact in self._degs:
            if pos >= t.size:
                return False
            d = t.degree(t.labels[pos])
            if (d != bound) if exact else (d < bound):
                return False
        if self.path_proper is not None and t.proper_on_max_path() != self.path_proper:
            return False
        if self.lam is not None:
            if t.degree(t.max_label) == 0 or t.lower_critical() != self.lam:
                return False
        if self.mu is not None:
            if t.root == t.min_label or t.mu() != self.mu:
                return False
        if self.beta_star is not None:
            if t.degree(t.min_label) == 0 or t.beta_star() != self.beta_star:
                return False
        return True


# -- enumeration ---------------------------------------------------------------


def _parent_arrays(n: int, fixed_root: int | None = None) -> Iterator[tuple[int, ...]]:
    # All parent arrays (p_1..p_n) of rooted trees on [n], in lexicographic
    # order with 0 marking the root, by DFS with cycle pruning.
    p = [0] * (n + 1)

    def rec(i: int, have_root: bool) -> Iterator[tuple[int, ...]]:
        if i > n:
            yield tuple(p[1:])
            return
        if i == fixed_root:
            yield from rec(i + 1, True)
            return
        if fixed_root is None and not have_root and i == n:
            qs: Sequence[int] = (0,)
        elif have_root or fixed_root is not None:
            qs = range(1, n + 1)
        else:
            qs = range(0, n + 1)
        for q in qs:
            if q == 0:
                p[i] = 0
                yield from rec(i + 1, True)
                continue
            if q == i:
                continue
            cur = q
            while cur and cur < i:
                cur = p[cur]
            if cur == i:
                continue  # closes a cycle
            p[i] = q
            yield from rec(i + 1, have_root)

    if n >= 1:
        yield from rec(1, fixed_root is not None)


def enumerate_rooted(n: int, filt: ClassFilter | None = None) -> Iterator[RootedTree]:
    """All n^(n-1) rooted labeled trees on [n] passing `filt`, each exactly
    once, ordered lexicographically by parent array (root encoded 0)."""
    if n < 1:
        raise ValueError("n must be positive")
    labels = tuple(range(1, n + 1))
    for parents in _parent_arrays(n):
        t = RootedTree(labels, parents)
        if filt is None or filt.matches(t):
            yield t


def enumerate_unrooted(n: int, filt: ClassFilter | None = None) -> Iterator[RootedTree]:
    """All n^(n-2) trees on [n] in the unrooted convention: rooted at 1."""
    if n < 1:
        raise ValueError("n must be positive")
    labels = tuple(range(1, n + 1))
    for parents in _parent_arrays(n, fixed_root=1):
        t = RootedTree(labels, parents)
        if filt is None or filt.matches(t):
            yield t


# -- text formats ----------------------------------------------------------------
#
# ptree v1: trees on [n] are one line of n whitespace-separated parents with
# 0 marking the root; other label sets use two lines, "labels: l_1 ... l_m"
# followed by the parent entries aligned to the sorted labels.  Plane trees
# are nested parentheses, "label(child1 child2 ...)", child order significant.


def tree_to_text(t: RootedTree) -> str:
    line = " ".join(str(p) for p in t.parents)
    if t.labels == tuple(range(1, t.size + 1)):
        return line
    return "labels: " + " ".join(str(v) for v in t.labels) + "\n" + line


def _ints(tokens: Sequence[str]) -> list[int]:
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise LabelError(f"bad integer {tok!r}") from None
    return out


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
        parents = _ints(lines[0].split())
        labels = list(range(1, len(parents) + 1))
    roots = [v for v, p in zip(labels, parents) if p == 0]
    if len(roots) != 1:
        raise DisconnectedError(f"expected exactly one root, found {len(roots)}")
    return build(roots[0], {v: p for v, p in zip(labels, parents) if p})


def plane_to_text(p: PlaneTree) -> str:
    if not p.children:
        return str(p.label)
    return f"{p.label}({' '.join(plane_to_text(c) for c in p.children)})"


def plane_from_text(text: str) -> PlaneTree:
    s = text.strip()
    pos = 0

    def parse() -> PlaneTree:
        nonlocal pos
        start = pos
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        if start == pos:
            raise TreeError(f"expected a label at position {start}")
        label = int(s[start:pos])
        kids = []
        if pos < len(s) and s[pos] == "(":
            pos += 1
            while True:
                while pos < len(s) and s[pos] == " ":
                    pos += 1
                if pos < len(s) and s[pos] == ")":
                    pos += 1
                    break
                if pos >= len(s):
                    raise TreeError("unbalanced parentheses")
                kids.append(parse())
        return PlaneTree(label, tuple(kids))

    node = parse()
    if pos != len(s):
        raise TreeError(f"trailing input at position {pos}")
    node.check_labels()
    return node
