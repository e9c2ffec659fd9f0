"""Shared strategies and independent brute-force oracles.

The oracle functions recompute every statistic straight from its definition
using ancestor walks and whole-subtree set differences, deliberately
avoiding the library's children-DFS and incremental-minimum code paths.
"""

from __future__ import annotations

import re

import hypothesis.strategies as st

from ramapoly.bijections import DomainError
from ramapoly.trees import LabelError, PlaneTree, RootedTree, TreeError, _check_labels, build


# -- strategies -----------------------------------------------------------------


@st.composite
def rooted_trees(draw, min_size: int = 1, max_size: int = 7, max_label: int = 30,
                 contiguous: bool = False):
    n = draw(st.integers(min_size, max_size))
    if contiguous:
        labels = list(range(1, n + 1))
    else:
        labels = sorted(draw(st.sets(st.integers(1, max_label), min_size=n, max_size=n)))
    order = draw(st.permutations(labels))
    parent = {}
    for i, v in enumerate(order[1:], start=1):
        parent[v] = order[draw(st.integers(0, i - 1))]
    return build(order[0], parent)


# -- definitional oracles ---------------------------------------------------------


def o_path_to_root(t: RootedTree, v: int) -> list[int]:
    path = [v]
    while t.parent(path[-1]) is not None:
        path.append(t.parent(path[-1]))
    return path


def o_subtree(t: RootedTree, v: int) -> set[int]:
    return {u for u in t.labels if v in o_path_to_root(t, u)}


def o_beta(t: RootedTree, v: int) -> int:
    return min(o_subtree(t, v))


def o_is_proper(t: RootedTree, c: int) -> bool:
    return t.parent(c) < o_beta(t, c)


def o_improper_count(t: RootedTree) -> int:
    return sum(1 for c in t.labels if t.parent(c) is not None and not o_is_proper(t, c))


def o_proper_on_max_path(t: RootedTree) -> int:
    return sum(1 for c in o_path_to_root(t, t.max_label)[:-1] if o_is_proper(t, c))


def o_upper_critical(t: RootedTree) -> int | None:
    for c in o_path_to_root(t, t.max_label)[:-1]:
        if o_is_proper(t, c):
            return t.parent(c)
    return None


def o_lower_critical(t: RootedTree) -> int | None:
    mx = t.max_label
    if not any(t.parent(u) == mx for u in t.labels):
        return None
    target = o_beta(t, mx)
    up = o_path_to_root(t, target)
    path = list(reversed(up[: up.index(mx) + 1]))
    inside = o_subtree(t, mx)
    for u in path[1:]:
        rest = inside - o_subtree(t, u)
        if not rest or u < min(rest):
            return u
    raise AssertionError("unreachable")


def o_mu(t: RootedTree) -> int | None:
    mn = t.min_label
    if t.root == mn:
        return None
    for u in o_path_to_root(t, mn)[1:]:
        rest = set(t.labels) - o_subtree(t, u)
        if not rest or u < min(rest):
            return u
    raise AssertionError("unreachable")


def o_alpha(t: RootedTree) -> int | None:
    kids = [u for u in t.labels if t.parent(u) == t.max_label]
    return max(o_beta(t, b) for b in kids) if kids else None


def o_beta_star(t: RootedTree) -> int | None:
    kids = [u for u in t.labels if t.parent(u) == t.min_label]
    return min(o_beta(t, a) for a in kids) if kids else None


def o_plane_parents(p: PlaneTree) -> list[int | None]:
    """The parent label of each preorder node, None at the root: the nearest
    earlier node with a child still to come, counted from `degrees`."""
    parents: list[int | None] = []
    waiting: list[list[int]] = []  # [label, children still to come] of the open nodes
    for v, d in zip(p.labels, p.degrees):
        parents.append(waiting[-1][0] if waiting else None)
        if waiting:
            waiting[-1][1] -= 1
            if not waiting[-1][1]:
                waiting.pop()
        if d:
            waiting.append([v, d])
    return parents


def o_plane_from_text(text: str) -> PlaneTree:
    """The plane-tree reader as a walk over the characters: after a label, a
    "(" opens its child list, and spaces and ")" lead to the next label; the
    first character out of place is named, then the first bad label."""
    s = text.strip()
    pos, end = 0, len(s)
    labels, degrees = [], [0]  # in preorder, after the degree of a slot above the root
    stack = [0]  # the indices in degrees of that slot and of each open node
    while True:
        label = re.compile(r"[0-9]+").match(s, pos)
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


def o_turned(t: RootedTree, path: list[int]) -> RootedTree:
    """t with the upward path (x, ..., y) reversed: each node of it hangs under
    the one before it, and x takes y's place under y's parent."""
    parent = {v: t.parent(v) for v in t.labels}
    parent[path[0]] = parent[path[-1]]
    parent.update(zip(path[1:], path))
    root = next(v for v, p in parent.items() if p is None)
    return build(root, {v: p for v, p in parent.items() if p is not None})


def o_lower(t: RootedTree) -> RootedTree:
    """Reverse the path from the max label up to the upper critical node, so
    the max label takes the critical node's place."""
    w = o_upper_critical(t)
    if w is None:
        raise DomainError("no proper edge on the path from the max label to the root")
    path = o_path_to_root(t, t.max_label)
    return o_turned(t, path[: path.index(w) + 1])


def o_lift(t: RootedTree) -> RootedTree:
    """Reverse the path from the max label down to the lower critical node,
    which takes the max label's place."""
    u = o_lower_critical(t)
    if u is None:
        raise DomainError("max label is a leaf")
    path = o_path_to_root(t, u)
    return o_turned(t, path[: path.index(t.max_label) + 1])


def o_cycle(parents: list[int]) -> int | None:
    """The label a cycle of the one-root parent line on [n] is named by, or
    None for a tree: the labels with a parent, in order, each stamp the nodes
    up to the first one already stamped; the first walk to meet its own stamp
    has gone round a cycle, and names the node it met again."""
    up, stamp = [0, *parents], [-1] + [0] * len(parents)  # slot 0, above the root
    for v in range(1, len(up)):
        if not up[v]:
            continue
        u = v
        while not stamp[u]:
            stamp[u] = v
            u = up[u]
        if stamp[u] == v:
            return u
    return None


# -- tree surgery for tests -------------------------------------------------------


def subtree(t: RootedTree, v: int) -> RootedTree:
    """The subtree rooted at v as a standalone tree."""
    return build(v, {u: t.parent(u) for u in o_subtree(t, v) if u != v})


def relabel(t: RootedTree, new_labels) -> RootedTree:
    """Order-isomorphic relabeling: the i-th smallest label becomes the i-th
    smallest element of `new_labels`."""
    target = sorted(new_labels)
    if len({*target}) != len(target) or len(target) != t.size:
        raise LabelError(f"relabel target needs {t.size} distinct labels")
    rank = dict(zip(t.labels, target))
    return build(rank[t.root], {rank[v]: rank[p] for v, p in zip(t.labels, t.parents) if p})
