"""Constructive bijections on labeled trees, forward and inverse.

Every map here trades tree statistics for improper edges in a reversible
way.  Writing n for the maximum label and 1 for the minimum (the maps work
over arbitrary label sets, with min/max taking those roles):

  lower / lift            R(i)_{n,k}[deg(1)>0] <-> R(i-1)_{n,k+1}[deg(n)>0,
                          deg(1)>0 or lambda=1]: reverse the path between the
                          max label and the upper critical node (inverse: the
                          lower critical node).  i counts proper edges on the
                          max-to-root path.
  fold_stem / unfold_stem R_{n,k}[deg(1)=1, beta*=w] <-> R_{n,k+1}[deg(1)=0,
                          mu=w]: cut the chain from the root down to the min
                          label into segments and re-hang them under w, the
                          minimum of the min's child subtree.
  flatten_min /           R(0)_{n,k}[deg(1)=m] <-> R(0)_{n,k+m}[deg(1)=0,
  unflatten_min           deg(n)>=m, lambda>1]: four cases A-D keyed on
                          whether the min sits under the max, on deg(max),
                          and on alpha versus beta*.
  rooted_fwd / rooted_inv R_{n,k}[deg(1)>0] <-> R_{n,k+1}[deg(n)>0]: lowering
                          when the max path has a proper edge, otherwise
                          flatten_min followed by deg(1)-1 lifts.
  unrooted_fwd / _inv     T_{n+1,k}[deg(2)>0, deg(1)=r] <-> T_{n+1,k+1}
                          [deg(n+1)>0, deg(1)=r] on min-rooted trees,
                          delegating to rooted_fwd inside the child subtree
                          that holds the second-smallest label (with an
                          order-isomorphic relabeling when the max label
                          sits in a different subtree and is a leaf).
  color_split / _merge    trees on [n] with a black subset of the min's
                          children <-> min-rooted trees on [n+1]; proves
                          sum x^(deg(1)-1) over T_{n+1,k} = sum (x+1)^deg(1)
                          over R_{n,k}.
  insert_root / extract_root
                          R_{n,k}[deg(1)=r] <-> T_{n+1,k}[deg(1)=r+1,
                          deg(2)=0]: a fresh smallest root absorbs the min's
                          children.
  plane_fwd / plane_inv   all-improper rooted trees on a label set <->
                          increasing plane trees on it; the path from the min
                          to the root becomes the ordered child list.

Each function checks its preconditions eagerly and raises DomainError
outside its stated domain.  An optional `trace` list collects dispatch
records (strings and CaseTag entries) for audits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .trees import PlaneTree, RootedTree, _from_pmap

__all__ = [
    "DomainError",
    "ReconstructionError",
    "Case",
    "CaseTag",
    "ColoredRootedTree",
    "lower",
    "lift",
    "fold_stem",
    "unfold_stem",
    "flatten_min",
    "unflatten_min",
    "rooted_fwd",
    "rooted_inv",
    "unrooted_fwd",
    "unrooted_inv",
    "color_split",
    "color_merge",
    "insert_root",
    "extract_root",
    "plane_fwd",
    "plane_inv",
]

class DomainError(ValueError):
    """Input outside a map's stated domain."""


class ReconstructionError(ValueError):
    """An inverse map's structural invariants failed: corrupt input."""


class Case(Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"


@dataclass(frozen=True)
class CaseTag:
    """Audit record for one flatten/unflatten dispatch."""

    case: Case
    located: int | None = None
    boundaries: tuple[int, ...] = ()


@dataclass(frozen=True)
class ColoredRootedTree:
    """A rooted tree plus a black subset of the min label's children."""

    tree: RootedTree
    black: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        kids = set(self.tree.children(self.tree.min_label))
        if not set(self.black) <= kids:
            raise DomainError("black nodes must be children of the min label")


def _pm(t: RootedTree) -> dict[int, int]:
    return dict(zip(t.labels, t.parents))


def _note(trace, msg) -> None:
    if trace is not None:
        trace.append(msg)


# -- lowering and lifting ------------------------------------------------------


def lower(t: RootedTree, trace: list | None = None) -> RootedTree:
    """Reverse the path from the max label up to the upper critical node, so
    the max label takes the critical node's place.  Adds one improper edge
    and removes one proper edge from the max-to-root path."""
    mx = t.max_label
    path = t.path_to_root(mx)
    idx = None
    for i, c in enumerate(path[:-1]):
        if t.is_proper(c):
            idx = i
            break
    if idx is None:
        raise DomainError("no proper edge on the path from the max label to the root")
    w = path[idx + 1]
    _note(trace, f"lower: reverse {path[:idx + 2]} at critical node {w}")
    pm = _pm(t)
    pm[mx] = pm[w]
    for above, below in zip(path[: idx + 1], path[1: idx + 2]):
        pm[below] = above
    return _from_pmap(pm)


def lift(t: RootedTree, trace: list | None = None) -> RootedTree:
    """Inverse of `lower`: reverse the path from the max label down to the
    lower critical node, which takes the max label's place."""
    mx = t.max_label
    if t.degree(mx) == 0:
        raise DomainError("max label is a leaf")
    lam = t.lower_critical()
    down = t.max_to_beta_path()
    seg = down[: down.index(lam) + 1]
    _note(trace, f"lift: reverse {seg} at critical node {lam}")
    pm = _pm(t)
    old = pm[mx]
    for above, below in zip(seg, seg[1:]):
        pm[above] = below
    pm[lam] = old
    return _from_pmap(pm)


# -- stem folding (deg(min)=1 <-> deg(min)=0) ----------------------------------


def fold_stem(t: RootedTree, trace: list | None = None) -> RootedTree:
    """Cut the path from the root down to the min label into segments and
    re-hang them, in order, under w = beta(child of min).

    Requires deg(min) = 1.  The result has deg(min) = 0, one more improper
    edge, and mu equal to the old beta*.
    """
    out, _, _ = _fold_with_info(t, trace)
    return out


def _fold_with_info(t: RootedTree, trace: list | None) -> tuple[RootedTree, int, tuple[int, ...]]:
    mn = t.min_label
    if t.degree(mn) != 1:
        raise DomainError("min label must have exactly one child")
    v = t.children(mn)[0]
    w = t.beta(v)
    stem = t.path_to_root(mn)[::-1]
    tt = len(stem)
    outs = []
    cur = t.max_label + 1  # above every label
    for j, u in enumerate(stem):
        outs.append(cur)
        nxt = stem[j + 1] if j + 1 < tt else v
        cur = min([cur, u] + [t.beta(c) for c in t.children(u) if c != nxt])
    j1 = next(j for j in range(tt) if stem[j] < min(outs[j], w))
    bounds = [j1] + [j for j in range(j1 + 1, tt) if stem[j] < outs[j]]
    assert bounds[-1] == tt - 1, "the min label always ends the last segment"
    heads = tuple(stem[b] for b in [0] + [b + 1 for b in bounds[:-1]])
    _note(trace, f"fold: w={w} segment heads at {heads}")
    pm = _pm(t)
    pm[v] = 0
    for head in heads:
        pm[head] = w
    return _from_pmap(pm), w, heads


def _descend_to_attach(t: RootedTree, r: int, bound: int) -> int:
    # First node z on the downward path from r toward beta(r) such that z is
    # below `bound` and below everything in subtree(r) outside subtree(z)
    # (the root r passes the second test vacuously).
    target = t.beta(r)
    out = t.max_label + 1  # above every label
    u = r
    while True:
        if u < bound and u < out:
            return u
        if u == target:
            raise ReconstructionError("no attachment node found on a segment")
        nxt = next(c for c in t.children(u) if t.beta(c) == target)
        out = min([out, u] + [t.beta(c) for c in t.children(u) if c != nxt])
        u = nxt


def unfold_stem(t: RootedTree, trace: list | None = None) -> RootedTree:
    """Inverse of `fold_stem`: split off the subtrees of w = mu whose minimum
    is below w, order them by decreasing minimum, chain them back into a
    root path, and hang the remainder under the min label."""
    mn = t.min_label
    if t.root == mn:
        raise DomainError("min label must not be the root")
    if t.degree(mn) != 0:
        raise DomainError("min label must be a leaf")
    w = t.mu()
    heads = sorted((c for c in t.children(w) if t.beta(c) < w),
                   key=t.beta, reverse=True)
    if not heads or t.beta(heads[-1]) != mn:
        raise ReconstructionError("the min label must lie under the fold node")
    attach = []
    bound = w
    for r in heads:
        attach.append(_descend_to_attach(t, r, bound))
        bound = t.beta(r)
    _note(trace, f"unfold: w={w} segment heads {tuple(heads)} attach at {tuple(attach)}")
    pm = _pm(t)
    old_root = t.root
    pm[heads[0]] = 0
    for nxt, z in zip(heads[1:], attach[:-1]):
        pm[nxt] = z
    pm[old_root] = mn
    return _from_pmap(pm)


# -- the four-case surgery on R(0) classes ------------------------------------


def _splice(pm: dict[int, int], sub: RootedTree, parent: int) -> None:
    # Overwrite pm entries for sub's labels with sub's structure, attaching
    # sub's root to `parent`.
    for u, p in sub.parent_map().items():
        pm[u] = p if p else parent


def flatten_min(t: RootedTree, trace: list | None = None) -> RootedTree:
    """Move the min label's m subtrees away so it becomes a leaf, adding m
    improper edges while keeping the max-to-root path free of proper edges.

    Requires deg(min) = m >= 1 and no proper edge on the max-to-root path.
    The four cases cover: (A) min and max in separate branches with
    alpha < beta*; (B) alpha > beta*, which exchanges the max label with the
    subtree at alpha; (C) min under max with deg(max) >= 2; (D) min under
    max with deg(max) = 1, which folds the subtree holding the min.
    """
    mn, mx = t.min_label, t.max_label
    m = t.degree(mn)
    if m == 0:
        raise DomainError("min label must have a child")
    if t.proper_on_max_path() != 0:
        raise DomainError("the max-to-root path must have no proper edge")
    assert t.degree(mx) > 0, "a max leaf off the root would start with a proper edge"
    al = t.alpha()
    bs = t.beta_star()
    under = t.is_descendant(mn, mx)

    if al > bs:
        q = t.parent(al)
        pm = _pm(t)
        pm[al] = pm[mx]
        for b in t.children(mx):
            if b != al:
                pm[b] = al
        pm[mx] = q if q != mx else al
        for c in t.children(mn):
            pm[c] = mx
        _note(trace, CaseTag(Case.B, located=al))
        return _from_pmap(pm)

    if not under:
        pm = _pm(t)
        for c in t.children(mn):
            pm[c] = mx
        _note(trace, CaseTag(Case.A))
        return _from_pmap(pm)

    if t.degree(mx) >= 2:
        kids = sorted(t.children(mx), key=t.beta)
        b1, b2 = kids[0], kids[1]
        limit = bs if len(kids) < 3 else min(bs, t.beta(kids[2]))
        ci = _descend_to_attach(t, b2, limit)
        pm = _pm(t)
        pm[b1] = ci
        for c in t.children(mn):
            pm[c] = mx
        _note(trace, CaseTag(Case.C, located=ci))
        return _from_pmap(pm)

    b = t.children(mx)[0]
    a_kids = sorted(t.children(mn), key=t.beta)
    moved: set[int] = set()
    for a in a_kids[1:]:
        moved.update(t.subtree_labels(a))
    pm = _pm(t)
    for a in a_kids[1:]:
        pm[a] = mx
    s_labels = [u for u in t.subtree_labels(b) if u not in moved]
    sub = _from_pmap({u: (pm[u] if u != b else 0) for u in s_labels})
    folded, w, heads = _fold_with_info(sub, trace)
    _splice(pm, folded, mx)
    _note(trace, CaseTag(Case.D, located=w, boundaries=heads))
    return _from_pmap(pm)


def unflatten_min(t: RootedTree, m: int, trace: list | None = None) -> RootedTree:
    """Inverse of `flatten_min` for a known original min degree m."""
    mn, mx = t.min_label, t.max_label
    if m < 1:
        raise DomainError("m must be >= 1")
    if t.degree(mn) != 0:
        raise DomainError("min label must be a leaf")
    if t.proper_on_max_path() != 0:
        raise DomainError("the max-to-root path must have no proper edge")
    if t.degree(mx) < m:
        raise DomainError("max label needs at least m children")
    if t.lower_critical() == mn:
        raise DomainError("the lower critical node must exceed the min label")
    under = t.is_descendant(mn, mx)

    if not under and t.degree(mx) > m:
        kids = sorted(t.children(mx), key=t.beta, reverse=True)
        pm = _pm(t)
        for c in kids[:m]:
            pm[c] = mn
        _note(trace, CaseTag(Case.A))
        return _from_pmap(pm)

    if not under:
        pm = _pm(t)
        for c in t.children(mx):
            pm[c] = mn
        t2 = _from_pmap(pm)
        path = t2.path_to_root(mx)[::-1]
        pair = next(((y, c) for y, c in zip(path, path[1:]) if t2.is_proper(c)), None)
        if pair is None:
            raise ReconstructionError("no proper edge on the root-to-max path")
        y, on_path = pair
        pm2 = _pm(t2)
        for c in t2.children(y):
            if c != on_path and t2.beta(c) > y:
                pm2[c] = mx
        swap = {y: mx, mx: y}
        _note(trace, CaseTag(Case.B, located=y))
        return _from_pmap({swap.get(v, v): swap.get(p, p) if p else 0
                           for v, p in pm2.items()})

    if t.degree(mx) > m:
        x = t.lower_critical()
        kids = sorted(t.children(mx), key=t.beta, reverse=True)
        pm = _pm(t)
        for c in kids[:m]:
            pm[c] = mn
        holder = next(c for c in t.children(x) if t.beta(c) == mn)
        pm[holder] = mx
        _note(trace, CaseTag(Case.C, located=x))
        return _from_pmap(pm)

    holder = next(c for c in t.children(mx) if t.beta(c) == mn)
    sub = unfold_stem(t.subtree(holder), trace)
    pm = _pm(t)
    for c in t.children(mx):
        if c != holder:
            pm[c] = mn
    _splice(pm, sub, mx)
    _note(trace, CaseTag(Case.D, located=sub.root))
    return _from_pmap(pm)


# -- the rooted-tree bijection --------------------------------------------------


def rooted_fwd(t: RootedTree, trace: list | None = None) -> RootedTree:
    """R_{n,k}[deg(min)>0] -> R_{n,k+1}[deg(max)>0]: one lowering step when
    the max-to-root path has a proper edge, otherwise flatten_min followed
    by deg(min)-1 lifts."""
    mn = t.min_label
    if t.degree(mn) == 0:
        raise DomainError("min label must have a child")
    i = t.proper_on_max_path()
    if i >= 1:
        _note(trace, f"route: {i} proper edges on the max path -> lower")
        return lower(t, trace)
    m = t.degree(mn)
    _note(trace, f"route: flatten (m={m}) then {m - 1} lifts")
    out = flatten_min(t, trace)
    for _ in range(m - 1):
        out = lift(out, trace)
    return out


def rooted_inv(t: RootedTree, trace: list | None = None) -> RootedTree:
    """Inverse of `rooted_fwd`: lift when deg(min)>0 or lambda is the min
    label; otherwise lower down to the zero-proper-path class and unflatten."""
    mx = t.max_label
    if t.degree(mx) == 0:
        raise DomainError("max label must have a child")
    if t.degree(t.min_label) > 0 or t.lower_critical() == t.min_label:
        _note(trace, "route: lift")
        return lift(t, trace)
    i = t.proper_on_max_path()
    _note(trace, f"route: {i} lowers then unflatten (m={i + 1})")
    out = t
    for _ in range(i):
        out = lower(out, trace)
    return unflatten_min(out, i + 1, trace)


# -- the min-rooted ("unrooted") bijection --------------------------------------


def _branch_of(t: RootedTree, target: int) -> int:
    # The child of the root whose subtree contains `target`.
    path = t.path_to_root(target)
    if len(path) < 2:
        raise DomainError("target is the root")
    return path[-2]


def unrooted_fwd(t: RootedTree, trace: list | None = None) -> RootedTree:
    """T_{n+1,k}[deg(2)>0, deg(1)=r] -> T_{n+1,k+1}[deg(n+1)>0, deg(1)=r]
    on trees rooted at their min label; preserves the root degree."""
    mn, mx = t.min_label, t.max_label
    if t.root != mn:
        raise DomainError("tree must be rooted at its min label")
    if t.size < 2:
        raise DomainError("need at least two labels")
    second = t.labels[1]
    if t.degree(second) == 0:
        raise DomainError("second-smallest label must have a child")
    x = _branch_of(t, second)
    y = _branch_of(t, mx)
    pm = _pm(t)
    if x == y or t.degree(mx) > 0:
        which = "shared branch" if x == y else "max already internal"
        _note(trace, f"case: {which}; recurse into branch {x}")
        _splice(pm, rooted_fwd(t.subtree(x), trace), mn)
        return _from_pmap(pm)
    _note(trace, f"case: leaf max in branch {y}; swap roles across {x}/{y}")
    sub_x, sub_y = t.subtree(x), t.subtree(y)
    lifted = sub_x.relabel([u for u in sub_x.labels if u != second] + [mx])
    lowered = sub_y.relabel([second] + [u for u in sub_y.labels if u != mx])
    for u in sub_x.labels:
        del pm[u]
    for u in sub_y.labels:
        del pm[u]
    _splice(pm, rooted_fwd(lifted, trace), mn)
    _splice(pm, lowered, mn)
    return _from_pmap(pm)


def unrooted_inv(t: RootedTree, trace: list | None = None) -> RootedTree:
    """Inverse of `unrooted_fwd`."""
    mn, mx = t.min_label, t.max_label
    if t.root != mn:
        raise DomainError("tree must be rooted at its min label")
    if t.size < 2 or t.degree(mx) == 0:
        raise DomainError("max label must have a child")
    second = t.labels[1]
    u = _branch_of(t, mx)
    v = _branch_of(t, second)
    pm = _pm(t)
    if u == v:
        _note(trace, f"case: shared branch; recurse into branch {u}")
        _splice(pm, rooted_inv(t.subtree(u), trace), mn)
        return _from_pmap(pm)
    sub_v = t.subtree(v)
    if sub_v.degree(sub_v.max_label) > 0:
        _note(trace, f"case: branch {v} max internal; recurse into it")
        _splice(pm, rooted_inv(sub_v, trace), mn)
        return _from_pmap(pm)
    _note(trace, f"case: swapped roles; recurse into branch {u} and relabel")
    sub_u = t.subtree(u)
    back = rooted_inv(sub_u, trace)
    restored_x = back.relabel([second] + [w for w in back.labels if w != mx])
    restored_y = sub_v.relabel([w for w in sub_v.labels if w != second] + [mx])
    for w in sub_u.labels:
        del pm[w]
    for w in sub_v.labels:
        del pm[w]
    _splice(pm, restored_x, mn)
    _splice(pm, restored_y, mn)
    return _from_pmap(pm)


# -- coloring equivalence and the fresh-root map ---------------------------------


def _require_contiguous(t: RootedTree) -> int:
    n = t.size
    if t.labels != tuple(range(1, n + 1)):
        raise DomainError("this map needs labels exactly 1..n")
    return n


def color_split(c: ColoredRootedTree) -> RootedTree:
    """Turn a tree on [n] with black-marked children of the min into a tree
    on [n+1] rooted at 1: a fresh smallest root adopts the black subtrees
    and the rest of the tree, and labels shift up by one."""
    t = c.tree
    _require_contiguous(t)
    pm = {1: 0}
    for v, p in zip(t.labels, t.parents):
        pm[v + 1] = 1 if (p == 0 or v in c.black) else p + 1
    return _from_pmap(pm)


def color_merge(t: RootedTree) -> ColoredRootedTree:
    """Inverse of `color_split`: the root's child holding the shifted old min
    is the uncolored part; the other child subtrees re-attach to the min as
    its black children."""
    n = _require_contiguous(t) - 1
    if n < 1 or t.root != 1:
        raise DomainError("expected a tree on [n+1] rooted at 1")
    holder = next(c for c in t.children(1) if t.beta(c) == 2)
    black = frozenset(c - 1 for c in t.children(1) if c != holder)
    pm = {}
    for v, p in zip(t.labels, t.parents):
        if v == 1:
            continue
        if p == 1:
            pm[v - 1] = 0 if v == holder else 1
        else:
            pm[v - 1] = p - 1
    return ColoredRootedTree(_from_pmap(pm), black)


def insert_root(t: RootedTree) -> RootedTree:
    """R_{n,k}[deg(1)=r] -> T_{n+1,k}[deg(1)=r+1, deg(2)=0]: a fresh smallest
    root adopts the whole tree and the min label's children, i.e.
    `color_split` with every child of the min colored black."""
    return color_split(ColoredRootedTree(t, frozenset(t.children(t.min_label))))


def extract_root(t: RootedTree) -> RootedTree:
    """Inverse of `insert_root`."""
    if t.size > 1 and t.degree(t.labels[1]) != 0:
        raise DomainError("the second-smallest label must be a leaf")
    return color_merge(t).tree


# -- all-improper trees <-> increasing plane trees --------------------------------


def plane_fwd(t: RootedTree) -> PlaneTree:
    """Map an all-improper rooted tree to an increasing plane tree: the min
    becomes the root and the pieces of its path to the old root become the
    ordered children, recursively."""
    if t.improper_count() != t.size - 1:
        raise DomainError("every edge must be improper")
    return _plane_rec(t)


def _plane_rec(t: RootedTree) -> PlaneTree:
    if t.size == 1:
        return PlaneTree(t.min_label)
    pm = _pm(t)
    path = t.path_to_root(t.min_label)
    kids = []
    prev_labels = {t.min_label}
    for vi in path[1:]:
        piece = set(t.subtree_labels(vi)) - prev_labels
        sub = _from_pmap({u: (pm[u] if u != vi else 0) for u in piece})
        kids.append(_plane_rec(sub))
        prev_labels |= piece
    return PlaneTree(t.min_label, tuple(kids))


def plane_inv(p: PlaneTree) -> RootedTree:
    """Inverse of `plane_fwd`: rebuild the root path from the ordered
    children, right to left."""
    p.check_labels()
    if not p.is_increasing():
        raise DomainError("plane tree must be increasing")
    pm, _ = _plane_inv_rec(p)
    return _from_pmap(pm)


def _plane_inv_rec(p: PlaneTree) -> tuple[dict[int, int], int]:
    if not p.children:
        return {p.label: 0}, p.label
    pm: dict[int, int] = {}
    heads = []
    for c in p.children:
        sub_pm, head = _plane_inv_rec(c)
        pm.update(sub_pm)
        heads.append(head)
    for lower_head, upper_head in zip(heads, heads[1:]):
        pm[lower_head] = upper_head
    pm[p.label] = heads[0]
    return pm, heads[-1]
