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

from .trees import PlaneTree, RootedTree, TreeError, _from_pmap, _moved

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


def _note(trace, msg) -> None:
    if trace is not None:
        trace.append(msg)


# -- lowering and lifting ------------------------------------------------------


def lower(t: RootedTree, trace: list | None = None) -> RootedTree:
    """Reverse the path from the max label up to the upper critical node, so
    the max label takes the critical node's place.  Adds one improper edge
    and removes one proper edge from the max-to-root path."""
    mx = t.max_label
    try:
        w = t.upper_critical()
    except TreeError:
        raise DomainError("no proper edge on the path from the max label to the root") from None
    path = t.path_to_root(mx)
    seg = path[: path.index(w) + 1]
    _note(trace, f"lower: reverse {seg} at critical node {w}")
    return _moved(t, {mx: t.parent(w) or 0, **dict(zip(seg[1:], seg))})


def lift(t: RootedTree, trace: list | None = None) -> RootedTree:
    """Inverse of `lower`: reverse the path from the max label down to the
    lower critical node, which takes the max label's place."""
    mx = t.max_label
    if t.degree(mx) == 0:
        raise DomainError("max label is a leaf")
    lam = t.lower_critical()
    up = t.path_to_root(lam)
    seg = up[up.index(mx)::-1]
    _note(trace, f"lift: reverse {seg} at critical node {lam}")
    return _moved(t, {**dict(zip(seg, seg[1:])), lam: t.parent(mx) or 0})


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
    return _moved(t, {v: 0, **dict.fromkeys(heads, w)}), w, heads


def _descend_to_attach(t: RootedTree, r: int, bound: int) -> int:
    # RootedTree._attach on labels; a segment with no such node is corrupt.
    z = t._attach(t._pos(r), t._pos(bound))
    if not z:
        raise ReconstructionError("no attachment node found on a segment")
    return t.labels[z - 1]


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
    return _moved(t, {heads[0]: 0, **dict(zip(heads[1:], attach)), t.root: mn})


# -- the four-case surgery on R(0) classes ------------------------------------


def _graft(sub: RootedTree, parent: int) -> dict[int, int]:
    # Moves that put sub's labels back as they sit in sub, with sub's root
    # hung under `parent`.
    return {u: p or parent for u, p in zip(sub.labels, sub.parents)}


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

    to_max = dict.fromkeys(t.children(mn), mx)  # in every case
    if al > bs:
        # alpha takes the max's place and children; it may itself be a child
        # of the max, so its own entry must come after theirs
        q = t.parent(al)
        _note(trace, CaseTag(Case.B, located=al))
        return _moved(t, {**dict.fromkeys(t.children(mx), al), al: t.parent(mx) or 0,
                          mx: q if q != mx else al, **to_max})

    if not under:
        _note(trace, CaseTag(Case.A))
        return _moved(t, to_max)

    if t.degree(mx) >= 2:
        kids = sorted(t.children(mx), key=t.beta)
        b1, b2 = kids[0], kids[1]
        limit = bs if len(kids) < 3 else min(bs, t.beta(kids[2]))
        ci = _descend_to_attach(t, b2, limit)
        _note(trace, CaseTag(Case.C, located=ci))
        return _moved(t, {b1: ci, **to_max})

    # case D: all but the min's lowest child subtree go under the max first,
    # then what stays under the max's only child is folded
    b = t.children(mx)[0]
    a_kids = sorted(t.children(mn), key=t.beta)
    t1 = _moved(t, dict.fromkeys(a_kids[1:], mx))
    folded, w, heads = _fold_with_info(t1.subtree(b), trace)
    _note(trace, CaseTag(Case.D, located=w, boundaries=heads))
    return _moved(t1, _graft(folded, mx))


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
        _note(trace, CaseTag(Case.A))
        return _moved(t, dict.fromkeys(kids[:m], mn))

    if not under:
        t2 = _moved(t, dict.fromkeys(t.children(mx), mn))
        path = t2.path_to_root(mx)[::-1]
        pair = next(((y, c) for y, c in zip(path, path[1:]) if t2.is_proper(c)), None)
        if pair is None:
            raise ReconstructionError("no proper edge on the root-to-max path")
        y, on_path = pair
        high = [c for c in t2.children(y) if c != on_path and t2.beta(c) > y]
        _note(trace, CaseTag(Case.B, located=y))
        # y and the max trade places: the max takes y's parent and y's other
        # children; y takes the max's place, a leaf in t2, and adopts the high
        # children.  When the max is a child of y, the later entries hang y
        # under it.
        q = t2.parent(mx)
        return _moved(t2, {**dict.fromkeys(t2.children(y), mx), **dict.fromkeys(high, y),
                           mx: t2.parent(y) or 0, y: mx if q == y else q})

    if t.degree(mx) > m:
        x = t.lower_critical()
        kids = sorted(t.children(mx), key=t.beta, reverse=True)
        holder = next(c for c in t.children(x) if t.beta(c) == mn)
        _note(trace, CaseTag(Case.C, located=x))
        return _moved(t, {**dict.fromkeys(kids[:m], mn), holder: mx})

    holder = next(c for c in t.children(mx) if t.beta(c) == mn)
    sub = unfold_stem(t.subtree(holder), trace)
    _note(trace, CaseTag(Case.D, located=sub.root))
    return _moved(t, {**dict.fromkeys(t.children(mx), mn), **_graft(sub, mx)})


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
    if x == y or t.degree(mx) > 0:
        which = "shared branch" if x == y else "max already internal"
        _note(trace, f"case: {which}; recurse into branch {x}")
        return _moved(t, _graft(rooted_fwd(t.subtree(x), trace), mn))
    _note(trace, f"case: leaf max in branch {y}; swap roles across {x}/{y}")
    sub_x, sub_y = t.subtree(x), t.subtree(y)
    lifted = sub_x.relabel([u for u in sub_x.labels if u != second] + [mx])
    lowered = sub_y.relabel([second] + [u for u in sub_y.labels if u != mx])
    # the two branches trade `second` and the max, so the grafts cover them
    return _moved(t, {**_graft(rooted_fwd(lifted, trace), mn), **_graft(lowered, mn)})


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
    if u == v:
        _note(trace, f"case: shared branch; recurse into branch {u}")
        return _moved(t, _graft(rooted_inv(t.subtree(u), trace), mn))
    sub_v = t.subtree(v)
    if sub_v.degree(sub_v.max_label) > 0:
        _note(trace, f"case: branch {v} max internal; recurse into it")
        return _moved(t, _graft(rooted_inv(sub_v, trace), mn))
    _note(trace, f"case: swapped roles; recurse into branch {u} and relabel")
    back = rooted_inv(t.subtree(u), trace)
    restored_x = back.relabel([second] + [w for w in back.labels if w != mx])
    restored_y = sub_v.relabel([w for w in sub_v.labels if w != second] + [mx])
    return _moved(t, {**_graft(restored_x, mn), **_graft(restored_y, mn)})


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
    n = _require_contiguous(t)
    return RootedTree(tuple(range(1, n + 2)), (0,) + tuple(
        1 if (p == 0 or v in c.black) else p + 1 for v, p in zip(t.labels, t.parents)))


def color_merge(t: RootedTree) -> ColoredRootedTree:
    """Inverse of `color_split`: the root's child holding the shifted old min
    is the uncolored part; the other child subtrees re-attach to the min as
    its black children."""
    n = _require_contiguous(t) - 1
    if n < 1 or t.root != 1:
        raise DomainError("expected a tree on [n+1] rooted at 1")
    holder = next(c for c in t.children(1) if t.beta(c) == 2)
    black = frozenset(c - 1 for c in t.children(1) if c != holder)
    parents = tuple((0 if v == holder else 1) if p == 1 else p - 1
                    for v, p in zip(t.labels[1:], t.parents[1:]))
    return ColoredRootedTree(RootedTree(tuple(range(1, n + 1)), parents), black)


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
    ordered children, and so on inside each piece."""
    if t.improper_count() != t.size - 1:
        raise DomainError("every edge must be improper")
    _, kids, low = t._arrays()
    # The successive pieces at u take its children in increasing beta: once
    # the branch of c is placed, the piece left at u is labelled by the next
    # child's beta, or by u after the last child.
    nxt: dict[int, int] = {}
    order = kids[0][:]
    for u in order:  # breadth-first: the list grows while it is walked
        by_beta = sorted(kids[u], key=low.__getitem__)
        nxt.update(zip(by_beta, [low[c] for c in by_beta[1:]] + [u]))
        order.extend(kids[u])
    # The plane children of m are the pieces left along the path up from m
    # through the nodes whose beta is m, the nearest first.
    plane: list = [[] for _ in kids]
    for c in reversed(order[1:]):  # deeper nodes first
        plane[low[c]].append(nxt[c])
    for m in range(t.size, 0, -1):  # each list becomes its node after its children
        plane[m] = PlaneTree(t.labels[m - 1], tuple([plane[c] for c in plane[m]]))
    return plane[1]


def plane_inv(p: PlaneTree) -> RootedTree:
    """Inverse of `plane_fwd`: rebuild the root path from the ordered
    children, right to left."""
    p.check_labels()
    if not p.is_increasing():
        raise DomainError("plane tree must be increasing")
    # Children before parents: the head of a subtree, the end of its
    # rightmost path, is the root of the tree rebuilt from it.
    head: dict[int, int] = {}
    pm: dict[int, int] = {}
    for node in reversed(list(p.iter_nodes())):
        heads = [head[c.label] for c in node.children]
        pm.update(zip([node.label] + heads, heads))  # node -> h_1 -> ... -> h_m
        head[node.label] = heads[-1] if heads else node.label
    pm[head[p.label]] = 0
    return _from_pmap(pm)
