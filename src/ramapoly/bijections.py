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
records (strings and CaseTag entries) for audits.  Every map works on label
positions; the colour maps, on [n], read them straight off the parent tuple,
and lower, plane_fwd and rooted_fwd's lowering read only up and low, so they
leave a read tree's core without kids.  The maps are pure: none changes its
input or its core, but to add the kids.  A single step writes only its
result's parents (`_moved`), which on small trees costs less than copying a
core; a run of lowers or lifts relinks one core per call (`_own`), along each
step's path only, and the tree it returns keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, compress

from .trees import PlaneTree, RootedTree, _check_labels, _moved

__all__ = [
    "DomainError",
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
        # one pass over the parents: the min's children that are black are all of them
        t, black = self.tree, self.black
        if black and len(black) != sum(map(black.__contains__, compress(
                t.labels, map(t.labels[0].__eq__, t.parents)))):
            raise DomainError("black nodes must be children of the min label")


# -- lowering and lifting ------------------------------------------------------


def lower(t: RootedTree, trace: list | None = None) -> RootedTree:
    """Reverse the path from the max label up to the upper critical node, so
    the max label takes the critical node's place.  Adds one improper edge
    and removes one proper edge from the max-to-root path."""
    return _lowered(t, _lower_path(t, trace))


def _lowered(t: RootedTree, seg: list[int]) -> RootedTree:
    # t lowered along seg from _lower_path, on a new tree: the max takes the place of w
    if not seg[-1]:
        raise DomainError("no proper edge on the path from the max label to the root")
    return _moved(t, {seg[0]: t._core[0][seg[-1]], **dict(zip(seg[1:], seg))})


def lift(t: RootedTree, trace: list | None = None) -> RootedTree:
    """Inverse of `lower`: reverse the path from the max label down to the
    lower critical node, which takes the max label's place."""
    up, kids, _ = t._arrays()
    n = len(up) - 1
    if not kids[n]:
        raise DomainError("max label is a leaf")
    seg = t._up_path(t._attach(n, n), n)  # from the lower critical node up to the max
    if trace is not None:
        trace.append(f"lift: reverse {t._names(seg[::-1])} at critical node {t.labels[seg[0] - 1]}")
    return _moved(t, {**dict(zip(seg[1:], seg)), seg[0]: up[n]})


def _own(t: RootedTree) -> RootedTree:
    # t as a new tree whose core (a copy of t's, completed, if built) the steps below relink
    s = RootedTree(t.labels, t.parents)
    if core := t._core and t._arrays():
        s._core = core[0][:], [*map(list, core[1])], core[2][:]
    return s


def _lowers(s: RootedTree, trace: list | None, times: int) -> RootedTree:
    # `times` lowerings of s on its own core: the max takes the subtree of w, and the others
    # on the path, from w down, what is left of it (w keeps its beta: the branch it gives
    # up, past its proper edge, lies above w)
    up, kids, low = s._arrays()
    for _ in range(times):
        seg = _lower_path(s, trace)
        low[seg[0]] = low[seg[-1]]
        _turn(up, kids, seg)
        for u in seg[-2:0:-1]:
            low[u] = min([u, *map(low.__getitem__, kids[u])])
    return _close(s)


def _lower_path(s: RootedTree, trace: list | None) -> list[int]:
    # the path from the max up to w, the head of its first proper edge, that lowering s turns
    # over, noted in trace; w is 0, and nothing noted, when the path has no proper edge
    up, _, low = s._core or s._arrays()
    seg = [len(up) - 1]
    while up[seg[-1]] > low[seg[-1]]:
        seg.append(up[seg[-1]])
    seg.append(w := up[seg[-1]])
    if w and trace is not None:
        trace.append(f"lower: reverse {s._names(seg)} at critical node {s.labels[w - 1]}")
    return seg


def _lifts(s: RootedTree, trace: list | None, times: int) -> RootedTree:
    # `times` lifts of s on its own core, each leaving the max a child.  A lift takes from
    # the max just its child of least beta: sorted last, it is read and dropped in O(1).
    up, kids, low = s._arrays()
    n = len(up) - 1
    kids[n] = sorted(kids[n], key=low.__getitem__, reverse=True)
    for _ in range(times):
        # _descend(kids, low, n, n) on the max's last two children: a node passed keeps its
        # side subtrees and those above it, the least of them `out`
        seg, i, target, out = [], n, low[n], n
        while i == n or i >= out:
            seg.append(i)
            for c in kids[n][-2:] if i == n else kids[i]:
                if low[c] == target:
                    nxt = c
                elif low[c] < out:
                    out = low[c]
            low[i] = out
            i = nxt
        seg.append(i)
        if trace is not None:
            trace.append(f"lift: reverse {s._names(seg)} at critical node {s.labels[i - 1]}")
        _turn(up, kids, seg[::-1])  # i, on the path toward the max's beta, keeps it
    return _close(s)


def _turn(up: list, kids: list, path: list[int]) -> None:
    # Turn the upward path (x, ..., y) over: each node hangs under the one below it
    # and x takes y's place.  Only x may be a leaf.
    x, y, q = path[0], path[-1], up[path[-1]]
    k = kids[q]
    k[k.index(y)] = x
    kids[x] = kids[x] or []
    for a, b in zip(path, path[1:]):
        k = kids[b]
        del k[-1 if k[-1] == a else k.index(a)]  # a lift's path leaves the max at its end
        kids[a].append(b)
        up[b] = a
    up[x] = q


def _close(s: RootedTree) -> RootedTree:
    # s with the parents of its relinked core, which it keeps
    up = s._core[0]
    s.parents = tuple(up[1:] if s.labels[-1] == len(up) - 1
                      else map((0, *s.labels).__getitem__, up[1:]))
    return s


# -- stem folding (deg(min)=1 <-> deg(min)=0) ----------------------------------


def fold_stem(t: RootedTree, trace: list | None = None) -> RootedTree:
    """Cut the path from the root down to the min label into segments and
    re-hang them, in order, under w = beta(child of min).

    Requires deg(min) = 1.  The result has deg(min) = 0, one more improper
    edge, and mu equal to the old beta*.
    """
    _, kids, _ = t._arrays()
    if len(kids[1]) != 1:
        raise DomainError("min label must have exactly one child")
    w, heads = _fold_heads(t, kids[0][0], kids[1][0], trace)
    return _moved(t, {kids[1][0]: 0, **dict.fromkeys(heads, w)})


def _fold_heads(t: RootedTree, top: int, v: int, trace: list | None) -> tuple[int, list[int]]:
    # Fold the stem from position `top` down to the min, whose child v stays
    # apart: w = beta(v) and the heads of the segments that go under w.  A
    # segment ends at a stem node below every position passed off the stem
    # (the first one also below w); the min always ends the last segment.
    _, kids, low = t._arrays()
    w = low[v]
    stem = t._up_path(1, top)[::-1]
    heads = [top]
    out = w  # a segment end u < w leaves out <= u, so w bounds only the first
    for u, nxt in zip(stem, stem[1:]):
        if u < out:
            heads.append(nxt)
        out = min(out, u, *[low[c] for c in kids[u] if c != nxt])
    if trace is not None:
        trace.append(f"fold: w={t.labels[w - 1]} segment heads at {t._names(heads)}")
    return w, heads


def unfold_stem(t: RootedTree, trace: list | None = None) -> RootedTree:
    """Inverse of `fold_stem`: split off the subtrees of w = mu whose minimum
    is below w, order them by decreasing minimum, chain them back into a
    root path, and hang the remainder under the min label."""
    up, kids, _ = t._arrays()
    if not up[1]:
        raise DomainError("min label must not be the root")
    if kids[1]:
        raise DomainError("min label must be a leaf")
    return _moved(t, _unfold(t, kids[0][0], 0, trace)[1])


def _unfold(t: RootedTree, top: int, parent: int, trace: list | None) -> tuple[int, dict]:
    # unfold_stem inside the subtree of position `top`, which holds the min
    # as a leaf below it: the new top and the moves, with the new top hung
    # under `parent`.  Each head's attachment node exists, since its beta is
    # below the bound (RootedTree._attach).
    _, kids, low = t._arrays()
    w = t._mu(t._up_path(1, top))
    # heads[-1] holds the min: the domain checks (min not root, lambda > min) put it below top
    heads = sorted([c for c in kids[w] if low[c] < w], key=low.__getitem__, reverse=True)
    bounds = [w] + [low[r] for r in heads[:-1]]
    attach = [t._attach(r, b) for r, b in zip(heads, bounds)]
    if trace is not None:
        trace.append(f"unfold: w={t.labels[w - 1]} segment heads {t._names(heads)} "
                     f"attach at {t._names(attach)}")
    return heads[0], {heads[0]: parent, **dict(zip(heads[1:], attach)), top: 1}


# -- the four-case surgery on R(0) classes ------------------------------------


def flatten_min(t: RootedTree, trace: list | None = None) -> RootedTree:
    """Move the min label's m subtrees away so it becomes a leaf, adding m
    improper edges while keeping the max-to-root path free of proper edges.

    Requires deg(min) = m >= 1 and no proper edge on the max-to-root path.
    The four cases cover: (A) min and max in separate branches with
    alpha < beta*; (B) alpha > beta*, which exchanges the max label with the
    subtree at alpha; (C) min under max with deg(max) >= 2; (D) min under
    max with deg(max) = 1, which folds the subtree holding the min.
    """
    up, kids, low = t._arrays()
    n = len(up) - 1
    if not kids[1]:
        raise DomainError("min label must have a child")
    if _lower_path(t, None)[-1]:
        raise DomainError("the max-to-root path must have no proper edge")
    assert kids[n], "a max leaf off the root would start with a proper edge"
    al = max([low[b] for b in kids[n]])
    bs = min([low[a] for a in kids[1]])

    moves = dict.fromkeys(kids[1], n)  # in every case
    located, heads = None, []
    if al > bs:
        # alpha takes the max's place and children; it may itself be a child
        # of the max, so its own entry must come after theirs
        case, located, q = Case.B, al, up[al]
        moves = {**dict.fromkeys(kids[n], al), al: up[n], n: q if q != n else al, **moves}
    elif low[n] != 1:  # the min is not under the max
        case = Case.A
    elif len(kids[n]) >= 2:
        b1, b2, *rest = sorted(kids[n], key=low.__getitem__)
        # beta(b2) <= alpha < beta*, so the attachment node exists
        case, located = Case.C, t._attach(b2, min(bs, low[rest[0]]) if rest else bs)
        moves[b1] = located
    else:
        # the stem from the max's only child down to the min folds under w,
        # the beta of the min's lowest child
        case = Case.D
        located, heads = _fold_heads(t, kids[n][0], min(kids[1], key=low.__getitem__), trace)
        moves.update(dict.fromkeys(heads, located))
    if trace is not None:
        trace.append(CaseTag(case, located and t.labels[located - 1], t._names(heads)))
    return _moved(t, moves)


def unflatten_min(t: RootedTree, m: int, trace: list | None = None) -> RootedTree:
    """Inverse of `flatten_min` for a known original min degree m."""
    up, kids, low = t._arrays()
    n = len(up) - 1
    if m < 1:
        raise DomainError("m must be >= 1")
    if kids[1]:
        raise DomainError("min label must be a leaf")
    if _lower_path(t, None)[-1]:
        raise DomainError("the max-to-root path must have no proper edge")
    if len(kids[n]) < m:
        raise DomainError("max label needs at least m children")
    lam = t._attach(n, n)
    if lam == 1:
        raise DomainError("the lower critical node must exceed the min label")

    to_min = dict.fromkeys(kids[n], 1)
    if len(kids[n]) > m:
        # cases A and C: the m children of highest beta go back to the min
        moves = dict.fromkeys(sorted(kids[n], key=low.__getitem__, reverse=True)[:m], 1)
        if low[n] != 1:  # the min is not under the max
            case, located = Case.A, None
        else:
            case, located = Case.C, lam
            moves[next(c for c in kids[lam] if low[c] == 1)] = n
    elif low[n] != 1:
        # case B: y heads the first proper edge down from the root to the max in
        # t2, where the max's children hang under the min.
        t2 = _moved(t, to_min)
        up, kids, low = t2._arrays()
        path = t2._up_path(n)[::-1]
        # found: deg(max) = m and low[n] != 1 make the max a non-root leaf of t2, its edge proper
        y, on_path = next((y, c) for y, c in zip(path, path[1:]) if y < low[c])
        high = [c for c in kids[y] if c != on_path and low[c] > y]
        # y and the max trade places: the max takes y's parent and other
        # children; y takes the max's place, a leaf in t2, and adopts the high
        # children.  When the max is a child of y, the last entry hangs y under it.
        q = up[n]
        case, located = Case.B, y
        moves = {**to_min, **dict.fromkeys(kids[y], n), **dict.fromkeys(high, y),
                 n: up[y], y: n if q == y else q}
    else:
        holder = next(c for c in kids[n] if low[c] == 1)
        located, moves = _unfold(t, holder, n, trace)
        case, moves = Case.D, {**to_min, **moves}
    if trace is not None:
        trace.append(CaseTag(case, located and t.labels[located - 1]))
    return _moved(t, moves)


# -- the rooted-tree bijection --------------------------------------------------


def rooted_fwd(t: RootedTree, trace: list | None = None) -> RootedTree:
    """R_{n,k}[deg(min)>0] -> R_{n,k+1}[deg(max)>0]: one lowering step when
    the max-to-root path has a proper edge, otherwise flatten_min followed
    by deg(min)-1 lifts."""
    if t.labels[0] not in t.parents:
        raise DomainError("min label must have a child")
    note = None if trace is None else []  # the lowering's record, which follows the route's
    seg = _lower_path(t, note)
    if seg[-1]:
        if trace is not None:
            trace += [f"route: {t.proper_on_max_path()} proper edges on the max path -> lower", *note]
        return _lowered(t, seg)
    m = t.parents.count(t.labels[0])
    if trace is not None:
        trace.append(f"route: flatten (m={m}) then {m - 1} lifts")
    out = flatten_min(t, trace)
    return _lifts(_own(out), trace, m - 1) if m > 1 else out


def rooted_inv(t: RootedTree, trace: list | None = None) -> RootedTree:
    """Inverse of `rooted_fwd`: lift when deg(min)>0 or lambda is the min
    label; otherwise lower down to the zero-proper-path class and unflatten."""
    kids = t._arrays()[1]
    n = len(kids) - 1
    if not kids[n]:
        raise DomainError("max label must have a child")
    if kids[1] or t._attach(n, n) == 1:
        if trace is not None:
            trace.append("route: lift")
        return lift(t, trace)
    i = t.proper_on_max_path()
    if trace is not None:
        trace.append(f"route: {i} lowers then unflatten (m={i + 1})")
    return unflatten_min(_lowers(_own(t), trace, i), i + 1, trace)


# -- the min-rooted ("unrooted") bijection --------------------------------------


def _branch(t: RootedTree, i: int) -> tuple[int, list[int], list[int]]:
    # the root's child above position i > 1, its subtree's positions, increasing, and
    # their parents by rank in that list (0: the root, above it)
    up, kids, _ = t._arrays()
    top = t._up_path(i)[-2]
    mask, todo = bytearray(len(up)), [top]
    for u in todo:  # breadth-first: the list grows while it is walked
        mask[u] = 1
        todo.extend(kids[u])
    sub, rank = list(compress(range(len(up)), mask)), list(accumulate(mask))
    return top, sub, list(map(rank.__getitem__, map(up.__getitem__, sub)))


def _regraft(t: RootedTree, ups: list[int], onto: list[int], fn=None, trace=None) -> tuple:
    # (onto, parents aligned to it) of the tree on the labels at `onto` whose parents by
    # rank are `ups` (0: the root of t), after fn if given.  Its positions are the ranks,
    # so its core is built from `ups` with no label lookup.
    names = (0, *map((0, *t.labels).__getitem__, onto))
    parents = tuple(map(names.__getitem__, ups))
    if fn is None:
        return onto, parents
    u = RootedTree(names[1:], parents)
    u._arrays(ups)
    return onto, fn(u, trace).parents


def _rehung(t: RootedTree, *branches: tuple[list[int], tuple]) -> RootedTree:
    # t with the parents (onto, parents) of each branch, from _regraft, written over its own
    moves = {i: p or t.labels[0] for onto, parents in branches for i, p in zip(onto, parents)}
    return RootedTree(t.labels, tuple(map(moves.get, range(1, len(t.labels) + 1), t.parents)))


def unrooted_fwd(t: RootedTree, trace: list | None = None) -> RootedTree:
    """T_{n+1,k}[deg(2)>0, deg(1)=r] -> T_{n+1,k+1}[deg(n+1)>0, deg(1)=r]
    on trees rooted at their min label; preserves the root degree."""
    up, kids, _ = t._arrays()
    n = len(up) - 1
    if up[1]:
        raise DomainError("tree must be rooted at its min label")
    if n < 2:
        raise DomainError("need at least two labels")
    if not kids[2]:
        raise DomainError("second-smallest label must have a child")
    x, sub_x, ups_x = _branch(t, 2)  # the root's branch that holds the second-smallest label
    if sub_x[-1] == n or kids[n]:
        which = "shared branch" if sub_x[-1] == n else "max already internal"
        if trace is not None:
            trace.append(f"case: {which}; recurse into branch {t.labels[x - 1]}")
        return _rehung(t, _regraft(t, ups_x, sub_x, rooted_fwd, trace))
    y, sub_y, ups_y = _branch(t, n)
    if trace is not None:
        trace.append(f"case: leaf max in branch {t.labels[y - 1]}; "
                     f"swap roles across {t.labels[x - 1]}/{t.labels[y - 1]}")
    # the two branches trade the second-smallest label and the max
    return _rehung(t, _regraft(t, ups_x, sub_x[1:] + [n], rooted_fwd, trace),
                   _regraft(t, ups_y, [2] + sub_y[:-1]))


def unrooted_inv(t: RootedTree, trace: list | None = None) -> RootedTree:
    """Inverse of `unrooted_fwd`."""
    up, kids, _ = t._arrays()
    n = len(up) - 1
    if up[1]:
        raise DomainError("tree must be rooted at its min label")
    if n < 2 or not kids[n]:
        raise DomainError("max label must have a child")
    v, sub_v, ups_v = _branch(t, 2)  # the root's branch that holds the second-smallest label
    if kids[sub_v[-1]]:  # always when the max is in it
        if trace is not None:
            trace.append(f"case: shared branch; recurse into branch {t.labels[v - 1]}"
                         if sub_v[-1] == n else f"case: branch {t.labels[v - 1]} max internal; "
                                                "recurse into it")
        return _rehung(t, _regraft(t, ups_v, sub_v, rooted_inv, trace))
    u, sub_u, ups_u = _branch(t, n)
    if trace is not None:
        trace.append(f"case: swapped roles; recurse into branch {t.labels[u - 1]} and relabel")
    # the inverse runs on the branch as it is; then the two branches trade back
    back = _regraft(t, ups_u, sub_u, rooted_inv, trace)[1]  # labels at sub_u: to ranks
    rank = dict(zip((0, *t._names(sub_u)), range(len(sub_u) + 1)))
    return _rehung(t, _regraft(t, list(map(rank.__getitem__, back)), [2] + sub_u[:-1]),
                   _regraft(t, ups_v, sub_v[1:] + [n]))


# -- coloring equivalence and the fresh-root map ---------------------------------


def _require_contiguous(t: RootedTree) -> int:
    n = t.size
    if t.labels[-1] != n:  # the sorted distinct positive labels are not 1..n
        raise DomainError("this map needs labels exactly 1..n")
    return n


def color_split(c: ColoredRootedTree) -> RootedTree:
    """Turn a tree on [n] with black-marked children of the min into a tree
    on [n+1] rooted at 1: a fresh smallest root adopts the black subtrees
    and the rest of the tree, and labels shift up by one."""
    t = c.tree
    n = _require_contiguous(t)
    # the old root's parent 0 shifts to 1, the fresh root, as the black children's do
    return RootedTree(tuple(range(1, n + 2)), (0,) + tuple(
        1 if v in c.black else p + 1 for v, p in zip(t.labels, t.parents)))


def color_merge(t: RootedTree) -> ColoredRootedTree:
    """Inverse of `color_split`: the root's child holding the shifted old min
    is the uncolored part; the other child subtrees re-attach to the min as
    its black children."""
    n = _require_contiguous(t) - 1
    if n < 1 or t.root != 1:
        raise DomainError("expected a tree on [n+1] rooted at 1")
    holder = 2  # climb to the root's child whose subtree holds 2
    while t.parents[holder - 1] != 1:
        holder = t.parents[holder - 1]
    black, parents = [], []  # one pass: label v + 1 of t becomes v
    for v, p in enumerate(t.parents[1:], 1):
        if p != 1:
            parents.append(p - 1)
        elif v + 1 == holder:
            parents.append(0)
        else:
            parents.append(1)
            black.append(v)
    return ColoredRootedTree(RootedTree(tuple(range(1, n + 1)), tuple(parents)), frozenset(black))


def insert_root(t: RootedTree) -> RootedTree:
    """R_{n,k}[deg(1)=r] -> T_{n+1,k}[deg(1)=r+1, deg(2)=0]: a fresh smallest
    root adopts the whole tree and the min label's children, i.e.
    `color_split` with every child of the min colored black."""
    return color_split(ColoredRootedTree(t, frozenset(t.children(t.min_label))))


def extract_root(t: RootedTree) -> RootedTree:
    """Inverse of `insert_root`."""
    if t.size > 1 and t.labels[1] in t.parents:
        raise DomainError("the second-smallest label must be a leaf")
    return color_merge(t).tree


# -- all-improper trees <-> increasing plane trees --------------------------------


def plane_fwd(t: RootedTree) -> PlaneTree:
    """Map an all-improper rooted tree to an increasing plane tree: the min
    becomes the root and the pieces of its path to the old root become the
    ordered children, and so on inside each piece."""
    if t.improper_count() != t.size - 1:
        raise DomainError("every edge must be improper")
    up, _, low = t._core
    # The plane children of m: the pieces left along the path up from m through
    # the nodes whose beta is m, nearest first.  piece[c], the one left at up[c]
    # once c's branch is placed, is the next child's beta in beta order, or up[c].
    N = len(up)
    order = sorted(range(1, N), key=[p * N + b for p, b in zip(up, low)].__getitem__)
    piece = [0] * N
    for a, b in zip(order, [*order[1:], 0]):  # sorted by (parent, beta); slot 0 ends the last
        piece[a] = low[b] if up[b] == up[a] else up[a]
    pre, degrees, stack = [], [], [1]  # the preorder, by position
    while stack:
        pre.append(m := stack.pop())
        if low[m] != m or not up[m]:  # no plane children: most nodes
            degrees.append(0)
            continue
        kept, c = len(stack), m
        while low[c] == m and up[c]:
            stack.append(piece[c])
            c = up[c]
        degrees.append(len(stack) - kept)
        stack[kept:] = reversed(stack[kept:])
    return PlaneTree(t._names(pre), tuple(degrees))


def plane_inv(p: PlaneTree) -> RootedTree:
    """Inverse of `plane_fwd`: rebuild the root path from the ordered
    children, right to left."""
    # Children before parents: each subtree read waits on a stack, the leftmost on top, as
    # (label, head); its head, the end of its rightmost path, roots the tree rebuilt from it.
    pm: dict[int, int] = {}
    stack: list[tuple[int, int]] = []
    falls = False  # whether a child fell below its parent
    for v, d in zip(reversed(p.labels), reversed(p.degrees)):
        h = v  # a leaf heads its own subtree
        for _ in range(d):  # the children, leftmost first: v -> h_1 -> ... -> h_d
            c, head = stack.pop()
            falls = falls or c <= v
            pm[h] = head
            h = head
        stack.append((v, h))
    _check_labels(p.labels)  # a bad label is reported before a fall
    if falls:
        raise DomainError("plane tree must be increasing")
    pm[stack[0][1]] = 0
    labels = tuple(sorted(pm))
    return RootedTree(labels, tuple(map(pm.__getitem__, labels)))
