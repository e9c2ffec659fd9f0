"""Seeded inputs for the pipe workload, generated on the benchmark side.

Every input is the exact text the `ramapoly bij` command would print for it,
so a round trip through a map and its inverse must reproduce it byte for
byte.  Trees live on [n] in the ptree v1 format; plane trees use the nested
parenthesis format.  Nothing here imports ramapoly: the program only ever
sees the generated text.
"""

from __future__ import annotations

import heapq
import random

# The eight `bij --map` choices, in the order one pipe round visits them.
MAPS = ("lower", "lift", "lemma36", "rooted", "unrooted", "color", "cor22", "plane")


def random_parents(rng: random.Random, n: int, root: int | None = None) -> list[int]:
    """Parent array (p_1, ..., p_n), 0 at the root, of a uniform labeled tree
    on [n] decoded from a uniform Pruefer code, rooted at `root` or, when it
    is None, at a uniform label (a uniform rooted labeled tree)."""
    if n == 1:
        return [0]
    code = [rng.randint(1, n) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for v in code:
        degree[v] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for v in code:
        leaf = heapq.heappop(leaves)
        adj[leaf].append(v)
        adj[v].append(leaf)
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    a, b = heapq.heappop(leaves), heapq.heappop(leaves)
    adj[a].append(b)
    adj[b].append(a)
    r = rng.randint(1, n) if root is None else root
    parent = [-1] * (n + 1)
    parent[r] = 0
    stack = [r]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if parent[w] < 0:
                parent[w] = u
                stack.append(w)
    return parent[1:]


def child_counts(parents: list[int]) -> list[int]:
    """deg(v) = number of children of label v, indexed 1..n (index 0 unused)."""
    deg = [0] * (len(parents) + 1)
    for p in parents:
        deg[p] += 1
    return deg


def proper_edge_on_max_path(parents: list[int]) -> bool:
    """True iff some edge (p, c) on the path from the max label n to the
    root is proper, i.e. p is below every label in the subtree of c."""
    n = len(parents)
    par = [0, *parents]
    beta = list(range(n + 1))
    for v in range(1, n + 1):
        u = par[v]
        while u and beta[u] > v:
            beta[u] = v
            u = par[u]
    c = n
    while par[c]:
        if par[c] < beta[c]:
            return True
        c = par[c]
    return False


def increasing_plane_text(rng: random.Random, n: int) -> str:
    """A uniform increasing plane tree on [n]: label v goes into one of the
    2v - 3 child slots of the tree on [v - 1], all equally likely."""
    kids: list[list[int]] = [[] for _ in range(n + 1)]
    slots = [1]  # node u is listed deg(u) + 1 times, once per slot it offers
    for v in range(2, n + 1):
        u = rng.choice(slots)
        kids[u].insert(rng.randint(0, len(kids[u])), v)
        slots.append(u)
        slots.append(v)

    def text(u: int) -> str:
        if not kids[u]:
            return str(u)
        return f"{u}({' '.join(text(c) for c in kids[u])})"

    return text(1)


def map_input(rng: random.Random, which: str, n: int) -> tuple[str, str, str]:
    """One request pair for map `which` on about n labels:
    (input text, first direction, second direction).  Trees are drawn
    uniformly and rejected until they lie in the first direction's domain."""
    if which == "plane":
        return increasing_plane_text(rng, n) + "\n", "inv", "fwd"
    while True:
        parents = random_parents(rng, n, root=1 if which == "unrooted" else None)
        deg = child_counts(parents)
        if which == "lower" and not proper_edge_on_max_path(parents):
            continue
        if which == "lift" and deg[n] == 0:
            continue
        if which == "rooted" and deg[1] == 0:
            continue
        if which == "lemma36" and deg[1] != 1:
            continue
        if which == "unrooted" and deg[2] == 0:
            continue
        text = " ".join(map(str, parents))
        if which == "color":
            black = [v for v, p in enumerate(parents, 1) if p == 1 and rng.random() < 0.5]
            if black:
                text += "\nblack: " + " ".join(map(str, black))
        return text + "\n", "fwd", "inv"


def requests(seed: int, n_min: int, n_max: int, rounds: int) -> list[tuple[str, str, str, str]]:
    """`rounds` rounds of seeded (map, input text, first dir, second dir),
    one request per map in MAPS order.  Each map's n is uniform in
    [n_min, n_max] and stratified: the rounds take n from the `rounds`
    equal slices of the range in a shuffled order, so the spread of sizes,
    and with it the latency percentiles, varies little from seed to seed."""
    rng = random.Random(seed)
    width = n_max - n_min + 1
    sizes = {}
    for which in MAPS:
        sizes[which] = [n_min + int((r + rng.random()) * width / rounds)
                        for r in range(rounds)]
        rng.shuffle(sizes[which])
    return [(which, *map_input(rng, which, sizes[which][r]))
            for r in range(rounds) for which in MAPS]
