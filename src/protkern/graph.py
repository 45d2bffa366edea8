"""Simple undirected graphs with dense 0..n-1 vertex ids, generators, and text I/O."""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

from .errors import EdgeListParseError

INFINITY = math.inf


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices {0..n-1}."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative vertex count")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range or not normalized")

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        return Graph(n, frozenset(_norm_edge(u, v) for u, v in edges))

    @classmethod
    def _derived(cls, n: int, edges: frozenset, masks: tuple | None = None) -> "Graph":
        """A graph built from a valid one, whose edges are normalized and in
        range by construction: no per-edge check.  `masks`, when given, seeds
        adj_masks."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, edges=edges)
        if masks is not None:
            g.__dict__["adj_masks"] = masks
        return g

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        """Open-neighborhood bitmasks, for brute-force subset loops."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def _lowpoint(self) -> tuple:
        """One lowpoint DFS, roots least vertex first: (preorder, preorder
        position of each vertex, lowpoint and subtree size per position,
        first position of each component followed by n).

        A vertex's subtree is the span of its size from its position, and its
        children's subtrees tile that span after it, so no child lists are
        kept.  The lowpoint is the least position in the subtree or adjacent
        to it, so a child's subtree is cut off by its parent at position p iff
        its lowpoint is at least p.
        """
        n, masks = self.n, self.adj_masks
        pre, index, parent, starts = [], [0] * n, [-1] * n, []
        unseen = (1 << n) - 1
        while unseen:
            root = (unseen & -unseen).bit_length() - 1
            unseen ^= 1 << root
            starts.append(len(pre))
            index[root] = len(pre)
            pre.append(root)
            path = [root]
            while path:
                nxt = masks[path[-1]] & unseen
                if not nxt:
                    path.pop()
                    continue
                bit = nxt & -nxt
                unseen ^= bit
                w = bit.bit_length() - 1
                parent[len(pre)] = index[path[-1]]
                index[w] = len(pre)
                pre.append(w)
                path.append(w)
        low = list(range(n))
        for u, v in self.edges:
            iu, iv = index[u], index[v]
            if iu > iv:
                iu, iv = iv, iu
            if iu < low[iv]:
                low[iv] = iu
        size = [1] * n
        for q in range(n - 1, 0, -1):
            p = parent[q]
            if p >= 0:
                size[p] += size[q]
                if low[q] < low[p]:
                    low[p] = low[q]
        starts.append(n)
        return pre, index, low, size, starts

    @property
    def m(self) -> int:
        return len(self.edges)


def parse_edge_list(text: str) -> Graph:
    """Parse "n m" header plus "u v" lines (0-indexed). Duplicate edges collapse."""
    lines = [ln for ln in text.splitlines()]
    if not lines or not lines[0].strip():
        raise EdgeListParseError("line 1: missing 'n m' header")
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListParseError("line 1: header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise EdgeListParseError("line 1: header must be two integers") from None
    if n < 0 or m < 0:
        raise EdgeListParseError("line 1: negative count in header")
    edges = set()
    seen = 0
    for idx, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"line {idx}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"line {idx}: non-integer endpoint") from None
        if u == v:
            raise EdgeListParseError(f"line {idx}: self-loop at {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(f"line {idx}: endpoint out of range [0,{n})")
        edges.add(_norm_edge(u, v))
        seen += 1
    if seen != m:
        raise EdgeListParseError(f"header announces {m} edges, found {seen} edge lines")
    return Graph(n, frozenset(edges))


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# deterministic graph families


@dataclass(frozen=True)
class FamilySpec:
    """Deterministic generator spec; identical (spec, seed) gives identical graphs."""

    kind: str
    params: tuple[int, ...] = ()
    seed: int = 0
    parts: tuple["FamilySpec", ...] = field(default=())

    def __str__(self) -> str:
        if self.kind == "disjoint-union":
            return "+".join(str(p) for p in self.parts)
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"


# kind -> accepted parameter counts and the form they take
FAMILY_FORMS = {
    "grid": ((2,), "grid:A,B"),
    "path": ((1,), "path:N"),
    "cycle": ((1,), "cycle:N"),
    "star-of-paths": ((2,), "star-of-paths:K,LENGTH"),
    "grid-with-pendant-paths": ((4,), "grid-with-pendant-paths:A,B,NPATHS,LENGTH"),
    "random-sparse": ((1, 2), "random-sparse:N[,PERCENT]"),
}


def parse_family(text: str, seed: int = 0) -> FamilySpec:
    """Parse e.g. "grid:3,3", "star-of-paths:4,2", "grid:2,2+cycle:5"."""
    if "+" in text:
        parts = tuple(parse_family(p, seed) for p in text.split("+"))
        return FamilySpec("disjoint-union", (), seed, parts)
    kind, _, rest = text.partition(":")
    if kind not in FAMILY_FORMS:
        raise ValueError(f"unknown family kind '{kind}'")
    try:
        params = tuple(int(x) for x in rest.split(",")) if rest else ()
    except ValueError:
        params = None  # a parameter that is not an integer
    counts, form = FAMILY_FORMS[kind]
    if params is None or len(params) not in counts:
        raise ValueError(f"family '{kind}' takes the form {form}")
    return FamilySpec(kind, params, seed)


def _grid(a: int, b: int) -> Graph:
    if a <= 0 or b <= 0:
        raise ValueError("grid dimensions must be positive")
    edges = []
    vid = lambda i, j: i * b + j
    for i in range(a):
        for j in range(b):
            if j + 1 < b:
                edges.append((vid(i, j), vid(i, j + 1)))
            if i + 1 < a:
                edges.append((vid(i, j), vid(i + 1, j)))
    return Graph.from_edges(a * b, edges)


def _path(n: int) -> Graph:
    if n <= 0:
        raise ValueError("path length must be positive")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _star_of_paths(k: int, length: int) -> Graph:
    """Hub vertex 0 with k pendant paths of `length` edges each."""
    if k <= 0 or length <= 0:
        raise ValueError("star-of-paths parameters must be positive")
    edges = []
    nxt = 1
    for _ in range(k):
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph.from_edges(nxt, edges)


def _grid_with_pendant_paths(a: int, b: int, npaths: int, plen: int) -> Graph:
    """a x b grid with npaths pendant paths of plen edges, attached round-robin."""
    if npaths <= 0 or plen <= 0:
        raise ValueError("pendant path parameters must be positive")
    base = _grid(a, b)
    edges = list(base.edges)
    nxt = base.n
    for i in range(npaths):
        prev = i % base.n
        for _ in range(plen):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph.from_edges(nxt, edges)


def _random_sparse(n: int, percent: int, seed: int) -> Graph:
    """Each pair independently with probability percent/100; not planarity-safe."""
    if n <= 0 or not (0 <= percent <= 100):
        raise ValueError("random-sparse needs n > 0 and percent in [0,100]")
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < percent / 100.0:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


def disjoint_union(graphs: list[Graph]) -> Graph:
    edges = []
    off = 0
    for g in graphs:
        edges.extend((u + off, v + off) for u, v in g.edges)
        off += g.n
    return Graph.from_edges(off, edges)


def generate(spec: FamilySpec) -> Graph:
    kind, p = spec.kind, spec.params
    if kind == "grid":
        return _grid(*p)
    if kind == "path":
        return _path(*p)
    if kind == "cycle":
        return _cycle(*p)
    if kind == "star-of-paths":
        return _star_of_paths(*p)
    if kind == "grid-with-pendant-paths":
        return _grid_with_pendant_paths(*p)
    if kind == "random-sparse":
        return _random_sparse(p[0], p[1] if len(p) > 1 else 25, spec.seed)
    if kind == "disjoint-union":
        return disjoint_union([generate(s) for s in spec.parts])
    raise ValueError(f"unknown family kind '{kind}'")


# ---------------------------------------------------------------------------
# basic graph operations


def distances_from(g: Graph, sources) -> dict[int, float]:
    """Multi-source BFS hop distances; unreachable vertices map to INFINITY."""
    sources = set(sources)
    for s in sources:
        if not (0 <= s < g.n):
            raise ValueError(f"source {s} out of range")
    dist: dict[int, float] = {v: INFINITY for v in range(g.n)}
    frontier = list(sources)
    for s in frontier:
        dist[s] = 0
    d = 0
    while frontier:
        nxt = []
        d += 1
        for u in frontier:
            for w in g.adj[u]:
                if dist[w] == INFINITY:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def induced_masks(host: tuple, remap: dict[int, int]) -> list[int]:
    """Adjacency masks of the subgraph induced on remap's keys, given the host
    graph's masks; v becomes remap[v], and remap is onto 0..len(remap)-1."""
    inside, masks = sum(1 << v for v in remap), [0] * len(remap)
    for u, i in remap.items():
        later = host[u] & inside & -(2 << u)  # neighbors above u: each edge once
        while later:
            low = later & -later
            later ^= low
            w = remap[low.bit_length() - 1]
            masks[i] |= 1 << w
            masks[w] |= 1 << i
    return masks


def induced_subgraph(g: Graph, X) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on X, relabeled in ascending order, with seeded
    adjacency masks; returns (graph, old->new map)."""
    remap = {v: i for i, v in enumerate(sorted(X))}
    masks, edges = induced_masks(g.adj_masks, remap), []
    for i, m in enumerate(masks):
        m &= -(2 << i)  # neighbors above i
        while m:
            edges.append((i, (m & -m).bit_length() - 1))
            m &= m - 1
    return Graph._derived(len(masks), frozenset(edges), tuple(masks)), remap


def connected_components(g: Graph, without=()) -> list[list[int]]:
    """Vertex lists of the components of G - without, in least-vertex order.

    A single removed vertex is answered from the graph's cached lowpoint
    search (see Graph._lowpoint); any other set is masked in a search on the
    cached adjacency sets, which never builds G - without.  Sets beat masks
    here: an exhaustive scan searches one sparse graph for every cut set.
    """
    if len(without) == 1:
        for v in without:
            return _components_without(g, v)
    adj, seen = g.adj, [False] * g.n
    for v in without:
        seen[v] = True
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        for u in comp:
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        comps.append(comp)
    return comps


def _components_without(g: Graph, v: int) -> list[list[int]]:
    """Components of G - v as preorder spans: each child subtree of v with
    lowpoint at least v's position, the rest of v's component with the other
    child subtrees, and every other component of G."""
    pre, index, low, size, starts = g._lowpoint
    p = index[v]
    i = bisect_right(starts, p) - 1
    rest, cut_off = pre[starts[i] : p], []
    q, end = p + 1, p + size[p]
    while q < end:
        if low[q] >= p:
            cut_off.append(pre[q : q + size[q]])
        else:
            rest += pre[q : q + size[q]]
        q += size[q]
    rest += pre[end : starts[i + 1]]
    # roots are least vertices, so only the cut-off subtrees need placing
    comps = list(map(pre.__getitem__, map(slice, starts[:i], starts[1 : i + 1]))) if i else []
    if rest:
        comps.append(rest)
    later = []
    if i + 2 < len(starts):
        later = list(map(pre.__getitem__, map(slice, starts[i + 1 : -1], starts[i + 2 :])))
    later += cut_off
    if cut_off and len(later) > 1:
        later.sort(key=min)
    return comps + later


def articulation_points(g: Graph) -> list[int]:
    """Cut vertices in ascending order, from the graph's cached lowpoint
    search: a root with two child subtrees, or another vertex with a child
    subtree it cuts off."""
    pre, _, low, size, starts = g._lowpoint
    roots, cut = set(starts), []
    for p in range(g.n):
        q, end, cut_off = p + 1, p + size[p], 0
        while q < end:
            cut_off += low[q] >= p
            q += size[q]
        if cut_off > (p in roots):
            cut.append(pre[p])
    return sorted(cut)
