"""Boundaried graphs: gluing, splitting at a boundary, canonization, enumeration."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CanonizationCapExceeded
from .graph import Graph, induced_masks, induced_subgraph

CANONIZATION_CAP = 10


@dataclass(frozen=True)
class BoundariedGraph:
    """Graph with an ordered, injectively labeled boundary."""

    graph: Graph
    boundary: tuple[int, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.boundary) != len(self.labels):
            raise ValueError("boundary and labels differ in length")
        if len(set(self.boundary)) != len(self.boundary):
            raise ValueError("boundary vertices must be distinct")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be injective")
        for v in self.boundary:
            if not (0 <= v < self.graph.n):
                raise ValueError(f"boundary vertex {v} not in graph")
        for l in self.labels:
            if l <= 0:
                raise ValueError("labels must be positive")

    @property
    def label_set(self) -> frozenset[int]:
        return frozenset(self.labels)

    def vertex_of_label(self, label: int) -> int:
        return self.boundary[self.labels.index(label)]

    def label_of(self) -> dict[int, int]:
        return dict(zip(self.boundary, self.labels))

    def interior(self) -> list[int]:
        b = set(self.boundary)
        return [v for v in range(self.graph.n) if v not in b]

    def boundary_subgraph(self) -> Graph:
        """Boundary-induced graph with vertex i-1 carrying label i's role.

        Vertices are ordered by ascending label, so equality of these graphs
        means equality of boundary adjacency label-for-label.
        """
        order = [v for _, v in sorted(zip(self.labels, self.boundary))]
        masks = self.graph.adj_masks
        edges = frozenset(
            (i, j) for j, v in enumerate(order) for i in range(j) if masks[v] >> order[i] & 1
        )
        return Graph._derived(len(order), edges)


@dataclass(frozen=True)
class GlueResult:
    graph: Graph
    heir1: dict[int, int]
    heir2: dict[int, int]


def glue(g1: BoundariedGraph, g2: BoundariedGraph) -> GlueResult:
    """Identify equally-labeled boundary vertices; edges are the union."""
    shared = g1.label_set & g2.label_set
    heir1 = {v: v for v in range(g1.graph.n)}
    heir2 = {}
    lab2 = g2.label_of()
    nxt = g1.graph.n
    for v in range(g2.graph.n):
        lbl = lab2.get(v)
        if lbl in shared:
            heir2[v] = g1.vertex_of_label(lbl)
        else:
            heir2[v] = nxt
            nxt += 1
    edges = set(g1.graph.edges)
    for u, v in g2.graph.edges:
        a, b = heir2[u], heir2[v]
        edges.add((a, b) if a < b else (b, a))
    return GlueResult(Graph._derived(nxt, frozenset(edges)), heir1, heir2)


def boundary_of(g: Graph, S) -> frozenset[int]:
    """Vertices of S with at least one neighbor outside S."""
    S, inside = set(S), 0
    for v in S:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
        inside |= 1 << v
    masks = g.adj_masks
    return frozenset(v for v in S if masks[v] & ~inside)


def split(g: Graph, X) -> BoundariedGraph:
    """The window side of g cut at the boundary of X: G[X], vertex i being
    the i-th smallest of X, with boundary labels 1..|bd(X)| assigned in
    ascending host vertex id order.  `splice` glues a replacement onto the
    rest of g."""
    bd = sorted(boundary_of(g, X))
    gx, to_x = induced_subgraph(g, X)
    return BoundariedGraph(gx, tuple(to_x[v] for v in bd), tuple(range(1, len(bd) + 1)))


def window_key(g: Graph, X) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """split(g, X)'s content on masks, without building it: the adjacency
    masks of its graph and its boundary, the vertex of label l at position
    l - 1."""
    host, ids = g.adj_masks, sorted(X)
    masks = induced_masks(host, {v: i for i, v in enumerate(ids)})
    # a vertex of X has a neighbor outside X iff it has fewer in G[X]
    bd = tuple(i for i, v in enumerate(ids) if host[v].bit_count() > masks[i].bit_count())
    return tuple(masks), bd


def splice(g: Graph, X, bd: tuple[int, ...], j: BoundariedGraph) -> Graph:
    """glue(j, rest).graph in one pass over g, with its adjacency masks, where
    rest is g induced on V - X plus bd, bd being bd(X) in ascending order and
    its i-th vertex carrying label i + 1, as `split` labels the window.

    j's vertices come first; the host boundary vertex with label l becomes
    j's vertex with label l, and the other vertices outside X follow in
    ascending host order.  j must carry labels 1..|bd|.
    """
    new = [-1] * g.n  # -1 on the interior of X
    for label, v in enumerate(bd, 1):
        new[v] = j.vertex_of_label(label)
    n = j.graph.n
    for v in range(g.n):
        if v not in X:
            new[v] = n
            n += 1
    edges = set(j.graph.edges)
    masks = list(j.graph.adj_masks) + [0] * (n - j.graph.n)
    for u, v in g.edges:
        a, b = new[u], new[v]
        if a >= 0 and b >= 0:
            if a > b:
                a, b = b, a
            edges.add((a, b))
            masks[a] |= 1 << b
            masks[b] |= 1 << a
    return Graph._derived(n, frozenset(edges), tuple(masks))


# ---------------------------------------------------------------------------
# canonization and enumeration


def canonical_code(b: BoundariedGraph, cap: int = CANONIZATION_CAP) -> bytes:
    """Code invariant under isomorphisms fixing every boundary label.

    Brute force: boundary vertices are pinned in label order, interior
    vertices range over all permutations; the minimum adjacency bit string
    wins.
    """
    n = b.graph.n
    if n > cap:
        raise CanonizationCapExceeded(f"{n} vertices exceed canonization cap {cap}")
    fixed = [v for _, v in sorted(zip(b.labels, b.boundary))]
    free = b.interior()
    masks = b.graph.adj_masks
    best = None
    for perm in itertools.permutations(free):
        order = fixed + list(perm)
        bits = 0
        for i in range(n):
            row = masks[order[i]]
            for w in order[i + 1 :]:
                bits = bits << 1 | row >> w & 1
        if best is None or bits < best:
            best = bits
    header = f"{n}|{','.join(map(str, sorted(b.labels)))}|".encode()
    nbytes = (n * (n - 1) // 2 + 7) // 8
    return header + (best or 0).to_bytes(max(nbytes, 1), "big")


def _candidates(label_count: int, pinned: frozenset | None, max_vertices: int | None = None):
    """Each raw candidate of the smallest-first enumeration, in order: its
    boundaried graph when it opens a new label-fixing isomorphism class, else
    None. `pinned`, the boundary-induced edges (vertex i-1 for label i), fixes
    the boundary pairs; None leaves them free. With no max_vertices it never ends.
    """
    boundary = tuple(range(label_count))
    labels = tuple(range(1, label_count + 1))
    n = label_count
    while max_vertices is None or n <= max_vertices:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        free = [p for p in pairs if pinned is None or p[1] >= label_count]
        base = [p for p in pairs if pinned is not None and p[1] < label_count and p in pinned]
        seen = set()
        for bits in range(1 << len(free)):
            edges = list(base)
            for i, p in enumerate(free):
                if bits >> i & 1:
                    edges.append(p)
            bg = BoundariedGraph(Graph._derived(n, frozenset(edges)), boundary, labels)
            code = canonical_code(bg, cap=n)
            if code in seen:
                yield None
                continue
            seen.add(code)
            yield bg
        n += 1


def enumerate_boundaried(
    max_vertices: int,
    label_count: int,
    fixed_boundary_subgraph: Graph | None = None,
):
    """One representative per label-fixing isomorphism class, smallest first.

    Yields boundaried graphs with at most max_vertices vertices whose boundary
    is vertices 0..label_count-1 labeled 1..label_count. When
    fixed_boundary_subgraph is given (vertex i-1 standing for label i), only
    graphs with exactly that boundary-induced subgraph are produced.
    """
    if not (max_vertices >= label_count >= 0):
        raise ValueError("need max_vertices >= label_count >= 0")
    if fixed_boundary_subgraph is not None and fixed_boundary_subgraph.n != label_count:
        raise ValueError("fixed boundary subgraph must have label_count vertices")
    pinned = None if fixed_boundary_subgraph is None else fixed_boundary_subgraph.edges
    for bg in _candidates(label_count, pinned, max_vertices):
        if bg is not None:
            yield bg


class ClassCursor:
    """Resumable `enumerate_boundaried` over one pinned boundary subgraph.

    Same order, with no size bound: `classes[i]` is the i-th class met, as
    (raw index, vertex count, edge_mask). Not thread-safe.
    """

    def __init__(self, boundary_subgraph: Graph):
        self.bsg = boundary_subgraph
        self.scanned = 0  # raw candidates consumed
        self.classes: list[tuple[int, int, int]] = []
        self._raw = None

    def raw_count(self, max_vertices: int) -> int:
        """Number of raw candidates with at most max_vertices vertices."""
        fixed = self.bsg.n * (self.bsg.n - 1) // 2  # boundary pairs
        return sum(1 << n * (n - 1) // 2 - fixed for n in range(self.bsg.n, max_vertices + 1))

    def advance(self, stop: int) -> bool:
        """Consume raw candidates until a new class is met or `stop` are consumed."""
        if self._raw is None:  # new, or dropped after a scan that raised
            self._raw = itertools.islice(
                _candidates(self.bsg.n, self.bsg.edges), self.scanned, None
            )
        while self.scanned < stop:
            try:
                bg = next(self._raw)
            except BaseException:
                self._raw = None  # a generator that raised cannot resume
                raise
            self.scanned += 1
            if bg is not None:
                self.classes.append((self.scanned - 1, bg.graph.n, edge_mask(bg.graph)))
                return True
        return False

    def graph(self, i: int) -> BoundariedGraph:
        """The representative of class i."""
        _, n, mask = self.classes[i]
        return from_mask(n, mask, self.bsg.n)


def edge_mask(g: Graph) -> int:
    """g's edges as an int: edge (u, v), u < v, is bit v(v-1)/2 + u."""
    return sum(1 << v * (v - 1) // 2 + u for u, v in g.edges)


def from_mask(n: int, mask: int, label_count: int) -> BoundariedGraph:
    """The n-vertex graph with edge mask `mask`, boundary 0..label_count-1
    labeled 1..label_count."""
    edges = [(u, v) for v in range(n) for u in range(v) if mask >> v * (v - 1) // 2 + u & 1]
    labels = tuple(range(1, label_count + 1))
    return BoundariedGraph(Graph._derived(n, frozenset(edges)), tuple(range(label_count)), labels)
