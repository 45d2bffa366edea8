"""Exact treewidth decisions with certificates, and nice tree decompositions."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TooLargeForExactTreewidth
from .graph import Graph

EXACT_TW_VERTEX_CAP = 32

LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


@dataclass(frozen=True)
class TreeDecomposition:
    """Rooted tree of bags over `graph`; parent[i] is None exactly for the root."""

    graph: Graph
    parent: tuple
    bags: tuple

    @property
    def num_nodes(self) -> int:
        return len(self.bags)

    @property
    def root(self) -> int:
        for i, p in enumerate(self.parent):
            if p is None:
                return i
        raise ValueError("decomposition has no root")

    def children(self) -> list[list[int]]:
        ch: list[list[int]] = [[] for _ in self.bags]
        for i, p in enumerate(self.parent):
            if p is not None:
                ch[p].append(i)
        return ch


@dataclass(frozen=True)
class NiceTreeDecomposition(TreeDecomposition):
    """Binary decomposition with leaf/introduce/forget/join node kinds."""

    kinds: tuple = ()


def width(td: TreeDecomposition) -> int:
    if not td.bags:
        return -1
    return max(len(b) for b in td.bags) - 1


def validate(td: TreeDecomposition) -> list[str]:
    """Empty list iff td is a valid (and, for nice form, well-kinded) decomposition."""
    g, parent, bags = td.graph, td.parent, td.bags
    n_nodes = len(bags)
    if len(parent) != n_nodes:
        return ["parent/bag arrays differ in length"]
    out = []
    roots = [i for i, p in enumerate(parent) if p is None]
    if len(roots) != 1:
        out.append(f"expected exactly one root, found {len(roots)}")
    for i, p in enumerate(parent):
        if p is not None and not (0 <= p < n_nodes):
            out.append(f"node {i} has out-of-range parent {p}")
    if out:
        return out
    # every node not reached from the root lies on a cycle of parent links
    ch = td.children()
    reached = [False] * n_nodes
    stack = roots
    while stack:
        u = stack.pop()
        reached[u] = True
        stack.extend(ch[u])
    if not all(reached):
        return [f"cycle in parent links through node {reached.index(False)}"]
    # in a tree, the nodes holding v are connected iff exactly one of them is
    # the root or has a parent without v
    tops = [0] * g.n
    holds = [0] * g.n  # mask of the nodes whose bag holds the vertex
    for i, bag in enumerate(bags):
        up = bags[parent[i]] if parent[i] is not None else ()
        for v in bag:
            if not (0 <= v < g.n):
                out.append(f"bag vertex {v} outside the host graph")
                continue
            holds[v] |= 1 << i
            tops[v] += v not in up
    for v, count in enumerate(tops):
        if count == 0:
            out.append(f"vertex {v} appears in no bag")
        elif count > 1:
            out.append(f"occurrences of vertex {v} are disconnected")
    for u, v in sorted(e for e in g.edges if not holds[e[0]] & holds[e[1]]):
        out.append(f"edge ({u},{v}) not contained in any bag")
    if isinstance(td, NiceTreeDecomposition):
        out.extend(_validate_nice(td, ch))
    return out


def _validate_nice(td: NiceTreeDecomposition, ch: list[list[int]]) -> list[str]:
    out = []
    if len(td.kinds) != len(td.bags):
        return ["kinds/bag arrays differ in length"]
    for i, kind in enumerate(td.kinds):
        kids = ch[i]
        bag = td.bags[i]
        if kind == LEAF:
            if kids:
                out.append(f"leaf node {i} has children")
            if len(bag) > 1:
                out.append(f"leaf node {i} has bag of size {len(bag)}")
        elif kind == INTRODUCE:
            if len(kids) != 1:
                out.append(f"introduce node {i} must have one child")
            elif not (td.bags[kids[0]] < bag and len(bag - td.bags[kids[0]]) == 1):
                out.append(f"introduce node {i} does not add exactly one vertex")
        elif kind == FORGET:
            if len(kids) != 1:
                out.append(f"forget node {i} must have one child")
            elif not (bag < td.bags[kids[0]] and len(td.bags[kids[0]] - bag) == 1):
                out.append(f"forget node {i} does not drop exactly one vertex")
        elif kind == JOIN:
            if len(kids) != 2:
                out.append(f"join node {i} must have two children")
            elif not (td.bags[kids[0]] == td.bags[kids[1]] == bag):
                out.append(f"join node {i} children bags differ from its own")
        else:
            out.append(f"node {i} has unknown kind '{kind}'")
    return out


# ---------------------------------------------------------------------------
# exact treewidth decision
#
# Vertex sets are bitmasks, and masks[v] is v's neighbourhood in the fill
# graph.  Eliminations record (vertex, bag mask) pairs for _assemble.


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _eliminate(masks: list[int], v: int) -> int:
    """Make N(v) a clique and detach v, in place; returns N(v)."""
    nb = m = masks[v]
    while m:
        low = m & -m
        m ^= low
        u = low.bit_length() - 1
        masks[u] = (masks[u] | nb) & ~(low | 1 << v)
    return nb


def _eliminate_low_degree(masks: list[int], t: int, order: list[int], bags: list[int]):
    """Eliminate down to t + 1 vertices (t <= 2) and return their mask, or None.

    Eliminating a vertex of degree <= 2 leaves a minor, so no choice is ever
    undone.  The choice is the branch and bound's first: the lowest-id
    simplicial vertex of degree <= t, else the lowest-id one of degree <= t.
    Only the vertices an elimination touches are reclassified.
    """
    alive = dirty = (1 << len(masks)) - 1
    low = simp = 0  # vertices of degree <= t, and the simplicial ones among them
    while True:
        while dirty:
            bit = dirty & -dirty
            dirty ^= bit
            nb = masks[bit.bit_length() - 1]
            d = nb.bit_count()
            low = low | bit if d <= t else low & ~bit
            # degree 2 is simplicial iff the two neighbours are adjacent
            if d <= t and (d < 2 or masks[(nb & -nb).bit_length() - 1] & nb):
                simp |= bit
            else:
                simp &= ~bit
        if alive.bit_count() <= t + 1:
            return alive
        pick = simp or low
        if not pick:
            return None
        bit = pick & -pick
        v = bit.bit_length() - 1
        nb = _eliminate(masks, v)
        order.append(v)
        bags.append(nb | bit)
        alive ^= bit
        low, simp, dirty = low & ~bit, simp & ~bit, nb
        if nb & (nb - 1):  # the fill edge may make common neighbours simplicial
            dirty |= masks[(nb & -nb).bit_length() - 1] & masks[nb.bit_length() - 1]


def _degeneracy(masks) -> int:
    alive, best = (1 << len(masks)) - 1, 0
    while alive:
        v = min(_bits(alive), key=lambda u: masks[u].bit_count())
        best = max(best, masks[v].bit_count())
        alive &= ~(1 << v)
        masks = [m & ~(1 << v) for m in masks]
    return best


def _branch_and_bound(masks, alive: int, t: int, failed: set[int], order, bags):
    """_eliminate_low_degree for any t, by search over elimination orders,
    memoized on the remaining set (its fill graph does not depend on the order)."""
    if alive.bit_count() <= t + 1:
        return alive
    if alive in failed:
        return None
    cands = [v for v in _bits(alive) if masks[v].bit_count() <= t]
    # eliminating a simplicial vertex of degree <= t is always safe
    safe = [v for v in cands if all(masks[v] & ~masks[u] == 1 << u for u in _bits(masks[v]))]
    for v in safe[:1] or sorted(cands, key=lambda v: masks[v].bit_count()):
        child = list(masks)
        order.append(v)
        bags.append(_eliminate(child, v) | 1 << v)
        rest = _branch_and_bound(child, alive & ~(1 << v), t, failed, order, bags)
        if rest is not None:
            return rest
        order.pop()
        bags.pop()
    failed.add(alive)
    return None


def decide_tw_leq(g: Graph, t: int, vertex_cap: int = EXACT_TW_VERTEX_CAP):
    """Width-<=t decomposition of g, or None if tw(g) > t.

    Tries the elimination of vertices of degree <= min(t, 2) first; a width-2
    certificate also serves every t > 2.  Only when that fails for t > 2 does
    a branch and bound search the elimination orders.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if g.n > vertex_cap:
        raise TooLargeForExactTreewidth(
            f"{g.n} vertices exceed the exact-treewidth cap of {vertex_cap}"
        )
    order, bags = [], []
    rest = _eliminate_low_degree(list(g.adj_masks), min(t, 2), order, bags)
    if rest is None and t > 2 and _degeneracy(g.adj_masks) <= t:
        order, bags = [], []
        rest = _branch_and_bound(g.adj_masks, (1 << g.n) - 1, t, set(), order, bags)
    if rest is None:
        return None
    return _assemble(g, order, bags, rest)


def _assemble(g: Graph, order: list[int], bags: list[int], rest: int) -> TreeDecomposition:
    """Node i holds the bag of order[i] and hangs below the node of the bag's
    first vertex eliminated after order[i]; the vertices `rest` left at the
    end form the root bag, node len(order)."""
    root = len(order)
    index = [root] * g.n
    for i, v in enumerate(order):
        index[v] = i
    parent = [
        min((index[w] for w in _bits(bag & ~(1 << v))), default=root)
        for v, bag in zip(order, bags)
    ]
    # tuples built from lists of known length: tuple(generator) resizes its
    # result, which grows the interpreter's per-size tuple free lists
    nodes = [frozenset(_bits(bag)) for bag in bags + [rest]]
    return TreeDecomposition(g, (*parent, None), tuple(nodes))


# ---------------------------------------------------------------------------
# nice form


class _NiceBuilder:
    """make_nice's nodes, with each bag a vertex mask.

    Validates td first.  A node is created after all of its descendants, so
    node ids are a post-order and the root is the last node.
    """

    def __init__(self, td: TreeDecomposition):
        bad = validate(td)
        if bad:
            raise ValueError("invalid tree decomposition: " + "; ".join(bad))
        self.bags: list[int] = []
        self.kinds: list[str] = []
        self.parent: list = []
        ch = td.children()  # each child list is ascending
        masks = [sum(1 << v for v in bag) for bag in td.bags]

        def build(node: int) -> int:
            bag = masks[node]
            if not ch[node]:  # a leaf of the lowest vertex, then introduce the rest
                return self.transition(self.add(bag & -bag, LEAF), bag)
            tops = [self.transition(build(k), bag) for k in ch[node]]
            top = tops[0]
            for other in tops[1:]:
                top = self.add(bag, JOIN, top, other)
            return top

        build(td.root)

    def add(self, bag: int, kind: str, *children: int) -> int:
        node = len(self.bags)
        self.bags.append(bag)
        self.kinds.append(kind)
        self.parent.append(None)
        for c in children:
            self.parent[c] = node
        return node

    def transition(self, node: int, target: int) -> int:
        """Forget/introduce chain from the bag at `node` up to `target`, each
        in ascending vertex order."""
        cur = self.bags[node]
        for kind, change in ((FORGET, cur & ~target), (INTRODUCE, target & ~cur)):
            while change:
                low = change & -change
                change ^= low
                cur ^= low
                node = self.add(cur, kind, node)
        return node


def make_nice(td: TreeDecomposition) -> NiceTreeDecomposition:
    """Width-preserving nice form of td, with the same root."""
    b = _NiceBuilder(td)
    bags = [frozenset(_bits(bag)) for bag in b.bags]
    return NiceTreeDecomposition(td.graph, tuple(b.parent), tuple(bags), tuple(b.kinds))
