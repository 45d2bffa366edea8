"""Exact treewidth decisions with certificates, and nice tree decompositions."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TooLargeForExactTreewidth
from .graph import Graph

EXACT_TW_VERTEX_CAP = 32


@dataclass(frozen=True)
class TreeDecomposition:
    """Rooted tree of bags over `graph`; parent[i] is None exactly for the root."""

    graph: Graph
    parent: tuple
    bags: tuple


def validate_masks(adj, parent, bags: list[int]) -> tuple[list[str], tuple | None]:
    """validate's checks on adjacency masks, parent links and bag masks: the
    messages, and once the links form a tree, its ascending child lists and
    a post-order that visits each node's children in ascending order."""
    n_nodes = len(bags)
    if len(parent) != n_nodes:
        return ["parent/bag arrays differ in length"], None
    roots = [i for i, p in enumerate(parent) if p is None]
    out = [f"expected exactly one root, found {len(roots)}"] if len(roots) != 1 else []
    out += [f"node {i} has out-of-range parent {p}" for i, p in enumerate(parent)
            if p is not None and not 0 <= p < n_nodes]
    if out:
        return out, None
    ch: list[list[int]] = [[] for _ in bags]
    for i, p in enumerate(parent):
        if p is not None:
            ch[p].append(i)
    # a search from the root meets each node at most once; the rest lie on
    # cycles.  It pops the last child first, so its reverse is the post-order
    order, stack = [], roots
    while stack:
        u = stack.pop()
        order.append(u)
        stack += ch[u]
    if len(order) < n_nodes:
        return [f"cycle in parent links through node {min(set(range(n_nodes)) - set(order))}"], None
    # in a tree, the nodes holding v are connected iff exactly one of them is
    # the root or has a parent without v
    n = len(adj)
    full, tops, twice = (1 << n) - 1, 0, 0
    near = [0] * n  # union of the bags holding each vertex
    for bag, p in zip(bags, parent):
        if bag >> n:
            out += [f"bag vertex {v} outside the host graph" for v in _bits(bag & ~full)]
            bag &= full
        top = bag & ~bags[p] if p is not None else bag
        twice |= tops & top
        tops |= top
        rest = bag
        while rest:
            low = rest & -rest
            rest ^= low
            near[low.bit_length() - 1] |= bag
    for v in _bits(full & ~tops | twice):
        seen = tops >> v & 1
        out.append(f"occurrences of vertex {v} are disconnected" if seen else f"vertex {v} appears in no bag")
    for u, (a, b) in enumerate(zip(adj, near)):
        if a & ~b:
            out += [f"edge ({u},{v}) not contained in any bag" for v in _bits(a & ~b & -(2 << u))]
    order.reverse()
    return out, (ch, order)


def validate(td: TreeDecomposition) -> list[str]:
    """Empty list iff td is a valid tree decomposition of td.graph."""
    masks = [sum(1 << v for v in bag if v >= 0) for bag in td.bags]  # masks hold no negative vertex
    out, tree = validate_masks(td.graph.adj_masks, td.parent, masks)
    if tree is not None:  # the tree checks passed, so report those vertices first
        out[:0] = [f"bag vertex {v} outside the host graph" for bag in td.bags for v in bag if v < 0]
    return out


# ---------------------------------------------------------------------------
# exact treewidth decision
#
# Vertex sets are bitmasks, and masks[v] is v's neighbourhood in the fill
# graph.  Eliminations record (vertex, bag mask) pairs.


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


def decide_tw_masks(adj, t: int, vertex_cap: int = EXACT_TW_VERTEX_CAP):
    """decide_tw_leq on adjacency masks: (parent links, bag masks), or None.
    Node i holds the bag of the i-th eliminated vertex, below the node of its
    bag's next eliminated vertex; the last node, the root, holds the rest."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    n = len(adj)
    if n > vertex_cap:
        raise TooLargeForExactTreewidth(
            f"{n} vertices exceed the exact-treewidth cap of {vertex_cap}"
        )
    order, bags = [], []
    rest = _eliminate_low_degree(list(adj), min(t, 2), order, bags)
    if rest is None and t > 2 and _degeneracy(adj) <= t:
        order, bags = [], []
        rest = _branch_and_bound(adj, (1 << n) - 1, t, set(), order, bags)
    if rest is None:
        return None
    root, parent = len(order), []
    index = [root] * n
    for i, v in enumerate(order):
        index[v] = i
    for v, bag in zip(order, bags):
        up, later = root, bag ^ 1 << v
        while later:
            low = later & -later
            later ^= low
            if index[low.bit_length() - 1] < up:
                up = index[low.bit_length() - 1]
        parent.append(up)
    parent.append(None)
    bags.append(rest)
    return parent, bags


def decide_tw_leq(g: Graph, t: int, vertex_cap: int = EXACT_TW_VERTEX_CAP):
    """Width-<=t decomposition of g, or None if tw(g) > t.

    Tries the elimination of vertices of degree <= min(t, 2) first; a width-2
    certificate also serves every t > 2.  Only when that fails for t > 2 does
    a branch and bound search the elimination orders.
    """
    cert = decide_tw_masks(g.adj_masks, t, vertex_cap)
    if cert is None:
        return None
    # tuples built from lists of known length: tuple(generator) resizes its
    # result, which grows the interpreter's per-size tuple free lists
    nodes = [frozenset(_bits(bag)) for bag in cert[1]]
    return TreeDecomposition(g, tuple(cert[0]), tuple(nodes))


# ---------------------------------------------------------------------------
# nice form


def _nice_form(adj, parent, bags: list[int]) -> tuple[list, list[int]]:
    """make_nice on masks: the nice form's parent links and bag masks, for a
    decomposition that validate_masks accepts (else ValueError).

    One loop over validate_masks' post-order creates, at each node x, a leaf
    of x's lowest vertex and an introduce chain if x is a leaf, else left-deep
    joins of its children's blocks; then x's block: chains forgetting x's bag
    minus its parent's and introducing the converse.  So node ids are a
    post-order and the root is the last node; chains go in ascending vertex
    order.  make_nice and partition_protrusion build it; protrusion._window
    walks this layout without building it.
    """
    bad, tree = validate_masks(adj, parent, bags)
    if bad:
        raise ValueError("invalid tree decomposition: " + "; ".join(bad))
    (ch, order), nice_parent, nice_bags = tree, [], []
    top = [0] * len(bags)  # the nice node topping each node's block
    for x in order:
        bag, kids = bags[x], ch[x]
        if kids:  # left-deep joins of the children's blocks
            node, cur = top[kids[0]], bag
            for k in kids[1:]:
                nice_parent[node] = nice_parent[top[k]] = node = len(nice_bags)
                nice_parent.append(None)
                nice_bags.append(bag)
        else:  # a leaf of the lowest vertex, then introduce the rest
            node, cur = len(nice_bags), bag & -bag
            nice_parent.append(None)
            nice_bags.append(cur)
        target = bag if parent[x] is None else bags[parent[x]]
        for change in (bag & ~cur, bag & ~target, target & ~bag):
            while change:
                low = change & -change
                change ^= low
                cur ^= low
                nice_parent[node] = node = len(nice_bags)
                nice_parent.append(None)
                nice_bags.append(cur)
        top[x] = node
    return nice_parent, nice_bags


def make_nice(td: TreeDecomposition) -> TreeDecomposition:
    """Width-preserving nice form of td, with the same root: every node is a
    leaf, has two children with its bag, or has one child whose bag differs
    from its own by one vertex."""
    parent, bags = _nice_form(td.graph.adj_masks, td.parent, [sum(1 << v for v in b) for b in td.bags])
    nodes = [frozenset(_bits(bag)) for bag in bags]
    return TreeDecomposition(td.graph, tuple(parent), tuple(nodes))
