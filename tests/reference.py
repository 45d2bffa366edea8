"""Test-side helpers and reference code; not part of protkern.

`xr_protrusion` builds X_R's protrusion as frozenset objects, the form the
engine's mask pass in `protrusion.xr_window` replaced.  `children`, `root`
and `width` read a TreeDecomposition for the tests.  The package's nice forms
carry no node kinds: `nice_kinds` derives them, `validate_nice` checks them,
and `reference_mark_nodes` is the partition's marking on those kinds.
`reference_window` is `protrusion._window` walked on `_nice_form`'s nodes.
"""

from protkern.boundaried import boundary_of
from protkern.graph import Graph, induced_subgraph
from protkern.protrusion import Protrusion, XRResult
from protkern.treewidth import TreeDecomposition, _nice_form


def children(td: TreeDecomposition) -> list[list[int]]:
    """Ascending child lists of td's nodes."""
    ch: list[list[int]] = [[] for _ in td.bags]
    for i, p in enumerate(td.parent):
        if p is not None:
            ch[p].append(i)
    return ch


LEAF, INTRODUCE, FORGET, JOIN = "leaf", "introduce", "forget", "join"


def nice_kinds(parent, bags) -> list[str]:
    """Each node's kind in a nice form with frozenset bags, from its
    children: none, two, or one with a smaller or larger bag."""
    kinds = [LEAF] * len(bags)
    for w, p in enumerate(parent):
        if p is not None:
            kinds[p] = JOIN if kinds[p] != LEAF else INTRODUCE if bags[p] - bags[w] else FORGET
    return kinds


def validate_nice(td: TreeDecomposition, kinds) -> list[str]:
    """Empty list iff each node of td fits its kind; td's parent links must
    form a tree."""
    if len(kinds) != len(td.bags):
        return ["kinds/bag arrays differ in length"]
    out = []
    for i, (kind, kids, bag) in enumerate(zip(kinds, children(td), td.bags)):
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


def reference_mark_nodes(parent, bags, z_local: set[int]) -> set[int]:
    """Topmost forget nodes of z_local's vertices plus the root, closed under
    LCAs by a pairwise fixpoint; a nice form's frozenset bags."""
    kinds = nice_kinds(parent, bags)
    marked = {parent.index(None)}
    for kid, u in enumerate(parent):  # a forget node has one child
        if u is not None and kinds[u] == FORGET and (bags[kid] - bags[u]) & z_local:
            marked.add(kid)

    def ancestors(u: int) -> list[int]:
        out = []
        while u is not None:
            out.append(u)
            u = parent[u]
        return out

    changed = True
    while changed:
        changed = False
        ms = sorted(marked)
        for i, a in enumerate(ms):
            pos = set(ancestors(a))
            for b in ms[i + 1 :]:
                u = b
                while u not in pos:
                    u = parent[u]
                if u not in marked:
                    marked.add(u)
                    changed = True
    return marked


def root(td: TreeDecomposition) -> int:
    """The node whose parent is None."""
    return td.parent.index(None)


def width(td: TreeDecomposition) -> int:
    if not td.bags:
        return -1
    return max(len(b) for b in td.bags) - 1


def xr_protrusion(g: Graph, R, xr: XRResult) -> Protrusion:
    """X_R as a protrusion: its component certificates with R in every bag.

    The root bag is R; each component's decomposition hangs below it, so the
    witness has width at most 2|R|.
    """
    sub, rank = induced_subgraph(g, xr.X)
    r_local = frozenset(rank[v] for v in R)
    bags: list[frozenset[int]] = [r_local]
    parent: list = [None]
    for comp, (cparent, cbags) in xr.components:
        offset = len(bags)
        for bag, p in zip(cbags, cparent):
            lifted = frozenset(rank[v] for i, v in enumerate(comp) if bag >> i & 1)
            bags.append(lifted | r_local)
            parent.append(0 if p is None else offset + p)
    witness = TreeDecomposition(sub, tuple(parent), tuple(bags))
    return Protrusion(xr.X, boundary_of(g, xr.X), 2 * len(R), witness)


def reference_window(adj, parent, bags: list[int], bd: int, c: int) -> int | None:
    """split_protrusion on masks, bd being the boundary: the window's mask,
    or None when no window in (c, 2c] exists."""
    n = len(adj)
    if n <= 2 * c:
        return (1 << n) - 1 if n > c else None
    parent, bags = _nice_form(adj, parent, bags)
    # covers and depths: ids exceed descendants', and the root, last, covers n > 2c
    cover = [bag | bd for bag in bags]
    for u in range(len(parent) - 1):
        cover[parent[u]] |= cover[u]
    depth, b = [0] * len(parent), len(parent) - 1
    for u in range(len(parent) - 2, -1, -1):  # top down, so ties go to the smaller id
        depth[u] = depth[parent[u]] + 1
        if depth[u] >= depth[b] and cover[u].bit_count() > c:
            b = u
    if any(parent[w] == b and cover[w].bit_count() > c for w in range(b)):
        raise AssertionError("chosen node is not deepest")
    # over 2c only when a single bag plus the boundary overshoots it
    return cover[b] if cover[b].bit_count() <= 2 * c else None
