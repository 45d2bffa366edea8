"""Protrusion detection, the X_R region, and window splitting/partitioning."""

from __future__ import annotations

from dataclasses import dataclass

from . import treewidth
from .graph import Graph, connected_components, induced_masks, induced_subgraph
from .treewidth import (
    EXACT_TW_VERTEX_CAP,
    TreeDecomposition,
    _bits,
    _nice_form,
    decide_tw_leq,
    decide_tw_masks,
)
from .boundaried import boundary_of


@dataclass(frozen=True)
class Protrusion:
    """Vertex set X with small boundary and a small-width witness for G[X].

    The witness decomposition lives on induced_subgraph(g, X), whose vertex i
    is the i-th smallest vertex of X.
    """

    X: frozenset[int]
    boundary: frozenset[int]
    t: int
    witness: TreeDecomposition


def is_protrusion(g: Graph, X, t: int, vertex_cap: int = EXACT_TW_VERTEX_CAP):
    """Protrusion certificate if |bd(X)| <= t and tw(G[X]) <= t, else None."""
    X = frozenset(X)
    bd = boundary_of(g, X)
    if len(bd) > t:
        return None
    sub, _ = induced_subgraph(g, X)
    td = decide_tw_leq(sub, t, vertex_cap=vertex_cap)
    if td is None:
        return None
    return Protrusion(X, bd, t, td)


@dataclass
class XRResult:
    X: frozenset[int]
    warnings: list[str]
    # accepted components of G-R in least-vertex order, ascending, with decide_tw_masks certificates
    components: list[tuple[list[int], tuple[list, list[int]]]]


def compute_xr(g: Graph, R, min_size: int = 0) -> XRResult:
    """R plus every component of G-R whose treewidth is at most |R|.

    Components over EXACT_TW_VERTEX_CAP are skipped with a warning; the
    smaller region is still a valid protrusion candidate.  If R and the
    remaining components total under min_size vertices, X is R alone and no
    treewidth is decided.
    """
    R = frozenset(R)
    for v in R:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    warnings, small = [], []
    for comp in connected_components(g, R):
        if len(comp) > EXACT_TW_VERTEX_CAP:
            warnings.append(
                f"component of size {len(comp)} skipped: too large for exact treewidth"
            )
        else:
            small.append(comp)
    if len(R) + sum(map(len, small)) < min_size:
        return XRResult(R, warnings, [])
    out, components, host = set(R), [], g.adj_masks
    for comp in small:
        order = sorted(comp)
        cert = decide_tw_masks(induced_masks(host, {v: i for i, v in enumerate(order)}), len(R))
        if cert is not None:
            out.update(order)
            components.append((order, cert))
    return XRResult(frozenset(out), warnings, components)


def xr_window(g: Graph, R, xr: XRResult, c: int) -> frozenset[int] | None:
    """split_protrusion's window of X_R as a protrusion, or None where that
    raises for want of a window in (c, 2c]; built, validated and cut on masks.
    The witness's root bag is R, and each component's certificate hangs below
    it with R added to every bag, so its width is at most 2|R|."""
    back = sorted(xr.X)
    rank = {v: i for i, v in enumerate(back)}
    host = g.adj_masks
    adj = induced_masks(host, rank)
    r = sum(1 << rank[v] for v in R)
    parent, bags = [None], [r]
    for comp, (cparent, cbags) in xr.components:
        lift, offset = [1 << rank[v] for v in comp], len(bags)
        parent += [0 if p is None else offset + p for p in cparent]
        for bag in cbags:
            lifted = r
            while bag:
                low = bag & -bag
                bag ^= low
                lifted |= lift[low.bit_length() - 1]
            bags.append(lifted)
    # a vertex of X has a neighbor outside X iff it has fewer in G[X]
    bd = sum(1 << i for i, v in enumerate(back) if host[v].bit_count() > adj[i].bit_count())
    y = _window(adj, parent, bags, bd, c)
    return None if y is None else frozenset(back[v] for v in _bits(y))


# ---------------------------------------------------------------------------
# splitting an oversized protrusion (small-window extraction)


def _first_over(acc: int, parts: list[int], c: int):
    """The first of a chain of nice nodes whose covers grow from acc by the
    masks parts in turn to cover more than c vertices: (its index, its
    child's cover, its cover), or None."""
    for i, part in enumerate(parts):
        if (acc | part).bit_count() > c:
            return i, acc, acc | part
        acc |= part
    return None


def _window(adj, parent, bags: list[int], bd: int, c: int) -> int | None:
    """split_protrusion on masks, bd being the boundary: the window's mask,
    or None when no window in (c, 2c] exists; ValueError for a witness that
    validate_masks rejects.

    The window is the cover (subtree bags and bd) of the deepest node of
    _nice_form's nice form whose cover exceeds c, ties going to the smaller
    post-order id, found on the witness's own nodes without building that
    form.  There, a child k of a node x with m children gets a block: k's
    nice subtree, then chains forgetting bags[k] - bags[x] and introducing
    bags[x] - bags[k], each ascending; left-deep joins of the blocks' tops
    follow.  A leaf is a node of its lowest vertex plus an introduce chain.
    One pass down validate_masks' post-order finds the depth of each nice
    subtree's top, and one pass up it the covers and candidates, so a
    witness of any depth is cut without recursion.
    """
    bad, tree = treewidth.validate_masks(adj, parent, bags)
    if bad:
        raise ValueError("invalid tree decomposition: " + "; ".join(bad))
    n = len(adj)
    if n <= 2 * c:
        return (1 << n) - 1 if n > c else None
    ch, order = tree
    top = [0] * len(bags)  # the depth of the top of each node's nice subtree
    for x in reversed(order):
        d = top[x] + len(ch[x])
        for i, k in enumerate(ch[x]):
            top[k] = d - (i or 1) + (bags[k] ^ bags[x]).bit_count()
    # the candidates, nice nodes over c with no child over c, come in
    # _nice_form's creation order and the first of the deepest wins: x's leaf
    # chain or joins, then x's block; a forget node covers what its child does
    cover, best = [bag | bd for bag in bags], (-1, 0, ())  # depth, cover, its children's covers
    for x in order:
        bag, kids, below = bags[x], ch[x], cover[x]
        if len(kids) > 1:  # the first join over c, unless a block top before it is over c
            tops = [cover[k] | bag for k in kids]
            hit = _first_over(tops[0], tops[1:], c)
            if hit:
                j, acc, y = hit
                depth = top[x] + len(kids) - 2 - j
                if depth > best[0] and acc.bit_count() <= c and tops[j + 1].bit_count() <= c:
                    best = depth, y, (acc, tops[j + 1])
        elif not kids and below.bit_count() > c:  # the leaf of the lowest vertex, then introduces
            parts = [1 << v for v in _bits(bag)] or [0]
            j, acc, y = _first_over(bd, parts, c)
            depth = top[x] + len(parts) - 1 - j
            if depth > best[0]:
                best = depth, y, (acc,) if j else ()
        p = parent[x]
        if p is not None:
            cover[p] |= below
            if below.bit_count() <= c < (below | bags[p]).bit_count():
                # the block's introduce chain, above its forget chain
                j, acc, y = _first_over(below, [1 << v for v in _bits(bags[p] & ~bag)], c)
                depth = top[x] - (bag & ~bags[p]).bit_count() - 1 - j
                if depth > best[0]:
                    best = depth, y, (acc,)
    depth, y, kids = best
    if any(k.bit_count() > c for k in kids):
        raise AssertionError("chosen node is not deepest")
    # over 2c only when a single bag plus the boundary overshoots it
    return y if y.bit_count() <= 2 * c else None


def split_protrusion(p: Protrusion, c: int) -> frozenset[int]:
    """Vertex set Y of a (2t+1)-protrusion with c < |Y| <= 2c inside an
    oversized protrusion.

    Y is the cover of the deepest node of the witness's nice form whose
    subtree (together with bd(X)) covers more than c vertices; ties break to
    the smallest node id.  _window finds that node on the witness's own
    nodes, without building the nice form, after validating the witness
    (ValueError if invalid), also when X itself is returned.
    """
    if c <= 0:
        raise ValueError("split target c must be positive")
    if len(p.X) <= c:
        raise ValueError("protrusion is not larger than c")
    back, w = sorted(p.X), p.witness
    bd = sum(1 << i for i, v in enumerate(back) if v in p.boundary)
    y = _window(w.graph.adj_masks, w.parent, [sum(1 << v for v in bag) for bag in w.bags], bd, c)
    if y is None:
        raise ValueError(f"cannot extract a window in ({c}, {2 * c}] from this protrusion")
    return frozenset(back[v] for v in _bits(y))


# ---------------------------------------------------------------------------
# partitioning a protrusion around marked vertices


@dataclass
class PartitionResult:
    parts: list[Protrusion]
    warnings: list[str]


def _single_bag_protrusion(g: Graph, Q: frozenset[int], t_out: int) -> Protrusion:
    sub, _ = induced_subgraph(g, Q)
    td = TreeDecomposition(sub, (None,), (frozenset(range(sub.n)),))
    return Protrusion(Q, boundary_of(g, Q), t_out, td)


def _restricted_protrusion(g: Graph, Q: frozenset[int], nice: tuple, t_out: int) -> Protrusion:
    """Protrusion whose witness is the nice form (parent links, host bags) restricted to Q."""
    sub, rank = induced_subgraph(g, Q)
    parent, hosts = nice
    bags = [frozenset(rank[v] for v in host & Q) for host in hosts]
    return Protrusion(Q, boundary_of(g, Q), t_out, TreeDecomposition(sub, parent, tuple(bags)))


def partition_protrusion(
    g: Graph, p: Protrusion, Z, vertex_cap: int = EXACT_TW_VERTEX_CAP
) -> PartitionResult:
    """Cover X by (4t+2)-protrusions that each meet Z only in their boundary.

    Per component of G[X]: nice decomposition with bd(X) added to every bag,
    marks on the topmost forget nodes of Z vertices (and the root), closed
    under lowest common ancestors; components of X minus the marked bags are
    grouped by the marked bags their neighborhoods touch.
    """
    Z = frozenset(Z)
    if not Z <= p.X:
        raise ValueError("Z must be a subset of the protrusion")
    t_out = 4 * p.t + 2
    warnings: list[str] = []
    if not Z:
        return PartitionResult([Protrusion(p.X, p.boundary, t_out, p.witness)], warnings)

    everything = frozenset(range(g.n))
    parts: list[Protrusion] = []
    covered: set[int] = set()
    bd_host = frozenset(p.boundary)
    for comp in connected_components(g, everything - p.X):
        comp_host = frozenset(comp)
        pc = is_protrusion(g, comp_host, p.t, vertex_cap=vertex_cap)
        if pc is None:
            raise AssertionError("component of a protrusion must itself qualify")
        if not Z & comp_host:
            parts.append(Protrusion(comp_host, pc.boundary, t_out, pc.witness))
            covered |= comp_host
            continue
        w, back = pc.witness, sorted(comp_host)
        parent, bags = _nice_form(w.graph.adj_masks, w.parent, [sum(1 << v for v in b) for b in w.bags])
        hosts = [frozenset(back[v] for v in _bits(bag)) for bag in bags]
        nice = (tuple(parent), [host | bd_host for host in hosts])
        marked = _mark_nodes(parent, bags, sum(1 << i for i, v in enumerate(back) if v in Z))
        marked_bag_hosts = set(bd_host & comp_host).union(*(hosts[u] for u in marked))

        # components of the unmarked remainder, grouped by touched marked bags
        remainder = comp_host - marked_bag_hosts
        groups: dict[frozenset[int], set[int]] = {}
        for cc in connected_components(g, everything - remainder):
            cc_host = frozenset(cc)
            nbrs = set()
            for v in cc_host:
                nbrs |= g.adj[v]
            nbrs &= comp_host | bd_host
            nbrs -= cc_host
            anchors = frozenset(u for u in marked if hosts[u] & nbrs) or frozenset({min(marked)})
            groups.setdefault(anchors, set()).update(cc_host)
        for anchors, U in sorted(groups.items(), key=lambda kv: sorted(kv[0])):
            nbrs = set()
            for v in U:
                nbrs |= g.adj[v]
            Q = frozenset(U | (nbrs - U))
            parts.extend(_emit_group(g, Q, Z, nice, t_out, warnings))
            covered |= Q
        leftovers = comp_host - covered
        for z in sorted(leftovers & Z):
            parts.append(_single_bag_protrusion(g, frozenset({z}), t_out))
            covered.add(z)
        rest = leftovers - Z
        for u in sorted(marked):
            chunk = hosts[u] & rest
            if chunk:
                parts.append(_single_bag_protrusion(g, chunk, t_out))
                rest -= chunk
                covered |= chunk
        if rest:
            parts.append(_single_bag_protrusion(g, frozenset(rest), t_out))
            covered |= rest
    if covered != p.X:
        raise AssertionError("partition does not cover the protrusion")
    bound = 4 * (len(Z) + 1)
    if len(parts) > bound:
        warnings.append(f"{len(parts)} parts exceed the soft bound {bound}")
    return PartitionResult(parts, warnings)


def _mark_nodes(parent, bags: list[int], z: int) -> set[int]:
    """Topmost forget nodes of the vertices in mask z, plus the root, closed
    under lowest common ancestors.  In a nice form only a forget node's child
    holds a vertex its parent lacks, and the closure adds exactly the nodes
    with marks below two children: one pass up the post-order finds them."""
    marked, below = set(), [0] * len(parent)  # children whose subtrees hold marks
    for u, p in enumerate(parent):
        if p is None or below[u] > 1 or bags[u] & ~bags[p] & z:
            marked.add(u)
        if p is not None and (below[u] or u in marked):
            below[p] += 1
    return marked


def _emit_group(g, Q, Z, nice, t_out, warnings):
    """Emit Q (or z-repaired pieces of it) as protrusions."""
    out = []
    bad_z = sorted(z for z in Z & Q if g.adj[z] and g.adj[z] <= Q)
    if not bad_z:
        out.append(_restricted_protrusion(g, Q, nice, t_out))
        return out
    # a Z vertex would be interior: split Q at that vertex so each piece
    # misses one of its neighbors
    z = bad_z[0]
    rest = Q - {z}
    comps = [frozenset(cc) for cc in connected_components(g, set(range(g.n)) - rest)]
    if len(comps) >= 2:
        for cc in sorted(comps, key=min):
            out.extend(_emit_group(g, frozenset(cc | {z}), Z, nice, t_out, warnings))
        return out
    # z is not a cut vertex of G[Q]; fall back to a singleton for z
    out.append(_single_bag_protrusion(g, frozenset({z}), t_out))
    piece = _restricted_protrusion(g, frozenset(rest), nice, t_out)
    if len(piece.boundary) > t_out:
        warnings.append(
            f"piece boundary {len(piece.boundary)} exceeds {t_out} after repair"
        )
    out.append(piece)
    return out
