"""Test-side helpers and reference code; not part of protkern.

`xr_protrusion` builds X_R's protrusion as frozenset objects, the form the
engine's mask pass in `protrusion.xr_window` replaced.  `children` and
`width` read a TreeDecomposition for the tests.
"""

from protkern.boundaried import boundary_of
from protkern.graph import Graph, induced_subgraph
from protkern.protrusion import Protrusion, XRResult
from protkern.treewidth import TreeDecomposition


def children(td: TreeDecomposition) -> list[list[int]]:
    """Ascending child lists of td's nodes."""
    ch: list[list[int]] = [[] for _ in td.bags]
    for i, p in enumerate(td.parent):
        if p is not None:
            ch[p].append(i)
    return ch


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
