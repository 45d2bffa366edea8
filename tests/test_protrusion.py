import hashlib
import itertools
import random
import re
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protkern import protrusion, treewidth
from protkern.boundaried import boundary_of
from protkern.graph import Graph, connected_components, generate, induced_subgraph, parse_family
from protkern.protrusion import (
    Protrusion,
    _mark_nodes,
    _window,
    compute_xr,
    is_protrusion,
    partition_protrusion,
    split_protrusion,
    xr_window,
)
from protkern.treewidth import (
    TreeDecomposition,
    _nice_form,
    decide_tw_leq,
    decide_tw_masks,
    make_nice,
    validate,
    validate_masks,
)
from reference import (
    children,
    nice_kinds,
    reference_mark_nodes,
    reference_window,
    root,
    validate_nice,
    width,
    xr_protrusion,
)
from test_acceptance import _marked_protrusion, _random_protrusion_host


def pendant_path_host():
    """3x3 grid with one pendant path of 12 edges hanging off corner 0."""
    return generate(parse_family("grid-with-pendant-paths:3,3,1,12"))


class TestIsProtrusion:
    def test_accepts_pendant_path(self):
        g = pendant_path_host()
        tail = frozenset(range(9, 21)) | {0}
        p = is_protrusion(g, tail, 1)
        assert p is not None
        assert p.boundary == frozenset({0})
        assert validate(p.witness) == []
        assert width(p.witness) <= 1

    def test_rejects_wide_boundary(self):
        g = generate(parse_family("cycle:8"))
        assert is_protrusion(g, {1, 2, 3}, 1) is None  # boundary {1, 3}

    def test_rejects_high_treewidth(self):
        g = generate(parse_family("grid:3,3"))
        assert is_protrusion(g, set(range(9)), 2) is None
        assert is_protrusion(g, set(range(9)), 3) is not None

    def test_whole_graph_has_empty_boundary(self):
        g = generate(parse_family("path:6"))
        p = is_protrusion(g, set(range(6)), 1)
        assert p.boundary == frozenset()


class TestComputeXR:
    def test_path_center(self):
        g = generate(parse_family("path:10"))
        res = compute_xr(g, {4})
        assert res.X == frozenset(range(10)) and res.warnings == []

    def test_excludes_wide_component(self):
        grid = generate(parse_family("grid-with-pendant-paths:4,4,1,6"))
        attach = 16  # first pendant vertex
        res = compute_xr(grid, {attach})
        assert res.X == frozenset({attach}) | frozenset(range(17, 22))

    def test_oversized_component_warns(self):
        g = generate(parse_family("path:50"))
        res = compute_xr(g, {40})
        assert any("too large" in w for w in res.warnings)
        assert 40 in res.X

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            compute_xr(generate(parse_family("path:3")), {7})


class TestComputeXRMinSize:
    """The region-size bound against the full X_R pass."""

    GRAPHS = [
        ("path:50", 2),
        ("grid:2,10", 4),
        ("grid-with-pendant-paths:3,3,2,6", 2),
        ("random-sparse:14,20", 2),
        ("path:3+cycle:5+path:30", 2),
    ]

    @pytest.mark.parametrize("family,max_r", GRAPHS)
    def test_bound_only_drops_regions_below_min_size(self, family, max_r):
        g = generate(parse_family(family))
        for R in map(frozenset, cut_sets(g.n, range(1, max_r + 1))):
            full = compute_xr(g, R)
            for min_size in (0, 2, 6, 11, 19, 26, 30, 45):
                res = compute_xr(g, R, min_size=min_size)
                assert res.warnings == full.warnings, (R, min_size)
                if (res.X, res.components) != (full.X, full.components):
                    assert len(full.X) < min_size, (R, min_size)
                    assert res.X == R and res.components == [], (R, min_size)

    def test_bound_counts_only_components_under_the_cap(self):
        # R = {40} leaves components of 40 and 9 vertices; with the first over
        # the cap, X_R can have at most 10 vertices
        g = generate(parse_family("path:50"))
        assert len(compute_xr(g, {40}, min_size=10).X) == 10
        res = compute_xr(g, {40}, min_size=11)
        assert res.X == frozenset({40}) and len(res.warnings) == 1


class TestComputeXRSingleton:
    """compute_xr at |R| = 1, where G - R comes from the graph's lowpoint
    search, against the components of the rebuilt graph G - R."""

    @staticmethod
    def rebuilt_components(g, without):
        sub, remap = induced_subgraph(g, set(range(g.n)) - set(without))
        back = sorted(remap)
        return [[back[i] for i in comp] for comp in connected_components(sub)]

    def hosts(self):
        # removing vertex 0 leaves a 40-vertex path and a 41-vertex rest, both
        # over the cap, in an order the relabelling decides
        hub = generate(parse_family("star-of-paths:1,40+star-of-paths:1,35+cycle:5"))
        hub = Graph.from_edges(hub.n, hub.edges | {(0, 41), (0, 77), (41, 79)})
        yield shuffled(hub, 3)
        yield shuffled(generate(parse_family("path:200")), 5)
        yield shuffled(generate(parse_family("grid-with-pendant-paths:3,3,3,12+path:4")), 1)
        yield generate(parse_family("random-sparse:40,6"))

    def test_matches_rebuilt_components(self, monkeypatch):
        cases = [(g, v) for g in self.hosts() for v in range(g.n)]
        got = [compute_xr(g, {v}) for g, v in cases]
        monkeypatch.setattr(protrusion, "connected_components", self.rebuilt_components)
        assert any(len(xr.warnings) == 2 for xr in got)
        for (g, v), xr in zip(cases, got):
            ref = compute_xr(g, {v})
            assert xr.X == ref.X and xr.warnings == ref.warnings, (g, v)
            assert [(sorted(c), td) for c, td in xr.components] == [
                (sorted(c), td) for c, td in ref.components
            ]


def reference_xr_witness(g: Graph, R: frozenset[int], X: frozenset[int]):
    """(parent, bags) of the X_R witness, assembled the former way.

    G[X] and G[X-R] are rebuilt, their components found and certified a
    second time, and each decomposition gets R added to every bag.
    """
    sub, vmap = induced_subgraph(g, X)
    r_local = {vmap[v] for v in R}
    rest = set(range(sub.n)) - r_local
    bags: list[frozenset[int]] = [frozenset(r_local)]
    parent: list = [None]
    if rest:
        rest_sub, _ = induced_subgraph(sub, rest)
        rest_back = sorted(rest)
        for comp in connected_components(rest_sub):
            comp_local = frozenset(rest_back[v] for v in comp)
            csub, _ = induced_subgraph(sub, comp_local)
            td = decide_tw_leq(csub, len(R))
            if td is None:
                return None
            cback = sorted(comp_local)
            offset = len(bags)
            for i, bag in enumerate(td.bags):
                bags.append(frozenset(cback[v] for v in bag) | frozenset(r_local))
                p = td.parent[i]
                parent.append(offset + p if p is not None else 0)
    return tuple(parent), tuple(bags)


def mask_witness(g: Graph, R, xr):
    """The witness xr_window cuts its window from: (adjacency masks, parent
    links, bag masks, boundary mask), all in X's numbering."""
    cuts, cut = [], protrusion._window

    def spy(*args):
        cuts.append(args)
        return cut(*args)

    with mock.patch.object(protrusion, "_window", spy):
        xr_window(g, R, xr, 1)
    [(adj, parent, bags, bd, _)] = cuts
    return adj, parent, bags, bd


def assert_xr_witness_matches_reference(g: Graph, cut_sets):
    for R in map(frozenset, cut_sets):
        xr = compute_xr(g, R)
        p = xr_protrusion(g, R, xr)
        want = reference_xr_witness(g, R, xr.X)
        assert (p.witness.parent, p.witness.bags) == want
        assert p.X == xr.X and p.boundary == boundary_of(g, xr.X)
        assert p.t == 2 * len(R) and width(p.witness) <= p.t
        assert p.witness.graph == induced_subgraph(g, xr.X)[0]
        # the engine's witness: the same tree and bags, as masks
        adj, parent, bags, bd = mask_witness(g, R, xr)
        local = range(len(adj))
        assert (tuple(parent), tuple(frozenset(i for i in local if b >> i & 1) for b in bags)) == want
        assert adj == list(p.witness.graph.adj_masks)
        assert bd == sum(1 << i for i, v in enumerate(sorted(xr.X)) if v in p.boundary)


def cut_sets(n: int, sizes=range(1, 5)):
    return itertools.chain.from_iterable(
        itertools.combinations(range(n), size) for size in sizes
    )


def shuffled(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@st.composite
def small_graphs(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


class TestXRProtrusion:
    @settings(max_examples=30, deadline=None)
    @given(small_graphs())
    def test_matches_reference_on_random_graphs(self, g):
        assert_xr_witness_matches_reference(g, cut_sets(g.n))

    @pytest.mark.parametrize("L,seed", [(3, 0), (5, 1), (7, 2)])
    def test_matches_reference_on_shuffled_ladders(self, L, seed):
        g = shuffled(generate(parse_family(f"grid:2,{L}")), seed)
        assert_xr_witness_matches_reference(g, cut_sets(g.n))

    def test_matches_reference_on_grid_with_pendant_paths(self):
        # every cut set of up to 3 vertices, and a sample of the 40,920 of 4
        # vertices (all of them take about 30 s)
        g = generate(parse_family("grid-with-pendant-paths:3,3,2,12"))
        fours = list(cut_sets(g.n, [4]))
        sample = random.Random(0).sample(fours, 2000)
        assert_xr_witness_matches_reference(g, itertools.chain(cut_sets(g.n, [1, 2, 3]), sample))

    def test_witness_is_valid(self):
        g = pendant_path_host()
        R = frozenset({0})
        xr = compute_xr(g, R)
        p = xr_protrusion(g, R, xr)
        assert p.X == frozenset({0}) | frozenset(range(9, 21))
        assert validate(p.witness) == [] and width(p.witness) <= 2
        adj, parent, bags, _ = mask_witness(g, R, xr)
        assert validate_masks(adj, parent, bags)[0] == []


class TestSplitProtrusion:
    def test_window_contract_on_pendant_path(self):
        g = pendant_path_host()
        p = is_protrusion(g, frozenset(range(9, 21)) | {0}, 1)
        for c in (5, 6):
            y = split_protrusion(p, c)
            assert c < len(y) <= 2 * c
            assert len(boundary_of(g, y)) <= 2 * p.t + 1
            assert is_protrusion(g, y, 2 * p.t + 1) is not None

    def test_small_protrusion_returned_whole(self):
        g = generate(parse_family("path:8"))
        p = is_protrusion(g, set(range(4)), 1)
        assert split_protrusion(p, 3) == p.X

    def test_small_invalid_witness_raises(self):
        # singleton bags cover no edge of the path, also when |X| <= 2c
        g = generate(parse_family("path:6"))
        bad = TreeDecomposition(g, (None, 0, 1, 2, 3, 4), tuple(frozenset({v}) for v in range(6)))
        p = protrusion.Protrusion(frozenset(range(6)), frozenset(), 1, bad)
        for c in (2, 3):
            with pytest.raises(ValueError, match="invalid tree decomposition"):
                split_protrusion(p, c)

    def test_rejects_undersized(self):
        g = generate(parse_family("path:8"))
        p = is_protrusion(g, set(range(3)), 1)
        with pytest.raises(ValueError):
            split_protrusion(p, 3)

    def test_no_window_in_range(self):
        # R's three vertices all border a K5 of width 4 > |R|, so bd(X) = R,
        # and every cover holds R and one more vertex: over 2c at c = 1
        k5 = [(i, j) for i in range(3, 8) for j in range(i + 1, 8)]
        g = Graph.from_edges(11, k5 + [(0, 3), (1, 3), (2, 3), (0, 8), (8, 9), (9, 10)])
        R = frozenset({0, 1, 2})
        xr = compute_xr(g, R)
        assert xr.X == R | {8, 9, 10}
        assert xr_window(g, R, xr, 1) is None
        with pytest.raises(ValueError, match=re.escape("cannot extract a window in (1, 2] from this protrusion")):
            split_protrusion(xr_protrusion(g, R, xr), 1)
        assert xr_window(g, R, xr, 2) == split_protrusion(xr_protrusion(g, R, xr), 2)

    def test_independent_recheck(self):
        g = pendant_path_host()
        p = is_protrusion(g, frozenset(range(9, 21)) | {0}, 1)
        y = split_protrusion(p, 5)
        assert is_protrusion(g, y, 2 * p.t + 1) is not None


def reference_split_protrusion(p, c: int) -> frozenset[int]:
    """split_protrusion's window, walked on make_nice's frozenset nice form."""
    if c <= 0:
        raise ValueError("split target c must be positive")
    if len(p.X) <= c:
        raise ValueError("protrusion is not larger than c")
    if len(p.X) <= 2 * c:
        return p.X
    nice = make_nice(p.witness)
    back = sorted(p.X)
    bd_local = frozenset(i for i, v in enumerate(back) if v in p.boundary)
    ch = children(nice)
    depth = [0] * len(nice.bags)
    order = []
    stack = [root(nice)]
    while stack:
        u = stack.pop()
        order.append(u)
        for w in ch[u]:
            depth[w] = depth[u] + 1
            stack.append(w)
    cover: list[frozenset[int]] = [frozenset()] * len(nice.bags)
    for u in reversed(order):
        s = set(nice.bags[u]) | set(bd_local)
        for w in ch[u]:
            s |= cover[w]
        cover[u] = frozenset(s)
    candidates = [u for u in range(len(nice.bags)) if len(cover[u]) > c]
    b = max(candidates, key=lambda u: (depth[u], -u))
    if any(len(cover[w]) > c for w in ch[b]):
        raise AssertionError("chosen node is not deepest")
    y_local = cover[b]
    if not (c < len(y_local) <= 2 * c):
        raise ValueError(f"cannot extract a window in ({c}, {2 * c}] from this protrusion")
    return frozenset(back[v] for v in y_local)


def assert_split_matches_reference(p, xr_cut=None) -> int:
    """Compare the windows (or ValueErrors) for c = 1..9, and xr_cut(c), the
    mask pass's window (None for a ValueError), where given; returns the
    windows cut."""
    cut = 0
    for c in range(1, 10):
        try:
            want = reference_split_protrusion(p, c)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                split_protrusion(p, c)
            assert xr_cut is None or xr_cut(c) is None, (sorted(p.X), c)
            continue
        assert split_protrusion(p, c) == want, (sorted(p.X), c)
        assert xr_cut is None or xr_cut(c) == want, (sorted(p.X), c)
        cut += len(p.X) > 2 * c
    return cut


def random_witnesses(seed: int, count: int):
    """count decide_tw_masks certificates of random graphs on at most 24
    vertices, each a random t-tree (t in 1..3) with shuffled vertices that
    keeps each edge with a random probability, and a random boundary mask:
    (adjacency masks, parent links, bag masks, boundary mask)."""
    rng, out = random.Random(seed), []
    for _ in range(count):
        n, t, p = rng.randint(1, 24), rng.randint(1, 3), rng.random()
        label, adj, cliques = rng.sample(range(n), n), [0] * n, [list(range(min(n, t + 1)))]
        for v in range(t + 1, n):
            cliques.append(rng.sample(rng.choice(cliques), t) + [v])
        for clique in cliques:
            for u, v in itertools.combinations(clique, 2):
                if rng.random() < p:
                    adj[label[u]] |= 1 << label[v]
                    adj[label[v]] |= 1 << label[u]
        parent, bags = decide_tw_masks(adj, t)
        out.append((adj, parent, bags, rng.getrandbits(n) & rng.getrandbits(n)))
    return out


def join_before_later_cover(parent, bags, bd, c) -> bool:
    """Whether a node's first join over c comes before a child whose block
    top exceeds c: a window candidate that a join scan stopping at any child
    over c would miss."""
    ch = [[] for _ in bags]
    for u, p in enumerate(parent):
        if p is not None:
            ch[p].append(u)
    order = [parent.index(None)]
    for u in order:
        order.extend(ch[u])
    cover = [bag | bd for bag in bags]
    for u in reversed(order[1:]):
        cover[parent[u]] |= cover[u]
    for x, kids in enumerate(ch):
        tops, acc = [cover[k] | bags[x] for k in kids], 0
        for i, top in enumerate(tops):
            acc |= top
            if top.bit_count() > c or acc.bit_count() > c:
                if top.bit_count() <= c and any(later.bit_count() > c for later in tops[i + 1:]):
                    return True
                break
    return False


class TestWindowReference:
    """_window, walked on the witness's nodes, against the nice-form walk."""

    def test_matches_reference_on_certificates(self):
        later = 0
        for adj, parent, bags, bd in random_witnesses(0, 5000):
            for c in range(1, 7):
                assert _window(adj, parent, bags, bd, c) == reference_window(adj, parent, bags, bd, c)
                later += join_before_later_cover(parent, bags, bd, c)
        assert later > 0

    def test_outputs_pinned(self):
        # the digest is the one the nice-form walk gave
        h = hashlib.sha256()
        for adj, parent, bags, bd in random_witnesses(1, 500):
            h.update(repr([_window(adj, parent, bags, bd, c) for c in range(1, 7)]).encode())
        assert h.hexdigest() == "e8ced95ffe045fb82b6198ebba4a262a90e2cdcfc7d1846918efe3e573629049"


def post_order(ch, x: int) -> list[int]:
    """x's subtree, each node after its children and children ascending."""
    return [u for k in ch[x] for u in post_order(ch, k)] + [x]


def forms_tree(links) -> bool:
    """Whether parent links have one root, stay in range and reach the root
    from every node."""
    n = len(links)
    if links.count(None) != 1 or any(p is not None and not 0 <= p < n for p in links):
        return False
    for u in range(n):
        for _ in range(n):
            if links[u] is None:
                break
            u = links[u]
        else:
            return False
    return True


class TestValidateMasksOrder:
    def test_post_order_of_certificates(self):
        for adj, parent, bags, _ in random_witnesses(3, 500):
            bad, (ch, order) = validate_masks(adj, parent, bags)
            assert bad == []
            assert ch == [[u for u, p in enumerate(parent) if p == x] for x in range(len(bags))]
            assert order == post_order(ch, parent.index(None))

    def test_no_tree_for_broken_links(self):
        rng, broken = random.Random(3), 0
        for adj, parent, bags, _ in random_witnesses(4, 500):
            links = list(parent)
            n = len(links)
            links[rng.randrange(n)] = rng.choice([None, n, rng.randrange(n)])
            bad, tree = validate_masks(adj, links, bags)
            if forms_tree(links):
                assert tree[1] == post_order(tree[0], links.index(None))
            else:
                assert bad and tree is None
                broken += 1
        assert broken > 100


DEEP = 5000


def deep_witness(family: str) -> tuple[Graph, Protrusion]:
    """A graph of the family and the protrusion of all its vertices at t = 1,
    whose witness is deeper than the interpreter's recursion limit."""
    if family == "caterpillar":  # a spine with a pendant leaf per vertex
        half = DEEP // 2
        spine = [(i, i + 1) for i in range(half - 1)]
        g = Graph.from_edges(DEEP, spine + [(i, half + i) for i in range(half)])
    else:
        g = generate(parse_family(f"path:{DEEP}"))
    p = is_protrusion(g, range(g.n), 1, vertex_cap=g.n)
    parent, u, depth = p.witness.parent, 0, 0  # node 0 holds the first vertex eliminated
    while parent[u] is not None:
        u, depth = parent[u], depth + 1
    assert depth > sys.getrecursionlimit()
    return g, p


class TestDeepWitnesses:
    """The window, the nice form and the partition at the default recursion
    limit, on witnesses deeper than it."""

    def test_split_long_path(self):
        g = generate(parse_family("path:1500"))
        p = is_protrusion(g, range(g.n), 1, vertex_cap=2000)
        assert split_protrusion(p, 5) == frozenset(range(6))

    @pytest.mark.parametrize("family", ["path", "caterpillar"])
    def test_window_matches_reference(self, family):
        g, p = deep_witness(family)
        w, adj = p.witness, g.adj_masks
        bags = [sum(1 << v for v in bag) for bag in w.bags]
        for bd in (0, (1 << g.n // 2) | (1 << g.n - 1)):  # no boundary, or two far-apart vertices
            for c in range(1, 7):
                y = _window(adj, w.parent, bags, bd, c)
                assert y == reference_window(adj, w.parent, bags, bd, c)
                assert y is None or c < y.bit_count() <= 2 * c

    def test_make_nice(self):
        _, p = deep_witness("path")
        nice = make_nice(p.witness)
        assert validate(nice) == []
        assert validate_nice(nice, nice_kinds(nice.parent, nice.bags)) == []

    def test_partition_one_mark(self):
        g, p = deep_witness("path")
        res = partition_protrusion(g, p, {DEEP // 2}, vertex_cap=g.n)
        assert frozenset().union(*(q.X for q in res.parts)) == p.X
        assert all(DEEP // 2 not in q.X or DEEP // 2 in q.boundary for q in res.parts)
        assert all(len(q.boundary) <= 4 * p.t + 2 for q in res.parts)


class TestSplitProtrusionReference:
    """split_protrusion and xr_window, cut on the witness's mask nodes,
    against the frozenset walk on make_nice's nice form."""

    @pytest.mark.parametrize(
        "family",
        ["grid-with-pendant-paths:3,3,2,6", "star-of-paths:4,5", "grid:2,8", "random-sparse:14,20"],
    )
    def test_matches_reference_on_xr_witnesses(self, family):
        g = shuffled(generate(parse_family(family)), 0)
        cut = 0
        for R in map(frozenset, cut_sets(g.n, (1, 2))):
            xr = compute_xr(g, R)
            if xr.components:
                p, xr_cut = xr_protrusion(g, R, xr), lambda c: xr_window(g, R, xr, c)
                cut += assert_split_matches_reference(p, xr_cut)
        assert cut > 0

    def test_matches_reference_on_random_hosts(self):
        rng = random.Random(2024)
        cut = 0
        for _ in range(100):
            g, X, t = _random_protrusion_host(rng)
            cut += assert_split_matches_reference(is_protrusion(g, X, t, vertex_cap=64))
        assert cut > 0


def partition_digest(cases) -> tuple[int, str]:
    """The number of parts and a sha256 of every part (X, boundary, t, witness
    parent links and bags) and the warnings of partition_protrusion."""
    h, count = hashlib.sha256(), 0
    for g, p, Z in cases:
        res = partition_protrusion(g, p, Z, vertex_cap=64)
        count += len(res.parts)
        for q in res.parts:
            w = q.witness
            h.update(repr((sorted(q.X), sorted(q.boundary), q.t, w.parent, [sorted(b) for b in w.bags])).encode())
        h.update(repr(res.warnings).encode())
    return count, h.hexdigest()


class TestPartitionProtrusion:
    @pytest.fixture(autouse=True)
    def refuse_make_nice(self, monkeypatch):
        """The partition cuts _nice_form's mask bags, never make_nice's."""

        def refuse(*args):
            raise AssertionError("partition_protrusion called make_nice")

        monkeypatch.setattr(treewidth, "make_nice", refuse)
        monkeypatch.setattr(protrusion, "make_nice", refuse, raising=False)

    def _check(self, g, p, Z):
        res = partition_protrusion(g, p, Z)
        covered = set()
        t_out = 4 * p.t + 2
        for part in res.parts:
            covered |= part.X
            assert validate(part.witness) == []
            assert width(part.witness) <= t_out
            assert len(part.boundary) <= t_out
            assert (frozenset(Z) & part.X) <= boundary_of(g, part.X)
        assert covered == p.X
        return res

    def test_empty_z_returns_whole(self):
        g = generate(parse_family("path:9"))
        p = is_protrusion(g, set(range(9)), 1)
        res = partition_protrusion(g, p, set())
        assert len(res.parts) == 1 and res.parts[0].X == p.X

    def test_path_single_mark(self):
        g = generate(parse_family("path:10"))
        p = is_protrusion(g, set(range(1, 10)), 1)
        res = self._check(g, p, {5})
        assert len(res.parts) <= 4 * 2

    def test_star_three_marks(self):
        g = generate(parse_family("star-of-paths:3,6"))
        p = is_protrusion(g, set(range(g.n)), 1)
        self._check(g, p, {3, 9, 15})

    def test_marks_on_boundary(self):
        g = generate(parse_family("path:10"))
        p = is_protrusion(g, set(range(1, 10)), 1)
        self._check(g, p, {1, 9})

    def test_z_not_inside_raises(self):
        g = generate(parse_family("path:10"))
        p = is_protrusion(g, set(range(1, 10)), 1)
        with pytest.raises(ValueError):
            partition_protrusion(g, p, {0})

    def test_multi_component_protrusion(self):
        g = Graph.from_edges(
            9,
            [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7), (7, 8)],
        )
        p = is_protrusion(g, {1, 2, 3, 4, 5, 6, 7, 8}, 2)
        self._check(g, p, {2, 6})

    def test_outputs_pinned(self):
        # criterion 4's first 300 random marked protrusions (its 100 lead
        # them) and the four fixed cases above; the digest is the one the
        # partition gave on make_nice's frozenset nice form
        rng = random.Random(999)
        path = generate(parse_family("path:10"))
        star = generate(parse_family("star-of-paths:3,6"))
        two = Graph.from_edges(9, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7), (7, 8)])
        cases = [_marked_protrusion(rng) for _ in range(300)] + [
            (path, is_protrusion(path, set(range(1, 10)), 1), {5}),
            (star, is_protrusion(star, set(range(star.n)), 1), {3, 9, 15}),
            (path, is_protrusion(path, set(range(1, 10)), 1), {1, 9}),
            (two, is_protrusion(two, {1, 2, 3, 4, 5, 6, 7, 8}, 2), {2, 6}),
        ]
        assert partition_digest(cases) == (
            1712, "034c5f9b4d9c110a52055c9e16aef510dc11a213fb3218e5c1e764a063b436e7"
        )


def assert_marks_match_reference(td, zs) -> int:
    """_mark_nodes on the mask nice form of td against the pairwise-LCA
    fixpoint, for each vertex mask in zs; returns the marks beyond the root."""
    n, extra = td.graph.n, 0
    parent, bags = _nice_form(td.graph.adj_masks, td.parent, [sum(1 << v for v in b) for b in td.bags])
    sets = [frozenset(v for v in range(n) if bag >> v & 1) for bag in bags]
    for z in zs:
        marked = _mark_nodes(parent, bags, z)
        assert marked == reference_mark_nodes(parent, sets, {v for v in range(n) if z >> v & 1})
        extra += len(marked) - 1
    return extra


class TestMarkNodes:
    @settings(max_examples=100, deadline=None)
    @given(
        small_graphs(),
        st.integers(min_value=0, max_value=3),
        st.lists(st.integers(min_value=0, max_value=2**10 - 1), min_size=1, max_size=4),
    )
    def test_matches_fixpoint_on_certificates(self, g, t, zs):
        td = decide_tw_leq(g, t)
        if td is not None:
            assert_marks_match_reference(td, [z & (1 << g.n) - 1 for z in zs])

    def test_matches_fixpoint_on_random_hosts(self):
        rng = random.Random(4)
        extra = 0
        for _ in range(100):
            g, X, t = _random_protrusion_host(rng)
            td = is_protrusion(g, X, t, vertex_cap=64).witness
            n = td.graph.n
            sparse = [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(4)]
            extra += assert_marks_match_reference(td, sparse + [1 << rng.randrange(n), rng.getrandbits(n)])
        assert extra > 0
