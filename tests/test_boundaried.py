import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protkern.boundaried import (
    BoundariedGraph,
    boundary_of,
    canonical_code,
    enumerate_boundaried,
    glue,
    splice,
    split,
    window_key,
)
from protkern.errors import CanonizationCapExceeded
from protkern.graph import Graph, connected_components, induced_subgraph


def host_and_subset(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    x = draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1))
    return Graph.from_edges(n, edges), x


hosts = st.composite(host_and_subset)()


class TestBoundariedGraph:
    def test_rejects_duplicate_labels(self):
        g = Graph.from_edges(2, [])
        with pytest.raises(ValueError):
            BoundariedGraph(g, (0, 1), (1, 1))

    def test_rejects_nonpositive_label(self):
        with pytest.raises(ValueError):
            BoundariedGraph(Graph.from_edges(1, []), (0,), (0,))

    def test_boundary_subgraph_orders_by_label(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        b = BoundariedGraph(g, (2, 0), (1, 2))  # label 1 on vertex 2
        bs = b.boundary_subgraph()
        assert bs.n == 2 and bs.m == 0
        b2 = BoundariedGraph(g, (0, 1), (1, 2))
        assert b2.boundary_subgraph().m == 1


class TestGlue:
    def test_identifies_shared_labels(self):
        e1 = BoundariedGraph(Graph.from_edges(2, [(0, 1)]), (1,), (1,))
        e2 = BoundariedGraph(Graph.from_edges(2, [(0, 1)]), (0,), (1,))
        res = glue(e1, e2)
        assert res.graph.n == 3 and res.graph.m == 2
        assert res.heir2[0] == 1  # the shared vertex keeps e1's id

    def test_edge_union_on_boundary(self):
        a = BoundariedGraph(Graph.from_edges(2, [(0, 1)]), (0, 1), (1, 2))
        b = BoundariedGraph(Graph.from_edges(2, []), (0, 1), (1, 2))
        assert glue(a, b).graph.m == 1
        assert glue(b, a).graph.m == 1

    def test_disjoint_labels_gives_disjoint_union(self):
        a = BoundariedGraph(Graph.from_edges(2, [(0, 1)]), (0,), (1,))
        b = BoundariedGraph(Graph.from_edges(2, [(0, 1)]), (0,), (2,))
        res = glue(a, b)
        assert res.graph.n == 4 and res.graph.m == 2

    def test_commutes_up_to_isomorphism(self):
        a = BoundariedGraph(Graph.from_edges(3, [(0, 1), (1, 2)]), (0,), (1,))
        b = BoundariedGraph(Graph.from_edges(2, [(0, 1)]), (1,), (1,))
        ab = glue(a, b).graph
        ba = glue(b, a).graph
        assert ab.n == ba.n and ab.m == ba.m
        assert sorted(len(ab.adj[v]) for v in range(ab.n)) == sorted(
            len(ba.adj[v]) for v in range(ba.n)
        )


class TestSplit:
    @settings(max_examples=60, deadline=None)
    @given(hosts)
    def test_glue_inverts_split(self, gx):
        # splicing the window back in glues it onto the rest of the host
        g, x = gx
        res = split(g, x)
        out = splice(g, x, tuple(sorted(boundary_of(g, x))), res)
        # window vertices keep their ids in the window; the rest follow in host order
        rest = [v for v in range(g.n) if v not in x]
        to_x = {v: i for i, v in enumerate(sorted(x))}
        fwd = {**to_x, **{v: res.graph.n + i for i, v in enumerate(rest)}}
        assert out.n == g.n
        rebuilt = frozenset(
            (min(fwd[u], fwd[v]), max(fwd[u], fwd[v])) for u, v in g.edges
        )
        assert rebuilt == out.edges

    def test_labels_follow_ascending_host_ids(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        res = split(g, {1, 2, 3})
        bd = sorted(boundary_of(g, {1, 2, 3}))
        assert bd == [1, 3]
        assert res.labels == (1, 2)
        assert res.boundary == (0, 2)  # vertex i of the window is the i-th smallest of X

    @settings(max_examples=60, deadline=None)
    @given(hosts)
    def test_window_key_is_the_split_window(self, gx):
        # the masks, vertex i the i-th smallest of X, and the boundary in label order
        g, x = gx
        res = split(g, x)
        assert res.labels == tuple(range(1, len(res.boundary) + 1))
        masks = Graph.from_edges(res.graph.n, res.graph.edges).adj_masks
        assert window_key(g, x) == (masks, res.boundary)

    def test_boundary_of(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert boundary_of(g, {0, 1}) == frozenset({1})
        assert boundary_of(g, {1, 2}) == frozenset({1, 2})
        assert boundary_of(g, {0, 1, 2, 3}) == frozenset()


def remainder(g, x):
    """The rest of g outside X, labelled like split(g, X)."""
    bd = sorted(boundary_of(g, x))
    gr, to_r = induced_subgraph(g, set(range(g.n)) - set(x) | set(bd))
    return BoundariedGraph(gr, tuple(to_r[v] for v in bd), tuple(range(1, len(bd) + 1)))


@st.composite
def splice_cases(draw):
    g, x = draw(hosts)
    res = split(g, x)
    labels = len(res.boundary)
    n = draw(st.integers(min_value=labels, max_value=labels + 3))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    boundary = draw(st.permutations(range(n)))[:labels]
    j = BoundariedGraph(Graph.from_edges(n, edges), tuple(boundary), res.labels)
    return g, x, j


class TestSplice:
    """splice(g, X, bd(X), j) is glue(j, rest of g) with its masks seeded."""

    def check(self, g, x, j):
        out = splice(g, x, tuple(sorted(boundary_of(g, x))), j)
        want = glue(j, remainder(g, x)).graph
        assert (out.n, out.edges) == (want.n, want.edges)
        assert out == Graph(want.n, want.edges) and hash(out) == hash(want)
        assert "adj_masks" in out.__dict__
        assert out.adj_masks == Graph.from_edges(out.n, out.edges).adj_masks
        return out

    @settings(max_examples=150, deadline=None)
    @given(splice_cases())
    def test_equals_glue_onto_the_remainder(self, case):
        self.check(*case)

    def test_boundary_edges_on_both_sides(self):
        # the boundary pair 1-3 is adjacent in the host and in j
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3), (4, 5)])
        assert boundary_of(g, {1, 2, 3}) == {1, 3} and split(g, {1, 2, 3}).boundary_subgraph().m == 1
        j = BoundariedGraph(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), (2, 0), (1, 2))
        out = self.check(g, {1, 2, 3}, j)
        assert out.n == 6 and (0, 2) in out.edges

    def test_disconnected_remainder(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)])
        assert len(connected_components(remainder(g, {1, 2, 3}).graph)) == 3
        j = BoundariedGraph(Graph.from_edges(3, [(0, 2), (1, 2)]), (0, 1), (1, 2))
        out = self.check(g, {1, 2, 3}, j)
        assert [sorted(c) for c in connected_components(out)] == [[0, 1, 2, 3, 4], [5, 6]]

    def test_empty_interior_in_j(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        j = BoundariedGraph(Graph.from_edges(2, [(0, 1)]), (1, 0), (1, 2))
        out = self.check(g, {1, 2, 3, 4}, j)
        assert out.n == 4 and out.edges == frozenset({(0, 1), (1, 2), (0, 3)})


def reference_canonical_code(b):
    """Minimum over interior permutations, one edge-set lookup per vertex pair."""
    n = b.graph.n
    fixed = [v for _, v in sorted(zip(b.labels, b.boundary))]
    best = None
    for perm in itertools.permutations(b.interior()):
        order = fixed + list(perm)
        bits = 0
        for i in range(n):
            for j in range(i + 1, n):
                bits <<= 1
                u, v = sorted((order[i], order[j]))
                if (u, v) in b.graph.edges:
                    bits |= 1
        if best is None or bits < best:
            best = bits
    header = f"{n}|{','.join(map(str, sorted(b.labels)))}|".encode()
    nbytes = (n * (n - 1) // 2 + 7) // 8
    return header + (best or 0).to_bytes(max(nbytes, 1), "big")


class TestCanonicalCode:
    def test_interior_permutation_invariance(self):
        g1 = Graph.from_edges(3, [(0, 1)])  # boundary 0, interior 1 covered, 2 free
        g2 = Graph.from_edges(3, [(0, 2)])
        b1 = BoundariedGraph(g1, (0,), (1,))
        b2 = BoundariedGraph(g2, (0,), (1,))
        assert canonical_code(b1) == canonical_code(b2)

    def test_boundary_not_permuted(self):
        g = Graph.from_edges(2, [(0, 1)])
        with_edge = BoundariedGraph(g, (0, 1), (1, 2))
        bare = BoundariedGraph(Graph.from_edges(2, []), (0, 1), (1, 2))
        assert canonical_code(with_edge) != canonical_code(bare)

    def test_cap(self):
        g = Graph.from_edges(12, [])
        with pytest.raises(CanonizationCapExceeded):
            canonical_code(BoundariedGraph(g, (), ()), cap=10)

    def test_matches_reference(self):
        windows = [b for L in range(4) for b in enumerate_boundaried(5, L)]
        rng = random.Random(2009)
        for _ in range(400):
            n = rng.randint(1, 12)
            density = rng.random()
            edges = [
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density
            ]
            # at most 6 interior vertices, so at most 720 permutations
            count = rng.randint(max(0, n - 6), n)
            boundary = tuple(rng.sample(range(n), count))
            labels = tuple(rng.sample(range(1, n + 3), count))
            windows.append(BoundariedGraph(Graph.from_edges(n, edges), boundary, labels))
        for b in windows:
            assert canonical_code(b, cap=12) == reference_canonical_code(b), b


def brute_class_count(n, label_count):
    """Count label-fixing isomorphism classes by explicit orbit computation."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    interior = list(range(label_count, n))
    seen = set()
    classes = 0
    for bits in range(1 << len(pairs)):
        edges = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
        if edges in seen:
            continue
        classes += 1
        for perm in itertools.permutations(interior):
            mapping = {v: v for v in range(label_count)}
            mapping.update(dict(zip(interior, perm)))
            img = frozenset(
                (min(mapping[u], mapping[v]), max(mapping[u], mapping[v]))
                for u, v in edges
            )
            seen.add(img)
    return classes


class TestEnumeration:
    @pytest.mark.parametrize("n,labels,count", [(3, 1, 9), (4, 2, 50)])
    def test_complete_up_to_size(self, n, labels, count):
        by_size = {}
        for b in enumerate_boundaried(n, labels):
            by_size[b.graph.n] = by_size.get(b.graph.n, 0) + 1
        for size, got in by_size.items():
            assert got == brute_class_count(size, labels)
        assert sum(by_size.values()) == count

    def test_sizes_nondecreasing(self):
        sizes = [b.graph.n for b in enumerate_boundaried(4, 1)]
        assert sizes == sorted(sizes)

    def test_no_duplicates(self):
        codes = [canonical_code(b) for b in enumerate_boundaried(4, 2)]
        assert len(codes) == len(set(codes))

    def test_pinned_boundary_subgraph(self):
        pin = Graph.from_edges(2, [(0, 1)])
        for b in enumerate_boundaried(4, 2, fixed_boundary_subgraph=pin):
            assert b.boundary_subgraph() == pin
